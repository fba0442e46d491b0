"""Benchmark worker: runs one workload through chainform in this process.

run.py starts it from the root of a checkout and reads its standard output,
one JSON event per line:

  {"ev": "info", ...}                      provenance
  {"ev": "start", "op": id}                an in-process operation begins
  {"ev": "end"}                            ... and returned
  {"ev": "fail", "op": id, "why": text, "wrong": bool}
  {"ev": "time", "metric": name, "op": id, "s": x, "c": y}
                                           one timed in-process operation, in
                                           seconds, and the calibration time
                                           around it
  {"ev": "layers", "metrics": {...}}       one traced iteration's layer metrics
  {"ev": "done", "peak_rss_mb": x}

An operation that kills this process is blamed on the last "start" without
an "end"; run.py restarts the worker with that operation in --skip.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import workloads as wl
from tracing import KernelCounters, NullTracer, Tracer

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench")
CLI_TIMEOUT_S = 60
PROBE_TIMEOUT_S = 15
CLI_IMPORT_REPS = 3
FIRST_ANSWER = ("bounded", "enumerate")
CALIBRATE_EVERY_S = 0.05
MIN_PASSES = 5
MIN_TRACED_PASSES = 1

# chainform is imported in main(), from the checkout's src directory.
chainform = engines = forms = oracle = syntax = transform = chainir = terms = None


def emit(**event):
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def import_chainform():
    global chainform, engines, forms, oracle, syntax, transform, chainir, terms
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import chainform
    from chainform import chainir, engines, forms, oracle, syntax, terms, transform


# ---------------------------------------------------------------------------
# The pipeline, one call into a layer per span.


class Program:
    """One loaded program: source, chain program and registry."""

    def __init__(self, name, text, mode, tracer, gchain_check=False):
        with tracer.span("syntax.parse_program"):
            self.source = syntax.parse_program(text, name=name)
        if mode == "moded":
            with tracer.span("forms.check_moded"):
                report = forms.check_moded(self.source)
            if not report.holds:
                raise ValueError("%s is not moded:\n%s" % (name, report))
            with tracer.span("transform.convert"):
                self.chain = transform.transform_moded(self.source)
        else:
            with tracer.span("transform.convert"):
                self.chain = transform.transform_definite(self.source)
        if gchain_check:
            # The G-chain check `chainform solve` runs to pick unit resolution.
            with tracer.span("forms.check_gchain"):
                forms.check_gchain(self.chain.to_source())
        with tracer.span("chainir.registry"):
            self.registry = chainir.compile_to_registry(self.chain)


def load_programs(w, tracer, gchain_check=False):
    return {
        name: Program(name, text, w.mode, tracer, gchain_check)
        for name, text in w.programs.items()
    }


def evaluate(engine, args, plan, tracer):
    """Run one engine on a compiled goal; decoded answers (Substs)."""
    if engine in FIRST_ANSWER:
        return first_answer(engine, args, plan, tracer)
    with tracer.span("engines." + engine):
        if engine == "abcde":
            raw = engines.eval_abcde(*args)
        elif engine == "continuation":
            raw = engines.eval_continuation(*args)
        else:
            raw = engines.eval_stream(terms.NIL, [args[0]], *args[1:])
    with tracer.span("transform.decode"):
        return plan.decode_all(raw)


def first_answer(engine, args, plan, tracer):
    """The first decoded answer, as `solve --engine bounded` and the repl
    find it; an empty list when there is none."""
    if engine == "bounded":
        with tracer.span("engines.bounded"):
            raw = engines.eval_bounded(*args).answer
        with tracer.span("transform.decode"):
            decoded = None if raw is None else plan.decode(raw)
        return [] if decoded is None else [decoded]
    with tracer.span("engines.enumerate"):
        enum = engines.enumerate_prolog(*args)
    while True:
        with tracer.span("engines.enumerate"):
            raw = enum.next()
        if raw is None:
            return []
        with tracer.span("transform.decode"):
            decoded = plan.decode(raw)
        if decoded is not None:
            return [decoded]


def run_op(engine, goal, program, w, tracer):
    """Goal text to decoded answers; returns (parsed goal, answers, seconds)."""
    gc.collect()
    t0 = perf_counter()
    with tracer.span("op." + engine, goal.id):
        with tracer.span("syntax.parse_goal"):
            parsed = syntax.parse_goal(goal.text)
        with tracer.span("transform.plan"):
            plan = transform.compile_goal(parsed, program.chain, w.mode)
        args = (plan.initial, plan.continuations, program.registry, w.uni)
        answers = evaluate(engine, args, plan, tracer)
    return parsed, answers, perf_counter() - t0


# ---------------------------------------------------------------------------
# Answer checking.


def to_value(t):
    """A ground chainform term as a workloads value: atoms become str, Peano
    numerals int, lists Python lists; anything else a tagged tuple."""
    depth = 0
    while type(t) is terms.Compound and t.functor == "s" and len(t.args) == 1:
        depth += 1
        t = t.args[0]
    if depth:
        inner = to_value(t)
        return inner + depth if type(inner) is int else ("s",) * depth + (inner,)
    if type(t) is terms.Constant:
        return [] if t.symbol == "nil" else t.symbol
    if type(t) is terms.Compound and t.functor == "cons":
        items, tail = terms.list_parts(t)
        if terms.is_nil(tail):
            return [to_value(x) for x in items]
    if type(t) is terms.Compound:
        return (t.functor,) + tuple(to_value(a) for a in t.args)
    return ("var", t.name)


class Checker:
    """Compares an operation's answers with the workload's reference."""

    def __init__(self, w, programs):
        self.w = w
        self.sld = {}
        if w.reference == "sld":
            for goal in w.goals:
                self.sld[goal.id] = self.sld_answers(goal, programs[goal.program])

    @staticmethod
    def sld_answers(goal, program):
        parsed = syntax.parse_goal(goal.text)
        result = oracle.sld_solve(program.source, parsed, depth_budget=100_000)
        if result.truncated:
            raise RuntimeError("the SLD reference truncated %s" % goal.text)
        return [oracle.canonical_answer(parsed, a.bindings) for a in result.answers]

    def wrong(self, engine, goal, parsed, answers):
        """None when the answers are right, else what is wrong."""
        first_only = engine in FIRST_ANSWER
        if self.w.reference == "python":
            by_name = {v.name: v for v in terms.term_vars(parsed.atom)}
            got = [
                tuple(to_value(s.get(by_name[n])) for n in goal.out_vars)
                for s in answers
            ]
            want = list(goal.expected)
        else:
            got = [oracle.canonical_answer(parsed, s) for s in answers]
            want = self.sld[goal.id]
            if not self.w.ordered:
                if first_only:
                    ok = (len(got) == 1 and got[0] in want) if want else got == []
                    return None if ok else "first answer not among the reference answers"
                got = sorted(map(repr, got))
                want = sorted(map(repr, want))
        if first_only:
            want = want[:1]
        if got == want:
            return None
        return "%d answers, expected %d%s" % (
            len(got), len(want), "" if len(got) != len(want) else ", values differ"
        )


# ---------------------------------------------------------------------------
# Subprocesses.


def cli_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(cmd, workdir, timeout):
    """One `chainform` subprocess; returns (seconds, failure or None)."""
    argv = [sys.executable, "-m", "chainform.cli", *cmd.args]
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=workdir, env=cli_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, "timed out after %d s" % timeout
    seconds = perf_counter() - t0
    rc = proc.returncode
    if rc < 0:
        return seconds, "killed by %s" % signal.Signals(-rc).name
    if rc != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        return seconds, "exit code %d: %s" % (rc, last[0][:200])
    return seconds, cli_output_wrong(cmd, proc.stdout)


def cli_output_wrong(cmd, stdout):
    lines = stdout.splitlines()
    if cmd.stdout_line is not None:
        last = lines[-1] if lines else ""
        return None if last == cmd.stdout_line else "printed %r" % last[:200]
    if cmd.goal is None:
        return None
    got = [json.loads(line)["answer"] for line in lines if line.strip()]
    want = [wl.answer_bindings(cmd.goal, a) for a in cmd.goal.expected]
    if "--mode" in cmd.args:  # definite answers compare as multisets
        got = sorted(json.dumps(a, sort_keys=True) for a in got)
        want = sorted(json.dumps(a, sort_keys=True) for a in want)
    return None if got == want else "printed %d answers, expected %d" % (len(got), len(want))


def cli_import_seconds(workdir):
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import chainform.cli"], cwd=workdir, env=cli_env(),
        check=True, timeout=CLI_TIMEOUT_S,
    )
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# Untraced and traced iterations.


def _fib(n):
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def calibration_seconds():
    """Time of a fixed pure-Python task (tuples, dict updates, string
    formatting, recursive calls) that shares no code with chainform."""
    t0 = perf_counter()
    counts = {}
    acc = 0
    for i in range(1500):
        t = (i, (i & 7, None), "k%d" % (i & 63))
        counts[t[2]] = counts.get(t[2], 0) + 1
        acc += len(t) + _fib(6)
    return perf_counter() - t0


class Speedometer:
    """The machine's speed as the calibration time, measured again when the
    last measurement is older than CALIBRATE_EVERY_S."""

    def __init__(self):
        self.at = -math.inf
        self.seconds = None

    def current(self):
        now = perf_counter()
        if now - self.at > CALIBRATE_EVERY_S:
            self.seconds = calibration_seconds()
            self.at = perf_counter()
        return self.seconds

    def bracket(self, before):
        """The mean of `before`, taken ahead of an operation, and the
        current calibration, so that a long operation sees both ends."""
        return (before + self.current()) / 2


class Run:
    def __init__(self, w, skip, workdir):
        self.w = w
        self.skip = skip
        self.workdir = workdir
        self.failed = set()
        self.speed = Speedometer()

    def fail(self, op, why, wrong=False):
        if op not in self.failed:
            self.failed.add(op)
            emit(ev="fail", op=op, why=why, wrong=wrong)

    def setup_seconds(self):
        gc.collect()
        t0 = perf_counter()
        load_programs(self.w, NullTracer())
        return perf_counter() - t0

    def engine_round(self, programs, checker, tracer, render_abcde=False, before_goal=None):
        """Every goal through every engine; (engine, goal, seconds,
        calibration seconds) of each operation that succeeded."""
        times = []
        for i, goal in enumerate(self.w.goals):
            if before_goal:
                before_goal(i)
            for engine in wl.ENGINES:
                op = "%s/%s" % (engine, goal.id)
                if op in self.skip:
                    continue
                before = self.speed.current()
                emit(ev="start", op=op)
                try:
                    parsed, answers, seconds = run_op(
                        engine, goal, programs[goal.program], self.w, tracer
                    )
                except Exception as err:  # a failed operation, not a failed run
                    emit(ev="end")
                    self.fail(op, "%s: %s" % (type(err).__name__, str(err)[:200]))
                    continue
                emit(ev="end")
                wrong = checker.wrong(engine, goal, parsed, answers)
                if wrong:
                    self.fail(op, wrong, wrong=True)
                    continue
                times.append((engine, goal, seconds, self.speed.bracket(before)))
                if render_abcde and engine == "abcde":
                    render(parsed, answers, tracer)
        return times

    def cli_round(self, commands, timeout):
        """Runs the commands; (command, seconds) of each that succeeded."""
        times = []
        for cmd in commands:
            seconds, why = run_cli(cmd, self.workdir, timeout)
            if why:
                self.fail(cmd.id, why, wrong=why.startswith("printed"))
            else:
                times.append((cmd, seconds))
        return times


def render(parsed, answers, tracer):
    goal_vars = terms.term_vars(parsed.atom)
    with tracer.span("syntax.render"):
        for s in answers:
            for v in goal_vars:
                syntax.term_to_str(s.get(v, v))


def summed(times, key):
    out = {}
    for engine, goal, seconds, _ in times:
        k = key(engine, goal)
        out[k] = out.get(k, 0.0) + seconds
    return out


def slope(xs, ys):
    """Least-squares slope of log y over log x, over the points with y > 0
    (a level whose operations all failed has none); 0 below two points."""
    points = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    if len(points) < 2:
        return 0.0
    lx, ly = zip(*points)
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def untraced_iteration(run, programs, checker):
    def setup(i):
        # Spread over the pass, so that set-up is sampled in every phase of
        # the machine's speed drift.
        if i % run.w.setup_every == 0:
            before = run.speed.current()
            seconds = run.setup_seconds()
            emit(ev="time", metric="setup_s", op="setup", s=seconds, c=run.speed.bracket(before))

    for engine, goal, seconds, c in run.engine_round(programs, checker, NullTracer(), before_goal=setup):
        emit(ev="time", metric=engine + "_s", op=goal.id, s=seconds, c=c)


def traced_iteration(run, programs, checker, trace_path):
    """One untraced pass for reference, then the same work traced."""
    w = run.w
    setup = run.setup_seconds()
    plain = run.engine_round(programs, checker, NullTracer())
    plain_by_engine = summed(plain, lambda e, g: e)
    plain_by_level = summed(plain, lambda e, g: (e, g.level))

    tracer = Tracer()
    counters = KernelCounters()
    traced_programs = load_programs(w, tracer, gchain_check=True)
    gc.freeze()  # as after the untraced setup
    with counters.installed(engines):
        run.engine_round(traced_programs, checker, tracer, render_abcde=True)

    # Steps and step rate come from the enumerator run to exhaustion,
    # outside the counting wrappers.
    steps = 0
    exhaust = 0.0
    for goal in w.goals:
        op = "enumerate/" + goal.id
        if op in run.skip:
            continue
        program = programs[goal.program]
        plan = transform.compile_goal(syntax.parse_goal(goal.text), program.chain, w.mode)
        gc.collect()
        emit(ev="start", op=op)
        t0 = perf_counter()
        enum = engines.enumerate_prolog(plan.initial, plan.continuations, program.registry, w.uni)
        for _ in enum:
            pass
        exhaust += perf_counter() - t0
        emit(ev="end")
        steps += enum.steps

    calls = counters.calls
    if steps > 0 and not any(calls.values()):
        raise SystemExit(
            "perfbench: the engines made %d steps but no call reached the kernel "
            "wrappers on chainform.engines.%s; the engines no longer call the "
            "terms functions that module binds" % (steps, "/".join(calls))
        )

    for goal in w.goals:
        if goal.level == 0:
            program = programs[goal.program]
            parsed = syntax.parse_goal(goal.text)
            gc.collect()
            with tracer.span("oracle.sld", goal.id):
                oracle.sld_solve(program.source, parsed, depth_budget=100_000)
    sld = tracer.total("oracle.sld")

    cli_seconds = sum(seconds for _, seconds in run.cli_round(w.cli, CLI_TIMEOUT_S))
    imports = sorted(cli_import_seconds(run.workdir) for _ in range(CLI_IMPORT_REPS))

    engine_time = {e: tracer.total("engines." + e) for e in wl.ENGINES}
    levels = range(len(wl.LADDER))
    per_level = {lv: sum(1 for g in w.goals if g.level == lv) for lv in levels}
    metrics = {
        **{"engines.%s_s" % e: s for e, s in engine_time.items()},
        "engines.self_s": sum(engine_time.values()) - counters.seconds,
        "engines.steps": steps,
        "engines.steps_per_s": steps / exhaust,
        "terms.kernel_s": counters.seconds,
        "terms.match_calls": calls["match"],
        "terms.unify_calls": calls["unify"],
        "terms.rename_calls": calls["rename_many"],
        "terms.match_ok_ratio": counters.ok["match"] / max(calls["match"], 1),
        "terms.unify_ok_ratio": counters.ok["unify"] / max(calls["unify"], 1),
        "syntax.parse_s": tracer.total("syntax.parse_program") + tracer.total("syntax.parse_goal"),
        "syntax.clauses_per_s": sum(len(p.source.clauses) for p in traced_programs.values())
        / tracer.total("syntax.parse_program"),
        "forms.check_s": tracer.total("forms.check_moded") + tracer.total("forms.check_gchain"),
        "transform.convert_s": tracer.total("transform.convert"),
        "transform.chain_clauses": sum(len(p.chain.clauses) for p in traced_programs.values()),
        "chainir.registry_s": tracer.total("chainir.registry"),
        "transform.plan_s": tracer.total("transform.plan"),
        "transform.decode_s": tracer.total("transform.decode"),
        "syntax.render_s": tracer.total("syntax.render"),
        "cli.commands_s": cli_seconds,
        "cli.import_s": imports[len(imports) // 2],
        "oracle.sld_s": sld,
        "oracle.chain_over_sld": (setup + plain_by_level.get(("abcde", 0), 0.0)) / sld,
        **{
            "scaling.%s_exp" % e: slope(
                wl.LADDER, [plain_by_level.get((e, lv), 0.0) / per_level[lv] for lv in levels]
            )
            for e in wl.ENGINES
        },
        "trace.overhead": sum(tracer.total("op." + e) for e in wl.ENGINES)
        / sum(plain_by_engine.values()),
    }
    emit(ev="layers", metrics=metrics)
    self_s = tracer.self_times()  # kernel calls all run inside engine spans
    self_s["engines"] -= counters.seconds
    self_s["terms"] = counters.seconds
    tracer.write(trace_path, {
        "workload": w.name,
        "self_s": self_s,
        "kernel": {"calls": calls, "ok": counters.ok, "seconds": counters.seconds},
    })


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--skip", default="")
    args = parser.parse_args(argv)
    start = perf_counter()
    import_chainform()
    w = wl.WORKLOADS[args.workload](args.seed)
    emit(
        ev="info",
        backend=chainform.BACKEND,
        python=platform.python_version(),
        attempted=len(w.goals) * len(wl.ENGINES) + len(w.cli) + len(w.probes),
    )

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        for name, text in w.programs.items():
            with open(os.path.join(workdir, name + ".pl"), "w", encoding="utf-8") as handle:
                handle.write(text)
        run = Run(w, set(filter(None, args.skip.split(","))), workdir)
        programs = load_programs(w, NullTracer())
        checker = Checker(w, programs)
        # Warm imports and code paths before timing: the CLI once (which
        # also writes its bytecode cache), each engine on the first goal.
        cli_import_seconds(workdir)
        first = w.goals[0]
        for engine in wl.ENGINES:
            op = "%s/%s" % (engine, first.id)
            if op not in run.skip:
                emit(ev="start", op=op)
                run_op(engine, first, programs[first.program], w, NullTracer())
                emit(ev="end")
        # Collections before each timed call then only walk new objects.
        gc.collect()
        gc.freeze()

        iterations = 0
        last = 0.0
        minimum = MIN_TRACED_PASSES if args.trace else MIN_PASSES
        trace_path = os.path.join(OUT_DIR, "trace-%s.json" % w.name)
        while iterations < minimum or perf_counter() - start + last <= args.seconds:
            t0 = perf_counter()
            if args.trace:
                traced_iteration(run, programs, checker, trace_path)
            else:
                untraced_iteration(run, programs, checker)
            last = perf_counter() - t0
            iterations += 1
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Outcome only, never timed: the CLI commands, which traced passes
        # time, and the depth probe.
        if not args.trace:
            run.cli_round(w.cli, CLI_TIMEOUT_S)
        run.cli_round(w.probes, PROBE_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(ev="done", peak_rss_mb=peak)
    return 0


if __name__ == "__main__":
    sys.exit(main())
