"""Command-line interface: check, transform, solve, repl, stats.

Exit codes: 0 success, 1 a requested check failed (or the program or the
goal could not be compiled), 2 parse error or usage error (a step budget
that is not a non-negative integer included, and a program file that
cannot be read or decoded as UTF-8, or an output file that cannot be
written), 3 step budget exhausted, 4 out of memory (or an unexpected
recursion error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import fixtures
from .chainir import UndefinedPredicateError, compile_to_registry, dump_registry
from .engines import DEFAULT_BUDGET, BudgetExceededError
from .forms import CHECKERS, MissingModeError
from .oracle import sld_solve
from .session import Session, convert
from .syntax import (
    Goal,
    ParseError,
    SourceProgram,
    _display_names,
    clause_to_str,
    parse_goal,
    parse_program,
    term_to_str,
)
from .terms import mk_tuple, term_vars
from .transform import GoalError, TransformError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_BUDGET = 3
EXIT_RESOURCE = 4

# Known source/converted clause counts for bundled fixtures.
REFERENCE_COUNTS = {"split": (2, 4), "append": (2, 4)}

TIMING_GOALS = {
    "split": "s([a,b,c,d,e,f,g,h,i,j,k,l],Y,Z)",
    "append": "ap(X,Y,[a,b,c,d,e,f,g,h,i,j,k,l])",
    "nrev": "rev([a,b,c,d,e,f,g,h],R)",
    "quicksort": "qs([s(s(0)),0,s(s(s(0))),s(0)],S)",
    "member": "member(X,[a,b,c,d,e,f,g,h])",
    "reverse": "rv([a,b,c,d,e,f,g,h,i,j,k,l],R)",
    "length": "len([a,b,c,d,e,f,g,h,i,j,k,l],N)",
}


# What makes a program or a goal uncompilable: one line, exit 1.
COMPILE_ERRORS = (
    TransformError,
    MissingModeError,
    GoalError,
    UndefinedPredicateError,
)


class FileAccessError(Exception):
    """A program file that cannot be read or decoded, or an output file
    that cannot be written: reported in one line, as a usage error."""

    def __init__(self, verb, path, err):
        reason = err.strerror if isinstance(err, OSError) and err.strerror else err
        super().__init__("cannot %s %s: %s" % (verb, path, reason))


def _budget(text):
    """A step budget given as text: a non-negative integer."""
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise argparse.ArgumentTypeError(
            "step budget must be a non-negative integer, got %r" % text
        )
    return budget


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chainform",
        description="Convert definite logic programs into chain form and "
        "evaluate goals with deterministic metainterpreters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check membership in a program class")
    p_check.add_argument("file")
    p_check.add_argument(
        "--form",
        action="append",
        choices=sorted(CHECKERS),
        help="form to check (repeatable; default: moded when every "
        "predicate has a mode directive, chain otherwise)",
    )

    p_tr = sub.add_parser("transform", help="convert a program to chain form")
    p_tr.add_argument("file")
    p_tr.add_argument(
        "--mode", choices=("moded", "definite", "auto"), default="auto"
    )
    p_tr.add_argument("-o", "--output", help="write the converted program here")
    p_tr.add_argument(
        "--registry", action="store_true", help="also print the registry dump"
    )

    p_solve = sub.add_parser("solve", help="evaluate a goal")
    _eval_options(p_solve)
    p_solve.add_argument("-g", "--goal", required=True)
    p_solve.add_argument(
        "--engine",
        choices=("abcde", "continuation", "stream", "bounded"),
        default="abcde",
    )
    p_solve.add_argument("--format", choices=("text", "jsonl"), default="text")

    p_repl = sub.add_parser("repl", help="interactive goal session")
    _eval_options(p_repl)

    p_stats = sub.add_parser("stats", help="clause counts for the bundled fixtures")
    p_stats.add_argument("files", nargs="*", help="extra program files to include")
    p_stats.add_argument(
        "--timing",
        action="store_true",
        help="add an informational timing comparison (source resolution "
        "versus a second, warm converted-program evaluation); no pass/fail "
        "attached",
    )
    return parser


def _eval_options(p):
    p.add_argument("file")
    p.add_argument("--mode", choices=("moded", "definite", "auto"), default="auto")
    p.add_argument("--budget", type=_budget, default=None)
    # A bad CHAINFORM_BUDGET is reported with this command's usage line, as
    # a bad --budget is.
    p.set_defaults(usage_error=p.error)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", 0) is None:  # solve or repl without --budget
        env = os.environ.get("CHAINFORM_BUDGET")
        try:
            args.budget = _budget(env) if env else DEFAULT_BUDGET
        except argparse.ArgumentTypeError as err:
            args.usage_error("CHAINFORM_BUDGET: %s" % err)
    try:
        return COMMANDS[args.command](args)
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return EXIT_PARSE_ERROR
    except FileAccessError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_PARSE_ERROR
    except BudgetExceededError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_BUDGET
    except (RecursionError, MemoryError) as err:
        print(
            "error: out of resources (%s)" % (str(err) or type(err).__name__),
            file=sys.stderr,
        )
        return EXIT_RESOURCE


def entry():
    sys.exit(main())


def _load(path) -> SourceProgram:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise FileAccessError("read", path, err) from None
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_program(text, name=name)


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    program = _load(args.file)
    forms = args.form or [
        "moded" if program.fully_moded() else "chain"
    ]
    ok = True
    for form in forms:
        try:
            report = CHECKERS[form](program)
        except MissingModeError as err:
            print("%s: error: %s" % (form, err))
            ok = False
            continue
        print(report)
        ok = ok and report.holds
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# transform


def _render_chain(chain):
    lines = ["%% converted to chain form (%s conversion)" % chain.kind]
    source = chain.to_source()
    for clause, (src_idx, role) in zip(source.clauses, chain.provenance):
        lines.append("%% source clause %d, %s" % (src_idx, role))
        lines.append(clause_to_str(clause))
    return "\n".join(lines) + "\n"


def cmd_transform(args) -> int:
    program = _load(args.file)
    try:
        chain, _ = convert(program, args.mode)
        registry = compile_to_registry(chain) if args.registry else None
    except COMPILE_ERRORS as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_CHECK_FAILED
    text = _render_chain(chain)
    summary = "%d -> %d" % (len(program.clauses), len(chain.clauses))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise FileAccessError("write", args.output, err) from None
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    if registry is not None:
        sys.stdout.write(dump_registry(registry))
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve and repl


def _answer(goal: Goal, subst):
    """The goal's variables but those written _, their values under subst,
    and display names for every variable shown, goal variables first."""
    goal_vars = [v for v in term_vars(goal.atom) if v.name != "_"]
    values = [subst.get(v, v) for v in goal_vars]
    names = _display_names(term_vars(mk_tuple((*goal_vars, *values))))
    return goal_vars, values, names


def _binding_line(goal: Goal, subst) -> str:
    goal_vars, values, names = _answer(goal, subst)
    if not goal_vars:
        return "true"
    return ", ".join(
        "%s = %s" % (names[v], term_to_str(t, names))
        for v, t in zip(goal_vars, values)
    )


def _binding_json(goal: Goal, subst) -> dict:
    goal_vars, values, names = _answer(goal, subst)
    return {names[v]: term_to_str(t, names) for v, t in zip(goal_vars, values)}


def cmd_solve(args) -> int:
    program = _load(args.file)
    goal = parse_goal(args.goal)
    try:
        session = Session(program, args.mode)
        if args.engine == "bounded":
            enum, answers = session.enumerate(goal, args.budget)
        else:
            answers = session.answers(goal, args.engine, args.budget)
    except COMPILE_ERRORS as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.engine == "bounded":
        # The first answer the goal accepts, and the composition steps spent
        # finding it; raw answers the goal's own bindings reject are skipped.
        # A ground goal's answer is the empty Subst, which is falsy.
        decoded = next(answers, None)
        if args.format == "jsonl":
            answer = None if decoded is None else _binding_json(goal, decoded)
            print(json.dumps({"answer": answer, "resource": enum.steps}))
        else:
            print(_binding_line(goal, decoded) if decoded is not None else "no answers")
            print("resource=%d" % enum.steps)
        return EXIT_OK
    if not answers:
        if args.format == "text":
            print("no answers")
        return EXIT_OK
    for subst in answers:
        if args.format == "jsonl":
            print(json.dumps({"answer": _binding_json(goal, subst)}))
        else:
            print(_binding_line(goal, subst))
    return EXIT_OK


def cmd_repl(args) -> int:
    # Built on the first goal; a program that cannot be read or loaded is
    # reported at every goal, and the session goes on.
    session = None
    while True:
        try:
            line = input("?- ")
        except EOFError:
            print()
            return EXIT_OK
        line = line.strip().rstrip(".")
        if not line:
            continue
        try:
            if session is None:
                session = Session(_load(args.file), args.mode)
            goal = parse_goal(line)
            enum, answers = session.enumerate(goal, args.budget)
        except ParseError as err:
            print("parse error: %s" % err)
            continue
        except (FileAccessError, *COMPILE_ERRORS) as err:
            print("error: %s" % err)
            continue
        _drive(enum, answers, goal)


def _drive(enum, answers, goal):
    while True:
        try:
            decoded = next(answers, None)
        except BudgetExceededError as err:
            print("error: %s" % err)
            return
        if decoded is None:
            print("no more answers")
            return
        print(_binding_line(goal, decoded))
        try:
            reply = input("more? (y/n) ")
        except EOFError:
            reply = "n"
        if reply.strip().lower() != "y":
            enum.halt()
            return


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> int:
    rows = []
    # A bundled fixture's reference count and timing goal are its own: a
    # file named after one gets neither.
    programs = [
        (name, fixtures.load_fixture(name), True) for name in fixtures.FIXTURE_NAMES
    ]
    for path in args.files:
        programs.append((os.path.basename(path), _load(path), False))
    for name, program, bundled in programs:
        chain, mode = convert(program, "auto")
        note = ""
        ref = REFERENCE_COUNTS.get(name) if bundled else None
        if ref is not None:
            note = (
                "matches reference count"
                if ref == (len(program.clauses), len(chain.clauses))
                else "expected %d -> %d" % ref
            )
        goal = TIMING_GOALS.get(name) if bundled else None
        rows.append(
            (name, len(program.clauses), len(chain.clauses), mode, note, program, goal)
        )
    print("%-12s %7s %12s %-9s %s" % ("fixture", "clauses", "transformed", "mode", "note"))
    for name, n_src, n_chain, mode, note, *_ in rows:
        print("%-12s %7d %12d %-9s %s" % (name, n_src, n_chain, mode, note))
    if args.timing:
        print()
        _timing_report(rows)
    return EXIT_OK


def _timing_report(rows):
    """Informational only: how the conversion plus the interpretation layer
    affects runtime relative to direct resolution of the source.  The
    converted side is Session.answers: the goal's plan, its search and the
    decoding of its answers.  It is timed on its second call, since the
    first also generates the units' functions and fills the dispatch
    table."""
    print(
        "%-12s %14s %14s %8s"
        % ("fixture", "source (ms)", "converted (ms)", "ratio")
    )
    for name, _, _, _, _, program, goal_text in rows:
        if goal_text is None:
            continue
        goal = parse_goal(goal_text)
        session = Session(program)
        session.answers(goal)
        t0 = time.perf_counter()
        reference = sld_solve(program, goal, depth_budget=100_000)
        t1 = time.perf_counter()
        answers = session.answers(goal)
        t2 = time.perf_counter()
        assert len(answers) == len(reference.answers)
        src_ms = (t1 - t0) * 1000
        conv_ms = (t2 - t1) * 1000
        ratio = conv_ms / src_ms if src_ms > 0 else float("inf")
        print("%-12s %14.2f %14.2f %7.1fx" % (name, src_ms, conv_ms, ratio))


COMMANDS = {
    "check": cmd_check,
    "transform": cmd_transform,
    "solve": cmd_solve,
    "repl": cmd_repl,
    "stats": cmd_stats,
}


if __name__ == "__main__":
    entry()
