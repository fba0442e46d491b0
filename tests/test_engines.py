"""Engine tests: the literal evaluator clauses, agreement between all four
engines, enumeration control, bounded resource counts, budgets, exhaustive
step counts, the choice points held, and depth."""

import ast
import importlib.util
import random
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import (
    BudgetCut,
    build_pipeline,
    counted_search,
    decoded_canonical,
    first_answer_steps,
    oracle_canonical,
    pass_through_predicates,
    same_answer_sequence,
)
from genprog import (
    random_definite_program,
    random_ground_goal,
    random_moded_program,
    random_open_goal,
)

from chainform import engines
from chainform.chainir import Registry, compile_to_registry
from chainform.engines import (
    SEAM,
    BudgetExceededError,
    enumerate_prolog,
    eval_abcde,
    eval_bounded,
    eval_continuation,
    eval_stream,
)
from chainform.oracle import canonical_answer
from chainform.syntax import Goal, parse_goal, parse_program
from chainform.terms import (
    Compound,
    Constant,
    NIL,
    Variable,
    canonical,
    is_ground,
    is_nil,
    list_parts,
    mk_list,
    mk_tuple,
    term_vars,
)
from chainform.transform import compile_goal, transform_definite, transform_moded
from chainform.units import compile_unit

a, b = Constant("a"), Constant("b")


@pytest.fixture(scope="module")
def split():
    return build_pipeline("split", "moded")


@pytest.fixture(scope="module")
def append_def():
    return build_pipeline("append", "definite")


class TestAbcde:
    def test_split_answer_list(self, split):
        plan = split.plan("s([a,b],Y,Z)")
        answers = eval_abcde(plan.initial, plan.continuations, split.registry)
        assert answers == [
            mk_tuple([NIL, NIL, mk_list([a, b])]),
            mk_tuple([NIL, mk_list([a]), mk_list([b])]),
            mk_tuple([NIL, mk_list([a, b]), NIL]),
        ]

    def test_empty_continuation_is_identity(self, split):
        x = mk_tuple([NIL, a])
        assert eval_abcde(x, [], split.registry) == [x]

    def test_definite_append_decoded(self, append_def):
        plan = append_def.plan("ap(X,Y,[a,b])")
        answers = eval_abcde(
            plan.initial, plan.continuations, append_def.registry, uni="unify"
        )
        got = decoded_canonical(append_def, "ap(X,Y,[a,b])", answers)
        assert got == oracle_canonical(append_def, "ap(X,Y,[a,b])")
        assert len(got) == 3

    def test_failing_goal_empty(self, split):
        plan = split.plan("s([a],[b],Z)")
        answers = eval_abcde(plan.initial, plan.continuations, split.registry)
        # The raw traversal still finds both splits of [a]; decoding filters.
        assert plan.decode_all(answers) == []


class TestEngineAgreement:
    def test_corpus_agreement(self, pipelines):
        for pipe in pipelines:
            for goal_text in pipe.goals():
                plan = pipe.plan(goal_text)
                args = (plan.initial, plan.continuations, pipe.registry)
                base = eval_abcde(*args, uni=pipe.uni)
                assert same_answer_sequence(
                    eval_continuation(*args, uni=pipe.uni), base
                ), (pipe.fixture, goal_text)
                streamed = eval_stream(
                    NIL, [plan.initial], plan.continuations,
                    pipe.registry, uni=pipe.uni,
                )
                assert same_answer_sequence(streamed, base), (
                    pipe.fixture,
                    goal_text,
                )
                enumerated = list(enumerate_prolog(*args, uni=pipe.uni))
                assert same_answer_sequence(enumerated, base), (
                    pipe.fixture,
                    goal_text,
                )

    @pytest.mark.parametrize("uni", ["match", "unify"])
    def test_stream_of_inputs(self, pipelines, uni):
        """A stream answers each input as eval_abcde does alone, whatever
        the inputs before it left in the run."""
        for pipe in (p for p in pipelines if p.uni == uni):
            by_qs = {}
            for goal_text in pipe.goals():
                plan = pipe.plan(goal_text)
                by_qs.setdefault(plan.continuations, []).append(plan.initial)
            for qs, xs in by_qs.items():
                xs = [*xs, *xs]
                alone = []
                for x in xs:
                    alone.extend(eval_abcde(x, qs, pipe.registry, uni=uni))
                streamed = eval_stream(NIL, xs, qs, pipe.registry, uni=uni)
                assert same_answer_sequence(streamed, alone), (pipe.fixture, xs)
                bad = mk_tuple([a, *xs[0].args[1:]])
                with pytest.raises(ValueError, match="shared stack"):
                    eval_stream(NIL, [xs[0], bad, xs[0]], qs, pipe.registry,
                                uni=uni)

    def test_stream_requires_shared_stack(self, split):
        plan = split.plan("s([a],Y,Z)")
        with pytest.raises(ValueError, match="shared stack"):
            eval_stream(a, [plan.initial], plan.continuations, split.registry)


class TestEnumerate:
    def test_prefix_on_demand(self, split):
        plan = split.plan("s([a,b],Y,Z)")
        e = enumerate_prolog(plan.initial, plan.continuations, split.registry)
        first = e.next()
        assert first == mk_tuple([NIL, NIL, mk_list([a, b])])
        steps_before = e.steps
        e.halt()
        assert e.steps == steps_before
        assert e.next() is None
        assert e.steps == steps_before

    def test_demanded_prefix_matches_exhaustive_list(self, split):
        plan = split.plan("s([a,b,c],Y,Z)")
        args = (plan.initial, plan.continuations, split.registry)
        full = eval_abcde(*args)
        for k in range(len(full) + 1):
            e = enumerate_prolog(*args)
            got = [e.next() for _ in range(k)]
            assert got == full[:k]
            e.halt()

    def test_exhaustion_after_last(self, split):
        plan = split.plan("s([a,b],Y,Z)")
        e = enumerate_prolog(plan.initial, plan.continuations, split.registry)
        got = [e.next() for _ in range(3)]
        assert all(t is not None for t in got)
        assert e.next() is None
        assert e.next() is None

    def test_no_answers(self, split):
        registry = split.registry
        plan = split.plan("s([a],Y,Z)")
        # An input no unit clause accepts: wrong tuple width.
        e = enumerate_prolog(mk_tuple([NIL, a, a, a, a]), plan.continuations, registry)
        assert e.next() is None


class TestBounded:
    def test_split_first_answer_one_step(self, split):
        plan = split.plan("s([a,b],Y,Z)")
        result = eval_bounded(plan.initial, plan.continuations, split.registry)
        assert result.answer == mk_tuple([NIL, NIL, mk_list([a, b])])
        assert result.resource == 1

    def test_empty_continuation_zero(self, split):
        x = mk_tuple([NIL, a])
        result = eval_bounded(x, [], split.registry)
        assert result.answer == x and result.resource == 0

    def test_noans_counts_whole_space(self, split):
        x = mk_tuple([NIL, a, a, a, a])
        result = eval_bounded(x, ["s_hat"], split.registry)
        assert result.answer is None
        expected, steps = first_answer_steps(split.registry, x, ["s_hat"], "match")
        assert expected is None
        assert result.resource == steps

    def test_matches_instrumented_count_on_corpus(self, pipelines):
        for pipe in pipelines:
            for goal_text in pipe.goals():
                plan = pipe.plan(goal_text)
                result = eval_bounded(
                    plan.initial, plan.continuations, pipe.registry, uni=pipe.uni
                )
                answer, steps = first_answer_steps(
                    pipe.registry, plan.initial, plan.continuations, pipe.uni
                )
                if answer is None:
                    assert result.answer is None
                else:
                    assert canonical(result.answer) == canonical(answer)
                assert result.resource == steps, (pipe.fixture, goal_text)

    def test_head_of_abcde(self, pipelines):
        for pipe in pipelines:
            for goal_text in pipe.goals():
                plan = pipe.plan(goal_text)
                args = (plan.initial, plan.continuations, pipe.registry)
                full = eval_abcde(*args, uni=pipe.uni)
                result = eval_bounded(*args, uni=pipe.uni)
                if full:
                    assert canonical(result.answer) == canonical(full[0])
                else:
                    assert result.answer is None


class TestKernelHook:
    """Every match-mode unit attempt of every engine but those at
    pass-through seams calls the module-level name chainform.engines.match
    once, so a wrapper installed there, as perfbench's kernel counters
    install theirs, sees all of them.  nrev has pass-through seams."""

    ENGINES = {
        "abcde": lambda args: eval_abcde(*args),
        "continuation": lambda args: eval_continuation(*args),
        "stream": lambda args: eval_stream(NIL, [args[0]], *args[1:]),
        "enumerate": lambda args: list(enumerate_prolog(*args)),
        "bounded": lambda args: [eval_bounded(*args).answer],
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_wrapper_counts_every_unit_attempt(self, engine, monkeypatch):
        nrev = build_pipeline("nrev", "moded")
        calls = {"all": 0, "ok": 0}
        original = engines.match

        def counted(*args):
            result = original(*args)
            calls["all"] += 1
            calls["ok"] += result is not None
            return result

        monkeypatch.setattr(engines, "match", counted)
        skipped_in_all = 0
        for goal_text in nrev.goals():
            plan = nrev.plan(goal_text)
            args = (plan.initial, plan.continuations, nrev.registry)
            passes = []
            answers, _, (attempted, succeeded) = counted_search(
                nrev.registry, plan.initial, plan.continuations, "match",
                first_only=engine == "bounded", passes=passes,
            )
            calls["all"] = calls["ok"] = 0
            got = self.ENGINES[engine](args)
            assert got == (answers or [None]), goal_text
            # A pass-through seam runs no unit, and its unit never fails.
            skipped = len(passes)
            assert calls["all"] == attempted - skipped, goal_text
            assert calls["ok"] == succeeded - skipped, goal_text
            assert calls["all"] > 0
            skipped_in_all += skipped
        assert skipped_in_all > 0


class TestUnifyKernelHook:
    """Every unify-mode unit attempt of every engine but those at
    pass-through seams calls the module-level name chainform.engines.unify
    once, as TestKernelHook checks for match.  append has no pass-through
    seam."""

    @pytest.mark.parametrize("engine", sorted(TestKernelHook.ENGINES))
    def test_wrapper_counts_every_unit_attempt(self, engine, monkeypatch):
        append = build_pipeline("append", "definite")
        calls = {"all": 0, "ok": 0}
        original = engines.unify

        def counted(*args):
            result = original(*args)
            calls["all"] += 1
            calls["ok"] += result is not None
            return result

        monkeypatch.setattr(engines, "unify", counted)
        for goal_text in append.goals():
            plan = append.plan(goal_text)
            args = (plan.initial, plan.continuations, append.registry, "unify")
            passes = []
            answers, _, (attempted, succeeded) = counted_search(
                append.registry, plan.initial, plan.continuations, "unify",
                first_only=engine == "bounded", passes=passes,
            )
            calls["all"] = calls["ok"] = 0
            got = TestKernelHook.ENGINES[engine](args)
            assert same_answer_sequence(got, answers or [None]), goal_text
            skipped = len(passes)
            assert calls["all"] == attempted - skipped, goal_text
            assert calls["ok"] == succeeded - skipped, goal_text
            assert calls["all"] > 0


def perfbench_workloads():
    """perfbench/workloads.py, loaded by path: it imports the standard
    library only, so loading it runs nothing of perfbench."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks a class's module up while it processes the class.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


# perfbench's counters at seed 7, per workload: the steps of every goal's
# enumeration run to exhaustion (its engines.steps), the kernel name its
# evaluation mode calls, and that name's calls in one eval_abcde pass over
# the goals.
PERFBENCH_SEED_7 = {
    "definite-unify": (2083, "unify", 2083),
    "moded-deep": (30412, "match", 22459),
    "large-program": (29447, "match", 26096),
}


@pytest.mark.parametrize("name", sorted(PERFBENCH_SEED_7))
def test_perfbench_seed_7_counters(name, monkeypatch):
    """perfbench's workloads at seed 7, run through the public pipeline,
    spend the steps and kernel attempts its traced runs report, so a change
    to the search that moves them shows in tier-1."""
    steps_pinned, kernel, calls_pinned = PERFBENCH_SEED_7[name]
    w = perfbench_workloads().WORKLOADS[name](7)
    convert = transform_moded if w.mode == "moded" else transform_definite
    chains = {
        stem: convert(parse_program(text, name=stem))
        for stem, text in w.programs.items()
    }
    registries = {stem: compile_to_registry(chain) for stem, chain in chains.items()}
    runs = [
        (
            compile_goal(parse_goal(goal.text), chains[goal.program], w.mode),
            registries[goal.program],
        )
        for goal in w.goals
    ]
    steps = 0
    for plan, registry in runs:
        enum = enumerate_prolog(plan.initial, plan.continuations, registry, w.uni)
        for _ in enum:
            pass
        steps += enum.steps
    assert steps == steps_pinned
    calls = 0
    original = getattr(engines, kernel)

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(engines, kernel, counted)
    for plan, registry in runs:
        eval_abcde(plan.initial, plan.continuations, registry, w.uni)
    assert calls == calls_pinned


class TestKernelNameAtEachAttempt:
    """The engines look the kernel name up at every unit attempt, so a
    wrapper installed halfway through an enumeration sees every attempt
    made after it."""

    @pytest.mark.parametrize(
        "fixture,mode,goal_text,name",
        [
            ("split", "moded", "s([a,b,c],Y,Z)", "match"),
            ("append", "definite", "ap(X,Y,[a,b,c])", "unify"),
        ],
    )
    def test_wrapper_installed_after_first_answer(
        self, fixture, mode, goal_text, name, monkeypatch
    ):
        pipe = build_pipeline(fixture, mode)
        plan = pipe.plan(goal_text)
        args = (pipe.registry, plan.initial, plan.continuations, pipe.uni)
        answers, _, (attempted, _) = counted_search(*args)
        _, _, (before, _) = counted_search(*args, first_only=True)
        enum = enumerate_prolog(
            plan.initial, plan.continuations, pipe.registry, pipe.uni
        )
        assert enum.next() is not None
        calls = []
        original = getattr(engines, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(engines, name, counted)
        assert len(list(enum)) == len(answers) - 1
        assert len(calls) == attempted - before > 0


def perfbench_kernel_names():
    """KERNEL_FUNCTIONS as perfbench/tracing.py assigns it, read without
    importing perfbench."""
    source = (Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text()
    (names,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets] == ["KERNEL_FUNCTIONS"]
    ]
    return names


@pytest.mark.parametrize("name", perfbench_kernel_names())
def test_engines_binds_the_names_perfbench_wraps(name):
    """perfbench's kernel counters read each of its KERNEL_FUNCTIONS on
    chainform.engines with getattr before wrapping it, so each must be a
    function there even where the engines no longer call it."""
    assert callable(getattr(engines, name, None))


def held_choice_points(enum):
    """The choice points the search of a suspended enumeration holds, read
    from its generator's frame."""
    return enum._gen.gi_frame.f_locals["choices"]


EXHAUSTIVE_ENGINES = {
    "abcde": lambda args, budget: eval_abcde(*args, budget=budget),
    "stream": lambda args, budget: eval_stream(
        NIL, [args[0]], *args[1:], budget=budget
    ),
    "enumerate": lambda args, budget: list(enumerate_prolog(*args, budget=budget)),
}


def check_exhaustive_steps(registry, x, qs, uni):
    """Run to exhaustion, the search spends counted_search's steps and holds,
    at each answer, one choice point per selection on the answer's
    derivation that has alternatives left; a budget of exactly those steps
    suffices for every exhaustive engine, and one step less does not."""
    pending = []
    answers, steps, _ = counted_search(registry, x, qs, uni, pending=pending)
    enum = enumerate_prolog(x, qs, registry, uni)
    held = [len(held_choice_points(enum)) for _ in enum]
    assert enum.steps == steps
    assert held == pending
    args = (x, qs, registry, uni)
    for name, run in EXHAUSTIVE_ENGINES.items():
        assert same_answer_sequence(run(args, steps), answers), name
        with pytest.raises(BudgetExceededError):
            run(args, steps - 1)


class TestExhaustiveSteps:
    def test_corpus(self, pipelines):
        for pipe in pipelines:
            for goal_text in pipe.goals():
                plan = pipe.plan(goal_text)
                check_exhaustive_steps(
                    pipe.registry, plan.initial, plan.continuations, pipe.uni
                )

    @pytest.mark.parametrize("mode", ["moded", "definite"])
    def test_generated_programs(self, mode):
        # The programs and goals of the differential tests in
        # test_equivalence.py.  The goals that exhaust the budget loop, and
        # counted_search, which has none, would recurse without end on them.
        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            if mode == "moded":
                program = random_moded_program(rng)
                chain = transform_moded(program)
                goal = random_ground_goal(rng, program)
                uni = "match"
            else:
                program = random_definite_program(rng)
                chain = transform_definite(program)
                goal = random_open_goal(rng, program)
                uni = "unify"
            registry = compile_to_registry(chain)
            plan = compile_goal(goal, chain, mode)
            try:
                list(enumerate_prolog(
                    plan.initial, plan.continuations, registry, uni, budget=400
                ))
            except BudgetExceededError:
                continue
            check_exhaustive_steps(registry, plan.initial, plan.continuations, uni)
            checked += 1
        assert checked >= 150


class TestChoicePoints:
    @pytest.mark.parametrize("n", [10, 10**4])
    def test_deterministic_recursion_holds_one(self, n):
        """Moded len takes its recursive clause as its last alternative and
        every restructuring unit as its only one, so none of them leaves a
        choice point.  The one held at the answer is len's recursive clause
        at the empty list, pending because the unit clause before it
        applied."""
        pipe = build_pipeline("length", "moded")
        goal = Goal(Compound("len", (mk_list([a] * n), Variable("N"))))
        plan = compile_goal(goal, pipe.chain, "moded")
        enum = enumerate_prolog(plan.initial, plan.continuations, pipe.registry)
        assert enum.next() is not None
        ((state, _, alts, i, _),) = held_choice_points(enum)
        assert alts[i][0] == "len_hat_2"
        assert state == mk_tuple([NIL, NIL])
        assert enum.next() is None

    def test_split_holds_the_pending_ones(self, split):
        plan = split.plan("s([a,b,c],Y,Z)")
        enum = enumerate_prolog(plan.initial, plan.continuations, split.registry)
        held = [[alts[i][0] for _, _, alts, i, _ in held_choice_points(enum)]
                for _ in enum]
        # Each answer comes from s_hat's unit clause, which leaves s_hat's
        # recursive clause pending at that selection; the selections above
        # it took their last alternative and left none.
        assert held == [["s_hat_2"]] * 4


class TestDefinitions:
    def test_declared_empty_fails_and_undefined_raises(self, split):
        registry = compile_to_registry(split.chain, declare_empty=("none",))
        x = mk_tuple([NIL, a])
        for engine in (eval_abcde, eval_continuation):
            assert engine(x, ["none"], registry) == []
            with pytest.raises(LookupError, match="no definition for predicate 'q'"):
                engine(x, ["q"], registry)
        assert eval_stream(NIL, [x], ["none"], registry) == []
        assert enumerate_prolog(x, ["none"], registry).next() is None
        assert eval_bounded(x, ["none"], registry).resource == 1

    def test_first_predicate_folded_only_when_one_unit_defines_it(self):
        # p_1 is p :- p (left recursive), q_1 is q :- u, u, r_1 is r :- p.
        # Only u, defined by one unit, folds into q_1; p's only clause is
        # no unit, and deciding so does not follow p into itself.
        X = Variable("X")
        registry = Registry(
            defn={"p": ("p_1",), "q": ("q_1",), "r": ("r_1",), "u": ("u_1",)},
            nonunit={"p_1": ("p",), "q_1": ("u", "u"), "r_1": ("p",)},
            unit={"u_1": (X, Compound("f", (X,)))},
            isunit=frozenset({"u_1"}),
        )
        for uni in ("match", "unify"):
            with time_limit(5), pytest.raises(BudgetExceededError):
                eval_abcde(a, ["r"], registry, uni, budget=100)
            answers, steps, _ = counted_search(registry, a, ["q"], uni)
            enum = enumerate_prolog(a, ["q"], registry, uni)
            assert list(enum) == answers == [Compound("f", (Compound("f", (a,)),))]
            assert enum.steps == steps == 3
        # q_1's second u is resolved to u's unit, compiled, so u is never
        # selected by name and gets no entry; p stays a name in p_1 and r_1.
        u = compile_unit(*registry.unit["u_1"])
        assert [(body, unit) for _, body, unit in registry.dispatch["q"]] == [
            ((u,), u)
        ]
        assert "u" not in registry.dispatch
        assert [(body, unit) for _, body, unit in registry.dispatch["p"]] == [
            (("p",), None)
        ]
        assert [body for _, body, _ in registry.dispatch["r"]] == [("p",)]


def pushed_entries(registry):
    """(predicate, entry) for each body position past the first of every
    non-unit alternative in the registry's dispatch table: the body's
    predicate and what taking the clause pushes for it."""
    for q, alts in registry.dispatch.items():
        for label, (_, body, unit) in zip(registry.defn[q], alts, strict=True):
            if body is None:
                continue
            source = registry.nonunit[label]
            # A clause with its first unit folded pushes the rest of its
            # body; any other pushes all of it, its first predicate by name.
            pushed = source[1:] if unit is not None else source
            assert len(body) == len(pushed), label
            yield from zip(pushed, reversed(body))


def single_unit(registry, p):
    """The compiled unit of p's one clause when that clause is a unit, else
    None."""
    labels = registry.defn.get(p, ())
    if len(labels) == 1 and labels[0] in registry.isunit:
        return compile_unit(*registry.unit[labels[0]])
    return None


class TestPassThroughSeams:
    def test_table_empties_exactly_the_pass_through_predicates(self, pipelines):
        """After every corpus goal has run, the clause bodies in the
        dispatch table push SEAM exactly at the positions of the predicates
        counted_search takes for pass-through seams, the unit compiled at
        every other position of a predicate one unit alone defines, and the
        name everywhere else; no seam is selected by name, so none has an
        entry of its own."""
        seams, every_seam = set(), set()
        resolved_units = 0
        for pipe in pipelines:
            registry = compile_to_registry(pipe.chain)
            for goal_text in pipe.goals():
                plan = pipe.plan(goal_text)
                eval_abcde(plan.initial, plan.continuations, registry, pipe.uni)
            passing = pass_through_predicates(registry)
            every_seam.update((pipe.fixture, pipe.mode, p) for p in passing)
            assert not passing & set(registry.dispatch)
            for p, entry in pushed_entries(registry):
                unit = single_unit(registry, p)
                if p in passing:
                    assert entry is SEAM, p
                    seams.add((pipe.fixture, pipe.mode, p))
                elif unit is not None:
                    assert entry is not SEAM and entry == unit, p
                    resolved_units += 1
                else:
                    assert entry == p, p
        # The moded corpus has seven pass-through seams.  Filling an entry
        # resolves every clause of the predicate, so the body of gt's
        # recursive clause, which no corpus goal takes, pushes its h_1 as
        # SEAM too.
        assert seams == every_seam and len(seams) == 7
        assert resolved_units > 0

    @pytest.mark.parametrize(
        "mode,text,goals",
        [
            (
                "moded",
                ":- mode(p,[in,out]).\n:- mode(q,[in,out]).\n"
                ":- mode(r,[in,out]).\n"
                "p(X,Y) :- q(X,a), r(a,Y).\nq(1,a).\nq(2,b).\nr(a,c).\n",
                {"p(1,Y)": ["p(1,c)"], "p(2,Y)": []},
            ),
            (
                "definite",
                "p(X) :- q(X,a), q(X,a).\nq(1,Z).\nq(2,b).\n",
                {"p(1)": ["p(1)"], "p(2)": [], "p(X)": ["p(1)"]},
            ),
        ],
    )
    def test_identity_with_a_check_still_runs(self, mode, text, goals):
        """An identity h_j whose input holds a constant, such as
        ⟨St,a⟩ -> ⟨St,a⟩ or ⟨St,X,a⟩ -> ⟨St,X,a⟩ here, checks its subject
        and is no pass-through seam: its clause body pushes its unit,
        compiled, not SEAM, and it runs and rejects the moded q's answer
        b."""
        program = parse_program(text)
        convert = transform_moded if mode == "moded" else transform_definite
        chain = convert(program)
        registry = compile_to_registry(chain)
        uni = "match" if mode == "moded" else "unify"
        for goal_text, want in goals.items():
            plan = compile_goal(parse_goal(goal_text), chain, mode)
            answers = eval_abcde(plan.initial, plan.continuations, registry, uni)
            got = [canonical_answer(plan.goal, s) for s in plan.decode_all(answers)]
            assert got == [canonical(parse_goal(w).atom) for w in want], goal_text
        checked = [
            q for q in set(registry.defn) - registry.entry
            if len(set(registry.unit[registry.defn[q][0]])) == 1
            and q not in pass_through_predicates(registry)
        ]
        assert checked
        pushed = dict(pushed_entries(registry))
        for q in checked:
            assert q not in registry.dispatch, q
            assert pushed[q] is not SEAM and pushed[q] == single_unit(registry, q), q

    @pytest.mark.parametrize("uni", ["match", "unify"])
    def test_hand_built_registry_runs_its_identity_units(self, uni):
        """The subject of an identity unit is a tuple of its width only at
        the seams of a conversion's clause bodies.  A registry built by hand
        records no entry predicates, so its identity unit u runs, and fails
        on a subject that is no tuple, whether a clause body reaches it (p
        :- c, u, with c the identity on any term) or it is selected by
        name.  A predicate selected by name, as the first of a goal's
        continuation is, runs whatever entry set the registry records."""
        X, Y = Variable("X"), Variable("Y")
        identity = (mk_tuple([X, Y]), mk_tuple([X, Y]))
        parts = dict(
            defn={"u": ("u_1",), "p": ("p_1",), "c": ("c_1",)},
            nonunit={"p_1": ("c", "u")},
            unit={"u_1": identity, "c_1": (X, X)},
            isunit=frozenset({"u_1", "c_1"}),
        )
        registry = Registry(**parts)
        assert registry.entry is None
        assert eval_abcde(a, ["u"], registry, uni) == []
        ((_, body, unit),) = registry.dispatch["u"]
        assert body is None and unit is not None
        assert eval_abcde(a, ["p"], registry, uni) == []
        ((_, body, _),) = registry.dispatch["p"]
        assert body == (compile_unit(*identity),)
        assert eval_abcde(a, ["u"], Registry(**parts, entry=frozenset()), uni) == []

    @pytest.mark.parametrize("uni", ["match", "unify"])
    def test_continuation_starting_at_a_seam_runs_its_unit(self, uni):
        """nrev's h_2_2, ⟨St,R⟩ -> ⟨St,R⟩, is a pass-through seam in the
        body of rev's recursive clause.  A continuation that starts at it
        selects it by name, so its unit runs and fails on a, which is no
        tuple, after one step."""
        nrev = build_pipeline("nrev", "moded")
        assert "h_2_2" in pass_through_predicates(nrev.registry)
        assert eval_abcde(a, ["h_2_2"], nrev.registry, uni) == []
        result = eval_bounded(a, ["h_2_2"], nrev.registry, uni)
        assert result.answer is None and result.resource == 1
        passes = []
        assert counted_search(
            nrev.registry, a, ["h_2_2"], uni, passes=passes
        ) == ([], 1, (1, 0))
        assert passes == []


def resolved_step_registry():
    """A registry built by hand whose clause p_1 is p :- c, v, w.  c has two
    unit clauses, so it stays a name and its selection leaves a choice
    point; v and w are each defined by one unit, so the body pushes both
    compiled.  From ⟨St,Z⟩, c_1 gives ⟨St,Z,b,Z⟩: v binds Z to b in unify
    mode (and fails in match mode, where Z is the constant a), then w
    fails.  c_2 gives ⟨St,a,a,Z⟩, which both pass, w answering ⟨St,Z⟩."""
    S, W, V, X, Q = (Variable(n) for n in ("S", "W", "V", "X", "Q"))
    return Registry(
        defn={"p": ("p_1",), "c": ("c_1", "c_2"), "v": ("v_1",), "w": ("w_1",)},
        nonunit={"p_1": ("c", "v", "w")},
        unit={
            "c_1": (mk_tuple([S, X]), mk_tuple([S, X, b, X])),
            "c_2": (mk_tuple([S, X]), mk_tuple([S, a, a, X])),
            "v_1": (mk_tuple([S, W, W, V]), mk_tuple([S, W, W, V])),
            "w_1": (mk_tuple([S, Q, a, V]), mk_tuple([S, V])),
        },
        isunit=frozenset({"c_1", "c_2", "v_1", "w_1"}),
    )


class TestResolvedSteps:
    """Steps at body entries resolved to compiled units, on a registry
    built by hand, in both modes: match mode from ⟨[],a⟩, unify mode from
    ⟨[],Z⟩ with Z a variable."""

    @staticmethod
    def subject(uni):
        return mk_tuple([NIL, a if uni == "match" else Variable("Z")])

    @pytest.mark.parametrize("uni", ["match", "unify"])
    def test_failure_resumes_the_pending_choice_point(self, uni):
        registry = resolved_step_registry()
        x = self.subject(uni)
        answers, _, (attempted, succeeded) = counted_search(registry, x, ["p"], uni)
        (answer,) = eval_abcde(x, ["p"], registry, uni)
        assert same_answer_sequence([answer], answers)
        # v and w ran from the body, not by name.
        assert set(registry.dispatch) == {"p", "c"}
        assert succeeded < attempted
        if uni == "match":
            assert answer == x
        else:
            # v's binding of Z to b on the failed branch was undone: the
            # answer holds Z, or the fresh variable v bound it to, unbound.
            (_, z) = answer.args
            assert type(z) is Variable

    @pytest.mark.parametrize("uni", ["match", "unify"])
    def test_budget_of_the_counted_steps(self, uni, monkeypatch):
        """A budget of counted_search's steps suffices, and one step less
        raises at the last step, w's on the branch through c_2, a resolved
        entry."""
        registry = resolved_step_registry()
        x = self.subject(uni)
        check_exhaustive_steps(registry, x, ["p"], uni)
        _, steps, _ = counted_search(registry, x, ["p"], uni)
        calls = []
        original = getattr(engines, uni)

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(engines, uni, counted)
        enum = enumerate_prolog(x, ["p"], registry, uni, budget=steps - 1)
        with pytest.raises(BudgetExceededError):
            list(enum)
        assert enum.steps == steps - 1
        # The last attempts were c_2's and v's; w, whose step was refused,
        # was never selected by name.
        c_2, v = (compile_unit(*registry.unit[l]) for l in ("c_2", "v_1"))
        assert calls[-2:] == [c_2, v]
        assert "w" not in registry.dispatch

    @pytest.mark.parametrize("uni", ["match", "unify"])
    def test_bounded_resource_is_the_counted_steps(self, uni):
        registry = resolved_step_registry()
        x = self.subject(uni)
        answer, steps = first_answer_steps(registry, x, ["p"], uni)
        result = eval_bounded(x, ["p"], registry, uni)
        assert same_answer_sequence([result.answer], [answer])
        assert result.resource == steps


class TestOpenListScale:
    """len(L, s^N(0)) in definite mode builds L as a list of N fresh
    variables.  Each unit step reads only the positions its clause names,
    not the whole open tuple, so every engine answers in about linear
    time."""

    N = 4000

    def test_every_engine_answers_in_bounded_time(self):
        length = build_pipeline("length", "definite")
        plan = length.plan("len(L,%s)" % ("s(" * self.N + "0" + ")" * self.N))
        lst = plan.goal.atom.args[0]
        args = (plan.initial, plan.continuations, length.registry, "unify")
        start = time.perf_counter()
        for engine in sorted(TestKernelHook.ENGINES):
            (answer,) = plan.decode_all(TestKernelHook.ENGINES[engine](args))
            items, tail = list_parts(answer.get(lst))
            assert len(items) == self.N and is_nil(tail), engine
            assert len(term_vars(answer.get(lst))) == self.N, engine
        # Generous: with unify mode quadratic in the open tuple, this goal
        # took about a minute.
        assert time.perf_counter() - start < 5


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once seconds of wall time have passed,
    so a test of a looping goal fails instead of running without bound."""

    def expire(signum, frame):
        raise TimeoutError("still running after %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestBudget:
    def test_budget_error_raised(self):
        # A budget of 100 is spent in milliseconds; without it, p(a) :- p(a)
        # runs until memory runs out.
        looping = transform_definite(parse_program("p(a) :- p(a)."))
        registry = compile_to_registry(looping)
        plan = compile_goal(parse_goal("p(a)"), looping, "definite")
        for engine in (eval_abcde, eval_continuation):
            with time_limit(5), pytest.raises(BudgetExceededError):
                engine(plan.initial, plan.continuations, registry,
                       uni="unify", budget=100)
        with time_limit(5), pytest.raises(BudgetExceededError):
            eval_stream(NIL, [plan.initial], plan.continuations, registry,
                        uni="unify", budget=100)
        with time_limit(5), pytest.raises(BudgetExceededError):
            eval_bounded(plan.initial, plan.continuations, registry,
                         uni="unify", budget=100)
        e = enumerate_prolog(plan.initial, plan.continuations, registry,
                             uni="unify", budget=100)
        with time_limit(5), pytest.raises(BudgetExceededError):
            e.next()

    def test_negative_budget_rejected(self, split):
        plan = split.plan("s([a],Y,Z)")
        with pytest.raises(ValueError, match="budget"):
            eval_abcde(plan.initial, plan.continuations, split.registry, budget=-1)
        with pytest.raises(ValueError, match="budget"):
            enumerate_prolog(
                plan.initial, plan.continuations, split.registry, budget=-1
            )

    def test_stream_spends_one_budget(self, split):
        # No single term needs the whole budget; the three together do.
        plans = [split.plan("s(%s,Y,Z)" % xs) for xs in ("[a,b]", "[a,b,c]", "[a]")]
        xs = [plan.initial for plan in plans]
        qs = plans[0].continuations
        steps = [counted_search(split.registry, x, qs, "match")[1] for x in xs]
        budget = sum(steps) - 1
        assert max(steps) < budget
        each = [eval_abcde(x, qs, split.registry, budget=budget) for x in xs]
        with time_limit(5), pytest.raises(BudgetExceededError):
            eval_stream(NIL, xs, qs, split.registry, budget=budget)
        assert eval_stream(NIL, xs, qs, split.registry, budget=budget + 1) == [
            t for answers in each for t in answers
        ]

    def test_steps_after_next_and_halt(self, split, append_def):
        for pipe, goal in ((split, "s([a,b,c],Y,Z)"), (append_def, "ap(X,Y,[a,b])")):
            plan = pipe.plan(goal)
            _, first = first_answer_steps(
                pipe.registry, plan.initial, plan.continuations, pipe.uni
            )
            e = enumerate_prolog(
                plan.initial, plan.continuations, pipe.registry, pipe.uni
            )
            assert e.steps == 0
            assert e.next() is not None
            assert e.steps == first > 0
            e.halt()
            assert e.steps == first
            assert e.next() is None
            assert e.steps == first

    @pytest.mark.parametrize(
        "fixture, mode, prefix",
        [("nrev", "moded", ""), ("append", "definite", "ap(X,Y,")],
    )
    def test_every_budget_cuts_where_counted_search_does(
        self, fixture, mode, prefix
    ):
        # A clause's first unit is applied as part of taking the clause,
        # but its selection still costs its own step, at the same point.
        pipe = build_pipeline(fixture, mode)
        goals = [g for g in pipe.goals() if g.startswith(prefix)]
        assert goals
        for goal_text in goals:
            plan = pipe.plan(goal_text)
            args = (plan.initial, plan.continuations, pipe.registry, pipe.uni)
            _, full, _ = counted_search(pipe.registry, *args[:2], pipe.uni)
            for budget in range(full + 1):
                try:
                    want = counted_search(
                        pipe.registry, *args[:2], pipe.uni, budget=budget
                    )[0]
                    cut = False
                except BudgetCut as stop:
                    want, cut = stop.answers, True
                where = (goal_text, budget)
                enum = enumerate_prolog(*args, budget=budget)
                got = []
                try:
                    got.extend(enum)
                    exhausted = False
                except BudgetExceededError:
                    exhausted = True
                assert exhausted == cut, where
                assert same_answer_sequence(got, want), where
                assert enum.steps == (budget if cut else full), where
                for name, run in EXHAUSTIVE_ENGINES.items():
                    if cut:
                        with pytest.raises(BudgetExceededError):
                            run(args, budget)
                    else:
                        assert same_answer_sequence(run(args, budget), want), (
                            name,
                            *where,
                        )
                if want:
                    first = eval_bounded(*args, budget=budget)
                    assert same_answer_sequence([first.answer], want[:1]), where
                elif cut:
                    with pytest.raises(BudgetExceededError):
                        eval_bounded(*args, budget=budget)
                else:
                    assert eval_bounded(*args, budget=budget).resource == full

    def test_budget_not_hit_on_finite_goal(self, split):
        plan = split.plan("s([a],Y,Z)")
        answers = eval_abcde(
            plan.initial, plan.continuations, split.registry, budget=1_000
        )
        assert len(answers) == 2


class TestGroundness:
    def test_match_mode_answers_ground(self, pipelines):
        for pipe in pipelines:
            if pipe.uni != "match":
                continue
            for goal_text in pipe.goals():
                plan = pipe.plan(goal_text)
                answers = eval_abcde(
                    plan.initial, plan.continuations, pipe.registry, uni="match"
                )
                assert all(is_ground(t) for t in answers), (
                    pipe.fixture,
                    goal_text,
                )


class TestPurity:
    def test_same_goal_twice(self, split):
        plan = split.plan("s([a,b,c],Y,Z)")
        args = (plan.initial, plan.continuations, split.registry)
        assert eval_abcde(*args) == eval_abcde(*args)

    def test_unify_mode_stable_modulo_renaming(self, append_def):
        plan = append_def.plan("ap(X,Y,[a,b])")
        args = (plan.initial, plan.continuations, append_def.registry)
        run1 = [canonical(t) for t in eval_abcde(*args, uni="unify")]
        run2 = [canonical(t) for t in eval_abcde(*args, uni="unify")]
        assert run1 == run2

    def test_one_registry_in_both_modes(self, split):
        # A ground goal on a moded program runs in either mode, over one
        # dispatch table that compiles each unit once for both.
        plan = split.plan("s([a,b,c],Y,Z)")
        args = (plan.initial, plan.continuations)
        registry = compile_to_registry(split.chain)
        compiled = {}
        for uni in ("match", "unify", "match"):
            got = [canonical(t) for t in eval_abcde(*args, registry, uni)]
            fresh = compile_to_registry(split.chain)
            assert got == [canonical(t) for t in eval_abcde(*args, fresh, uni)]
            assert got
            assert set(registry.dispatch) <= set(registry.defn)
            for q, alts in compiled.items():
                assert registry.dispatch[q] is alts
            compiled = dict(registry.dispatch)


def _numeral_depth(t):
    # Counted with a loop: comparing or hashing a term this deep would
    # recurse once per level.
    depth = 0
    while type(t) is Compound and t.functor == "s" and len(t.args) == 1:
        depth += 1
        t = t.args[0]
    return depth, t


DEPTH_ENGINES = {
    "abcde": lambda plan, reg: eval_abcde(plan.initial, plan.continuations, reg),
    "continuation": lambda plan, reg: eval_continuation(
        plan.initial, plan.continuations, reg
    ),
    "stream": lambda plan, reg: eval_stream(
        NIL, [plan.initial], plan.continuations, reg
    ),
    "bounded": lambda plan, reg: [
        eval_bounded(plan.initial, plan.continuations, reg).answer
    ],
    "enumerate": lambda plan, reg: [
        enumerate_prolog(plan.initial, plan.continuations, reg).next()
    ],
}


@pytest.mark.parametrize("engine", sorted(DEPTH_ENGINES))
def test_depth_len_1e5(engine, default_recursion_limit):
    """Moded len on 10^5 elements: a derivation 10^5 steps deep, whose
    answer is a numeral 10^5 deep, without deep Python recursion."""
    n = 10**5
    pipe = build_pipeline("length", "moded")
    out = Variable("N")
    goal = Goal(Compound("len", (mk_list([a] * n), out)))
    plan = compile_goal(goal, pipe.chain, "moded")
    (answer,) = DEPTH_ENGINES[engine](plan, pipe.registry)
    depth, zero = _numeral_depth(plan.decode(answer).get(out))
    assert depth == n and zero == Constant(0)
