"""Engine tests: the literal evaluator clauses, agreement between all four
engines, enumeration control, bounded resource counts, budgets, exhaustive
step counts, the choice points held, and depth."""

import ast
import random
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import (
    build_pipeline,
    counted_search,
    decoded_canonical,
    first_answer_steps,
    oracle_canonical,
    same_answer_sequence,
)
from genprog import (
    random_definite_program,
    random_ground_goal,
    random_moded_program,
    random_open_goal,
)

from chainform import engines
from chainform.chainir import compile_to_registry
from chainform.engines import (
    BudgetExceededError,
    enumerate_prolog,
    eval_abcde,
    eval_bounded,
    eval_continuation,
    eval_stream,
)
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
    """Every match-mode unit attempt of every engine calls the module-level
    name chainform.engines.match once, so a wrapper installed there, as
    perfbench's kernel counters install theirs, sees all of them."""

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
        for goal_text in nrev.goals():
            plan = nrev.plan(goal_text)
            args = (plan.initial, plan.continuations, nrev.registry)
            answers, _, (attempted, succeeded) = counted_search(
                nrev.registry, plan.initial, plan.continuations, "match",
                first_only=engine == "bounded",
            )
            calls["all"] = calls["ok"] = 0
            got = self.ENGINES[engine](args)
            assert got == (answers or [None]), goal_text
            assert (calls["all"], calls["ok"]) == (attempted, succeeded), goal_text
            assert attempted > 0


class TestUnifyKernelHook:
    """Every unify-mode unit attempt of every engine calls the module-level
    name chainform.engines.unify once, as TestKernelHook checks for match."""

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
            answers, _, (attempted, succeeded) = counted_search(
                append.registry, plan.initial, plan.continuations, "unify",
                first_only=engine == "bounded",
            )
            calls["all"] = calls["ok"] = 0
            got = TestKernelHook.ENGINES[engine](args)
            assert same_answer_sequence(got, answers or [None]), goal_text
            assert (calls["all"], calls["ok"]) == (attempted, succeeded), goal_text
            assert attempted > 0


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
