"""Engine tests: the literal evaluator clauses, agreement between all four
engines, enumeration control, bounded resource counts, budgets, and depth."""

import pytest

from conftest import (
    build_pipeline,
    decoded_canonical,
    first_answer_steps,
    oracle_canonical,
    same_answer_sequence,
)

from chainform.chainir import compile_to_registry
from chainform.engines import (
    BudgetExceededError,
    affix,
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
    mk_list,
    mk_tuple,
)
from chainform.transform import compile_goal, transform_definite

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


class TestAffix:
    def test_empty(self):
        assert affix(Constant("s"), []) == []

    def test_lists(self):
        got = affix(a, [mk_list([b]), mk_list([Constant("c")])])
        assert got == [mk_list([a, b]), mk_list([a, Constant("c")])]

    def test_tuples(self):
        got = affix(NIL, [mk_tuple([a])])
        assert got == [mk_tuple([NIL, a])]


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


class TestBudget:
    def test_budget_error_raised(self):
        looping = transform_definite(parse_program("p(a) :- p(a)."))
        registry = compile_to_registry(looping)
        plan = compile_goal(parse_goal("p(a)"), looping, "definite")
        for engine in (eval_abcde, eval_continuation):
            with pytest.raises(BudgetExceededError):
                engine(plan.initial, plan.continuations, registry,
                       uni="unify", budget=100)
        with pytest.raises(BudgetExceededError):
            eval_stream(NIL, [plan.initial], plan.continuations, registry,
                        uni="unify", budget=100)
        with pytest.raises(BudgetExceededError):
            eval_bounded(plan.initial, plan.continuations, registry,
                         uni="unify", budget=100)
        e = enumerate_prolog(plan.initial, plan.continuations, registry,
                             uni="unify", budget=100)
        with pytest.raises(BudgetExceededError):
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
