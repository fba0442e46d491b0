"""Answer equivalence on programs that stress the definite conversion:
variables shared between the head and inner atoms, variables shared among
inner atoms only, repeated variables within an atom, 0-ary predicates,
duplicate clauses and goals that only the occurs check refutes; then the
definite pipeline on long lists and on random programs, through all five
engines."""

import random
from collections import Counter

import pytest

from conftest import build_pipeline, same_answer_sequence
from genprog import random_definite_program, random_open_goal

from chainform.chainir import compile_to_registry
from chainform.engines import (
    BudgetExceededError,
    enumerate_prolog,
    eval_abcde,
    eval_bounded,
    eval_continuation,
    eval_stream,
)
from chainform.oracle import canonical_answer, sld_solve
from chainform.syntax import parse_goal, parse_program
from chainform.terms import NIL
from chainform.transform import compile_goal, transform_definite

# Goals with no answer because every candidate unifier would bind a variable
# to a term containing it.
OCCURS_CHECK_CASES = [
    ("eq(X,X).", ["eq(Y,f(Y))"]),
    ("p(f(X),X).", ["p(Y,Y)"]),
]

CASES = [
    # head variable used by every atom
    (
        "p(X) :- q(X), r(X).\nq(a).\nq(b).\nr(b).\nr(c).",
        ["p(X)", "p(b)", "p(a)"],
    ),
    # head shares with the second atom only
    ("p(X) :- q(Y), r(X).\nq(a).\nq(b).\nr(c).", ["p(X)", "p(c)"]),
    # inner atoms share among themselves, not with the head
    (
        "p(X) :- q(Y), r(Y), s(X).\nq(a).\nq(b).\nr(b).\ns(d).",
        ["p(X)"],
    ),
    # repeated variable inside one atom
    (
        "eq(X, X).\ntest(Y) :- eq(Y, a).",
        ["test(Z)", "eq(U, V)", "eq(b, b)", "eq(a, c)"],
    ),
    # 0-ary predicates
    ("p :- q.\nq.", ["p", "q"]),
    # duplicate clauses yield duplicate answers (multiset semantics)
    ("d(a).\nd(a).", ["d(X)"]),
    # three chained atoms sharing threading variables pairwise
    (
        "t(X,Z) :- e(X,Y), e(Y,W), e(W,Z).\n"
        "e(a,b).\ne(b,c).\ne(c,d).\ne(b,d).",
        ["t(a,Z)", "t(X,d)"],
    ),
    *OCCURS_CHECK_CASES,
]


@pytest.mark.parametrize("text,goals", CASES)
def test_definite_pipeline_matches_reference(text, goals):
    program = parse_program(text)
    chain = transform_definite(program)
    registry = compile_to_registry(chain)
    for goal_text in goals:
        goal = parse_goal(goal_text)
        plan = compile_goal(goal, chain, "definite")
        answers = eval_abcde(plan.initial, plan.continuations, registry, "unify")
        got = [canonical_answer(plan.goal, s) for s in plan.decode_all(answers)]
        reference = sld_solve(program, goal, 10_000)
        assert not reference.truncated
        want = [canonical_answer(goal, a.bindings) for a in reference.answers]
        assert got == want, goal_text


@pytest.mark.parametrize("text,goals", CASES)
def test_engines_agree_on_edge_cases(text, goals):
    program = parse_program(text)
    chain = transform_definite(program)
    registry = compile_to_registry(chain)
    for goal_text in goals:
        plan = compile_goal(parse_goal(goal_text), chain, "definite")
        args = (plan.initial, plan.continuations, registry)
        base = eval_abcde(*args, uni="unify")
        assert same_answer_sequence(eval_continuation(*args, uni="unify"), base)
        assert same_answer_sequence(
            eval_stream(NIL, [plan.initial], plan.continuations, registry,
                        uni="unify"),
            base,
        )
        assert same_answer_sequence(
            list(enumerate_prolog(*args, uni="unify")), base
        )


def test_duplicate_answers_preserved():
    program = parse_program("d(a).\nd(a).")
    chain = transform_definite(program)
    registry = compile_to_registry(chain)
    plan = compile_goal(parse_goal("d(X)"), chain, "definite")
    answers = eval_abcde(plan.initial, plan.continuations, registry, "unify")
    assert len(plan.decode_all(answers)) == 2


@pytest.mark.parametrize("text,goals", OCCURS_CHECK_CASES)
def test_occurs_check_refutes(text, goals):
    chain = transform_definite(parse_program(text))
    registry = compile_to_registry(chain)
    for goal_text in goals:
        plan = compile_goal(parse_goal(goal_text), chain, "definite")
        assert plan.decode_all(
            eval_abcde(plan.initial, plan.continuations, registry, "unify")
        ) == [], goal_text


def five_engine_answers(plan, registry, budget):
    """Decoded canonical answers of the four exhaustive engines, by engine,
    and the decoded canonical first answer of eval_bounded (None when it
    finds none).  Raises BudgetExceededError when a run hits the budget."""
    args = (plan.initial, plan.continuations, registry)
    raw = {
        "abcde": eval_abcde(*args, uni="unify", budget=budget),
        "continuation": eval_continuation(*args, uni="unify", budget=budget),
        "stream": eval_stream(
            NIL, [plan.initial], plan.continuations, registry,
            uni="unify", budget=budget,
        ),
        "enumerate": list(enumerate_prolog(*args, uni="unify", budget=budget)),
    }
    exhaustive = {
        name: [canonical_answer(plan.goal, s) for s in plan.decode_all(answers)]
        for name, answers in raw.items()
    }
    bounded = eval_bounded(*args, uni="unify", budget=budget)
    first = None
    if bounded.has_answer:
        (s,) = plan.decode_all([bounded.answer])
        first = canonical_answer(plan.goal, s)
    return exhaustive, first


def assert_engines_match_oracle(reference, goal, exhaustive, first):
    """Every exhaustive engine gives the oracle's answer multiset, and the
    bounded engine's answer is the first of them."""
    assert not reference.truncated
    want = Counter(canonical_answer(goal, a.bindings) for a in reference.answers)
    for name, got in exhaustive.items():
        assert Counter(got) == want, name
    base = exhaustive["abcde"]
    assert first == (base[0] if base else None)


@pytest.mark.parametrize(
    "fixture,goal_text,count",
    [
        ("append", "ap(X,Y,[%s])" % ",".join("e%d" % i for i in range(60)), 61),
        ("length", "len([%s],N)" % ",".join("e%d" % i for i in range(120)), 1),
    ],
    ids=["ap-60", "len-120"],
)
def test_definite_pipeline_at_size(fixture, goal_text, count):
    pipe = build_pipeline(fixture, "definite")
    plan = pipe.plan(goal_text)
    exhaustive, first = five_engine_answers(plan, pipe.registry, 10**6)
    assert len(exhaustive["abcde"]) == count
    reference = sld_solve(pipe.source, plan.goal, 10_000)
    assert_engines_match_oracle(reference, plan.goal, exhaustive, first)


def test_random_definite_programs_match_oracle():
    """Differential test: random definite programs and random goals with open
    variables, every engine in unify mode under a step budget, against SLD
    resolution under a depth budget.  Runs where either side was cut off are
    skipped; the rest must agree as multisets."""
    rng = random.Random(7)
    compared = answered = 0
    for _ in range(300):
        program = random_definite_program(rng)
        chain = transform_definite(program)
        registry = compile_to_registry(chain)
        goal = random_open_goal(rng, program)
        reference = sld_solve(program, goal, 12)
        if reference.truncated:
            continue
        plan = compile_goal(goal, chain, "definite")
        try:
            exhaustive, first = five_engine_answers(plan, registry, 5_000)
        except BudgetExceededError:
            continue
        assert_engines_match_oracle(reference, goal, exhaustive, first)
        compared += 1
        answered += bool(reference.answers)
    # Guard against a generator change that makes the comparison vacuous.
    assert compared >= 150 and answered >= 40
