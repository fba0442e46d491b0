"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them on success).  Criteria and tolerances:

1. Clause counts: split (moded) converts 2 -> 4, append (definite) 2 -> 4,
   exact integers, under 1 s.
2. Worked examples: the moded conversion of split's recursive clause equals
   the expected chain clause plus its two restructuring units up to variable
   renaming; its pass-on profile is [{}, {A}, {}] with stack terms
   [St, [A|St], St]; the definite conversion of append's recursive clause
   carries the stack shape [A|St].  Under 1 s.
3. Reference equivalence: on every bundled fixture and at least 5
   terminating goals each, decoded answer multisets from eval_abcde on the
   converted program equal depth-first resolution on the source, modulo
   variable renaming; order-identical for the moded pipeline.  Under 30 s.
4. Engine agreement: eval_abcde, eval_continuation, eval_stream and an
   exhausted enumeration are element-for-element identical on the corpus;
   eval_bounded returns the head answer with a resource count equal to an
   independent instrumented search.  Under 30 s.
5. Randomized form laws: 200+ random moded programs convert to G-chain
   form, 200+ random definite programs convert to chain form; unifier laws
   (symmetry, idempotence, occurs check, match/unify agreement) hold on
   1000+ random term pairs.  Under 60 s.
6. Groundness: match-mode evaluation over every G-chain fixture with ground
   goal input yields only ground answers.
7. Informational, no pass/fail threshold: relative timing of source
   resolution versus converted-program evaluation, and the quicksort
   fixture's clause counts.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import (
    alpha_equivalent,
    clause_count_law,
    corpus_pipelines,
    decoded_canonical,
    first_answer_steps,
    oracle_canonical,
    pass_on_sets_definite,
    pass_on_sets_moded,
    same_answer_sequence,
)
from genprog import random_definite_program, random_moded_program

from chainform.engines import (
    enumerate_prolog,
    eval_abcde,
    eval_bounded,
    eval_continuation,
    eval_stream,
)
from chainform.fixtures import load_fixture
from chainform.forms import check_chain, check_gchain
from chainform.terms import (
    Compound,
    Constant,
    NIL,
    Variable,
    canonical,
    cons,
    is_ground,
    match,
    mk_tuple,
    term_vars,
    unify,
)
from chainform.transform import transform_definite, transform_moded


class _Criterion:
    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(
            "ACCEPTANCE %d %s (%.2fs): %s"
            % (self.number, status, elapsed, self.description)
        )
        if exc_type is None and elapsed >= self.limit:
            raise AssertionError(
                "criterion %d exceeded its %.0fs budget (%.2fs)"
                % (self.number, self.limit, elapsed)
            )
        return False


@pytest.fixture(scope="module")
def pipelines_all():
    return corpus_pipelines()


def test_criterion_1_clause_counts():
    with _Criterion(1, "clause-count reproduction (2 -> 4 twice)", 1.0):
        split = load_fixture("split")
        split_chain = transform_moded(split)
        assert len(split.clauses) == 2
        assert len(split_chain.clauses) == 4
        append = load_fixture("append")
        append_chain = transform_definite(append)
        assert len(append.clauses) == 2
        assert len(append_chain.clauses) == 4


def test_criterion_2_worked_examples():
    with _Criterion(2, "worked-example reproduction", 1.0):
        split = load_fixture("split")
        profile = pass_on_sets_moded(split.clauses[1], split)
        assert [sorted(v.name for v in s) for s in profile.sets] == [
            [],
            ["A"],
            [],
        ]
        st = profile.stack_var
        assert profile.sigmas[0] is st
        assert profile.sigmas[1] == cons(profile.sets[1][0], st)
        assert profile.sigmas[2] is st

        chain = transform_moded(split)
        unit_s, main, h0, h1 = chain.clauses
        assert main.body == ("h_2_0", "s_hat", "h_2_1")
        St, A, N, L, M = (Variable(n) for n in ("St", "A", "N", "L", "M"))
        golden = {
            "h0": (mk_tuple([St, cons(A, N)]), mk_tuple([cons(A, St), N])),
            "h1": (
                mk_tuple([cons(A, St), L, M]),
                mk_tuple([St, cons(A, L), M]),
            ),
            "unit": (mk_tuple([St, L]), mk_tuple([St, NIL, L])),
        }
        for got, want in (
            (h0, golden["h0"]),
            (h1, golden["h1"]),
            (unit_s, golden["unit"]),
        ):
            assert alpha_equivalent(
                mk_tuple([got.input, got.output]), mk_tuple(want)
            )

        append = load_fixture("append")
        ap_profile = pass_on_sets_definite(append.clauses[1])
        assert [[v.name for v in s] for s in ap_profile.sets] == [[], ["A"], []]
        assert ap_profile.sigmas[1] == cons(
            ap_profile.sets[1][0], ap_profile.stack_var
        )
        ap_chain = transform_definite(append)
        h0_ap = ap_chain.clauses[2]
        # Stack component of the restructuring unit's output is [A|St].
        stack_out = h0_ap.output.args[0]
        assert stack_out.functor == "cons"
        assert type(stack_out.args[0]) is Variable
        assert type(stack_out.args[1]) is Variable


def test_criterion_3_reference_equivalence(pipelines_all):
    with _Criterion(3, "answer equivalence against direct resolution", 30.0):
        for pipe in pipelines_all:
            goals = pipe.goals()
            assert len(goals) >= 5
            for goal_text in goals:
                plan = pipe.plan(goal_text)
                answers = eval_abcde(
                    plan.initial, plan.continuations, pipe.registry, pipe.uni
                )
                got = decoded_canonical(pipe, goal_text, answers)
                want = oracle_canonical(pipe, goal_text)
                assert sorted(map(repr, got)) == sorted(map(repr, want)), (
                    pipe.fixture,
                    pipe.mode,
                    goal_text,
                )
                if pipe.mode == "moded":
                    assert got == want, (pipe.fixture, goal_text)


def test_criterion_4_engine_agreement(pipelines_all):
    with _Criterion(4, "four engines agree; bounded count verified", 30.0):
        for pipe in pipelines_all:
            for goal_text in pipe.goals():
                plan = pipe.plan(goal_text)
                args = (plan.initial, plan.continuations, pipe.registry)
                base = eval_abcde(*args, uni=pipe.uni)
                assert same_answer_sequence(
                    eval_continuation(*args, uni=pipe.uni), base
                )
                assert same_answer_sequence(
                    eval_stream(
                        NIL,
                        [plan.initial],
                        plan.continuations,
                        pipe.registry,
                        uni=pipe.uni,
                    ),
                    base,
                )
                assert same_answer_sequence(
                    list(enumerate_prolog(*args, uni=pipe.uni)), base
                )
                bounded = eval_bounded(*args, uni=pipe.uni)
                expected, steps = first_answer_steps(
                    pipe.registry, plan.initial, plan.continuations, pipe.uni
                )
                if base:
                    assert canonical(bounded.answer) == canonical(base[0])
                else:
                    assert bounded.answer is None
                assert bounded.resource == steps


def test_criterion_5_randomized_form_laws():
    with _Criterion(5, "randomized form laws and unifier laws", 60.0):
        rng = random.Random(2024)
        for _ in range(220):
            p = random_moded_program(rng)
            chain = transform_moded(p)
            assert check_gchain(chain.to_source()).holds
            assert len(chain.clauses) == clause_count_law(p)
        for _ in range(220):
            p = random_definite_program(rng)
            chain = transform_definite(p)
            assert check_chain(chain.to_source()).holds
            assert len(chain.clauses) == clause_count_law(p)
        for _ in range(1100):
            a = _random_term(rng, shared=True)
            b = _random_term(rng, shared=True)
            s_ab = unify(a, b)
            s_ba = unify(b, a)
            assert (s_ab is None) == (s_ba is None)
            if s_ab is not None:
                assert s_ab.apply(a) == s_ab.apply(b)
                assert canonical(s_ab.apply(a)) == canonical(s_ba.apply(a))
                for v, t in s_ab.items():
                    assert s_ab.apply(t) == t  # idempotent
                    assert v not in set(term_vars(t))  # occurs check held
            p = _random_term(rng, shared=False, pool="left")
            s = _random_term(rng, shared=False, pool="right")
            m = match(p, s)
            if m is not None:
                assert m.apply(p) == s
                assert unify(p, s) is not None


_POOLS = {
    "left": tuple(Variable(n, -(i + 300)) for i, n in enumerate("XYZ")),
    "right": tuple(Variable(n, -(i + 400)) for i, n in enumerate("UVW")),
}


def _random_term(rng, shared, pool=None, depth=3):
    if shared:
        variables = _POOLS["left"] + _POOLS["right"]
    else:
        variables = _POOLS[pool]
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(variables)
    if depth == 0 or roll < 0.55:
        return Constant(rng.choice(["a", "b", 0, 1]))
    name, arity = rng.choice([("f", 1), ("g", 2), ("h", 3)])
    return Compound(
        name,
        tuple(
            _random_term(rng, shared, pool, depth - 1) for _ in range(arity)
        ),
    )


def test_criterion_6_groundness(pipelines_all):
    with _Criterion(6, "match-mode answers are 100% ground", 30.0):
        checked = 0
        for pipe in pipelines_all:
            if pipe.uni != "match":
                continue
            assert check_gchain(pipe.chain.to_source()).holds
            for goal_text in pipe.goals():
                plan = pipe.plan(goal_text)
                assert is_ground(plan.initial)
                answers = eval_abcde(
                    plan.initial, plan.continuations, pipe.registry, "match"
                )
                assert all(is_ground(t) for t in answers)
                checked += len(answers)
        assert checked > 0


def test_criterion_7_informational_report(capsys):
    with _Criterion(7, "informational timing and quicksort counts", 120.0):
        from chainform.cli import main

        assert main(["stats", "--timing"]) == 0
        out = capsys.readouterr().out
        with capsys.disabled():
            print()
            print("informational report (no pass/fail threshold):")
            print(out)
            qs = load_fixture("quicksort")
            qs_chain = transform_definite(qs)
            print(
                "quicksort fixture: %d clauses -> %d (reported "
                "informationally; no published source to compare against)"
                % (len(qs.clauses), len(qs_chain.clauses))
            )
