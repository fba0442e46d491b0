"""SLD oracle tests: hand-derived answers, budget behaviour, soundness
against native Python list computations."""

from chainform.oracle import canonical_answer, sld_solve
from chainform.syntax import Goal, parse_goal, parse_program
from chainform.terms import (
    Compound,
    Constant,
    NIL,
    Variable,
    canonical,
    mk_list,
    term_vars,
)

SPLIT = """\
s(L, [], L).
s([A|N], [A|L], M) :- s(N, L, M).
"""

APPEND = "ap([],L,L).\nap([A|L],M,[A|N]) :- ap(L,M,N).\n"

a, b, c = Constant("a"), Constant("b"), Constant("c")


def answer_pairs(program_text, goal_text, budget=10_000):
    p = parse_program(program_text)
    g = parse_goal(goal_text)
    result = sld_solve(p, g, budget)
    vs = term_vars(g.atom)
    decoded = [
        tuple(ans.bindings.get(v, v) for v in vs) for ans in result.answers
    ]
    return decoded, result


class TestSplit:
    def test_three_answers_in_order(self):
        decoded, result = answer_pairs(SPLIT, "s([a,b], Y, Z)")
        assert not result.truncated
        assert decoded == [
            (NIL, mk_list([a, b])),
            (mk_list([a]), mk_list([b])),
            (mk_list([a, b]), NIL),
        ]

    def test_all_prefix_suffix_pairs(self):
        # Independent reference: splitting a list of length n yields every
        # prefix/suffix pair, in prefix-length order.
        items = [a, b, c]
        decoded, _ = answer_pairs(SPLIT, "s([a,b,c], Y, Z)")
        expected = [
            (mk_list(items[:k]), mk_list(items[k:])) for k in range(4)
        ]
        assert decoded == expected


class TestAppend:
    def test_single_answer(self):
        decoded, result = answer_pairs(APPEND, "ap(X, Y, [])")
        assert decoded == [(NIL, NIL)]
        assert not result.truncated

    def test_all_splits_of_target(self):
        decoded, _ = answer_pairs(APPEND, "ap(X, Y, [a,b])")
        items = [a, b]
        assert decoded == [
            (mk_list(items[:k]), mk_list(items[k:])) for k in range(3)
        ]

    def test_open_answer_keeps_variable(self):
        decoded, _ = answer_pairs(APPEND, "ap([], Y, Z)")
        (pair,) = decoded
        assert canonical(pair[0]) == canonical(pair[1])

    def test_derivation_lengths(self):
        p = parse_program(APPEND)
        result = sld_solve(p, parse_goal("ap(X, Y, [a,b])"))
        assert [ans.depth for ans in result.answers] == [1, 2, 3]


class TestBudget:
    def test_budget_cuts_and_flags(self):
        decoded, result = answer_pairs(SPLIT, "s([a,b], Y, Z)", budget=2)
        assert result.truncated
        assert len(decoded) == 2  # depth-3 answer was cut

    def test_zero_budget(self):
        decoded, result = answer_pairs(SPLIT, "s([], Y, Z)", budget=0)
        assert decoded == []
        assert result.truncated

    def test_monotone_in_budget(self):
        seqs = []
        for budget in (1, 2, 3, 10):
            decoded, _ = answer_pairs(SPLIT, "s([a,b,c], Y, Z)", budget)
            seqs.append(decoded)
        for small, large in zip(seqs, seqs[1:]):
            assert large[: len(small)] == small

    def test_infinite_program_terminates(self):
        decoded, result = answer_pairs("p(X) :- p(X).", "p(a)", budget=50)
        assert decoded == []
        assert result.truncated


class TestCanonicalAnswer:
    def test_merges_alpha_variants(self):
        p = parse_program(APPEND)
        g1 = parse_goal("ap([], Y, Z)")
        g2 = parse_goal("ap([], U, V)")
        a1 = sld_solve(p, g1).answers[0]
        a2 = sld_solve(p, g2).answers[0]
        assert canonical_answer(g1, a1.bindings) == canonical_answer(
            g2, a2.bindings
        )


def test_deep_derivation_at_default_limit(default_recursion_limit):
    """member over 5000 elements: derivations up to 5000 steps deep."""
    n = 5000
    p = parse_program("member(X,[X|_]).\nmember(X,[_|T]) :- member(X,T).")
    items = [Constant(i) for i in range(n)]
    x = Variable("X")
    result = sld_solve(p, Goal(Compound("member", (x, mk_list(items)))), n + 1)
    assert not result.truncated
    assert [ans.bindings[x] for ans in result.answers] == items
    assert [ans.depth for ans in result.answers] == list(range(1, n + 1))


def test_undefined_predicate_fails_finitely():
    decoded, result = answer_pairs("p(a) :- q(a).", "p(a)", budget=10)
    assert decoded == []
    assert not result.truncated
