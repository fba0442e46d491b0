"""Form-membership checks: moded, chain, G-chain, prechain."""

import pytest

from chainform.forms import (
    COND_DISJOINT,
    COND_FLOW,
    MissingModeError,
    check_chain,
    check_gchain,
    check_moded,
    check_prechain,
    moded_groups,
)
from chainform.syntax import parse_program
from chainform.terms import term_vars

SPLIT = """\
:- mode(s, [in,out,out]).
s(L, [], L).
s([A|N], [A|L], M) :- s(N, L, M).
"""


class TestModed:
    def test_split_is_moded(self):
        assert check_moded(parse_program(SPLIT)).holds

    def test_repeated_output_variable_allowed(self):
        # An output group may mention the same variable twice.
        text = """\
        :- mode(r, [in,out,out,out]).
        :- mode(s, [in,out,out]).
        r([A|N], [A|L], M, A) :- s(N, L, M).
        s(L, [], L).
        s([A|N], [A|L], M) :- s(N, L, M).
        """
        assert check_moded(parse_program(text)).holds

    def test_flow_violation(self):
        text = """\
        :- mode(p, [in,out]).
        :- mode(q, [in,out]).
        p(X, Y) :- q(Z, Y).
        q(a, b).
        """
        report = check_moded(parse_program(text))
        assert not report.holds
        assert report.violations[0][0] == 0
        assert report.violations[0][1] == COND_FLOW

    def test_disjointness_violation(self):
        # The head input and a body output share a variable.
        text = """\
        :- mode(p, [in,out]).
        :- mode(q, [in,out]).
        p(X, Y) :- q(X, X).
        q(a, b).
        """
        report = check_moded(parse_program(text))
        assert not report.holds
        assert any(v[1] == COND_DISJOINT for v in report.violations)

    def test_disjointness_names_every_pair(self):
        # X is in three source groups and Y in two: every sharing pair is
        # reported once, in group order.
        text = """\
        :- mode(p, [in,out]).
        :- mode(q, [in,out]).
        p(f(X, Y), Z) :- q(a, X), q(a, g(X, Y)), q(a, Z).
        q(a, b).
        """
        report = check_moded(parse_program(text))
        assert [(i, c, d) for i, c, d in report.violations] == [
            (0, COND_DISJOINT, "source groups 0 and 1 share {X}"),
            (0, COND_DISJOINT, "source groups 0 and 2 share {X, Y}"),
            (0, COND_DISJOINT, "source groups 1 and 2 share {X}"),
        ]

    def test_missing_directive(self):
        text = "p(X, Y) :- q(X, Y).\nq(a, b)."
        with pytest.raises(MissingModeError):
            check_moded(parse_program(text))

    def test_moded_view_groups(self):
        p = parse_program(SPLIT)
        sources, sinks = moded_groups(p.clauses[1], p)
        # Head input [A|N], head output ([A|L], M); body input (N), output (L, M).
        head_in, body_out = sources
        body_in, head_out = sinks
        assert len(head_in.args) == 1
        assert len(head_out.args) == 2
        assert len(body_out.args) == 2
        assert {v.name for v in term_vars(body_in)} == {"N"}

    def test_directive_for_another_arity_does_not_apply(self):
        p = parse_program(":- mode(p,[in,out]).\np(a).\np(a,b).")
        with pytest.raises(MissingModeError, match="predicate p/1"):
            check_moded(p)


class TestChain:
    def test_canonical_pattern(self):
        text = "p(X0, X2) :- q(X0, X1), r(X1, X2).\nq(a,b).\nr(b,c)."
        assert check_chain(parse_program(text)).holds

    def test_distinctness_required(self):
        text = "p(X0, X0) :- q(X0, X1).\nq(a,b)."
        report = check_chain(parse_program(text))
        assert not report.holds

    def test_unit_allows_any_terms(self):
        text = "p(f(Y), Y)."
        assert check_chain(parse_program(text)).holds

    def test_threading_broken(self):
        text = "p(X0, X2) :- q(X0, X1), r(X0, X2).\nq(a,b).\nr(a,b)."
        assert not check_chain(parse_program(text)).holds

    def test_nonbinary_rejected(self):
        text = "p(X0, X1, X2) :- q(X0, X1)."
        assert not check_chain(parse_program(text)).holds

    def test_source_split_is_not_chain(self):
        assert not check_chain(parse_program(SPLIT)).holds


class TestGChain:
    def test_contained_unit(self):
        assert check_gchain(parse_program("p(f(Y), Y).")).holds

    def test_escaping_unit(self):
        report = check_gchain(parse_program("p(a, Y)."))
        assert not report.holds

    def test_requires_chain_too(self):
        report = check_gchain(parse_program("p(X0, X0) :- q(X0, X1).\nq(a,a)."))
        assert not report.holds


class TestPrechain:
    def test_stack_threaded_clause(self):
        text = (
            "s(⟨St0,[A0|N0]⟩, ⟨St1,[A1|L1],M1⟩) :- "
            "s(⟨[A0|St0],N0⟩, ⟨[A1|St1],L1,M1⟩)."
        )
        assert check_prechain(parse_program(text)).holds

    def test_chain_nonunit_is_prechain(self):
        text = "p(X0, X1) :- q(X0, X1).\nq(a,b)."
        assert check_prechain(parse_program(text)).holds

    def test_ungrouped_recursion_violates(self):
        # The head output mentions A, which its source term (the body output)
        # does not bind.
        text = (
            "s(⟨[A|N]⟩, ⟨[A|L],M⟩) :- "
            "s(⟨N⟩, ⟨L,M⟩)."
        )
        report = check_prechain(parse_program(text))
        assert not report.holds
        assert report.violations[0][1] == COND_FLOW

    def test_nonbinary_flagged(self):
        report = check_prechain(parse_program("p(X, Y, Z)."))
        assert not report.holds


class TestContainment:
    def test_gchain_implies_chain_and_prechain(self):
        import random

        from genprog import random_moded_program
        from chainform.transform import transform_moded

        rng = random.Random(5)
        for _ in range(25):
            chain = transform_moded(random_moded_program(rng)).to_source()
            gchain = check_gchain(chain)
            assert gchain.holds
            assert check_chain(chain).holds
            assert check_prechain(chain).holds

    def test_chain_nonunit_clauses_are_prechain(self):
        # Unit clauses may escape prechain (any output terms are allowed in
        # chain form); non-unit chain clauses never do.
        text = "p(X0, X2) :- q(X0, X1), q(X1, X2).\nq(a, Y)."
        p = parse_program(text)
        assert check_chain(p).holds
        report = check_prechain(p)
        assert [v[0] for v in report.violations] == [1]  # only the unit
