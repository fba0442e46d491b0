"""Chain IR and registry tests."""

import random

import pytest
from conftest import MODED_FIXTURES, alpha_equivalent
from genprog import random_definite_program, random_moded_program

from chainform.chainir import (
    ChainProgram,
    NonUnit,
    Unit,
    UndefinedPredicateError,
    compile_to_registry,
    dump_registry,
)
from chainform.fixtures import load_fixture
from chainform.forms import check_chain
from chainform.syntax import parse_program
from chainform.terms import (
    NIL,
    cons,
    fresh_var,
    mk_tuple,
)
from chainform.transform import transform_definite, transform_moded

SPLIT = """\
:- mode(s, [in,out,out]).
s(L, [], L).
s([A|N], [A|L], M) :- s(N, L, M).
"""


@pytest.fixture
def split_chain():
    return transform_moded(parse_program(SPLIT, name="split"))


@pytest.fixture
def split_registry(split_chain):
    return compile_to_registry(split_chain)


class TestCompile:
    def test_split_registry_shape(self, split_registry):
        r = split_registry
        assert r.defn["s_hat"] == ("s_hat_1", "s_hat_2")
        assert r.defn["h_2_0"] == ("h_2_0_1",)
        assert r.defn["h_2_1"] == ("h_2_1_1",)
        assert r.nonunit["s_hat_2"] == ("h_2_0", "s_hat", "h_2_1")
        assert set(r.isunit) == {"s_hat_1", "h_2_0_1", "h_2_1_1"}

    def test_split_unit_terms(self, split_registry):
        St, L, M, A, N = (fresh_var(n) for n in "SLMAN")
        t, t_out = split_registry.unit["s_hat_1"]
        assert alpha_equivalent(
            mk_tuple([t, t_out]),
            mk_tuple([mk_tuple([St, L]), mk_tuple([St, NIL, L])]),
        )
        t, t_out = split_registry.unit["h_2_0_1"]
        assert alpha_equivalent(
            mk_tuple([t, t_out]),
            mk_tuple([mk_tuple([St, cons(A, N)]), mk_tuple([cons(A, St), N])]),
        )
        t, t_out = split_registry.unit["h_2_1_1"]
        assert alpha_equivalent(
            mk_tuple([t, t_out]),
            mk_tuple(
                [mk_tuple([cons(A, St), L, M]), mk_tuple([St, cons(A, L), M])]
            ),
        )

    def test_empty_program(self):
        r = compile_to_registry(ChainProgram())
        assert not r.defn and not r.nonunit and not r.unit

    def test_undefined_body_predicate(self):
        prog = ChainProgram(
            clauses=(NonUnit("p", ("q",)),), provenance=((1, "main"),)
        )
        with pytest.raises(UndefinedPredicateError, match="q"):
            compile_to_registry(prog)

    def test_declared_empty_definition(self):
        prog = ChainProgram(
            clauses=(NonUnit("p", ("q",)),), provenance=((1, "main"),)
        )
        r = compile_to_registry(prog, declare_empty=("q",))
        assert r.defn["q"] == ()

    def test_entry_is_what_provenance_calls_main(self):
        """The registry of a conversion records the entry predicates: those
        of the clauses whose role is 'main'.  Every other predicate it
        defines is a restructuring unit h_j's, whose one clause is that
        unit; the engines' pass-through seams rest on this."""
        rng = random.Random(7)
        programs = [
            convert(load_fixture(name))
            for name in MODED_FIXTURES
            for convert in (transform_moded, transform_definite)
        ]
        for _ in range(100):
            programs.append(transform_moded(random_moded_program(rng)))
            programs.append(transform_definite(random_definite_program(rng)))
        for chain in programs:
            r = compile_to_registry(chain)
            roles = {}
            for clause, (_, role) in zip(chain.clauses, chain.provenance, strict=True):
                roles.setdefault(chain.predicate_of(clause), set()).add(role)
            assert r.entry == {q for q, rs in roles.items() if rs == {"main"}}
            for q in set(r.defn) - r.entry:
                assert roles[q] != {"main"} and len(roles[q]) == 1, q
                assert len(r.defn[q]) == 1 and r.defn[q][0] in r.isunit, q

    def test_hand_built_program_records_no_entry(self, split_chain):
        prog = ChainProgram(
            clauses=split_chain.clauses, provenance=split_chain.provenance
        )
        assert compile_to_registry(prog).entry is None

    def test_alternative_counts(self, split_chain, split_registry):
        by_pred = {}
        for c in split_chain.clauses:
            by_pred.setdefault(split_chain.predicate_of(c), 0)
            by_pred[split_chain.predicate_of(c)] += 1
        for pred, labels in split_registry.defn.items():
            assert len(labels) == by_pred[pred]


def registry_to_clauses(r):
    """Invert compile_to_registry, up to label naming: clauses grouped by
    predicate in defn order, alternatives in definition order."""
    out = []
    for pred, labels in r.defn.items():
        for label in labels:
            if label in r.isunit:
                t, t_out = r.unit[label]
                out.append(Unit(pred, t, t_out))
            else:
                out.append(NonUnit(pred, r.nonunit[label]))
    return tuple(out)


class TestRoundTrip:
    def test_decompile_reproduces_clauses(self, split_chain, split_registry):
        back = registry_to_clauses(split_registry)
        by_pred = {}
        for c in split_chain.clauses:
            by_pred.setdefault(split_chain.predicate_of(c), []).append(c)
        back_by_pred = {}
        for c in back:
            back_by_pred.setdefault(
                c.head if isinstance(c, NonUnit) else c.predicate, []
            ).append(c)
        assert by_pred == back_by_pred


class TestDump:
    def test_split_dump_golden(self, split_registry):
        assert dump_registry(split_registry) == (
            "defn(s_hat, [s_hat_1,s_hat_2]).\n"
            "defn(h_2_0, [h_2_0_1]).\n"
            "defn(h_2_1, [h_2_1_1]).\n"
            "nonunit(s_hat_2, [h_2_0,s_hat,h_2_1]).\n"
            "unit(s_hat_1, ⟨St,L⟩, ⟨St,[],L⟩).\n"
            "unit(h_2_0_1, ⟨St,[A|N]⟩, ⟨[A|St],N⟩).\n"
            "unit(h_2_1_1, ⟨[A|St],L,M⟩, ⟨St,[A|L],M⟩).\n"
            "isunit(s_hat_1).\n"
            "isunit(h_2_0_1).\n"
            "isunit(h_2_1_1).\n"
        )

    def test_empty_dump(self):
        assert dump_registry(compile_to_registry(ChainProgram())) == ""


def test_to_source_passes_chain(split_chain):
    assert check_chain(split_chain.to_source()).holds
