"""Tests for the term kernel: unification, matching, renaming, substitution."""

import ast
import gc
import sys
from pathlib import Path
from types import FunctionType

import pytest
from conftest import (
    DEFINITE_FIXTURES,
    MODED_FIXTURES,
    alpha_equivalent,
    build_pipeline,
)
from hypothesis import example, given, settings, strategies as st

from chainform import engines, units
from chainform.chainir import Registry
from chainform.syntax import parse_goal
from chainform.terms import (
    Compound,
    Constant,
    Subst,
    Variable,
    _struct_eq,
    canonical,
    cons,
    fresh_var,
    is_ground,
    is_tuple,
    match,
    mk_list,
    mk_tuple,
    rename_many,
    term_vars,
    unify,
    NIL,
    TUPLE_FUNCTOR,
)
from chainform.units import box, compile_unit, resolved, run_unit, unify_unit


def rename_apart(t):
    """Alpha-variant of t over fresh variables."""
    return rename_many((t,))[0]


def f(*args):
    return Compound("f", args)


def g(*args):
    return Compound("g", args)


def h(*args):
    return Compound("h", args)


a = Constant("a")
b = Constant("b")


class TestUnify:
    def test_var_against_term(self):
        X = fresh_var("X")
        s = unify(X, f(a))
        assert s is not None
        assert s.apply(X) == f(a)
        assert len(s) == 1

    def test_two_sided_bindings(self):
        X, Y = fresh_var("X"), fresh_var("Y")
        s = unify(f(X, b), f(a, Y))
        assert s is not None
        assert s.apply(X) == a
        assert s.apply(Y) == b

    def test_occurs_check(self):
        X = fresh_var("X")
        assert unify(X, f(X)) is None

    def test_clash(self):
        assert unify(f(a), g(a)) is None
        assert unify(a, b) is None
        assert unify(f(a), f(a, a)) is None

    def test_int_constants(self):
        assert unify(Constant(1), Constant(1)) is not None
        assert unify(Constant(1), Constant(2)) is None
        assert unify(Constant(1), Constant("1")) is None

    def test_shared_variable_chains(self):
        X, Y, Z = fresh_var("X"), fresh_var("Y"), fresh_var("Z")
        s = unify(f(X, Y, Z), f(Y, Z, a))
        assert s is not None
        assert s.apply(X) == a
        assert s.apply(Y) == a
        assert s.apply(Z) == a

    def test_resolution_follows_later_bindings(self):
        X, Y, Z = fresh_var("X"), fresh_var("Y"), fresh_var("Z")
        # The last argument pair is solved first, so X is bound before Y and
        # Y before Z: each value must be resolved through the later bindings.
        s = unify(f(Z, Y, X), f(a, g(Z), Y))
        assert s.get(X) == s.get(Y) == g(a)
        s = unify(f(Z, Y, X), f(a, g(Z), g(Y)))
        assert s.get(X) == g(g(a))

    def test_result_is_idempotent(self):
        X, Y = fresh_var("X"), fresh_var("Y")
        s = unify(f(X, Y), f(g(Y), g(a)))
        assert s is not None
        for _, t in s.items():
            assert s.apply(t) == t


class TestMatch:
    def test_stack_pattern(self):
        St, A, N = fresh_var("St"), fresh_var("A"), fresh_var("N")
        pattern = mk_tuple([St, cons(A, N)])
        subject = mk_tuple([NIL, mk_list([a, b])])
        s = match(pattern, subject)
        assert s is not None
        assert s.apply(St) == NIL
        assert s.apply(A) == a
        assert s.apply(N) == mk_list([b])

    def test_mismatch(self):
        assert match(f(a), f(b)) is None

    def test_inconsistent_repeat(self):
        X = fresh_var("X")
        assert match(f(X, X), f(a, b)) is None

    def test_consistent_repeat(self):
        X = fresh_var("X")
        s = match(f(X, X), f(a, a))
        assert s is not None
        assert s.apply(X) == a

    def test_subject_variables_are_opaque(self):
        # One-way: subject vars never get bound.
        X = fresh_var("X")
        Y = fresh_var("Y")
        assert match(f(a), f(Y)) is None
        s = match(X, f(Y))
        assert s is not None
        assert s.apply(X) == f(Y)


class TestRename:
    def test_fresh_and_alpha_equivalent(self):
        X, Y = fresh_var("X"), fresh_var("Y")
        t = f(X, Y)
        r = rename_apart(t)
        assert alpha_equivalent(t, r)
        assert X not in term_vars(r)
        assert Y not in term_vars(r)

    def test_ground_fixpoint(self):
        assert rename_apart(a) == a

    def test_sharing_preserved(self):
        X = fresh_var("X")
        r = rename_apart(f(X, X))
        rv = term_vars(r)
        assert len(rv) == 1
        assert r.args[0] == r.args[1]

    def test_rename_many_shares_mapping(self):
        X = fresh_var("X")
        t1, t2 = rename_many((f(X), g(X)))
        assert t1.args[0] == t2.args[0]
        assert t1.args[0] != X

    def test_rename_many_shares_ground_subterms(self):
        X = fresh_var("X")
        lst = mk_list([a, b])
        whole = f(lst, g(a))
        t1, t2 = rename_many((f(X, lst), whole))
        assert t1.args[0] != X
        assert t1.args[1] is lst
        assert t2 is whole


class TestVarsAndApply:
    def test_vars_of_tuple(self):
        A, N = fresh_var("A"), fresh_var("N")
        t = mk_tuple([cons(A, N)])
        assert set(term_vars(t)) == {A, N}

    def test_vars_ground(self):
        assert term_vars(a) == ()

    def test_vars_first_occurrence_order(self):
        X, Y = fresh_var("X"), fresh_var("Y")
        assert term_vars(f(X, g(X, Y))) == (X, Y)

    def test_apply(self):
        X, Y = fresh_var("X"), fresh_var("Y")
        s = unify(X, a)
        assert s.apply(f(X, Y)) == f(a, Y)

    def test_apply_empty_identity(self):
        X = fresh_var("X")
        t = f(X)
        s = unify(a, a)
        assert s.apply(t) is t

    def test_apply_stack_example(self):
        A, N, St = fresh_var("A"), fresh_var("N"), fresh_var("St")
        s = unify(f(A, N), f(a, mk_list([b])))
        t = mk_tuple([cons(A, St), N])
        assert s.apply(t) == mk_tuple([cons(a, St), mk_list([b])])

    def test_is_ground(self):
        X = fresh_var("X")
        assert is_ground(f(a, g(b)))
        assert not is_ground(f(a, X))

    def test_ground_flag(self):
        X = fresh_var("X")
        assert f(a, g(b)).ground
        assert Compound("p", ()).ground
        assert not f(a, X).ground
        assert not g(f(a, g(X)), b).ground
        assert not mk_list([a], X).ground


# Random-term strategies.  Left/right variable pools are disjoint so that
# pattern and subject share no variables in the matching law.
def _terms(var_pool, max_depth=3):
    consts = st.sampled_from(
        [a, b, Constant("c"), Constant(0), Constant(1), Constant("1")]
    )
    # An empty pool draws ground terms.
    base = st.one_of(consts, st.sampled_from(var_pool)) if var_pool else consts

    def extend(children):
        return st.builds(
            lambda fn, args: Compound(fn, tuple(args)),
            st.sampled_from(["f", "g", "h"]),
            st.lists(children, min_size=1, max_size=3),
        )

    return st.recursive(base, extend, max_leaves=8)


_LEFT_VARS = tuple(Variable(n, -(i + 100)) for i, n in enumerate("XYZ"))
_RIGHT_VARS = tuple(Variable(n, -(i + 200)) for i, n in enumerate("UVW"))

shared_pairs = st.tuples(
    _terms(_LEFT_VARS + _RIGHT_VARS), _terms(_LEFT_VARS + _RIGHT_VARS)
)
disjoint_pairs = st.tuples(_terms(_LEFT_VARS), _terms(_RIGHT_VARS))


def _variable_free(t):
    # Independent of the kernel: neither the ground flag nor term_vars.
    if type(t) is Variable:
        return False
    if type(t) is Compound:
        return all(_variable_free(x) for x in t.args)
    return True


def _assert_ground_flags(t):
    # The flag is exact at every compound node, not only at the root.
    if type(t) is Compound:
        assert t.ground == _variable_free(t)
        for x in t.args:
            _assert_ground_flags(x)
    assert is_ground(t) == _variable_free(t)


# Plain recursive reference versions of the kernel's rebuilding walks.
def _ref_apply(bindings, t):
    if type(t) is Variable:
        return bindings.get(t, t)
    if type(t) is Compound:
        return Compound(t.functor, tuple(_ref_apply(bindings, x) for x in t.args))
    return t


def _ref_rename(t, mapping):
    if type(t) is Variable:
        return mapping.setdefault(t, Variable(t.name))
    if type(t) is Compound:
        return Compound(t.functor, tuple(_ref_rename(x, mapping) for x in t.args))
    return t


def _ref_canonical(t, numbering):
    if type(t) is Variable:
        k = numbering.setdefault(t.serial, len(numbering))
        return Variable("V", -(k + 1))
    if type(t) is Compound:
        return Compound(
            t.functor, tuple(_ref_canonical(x, numbering) for x in t.args)
        )
    return t


def _ref_repr(t):
    if type(t) is Compound and t.args:
        return "%s(%s)" % (t.functor, ", ".join(_ref_repr(x) for x in t.args))
    if type(t) is Compound:
        return t.functor
    return repr(t)


_ANY_VARS = _LEFT_VARS + _RIGHT_VARS
any_bindings = st.dictionaries(
    st.sampled_from(_ANY_VARS), _terms(_ANY_VARS), max_size=3
)


_FREE_VARS = tuple(Variable(n, -(i + 300)) for i, n in enumerate("PQ"))


@st.composite
def units_and_subjects(draw):
    """A unit clause t_in -> t_out and a term to apply it to.  Patterns may
    repeat variables and hold ground subterms; outputs may use variables
    absent from t_in, or be t_in itself (an identity unit).  The subject is
    an instance of t_in or any term."""
    t_in = draw(_terms(_LEFT_VARS))
    if draw(st.integers(0, 4)):
        t_out = draw(_terms(_LEFT_VARS + _FREE_VARS))
    else:
        t_out = t_in
    if draw(st.booleans()):
        bindings = draw(
            st.dictionaries(st.sampled_from(_LEFT_VARS), _terms(_RIGHT_VARS))
        )
        x = Subst(bindings).apply(t_in)
    else:
        x = draw(_terms(_RIGHT_VARS))
    return t_in, t_out, x


def _match_then_apply(t_in, t_out, x):
    s = match(t_in, x)
    return None if s is None else s.apply(t_out)


X_, Y_ = _LEFT_VARS[:2]
U_, V_, W_ = _RIGHT_VARS
P_ = _FREE_VARS[0]


# A 0-ary compound: ground, so a pattern checks it as a ground subterm.
n0 = Compound("n", ())

# One case of each kind of record per runner: constant checks that differ
# only in the symbol's type, ground subterms, repeated variables, open
# outputs, 0-ary compounds and identity units.
MATCH_EXAMPLES = (
    (Constant(1), a, Constant("1")),
    (Constant("1"), a, Constant("1")),
    (f(X_), X_, f(a, b)),
    (f(X_, X_), X_, f(a, b)),
    (f(X_, X_), g(X_, P_), f(g(a), g(a))),
    (f(g(a, b), X_), X_, f(g(a, b), b)),
    (f(g(a, b), X_), X_, f(g(a, Constant("c")), b)),
    (X_, f(X_, P_, Y_), f(a)),
    # Where every compound built must not be taken for ground: a ground
    # subject with an output-only variable, and a subject with a variable.
    (f(X_), g(f(X_), g(P_)), f(a)),
    (f(X_), g(f(X_), a), f(U_)),
    # A unary constructor; outputs that are a bare register and a bare
    # ground term; one register gathered twice; a ground leaf before an
    # output-only variable; a symbol equal to the subject's in another type.
    (f(X_), Compound("s", (X_,)), f(g(a))),
    (f(X_, Y_), Y_, f(a, g(b))),
    (f(X_), g(a, b), f(a)),
    (f(X_), b, f(a)),
    (g(X_), f(X_, X_), g(g(a))),
    (f(X_), g(P_, a, X_), f(b)),
    (f(X_, Constant(1)), X_, f(a, Constant(True))),
    # 0-ary compounds: checked against another 0-ary compound, a constant
    # of the same name and a compound of the same functor; built into the
    # output as a ground leaf.
    (f(X_, n0), g(X_, n0), f(a, n0)),
    (f(X_, n0), X_, f(a, Compound("m", ()))),
    (f(X_, n0), X_, f(a, Constant("n"))),
    (f(X_, n0), X_, f(a, Compound("n", (a,)))),
    # A pattern that is a constant, a ground compound or a variable at the
    # root, on a ground and a non-ground subject.
    (g(a, b), f(P_), g(a, b)),
    (X_, g(X_, X_), g(U_)),
    (X_, g(X_, X_), g(a)),
    # Identity units, one with a repeated variable.
    (f(X_, X_), f(X_, X_), f(a, b)),
    (f(X_, g(Y_)), f(X_, g(Y_)), f(U_, g(a))),
    (f(X_, g(Y_)), f(X_, g(Y_)), f(a, g(a))),
)


def _match_examples(test):
    for case in reversed(MATCH_EXAMPLES):
        test = example(case)(test)
    return test


def _check_match_then_apply(t_in, t_out, x):
    want = _match_then_apply(t_in, t_out, x)
    got = run_unit(compile_unit(t_in, t_out), x)
    assert got == want
    if got is not None:
        _assert_ground_flags(got)


class TestCompiledUnit:
    @given(units_and_subjects())
    @settings(max_examples=300)
    @_match_examples
    def test_compiled_equals_match_then_apply(self, case):
        _check_match_then_apply(*case)

    def test_output_only_variable_is_shared(self):
        # Match mode renames nothing: the unit's own variable is the output.
        got = run_unit(compile_unit(f(X_), g(P_, X_)), f(a))
        assert got == g(P_, a) and got.args[0] is P_

    def test_open_unit_on_ground_subject(self):
        # p(X) -> f(g(P), X) on the ground p(a): the subject is ground but
        # the unit is open, so every compound enclosing P is built unground.
        t_in, t_out = Compound("p", (X_,)), f(g(P_), X_)
        got = run_unit(compile_unit(t_in, t_out), Compound("p", (a,)))
        assert got == _match_then_apply(t_in, t_out, Compound("p", (a,)))
        assert got == f(g(P_), a)
        assert got.ground is False and got.args[0].ground is False

    def test_forms_are_flat(self):
        # Registers: 0 the subject, 1-4 f's arguments, 5-6 h's, 7 the
        # output-only P, 8-9 the compounds built.  The walk pops the last
        # argument first, so X is first seen at register 3.
        t_in = f(X_, g(a, b), X_, Compound("h", (Y_, a)))
        t_out = g(Compound("h", (X_, P_)), Y_)
        loads = ((0, "f", 4), (4, "h", 2))  # (r, functor, arity)
        checks = (
            True,  # checked: the next three sections are not all empty
            ((6, "a"),),  # consts: (r, symbol)
            ((2, g(a, b)),),  # grounds: (r, ground term)
            ((3, 1),),  # sames: (first register, later register)
        )
        # build: (functor, *the registers of its arguments), postfix
        build = (("h", 3, 7), ("g", 8, 5))
        code = compile_unit(t_in, t_out)
        assert code[:5] == (loads, *checks)
        assert code[5] == (P_,)  # tail: P itself, in register 7
        assert code[6] == build
        assert code[7:11] == (
            9,  # out
            1,  # open: P is absent from t_in, and the tail's last register
            (5, 3),  # firsts
            ("_", "X", "_", "X", "_", "Y", "_"),  # names, one per load
        )
        # shape: the id of its generated match function; lifted: what that
        # function reads, in order: the loads' functors, the constant's
        # symbol and type, the ground term, the tail, the built functors.
        assert type(code[11]) is int
        assert code[12] == ("f", "h", "a", str, g(a, b), P_, "h", "g")
        assert compile_unit(t_in, g(X_, Y_))[8] == 0
        # A unary constructor's record holds its one register.
        unary = compile_unit(f(X_), Compound("s", (X_,)))
        assert unary[6] == (("s", 1),)
        assert unary[1] is False  # nothing to check

    def test_compiled_units_stay_out_of_the_collector(self):
        # h_4_0_1 is <St,[A|L],M> -> <[A|St],L,M>: no ground subterm, so its
        # compiled form holds nothing the collector tracks.  A collection
        # untracks a tuple once its items are untracked, which takes one
        # collection per level: records, sections, the program.
        registry = build_pipeline("nrev", "moded").registry
        code = compile_unit(*registry.unit["h_4_0_1"])
        for _ in range(3):
            gc.collect()
        assert not gc.is_tracked(code)

    def test_identity_unit(self):
        # nrev's h_2_2_1, <St,R> -> <St,R>: no build and no tail, the output
        # is register 0, and a ground subject comes back as itself.
        registry = build_pipeline("nrev", "moded").registry
        t_in, t_out = registry.unit["h_2_2_1"]
        assert t_in == t_out
        code = compile_unit(t_in, t_out)
        assert code[5:9] == ((), (), 0, 0)  # tail, build, out, open
        x = mk_tuple((mk_list([a]), mk_list([b, a])))
        assert run_unit(code, x) is x
        assert run_unit(code, f(a, b)) is None
        # Structural equality decides, not identity; a renamed copy is no
        # identity.
        assert compile_unit(t_in, mk_tuple(t_out.args))[7] == 0
        assert compile_unit(t_in, rename_many((t_in,))[0])[7] != 0

    def test_nonlinear_identity_unit(self):
        code = compile_unit(mk_tuple((X_, X_)), mk_tuple((X_, X_)))
        assert code[5:9] == ((), (), 0, 0)
        assert code[4] == ((2, 1),)  # sames: X's repeat is still checked
        assert run_unit(code, mk_tuple((a, b))) is None
        x = mk_tuple((g(a), g(a)))
        assert run_unit(code, x) is x
        bind, trail = {}, []
        assert unify_unit(code, mk_tuple((a, b)), bind, trail) is None
        assert bind == {} and trail == []


def _source_of(code, source=units._source):
    # The generated source of a compiled unit's shape, made again from its
    # key by source (units._source for the match function, _unify_source
    # for the unify function): the tables keep only the compiled functions.
    key = next(k for k, sid in units._SHAPE_IDS.items() if sid == code[11])
    return source(key)


def _tables():
    return len(units._MATCHERS), len(units._UNIFIERS)


def _renamed(t, tag):
    # t with every functor but the reserved tuple and every string symbol
    # suffixed by tag: a renamed ⟨⟩ would be no ⟨⟩, and its root flags
    # rightly give it another shape.
    if type(t) is Compound:
        functor = t.functor if t.functor == TUPLE_FUNCTOR else t.functor + tag
        return Compound(functor, tuple(_renamed(x, tag) for x in t.args))
    if type(t) is Constant and type(t.symbol) is str:
        return Constant(t.symbol + tag)
    return t


# Functor and symbol texts no generated source can hold.
HOSTILE = ('q"uote', "it's", "new\nline", "par)en(", "ünï→λ", "t\tab")


def _hostile_unit(names):
    # A unit with loads, a constant check, two ground checks (one of a
    # 0-ary compound), a repeated variable and an output-only variable,
    # its every functor and symbol taken from names.
    n1, n2, n3, n4, n5, n6 = names
    t_in = Compound(n1, (
        X_,
        Compound(n2, (Y_, Constant(n3))),
        Compound(n4, ()),
        Compound(n5, (Constant(n6), Constant(7))),
        Y_,
    ))
    t_out = Compound(n5, (Y_, Compound(n2, (X_, Constant(n6))), P_))
    x = Compound(n1, (
        g(a),
        Compound(n2, (b, Constant(n3))),
        Compound(n4, ()),
        Compound(n5, (Constant(n6), Constant(7))),
        b,
    ))
    return t_in, t_out, x


class TestGeneratedShapes:
    @given(st.lists(st.text(min_size=1), min_size=6, max_size=6))
    @settings(max_examples=100)
    @example(list(HOSTILE))
    def test_any_text_agrees_with_the_reference(self, names):
        # Functors and symbols built through the API, whatever their text.
        t_in, t_out, x = _hostile_unit(names)
        _check_match_then_apply(t_in, t_out, x)
        wrong = Compound(names[0], (a, *x.args[1:4], b))
        _check_match_then_apply(t_in, t_out, wrong)
        assert compile_unit(t_in, t_out)[11] != units._OVER_CAP

    def test_no_clause_text_in_the_source(self):
        t_in, t_out, x = _hostile_unit(HOSTILE)
        code = compile_unit(t_in, t_out)
        for source in (units._source, units._unify_source):
            text_of_shape = _source_of(code, source)
            assert text_of_shape.isascii()
            for text in (*HOSTILE, *map(repr, code[12])):
                assert text not in text_of_shape
        assert run_unit(code, x) == _match_then_apply(t_in, t_out, x)
        _check_rename_unify_apply(code, t_in, t_out, x, {})

    def test_renamed_copies_share_shapes(self):
        # The six moded fixtures' units under 40 renamings of every functor
        # but tuple and of every symbol: the copies add no shape beyond the
        # first's, to either table, and a unit compiled again adds none
        # either.
        pairs = [
            pair
            for name in MODED_FIXTURES
            for pair in build_pipeline(name, "moded").registry.unit.values()
        ]
        codes = [compile_unit(*pair) for pair in pairs]
        size = _tables()
        for i in range(40):
            tag = "_%d" % i
            for (t_in, t_out), code in zip(pairs, codes):
                copy = compile_unit(_renamed(t_in, tag), _renamed(t_out, tag))
                assert copy[11] == code[11]
        for (t_in, t_out), code in zip(pairs, codes):
            assert compile_unit(t_in, t_out) == code
        assert _tables() == size

    def test_the_cap(self):
        # f(X1..Xk) -> g(Xk..X1) takes 1 + k + 1 registers: the subject, its
        # arguments and the compound built.
        cap = units._MAX_REGISTERS
        for k, generated in ((cap - 2, True), (cap - 1, False)):
            xs = [Variable("X%d" % i) for i in range(k)]
            t_in, t_out = Compound("f", xs), Compound("g", xs[::-1])
            code = compile_unit(t_in, t_out)
            assert (code[11] != units._OVER_CAP) == generated
            assert len(code[10]) + len(code[5]) + len(code[6]) == k + 2
            ground = [Constant(i) for i in range(k)]
            x = Compound("f", ground)
            assert run_unit(code, x) == _match_then_apply(t_in, t_out, x)
            assert run_unit(code, Compound("f", x.args[1:])) is None
        # Over the cap, compiling and running a unit generate no function
        # in either table: run_unit runs the reference and unify_unit its
        # register loop, here also on an open unit and on a subject that
        # holds a variable.
        size = _tables()
        open_out = Compound("g", (*xs, P_))
        for t_out, x in (
            (t_out, x),
            (open_out, x),
            (t_out, Compound("f", (U_, *ground[1:]))),
        ):
            code = compile_unit(t_in, t_out)
            assert code[11] == units._OVER_CAP
            _check_match_then_apply(t_in, t_out, x)
            _check_rename_unify_apply(code, t_in, t_out, x, {})
        assert _tables() == size

    def test_generated_at_the_first_match_mode_run(self):
        # Two shapes no other test makes.  Each table's entry is a stand-in
        # until the shape's first run in that table's mode, which generates
        # that mode's function and leaves the other table's entry alone.
        for k, unify_first in ((17, True), (18, False)):
            xs = [Variable("X%d" % i) for i in range(k)]
            t_in = Compound("f", xs)
            t_out = Compound("g", (Compound("h", xs[:2]), *xs[2:]))
            code = compile_unit(t_in, t_out)
            sid = code[11]
            x = Compound("f", [Constant(i) for i in range(k)])
            first, second = units._UNIFIERS, units._MATCHERS
            if not unify_first:
                first, second = second, first
            assert not isinstance(first[sid], FunctionType)
            assert not isinstance(second[sid], FunctionType)
            if unify_first:
                _check_rename_unify_apply(code, t_in, t_out, x, {})
            else:
                _check_match_then_apply(t_in, t_out, x)
            assert isinstance(first[sid], FunctionType)
            assert not isinstance(second[sid], FunctionType)
            if unify_first:
                _check_match_then_apply(t_in, t_out, x)
            else:
                _check_rename_unify_apply(code, t_in, t_out, x, {})
            assert isinstance(second[sid], FunctionType)

    def test_sources_parse_as_python_3_10(self):
        # pyproject.toml's requires-python floor: every module of the
        # package, and both functions of every shape of both conversions of
        # the bundled fixtures, are Python 3.10 source.
        package = Path(units.__file__).parent
        modules = sorted(package.rglob("*.py"))
        assert package / "units.py" in modules
        for path in modules:
            ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
        pipelines = [
            build_pipeline(name, mode)
            for name in MODED_FIXTURES
            for mode in ("moded", "definite")
        ]
        pipelines += [build_pipeline(name, "definite") for name in DEFINITE_FIXTURES]
        shapes = {
            compile_unit(*pair)[11]
            for pipe in pipelines
            for pair in pipe.registry.unit.values()
        }
        assert units._OVER_CAP not in shapes
        keys = [k for k, sid in units._SHAPE_IDS.items() if sid in shapes]
        assert len(keys) == len(shapes) > 40
        for key in keys:
            ast.parse(units._source(key), feature_version=(3, 10))
            ast.parse(units._unify_source(key), feature_version=(3, 10))


# ---------------------------------------------------------------------------
# Bare states: in match mode a ground ⟨⟩ travels between unit steps as its
# argument tuple.


def _tuples(var_pool):
    # Terms with ⟨⟩ at the root, of one to three of _terms' terms.
    return st.lists(_terms(var_pool), min_size=1, max_size=3).map(mk_tuple)


@st.composite
def tuple_units_and_subjects(draw):
    """A unit ⟨…⟩ -> ⟨…⟩, as both conversions emit them, or an identity
    one, and a ⟨⟩ subject: an instance of t_in, ground or not, or any."""
    t_in = draw(_tuples(_LEFT_VARS))
    if draw(st.integers(0, 4)):
        t_out = draw(_tuples(_LEFT_VARS + _FREE_VARS))
    else:
        t_out = t_in
    kind = draw(st.integers(0, 2))
    if kind == 0:
        x = Subst({v: draw(_terms(())) for v in _LEFT_VARS}).apply(t_in)
    elif kind == 1:
        bindings = draw(
            st.dictionaries(st.sampled_from(_LEFT_VARS), _terms(_RIGHT_VARS))
        )
        x = Subst(bindings).apply(t_in)
    else:
        x = draw(_tuples(_RIGHT_VARS))
    return t_in, t_out, x


def _check_bare_state(code, t_in, t_out, x):
    """run_unit on the term x and, when x is a ground ⟨⟩, on its bare
    argument tuple, which stands only for such a term: boxed, both equal
    the reference, and a bare result is a non-empty tuple of ground terms.
    The results, for the caller's own checks."""
    want = _match_then_apply(t_in, t_out, x)
    outs = [run_unit(code, x)]
    if is_tuple(x) and x.ground and x.args:
        outs.append(run_unit(code, x.args))
    for out in outs:
        assert box(out) == want
        if out is not None:
            _assert_ground_flags(box(out))
        if type(out) is tuple:
            assert out and all(map(_variable_free, out))
    return outs


# (t_in, t_out, a ground ⟨⟩ subject) for each root of t_in that is not a
# loaded ⟨⟩: the match function boxes a bare subject on entry, and over
# the cap run_unit does.
# ⟨X1..Xk⟩ -> ⟨Xk..X1⟩ takes 1 + k + 1 registers, one over the cap.
_K = units._MAX_REGISTERS - 1
_XS = tuple(Variable("X%d" % i) for i in range(_K))
ROOT_KINDS = {
    "non-tuple compound": (f(X_), mk_tuple((X_,)), mk_tuple((a,))),
    "constant": (a, mk_tuple((a,)), mk_tuple((a,))),
    "variable": (X_, mk_tuple((X_, f(X_))), mk_tuple((a, b))),
    "ground tuple": (mk_tuple((a, g(b))), mk_tuple((P_, a)), mk_tuple((a, g(b)))),
    "0-ary tuple": (Compound(TUPLE_FUNCTOR, ()), mk_tuple((a,)), mk_tuple((a,))),
    "over the cap": (
        mk_tuple(_XS),
        mk_tuple(_XS[::-1]),
        mk_tuple([Constant(i) for i in range(_K)]),
    ),
}


class TestBareStates:
    @given(tuple_units_and_subjects())
    @settings(max_examples=300)
    def test_bare_subject_agrees_with_the_term(self, case):
        _check_bare_state(compile_unit(*case[:2]), *case)

    def test_corpus_units_on_the_states_the_search_meets(
        self, pipelines, monkeypatch
    ):
        # Every unit attempt of a match-mode run of the corpus, its subject
        # as the search handed it over: bare after a unit built a ground ⟨⟩.
        seen = []

        def recording(code, x):
            seen.append((code, x))
            return run_unit(code, x)

        monkeypatch.setattr(engines, "match", recording)
        attempts = bare = both = 0
        for pipe in pipelines:
            if pipe.uni != "match":
                continue
            clauses = {
                compile_unit(*pair): pair for pair in pipe.registry.unit.values()
            }
            seen.clear()
            for text in pipe.goals():
                plan = pipe.plan(text)
                engines.eval_abcde(plan.initial, plan.continuations, pipe.registry)
            for code, x in seen:
                t_in, t_out = clauses[code]
                outs = _check_bare_state(code, t_in, t_out, box(x))
                attempts += 1
                bare += type(x) is tuple
                both += len(outs) == 2
        # Guards against a vacuous check: every subject is a ground ⟨⟩, so
        # each is run both ways, and most come bare (398 of 457).
        assert both == attempts > 400 and bare > attempts // 2, (attempts, bare)

    @pytest.mark.parametrize("kind", sorted(ROOT_KINDS))
    def test_root_kinds_box_a_bare_subject(self, kind):
        t_in, t_out, x = ROOT_KINDS[kind]
        code = compile_unit(t_in, t_out)
        assert (code[11] == units._OVER_CAP) == (kind == "over the cap")
        _check_bare_state(code, t_in, t_out, x)

    def test_box(self):
        t = box((a, g(b)))
        assert t == mk_tuple((a, g(b))) and t.ground is True
        x = mk_tuple((a,))
        assert box(x) is x and box(None) is None and box(a) is a
        # In unify mode a bare tuple may hold a variable, at any depth.
        for args in ((X_, a), (a, g(b, X_))):
            t = box(args)
            assert t == mk_tuple(args) and t.ground is False
            _assert_well_built(t)

    @pytest.mark.parametrize("uni", ["match", "unify"])
    def test_engines_answer_terms(self, pipelines, uni):
        # Every engine hands out terms, never a bare tuple.
        answered = 0
        for pipe in pipelines:
            if pipe.uni != uni:
                continue
            for text in pipe.goals():
                plan = pipe.plan(text)
                args = plan.initial, plan.continuations, pipe.registry, uni
                sigma = plan.initial.args[0]
                answers = [
                    *engines.eval_abcde(*args),
                    *engines.eval_continuation(*args),
                    *engines.eval_stream(sigma, [plan.initial], *args[1:]),
                    *engines.enumerate_prolog(*args),
                    engines.enumerate_prolog(*args).next(),
                    engines.eval_bounded(*args).answer,
                ]
                for answer in answers:
                    assert answer is None or type(answer) is Compound, text
                answered += sum(answer is not None for answer in answers)
        assert answered > 50, answered


@st.composite
def units_subjects_stores(draw):
    """units_and_subjects, with a binding store that may already bind
    subject variables: U to a term over V and W, V to a term over W."""
    t_in, t_out, x = draw(units_and_subjects())
    U, V, W = _RIGHT_VARS
    pre = {}
    if draw(st.booleans()):
        pre[V] = draw(_terms((W,)))
    if draw(st.booleans()):
        pre[U] = draw(_terms((V, W)))
    return t_in, t_out, x, pre


def _rename_unify_apply(t_in, t_out, x):
    # The reference: the subject and the output under the unifier.
    r_in, r_out = rename_many((t_in, t_out))
    s = unify(x, r_in)
    return None if s is None else mk_tuple((s.apply(x), s.apply(r_out)))


def _store(pre):
    return {v.serial: t for v, t in pre.items()}, [v.serial for v in pre]


def _assert_well_built(t):
    # Every compound reachable from t: its ground flag equals a fresh
    # recursive scan, its functor is interned, its args are a tuple.
    stack = [t]
    while stack:
        s = stack.pop()
        if type(s) is Compound:
            assert s.ground == _variable_free(s)
            assert sys.intern(s.functor) is s.functor
            assert type(s.args) is tuple
            stack.extend(s.args)


def _check_well_built(t_in, t_out, x):
    got = run_unit(compile_unit(t_in, t_out), x)
    if got is not None:
        _assert_well_built(got)


def _runners(t_in, t_out):
    # The unit compiled twice, once for each unify-mode runner: within the
    # cap, for its shape's generated unify function, and with the cap
    # patched to 0, for unify_unit's register loop.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(units, "_MAX_REGISTERS", 0)
        interpreted = compile_unit(t_in, t_out)
    generated = compile_unit(t_in, t_out)
    assert interpreted[11] == units._OVER_CAP != generated[11]
    return generated, interpreted


def _check_rename_unify_apply(code, t_in, t_out, subject, pre):
    # One runner against the reference, from a store holding pre.  The
    # subject is a term or the bare argument tuple of a ⟨⟩, and the output
    # is compared boxed: a bare one is a non-empty tuple.
    bind, trail = _store(pre)
    before = (dict(bind), list(trail))
    x = box(subject)
    s_pre = Subst(pre)
    # U's value may hold V: two passes resolve the store's chains.
    x_pre = s_pre.apply(s_pre.apply(x))
    want = _rename_unify_apply(t_in, t_out, x_pre)
    got = unify_unit(code, subject, bind, trail)
    if got is None:
        assert want is None
        assert (bind, trail) == before
        return
    assert want is not None
    assert got != ()
    got = box(got)
    _assert_well_built(got)
    pair = resolved(mk_tuple((x, got)), bind)
    assert canonical(pair) == canonical(want)
    _assert_ground_flags(pair)
    assert trail[: len(before[1])] == before[1]
    assert set(bind) == set(trail)
    # Every variable the call made is new: none of the unit's own, and
    # none shared with a second call from the same store.
    bind2, trail2 = _store(pre)
    again = resolved(box(unify_unit(code, subject, bind2, trail2)), bind2)
    made = set(term_vars(resolved(got, bind))) - set(term_vars(x_pre))
    made_again = set(term_vars(again)) - set(term_vars(x_pre))
    assert not made & made_again
    assert not made & set(term_vars(mk_tuple((t_in, t_out))))


def _as_made(t):
    # t up to its variables' serials: its variables numbered by first
    # occurrence, their names in that order, and the order in which they
    # were made.
    vs = term_vars(t)
    order = sorted(range(len(vs)), key=lambda i: vs[i].serial)
    return canonical(t), [v.name for v in vs], order


class TestInPlaceBuild:
    """The runners build output compounds without Compound.__init__, so
    they hold its invariants themselves."""

    @given(units_and_subjects())
    @settings(max_examples=300)
    @_match_examples
    def test_match_mode(self, case):
        _check_well_built(*case)

    @given(units_subjects_stores())
    @settings(max_examples=300)
    @example((f(X_), Compound("s", (X_,)), f(U_), {}))
    @example((f(X_, Y_), g(Y_, X_), f(U_, a), {U_: g(V_)}))
    @example((f(X_), g(P_, a, X_), f(U_), {}))
    def test_unify_mode(self, case):
        t_in, t_out, x, pre = case
        for code in _runners(t_in, t_out):
            bind, trail = _store(pre)
            got = unify_unit(code, x, bind, trail)
            if got is not None:
                _assert_well_built(got)
                _assert_well_built(resolved(got, bind))


    @given(
        st.lists(
            st.one_of(
                _terms(_ANY_VARS),
                st.builds(mk_list, st.lists(_terms(_ANY_VARS), max_size=3)),
            ),
            max_size=6,
        ),
        st.one_of(
            st.just(NIL),
            st.sampled_from(_ANY_VARS),
            _terms(_ANY_VARS).filter(lambda t: type(t) is Compound),
            st.builds(mk_list, st.lists(_terms(_ANY_VARS), min_size=1, max_size=3),
                      st.sampled_from(_ANY_VARS)),
        ),
    )
    @settings(max_examples=300)
    @example([a, X_, f(a), g(X_)], NIL)
    @example([a, b], f(U_))
    @example([], X_)
    def test_mk_list(self, items, tail):
        # Cell by cell, the list equals the chain Compound("cons", ...)
        # builds, with the same ground flag, the interned functor and
        # tuple args, and it holds the items and the tail themselves.
        got = mk_list(items, tail)
        want = tail
        for item in reversed(items):
            want = Compound("cons", (item, want))
        assert got == want
        for item in items:
            assert type(got) is Compound and got.ground == want.ground
            assert got.functor is sys.intern("cons")
            assert type(got.args) is tuple and got.args[0] is item
            got, want = got.args[1], want.args[1]
        assert got is tail

    def test_long_list_read(self, default_recursion_limit):
        # 200 000 elements, the one variable halfway: a cell is ground iff
        # it lies inside the variable's cell.
        n = 200_000
        items = ["e%d" % (k % 7) for k in range(n)]
        items[n // 2] = "X"
        lst = parse_goal("p([%s])" % ",".join(items)).atom.args[0]
        for k in range(n):
            assert lst.functor is sys.intern("cons")
            assert type(lst.args) is tuple
            assert lst.ground == (k > n // 2)
            lst = lst.args[1]
        assert lst is NIL


class TestStoreRunner:
    @given(units_subjects_stores())
    @settings(max_examples=300)
    @example((f(X_, X_), g(X_, P_), f(U_, V_), {}))
    @example((f(X_, g(X_)), X_, f(U_, U_), {}))
    @example((f(X_, g(a, b)), g(X_, P_, P_), f(g(U_), V_), {}))
    @example((f(X_, Y_, X_), g(Y_), f(U_, V_, V_), {V_: g(W_)}))
    @example((f(g(X_), X_), X_, f(U_, U_), {U_: g(V_)}))
    @example((X_, f(X_, P_, Y_), U_, {}))
    # As for match mode: a unary constructor, a bare register, bare ground
    # outputs, one register gathered twice, a ground leaf before an
    # output-only variable, and a symbol equal in value but not in type.
    @example((f(X_), Compound("s", (X_,)), f(U_), {}))
    @example((f(X_, Y_), Y_, f(U_, g(V_)), {}))
    @example((f(X_), g(a, b), f(U_), {}))
    @example((f(X_), b, f(U_), {}))
    @example((g(X_), f(X_, X_), g(U_), {}))
    @example((f(X_), g(P_, a, X_), f(U_), {}))
    @example((f(X_, Constant(1)), X_, f(U_, Constant(True)), {}))
    # Identity units: the output is the subject as read.
    @example((f(X_, X_), f(X_, X_), f(U_, g(V_)), {}))
    @example((f(X_, g(Y_)), f(X_, g(Y_)), f(U_, U_), {}))
    @example((X_, X_, U_, {U_: g(V_)}))
    def test_equals_rename_unify_apply(self, case):
        t_in, t_out, x, pre = case
        for code in _runners(t_in, t_out):
            _check_rename_unify_apply(code, t_in, t_out, x, pre)

    @given(units_subjects_stores())
    @settings(max_examples=300)
    # A nested load in write mode (U is unbound when g(h(X)) meets it)
    # followed by a first occurrence (Y meets U, bound by then): Y's
    # variable is one the call made, so it is not bound again.
    @example((f(g(Compound("h", (X_,))), Y_), g(X_, Y_), f(U_, U_), {}))
    @example((f(X_, g(Y_, Y_)), g(X_, Y_), f(U_, U_), {}))
    @example((f(X_, g(a, b)), g(X_, P_, P_), f(g(U_), V_), {}))
    def test_generated_equals_interpreted(self, case):
        # The two runners make the same variables, with the same names, in
        # the same order, and bind the same number of them.
        t_in, t_out, x, pre = case
        results = []
        for code in _runners(t_in, t_out):
            bind, trail = _store(pre)
            got = unify_unit(code, x, bind, trail)
            if got is None:
                assert (bind, trail) == _store(pre)
                results.append(None)
            else:
                pair = resolved(mk_tuple((x, box(got))), bind)
                results.append((_as_made(pair), len(trail)))
        assert results[0] == results[1]

    def test_occurs_check(self):
        Y = fresh_var("Y")
        for code in _runners(mk_tuple((X_, f(X_))), X_):
            bind, trail = {}, []
            assert unify_unit(code, mk_tuple((Y, Y)), bind, trail) is None
            assert bind == {} and trail == []

    def test_failure_restores_store(self):
        # The first argument binds U before the constant check fails; then
        # a load's write mode binds U (h(Y) meets it first) before a later
        # load fails (g(X) meets k(a)).
        for t_in, x in (
            (f(X_, a), f(U_, V_)),
            (f(g(X_), Compound("h", (Y_,))), f(Compound("k", (a,)), U_)),
        ):
            for code in _runners(t_in, X_):
                bind, trail = _store({V_: b})
                assert unify_unit(code, x, bind, trail) is None
                assert (bind, trail) == _store({V_: b})

    def test_binding_direction(self):
        # A subject variable at a first occurrence is bound to a fresh
        # variable of the unit's name; a repeat binds the subject side.
        Y, Z = fresh_var("Y"), fresh_var("Z")
        bind, trail = {}, []
        out = unify_unit(compile_unit(f(X_, X_), X_), f(Y, Z), bind, trail)
        v = resolved(out, bind)
        assert type(v) is Variable and v.name == "X" and v not in (Y, Z, X_)
        assert resolved(f(Y, Z), bind) == f(v, v)

    def test_output_only_variables_fresh_per_call(self):
        bind, trail = {}, []
        code = compile_unit(X_, f(X_, P_, P_))
        first = unify_unit(code, a, bind, trail)
        second = unify_unit(code, a, bind, trail)
        p1, p2 = first.args[1], second.args[1]
        assert p1.name == "P" and p1 is first.args[2] and p1 != p2 != P_


# ---------------------------------------------------------------------------
# Bare states in unify mode: a ⟨⟩ travels between unit steps as its argument
# tuple there too, and that tuple may hold variables.


@st.composite
def tuple_units_subjects_stores(draw):
    """tuple_units_and_subjects, with a binding store that may already bind
    subject variables, as units_subjects_stores draws it."""
    t_in, t_out, x = draw(tuple_units_and_subjects())
    U, V, W = _RIGHT_VARS
    pre = {}
    if draw(st.booleans()):
        pre[V] = draw(_terms((W,)))
    if draw(st.booleans()):
        pre[U] = draw(_terms((V, W)))
    return t_in, t_out, x, pre


def _non_tuple_root_registry():
    """A registry built by hand: r :- p, q, with p's unit ⟨A⟩ -> ⟨A,b⟩,
    which returns a bare tuple, and q's X -> g(X), whose input's root is
    no ⟨⟩, so it boxes that tuple on entry."""
    A, X = Variable("A"), Variable("X")
    return Registry(
        defn={"r": ("r_1",), "p": ("p_1",), "q": ("q_1",)},
        nonunit={"r_1": ("p", "q")},
        unit={"p_1": (mk_tuple((A,)), mk_tuple((A, b))), "q_1": (X, g(X))},
        isunit=frozenset({"p_1", "q_1"}),
    )


class TestBareUnifyStates:
    @given(tuple_units_subjects_stores())
    @settings(max_examples=300)
    # A subject variable in the bare tuple, bound in the store; a repeated
    # variable across the tuple; write mode below a bare root; a ground
    # ⟨⟩ input (checked, not loaded), and an identity.
    @example((mk_tuple((X_, f(Y_))), mk_tuple((Y_, X_)), mk_tuple((U_, V_)),
              {V_: f(W_)}))
    @example((mk_tuple((X_, X_)), mk_tuple((X_, P_)), mk_tuple((U_, g(a))), {}))
    @example((mk_tuple((f(g(X_)), Y_)), mk_tuple((Y_, X_)), mk_tuple((U_, a)),
              {}))
    @example((mk_tuple((a, b)), mk_tuple((P_,)), mk_tuple((U_, b)), {U_: a}))
    @example((mk_tuple((X_, Y_)), mk_tuple((X_, Y_)), mk_tuple((U_, g(V_))), {}))
    # A bare subject of another width.
    @example((mk_tuple((X_, Y_)), mk_tuple((Y_,)), mk_tuple((U_,)), {}))
    @example((mk_tuple((X_,)), mk_tuple((X_, a)), mk_tuple((U_, a)), {}))
    def test_bare_subject_agrees_with_the_reference(self, case):
        # Both runners, on the term and, for a ⟨⟩ that is not 0-ary, ground
        # or not, on its bare argument tuple.
        t_in, t_out, x, pre = case
        subjects = (x, x.args) if is_tuple(x) and x.args else (x,)
        for code in _runners(t_in, t_out):
            for subject in subjects:
                _check_rename_unify_apply(code, t_in, t_out, subject, pre)

    def test_corpus_attempts_on_the_states_the_search_meets(
        self, pipelines, monkeypatch
    ):
        # Every unit attempt of a unify-mode run of the corpus, on the
        # subject as the search handed it over and on box of it, each from
        # a copy of the store as it stood: the same outcome, the same
        # number of bindings, and, resolved and boxed, the same subject and
        # output up to renaming.
        counts = {"attempts": 0, "bare": 0}

        def recording(code, x, bind, trail):
            outs = []
            for subject in (x, box(x)):
                b, t = dict(bind), list(trail)
                out = unify_unit(code, subject, b, t)
                if out is not None:
                    out = canonical(resolved(mk_tuple((box(x), box(out))), b))
                outs.append((out, len(t)))
            assert outs[0] == outs[1]
            counts["attempts"] += 1
            counts["bare"] += type(x) is tuple
            return unify_unit(code, x, bind, trail)

        monkeypatch.setattr(engines, "unify", recording)
        for pipe in pipelines:
            if pipe.uni != "unify":
                continue
            for text in pipe.goals():
                plan = pipe.plan(text)
                engines.eval_abcde(
                    plan.initial, plan.continuations, pipe.registry, "unify"
                )
        # Guards against a vacuous check: most subjects come bare (118 of
        # 160).
        attempts, bare = counts["attempts"], counts["bare"]
        assert attempts > 150 and bare > attempts // 2, (attempts, bare)

    @pytest.mark.parametrize("cap", ["within the cap", "over the cap"])
    def test_non_tuple_root_boxes_a_bare_subject(self, cap, monkeypatch):
        # q's unit runs as its generated function, or, with the cap patched
        # to 0 where it is compiled, as unify_unit's register loop.  Either
        # way every answer is g of a ⟨⟩ term, never of a Python tuple, with
        # exact ground flags: ⟨c,b⟩ is ground, ⟨Y',b⟩ is not.
        compiled = {}

        def compiling(t_in, t_out):
            if cap == "over the cap" and not is_tuple(t_in):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(units, "_MAX_REGISTERS", 0)
                    code = compile_unit(t_in, t_out)
            else:
                code = compile_unit(t_in, t_out)
            compiled[is_tuple(t_in)] = code
            return code

        monkeypatch.setattr(engines, "compile_unit", compiling)
        registry = _non_tuple_root_registry()
        c, Y = Constant("c"), Variable("Y")
        for seed, ground in ((mk_tuple((c,)), True), (mk_tuple((Y,)), False)):
            (answer,) = engines.eval_abcde(seed, ["r"], registry, "unify")
            (state,) = answer.args
            assert answer.functor == "g" and type(state) is Compound
            assert is_tuple(state) and state.ground is ground
            _assert_well_built(answer)
            want = mk_tuple((c if ground else Variable("A"), b))
            assert alpha_equivalent(state, want)
        # p ran as its generated function and handed q a bare tuple.
        p_code, q_code = compiled[True], compiled[False]
        assert p_code[11] != units._OVER_CAP
        assert type(unify_unit(p_code, mk_tuple((c,)), {}, [])) is tuple
        assert (q_code[11] == units._OVER_CAP) == (cap == "over the cap")


# ---------------------------------------------------------------------------
# Rejected subjects: a unit whose t_in is a ⟨⟩ tests the subject's root
# arguments against what t_in fixes there before it binds anything.

_FUNCTORS = ("f", "g", "h")
_CONSTANTS = (a, b, Constant("c"), Constant(0), Constant(1), Constant("1"))
# Constants whose symbols are of two types, and spelled alike or equal in
# value: only the type test tells 1 from True.
_TWINS = (
    (Constant(1), Constant("1")),
    (Constant("1"), Constant(1)),
    (Constant(1), Constant(True)),
    (Constant(0), Constant(False)),
)
# The leaves of a clashing compound's arguments.
_LEAVES = st.sampled_from(_RIGHT_VARS + _CONSTANTS)
CLASH_KINDS = (
    "another functor",
    "another arity",
    "another constant",
    "another symbol type",
    "compound against a constant",
    "constant against a compound",
)


@st.composite
def clashing_tuple_units(draw):
    """A unit ⟨…⟩ -> ⟨…⟩ or an identity one, whose t_in is not ground and
    fixes a root argument, a compound that holds a variable or a constant,
    and the argument tuple of a subject that clashes with it there.  Each
    other argument of the subject is that of an instance of t_in or an
    unbound variable, and a store may bind its variables."""
    args = draw(st.lists(_terms(_LEFT_VARS), min_size=1, max_size=3))
    kind = draw(st.sampled_from(CLASH_KINDS))
    if kind in ("another functor", "another arity", "constant against a compound"):
        fn = draw(st.sampled_from(_FUNCTORS))
        rest = draw(st.lists(st.sampled_from(_LEFT_VARS + _CONSTANTS), max_size=2))
        fixed = Compound(fn, (draw(st.sampled_from(_LEFT_VARS)), *rest))
        clash_args = tuple(draw(st.lists(_LEAVES, max_size=4)))
        if kind == "another functor":
            clash = Compound(
                draw(st.sampled_from([x for x in _FUNCTORS if x != fn])),
                clash_args or (a,),
            )
        elif kind == "another arity":
            if len(clash_args) == len(fixed.args):
                clash_args += (b,)
            clash = Compound(fn, clash_args)
        else:
            clash = draw(st.sampled_from(_CONSTANTS))
    elif kind == "another symbol type":
        fixed, clash = draw(st.sampled_from(_TWINS))
    else:
        fixed = draw(st.sampled_from(_CONSTANTS))
        if kind == "another constant":
            others = [c for c in _CONSTANTS if c.symbol != fixed.symbol]
            clash = draw(st.sampled_from(others))
        else:
            clash = draw(_terms(_RIGHT_VARS).filter(lambda t: type(t) is Compound))
    i = draw(st.integers(0, len(args)))
    args.insert(i, fixed)
    if all(map(_variable_free, args)):
        args[i - 1] = draw(st.sampled_from(_LEFT_VARS))
    t_in = mk_tuple(args)
    t_out = t_in if not draw(st.integers(0, 4)) else draw(
        _tuples(_LEFT_VARS + _FREE_VARS)
    )
    bindings = draw(st.dictionaries(st.sampled_from(_LEFT_VARS), _terms(_RIGHT_VARS)))
    subject = [
        draw(st.one_of(st.just(x), st.sampled_from(_RIGHT_VARS)))
        for x in Subst(bindings).apply(t_in).args
    ]
    subject[i] = clash
    U, V, W = _RIGHT_VARS
    pre = {}
    if draw(st.booleans()):
        pre[V] = draw(_terms((W,)))
    if draw(st.booleans()):
        pre[U] = draw(_terms((V, W)))
    return t_in, t_out, tuple(subject), pre


class TestRejectedSubjects:
    @given(clashing_tuple_units())
    @settings(max_examples=200)
    # The base clause ⟨St,[],L,L⟩ -> ⟨St,L⟩ on a cons, and one case of each
    # clash kind.  In each, before the clashing argument's own load or
    # check in the program's order, a first occurrence meets an unbound
    # subject variable, or a load takes write mode on one.
    @example((mk_tuple((X_, NIL, Y_, Y_)), mk_tuple((X_, Y_)),
              (U_, mk_list([V_], W_), W_, V_), {}))
    @example((mk_tuple((f(X_), g(Y_))), mk_tuple((Y_,)), (h(V_), U_), {}))
    @example((mk_tuple((f(X_), g(Y_))), mk_tuple((X_, Y_)),
              (f(V_, W_), U_), {}))
    @example((mk_tuple((f(X_), g(Y_))), mk_tuple((X_, P_)), (a, U_), {}))
    @example((mk_tuple((X_, a)), mk_tuple((X_,)), (U_, b), {U_: V_}))
    @example((mk_tuple((X_, Constant(1))), mk_tuple((X_,)),
              (U_, Constant(True)), {}))
    @example((mk_tuple((X_, a)), mk_tuple((X_, a)), (U_, f(V_)), {}))
    def test_rejected_before_any_binding_or_variable(self, case):
        # Both runners, on the bare tuple and on its ⟨⟩: None, the store
        # and trail as they were, and no variable made, which the serials
        # of two probe variables show, as serials grow by one per variable.
        t_in, t_out, args, pre = case
        assert is_tuple(t_in) and not t_in.ground
        for code in _runners(t_in, t_out):
            for subject in (args, box(args)):
                bind, trail = _store(pre)
                before = Variable("probe").serial
                assert unify_unit(code, subject, bind, trail) is None
                assert Variable("probe").serial == before + 1
                assert (bind, trail) == _store(pre)


# ---------------------------------------------------------------------------
# Root arguments, one kind at a time: the root tests are the only test of a
# root argument that the subject fills with a compound or a constant, and
# only a variable there, bound or not, is read through the store.

# ⟨f(X,Y), a, g(Z), Q⟩ -> ⟨Y, g(X,Q), Z, P⟩.  Its program loads g(Z) before
# f(X,Y), and checks a after the first occurrences, so a clash at f(X,Y) or
# at a comes after a binding: g(Z)'s write mode, or Q's fresh variable.
_ROOT_UNIT = (
    mk_tuple((f(X_, Y_), a, g(_LEFT_VARS[2]), _FREE_VARS[1])),
    mk_tuple((Y_, g(X_, _FREE_VARS[1]), _LEFT_VARS[2], P_)),
)
ROOT_ARGUMENTS = {
    # kind -> (subject's arguments, store before the call, outcome)
    "a compound of the right functor": ((f(b, V_), a, g(b), U_), {}, True),
    "a variable bound to such a compound": (
        (V_, a, g(b), U_), {V_: f(b, W_)}, True,
    ),
    "an unbound variable at a load": ((V_, a, U_, W_), {}, True),
    "a constant at a constant check": ((f(a, b), a, g(V_), U_), {}, True),
    "a variable bound to that constant": ((f(a, b), V_, g(b), U_), {V_: a}, True),
    "an unbound variable at a constant check": ((f(a, b), V_, g(b), U_), {}, True),
    "a variable bound to a compound of another functor": (
        (V_, a, U_, b), {V_: h(b, b)}, False,
    ),
    "a variable bound to a compound of another arity": (
        (V_, a, U_, b), {V_: f(b)}, False,
    ),
    "a variable bound to a constant at a load": ((V_, a, U_, b), {V_: a}, False),
    "a variable bound to another constant": ((f(a, b), V_, g(b), U_), {V_: b}, False),
    "a variable bound to a constant of another symbol type": (
        (f(a, b), V_, g(b), U_), {V_: Constant(1)}, False,
    ),
    "a variable bound to a compound at a constant check": (
        (f(a, b), V_, g(b), U_), {V_: g(a)}, False,
    ),
}


def _made_view(t, before):
    # t as nested tuples, each variable the call made (serial past before)
    # as its name and its serial's offset, so two runs that make the same
    # variables in the same order under the same names read alike; and
    # each compound with its ground flag.
    tt = type(t)
    if tt is Variable:
        return ("var", t.name, _serial_view(t.serial, before))
    if tt is Constant:
        return ("const", t.symbol, type(t.symbol))
    return (t.functor, t.ground, *(_made_view(x, before) for x in t.args))


def _serial_view(serial, before):
    return ("made", serial - before) if serial > before else serial


class TestRootArguments:
    @pytest.mark.parametrize("kind", ROOT_ARGUMENTS)
    def test_each_kind_of_root_argument(self, kind, monkeypatch):
        # The generated function and the register loop, on the bare tuple and
        # on its ⟨⟩: the same outcome, the same bindings in the same trail
        # order, the same variables made, and equal boxed outputs, which
        # agree with the reference.  A clash undoes at least one binding and
        # leaves the store and trail as they were.
        undone, real = [], units.untrail

        def untrail(bind, trail, mark):
            undone.append(len(trail) - mark)
            return real(bind, trail, mark)

        monkeypatch.setitem(units._GENERATED_GLOBALS, "untrail", untrail)
        args, pre, ok = ROOT_ARGUMENTS[kind]
        want = _rename_unify_apply(*_ROOT_UNIT, Subst(pre).apply(box(args)))
        assert (want is not None) == ok
        for subject in (args, box(args)):
            runs = []
            for code in _runners(*_ROOT_UNIT):
                bind, trail = _store(pre)
                before = Variable("probe").serial
                with monkeypatch.context() as mp:
                    mp.setattr(units, "untrail", untrail)
                    out = unify_unit(code, subject, bind, trail)
                made = Variable("probe").serial - before - 1
                if out is None:
                    assert not ok and undone.pop() > 0 and not undone
                    assert (bind, trail) == _store(pre)
                    continue
                got = resolved(mk_tuple((box(args), box(out))), bind)
                assert canonical(got) == canonical(want)
                runs.append((
                    [(_serial_view(v, before), _made_view(bind[v], before))
                     for v in trail],
                    _made_view(box(out), before),
                    made,
                ))
            assert len(runs) == 2 * ok and runs[:1] == runs[1:]


class TestAlgebraicLaws:
    @given(_terms(_ANY_VARS), any_bindings)
    @settings(max_examples=300)
    def test_walks_agree_with_recursive_reference(self, t, bindings):
        # Substitution is one structural pass, idempotent bindings or not.
        assert Subst(bindings).apply(t) == _ref_apply(bindings, t)
        assert canonical(t) == _ref_canonical(t, {})
        r = rename_apart(t)
        assert alpha_equivalent(r, _ref_rename(t, {}))
        assert not set(term_vars(r)) & set(term_vars(t))
        unbound = {v: x for v, x in bindings.items() if v not in term_vars(t)}
        assert Subst(unbound).apply(t) is t
        # Equal terms built apart hash alike; repr is the plain recursive one.
        assert hash(canonical(t)) == hash(_ref_canonical(t, {}))
        assert repr(t) == _ref_repr(t)

    @given(shared_pairs)
    @settings(max_examples=300)
    def test_ground_flag_is_exact(self, pair):
        x, y = pair
        _assert_ground_flags(x)
        _assert_ground_flags(rename_apart(x))
        _assert_ground_flags(canonical(x))
        s = unify(x, y)
        if s is not None:
            _assert_ground_flags(s.apply(x))
            _assert_ground_flags(s.apply(y))
            for _, t in s.items():
                _assert_ground_flags(t)

    @given(shared_pairs)
    @settings(max_examples=300)
    def test_unifier_unifies_both_sides(self, pair):
        x, y = pair
        s = unify(x, y)
        if s is not None:
            assert s.apply(x) == s.apply(y)

    @given(shared_pairs)
    @settings(max_examples=300)
    def test_unify_symmetric(self, pair):
        x, y = pair
        s1 = unify(x, y)
        s2 = unify(y, x)
        assert (s1 is None) == (s2 is None)
        if s1 is not None:
            assert canonical(s1.apply(x)) == canonical(s2.apply(x))

    @given(shared_pairs)
    @settings(max_examples=300)
    def test_unify_idempotent_and_occurs_free(self, pair):
        x, y = pair
        s = unify(x, y)
        if s is not None:
            for v, t in s.items():
                assert s.apply(t) == t
                assert v not in set(term_vars(t))

    @given(disjoint_pairs)
    @settings(max_examples=300)
    def test_match_implies_unify(self, pair):
        p, s = pair
        m = match(p, s)
        if m is not None:
            u = unify(p, s)
            assert u is not None
            assert u.restrict(term_vars(p)).bindings == m.restrict(
                term_vars(p)
            ).bindings
            assert m.apply(p) == s

    @given(_terms(_LEFT_VARS))
    @settings(max_examples=200)
    def test_rename_alpha_equivalent(self, t):
        r = rename_apart(t)
        assert alpha_equivalent(t, r)
        assert canonical(t) == canonical(r)


def test_tuple_helpers():
    t = mk_tuple([a, b])
    assert t.functor == "tuple"
    assert len(t.args) == 2
    lst = mk_list([a, b])
    assert lst == cons(a, cons(b, NIL))


class TestDeepTerms:
    """Every kernel walk at the default recursion limit, on a non-ground
    term 10^5 levels deep."""

    N = 10**5

    @staticmethod
    def numeral(n, base):
        t = base
        for _ in range(n):
            t = Compound("s", (t,))
        return t

    @staticmethod
    def depth(t):
        k = 0
        while type(t) is Compound:
            t = t.args[0]
            k += 1
        return k, t

    def test_unify(self, default_recursion_limit):
        X, Y, Z = fresh_var("X"), fresh_var("Y"), fresh_var("Z")
        deep_x = self.numeral(self.N, X)
        deep_z = self.numeral(self.N, Z)
        # Y is bound to deep_x first, so resolving Y rebuilds deep_x under
        # the binding of X found below it.
        s = unify(mk_tuple((deep_x, Y)), mk_tuple((deep_z, deep_x)))
        assert s is not None
        n, v = self.depth(s.get(Y))
        assert n == self.N and v in (X, Z) and v not in s
        assert s.apply(deep_x) == s.apply(deep_z) == s.get(Y)
        assert unify(X, deep_x) is None

    def test_apply(self, default_recursion_limit):
        X = fresh_var("X")
        deep_x = self.numeral(self.N, X)
        assert self.depth(Subst({X: b}).apply(deep_x)) == (self.N, b)
        assert Subst({fresh_var("Z"): b}).apply(deep_x) is deep_x

    def test_rename_apart(self, default_recursion_limit):
        X = fresh_var("X")
        n, v = self.depth(rename_apart(self.numeral(self.N, X)))
        assert n == self.N
        assert type(v) is Variable and v != X

    def test_canonical(self, default_recursion_limit):
        deep_x = self.numeral(self.N, fresh_var("X"))
        deep_y = self.numeral(self.N, fresh_var("Y"))
        assert canonical(deep_x) == canonical(deep_y)

    def test_compiled_unit(self, default_recursion_limit):
        X, Y = fresh_var("X"), fresh_var("Y")
        t_in = mk_tuple((self.numeral(self.N, X), Y, Y))
        t_out = self.numeral(self.N, mk_tuple((Y, X)))
        code = compile_unit(t_in, t_out)
        # The repeated Y is compared with two equal, distinct deep terms.
        deep_a = self.numeral(self.N, a)
        x = mk_tuple((self.numeral(self.N, f(b)), deep_a, self.numeral(self.N, a)))
        got = run_unit(code, x)
        assert got == match(t_in, x).apply(t_out)
        n, inner = self.depth(got)
        assert n == self.N + 1 + self.N and inner == a
        other = mk_tuple((deep_a, deep_a, self.numeral(self.N, b)))
        assert match(t_in, other) is None
        assert run_unit(code, other) is None

    def test_store_runner(self, default_recursion_limit):
        X, Y = fresh_var("X"), fresh_var("Y")
        t_in = mk_tuple((self.numeral(self.N, X), Y, Y))
        t_out = mk_tuple((Y, X))
        code = compile_unit(t_in, t_out)
        A, B, C = fresh_var("A"), fresh_var("B"), fresh_var("C")
        # Read mode down the first argument; the repeated Y unifies two deep
        # open terms; a bare subject variable takes write mode all the way.
        x = mk_tuple((self.numeral(self.N, f(A)), self.numeral(self.N, A),
                      self.numeral(self.N, B)))
        bind, trail = {}, []
        y, x_value = resolved(unify_unit(code, x, bind, trail), bind).args
        n, v = self.depth(y)
        assert n == self.N and v in (A, B)
        assert resolved(A, bind) == resolved(B, bind) == v
        assert x_value == f(v)
        bind, trail = {}, []
        assert unify_unit(code, mk_tuple((C, a, B)), bind, trail) is not None
        n, inner = self.depth(resolved(C, bind))
        assert n == self.N and type(inner) is Variable and inner.name == "X"
        # The repeated Y fails the occurs check at the bottom, A against f(A).
        bind, trail = {}, []
        other = mk_tuple((C, self.numeral(self.N, A), self.numeral(self.N, f(A))))
        assert unify_unit(code, other, bind, trail) is None
        assert bind == {} and trail == []

    def test_hash_and_repr(self, default_recursion_limit):
        X = fresh_var("X")
        deep, twin = self.numeral(self.N, X), self.numeral(self.N, X)
        assert hash(deep) == hash(twin)
        assert repr(deep) == "s(" * self.N + repr(X) + ")" * self.N

    def test_equality(self, default_recursion_limit):
        X = fresh_var("X")
        assert self.numeral(self.N, X) == self.numeral(self.N, X)
        assert self.numeral(self.N, X) != self.numeral(self.N, fresh_var("Y"))


# ---------------------------------------------------------------------------
# _struct_eq, the one structural equality, against a plain recursive
# reference.


def _ref_struct_eq(x, y):
    if type(x) is not type(y):
        return False
    if type(x) is Variable:
        return x.serial == y.serial
    if type(x) is Constant:
        return type(x.symbol) is type(y.symbol) and x.symbol == y.symbol
    return (
        x.functor == y.functor
        and len(x.args) == len(y.args)
        and all(map(_ref_struct_eq, x.args, y.args))
    )


# Leaves that are equal, or nearly so, to one another: 1 and "1", two
# variables named X with different serials, and a 0-ary compound.
_EQ_LEAVES = (
    Constant(1),
    Constant("1"),
    a,
    NIL,
    Variable("X", -401),
    Variable("X", -402),
    Compound("f", ()),
)


def _eq_terms():
    def extend(children):
        return st.one_of(
            # Closed and open lists.
            st.builds(mk_list, st.lists(children, max_size=3)),
            st.builds(mk_list, st.lists(children, max_size=3), children),
            # f/1 and f/3, so arities part as well as functors.
            st.builds(lambda x: Compound("f", (x,)), children),
            st.builds(lambda *xs: Compound("f", xs), children, children, children),
            st.builds(lambda *xs: Compound("g", xs), children, children, children),
        )

    return st.recursive(st.sampled_from(_EQ_LEAVES), extend, max_leaves=12)


def _copy(t, edit, leaf, share):
    """t rebuilt from new compounds, with its leaf number edit (in reading
    order) replaced by leaf; with share, a proper subterm holding no edit is
    t's own object."""
    count = [0]

    def walk(t, root=False):
        start = count[0]
        if type(t) is not Compound or not t.args:
            count[0] += 1
            return leaf if start == edit else t
        args = tuple(walk(x) for x in t.args)
        if share and not root and not start <= edit < count[0]:
            return t
        return Compound(t.functor, args)

    return walk(t, root=True)


@st.composite
def eq_pairs(draw):
    x = draw(_eq_terms())
    how = draw(st.sampled_from(["same", "copy", "edit", "other"]))
    if how == "same":
        return x, x
    if how == "other":
        return x, draw(_eq_terms())
    edit = draw(st.integers(0, 15)) if how == "edit" else -1
    return x, _copy(x, edit, draw(st.sampled_from(_EQ_LEAVES)), draw(st.booleans()))


class TestStructEq:
    @settings(max_examples=300)
    @given(eq_pairs())
    def test_equals_reference(self, pair):
        x, y = pair
        want = _ref_struct_eq(x, y)
        assert _struct_eq(x, y) == want
        assert _struct_eq(y, x) == want
        if type(x) is Compound:
            assert (x == y) == want

    N = 10**5

    def test_long_lists(self, default_recursion_limit):
        items = [Constant(i) for i in range(self.N)]
        twin = [Constant(i) for i in range(self.N)]
        X, Y = fresh_var("X"), fresh_var("Y")
        # Equal, with every item shared or every item a distinct object.
        assert _struct_eq(mk_list(items), mk_list(items))
        assert _struct_eq(mk_list(items), mk_list(twin))
        # Only the last item differs.
        assert not _struct_eq(mk_list(items), mk_list(twin[:-1] + [Constant("x")]))
        assert not _struct_eq(mk_list(items), mk_list(items[:-1] + [X]))
        # Only the tail differs.
        assert not _struct_eq(mk_list(items, X), mk_list(items, Y))
        assert not _struct_eq(mk_list(items), mk_list(twin, Constant("[]")))
        assert _struct_eq(mk_list(items, X), mk_list(twin, X))
