"""Tests for the term kernel: unification, matching, renaming, substitution."""

from hypothesis import given, settings, strategies as st

from chainform.terms import (
    Compound,
    Constant,
    Variable,
    alpha_equivalent,
    apply_subst,
    canonical,
    cons,
    fresh_var,
    is_ground,
    match,
    mk_list,
    mk_tuple,
    rename_apart,
    rename_many,
    term_vars,
    unify,
    NIL,
)


def f(*args):
    return Compound("f", args)


def g(*args):
    return Compound("g", args)


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
    consts = st.sampled_from([a, b, Constant("c"), Constant(0), Constant(1)])
    variables = st.sampled_from(var_pool)
    base = st.one_of(consts, variables)

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


class TestAlgebraicLaws:
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


def test_apply_subst_alias():
    X = fresh_var("X")
    s = unify(X, a)
    assert apply_subst(s, f(X)) == f(a)


def test_tuple_helpers():
    t = mk_tuple([a, b])
    assert t.functor == "tuple"
    assert len(t.args) == 2
    lst = mk_list([a, b])
    assert lst == cons(a, cons(b, NIL))
