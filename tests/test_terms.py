"""Tests for the term kernel: unification, matching, renaming, substitution."""

from hypothesis import example, given, settings, strategies as st

from chainform.terms import (
    Compound,
    Constant,
    Subst,
    Variable,
    alpha_equivalent,
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
from chainform.units import compile_unit, resolved, run_unit, unify_unit


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
    absent from t_in.  The subject is an instance of t_in or any term."""
    t_in = draw(_terms(_LEFT_VARS))
    t_out = draw(_terms(_LEFT_VARS + _FREE_VARS))
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


class TestCompiledUnit:
    @given(units_and_subjects())
    @settings(max_examples=300)
    @example((Constant(1), a, Constant("1")))
    @example((Constant("1"), a, Constant("1")))
    @example((f(X_), X_, f(a, b)))
    @example((f(X_, X_), X_, f(a, b)))
    @example((f(X_, X_), g(X_, P_), f(g(a), g(a))))
    @example((f(g(a, b), X_), X_, f(g(a, b), b)))
    @example((f(g(a, b), X_), X_, f(g(a, Constant("c")), b)))
    @example((X_, f(X_, P_, Y_), f(a)))
    def test_compiled_equals_match_then_apply(self, case):
        t_in, t_out, x = case
        want = _match_then_apply(t_in, t_out, x)
        got = run_unit(compile_unit(t_in, t_out), x)
        assert got == want
        if got is not None:
            _assert_ground_flags(got)

    def test_forms_are_flat(self):
        for unify, parts in ((False, 5), (True, 8)):
            code = compile_unit(f(X_, g(a, b), X_), g(X_, P_), unify)
            assert len(code) == parts
            assert all(type(part) is tuple for part in code)
            assert not any(type(item) is tuple for part in code for item in part)


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


class TestStoreRunner:
    @given(units_subjects_stores())
    @settings(max_examples=300)
    @example((f(X_, X_), g(X_, P_), f(U_, V_), {}))
    @example((f(X_, g(X_)), X_, f(U_, U_), {}))
    @example((f(X_, g(a, b)), g(X_, P_, P_), f(g(U_), V_), {}))
    @example((f(X_, Y_, X_), g(Y_), f(U_, V_, V_), {V_: g(W_)}))
    @example((f(g(X_), X_), X_, f(U_, U_), {U_: g(V_)}))
    @example((X_, f(X_, P_, Y_), U_, {}))
    def test_equals_rename_unify_apply(self, case):
        t_in, t_out, x, pre = case
        bind, trail = _store(pre)
        before = (dict(bind), list(trail))
        s_pre = Subst(pre)
        # U's value may hold V: two passes resolve the store's chains.
        want = _rename_unify_apply(t_in, t_out, s_pre.apply(s_pre.apply(x)))
        got = unify_unit(compile_unit(t_in, t_out, unify=True), x, bind, trail)
        if got is None:
            assert want is None
            assert (bind, trail) == before
            return
        assert want is not None
        pair = resolved(mk_tuple((x, got)), bind)
        assert canonical(pair) == canonical(want)
        _assert_ground_flags(pair)
        assert trail[: len(before[1])] == before[1]
        assert set(bind) == set(trail)

    def test_occurs_check(self):
        Y = fresh_var("Y")
        bind, trail = {}, []
        code = compile_unit(mk_tuple((X_, f(X_))), X_, unify=True)
        assert unify_unit(code, mk_tuple((Y, Y)), bind, trail) is None
        assert bind == {} and trail == []

    def test_failure_restores_store(self):
        # The first argument binds U before the constant check fails.
        bind, trail = _store({V_: b})
        code = compile_unit(f(X_, a), X_, unify=True)
        assert unify_unit(code, f(U_, V_), bind, trail) is None
        assert (bind, trail) == _store({V_: b})

    def test_binding_direction(self):
        # A subject variable at a first occurrence is bound to a fresh
        # variable of the unit's name; a repeat binds the subject side.
        Y, Z = fresh_var("Y"), fresh_var("Z")
        bind, trail = {}, []
        out = unify_unit(compile_unit(f(X_, X_), X_, unify=True), f(Y, Z), bind, trail)
        v = resolved(out, bind)
        assert type(v) is Variable and v.name == "X" and v not in (Y, Z, X_)
        assert resolved(f(Y, Z), bind) == f(v, v)

    def test_output_only_variables_fresh_per_call(self):
        bind, trail = {}, []
        code = compile_unit(X_, f(X_, P_, P_), unify=True)
        first = unify_unit(code, a, bind, trail)
        second = unify_unit(code, a, bind, trail)
        p1, p2 = first.args[1], second.args[1]
        assert p1.name == "P" and p1 is first.args[2] and p1 != p2 != P_


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
        code = compile_unit(t_in, t_out, unify=True)
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
