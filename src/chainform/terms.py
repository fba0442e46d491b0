"""Term algebra: terms, substitutions, unification, matching, renaming.

This is the one term kernel; every other module imports it.  The reserved
functors are ``tuple`` (argument grouping, rendered with angle brackets) and
``cons``/``nil`` (lists).

Terms are immutable.  Every compound term records at construction whether it
is ground, and each walk below (occurs check, resolution, substitution,
renaming, variable collection) stops at a ground compound instead of
descending into it.  In unify mode the accumulated tuple is mostly ground
list structure, so a unit step walks about as much as the unit clause, not
the whole tuple.
"""

from __future__ import annotations

import itertools
from sys import intern

# Name of the term kernel, kept so benchmark results record which one ran.
BACKEND = "python"

# Fresh-serial issuance is the only mutable global.  itertools.count.__next__
# is atomic under the GIL, so concurrent readers of shared terms are safe.
_serials = itertools.count(1)


class Variable:
    """A logic variable.  Identity is the serial; the name is decoration."""

    __slots__ = ("name", "serial")

    def __init__(self, name, serial=None):
        self.name = intern(name)
        self.serial = next(_serials) if serial is None else serial

    def __eq__(self, other):
        return type(other) is Variable and other.serial == self.serial

    def __hash__(self):
        return hash(self.serial)

    def __repr__(self):
        return "%s#%d" % (self.name, self.serial)


class Constant:
    """An atomic constant: an identifier string or an integer."""

    __slots__ = ("symbol",)

    def __init__(self, symbol):
        self.symbol = intern(symbol) if type(symbol) is str else symbol

    def __eq__(self, other):
        return (
            type(other) is Constant
            and type(other.symbol) is type(self.symbol)
            and other.symbol == self.symbol
        )

    def __hash__(self):
        return hash((Constant, self.symbol))

    def __repr__(self):
        return str(self.symbol)


class Compound:
    """A functor applied to a non-empty (or empty, for 0-ary atoms) tuple of
    argument terms.

    Invariant: ``ground`` is True iff no Variable occurs anywhere inside the
    term.  It is computed once, here, from the arguments' own flags; since
    terms are never mutated it cannot go stale.
    """

    __slots__ = ("functor", "args", "ground")

    def __init__(self, functor, args):
        self.functor = intern(functor)
        self.args = args = tuple(args)
        ground = True
        for a in args:
            ta = type(a)
            if ta is Variable or (ta is Compound and not a.ground):
                ground = False
                break
        self.ground = ground

    def __eq__(self, other):
        return (
            type(other) is Compound
            and other.functor == self.functor
            and other.args == self.args
        )

    def __hash__(self):
        return hash((self.functor, self.args))

    def __repr__(self):
        if not self.args:
            return self.functor
        return "%s(%s)" % (self.functor, ", ".join(map(repr, self.args)))


def fresh_var(name="_G"):
    """A variable guaranteed distinct from every variable issued so far."""
    return Variable(name)


def is_ground(t):
    """True iff t contains no variable."""
    ty = type(t)
    return ty is not Variable and (ty is not Compound or t.ground)


def term_vars(t):
    """Variables of t, first occurrence first, without duplicates."""
    out = []
    seen = set()
    stack = [t]
    while stack:
        s = stack.pop()
        if type(s) is Variable:
            if s.serial not in seen:
                seen.add(s.serial)
                out.append(s)
        elif type(s) is Compound and not s.ground:
            stack.extend(reversed(s.args))
    return tuple(out)


class Subst:
    """An idempotent substitution: a finite map from variables to terms in
    which no bound variable occurs in any binding's value."""

    __slots__ = ("bindings",)

    def __init__(self, bindings=None):
        self.bindings = dict(bindings) if bindings else {}

    def apply(self, t):
        """Structural replacement of bound variables throughout t."""
        b = self.bindings
        if not b:
            return t
        return _apply(b, t)

    def get(self, v, default=None):
        return self.bindings.get(v, default)

    def items(self):
        return self.bindings.items()

    def restrict(self, variables):
        keep = set(variables)
        return Subst({v: t for v, t in self.bindings.items() if v in keep})

    def __len__(self):
        return len(self.bindings)

    def __contains__(self, v):
        return v in self.bindings

    def __eq__(self, other):
        return isinstance(other, Subst) and other.bindings == self.bindings

    def __repr__(self):
        inner = ", ".join(
            "%r -> %r" % (v, t) for v, t in self.bindings.items()
        )
        return "{%s}" % inner


EMPTY_SUBST = Subst()


def _apply(bindings, t):
    ty = type(t)
    if ty is Variable:
        return bindings.get(t, t)
    if ty is Compound and not t.ground:
        args = t.args
        new = tuple(_apply(bindings, a) for a in args)
        # Preserve object identity when nothing changed, so that repeated
        # applications stay allocation-free.
        if all(n is o for n, o in zip(new, args)):
            return t
        return Compound(t.functor, new)
    return t


def apply_subst(s, t):
    """Module-level alias for Subst.apply."""
    return s.apply(t)


def _walk(t, bind):
    # Follow the triangular binding chain until a non-bound term is reached.
    while type(t) is Variable:
        nxt = bind.get(t)
        if nxt is None:
            return t
        t = nxt
    return t


def _occurs(v, t, bind):
    stack = [t]
    while stack:
        s = _walk(stack.pop(), bind)
        if type(s) is Variable:
            if s.serial == v.serial:
                return True
        elif type(s) is Compound and not s.ground:
            stack.extend(s.args)
    return False


def _resolve(t, bind, memo):
    # Fully resolve t through the triangular bindings (terminates because the
    # occurs check keeps the binding relation acyclic).
    t = _walk(t, bind)
    if type(t) is Compound and not t.ground:
        key = id(t)
        hit = memo.get(key)
        if hit is not None:
            return hit
        args = tuple(_resolve(a, bind, memo) for a in t.args)
        out = t if all(n is o for n, o in zip(args, t.args)) else Compound(t.functor, args)
        memo[key] = out
        return out
    return t


def unify(a, b):
    """Most general unifier of a and b, with occurs check.

    Returns an idempotent Subst, or None when the terms do not unify.
    """
    bind = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = _walk(x, bind)
        y = _walk(y, bind)
        tx = type(x)
        ty = type(y)
        if tx is Variable:
            if ty is Variable and y.serial == x.serial:
                continue
            if _occurs(x, y, bind):
                return None
            bind[x] = y
        elif ty is Variable:
            if _occurs(y, x, bind):
                return None
            bind[y] = x
        elif tx is Constant and ty is Constant:
            if type(x.symbol) is not type(y.symbol) or x.symbol != y.symbol:
                return None
        elif tx is Compound and ty is Compound:
            if x.functor != y.functor or len(x.args) != len(y.args):
                return None
            stack.extend(zip(x.args, y.args))
        else:
            return None
    if not bind:
        return EMPTY_SUBST
    memo = {}
    return Subst({v: _resolve(t, bind, memo) for v, t in bind.items()})


def match(pattern, subject):
    """One-way unification: a substitution s over vars(pattern) only, such
    that pattern under s equals subject.  None when impossible."""
    bind = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        tp = type(p)
        if tp is Variable:
            prev = bind.get(p)
            if prev is None:
                bind[p] = s
            elif not _struct_eq(prev, s):
                return None
        elif tp is Constant:
            if (
                type(s) is not Constant
                or type(s.symbol) is not type(p.symbol)
                or s.symbol != p.symbol
            ):
                return None
        else:
            if (
                type(s) is not Compound
                or s.functor != p.functor
                or len(s.args) != len(p.args)
            ):
                return None
            stack.extend(zip(p.args, s.args))
    return Subst(bind) if bind else EMPTY_SUBST


def _struct_eq(a, b):
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        tx = type(x)
        if tx is not type(y):
            return False
        if tx is Variable:
            if x.serial != y.serial:
                return False
        elif tx is Constant:
            if type(x.symbol) is not type(y.symbol) or x.symbol != y.symbol:
                return False
        else:
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
    return True


def rename_many(terms):
    """Alpha-rename a sequence of terms with one shared mapping of fresh
    variables, preserving sharing across the sequence.

    Fresh serials are globally unique, so the result is disjoint from every
    variable issued before the call.  Ground subterms are returned as they
    are, not copied.
    """
    mapping = {}

    def walk(t):
        ty = type(t)
        if ty is Variable:
            r = mapping.get(t)
            if r is None:
                r = Variable(t.name)
                mapping[t] = r
            return r
        if ty is Compound and not t.ground:
            return Compound(t.functor, tuple(walk(a) for a in t.args))
        return t

    return tuple(walk(t) for t in terms)


def rename_apart(t):
    """Alpha-variant of t over fresh variables."""
    return rename_many((t,))[0]


TUPLE_FUNCTOR = "tuple"
CONS_FUNCTOR = "cons"
NIL = Constant("nil")


def mk_tuple(args) -> Compound:
    """Group terms into an argument tuple (never nested in tuple position)."""
    return Compound(TUPLE_FUNCTOR, tuple(args))


def is_tuple(t) -> bool:
    return type(t) is Compound and t.functor == TUPLE_FUNCTOR


def cons(head, tail) -> Compound:
    return Compound(CONS_FUNCTOR, (head, tail))


def is_cons(t) -> bool:
    return type(t) is Compound and t.functor == CONS_FUNCTOR and len(t.args) == 2


def is_nil(t) -> bool:
    return type(t) is Constant and t.symbol == "nil"


def mk_list(items, tail=NIL):
    """Build a cons list from items, onto tail."""
    out = tail
    for item in reversed(tuple(items)):
        out = cons(item, out)
    return out


def list_parts(t):
    """Split a cons chain into (prefix items, tail term).

    A proper list ends with tail nil; an open list ends with its tail
    variable or any other non-cons term.
    """
    items = []
    while is_cons(t):
        items.append(t.args[0])
        t = t.args[1]
    return tuple(items), t


def alpha_equivalent(a, b) -> bool:
    """Structural equality up to a bijective renaming of variables."""
    fwd = {}
    bwd = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        tx = type(x)
        if tx is not type(y):
            return False
        if tx is Variable:
            if fwd.setdefault(x.serial, y.serial) != y.serial:
                return False
            if bwd.setdefault(y.serial, x.serial) != x.serial:
                return False
        elif tx is Constant:
            if type(x.symbol) is not type(y.symbol) or x.symbol != y.symbol:
                return False
        else:
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
    return True


def canonical(t):
    """Rename variables to a canonical first-occurrence numbering, so that
    alpha-equivalent terms become structurally equal (and hashable alike)."""
    numbering = {}

    def walk(s):
        ty = type(s)
        if ty is Variable:
            k = numbering.get(s.serial)
            if k is None:
                k = len(numbering)
                numbering[s.serial] = k
            return Variable("V", -(k + 1))
        if ty is Compound and not s.ground:
            return Compound(s.functor, tuple(walk(a) for a in s.args))
        return s

    return walk(t)
