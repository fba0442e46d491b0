"""Term algebra: terms, substitutions, unification, matching, renaming.

This is the one term kernel; every other module imports it.  The reserved
functors are ``tuple`` (argument grouping, rendered with angle brackets) and
``cons``/``nil`` (lists).

Terms are immutable.  Every compound term records at construction whether it
is ground, and each walk below (occurs check, resolution, substitution,
renaming, variable collection) stops at a ground compound instead of
descending into it.  Compound computes the flag from its arguments' flags.
The other places compounds are made, mk_list here, the unit runners of the
units module, the parser and a goal plan's seed, build them in place
(object.__new__, then the three slots) and hold the invariant themselves.
The parser's compound is ground iff no variable was read inside it, and its
functor is interned.  mk_list carries the flag outward from the list's
tail, since a cell is ground iff its item and the cells inside it are; its
functor is the interned "cons".  The match-mode runner
sets the flag when its registers hold only subterms of a ground subject and
the clause's own ground subterms, and otherwise computes it from the
arguments as Compound does; the runners' functors come from the clause's
compounds, so they are interned already.  Every args is a tuple.

match is the reference one-way matcher: it reads the pattern generically and
returns a Subst, which apply then substitutes into an output term.  unify,
rename_many and apply are the reference for unification at a unit clause.
The engines run unit clauses compiled by the units module instead, and the
tests hold those to the references here.  A unit too large for the units
module to generate a match function runs match and apply themselves.  Goal
plans decode most ground answers by reading them at fixed positions, and
match or unify the rest.

Every walk runs over an explicit stack, so terms of any depth are handled at
the interpreter's default recursion limit; Compound.__hash__ and
Compound.__repr__ included.  _struct_eq, the one structural equality (of
Compound.__eq__, the ground and repeated-variable checks of generated code,
match, and units._unify_bound), walks each compound's last argument in
place, so a list spine pushes nothing onto its stack.
"""

from __future__ import annotations

import itertools
from operator import is_
from sys import intern

_new_object = object.__new__

# Name of the term kernel, kept so benchmark results record which one ran.
BACKEND = "python"

# Fresh-serial issuance is the only mutable global.  itertools.count.__next__
# is atomic under the GIL, so concurrent readers of shared terms are safe.
# The units module's generated unify functions, which make their fresh
# variables in place, draw their serials from it too.
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
    term.  It is computed once, here, from the arguments' own flags (or by
    mk_list and the unit runners, which build compounds in place: see the
    module docstring); since terms are never mutated it cannot go stale.
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
        return type(other) is Compound and _struct_eq(self, other)

    def __hash__(self):
        # Bottom up over an explicit stack: a compound hashes its functor
        # with its arguments' hashes, so structurally equal terms hash alike.
        frames = []
        t = self
        hashes = []
        i = 0
        while True:
            args = t.args
            while i < len(args):
                a = args[i]
                i += 1
                if type(a) is Compound:
                    frames.append((t, hashes, i))
                    t = a
                    args = a.args
                    hashes = []
                    i = 0
                else:
                    hashes.append(hash(a))
            h = hash((t.functor, *hashes))
            if not frames:
                return h
            t, hashes, i = frames.pop()
            hashes.append(h)

    def __repr__(self):
        # Left to right over an explicit stack of terms and literal text.
        out = []
        stack = [self]
        while stack:
            t = stack.pop()
            if type(t) is str:
                out.append(t)
            elif type(t) is not Compound:
                out.append(repr(t))
            elif not t.args:
                out.append(t.functor)
            else:
                stack.append(")")
                for a in reversed(t.args[1:]):
                    stack += (a, ", ")
                stack += (t.args[0], t.functor + "(")
        return "".join(out)


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
        return _rebuild(t, b.get)

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


def _rebuild(t, leaf, memo=None):
    """t with every variable v replaced by leaf(v), or kept where leaf(v) is
    None.

    One walk, over an explicit stack of the compounds being rebuilt, serves
    substitution, resolution, renaming and canonical numbering.  It goes
    left to right, so leaf sees the variables in first-occurrence order.
    Ground compounds are not entered, and a compound in which nothing
    changed is returned as the same object, so repeated applications stay
    allocation-free.

    With a memo (a dict), a leaf's result is itself rebuilt and every rebuilt
    compound is remembered by identity: unify resolves its triangular
    bindings this way, and units.resolved a term under a binding store,
    where one bound subterm can be reached many times.
    """
    if type(t) is Variable:
        r = leaf(t)
        if r is None:
            return t
        if memo is None:
            return r
        t = r
    if type(t) is not Compound or t.ground:
        return t
    if memo is not None:
        hit = memo.get(id(t))
        if hit is not None:
            return hit
    # The compound being rebuilt, its arguments, the results for those
    # before position i, and the same for every compound enclosing it.
    frames = []
    args = t.args
    n = len(args)
    out = []
    i = 0
    while True:
        while i < n:
            a = args[i]
            i += 1
            ta = type(a)
            if ta is Variable:
                r = leaf(a)
                if r is None:
                    out.append(a)
                    continue
                if memo is None or type(r) is not Compound or r.ground:
                    out.append(r)
                    continue
                a = r
            elif ta is not Compound or a.ground:
                out.append(a)
                continue
            if memo is not None:
                hit = memo.get(id(a))
                if hit is not None:
                    out.append(hit)
                    continue
            frames.append((t, out, i))
            t = a
            args = a.args
            n = len(args)
            out = []
            i = 0
        new = tuple(out)
        r = t if all(map(is_, new, args)) else Compound(t.functor, new)
        if memo is not None:
            memo[id(t)] = r
        if not frames:
            return r
        t, out, i = frames.pop()
        out.append(r)
        args = t.args
        n = len(args)


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
            if x.ground and y.ground:
                if not _struct_eq(x, y):
                    return None
            else:
                stack.extend(zip(x.args, y.args))
        else:
            return None
    if not bind:
        return EMPTY_SUBST
    # Fully resolve every binding through the triangular ones (this ends
    # because the occurs check keeps the binding relation acyclic).
    def leaf(v):
        r = _walk(v, bind)
        return None if r is v else r

    memo = {}
    return Subst({v: _rebuild(t, leaf, memo) for v, t in bind.items()})


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
        elif p.ground:  # binds nothing; _struct_eq skips shared subterms
            if not _struct_eq(p, s):
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


def _struct_eq(x, y):
    # See the module docstring; a pair is pushed only when not one object.
    stack = []
    while True:
        if x is not y:
            tx = type(x)
            if tx is not type(y):
                return False
            if tx is Compound:
                xs, ys = x.args, y.args
                n = len(xs) - 1
                if x.functor != y.functor or n != len(ys) - 1:
                    return False
                if n >= 0:
                    i = 0
                    while i < n:
                        if xs[i] is not ys[i]:
                            stack.append((xs[i], ys[i]))
                        i += 1
                    x, y = xs[n], ys[n]
                    continue
            elif tx is Variable:
                if x.serial != y.serial:
                    return False
            elif type(x.symbol) is not type(y.symbol) or x.symbol != y.symbol:
                return False
        if not stack:
            return True
        x, y = stack.pop()


def rename_many(terms):
    """Alpha-rename a sequence of terms with one shared mapping of fresh
    variables, preserving sharing across the sequence.

    Fresh serials are globally unique, so the result is disjoint from every
    variable issued before the call.  Ground subterms are returned as they
    are, not copied.
    """
    mapping = {}

    def leaf(v):
        r = mapping.get(v)
        if r is None:
            r = mapping[v] = Variable(v.name)
        return r

    return tuple(_rebuild(t, leaf) for t in terms)


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
    """Build a cons list from the sequence items, onto tail, each cell in
    place (see the module docstring)."""
    out = tail
    ground = type(tail) is not Variable and (type(tail) is not Compound or tail.ground)
    for item in reversed(items):
        if ground:
            ti = type(item)
            ground = ti is not Variable and (ti is not Compound or item.ground)
        cell = _new_object(Compound)
        cell.functor = CONS_FUNCTOR
        cell.args = (item, out)
        cell.ground = ground
        out = cell
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


def canonical(t):
    """Rename variables to a canonical first-occurrence numbering, so that
    alpha-equivalent terms become structurally equal (and hashable alike)."""
    numbering = {}

    def leaf(v):
        k = numbering.setdefault(v.serial, len(numbering))
        return Variable("V", -(k + 1))

    return _rebuild(t, leaf)
