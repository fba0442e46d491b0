"""Compiled unit clauses: the kernel the engines run.

Chain form confines unification to unit clauses t_in -> t_out, so resolving
them is the engines' whole kernel workload.  compile_unit turns a unit
clause, once, into a flat program of functor, constant and equality checks
at positions of the subject and a postfix build of the output, each section
a tuple of fixed-width records that the runners unpack in place; this
module is the one that knows that format.

In match mode run_unit executes the program without a substitution; it
equals terms.match followed by Subst.apply on every unit and term.  Its
registers only ever hold subterms of the subject, so when the subject is
ground and t_out has no variable absent from t_in, every compound it builds
is ground: it makes them with terms._ground_compound, which sets the ground
flag without scanning the arguments.  That is the usual case, match mode on
a G-chain program with a ground seed.

In unify mode unify_unit executes the same program against a binding store
(variable serial -> term) with a trail, in the manner of the WAM: it reads
the subject through the store, binds unbound variables where the pattern
has structure, unifies repeated variables with occurs check, and builds the
output without resolving it.  The store's bindings are undone to a trail
mark on failure and on backtracking (untrail), and resolved turns a term
read under the store into a plain one.  Up to renaming it equals
terms.rename_many, terms.unify and Subst.apply.

Every walk runs over an explicit stack, so terms of any depth are handled at
the interpreter's default recursion limit.
"""

from __future__ import annotations

from .terms import (
    Compound,
    Constant,
    Variable,
    _ground_compound,
    _rebuild,
    _struct_eq,
)


def compile_unit(t_in, t_out, unify=False):
    """The unit clause t_in -> t_out as a flat program for run_unit, or
    with unify set for unify_unit.

    The program is a tuple of seven sections and one flag: the first five
    sections and the flag serve run_unit, and unify set adds the last two.
    Register 0 holds the subject; each load appends a compound's arguments
    as the next registers, so every pattern position has a register known
    here.  Every record is a fixed-width tuple, read by unpacking.
      loads:  (r, functor, arity)  register r holds a compound of that
                                   functor and arity; load its arguments
      consts: (r, constant)        register r holds that Constant
      grounds: (r, term)           register r equals that ground compound
      sames:  (r, r')              a repeated variable: its first register
                                   r and a later one r' are equal
      build:  the output in postfix: an int pushes that register, a
              (functor, arity) pair replaces the top arity entries with
              the compound, and any other item (a ground term, or a
              variable absent from t_in) is pushed as it is; unify_unit
              pushes a fresh copy of such a variable instead, one per call.
      open:   True iff t_out has a variable absent from t_in, so that an
              output built from a ground subject can still hold a variable.
    With unify set, for unify_unit:
      firsts: r                    the register of a variable's first
                                   occurrence
      names:  one name per register: the pattern variable's there, else _
    A variable of t_in is bound at its first occurrence by being that
    register, so matching allocates no substitution.  Functors come from
    the clause's own compounds, so they are interned already.  Both walks
    run over an explicit stack.
    """
    loads, consts, grounds, sames, firsts = [], [], [], [], []
    first = {}  # variable of t_in -> the register of its first occurrence
    names = [_register_name(t_in)]
    stack = [(t_in, 0)]
    while stack:
        p, r = stack.pop()
        tp = type(p)
        if tp is Variable:
            prev = first.setdefault(p, r)
            if prev != r:
                sames.append((prev, r))
            else:
                firsts.append(r)
        elif tp is Constant:
            consts.append((r, p))
        elif p.ground:
            grounds.append((r, p))
        else:
            loads.append((r, p.functor, len(p.args)))
            stack.extend(zip(p.args, range(len(names), len(names) + len(p.args))))
            names += map(_register_name, p.args)
    build = []
    is_open = False
    stack = [(t_out, False)]
    while stack:
        t, done = stack.pop()
        if type(t) is Variable:
            build.append(first.get(t, t))
            is_open = is_open or t not in first
        elif type(t) is not Compound or t.ground:
            build.append(t)
        elif done:
            build.append((t.functor, len(t.args)))
        else:
            stack.append((t, True))
            stack.extend((a, False) for a in reversed(t.args))
    code = (
        tuple(loads), tuple(consts), tuple(grounds), tuple(sames), tuple(build),
        is_open,
    )
    if unify:
        code += tuple(firsts), tuple(names)
    return code


def _register_name(p):
    return p.name if type(p) is Variable else "_"


def run_unit(code, x):
    """The compiled unit clause applied to x: the output term, or None when
    x does not match the input.  Equal to match(t_in, x) followed by
    apply(t_out), which stay the reference.

    Every register holds a subterm of x.  So when x is ground and the unit
    is not open, every compound the build makes is ground, and it is made
    by terms._ground_compound without a scan of its arguments."""
    loads, consts, grounds, sames, build, is_open = code
    regs = [x]
    for r, functor, n in loads:
        s = regs[r]
        if type(s) is not Compound or s.functor != functor or len(s.args) != n:
            return None
        regs += s.args
    for r, c in consts:
        s = regs[r]
        if (
            type(s) is not Constant
            or s.symbol != c.symbol
            or type(s.symbol) is not type(c.symbol)
        ):
            return None
    for r, t in grounds:
        if not _struct_eq(t, regs[r]):
            return None
    for r, r2 in sames:
        if not _struct_eq(regs[r], regs[r2]):
            return None
    tx = type(x)
    if is_open or tx is Variable or tx is Compound and not x.ground:
        make = Compound
    else:
        make = _ground_compound
    out = []
    for item in build:
        ti = type(item)
        if ti is int:
            out.append(regs[item])
        elif ti is tuple:
            functor, n = item
            if n == len(out):  # the root, for one: no slice to make
                args = tuple(out)
                out.clear()
            else:
                args = tuple(out[-n:])
                del out[-n:]
            out.append(make(functor, args))
        else:
            out.append(item)
    return out[0]


# ---------------------------------------------------------------------------
# Unify mode: a binding store with a trail.
#
# The store is a dict from variable serials to terms, and the trail lists
# the serials bound, oldest first.  A term read under a store stands for
# itself with every bound variable replaced by its value, transitively; the
# store is never applied to a term until resolved is asked for the whole of
# it.  Only unbound variables are ever bound, so undoing to a trail mark
# (untrail) restores the store exactly as it was at the mark.


def _deref(t, get):
    while type(t) is Variable:
        nxt = get(t.serial)
        if nxt is None:
            return t
        t = nxt
    return t


def untrail(bind, trail, mark):
    """Undo every binding made since the trail had length mark."""
    for serial in trail[mark:]:
        del bind[serial]
    del trail[mark:]


def resolved(t, bind):
    """t with every variable bound in the store replaced by its value, all
    the way down: a plain term, independent of the store from then on."""
    if not bind:
        return t
    get = bind.get

    def leaf(v):
        r = get(v.serial)
        return None if r is None else _deref(r, get)

    return _rebuild(t, leaf, {})


def _occurs_bound(v, t, get):
    serial = v.serial
    stack = [t]
    while stack:
        s = _deref(stack.pop(), get)
        if type(s) is Variable:
            if s.serial == serial:
                return True
        elif type(s) is Compound and not s.ground:
            stack.extend(s.args)
    return False


def _unify_bound(a, b, bind, trail):
    # Unify a and b under the store, with occurs check, binding a variable
    # of a to b where both sides are variables.  False on failure, with the
    # bindings made so far left on the trail for the caller to undo.
    get = bind.get
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = _deref(x, get)
        y = _deref(y, get)
        if x is y:
            continue
        tx = type(x)
        ty = type(y)
        if tx is Variable:
            if ty is Variable and y.serial == x.serial:
                continue
            if ty is Compound and not y.ground and _occurs_bound(x, y, get):
                return False
            bind[x.serial] = y
            trail.append(x.serial)
        elif ty is Variable:
            if tx is Compound and not x.ground and _occurs_bound(y, x, get):
                return False
            bind[y.serial] = x
            trail.append(y.serial)
        elif tx is Constant:
            if (
                ty is not Constant
                or type(x.symbol) is not type(y.symbol)
                or x.symbol != y.symbol
            ):
                return False
        elif ty is not Compound or x.functor != y.functor or len(x.args) != len(y.args):
            return False
        elif x.ground and y.ground:
            if not _struct_eq(x, y):
                return False
        else:
            stack.extend(zip(x.args, y.args))
    return True


def unify_unit(code, x, bind, trail):
    """The compiled unit clause resolved against x under the store: the
    output term, or None when x does not unify with the input.

    The unit's variables are fresh for each call, as if the clause were
    renamed apart.  A load reads its register through the store: a compound
    is checked and its arguments loaded (read mode); an unbound variable is
    bound to the functor over fresh variables, which become the argument
    registers (write mode).  Constants and ground subterms bind an unbound
    variable too.  At a variable's first occurrence an unbound subject
    variable is bound to a fresh variable named after the unit's; a repeated
    variable is unified, occurs check included, with the subject side on the
    left.  The output is built from the registers, not resolved: it means
    what it says only under the store.  On failure every binding this call
    made is undone.  Up to renaming, resolved(output, bind) equals the
    reference: rename_many, unify, then Subst.apply.
    """
    loads, consts, grounds, sames, build, _, firsts, names = code
    mark = len(trail)
    get = bind.get
    made = None  # the serial of the first variable this call makes
    regs = [x]
    for r, functor, n in loads:
        s = _deref(regs[r], get)
        ts = type(s)
        if ts is Compound:
            if s.functor != functor or len(s.args) != n:
                untrail(bind, trail, mark)
                return None
            regs += s.args
        elif ts is Variable:
            k = len(regs)
            args = [Variable(name) for name in names[k : k + n]]
            if made is None:
                made = args[0].serial
            bind[s.serial] = Compound(functor, args)
            trail.append(s.serial)
            regs += args
        else:
            untrail(bind, trail, mark)
            return None
    for r in firsts:
        s = _deref(regs[r], get)
        # Serials only grow, so a variable at or past made came from a
        # load's write mode above and already carries its pattern's name.
        if type(s) is Variable and (made is None or s.serial < made):
            v = Variable(names[r])
            bind[s.serial] = v
            trail.append(s.serial)
            s = v
        regs[r] = s
    for r, c in consts:
        s = _deref(regs[r], get)
        ts = type(s)
        if ts is Variable:
            bind[s.serial] = c
            trail.append(s.serial)
        elif (
            ts is not Constant
            or s.symbol != c.symbol
            or type(s.symbol) is not type(c.symbol)
        ):
            untrail(bind, trail, mark)
            return None
    for r, t in grounds:
        if not _unify_bound(regs[r], t, bind, trail):
            untrail(bind, trail, mark)
            return None
    for r, r2 in sames:
        if not _unify_bound(regs[r2], regs[r], bind, trail):
            untrail(bind, trail, mark)
            return None
    out = []
    fresh = None  # variable absent from t_in -> its fresh copy
    for item in build:
        ti = type(item)
        if ti is int:
            out.append(regs[item])
        elif ti is tuple:
            functor, n = item
            args = out[-n:]
            del out[-n:]
            out.append(Compound(functor, args))
        elif ti is Variable:
            if fresh is None:
                fresh = {}
            v = fresh.get(item.serial)
            if v is None:
                v = fresh[item.serial] = Variable(item.name)
            out.append(v)
        else:
            out.append(item)
    return out[0]
