"""Compiled unit clauses: the kernel the engines run.

Chain form confines unification to unit clauses t_in -> t_out, so resolving
them is the engines' whole kernel workload.  compile_unit turns a unit
clause, once, into a flat program over registers: loads that check the
subject's functors and copy their arguments into the next registers,
constant, ground and equality checks on registers, and a build of the
output.  Each section is a tuple of fixed-width records that the runners
unpack in place; this module is the one that knows that format.  As in the
WAM, a unit has one program for both evaluation modes, and the runner
decides how each instruction meets the subject.

The build makes each compound of t_out from one record (functor, arg,
unary), and the compound made goes into the next register.  A unary
compound's arg is the register of its one argument; any other's is a
gather id, naming an operator.itemgetter over the registers of the
compound's arguments.  The getters live in one table here, shared by every
unit whose compounds gather the same registers, so that a compiled unit
holds only ints, strings, flags and terms of the clause itself: its ground
subterms and the variables of t_out absent from t_in.  Once collected, the
garbage collector no longer tracks a unit that has neither, and compiling
one adds no tracked object.  Those ground subterms and variables of t_out
take the registers after the loaded ones.

Both runners build each compound of the output in place: object.__new__
and its three slots set directly, with no call of Compound.__init__, so
they hold its invariants themselves.  Functors come from the clause's own
compounds and are interned already, and args are tuples.  The ground flag
is computed from the arguments as Compound computes it, except in match
mode on a ground subject when t_out has no variable absent from t_in: the
registers then hold only subterms of the subject and of the clause, so
every compound built is ground and the flag is set without a scan.  That
is the usual case, match mode on a G-chain program with a ground seed.

A unit whose t_out equals t_in, such as a conversion's ⟨St,R⟩ -> ⟨St,R⟩,
is an identity: its program has no tail and no build, and its output is
register 0, the subject itself once the checks pass.

In match mode run_unit executes the program without a substitution; it
equals terms.match followed by Subst.apply on every unit and term.

In unify mode unify_unit executes the same program against a binding store
(variable serial -> term) with a trail, in the manner of the WAM: it reads
the subject through the store, binds unbound variables where the pattern
has structure, unifies repeated variables with occurs check, replaces the
variables of t_out absent from t_in by fresh copies, and builds the output
without resolving it.  It reads a register through the store only where the
register holds a variable.  The store's bindings are undone to a trail mark
on failure, when the call made any, and on backtracking (untrail), and
resolved turns a term read under the store into a plain one.  Up to
renaming it equals terms.rename_many, terms.unify and Subst.apply.

Every walk runs over an explicit stack, so terms of any depth are handled at
the interpreter's default recursion limit.
"""

from __future__ import annotations

import threading
from operator import itemgetter

from .terms import Compound, Constant, Variable, _rebuild, _struct_eq

_new_object = object.__new__

# The gather table: gather id -> itemgetter over register indices, and the
# indices -> their id.  It only grows, by one getter per distinct index
# tuple, whatever the number of units or registries compiled.
_GATHERS = []
_GATHER_IDS = {}
_GATHER_LOCK = threading.Lock()


def _gather_id(indices):
    with _GATHER_LOCK:
        gid = _GATHER_IDS.setdefault(indices, len(_GATHERS))
        if gid == len(_GATHERS):
            _GATHERS.append(itemgetter(*indices))
    return gid


def compile_unit(t_in, t_out):
    """The unit clause t_in -> t_out as a flat program, the one that both
    run_unit and unify_unit execute.

    The program is a tuple of eleven sections.  Register 0 holds the
    subject; each load appends a compound's arguments as the next
    registers, so every pattern position has a register known here.  Every
    record is a fixed-width tuple, read by unpacking.
      loads:   (r, functor, arity)  register r holds a compound of that
                                    functor and arity; load its arguments
      checked: True iff any of the next three sections is non-empty
      consts:  (r, symbol)          register r holds a Constant of that
                                    symbol, of the same type
      grounds: (r, term)            register r equals that ground compound
      sames:   (r, r')              a repeated variable: its first register
                                    r and a later one r' are equal
      tail:    the terms that take the registers after the loaded ones: the
               ground subterms of t_out at its leaves, then its variables
               absent from t_in
      build:   (functor, arg, unary)  one per compound of t_out, in postfix
               order: the compound of that functor, put in the next
               register.  A unary compound's arg is the register of its
               one argument; any other's is the gather id of the getter
               that picks its arguments' registers
      out:     the register that holds t_out once the build is done; 0,
               with no tail and no build, when t_out equals t_in
      open:    the number of t_out's variables absent from t_in, the last
               registers of the tail; an output built from a ground
               subject can still hold a variable iff it is not 0
      firsts:  r                    the register of a variable's first
                                    occurrence
      names:   one name per loaded register: the pattern variable's there,
               else _
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
            consts.append((r, p.symbol))
        elif p.ground:
            grounds.append((r, p))
        else:
            loads.append((r, p.functor, len(p.args)))
            stack.extend(zip(p.args, range(len(names), len(names) + len(p.args))))
            names += map(_register_name, p.args)
    checks = tuple(consts), tuple(grounds), tuple(sames)
    head = (tuple(loads), any(checks), *checks)
    if _struct_eq(t_in, t_out):
        # An identity unit: the subject, once checked, is the output.
        return (*head, (), (), 0, 0, tuple(firsts), tuple(names))
    # The leaves of t_out no load provides, each once: ground subterms,
    # then variables absent from t_in, as dicts used for ordered sets.
    leaves, free = {}, {}
    stack = [t_out]
    while stack:
        t = stack.pop()
        if type(t) is Variable:
            if t not in first:
                free[t] = None
        elif type(t) is not Compound or t.ground:
            leaves[t] = None
        else:
            stack.extend(reversed(t.args))
    tail = (*leaves, *free)
    at = dict(first)
    at.update(zip(tail, range(len(names), len(names) + len(tail))))
    build = []
    done_regs = []  # the registers of the finished subterms, postfix
    stack = [(t_out, False)]
    while stack:
        t, done = stack.pop()
        if type(t) is not Compound or t.ground:
            done_regs.append(at[t])
        elif done:
            n = len(t.args)
            args = tuple(done_regs[-n:])
            del done_regs[-n:]
            done_regs.append(len(names) + len(tail) + len(build))
            arg = args[0] if n == 1 else _gather_id(args)
            build.append((t.functor, arg, n == 1))
        else:
            stack.append((t, True))
            stack.extend((a, False) for a in reversed(t.args))
    return (
        *head, tail, tuple(build), done_regs[0], len(free), tuple(firsts),
        tuple(names),
    )


def is_pass_through(code):
    """True iff the compiled unit is a pure identity: t_in = t_out = one
    compound over distinct variables, so one load, no check, and the output
    in register 0 (an identity has no tail and no build).  Applied to a
    compound of that functor and width, it succeeds in either mode and
    returns the subject: as it is in match mode, and in unify mode as read,
    each of its unbound variables bound to a fresh one."""
    loads, checked, _, _, _, _, _, out, _, _, _ = code
    return len(loads) == 1 and not checked and not out


def _register_name(p):
    return p.name if type(p) is Variable else "_"


def run_unit(code, x):
    """The compiled unit clause applied to x: the output term, or None when
    x does not match the input.  Equal to match(t_in, x) followed by
    apply(t_out), which stay the reference.

    An identity unit returns x itself.  Every register holds a subterm of x
    or of the clause.  So when x is ground and the unit is not open, every
    compound the build makes is ground, and its flag is set without a scan
    of its arguments."""
    loads, checked, consts, grounds, sames, tail, build, out, is_open, _, _ = code
    regs = [x]
    for r, functor, n in loads:
        s = regs[r]
        if type(s) is not Compound or s.functor != functor or len(s.args) != n:
            return None
        regs += s.args
    if checked:
        for r, c in consts:
            s = regs[r]
            if (
                type(s) is not Constant
                or s.symbol != c
                or type(s.symbol) is not type(c)
            ):
                return None
        for r, t in grounds:
            if not _struct_eq(t, regs[r]):
                return None
        for r, r2 in sames:
            if not _struct_eq(regs[r], regs[r2]):
                return None
    if not out:
        return x
    regs += tail
    tx = type(x)
    if is_open or tx is Variable or tx is Compound and not x.ground:
        _build(build, regs)
    else:
        gathers = _GATHERS
        for functor, arg, unary in build:
            t = _new_object(Compound)
            t.functor = functor
            t.args = (regs[arg],) if unary else gathers[arg](regs)
            t.ground = True
            regs.append(t)
    return regs[out]


def _build(build, regs):
    # The build over regs, each compound's ground flag computed from its
    # arguments as Compound computes it.
    gathers = _GATHERS
    for functor, arg, unary in build:
        t = _new_object(Compound)
        t.functor = functor
        t.args = args = (regs[arg],) if unary else gathers[arg](regs)
        ground = True
        for a in args:
            ta = type(a)
            if ta is Variable or ta is Compound and not a.ground:
                ground = False
                break
        t.ground = ground
        regs.append(t)


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
    renamed apart.  A load reads its register through the store where it
    holds a variable: a compound is checked and its arguments loaded (read
    mode); an unbound variable is bound to the functor over fresh
    variables, which become the argument registers (write mode).  Constants
    and ground subterms bind an unbound variable too.  At a variable's first occurrence an unbound subject
    variable is bound to a fresh variable named after the unit's; a repeated
    variable is unified, occurs check included, with the subject side on the
    left.  The variables of the output absent from the input are made fresh
    once, into their registers, and the output is built from the registers
    by the same build as run_unit's, not resolved: it means what it says
    only under the store.  An identity unit's output is register 0, the
    subject as read.  On failure every binding this call made is undone.
    Up to renaming, resolved(output, bind) equals the reference:
    rename_many, unify, then Subst.apply.
    """
    (
        loads, checked, consts, grounds, sames, tail, build, out, n_open,
        firsts, names,
    ) = code
    mark = len(trail)
    get = bind.get
    made = None  # the serial of the first variable this call makes
    regs = [x]
    for r, functor, n in loads:
        s = regs[r]
        ts = type(s)
        if ts is Variable:
            s = _deref(s, get)
            ts = type(s)
        if ts is Compound:
            if s.functor != functor or len(s.args) != n:
                if len(trail) > mark:
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
            if len(trail) > mark:
                untrail(bind, trail, mark)
            return None
    for r in firsts:
        s = regs[r]
        if type(s) is Variable:
            s = _deref(s, get)
            # Serials only grow, so a variable at or past made came from a
            # load's write mode above and already carries its pattern's
            # name.
            if type(s) is Variable and (made is None or s.serial < made):
                v = Variable(names[r])
                bind[s.serial] = v
                trail.append(s.serial)
                s = v
            regs[r] = s
    if checked:
        for r, c in consts:
            s = regs[r]
            ts = type(s)
            if ts is Variable:
                s = _deref(s, get)
                ts = type(s)
            if ts is Variable:
                bind[s.serial] = Constant(c)
                trail.append(s.serial)
            elif (
                ts is not Constant
                or s.symbol != c
                or type(s.symbol) is not type(c)
            ):
                if len(trail) > mark:
                    untrail(bind, trail, mark)
                return None
        for r, t in grounds:
            if not _unify_bound(regs[r], t, bind, trail):
                if len(trail) > mark:
                    untrail(bind, trail, mark)
                return None
        for r, r2 in sames:
            if not _unify_bound(regs[r2], regs[r], bind, trail):
                if len(trail) > mark:
                    untrail(bind, trail, mark)
                return None
    if not out:
        return regs[0]
    regs += tail
    if n_open:
        regs[-n_open:] = [Variable(v.name) for v in regs[-n_open:]]
    _build(build, regs)
    return regs[out]
