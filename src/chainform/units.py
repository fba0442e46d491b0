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
take the registers after the loaded ones.  A unit over the cap (below)
also holds its clause, so the collector keeps tracking it.

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
register 0, the subject itself once the checks pass.  Only a match-mode
unit over the cap returns an equal term that the reference builds.

In match mode run_unit equals terms.match followed by Subst.apply on every
unit and term.  Unit clauses are where chain form does all of its
unification, so within the cap below neither mode interprets the program:
compile_unit also gives a unit its shape, the program with every functor,
symbol, symbol type and term lifted out into the unit's own constants
tuple, and each distinct shape two functions, one per mode, each generated
as straight-line Python with each register a local and made by compile()
once, at the first run of a unit of that shape in that mode.  The match
function runs without a substitution.  The program's last two sections
are the shape's id in two shared tables and the lifted constants, so a
compiled unit still holds no function object, which the collector would
track, and renamed copies of a program share every function.  The
generated source refers to registers and to positions in the constants
tuple only: no text of a clause reaches it, and it exists only in memory.
A unit of more than _MAX_REGISTERS registers gets no function, since
compile()'s cost grows with the unit: its last two sections are None and
the clause (t_in, t_out), run_unit runs it through the reference,
terms.match and Subst.apply, and unify_unit through its register loop.

A ⟨⟩ state travels between unit steps as its bare argument tuple, as the
WAM passes a call's arguments in registers and builds no structure for
the call itself.  Every unit clause either conversion emits is
⟨…⟩ -> ⟨…⟩, and a shape's key holds two root flags: t_in's root is a
loaded ⟨⟩, and t_out's root is a built ⟨⟩.  With the first, both of the
shape's functions take register 0 as a bare tuple or as a ⟨⟩ compound.
With the second, they return the bare tuple of the root's arguments and
build no compound for it: the match function on its ground path only
(_finish, for a subject holding a variable or an open unit, returns a
term), the unify function always.  So a bare tuple stands for a ground
⟨⟩ in match mode, and for a ⟨⟩ read under the store in unify mode, and
box computes the ⟨⟩'s ground flag, which _unify_bound and the goal
decoder trust.  It is never empty: a 0-ary ⟨⟩ is ground, so no load or
build meets one.  A shape whose t_in has any other root (a compound of
another functor, a constant, a variable or a ground term, a 0-ary ⟨⟩
included) boxes a bare subject on entry, as a unit over the cap does;
only a registry built by hand hands such a unit a bare subject.  The
engines box an answer once, as it leaves the search.

In unify mode the program runs against a binding store (variable serial ->
term) with a trail, in the manner of the WAM: it reads the subject through
the store, binds unbound variables where the pattern has structure,
unifies repeated variables with occurs check, replaces the variables of
t_out absent from t_in by fresh copies, and builds the output without
resolving it.  As in the WAM's get instructions, each load takes read mode
or write mode at run time, on what the subject holds there.  It reads a
register through the store only where the register holds a variable.  The
store's bindings are undone to a trail mark on failure, when the call made
any, and on backtracking (untrail), and resolved turns a term read under
the store into a plain one.  As the WAM's switch_on_term and get_constant
reject a clause before they bind anything, a unit whose t_in is a loaded
⟨⟩ tests the subject's root arguments first: where the subject holds a
compound or a constant at one that t_in fixes, a compound of another
functor or arity, or a constant of another symbol or symbol type, clashes,
and the call fails before it reads the store, renames a variable or binds
one.  A rejected subject makes no binding and no variable.  In the
generated function these root tests are the only test of a root argument
the subject fills with a compound or a constant, as a get instruction
tests its register once: a compound that passes is unpacked there and a
constant that passes is done with, and only a variable there, bound or
not, is read through the store and bound as before.  The function makes
each fresh variable in place, as the build makes a compound: its name, a
pattern variable's and interned already, and the next serial.
unify_unit runs the shape's generated unify function, or over the cap its
register loop, which the function unrolls; up to renaming and boxed, both
equal terms.rename_many, terms.unify and Subst.apply.

Every walk runs over an explicit stack, so terms of any depth are handled at
the interpreter's default recursion limit.
"""

from __future__ import annotations

import itertools
import threading
from functools import partial
from operator import itemgetter

from .terms import (
    TUPLE_FUNCTOR,
    Compound,
    Constant,
    Variable,
    _rebuild,
    _serials,
    _struct_eq,
    match,
)

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
    """The unit clause t_in -> t_out as a flat program, the one that
    unify_unit's register loop executes and the generated functions of the
    unit's shape unroll.

    The program is a tuple of thirteen sections.  Register 0 holds the
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
      shape:   the id of the unit's generated functions in the shape
               tables, or None for a unit of more than _MAX_REGISTERS
               registers (loaded, tail and built)
      lifted:  the constants those functions read, in the order _source
               and _unify_source number them: each load's functor, each
               constant check's symbol and its type, each ground check's
               term, the tail, and each build record's functor; for a unit
               over the cap, the clause (t_in, t_out), which run_unit
               hands to the reference
    A variable of t_in is bound at its first occurrence by being that
    register, so matching within the cap allocates no substitution.
    Functors come from the clause's own compounds, so they are interned
    already.  Both walks run over an explicit stack.
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
        return (
            *head, (), (), 0, 0, tuple(firsts), tuple(names),
            *_shape(t_in, t_out, head, firsts, (), (), 0, 0, len(names)),
        )
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
    build, gathered = [], []
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
            gathered.append(args)
        else:
            stack.append((t, True))
            stack.extend((a, False) for a in reversed(t.args))
    build = tuple(build)
    return (
        *head, tail, build, done_regs[0], len(free), tuple(firsts),
        tuple(names),
        *_shape(
            t_in, t_out, head, firsts, tail, build, done_regs[0], len(free),
            len(names), gathered,
        ),
    )


def is_pass_through(code):
    """True iff the compiled unit is a pure identity: t_in = t_out = one
    compound over distinct variables, so one load, no check, and the output
    in register 0 (an identity has no tail and no build).  Applied to a
    compound of that functor and width, it succeeds in either mode and
    returns the subject: as it is in match mode, and in unify mode as read,
    each of its unbound variables bound to a fresh one."""
    loads, checked = code[:2]
    return len(loads) == 1 and not checked and not code[7]


def _register_name(p):
    return p.name if type(p) is Variable else "_"


def run_unit(code, x):
    """The compiled unit clause applied to x: the output term, or the bare
    argument tuple of a ground ⟨⟩ output, or None when x does not match
    the input.  x is a term or such a bare tuple.  Boxed (box), the result
    equals match(t_in, box(x)) followed by apply(t_out), which stay the
    reference.

    A unit of at most _MAX_REGISTERS registers runs its shape's generated
    match function.  There an identity unit returns x itself, and every
    register holds a subterm of x or of the clause, so when x is ground
    and the unit is not open every compound the build makes is ground,
    and its flag is set without a scan of its arguments; a ⟨⟩ at the root
    of t_out is then not built at all, and its argument tuple is returned.
    A larger unit runs the reference itself on box(x), match and then
    apply, and returns a term."""
    shape = code[11]
    if shape is not None:
        return _MATCHERS[shape](x, code)
    t_in, t_out = code[12]
    s = match(t_in, box(x))
    return None if s is None else s.apply(t_out)


def box(x):
    """x as a term: a bare argument tuple, as the runners return for a ⟨⟩
    output, made into that ⟨⟩ by Compound, which computes its ground
    flag; a term as it is."""
    return x if type(x) is not tuple else Compound(TUPLE_FUNCTOR, x)


def _finish(code, regs):
    # The output of a unit whose input matched, given the loaded registers,
    # when its compounds' ground flags need computing: an open unit, or a
    # subject that holds a variable.
    regs += code[5]
    _build(code[6], regs)
    return regs[code[7]]


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
# Match functions, one per shape.
#
# A unit's shape is its program with every functor, symbol, symbol type and
# term lifted out: register numbers, arities, and the kinds of its checks
# and build.  Each shape gets one match function, generated as
# straight-line Python source and made by compile() when a unit of that
# shape first runs in match mode; until then its table entry is a stand-in
# that does this, so a shape only unify mode meets never generates one.
# Its signature is (subject, compiled unit) -> output or None, the same as
# run_unit's with the arguments swapped.  The source names registers r0,
# r1, ... and reads every lifted constant as k[i], k being the unit's
# lifted section, so nothing of the clause, and nothing a user wrote, ever
# reaches its text.  The text lives only in memory and is dropped once
# compiled: the repository holds no generated code.  Units that differ
# only in their functors and constants, such as a program's renamed
# copies, share one function.  The unify functions, further down, are made
# the same way, into a second table.
#
# The match function covers the usual case, a ground subject and a unit
# that is not open, where every compound built is ground and a ⟨⟩ at the
# root of t_out is returned as its bare argument tuple (see the module
# docstring).  Otherwise, once the checks pass, it hands its loaded
# registers to _finish, which computes the ground flags as Compound does
# and returns a term.
#
# The functions live in two tables here, append-only and locked as the
# gather table is, so a compiled unit holds only a shape id and its lifted
# tuple, and the collector stops tracking it as before.  A function object
# per unit would be a tracked object per unit, which every collection
# walks.  A unit of more than _MAX_REGISTERS registers gets no function:
# run_unit runs it through the reference, terms.match and Subst.apply, and
# unify_unit through its register loop.  Generating a match function costs
# about 0.35 ms for a small shape and grows with the unit, by 10 µs a
# register on a flat unit and 50-65 µs on a deeply nested one (Python
# 3.11), so a unit of thousands of registers is not worth it.  No benchmark
# workload compiles a unit over the cap.

# The largest unit of either conversion of the bundled fixtures has 28
# registers.
_MAX_REGISTERS = 64

# Shape id -> match function, or its stand-in until the shape's first
# match-mode run; shape id -> unify function, or its stand-in until the
# shape's first unify-mode run; and the shape key -> its id.  A key is a
# tuple of ints and flags, never source text.
_MATCHERS = []
_UNIFIERS = []
_SHAPE_IDS = {}
_SHAPE_LOCK = threading.Lock()


def _shape(
    t_in, t_out, head, firsts, tail, build, out, n_open, n_loaded, gathered=(),
):
    # The last two sections of a compiled unit: its shape id and its lifted
    # constants, or, over the cap, None and the clause (t_in, t_out) itself.
    loads, _, consts, grounds, sames = head
    if n_loaded + len(tail) + len(build) > _MAX_REGISTERS:
        return None, (t_in, t_out)
    key = (
        tuple([(r, n) for r, _, n in loads]),
        tuple([r for r, _ in consts]),
        tuple([r for r, _ in grounds]),
        sames,
        tuple(firsts),
        tuple(gathered),
        out,
        n_open,
        n_loaded,
        len(tail),
        # The root flags: t_in's root a loaded ⟨⟩, and t_out's a built one.
        bool(loads) and loads[0][1] == TUPLE_FUNCTOR,
        bool(build) and build[-1][0] == TUPLE_FUNCTOR,
    )
    lifted = [functor for _, functor, _ in loads]
    for _, c in consts:
        lifted += (c, type(c))
    lifted += [t for _, t in grounds]
    lifted += tail
    lifted += [functor for functor, _, _ in build]
    return _shape_id(key), tuple(lifted)


def _shape_id(key):
    # A shape is in _SHAPE_IDS only once its entries are in _MATCHERS and
    # _UNIFIERS, so a hit needs no lock.  Each entry is a stand-in until the
    # shape's first run in that table's mode, which generates the function:
    # a unit only ever run in one mode costs one compile(), and a unit never
    # run costs none.
    sid = _SHAPE_IDS.get(key)
    if sid is not None:
        return sid
    with _SHAPE_LOCK:
        sid = _SHAPE_IDS.get(key)
        if sid is None:
            sid = len(_MATCHERS)
            _MATCHERS.append(partial(_generate, _MATCHERS, _source, sid, key))
            _UNIFIERS.append(
                partial(_generate, _UNIFIERS, _unify_source, sid, key)
            )
            _SHAPE_IDS[key] = sid
    return sid


def _generate(table, source, sid, key, *args):
    # The stand-in for shape sid in table: make its function from the
    # source that source(key) gives, put it in the table in the stand-in's
    # place, and run it.
    with _SHAPE_LOCK:
        fn = table[sid]
        if type(fn) is partial:
            namespace = {}
            exec(
                compile(source(key), "<unit shape %d>" % sid, "exec"),
                _GENERATED_GLOBALS,
                namespace,
            )
            (fn,) = namespace.values()
            table[sid] = fn
    return fn(*args)


def _source(key):
    """The Python source of the match function of a shape: the unit's
    program unrolled for that shape, each register a local."""
    (
        loads, consts, grounds, sames, _, gathered, out, n_open, n_loaded,
        n_tail, bare_in, bare_out,
    ) = key
    k = itertools.count()  # the next lifted constant's index
    lines = ["def match(r0, code):", " k = code[12]"]
    fail = "return None"
    if bare_in:
        # A bare subject is the argument tuple of a ground ⟨⟩, and g the
        # subject's ground flag.
        lines += [
            " if type(r0) is tuple: a, g = r0, True",
            " elif type(r0) is not Compound or r0.functor != k[%d]: %s"
            % (next(k), fail),
            " else: a, g = r0.args, r0.ground",
        ]
    else:
        lines.append(" if type(r0) is tuple: r0 = _box(r0)")
    nxt = 1
    for j, (r, n) in enumerate(loads):
        targets = ", ".join("r%d" % i for i in range(nxt, nxt + n))
        nxt += n
        if j or not bare_in:
            lines += [
                " if type(r%d) is not Compound or r%d.functor != k[%d]: %s"
                % (r, r, next(k), fail),
                " a = r%d.args" % r,
            ]
        lines += [" if len(a) != %d: %s" % (n, fail), " %s, = a" % targets]
    for r in consts:
        lines.append(
            " if type(r%d) is not Constant or r%d.symbol != k[%d]"
            " or type(r%d.symbol) is not k[%d]: %s"
            % (r, r, next(k), r, next(k), fail)
        )
    for r in grounds:
        i = next(k)
        lines.append(
            " if r%d is not k[%d] and not _struct_eq(k[%d], r%d): %s"
            % (r, i, i, r, fail)
        )
    for r, r2 in sames:
        lines.append(
            " if r%d is not r%d and not _struct_eq(r%d, r%d): %s"
            % (r, r2, r, r2, fail)
        )
    # Each register as an expression: a loaded one or a built one is a
    # local, one of the tail a lifted constant.
    expr = ["r%d" % r for r in range(n_loaded)]
    expr += ["k[%d]" % next(k) for _ in range(n_tail)]
    if not gathered:
        lines.append(" return %s" % expr[out])
        return "\n".join(lines) + "\n"
    # An open unit's output holds a variable whatever the subject, and a
    # subject holding one passes it on: both take _finish, which computes
    # each compound's ground flag.  A subject checked against a constant
    # or a ground term is ground.
    finish = " return _finish(code, [%s])" % ", ".join(expr[:n_loaded])
    if n_open:
        lines.append(finish)
        return "\n".join(lines) + "\n"
    if loads:
        lines.append(" if not %s:" % ("g" if bare_in else "r0.ground") + finish)
    elif not consts and not grounds:
        lines.append(
            " if type(r0) is Variable or type(r0) is Compound and not r0.ground:"
            + finish
        )
    # Every register holds a subterm of a ground subject or of the clause,
    # so every compound built is ground.  A ⟨⟩ at the root, built last, is
    # returned as its bare argument tuple.
    if bare_out:
        gathered, root = gathered[:-1], gathered[-1]
    for args in gathered:
        r = len(expr)
        lines += [
            " r%d = _new(Compound)" % r,
            " r%d.functor = k[%d]" % (r, next(k)),
            " r%d.args = (%s,)" % (r, ", ".join(expr[a] for a in args)),
            " r%d.ground = True" % r,
        ]
        expr.append("r%d" % r)
    if bare_out:
        lines.append(" return (%s,)" % ", ".join(expr[a] for a in root))
    else:
        lines.append(" return r%d" % out)
    return "\n".join(lines) + "\n"


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
    """The term t with every variable bound in the store replaced by its
    value, all the way down: a plain term, independent of the store from
    then on (box a bare tuple first)."""
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


# ---------------------------------------------------------------------------
# Unify functions, one per shape.
#
# Each shape also gets a unify function, made as its match function is, into
# _UNIFIERS, at the shape's first unify-mode run: (subject, compiled unit,
# store, trail) -> output or None, unify_unit's program unrolled for the
# shape.  Each load takes read or write mode at run time, on what its
# register holds once dereferenced.  Which failures must undo bindings is
# decided here: a load all of whose earlier loads are its ancestors fails
# only if they all took read mode, so before any binding, and returns None;
# a later failure undoes the trail to the call's mark.  So is each built
# compound's ground flag where it can be: an output-only variable makes it
# False, a ground leaf adds nothing, a built register is read by its flag,
# and a loaded one, which holds what the subject put at a variable's first
# occurrence, is tested by type.  Dereferencing and write mode are inlined:
# calling _deref, or a shared helper for write mode, made definite-unify's
# kernel 1-4% slower for a shorter source.  Every fresh variable, of write
# mode, of a renamed first occurrence or of the open tail, is made in place
# (_fresh): object.__new__, its name, and the next serial of
# terms._serials, as Variable() would give it, so the same variables come
# in the same order.  The store's get and the unit's names are read where
# a dereference or a fresh variable needs them, not kept as locals.
# The root flags work as in match mode (see the module docstring): a bare
# subject is only checked for its arity and unpacked, as it is never a
# variable, and a ⟨⟩ at t_out's root is returned as its argument tuple.  A
# ⟨⟩ compound subject, read through the store, is unpacked the same way,
# and a subject that is an unbound variable, which no conversion's search
# hands over, goes to the register loop for the root's write mode.  Right
# after the unpacking come the root tests (as _root_clash in the loop), and
# only then the locals mark and made, so a subject rejected there costs a
# few type tests and no binding, variable or untrail.  The root tests are
# the only test of a root argument that the subject fills: one that holds
# a compound is unpacked there, its load's read mode done, and one that
# holds a constant needs nothing more; the program reads the argument
# through the store only where it holds a variable.  The register loop
# tests such an argument again at its own load or check, to the same
# outcome.


def _unify_source(key):
    """The Python source of the unify function of a shape: the program
    unrolled as unify_unit's register loop runs it, each register a local."""
    (
        loads, consts, grounds, sames, firsts, gathered, out, n_open,
        n_loaded, n_tail, bare_in, bare_out,
    ) = key
    k = itertools.count()  # the next lifted constant's index
    # untrail returns None: this undoes the call's bindings and fails.
    undo = "return untrail(bind, trail, mark)"
    # s dereferenced through the store, in place, and ts its type.
    deref = [
        " ts = type(s)",
        " while ts is Variable:",
        "  v = bind.get(s.serial)",
        "  if v is None: break",
        "  s = v",
        "  ts = type(s)",
    ]
    lines = [] if bare_in else [" if type(r0) is tuple: r0 = _box(r0)"]
    # The loads that may take write mode here: a bare_in shape's root load
    # hands an unbound variable to the loop.
    writes = loads[1:] if bare_in else loads
    if writes:
        lines.append(" made = None")  # as in unify_unit
    # A bare_in shape's root arguments are registers 1 to width.  The root
    # tests in pre settle each one that t_in fixes and the subject fills
    # with a compound or a constant; the program below reads it only where
    # it holds a variable, which the local t<r>, the type of r<r>, tells.
    width = loads[0][1] if bare_in else 0
    pre = []  # a bare_in shape's root load and root tests, before any local
    depth = [0]  # register -> the number of loads that are its ancestors
    for j, (r, n) in enumerate(loads):
        fail = "return None" if depth[r] == j else undo
        args = ["r%d" % i for i in range(len(depth), len(depth) + n)]
        depth += [depth[r] + 1] * n
        i = next(k)
        unpack = "%s, = a" % ", ".join(args)
        if bare_in and not j:
            # A ⟨⟩ compound's arguments, read through the store, are taken
            # as a bare subject is; an unbound variable takes write mode in
            # the register loop, this function's reference.  r0 stays the
            # subject, an identity unit's output.
            pre += [
                " a = r0",
                " if type(a) is not tuple:",
                "  s = r0",
                "  while type(s) is Variable:",
                "   s = bind.get(s.serial)",
                "   if s is None: return _unify_loop(code, r0, bind, trail)",
                "  if type(s) is not Compound or s.functor != k[%d]: %s"
                % (i, fail),
                "  a = s.args",
                " if len(a) != %d: %s" % (n, fail),
                " " + unpack,
            ]
            continue
        load = [" s = r%d" % r, *deref]
        load += [
            " if ts is Compound:",
            "  if s.functor != k[%d]: %s" % (i, fail),
            "  a = s.args",
            "  if len(a) != %d: %s" % (n, fail),
            "  " + unpack,
            " elif ts is Variable:",
        ]
        for v in args:
            load += _fresh("  ", v, "code[10][%s]" % v[1:])
        # Only the first load's write mode always finds made unset.
        once = "if made is None: " if j else ""
        load += [
            "  %smade = %s.serial" % (once, args[0]),
            "  c = _new(Compound)",
            "  c.functor = k[%d]" % i,
            "  c.args = (%s,)" % ", ".join(args),
            "  c.ground = False",
            "  bind[s.serial] = c",
            "  trail.append(s.serial)",
            " else: " + fail,
        ]
        if 0 < r <= width:
            # A root argument: the root tests unpack a compound there, as
            # read mode does, and reject a constant; only a variable, bound
            # or not, takes the load.
            pre += [
                " t%d = type(r%d)" % (r, r),
                " if t%d is Compound:" % r,
                "  if r%d.functor != k[%d]: return None" % (r, i),
                "  a = r%d.args" % r,
                "  if len(a) != %d: return None" % n,
                "  " + unpack,
                " elif t%d is Constant: return None" % r,
            ]
            load = [" if t%d is Variable:" % r, *[" " + line for line in load]]
        lines += load
    fresh = "ts is Variable"
    if writes:
        fresh += " and (made is None or s.serial < made)"
    for r in firsts:
        lines += [" if type(r%d) is Variable:" % r, "  s = r%d" % r]
        lines += [" " + line for line in deref]
        lines += ["  if %s:" % fresh, *_fresh("   ", "r%d" % r, "code[10][%d]" % r)]
        lines += [
            "   bind[s.serial] = r%d" % r,
            "   trail.append(s.serial)",
            "  else: r%d = s" % r,
        ]
    bound = bool(loads or firsts)  # whether a binding may have been made
    for r in consts:
        i, ti = next(k), next(k)  # the symbol's index, and its type's
        check = [" s = r%d" % r, *deref]
        check += [
            " if ts is Variable:",
            "  bind[s.serial] = Constant(k[%d])" % i,
            "  trail.append(s.serial)",
            " elif ts is not Constant or s.symbol != k[%d]"
            " or type(s.symbol) is not k[%d]: %s"
            % (i, ti, undo if bound else "return None"),
        ]
        if 0 < r <= width:
            # A root argument: the root tests compare a constant there and
            # reject a compound; only a variable takes the check.
            pre += [
                " t%d = type(r%d)" % (r, r),
                " if t%d is Constant and (r%d.symbol != k[%d] or type(r%d.symbol)"
                " is not k[%d]) or t%d is Compound: return None"
                % (r, r, i, r, ti, r),
            ]
            check = [" if t%d is Variable:" % r, *[" " + line for line in check]]
        lines += check
        bound = True
    for r in grounds:
        lines.append(
            " if not _unify_bound(r%d, k[%d], bind, trail): %s"
            % (r, next(k), undo)
        )
    for r, r2 in sames:
        lines.append(
            " if not _unify_bound(r%d, r%d, bind, trail): %s" % (r2, r, undo)
        )
    # Each register as an expression, with how its groundness is decided:
    # a loaded register by a test, a built one by its flag; None for a
    # ground leaf of the tail, False for an output-only variable.
    expr = ["r%d" % r for r in range(n_loaded)]
    ground = [
        "(type(%s) is Constant or type(%s) is Compound and %s.ground)"
        % (v, v, v)
        for v in expr
    ]
    for i in range(n_tail):
        if i < n_tail - n_open:
            expr.append("k[%d]" % next(k))
            ground.append(None)
        else:
            v = "r%d" % len(expr)
            lines += _fresh(" ", v, "k[%d].name" % next(k))
            expr.append(v)
            ground.append(False)
    # A ⟨⟩ at the root, built last, is returned as its bare argument tuple,
    # with no flag computed.
    if bare_out:
        gathered, root = gathered[:-1], gathered[-1]
    for args in gathered:
        # A compound built is not ground in the clause, so some argument's
        # flag is not None.
        v = "r%d" % len(expr)
        flags = dict.fromkeys(ground[a] for a in args if ground[a] is not None)
        lines += [
            " %s = _new(Compound)" % v,
            " %s.functor = k[%d]" % (v, next(k)),
            " %s.args = (%s,)" % (v, ", ".join(expr[a] for a in args)),
            " %s.ground = %s"
            % (v, "False" if False in flags else " and ".join(flags)),
        ]
        expr.append(v)
        ground.append("%s.ground" % v)
    if bare_out:
        lines.append(" return (%s,)" % ", ".join(expr[a] for a in root))
    else:
        lines.append(" return %s" % expr[out])
    body = "\n".join(lines)
    head = ["def unify(r0, code, bind, trail):", " k = code[12]", *pre]
    if "mark)" in body:
        head.append(" mark = len(trail)")
    return "\n".join(head) + "\n" + body + "\n"


def _fresh(indent, v, name):
    # The lines that make a fresh variable named name into the local v, in
    # place as the build makes a compound: name is a pattern variable's,
    # interned already.
    return [
        "%s%s = _new(Variable)" % (indent, v),
        "%s%s.name = %s" % (indent, v, name),
        "%s%s.serial = _serial()" % (indent, v),
    ]


def _root_clash(loads, consts, regs):
    # True iff regs, loaded with a ⟨⟩ subject's arguments in read mode, hold
    # a compound or a constant at a root argument of t_in that clashes with
    # it: a compound of another functor or arity where t_in has a load, any
    # constant there, and a compound or another constant where t_in has a
    # constant check, symbol and type compared.  A variable never clashes.
    width = loads[0][2]
    for r, functor, n in loads:
        if 0 < r <= width:
            s = regs[r]
            ts = type(s)
            if ts is Constant or ts is Compound and (
                s.functor != functor or len(s.args) != n
            ):
                return True
    for r, c in consts:
        if r <= width:
            s = regs[r]
            ts = type(s)
            if ts is Compound or ts is Constant and (
                s.symbol != c or type(s.symbol) is not type(c)
            ):
                return True
    return False


def unify_unit(code, x, bind, trail):
    """The compiled unit clause resolved against x under the store: the
    output term, or the bare argument tuple of a ⟨⟩ output, or None when
    x does not unify with the input.  x is a term or such a bare tuple,
    read under the store.

    The unit's variables are fresh for each call, as if the clause were
    renamed apart.  A load reads its register through the store where it
    holds a variable: a compound is checked and its arguments loaded (read
    mode); an unbound variable is bound to the functor over fresh
    variables, which become the argument registers (write mode).  Constants
    and ground subterms bind an unbound variable too.  At a variable's
    first occurrence an unbound subject variable is bound to a fresh
    variable named after the unit's; a repeated variable is unified, occurs
    check included, with the subject side on the left.  The variables of
    the output absent from the input are made fresh once, into their
    registers, and the output is built from the registers by _build, as
    match mode builds it off the usual case, not resolved: it means what
    it says only under the store.  An identity unit's output is register
    0, the subject as read.  On failure every binding this call made is
    undone.  Up to renaming, resolved(box(output), bind) equals the
    reference: rename_many, unify, then Subst.apply.

    Where t_in is a ⟨⟩ and the root load reads one, each root argument
    that t_in fixes is tested before anything else: a compound or a
    constant of the subject there that clashes with t_in's load (functor
    and arity) or constant (symbol and symbol type) returns None at once
    (_root_clash).  So a rejected subject makes no binding and no
    variable, and the store and trail are as they were.

    A unit of at most _MAX_REGISTERS registers runs its shape's generated
    unify function, this register loop unrolled: the same bindings in the
    same order, and the same variables, made in the same order under the
    same names, and none of either on a rejected subject.  There the root
    tests are the only test of a root argument that the subject fills with
    a compound or a constant, and only a variable there is read through
    the store; each fresh variable is made in place, with the name and
    serial Variable() would give it.  A ⟨⟩ at the root of t_out is not
    built, and its argument tuple is returned.  A larger unit runs the
    loop on box(x) and returns a term.  The reference
    would give the same answers there but binds every variable of the
    renamed clause in the store, where the loop binds only subject
    variables: on the generated definite goal
    p0(f(G0), g(g(a,G0), g(G0,a)), G0) it made 800 bindings in 200 unit
    calls against the loop's 1, and its 400-step budget took 2.1 s against
    2.5 ms.
    """
    shape = code[11]
    if shape is not None:
        return _UNIFIERS[shape](x, code, bind, trail)
    return _unify_loop(code, x, bind, trail)


def _unify_loop(code, x, bind, trail):
    # unify_unit's register loop, for any compiled unit.
    (
        loads, checked, consts, grounds, sames, tail, build, out, n_open,
        firsts, names, _, _,
    ) = code
    mark = len(trail)
    get = bind.get
    made = None  # the serial of the first variable this call makes
    regs = [box(x)]
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
            if (
                not r
                and functor == TUPLE_FUNCTOR
                and _root_clash(loads, consts, regs)
            ):
                return None
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


# The globals of every generated function, match and unify.
_GENERATED_GLOBALS = {
    "Compound": Compound,
    "Constant": Constant,
    "Variable": Variable,
    "_new": _new_object,
    "_serial": _serials.__next__,
    "_box": box,
    "_struct_eq": _struct_eq,
    "_finish": _finish,
    "_unify_bound": _unify_bound,
    "_unify_loop": _unify_loop,
    "untrail": untrail,
}
