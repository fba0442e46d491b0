"""Deterministic metainterpreters over a registry.

The paper formulates one traversal five ways: alternatives in definition
order, depth first, continuation major.  Answer lists are multisets in that
order (duplicates are kept; alternative results are concatenated, not
merged).  The formulations agree element for element; in unify mode answers
may contain variables introduced by renaming, so cross-engine comparison is
up to a bijective renaming of those (terms.canonical normalizes them away).

* eval_abcde evaluates term-list against continuation-list compositions by
  structural recursion: decompose the term list, decompose the continuation,
  look up the predicate's alternatives, fold them with concatenation,
  dispatch on unit versus non-unit, and resolve unit clauses.
* eval_continuation threads an explicit continuation list instead of mapping
  answer lists back through the remaining composition.
* eval_stream evaluates a stream of terms that share a stack component,
  answering each in turn under one budget.  A compiled unit holds the stack
  in one register and hands it to its output by reference, so only
  stack-switching unit steps touch it.
* enumerate_prolog produces answers one at a time under caller control
  (resume or halt), abandoning all remaining alternatives on halt.
* eval_bounded constructs at most one proof and reports the number of
  composition steps spent across every branch explored on the way.

All five are views over one loop, _search, which makes the traversal's state
explicit: a stack of choice points, and the continuation as a cons list, so
no formulation recurses in Python and none copies the continuation.

Clause selection reads one dispatch table, kept on the registry
(Registry.dispatch) and filled on each predicate's first selection, so every
goal over one registry shares it, in either evaluation mode.  It maps a
predicate to its alternatives: a non-unit clause's body, reversed, or a unit
clause compiled once by units.compile_unit.  A non-unit clause whose body
starts with a predicate that one unit clause defines, as every clause of
both conversions starts with its h_0, carries that unit compiled and the
rest of its body: taking the clause applies the unit at once, as the
selection of its first predicate would, and spends that selection's
budget step, so the counts and the budget's exhaustion point are those of
the unfolded search.  As in the WAM, where a predicate of one clause is
compiled with no try/retry/trust, the body is resolved when the entry is
filled (see _Run.resolve): a body predicate that one unit clause alone
defines, such as each later h_j of both conversions, is pushed as that
unit compiled, and its step applies the unit with no table lookup,
alternatives or trail mark.  A pass-through seam, a restructuring unit
h_j of a conversion that is a pure identity such as nrev's
⟨St,R⟩ -> ⟨St,R⟩, is pushed as SEAM: its step is spent and the unit is
never run.  A predicate selected by name, as the first of a goal's
continuation is, always runs its clauses, so such h_j get no entry.  A
choice point holds an index into a predicate's alternatives and is
pushed only while an alternative after the one taken remains: a
predicate's only or last alternative leaves none, so deterministic
recursion runs in constant choice-stack space.

Unit resolution runs that one compiled form in one of two ways.  In match
mode (for ground evaluation over G-chain programs) the query term is matched
one-way against the unit input by units.run_unit, bound here as match,
which calls its shape's entry in units' match table: the straight-line
match function generated for the shape, or, for a unit over units'
_MAX_REGISTERS, whose shape is units' _OVER_CAP, the reference matcher
terms.match and Subst.apply; the function is made at the first
match-mode attempt of a unit of that shape and shared by every unit of
that shape, in every registry.  In unify mode units.unify_unit, bound
here as unify, unifies the query term with the unit input over the run's
binding store and trail, as if the unit were renamed apart, so query
variables stay stable for the goal decoder; it calls its shape's entry in
units' unify table: the straight-line unify function generated for the
shape, made at the first unify-mode attempt of a unit of that shape, or,
over the cap, unify_unit's register loop, which that function unrolls.
Each choice point records the trail's length at its predicate's
selection, and resuming it undoes the trail to that mark.  A unit that
builds a ⟨⟩ state returns its bare argument tuple (see the units module):
in match mode when the state is ground, in unify mode always.  The next unit takes it as it is, and a
choice point holds it as it is.  The search boxes an answer once, as it
yields it, and in unify mode then resolves it through the store, so every
engine hands out plain terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .chainir import Registry
from .terms import is_tuple

# Unused here: perfbench's kernel counters wrap these names on this module
# (perfbench/tracing.KERNEL_FUNCTIONS), so they must stay attributes of it.
from .terms import rename_many, term_vars
from .units import box, compile_unit, is_pass_through, resolved, untrail

# A compiled unit applied to a term, or None.  The engines call these by
# their module-level names once per unit attempt, match in match mode and
# unify in unify mode, resolved body entries included, so that one wrapper
# on chainform.engines.match or chainform.engines.unify sees every attempt
# (perfbench counts them so); a pass-through seam is no attempt, as it
# runs no unit.
from .units import run_unit as match
from .units import unify_unit as unify

DEFAULT_BUDGET = 10**6

# What a clause body pushes for a pass-through seam (see _Run.resolve): its
# step is spent and nothing is run.
SEAM = ()

MATCH = "match"
UNIFY = "unify"


class BudgetExceededError(RuntimeError):
    """The step budget ran out; distinct from finite failure."""

    def __init__(self, budget):
        super().__init__("step budget exhausted after %d composition steps" % budget)
        self.budget = budget


@dataclass
class BoundedResult:
    answer: Optional[object]  # None means no answer exists
    resource: int


class _Run:
    """Shared state of one evaluation: the registry's dispatch table, the
    binding store and trail of unify mode, and the composition-step
    budget."""

    __slots__ = ("reg", "matching", "table", "remaining", "budget", "bind", "trail")

    def __init__(self, reg: Registry, uni: str, budget: int):
        if uni not in (MATCH, UNIFY):
            raise ValueError("uni must be 'match' or 'unify'")
        if budget < 0:
            raise ValueError("budget must be non-negative, got %d" % budget)
        self.reg = reg
        self.matching = uni == MATCH
        # Shared by every run over reg, in either mode: see alternatives.
        self.table = reg.dispatch
        self.budget = budget
        self.remaining = budget
        # Variable serial -> term, and the serials bound, oldest first.  Both
        # stay empty in match mode.
        self.bind = {}
        self.trail = []

    def alternatives(self, q):
        """q's alternatives in definition order, as the search takes them:
        (label, None, compiled unit) for a unit clause, and for a non-unit
        clause either (label, body reversed, None) or, when the body's first
        predicate is defined by exactly one clause and that clause is a
        unit, (label, the rest of the body reversed, that unit compiled).
        Every h_0 of both conversions is such a predicate, so each clause's
        first restructuring unit is applied as part of taking the clause.

        The pushed body is resolved here, once (see resolve): a body
        predicate that one unit clause alone defines is pushed as that unit
        compiled, and a pass-through seam as SEAM, so the search takes
        neither by name.  A predicate selected by name, as the first of a
        goal's continuation is, always runs its clauses.

        The search never reads the label; it names the clause a choice
        point will resume.  Made on q's first selection and kept in the
        table."""
        reg = self.reg
        try:
            labels = reg.defn[q]
        except KeyError:
            raise LookupError("no definition for predicate %r" % q) from None
        alts = []
        for label in labels:
            if label in reg.isunit:
                alts.append((label, None, compile_unit(*reg.unit[label])))
                continue
            body = reg.nonunit[label]
            rest = tuple(map(self.resolve, body[:0:-1]))
            # Read from defn and isunit, not from the first predicate's own
            # alternatives, so a left-recursive clause cannot recurse here.
            first = reg.defn.get(body[0], ())
            if len(first) == 1 and first[0] in reg.isunit:
                alts.append((label, rest, compile_unit(*reg.unit[first[0]])))
            else:
                alts.append((label, rest + (body[0],), None))
        alts = self.table[q] = tuple(alts)
        return alts

    def resolve(self, p):
        """Body predicate p as a clause body pushes it: SEAM at a
        pass-through seam, else the unit compiled when one unit clause
        alone defines p, else p's name, which the search looks up when it
        selects it.  Undefined and declared-empty predicates stay names, so
        they raise or fail at their selection, as they would unresolved.

        A pass-through seam is a restructuring predicate h_j of a
        conversion (in a registry that records its entry predicates, one
        that is not among them) whose one clause is a unit compiled to a
        pure identity (units.is_pass_through), such as nrev's
        ⟨St,R⟩ -> ⟨St,R⟩.  Its step is spent and no unit is run.  This is
        safe in a clause body, and only there: in both conversions the
        subject at a seam h_j past h_0 of a body is an answer of the body
        predicate before it, so the output of a unit: a tuple that unit
        built, ⟨stack, that predicate's output group⟩, or one an identity
        passed on unchanged.  The seam unit's t_in is ⟨σ_j, the same
        group⟩, of the same width, so an identity over distinct variables
        always succeeds on it and returns it: in match mode the subject
        itself, in unify mode the subject with its unbound variables bound
        to fresh ones, the same answer up to renaming.  Skipping the unit
        changes no answer, step, budget exhaustion point or eval_bounded
        resource; only the kernel sees fewer attempts.  A registry built by
        hand records no entry predicates, so each of its units runs."""
        reg = self.reg
        labels = reg.defn.get(p, ())
        if len(labels) != 1 or labels[0] not in reg.isunit:
            return p
        unit = compile_unit(*reg.unit[labels[0]])
        if reg.entry is not None and p not in reg.entry and is_pass_through(unit):
            return SEAM
        return unit


# ---------------------------------------------------------------------------
# The search core.


def _search(run, x, qs):
    """Answers of x composed through qs, one at a time, in traversal order.

    The continuation is a cons list of (predicate, rest) pairs ending in
    None, so a clause body is prepended in O(|body|).  Each composition step
    spends one unit of the run's budget and takes the first entry of the
    continuation.  A predicate's name selects its alternatives from the
    run's dispatch table, as (label, body reversed or None, compiled unit
    or None) triples.  They are taken in order: a unit clause is applied to
    the term by one call of the module-level match or unify, a non-unit
    clause prepends its body to rest, and a clause with its first unit
    folded in spends one more step, applies the unit the same way and
    prepends the rest of its body.  A unit that fails moves on to the next
    alternative, just as the unfolded search, its first predicate failing,
    would resume the choice point that taking the clause pushed.  When an
    alternative is taken and another follows it, a choice point (term,
    rest, alternatives, index of that next one, trail length at the
    selection) is pushed; the only or last alternative is taken with none,
    so deterministic recursion keeps the choice stack flat.  An entry that
    a body resolved (_Run.resolve) is taken with no lookup, alternatives or
    trail mark: a compiled unit is applied the same way and the search goes
    on with rest, or, when it fails, resumes the newest choice point; SEAM
    only spends the step.  Resuming a choice point first undoes the trail
    to its mark.  In either mode the term between steps, and a choice
    point's, may be the bare argument tuple of a ⟨⟩ (units.run_unit,
    units.unify_unit); an answer is boxed (units.box) once, as it is
    yielded, and in unify mode then resolved through the binding store.
    """
    table = run.table
    matching = run.matching
    bind = run.bind
    trail = run.trail
    ks = None
    for q in reversed(qs):
        ks = (q, ks)
    choices = []
    i = n = 0
    # The budget left, kept here and written back to the run whenever the
    # caller can see it: at each answer, and when the search ends, raises
    # or is closed.
    remaining = run.remaining
    try:
        while True:
            if ks is None:
                run.remaining = remaining
                x = box(x)
                yield x if matching else resolved(x, bind)
                n = 0
            else:
                if remaining <= 0:
                    raise BudgetExceededError(run.budget)
                remaining -= 1
                q, rest = ks
                if type(q) is not str:
                    # Resolved by a body: a unit clause's only alternative.
                    ks = rest
                    if q is SEAM:
                        continue
                    if matching:
                        y = match(q, x)
                    else:
                        y = unify(q, x, bind, trail)
                    if y is not None:
                        x = y
                        continue
                    n = 0
                else:
                    try:
                        alts = table[q]
                    except KeyError:
                        alts = run.alternatives(q)
                    y = x
                    i = 0
                    n = len(alts)
                    # The trail stays empty in match mode, which then never
                    # asks for its length.
                    mark = len(trail) if trail else 0
            # Take alternative i of n, or the first after it that applies,
            # else resume the newest choice point; the search ends when none
            # is left.
            while True:
                if i < n:
                    _, body, unit = alts[i]
                    i += 1
                    if unit is None:
                        x = y
                        ks = rest
                        for q in body:
                            ks = (q, ks)
                    else:
                        if body is not None:
                            # A folded clause: this is the selection of its
                            # body's first predicate, one step of its own.
                            if remaining <= 0:
                                raise BudgetExceededError(run.budget)
                            remaining -= 1
                        if matching:
                            # The kernel by its module-level name, looked
                            # up at each attempt: see match.
                            x = match(unit, y)
                        else:
                            x = unify(unit, y, bind, trail)
                        if x is None:
                            continue
                        ks = rest
                        if body:
                            for q in body:
                                ks = (q, ks)
                    if i < n:
                        choices.append((y, rest, alts, i, mark))
                    break
                if not choices:
                    return
                y, rest, alts, i, mark = choices.pop()
                n = len(alts)
                if trail and len(trail) > mark:
                    untrail(bind, trail, mark)
    finally:
        run.remaining = remaining


def eval_abcde(x, qs, r: Registry, uni: str = MATCH, budget: int = DEFAULT_BUDGET):
    """All answers of x composed through qs, in traversal order: the
    answers of each alternative of qs[0], concatenated in definition order,
    each composed through qs[1:]."""
    run = _Run(r, uni, budget)
    return list(_search(run, x, qs))


def eval_continuation(
    x, qs, r: Registry, uni: str = MATCH, budget: int = DEFAULT_BUDGET
):
    """Same answer list as eval_abcde, computed with an explicit
    continuation list: a non-unit clause prepends its body to the pending
    continuations instead of producing intermediate answer lists."""
    return eval_abcde(x, qs, r, uni, budget)


# ---------------------------------------------------------------------------
# Stream-based evaluator: a stream of terms over one shared stack.


def eval_stream(
    sigma, xs, qs, r: Registry, uni: str = MATCH, budget: int = DEFAULT_BUDGET
):
    """eval_abcde's answers for each term of xs in turn, concatenated, with
    one budget for the whole stream.

    Every term of xs must be a tuple carrying sigma as its stack component.
    A compiled unit holds the stack in one register and hands it to its
    output by reference, so the stack is only touched at stack-switching
    unit steps.
    """
    run = _Run(r, uni, budget)
    out = []
    for x in xs:
        if not (is_tuple(x) and x.args and x.args[0] == sigma):
            raise ValueError("term %r does not carry the shared stack" % (x,))
        # A search leaves the bindings of its last derivation in the store:
        # the last alternative taken pushed no choice point to undo them.
        untrail(run.bind, run.trail, 0)
        out.extend(_search(run, x, qs))
    return out


# ---------------------------------------------------------------------------
# One-answer-at-a-time enumerator with caller-controlled halt.


class Enumeration:
    """Resumable answer producer.

    next() runs the search up to the next answer (or exhaustion, returning
    None); halt() abandons every remaining alternative without exploring it.
    steps counts composition steps performed so far, so tests can observe
    that a halted enumeration does no further work.
    """

    def __init__(self, run, x, qs):
        self._run = run
        self._gen = _search(run, x, qs)

    @property
    def steps(self):
        return self._run.budget - self._run.remaining

    def next(self):
        # A generator that has returned, raised or been closed stays done.
        return next(self._gen, None)

    def halt(self):
        self._gen.close()

    def __iter__(self):
        return self._gen


def enumerate_prolog(
    x, qs, r: Registry, uni: str = MATCH, budget: int = DEFAULT_BUDGET
) -> Enumeration:
    """Lazy depth-first enumeration; run to exhaustion it yields exactly
    eval_abcde's answer list."""
    return Enumeration(_Run(r, uni, budget), x, qs)


# ---------------------------------------------------------------------------
# Bounded-resource evaluator: first answer plus step count.


def eval_bounded(
    x, qs, r: Registry, uni: str = MATCH, budget: int = DEFAULT_BUDGET
) -> BoundedResult:
    """The head of eval_abcde's answer list (or no answer), together with
    the number of composition steps spent finding it, failed branches
    included.  Only composition steps count; answer emission is free."""
    enum = enumerate_prolog(x, qs, r, uni, budget)
    answer = enum.next()
    return BoundedResult(answer, enum.steps)
