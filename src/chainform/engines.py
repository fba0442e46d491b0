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
* eval_stream keeps the shared stack prefix as a separate parameter and only
  touches it at stack-switching unit steps; the affix operator reattaches it.
* enumerate_prolog produces answers one at a time under caller control
  (resume or halt), abandoning all remaining alternatives on halt.
* eval_bounded constructs at most one proof and reports the number of
  composition steps spent across every branch explored on the way.

All five are views over one loop, _search, which makes the traversal's state
explicit: a stack of choice points, and the continuation as a cons list, so
no formulation recurses in Python and none copies the continuation.

Unit resolution has two variants.  In match mode (for ground evaluation over
G-chain programs) the query term is matched one-way against the unit input.
In unify mode the unit clause is renamed apart from the query term and fully
unified with it, so query variables stay stable for the goal decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .chainir import Registry
from .terms import (
    Variable,
    cons,
    is_cons,
    is_nil,
    is_tuple,
    match,
    mk_tuple,
    rename_many,
    term_vars,
    unify,
)

DEFAULT_BUDGET = 10**6

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

    @property
    def has_answer(self):
        return self.answer is not None


def _match_unit(t, t_out, x):
    s = match(t, x)
    return None if s is None else s.apply(t_out)


def _unify_unit(t, t_out, x):
    rt, rt_out = rename_many((t, t_out))
    s = unify(x, rt)
    return None if s is None else s.apply(rt_out)


class _Run:
    """Shared state of one evaluation: registry access, unit resolution,
    and the composition-step budget."""

    __slots__ = ("reg", "apply_unit", "remaining", "budget")

    def __init__(self, reg: Registry, uni: str, budget: int):
        if uni not in (MATCH, UNIFY):
            raise ValueError("uni must be 'match' or 'unify'")
        self.reg = reg
        # apply_unit(t_in, t_out, x): the unit clause t_in -> t_out applied to x.
        self.apply_unit = _match_unit if uni == MATCH else _unify_unit
        self.budget = budget
        self.remaining = budget

    def tick(self):
        if self.remaining <= 0:
            raise BudgetExceededError(self.budget)
        self.remaining -= 1

    def alternatives(self, q):
        try:
            return self.reg.defn[q]
        except KeyError:
            raise LookupError("no definition for predicate %r" % q) from None

    def resolve_unit(self, label, x):
        t, t_out = self.reg.unit[label]
        return self.apply_unit(t, t_out, x)


# ---------------------------------------------------------------------------
# The search core.


def _search(run, x, qs, resolve):
    """Answers of x composed through qs, one at a time, in traversal order.

    The continuation is a cons list of (predicate, rest) pairs ending in
    None, so a clause body is prepended in O(|body|).  Each composition step
    ticks the budget and pushes a choice point (state, rest, iterator over
    the predicate's alternatives).  Alternatives are taken one at a time:
    a unit clause is resolved, by resolve(label, state) -> state or None,
    only when the search reaches it, and a non-unit clause prepends its body
    to rest.  A state is a term, except in eval_stream.
    """
    isunit = run.reg.isunit
    nonunit = run.reg.nonunit
    ks = None
    for q in reversed(qs):
        ks = (q, ks)
    choices = []
    while True:
        if ks is None:
            yield x
        else:
            run.tick()
            q, rest = ks
            choices.append((x, rest, iter(run.alternatives(q))))
        # Take the next alternative that applies, from the newest choice
        # point that has one left; the search ends when none has.
        while choices:
            y, rest, alts = choices[-1]
            for label in alts:
                if label not in isunit:
                    x, ks = y, rest
                    for q in reversed(nonunit[label]):
                        ks = (q, ks)
                    break
                x = resolve(label, y)
                if x is not None:
                    ks = rest
                    break
            else:
                choices.pop()
                continue
            break
        else:
            return


def eval_abcde(x, qs, r: Registry, uni: str = MATCH, budget: int = DEFAULT_BUDGET):
    """All answers of x composed through qs, in traversal order: the
    answers of each alternative of qs[0], concatenated in definition order,
    each composed through qs[1:]."""
    run = _Run(r, uni, budget)
    return list(_search(run, x, qs, run.resolve_unit))


def eval_continuation(
    x, qs, r: Registry, uni: str = MATCH, budget: int = DEFAULT_BUDGET
):
    """Same answer list as eval_abcde, computed with an explicit
    continuation list: a non-unit clause prepends its body to the pending
    continuations instead of producing intermediate answer lists."""
    return eval_abcde(x, qs, r, uni, budget)


# ---------------------------------------------------------------------------
# Stream-based evaluator: the stack rides in a separate parameter.


def affix(stack, answers):
    """Prepend a shared stack onto every answer: tuples get it as a new
    first component, lists get it consed on."""
    out = []
    for y in answers:
        if is_tuple(y):
            out.append(mk_tuple((stack, *y.args)))
        elif is_cons(y) or is_nil(y):
            out.append(cons(stack, y))
        else:
            raise ValueError("cannot affix onto %r" % (y,))
    return out


def eval_stream(
    sigma, xs, qs, r: Registry, uni: str = MATCH, budget: int = DEFAULT_BUDGET
):
    """Same answers as eval_abcde on the same terms.

    Every term of xs must be a tuple carrying sigma as its stack component.
    Stack-preserving unit steps are resolved on the stack-less payload, so
    the stack is only attached and detached at stack-switching unit steps.
    """
    run = _Run(r, uni, budget)
    stripped = {}  # unit label -> its stack-less clause, None if it switches

    def resolve(label, state):
        stack, payload = state
        try:
            unit = stripped[label]
        except KeyError:
            unit = stripped[label] = _strip_stack(*r.unit[label])
        if unit is not None:
            y = run.apply_unit(*unit, payload)
            return None if y is None else (stack, y)
        y = run.resolve_unit(label, mk_tuple((stack, *payload.args)))
        if y is None:
            return None
        if not (is_tuple(y) and y.args):
            raise ValueError("unit %r broke the stack convention: %r" % (label, y))
        return y.args[0], mk_tuple(y.args[1:])

    out = []
    for x in xs:
        if not (is_tuple(x) and x.args and x.args[0] == sigma):
            raise ValueError("term %r does not carry the shared stack" % (x,))
        state = (sigma, mk_tuple(x.args[1:]))
        for stack, payload in _search(run, state, qs, resolve):
            out.extend(affix(stack, (payload,)))
    return out


def _strip_stack(t_in, t_out):
    # A unit clause of the shape (stack | payload) -> (same stack variable |
    # payload), with the stack variable absent from both payloads, as the
    # clause on payloads alone; None for any other unit clause.
    if not (is_tuple(t_in) and is_tuple(t_out) and t_in.args and t_out.args):
        return None
    st = t_in.args[0]
    if type(st) is not Variable or t_out.args[0] != st:
        return None
    for part in (*t_in.args[1:], *t_out.args[1:]):
        if st in term_vars(part):
            return None
    return mk_tuple(t_in.args[1:]), mk_tuple(t_out.args[1:])


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
        self._gen = _search(run, x, qs, run.resolve_unit)

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
