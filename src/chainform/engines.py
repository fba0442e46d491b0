"""Four deterministic metainterpreters over a registry.

All four traverse the same search space: alternatives in definition order,
depth first, continuation major.  Answer lists are multisets in that order
(duplicates are kept; alternative results are concatenated, not merged).
The engines agree element for element; in unify mode answers may contain
variables introduced by renaming, so cross-engine comparison is up to a
bijective renaming of those (terms.canonical normalizes them away).

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

Unit resolution has two variants.  In match mode (for ground evaluation over
G-chain programs) the query term is matched one-way against the unit input.
In unify mode the unit clause is renamed apart from the query term and fully
unified with it, so query variables stay stable for the goal decoder.
"""

from __future__ import annotations

import sys
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

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

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


def _check_uni(uni):
    if uni not in (MATCH, UNIFY):
        raise ValueError("uni must be 'match' or 'unify'")


class _Run:
    """Shared state of one evaluation: registry access, unit resolution,
    and the composition-step budget."""

    __slots__ = ("reg", "uni", "remaining", "budget")

    def __init__(self, reg: Registry, uni: str, budget: int):
        _check_uni(uni)
        self.reg = reg
        self.uni = uni
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
        if self.uni == MATCH:
            s = match(t, x)
            return None if s is None else s.apply(t_out)
        rt, rt_out = rename_many((t, t_out))
        s = unify(x, rt)
        return None if s is None else s.apply(rt_out)


# ---------------------------------------------------------------------------
# Exhaustive evaluator, structural recursion over both lists.


def eval_abcde(x, qs, r: Registry, uni: str = MATCH, budget: int = DEFAULT_BUDGET):
    """All answers of x composed through qs, in traversal order."""
    run = _Run(r, uni, budget)
    return _a_list(run, [x], tuple(qs))


def _a_list(run, xs, qs):
    # Term-list case: answers of each term, concatenated.
    out = []
    for x in xs:
        out.extend(_a_one(run, x, qs))
    return out


def _a_one(run, x, qs):
    # Continuation case: empty composition is the identity.
    if not qs:
        return [x]
    run.tick()
    ys = _b_pred(run, x, qs[0])
    return _a_list(run, ys, qs[1:])


def _b_pred(run, x, q):
    return _c_alts(run, x, run.alternatives(q))


def _c_alts(run, x, labels):
    out = []
    for label in labels:
        out.extend(_d_clause(run, x, label))
    return out


def _d_clause(run, x, label):
    if label in run.reg.isunit:
        y = run.resolve_unit(label, x)
        return [] if y is None else [y]
    return _a_one(run, x, run.reg.nonunit[label])


# ---------------------------------------------------------------------------
# Continuation-based evaluator.


def eval_continuation(
    x, qs, r: Registry, uni: str = MATCH, budget: int = DEFAULT_BUDGET
):
    """Same answer list as eval_abcde, computed with an explicit
    continuation list: a non-unit clause prepends its body to the pending
    continuations instead of producing intermediate answer lists."""
    run = _Run(r, uni, budget)
    return _ca_one(run, x, tuple(qs))


def _ca_one(run, x, qs):
    if not qs:
        return [x]
    run.tick()
    return _ca_alts(run, x, run.alternatives(qs[0]), qs[1:])


def _ca_alts(run, x, labels, qs):
    out = []
    for label in labels:
        out.extend(_ca_clause(run, x, label, qs))
    return out


def _ca_clause(run, x, label, qs):
    if label in run.reg.isunit:
        y = run.resolve_unit(label, x)
        return [] if y is None else _ca_one(run, y, qs)
    return _ca_one(run, x, run.reg.nonunit[label] + qs)


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
    out = []
    for x in xs:
        if not (is_tuple(x) and x.args and x.args[0] == sigma):
            raise ValueError("term %r does not carry the shared stack" % (x,))
        out.extend(_st_one(run, sigma, mk_tuple(x.args[1:]), tuple(qs)))
    return out


def _preserves_stack(t_in, t_out):
    # A unit clause of the shape (stack | payload) -> (same stack variable |
    # payload), with the stack variable absent from both payloads.
    if not (is_tuple(t_in) and is_tuple(t_out) and t_in.args and t_out.args):
        return False
    st = t_in.args[0]
    if type(st) is not Variable or t_out.args[0] != st:
        return False
    payload_vars = set()
    for part in (*t_in.args[1:], *t_out.args[1:]):
        payload_vars.update(term_vars(part))
    return st not in payload_vars


def _st_one(run, sigma, payload, qs):
    if not qs:
        return affix(sigma, [payload])
    run.tick()
    out = []
    for label in run.alternatives(qs[0]):
        if label not in run.reg.isunit:
            out.extend(_st_one(run, sigma, payload, run.reg.nonunit[label] + qs[1:]))
            continue
        t_in, t_out = run.reg.unit[label]
        if _preserves_stack(t_in, t_out):
            y = _resolve_stripped(run, t_in, t_out, payload)
            if y is not None:
                out.extend(_st_one(run, sigma, y, qs[1:]))
        else:
            y_full = run.resolve_unit(label, mk_tuple((sigma, *payload.args)))
            if y_full is not None:
                if not (is_tuple(y_full) and y_full.args):
                    raise ValueError(
                        "unit %r broke the stack convention: %r" % (label, y_full)
                    )
                out.extend(
                    _st_one(
                        run,
                        y_full.args[0],
                        mk_tuple(y_full.args[1:]),
                        qs[1:],
                    )
                )
    return out


def _resolve_stripped(run, t_in, t_out, payload):
    stripped_in = mk_tuple(t_in.args[1:])
    stripped_out = mk_tuple(t_out.args[1:])
    if run.uni == MATCH:
        s = match(stripped_in, payload)
        return None if s is None else s.apply(stripped_out)
    rt_in, rt_out = rename_many((stripped_in, stripped_out))
    s = unify(payload, rt_in)
    return None if s is None else s.apply(rt_out)


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
        self._gen = self._search(x, tuple(qs))
        self._exhausted = False

    @property
    def steps(self):
        return self._run.budget - self._run.remaining

    def _search(self, x, qs):
        if not qs:
            yield x
            return
        self._run.tick()
        for label in self._run.alternatives(qs[0]):
            if label in self._run.reg.isunit:
                y = self._run.resolve_unit(label, x)
                if y is not None:
                    yield from self._search(y, qs[1:])
            else:
                yield from self._search(x, self._run.reg.nonunit[label] + qs[1:])

    def next(self):
        if self._exhausted:
            return None
        try:
            return next(self._gen)
        except StopIteration:
            self._exhausted = True
            return None

    def halt(self):
        self._gen.close()
        self._exhausted = True

    def __iter__(self):
        while True:
            answer = self.next()
            if answer is None:
                return
            yield answer


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
    run = _Run(r, uni, budget)
    answer, resource = _bd_one(run, x, tuple(qs))
    return BoundedResult(answer, resource)


def _bd_one(run, x, qs):
    if not qs:
        return x, 0
    run.tick()
    z, steps = _bd_alts(run, x, run.alternatives(qs[0]), qs[1:])
    return z, steps + 1


def _bd_alts(run, x, labels, qs):
    if not labels:
        return None, 0
    y, steps = _bd_clause(run, x, labels[0], qs)
    if y is not None:
        return y, steps
    z, more = _bd_alts(run, x, labels[1:], qs)
    return z, steps + more


def _bd_clause(run, x, label, qs):
    if label in run.reg.isunit:
        y = run.resolve_unit(label, x)
        if y is None:
            return None, 0
        return _bd_one(run, y, qs)
    return _bd_one(run, x, run.reg.nonunit[label] + qs)


ENGINES = {
    "abcde": eval_abcde,
    "continuation": eval_continuation,
    "stream": eval_stream,
    "bounded": eval_bounded,
}
