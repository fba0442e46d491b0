"""Shared test infrastructure: the evaluation corpus's pipelines (its goals
are in corpus.py) and an independent first-answer step counter."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass

import pytest
from corpus import CORPUS_GOALS, CORPUS_RUNS, DEFINITE_FIXTURES, MODED_FIXTURES

from chainform.chainir import compile_to_registry
from chainform.fixtures import load_fixture
from chainform.oracle import canonical_answer
from chainform.syntax import parse_goal
from chainform.forms import analyse_moded
from chainform.terms import (
    Compound,
    Constant,
    Variable,
    canonical,
    match,
    rename_many,
    unify,
)
from chainform.session import convert
from chainform.transform import _identity_grouping, _pass_on, compile_goal


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


def clause_count_law(p) -> int:
    """Expected transformed clause count: 1 per unit clause, n + 2 per
    clause with n body atoms."""
    return sum(1 if c.is_unit else len(c.body) + 2 for c in p.clauses)


def pass_on_sets_moded(clause, program):
    """Per-seam pass-on sets of a moded clause, as the moded conversion
    computes them from the clause's source and sink groups."""
    return _pass_on(analyse_moded(0, clause, program))


def pass_on_sets_definite(clause):
    """Per-seam pass-on sets of a clause, as the definite conversion
    computes them over the identity grouping."""
    return _pass_on(_identity_grouping(clause))


def long_body_text(n):
    """q(a,a) and one clause p(X0,Xn) :- q(X0,X1), ..., q(Xn-1,Xn): a body
    of n atoms, each sharing a variable with the next."""
    body = ", ".join("q(X%d,X%d)" % (i, i + 1) for i in range(n))
    return "q(a,a).\np(X0,X%d) :- %s.\n" % (n, body)


def same_answer_sequence(xs, ys):
    """Element-for-element agreement; unify-mode answers carry fresh
    variables, so compare canonical forms (identity on ground answers)."""
    return [canonical(x) for x in xs] == [canonical(y) for y in ys]


@dataclass
class Pipeline:
    """A fixture compiled end to end for one transform mode."""

    fixture: str
    mode: str  # 'moded' or 'definite'
    uni: str  # 'match' or 'unify'
    source: object
    chain: object
    registry: object

    def plan(self, goal_text):
        return compile_goal(parse_goal(goal_text), self.chain, self.mode)

    def goals(self):
        return CORPUS_GOALS[self.fixture]


def build_pipeline(name, mode):
    """The fixture under the given conversion, run in that conversion's own
    kernel (match for moded, unify for definite), whatever Session.plan
    would pick: every definite pipeline exercises unify mode."""
    source = load_fixture(name)
    chain, _ = convert(source, mode)
    uni = "match" if mode == "moded" else "unify"
    return Pipeline(name, mode, uni, chain=chain, source=source,
                    registry=compile_to_registry(chain))


def corpus_pipelines():
    """A pipeline for each of corpus.CORPUS_RUNS."""
    return [build_pipeline(name, mode) for name, mode in CORPUS_RUNS]


@pytest.fixture(scope="session")
def pipelines():
    return corpus_pipelines()


# CPython's default recursion limit.
DEFAULT_RECURSION_LIMIT = 1000


@contextmanager
def recursion_limit(limit):
    """Run the body at the given recursion limit, restoring the old one."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


@pytest.fixture
def default_recursion_limit():
    """Run the test at the interpreter's default recursion limit, whatever
    the limit of the test process is."""
    with recursion_limit(DEFAULT_RECURSION_LIMIT):
        yield


def decoded_canonical(pipeline, goal_text, answers):
    """Decode engine answers and canonicalize them for comparison with the
    reference resolution."""
    plan = pipeline.plan(goal_text)
    goal = plan.goal
    return [canonical_answer(goal, s) for s in plan.decode_all(answers)]


def oracle_canonical(pipeline, goal_text, depth_budget=10_000):
    from chainform.oracle import sld_solve

    goal = parse_goal(goal_text)
    result = sld_solve(pipeline.source, goal, depth_budget)
    assert not result.truncated, "oracle run truncated; raise the budget"
    return [canonical_answer(goal, a.bindings) for a in result.answers]


class BudgetCut(Exception):
    """counted_search was given a budget and a selection would pass it;
    answers holds the answers found before."""

    def __init__(self, answers):
        super().__init__("budget cut after %d answers" % len(answers))
        self.answers = answers


def pass_through_predicates(registry):
    """The predicates the engines take as pass-through seams, decided here
    from the unit's terms: in a registry that records its entry predicates
    (one built from a conversion), a predicate that is not one of them,
    whose one clause is a unit t -> t with t a compound over distinct
    variables."""
    if registry.entry is None:
        return frozenset()
    out = set()
    for q, labels in registry.defn.items():
        if q in registry.entry or len(labels) != 1:
            continue
        t_in, t_out = registry.unit.get(labels[0], (None, None))
        if (
            type(t_in) is Compound
            and t_in.args
            and all(type(v) is Variable for v in t_in.args)
            and len(set(t_in.args)) == len(t_in.args)
            and t_in == t_out
        ):
            out.add(q)
    return frozenset(out)


def counted_search(
    registry, x, qs, uni, first_only=False, pending=None, budget=None,
    passes=None, depths=None,
):
    """Independent instrumented search: depth-first, definition order.
    Returns the answers (at most one with first_only), the composition steps
    and the unit resolutions attempted and succeeded, each counted across
    all branches explored.  Given a list as pending, it appends for each
    answer the number of selections on that answer's derivation that took
    an alternative other than their predicate's last.  Given a list as
    passes, it appends (label, term) for each attempt at a pass-through
    seam (pass_through_predicates) that a clause body pushed, which the
    engines make without running the unit; a seam that qs itself holds
    runs.  Given a list as depths, it appends for each answer the number
    of selections of the registry's entry predicates on that answer's
    derivation, its depth in source clauses.  Given a budget, it raises
    BudgetCut at the selection that would make one step more.  Kept free of
    the engines module on purpose."""
    steps = attempted = succeeded = 0
    answers = []
    seams = pass_through_predicates(registry) if passes is not None else ()
    entry = registry.entry if depths is not None else ()

    def resolve(label, t):
        nonlocal attempted, succeeded
        attempted += 1
        t_in, t_out = registry.unit[label]
        if uni == "match":
            s = match(t_in, t)
            y = None if s is None else s.apply(t_out)
        else:
            r_in, r_out = rename_many((t_in, t_out))
            s = unify(t, r_in)
            y = None if s is None else s.apply(r_out)
        succeeded += y is not None
        return y

    def search(t, k, open_, depth, goal):
        # True when the search is to stop.  open_ counts the selections on
        # this branch that have alternatives left, depth its selections of
        # entry predicates, and goal the entries at the end of k that come
        # from qs rather than from a clause body.
        nonlocal steps
        if not k:
            answers.append(t)
            if pending is not None:
                pending.append(open_)
            if depths is not None:
                depths.append(depth)
            return first_only
        if steps == budget:
            raise BudgetCut(answers)
        steps += 1
        labels = registry.defn[k[0]]
        if k[0] in seams and len(k) > goal:
            passes.append((labels[0], t))
        depth += k[0] in entry
        goal = min(goal, len(k) - 1)
        for j, label in enumerate(labels):
            more = open_ + (j < len(labels) - 1)
            if label in registry.isunit:
                y = resolve(label, t)
                if y is not None and search(y, k[1:], more, depth, goal):
                    return True
            elif search(t, registry.nonunit[label] + k[1:], more, depth, goal):
                return True
        return False

    search(x, tuple(qs), 0, 0, len(qs))
    return answers, steps, (attempted, succeeded)


def first_answer_steps(registry, x, qs, uni):
    """The first answer (None when there is none) and the composition steps
    spent finding it, by counted_search."""
    answers, steps, _ = counted_search(registry, x, qs, uni, first_only=True)
    return (answers[0] if answers else None), steps
