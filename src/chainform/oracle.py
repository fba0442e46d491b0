"""Reference semantics: depth-bounded SLD resolution with the leftmost
computation rule, run directly on the source program.

This module validates the conversions and the engines, so it deliberately
shares nothing with them beyond the term kernel.  Resolution keeps the
remaining goal list fully instantiated (every unifier is applied eagerly),
which makes answer extraction a simple zip against the goal's variables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Goal, SourceProgram
from .terms import Subst, canonical, mk_tuple, rename_many, term_vars, unify


@dataclass
class OracleAnswer:
    bindings: dict  # goal variable -> term
    depth: int  # number of resolution steps in the derivation


@dataclass
class OracleResult:
    answers: list
    truncated: bool  # some branch was cut off by the depth budget


def sld_solve(p: SourceProgram, g: Goal, depth_budget: int = 10_000) -> OracleResult:
    """All answers of the goal, depth-first, leftmost selection, clauses
    tried in program order.  Branches deeper than depth_budget are cut and
    flagged, never raised."""
    if depth_budget < 0:
        raise ValueError("depth_budget must be non-negative")
    index = {}
    for clause in p.clauses:
        key = (clause.head.functor, len(clause.head.args))
        index.setdefault(key, []).append(clause)

    goal_vars = term_vars(g.atom)
    answers = []
    truncated = False
    # Each node is (goal atoms, goal variables' instance, steps so far); the
    # children of a node are pushed in reverse, so they pop in clause order.
    nodes = [((g.atom,), mk_tuple(goal_vars), 0)]
    while nodes:
        atoms, answer_shape, used = nodes.pop()
        if not atoms:
            answers.append(
                OracleAnswer(dict(zip(goal_vars, answer_shape.args)), used)
            )
            continue
        if used >= depth_budget:
            truncated = True
            continue
        selected = atoms[0]
        rest = atoms[1:]
        children = []
        for clause in index.get(
            (selected.functor, len(selected.args)), ()
        ):
            head, *body = rename_many((clause.head, *clause.body))
            s = unify(head, selected)
            if s is None:
                continue
            children.append(
                (
                    tuple(s.apply(b) for b in body)
                    + tuple(s.apply(r) for r in rest),
                    s.apply(answer_shape),
                    used + 1,
                )
            )
        nodes.extend(reversed(children))
    return OracleResult(answers, truncated)


def canonical_answer(goal: Goal, bindings) -> object:
    """The goal atom under the bindings, variables canonically renumbered.
    Alpha-equivalent answers become equal terms, so answer multisets can be
    compared directly."""
    if isinstance(bindings, dict):
        bindings = Subst(bindings)
    return canonical(bindings.apply(goal.atom))
