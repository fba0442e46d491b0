"""The two constructive conversions to chain form, plus goal compilation.

Both conversions hide pass-on variables (variables bound before a subgoal is
selected and used again after it succeeds) in a list behaving like a stack,
threaded through every predicate as an extra leading tuple component.

Moded conversion, per clause with body atoms q_1..q_n: compute, for every
seam position j, the set of variables that flow across it (bound by a source
group at or before j, used by a sink group at or after j).  Each seam gets a
stack term: the seam's pass-on variables consed onto one fresh stack variable
shared by the whole clause.  The clause becomes one chain clause
h_0, q̂_1, h_1, ..., q̂_n, h_n over the stack-extended predicates, and each
h_j is a fresh unit clause pushing and popping exactly the seam difference.
Unit source clauses collapse to a single stack-preserving unit for the
stack-extended predicate, which keeps the clause counts minimal.

Definite conversion: argument places have no declared roles, so each
predicate's full argument tuple is replicated into both sides of its
stack-extended counterpart (a partial identity).  One pass-on set serves
every seam: all clause variables except those occurring in every atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .chainir import ChainProgram, NonUnit, Unit
from .forms import check_moded, moded_view, sink_groups, source_groups
from .syntax import Goal, SourceClause, SourceProgram
from .terms import (
    NIL,
    Subst,
    Variable,
    fresh_var,
    is_ground,
    is_tuple,
    mk_list,
    mk_tuple,
    term_vars,
    unify,
)


class TransformError(ValueError):
    """The program does not meet the conversion's precondition."""


class GoalError(ValueError):
    """The goal cannot be compiled against this chain program."""


@dataclass
class PassOnProfile:
    """Seam-indexed pass-on variable sets and their stack terms.

    Moded clauses have one entry per seam (n + 2 of them, the outermost two
    always empty); definite clauses have a single entry used at every seam.
    Variables are listed in first-occurrence order over the clause text.
    """

    sets: tuple  # of tuples of Variable
    sigmas: tuple  # of stack terms over stack_var
    stack_var: Variable


def _clause_occurrence_order(clause: SourceClause):
    order = []
    seen = set()
    for atom in (clause.head, *clause.body):
        for v in term_vars(atom):
            if v not in seen:
                seen.add(v)
                order.append(v)
    return order


def _ordered(vset, order):
    return tuple(v for v in order if v in vset)


def _sigma(vs, stack_var):
    return mk_list(vs, stack_var) if vs else stack_var


def _attach(stack_term, group):
    """Prepend a stack onto an argument tuple: the tuple stays flat."""
    return mk_tuple((stack_term, *group.args))


def pass_on_sets_moded(clause: SourceClause, program: SourceProgram) -> PassOnProfile:
    """Per-seam pass-on sets of a moded clause.

    Seam j separates the source groups strictly before it from the sink
    groups at or after it; its pass-on set is the intersection of their
    variable sets.  Seam 0 and seam n+1 are always empty.
    """
    view = moded_view(clause, program)
    sources = [set(term_vars(t)) for t in source_groups(view)]
    sinks = [set(term_vars(t)) for t in sink_groups(view)]
    order = _clause_occurrence_order(clause)
    n = len(view.body)
    stack_var = fresh_var("St")
    sets = []
    for j in range(n + 2):
        before = set().union(*sources[:j]) if j else set()
        after = set().union(*sinks[j:]) if j <= n else set()
        sets.append(_ordered(before & after, order))
    sigmas = tuple(_sigma(vs, stack_var) for vs in sets)
    return PassOnProfile(tuple(sets), sigmas, stack_var)


def pass_on_set_definite(clause: SourceClause) -> PassOnProfile:
    """The single pass-on set of a definite clause: variables of the clause
    minus those occurring in every atom."""
    groups = [set(term_vars(a)) for a in (clause.head, *clause.body)]
    union = set().union(*groups)
    common = groups[0].intersection(*groups[1:]) if len(groups) > 1 else groups[0]
    vs = _ordered(union - common, _clause_occurrence_order(clause))
    stack_var = fresh_var("St")
    return PassOnProfile((vs,), (_sigma(vs, stack_var),), stack_var)


class _Names:
    """Fresh predicate names, collision-checked against the source program's
    predicate names and one another."""

    def __init__(self, program: SourceProgram):
        self.taken = {name for name, _ in program.predicates()}

    def fresh(self, candidate):
        while candidate in self.taken:
            candidate += "_"
        self.taken.add(candidate)
        return candidate


def _entry_map(program: SourceProgram, names: _Names):
    entry = {}
    for name, arity in program.predicates():
        entry[(name, arity)] = names.fresh(name + "_hat")
    return entry


def transform_moded(p: SourceProgram) -> ChainProgram:
    """Convert a moded program to chain form (the result is G-chain).

    Each non-unit source clause with n body atoms yields one chain clause
    plus n + 1 restructuring units named h_<clause>_<j>, unique across the
    program; each unit source clause yields a single stack-preserving unit
    for its stack-extended predicate.
    """
    report = check_moded(p)
    if not report.holds:
        raise TransformError(
            "program is not moded:\n%s" % report
        )
    names = _Names(p)
    entry = _entry_map(p, names)
    clauses = []
    provenance = []
    for idx, clause in enumerate(p.clauses, start=1):
        view = moded_view(clause, p)
        hat = entry[(clause.head.functor, len(clause.head.args))]
        profile = pass_on_sets_moded(clause, p)
        sources = source_groups(view)
        sinks = sink_groups(view)
        n = len(view.body)
        if n == 0:
            st = profile.stack_var
            clauses.append(Unit(hat, _attach(st, sources[0]), _attach(st, sinks[0])))
            provenance.append((idx, "main"))
            continue
        h_names = [names.fresh("h_%d_%d" % (idx, j)) for j in range(n + 1)]
        body = [h_names[0]]
        for i, atom in enumerate(clause.body, start=1):
            body.append(entry[(atom.functor, len(atom.args))])
            body.append(h_names[i])
        clauses.append(NonUnit(hat, tuple(body)))
        provenance.append((idx, "main"))
        for j in range(n + 1):
            unit = Unit(
                h_names[j],
                _attach(profile.sigmas[j], sources[j]),
                _attach(profile.sigmas[j + 1], sinks[j]),
            )
            clauses.append(unit)
            provenance.append((idx, "h_%d" % j))
    return ChainProgram(
        clauses=tuple(clauses),
        provenance=tuple(provenance),
        entry=entry,
        kind="moded",
        source_modes={
            (d.predicate, d.arity): d.modes for d in p.modes
        },
        name=p.name,
    )


def transform_definite(p: SourceProgram) -> ChainProgram:
    """Convert any definite program to chain form.

    The stack-extended predicates replicate the full argument tuple on both
    sides; the first and last restructuring units of a clause carry the head
    tuple, interior ones relate consecutive body tuples, all under one shared
    pass-on stack term.
    """
    names = _Names(p)
    entry = _entry_map(p, names)
    clauses = []
    provenance = []
    for idx, clause in enumerate(p.clauses, start=1):
        hat = entry[(clause.head.functor, len(clause.head.args))]
        profile = pass_on_set_definite(clause)
        st = profile.stack_var
        sigma = profile.sigmas[0]
        head_tuple = mk_tuple(clause.head.args)
        n = len(clause.body)
        if n == 0:
            extended = _attach(st, head_tuple)
            clauses.append(Unit(hat, extended, extended))
            provenance.append((idx, "main"))
            continue
        body_tuples = [mk_tuple(a.args) for a in clause.body]
        h_names = [names.fresh("h_%d_%d" % (idx, j)) for j in range(n + 1)]
        body = [h_names[0]]
        for i, atom in enumerate(clause.body, start=1):
            body.append(entry[(atom.functor, len(atom.args))])
            body.append(h_names[i])
        clauses.append(NonUnit(hat, tuple(body)))
        provenance.append((idx, "main"))
        ins = [_attach(st, head_tuple)] + [
            _attach(sigma, t) for t in body_tuples
        ]
        outs = [_attach(sigma, t) for t in body_tuples] + [
            _attach(st, head_tuple)
        ]
        for j in range(n + 1):
            clauses.append(Unit(h_names[j], ins[j], outs[j]))
            provenance.append((idx, "h_%d" % j))
    return ChainProgram(
        clauses=tuple(clauses),
        provenance=tuple(provenance),
        entry=entry,
        kind="definite",
        name=p.name,
    )


def clause_count_law(p: SourceProgram) -> int:
    """Expected transformed clause count: 1 per unit clause, n + 2 per
    clause with n body atoms."""
    return sum(1 if c.is_unit else len(c.body) + 2 for c in p.clauses)


@dataclass
class GoalPlan:
    """How to run a goal against a chain program: the seed term (stack
    seeded with the empty list), the predicates to compose, and a decoder
    from answer terms back to bindings of the goal's own variables."""

    initial: object
    continuations: tuple
    decode: Callable[[object], Optional[Subst]]
    goal: Goal

    def decode_all(self, answers):
        out = []
        for a in answers:
            s = self.decode(a)
            if s is not None:
                out.append(s)
        return out


def compile_goal(goal: Goal, t: ChainProgram, mode: str) -> GoalPlan:
    """Compile a single-atom goal for evaluation against t.

    Moded mode seeds the stack-extended input tuple (which must be ground)
    and decodes answers onto the goal's output positions.  Definite mode
    seeds the full argument tuple, variables allowed, and decodes by
    unifying the answer's argument tuple with the goal's arguments.
    """
    atom = goal.atom
    key = (atom.functor, len(atom.args))
    hat = t.entry.get(key)
    if hat is None:
        raise GoalError("unknown predicate %s/%d" % key)
    goal_vars = term_vars(atom)
    if mode == "moded":
        modes = t.source_modes.get(key)
        if modes is None:
            raise GoalError(
                "no modes recorded for %s/%d; use definite mode" % key
            )
        in_args = tuple(a for a, m in zip(atom.args, modes) if m == "in")
        out_args = tuple(a for a, m in zip(atom.args, modes) if m == "out")
        if not all(is_ground(a) for a in in_args):
            raise GoalError(
                "moded evaluation needs ground input arguments in %s"
                % atom.functor
            )
        initial = mk_tuple((NIL, *in_args))
        expected = mk_tuple(out_args)
    elif mode == "definite":
        initial = mk_tuple((NIL, *atom.args))
        expected = mk_tuple(atom.args)
    else:
        raise ValueError("mode must be 'moded' or 'definite'")

    width = len(expected.args)

    def decode(answer):
        if not is_tuple(answer) or len(answer.args) != width + 1:
            raise ValueError("malformed answer term %r" % (answer,))
        if answer.args[0] != NIL:
            raise ValueError(
                "answer stack is %r, expected the empty list" % (answer.args[0],)
            )
        s = unify(expected, mk_tuple(answer.args[1:]))
        if s is None:
            return None
        return s.restrict(goal_vars)

    return GoalPlan(initial, (hat,), decode, goal)
