"""The two constructive conversions to chain form, plus goal compilation.

Both conversions hide pass-on variables (variables bound before a subgoal is
selected and used again after it succeeds) in a list behaving like a stack,
threaded through every predicate as an extra leading tuple component.

Both build the same skeleton.  A clause with body atoms q_1..q_n becomes one
chain clause h_0, q̂_1, h_1, ..., q̂_n, h_n over the stack-extended
predicates, and each h_j is a fresh unit clause mapping ⟨σ_j, source group j⟩
to ⟨σ_{j+1}, sink group j⟩, where σ_j is the stack term at seam j.  The
source groups are the head input and then each body atom's output; the sink
groups are each body atom's input and then the head output.  A unit source
clause collapses to a single stack-preserving unit ⟨σ_0, head input⟩ to
⟨σ_1, head output⟩ for its stack-extended predicate (σ_0 = σ_1 is the bare
stack variable), which keeps the clause counts minimal.
The conversions differ only in their groups and stack terms.

Moded conversion: the groups come from the mode directives.  Seam j's
pass-on set holds the variables bound by a source group before it and used
by a sink group at or after it, and σ_j conses them onto one fresh stack
variable shared by the whole clause; the outermost two sets are empty.

Definite conversion: argument places have no declared roles, so the grouping
is the identity: an atom's full argument tuple is both its input and its
output (a partial identity).  One pass-on set serves every inner seam: all
clause variables except those occurring in every atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .chainir import ChainProgram, NonUnit, Unit
from .forms import (
    MODED,
    FormReport,
    group_vars,
    moded_groups,
    moded_violations,
    split_args,
)
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
    always empty); definite clauses have a single entry used at every inner
    seam.
    Variables are listed in first-occurrence order over the clause text.
    """

    sets: tuple  # of tuples of Variable
    sigmas: tuple  # of stack terms over stack_var
    stack_var: Variable


def _clause_occurrence_order(clause: SourceClause):
    return term_vars(mk_tuple((clause.head, *clause.body)))


def _ordered(vset, order):
    return tuple(v for v in order if v in vset)


def _sigma(vs, stack_var):
    return mk_list(vs, stack_var) if vs else stack_var


def _attach(stack_term, group):
    """Prepend a stack onto an argument tuple: the tuple stays flat."""
    return mk_tuple((stack_term, *group.args))


def _pass_on(clause: SourceClause, sources, sinks) -> PassOnProfile:
    """pass_on_sets_moded over the variable sets of the clause's source and
    sink groups.  A variable is passed on at every seam after the first
    source group it occurs in, up to the last sink group it occurs in; one
    pass over each side finds those groups."""
    first = {}
    for i, vs in enumerate(sources):
        for v in vs:
            first.setdefault(v, i)
    last = {}
    for k, vs in enumerate(sinks):
        for v in vs:
            last[v] = k
    sets = [[] for _ in range(len(clause.body) + 2)]
    for v in _clause_occurrence_order(clause):
        if v in first and v in last:
            for j in range(first[v] + 1, last[v] + 1):
                sets[j].append(v)
    stack_var = fresh_var("St")
    sets = tuple(map(tuple, sets))
    sigmas = tuple(_sigma(vs, stack_var) for vs in sets)
    return PassOnProfile(sets, sigmas, stack_var)


def pass_on_sets_moded(clause: SourceClause, program: SourceProgram) -> PassOnProfile:
    """Per-seam pass-on sets of a moded clause.

    Seam j separates the source groups strictly before it from the sink
    groups at or after it; its pass-on set is the intersection of their
    variable sets.  Seam 0 and seam n+1 are always empty.
    """
    return _pass_on(clause, *group_vars(*moded_groups(clause, program)))


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


def _convert(p: SourceProgram, kind, seams, source_modes) -> ChainProgram:
    """The clause skeleton shared by both conversions.  seams holds, for
    each clause in order, its source groups, its sink groups and its n + 2
    stack terms.

    Each non-unit source clause with n body atoms yields one chain clause
    plus n + 1 restructuring units named h_<clause>_<j>, unique across the
    program; each unit source clause yields a single stack-preserving unit
    for its stack-extended predicate.
    """
    names = _Names(p)
    entry = {key: names.fresh(key[0] + "_hat") for key in p.predicates()}
    clauses = []
    provenance = []
    for idx, (clause, (sources, sinks, sigmas)) in enumerate(
        zip(p.clauses, seams), start=1
    ):
        units = [
            (_attach(sigmas[j], source), _attach(sigmas[j + 1], sink))
            for j, (source, sink) in enumerate(zip(sources, sinks))
        ]
        hat = entry[(clause.head.functor, len(clause.head.args))]
        provenance.append((idx, "main"))
        if clause.is_unit:
            clauses.append(Unit(hat, *units[0]))
            continue
        h_names = [names.fresh("h_%d_%d" % (idx, j)) for j in range(len(units))]
        body = [h_names[0]]
        for atom, h in zip(clause.body, h_names[1:]):
            body += (entry[(atom.functor, len(atom.args))], h)
        clauses.append(NonUnit(hat, tuple(body)))
        clauses.extend(Unit(h, *unit) for h, unit in zip(h_names, units))
        provenance.extend((idx, "h_%d" % j) for j in range(len(units)))
    return ChainProgram(
        clauses=tuple(clauses),
        provenance=tuple(provenance),
        entry=entry,
        kind=kind,
        source_modes=source_modes,
        name=p.name,
    )


def transform_moded(p: SourceProgram) -> ChainProgram:
    """Convert a moded program to chain form (the result is G-chain)."""
    seams = []
    violations = []
    for idx, clause in enumerate(p.clauses):
        sources, sinks = moded_groups(clause, p)
        vs = group_vars(sources, sinks)
        violations += moded_violations(idx, *vs)
        seams.append((sources, sinks, _pass_on(clause, *vs).sigmas))
    if violations:
        raise TransformError(
            "program is not moded:\n%s" % FormReport(MODED, violations)
        )
    modes = {(d.predicate, d.arity): d.modes for d in p.modes}
    return _convert(p, "moded", seams, modes)


def _identity_seams(clause):
    groups = [mk_tuple(a.args) for a in (clause.head, *clause.body)]
    profile = pass_on_set_definite(clause)
    st = profile.stack_var
    sigmas = (st, *profile.sigmas * len(clause.body), st)
    return groups, groups[1:] + groups[:1], sigmas


def transform_definite(p: SourceProgram) -> ChainProgram:
    """Convert any definite program to chain form."""
    return _convert(p, "definite", map(_identity_seams, p.clauses), {})


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
        ins, outs = split_args(atom.args, modes)
        if not all(is_ground(a) for a in ins):
            raise GoalError(
                "moded evaluation needs ground input arguments in %s"
                % atom.functor
            )
    elif mode == "definite":
        ins = outs = atom.args
    else:
        raise ValueError("mode must be 'moded' or 'definite'")
    initial = mk_tuple((NIL, *ins))
    expected = mk_tuple(outs)
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
