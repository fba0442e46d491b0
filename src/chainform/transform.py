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
The conversions differ only in their groups: one rule (_pass_on) gives
seam j's pass-on set, and σ_j conses it onto the clause's stack variable.

Moded conversion: the groups come from the mode directives.

Definite conversion: argument places have no declared roles, so the grouping
is the identity: an atom's full argument tuple is both its input and its
output (a partial identity).  The paper pushes one set at every inner seam:
all clause variables except those occurring in every atom.  Per seam, a
variable is pushed only across the atoms that lack it, between its first
and last use, so one local to a stretch of the body stays off the other
seams, and a chain of n two-variable atoms converts to Θ(n) cells, not
Θ(n²).

A goal plan decodes an answer ⟨σ, outs…⟩ against the goal's output
arguments.  A ground answer (every match-mode answer, and many in unify
mode) is read by position: one pass over the goal's arguments splits them
by mode, builds the seed ⟨[], ins…⟩ with its ground flag, and sorts the
outputs, so a variable's first occurrence is read off the answer and a
ground output is compared with it; when an output repeats a variable or is
a compound that is not ground, the answer is matched instead, by
terms.match.  Any other answer is unified with the outputs, restricted to
the goal's variables.  Either way the result is that of unification then
restriction, and ⟨[], outs…⟩ is built only for match or unify.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

from .chainir import ChainProgram, NonUnit, Unit
from .forms import MODED, FormReport, ModedClause, analyse_moded
from .syntax import Goal, SourceProgram
from .terms import (
    EMPTY_SUBST,
    NIL,
    TUPLE_FUNCTOR,
    Compound,
    Subst,
    Variable,
    _new_object,
    _struct_eq,
    fresh_var,
    is_tuple,
    match,
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
    """A clause's pass-on sets and stack terms at seams 0 to k, for k groups
    (n + 2 seams for n body atoms); seams 0 and k are empty.  Each set lists
    its variables in their first-occurrence order over the clause text."""

    sets: tuple  # of tuples of Variable
    sigmas: tuple  # of stack terms over stack_var
    stack_var: Variable


def _attach(stack_term, args):
    """Prepend a stack onto an argument tuple: the tuple stays flat."""
    return mk_tuple((stack_term, *args))


def _pass_on(analysis: ModedClause) -> PassOnProfile:
    """Per-seam pass-on sets of a clause with k source and sink groups.

    Seam j, for 0 <= j <= k, lies between sink group j - 1 and source group
    j: h_{j-1} writes σ_j, and h_j reads it with source group j.  v is
    pushed at seam j when it occurs in a source group before j and in a sink
    group at or after j, and is not in source group j.  By induction on j,
    whatever h_j or a later unit needs from before seam j reaches h_j on σ_j
    or in source group j, so the stacks are sound.  A moded clause's source
    groups are disjoint, so the last condition never holds there; under the
    identity grouping, source group j is atom j's tuple, which q̂_j carries
    across.  Each step over a variable's seams pushes it or meets one of its
    occurrences: the cost is linear in the clause and the sets."""
    sources = analysis.source_vars
    first = {}  # the earliest source group of each variable
    for i, vs in enumerate(sources):
        for s in vs:
            first.setdefault(s, i)
    last = {s: i for i, vs in enumerate(analysis.sink_vars) for s in vs}
    sets = [[] for _ in range(len(sources) + 1)]
    for s, v in analysis.order.items():
        if s in first and s in last:
            for j in range(first[s] + 1, last[s] + 1):
                if s not in sources[j]:
                    sets[j].append(v)
    stack_var = fresh_var("St")
    sets = tuple(map(tuple, sets))
    sigmas = tuple([mk_list(vs, stack_var) if vs else stack_var for vs in sets])
    return PassOnProfile(sets, sigmas, stack_var)


class _Names:
    """Fresh predicate names, collision-checked against the source program's
    predicate names and one another."""

    def __init__(self, predicates):
        self.taken = {name for name, _ in predicates}

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
    predicates = p.predicates()
    names = _Names(predicates)
    entry = {key: names.fresh(key[0] + "_hat") for key in predicates}
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


def _seams(analysis):
    """What _convert keeps of a clause: its groups and its stack terms."""
    return analysis.sources, analysis.sinks, _pass_on(analysis).sigmas


def transform_moded(p: SourceProgram) -> ChainProgram:
    """Convert a moded program to chain form (the result is G-chain)."""
    # Only the groups and the stack terms outlive a clause's analysis:
    # keeping every clause's variable sets costs peak memory.  Once a
    # violation is found the program is refused, so only the violations
    # are collected from then on.
    seams = []
    violations = []
    for idx, clause in enumerate(p.clauses):
        analysis = analyse_moded(idx, clause, p)
        violations += analysis.violations
        if not violations:
            seams.append(_seams(analysis))
    if violations:
        raise TransformError(
            "program is not moded:\n%s" % FormReport(MODED, violations)
        )
    modes = {(d.predicate, d.arity): d.modes for d in p.modes}
    return _convert(p, "moded", seams, modes)


def _identity_grouping(clause) -> ModedClause:
    """A clause's analysis under the identity grouping: each atom's argument
    tuple is both its input and its output.  It has no violations."""
    atoms = (clause.head, *clause.body)
    groups = tuple(a.args for a in atoms)
    atom_vars = [term_vars(a) for a in atoms]
    var_sets = tuple({v.serial for v in vs} for vs in atom_vars)
    order = {v.serial: v for vs in atom_vars for v in vs}
    sinks, sink_vars = groups[1:] + groups[:1], var_sets[1:] + var_sets[:1]
    return ModedClause(groups, sinks, var_sets, sink_vars, order, [])


def _identity_seams(clause):
    if clause.is_unit:  # no inner seam, so no variable to pass on
        st = fresh_var("St")
        return (clause.head.args,), (clause.head.args,), (st, st)
    return _seams(_identity_grouping(clause))


def transform_definite(p: SourceProgram) -> ChainProgram:
    """Convert any definite program to chain form."""
    return _convert(p, "definite", map(_identity_seams, p.clauses), {})


@dataclass
class GoalPlan:
    """How to run a goal against a chain program: the seed term (stack
    seeded with the empty list), the predicates to compose, and a decoder
    from answer terms back to bindings of the goal's own variables, which
    reads a ground answer by position where the goal's outputs allow.  One
    pass over the goal's arguments makes the seed and the decoder's reads
    and checks (see the module docstring)."""

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
    seeds the full argument tuple, variables allowed, and decodes onto the
    goal's arguments.  One pass over the arguments builds the seed in
    place and sorts the outputs (see the module docstring).
    """
    atom = goal.atom
    args = atom.args
    key = (atom.functor, len(args))
    hat = t.entry.get(key)
    if hat is None:
        raise GoalError("unknown predicate %s/%d" % key)
    if mode == "moded":
        modes = t.source_modes.get(key)
        if modes is None:
            raise GoalError(
                "no modes recorded for %s/%d; use definite mode" % key
            )
    elif mode == "definite":
        modes = repeat(None)  # every argument is an input and an output
    else:
        raise ValueError("mode must be 'moded' or 'definite'")
    # An answer is ⟨σ, outs…⟩ with σ the empty list, the first of outs.
    ins = [NIL]
    outs = [NIL]
    ground = True
    reads = []
    checks = []
    for a, m in zip(args, modes):
        ta = type(a)
        a_ground = ta is not Variable and (ta is not Compound or a.ground)
        if m != "out":
            ins.append(a)
            ground = ground and a_ground
        if m != "in":
            if a_ground:
                checks.append((len(outs), a))
            elif ta is Variable and reads is not None and a not in outs:
                reads.insert(0, (len(outs), a))  # last first, as match binds
            else:
                reads = None
            outs.append(a)
    if mode == "moded" and not ground:
        raise GoalError(
            "moded evaluation needs ground input arguments in %s" % atom.functor
        )
    initial = _new_object(Compound)
    initial.functor = TUPLE_FUNCTOR
    initial.args = tuple(ins)
    initial.ground = ground
    width = len(outs)

    def decode(answer):
        if not is_tuple(answer) or len(answer.args) != width:
            raise ValueError("malformed answer term %r" % (answer,))
        args = answer.args
        if args[0] is not NIL and args[0] != NIL:
            raise ValueError(
                "answer stack is %r, expected the empty list" % (args[0],)
            )
        # Every variable of mk_tuple(outs) is a goal variable, so matching a
        # ground answer needs no restriction.
        if answer.ground:
            if reads is None:
                return match(mk_tuple(outs), answer)
            for i, p in checks:
                a = args[i]
                if a is not p and not _struct_eq(p, a):
                    return None
            return Subst({v: args[i] for i, v in reads}) if reads else EMPTY_SUBST
        s = unify(mk_tuple(outs), answer)
        if s is None:
            return None
        return s.restrict(term_vars(atom))

    return GoalPlan(initial, (hat,), decode, goal)
