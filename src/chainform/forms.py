"""Membership checks for the syntactic program classes: moded, chain,
G-chain, prechain.

The moded check works on the mode grouping of each clause: the 'in' argument
places of an atom, as its directive for that name and arity declares them,
form its input tuple and the 'out' places its output tuple, each preserving
argument order.  Data flows from the head input and the body atoms' outputs
(the "source" groups) into the body atoms' inputs and the head output (the
"sink" groups).  analyse_moded finds a clause's groups, their variables and
its violations in one walk; the check and the moded conversion each call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .syntax import SourceClause, SourceProgram
from .terms import Compound, Variable, term_vars

MODED = "moded"
CHAIN = "chain"
GCHAIN = "gchain"
PRECHAIN = "prechain"

# Condition numbering used in violation entries: 1 is the variable-flow
# condition, 2 the tuple-disjointness condition.  The chain and G-chain
# checks have a single condition each, reported as 1.
COND_FLOW = 1
COND_DISJOINT = 2
COND_SHAPE = 1
COND_UNIT_RANGE = 1


class MissingModeError(LookupError):
    """A predicate is used but carries no mode directive."""


@dataclass
class FormReport:
    form: str
    violations: list  # (clause index, condition id, human-readable detail)

    @property
    def holds(self):
        return not self.violations

    def __str__(self):
        if self.holds:
            return "%s: holds" % self.form
        lines = ["%s: %d violation(s)" % (self.form, len(self.violations))]
        for idx, cond, detail in self.violations:
            lines.append("  clause %d, condition %d: %s" % (idx + 1, cond, detail))
        return "\n".join(lines)


class ModedClause(NamedTuple):
    """A clause's groups, moded or identity.  Sets hold serials."""

    sources: tuple  # argument tuples: the head input, each body output
    sinks: tuple  # argument tuples: each body input, the head output
    source_vars: tuple  # of sets, one per source group
    sink_vars: tuple  # of sets, one per sink group
    order: dict  # serial -> Variable, in first-occurrence order over the clause
    violations: list  # check_moded's entries for the clause


def analyse_moded(idx, clause: SourceClause, program: SourceProgram) -> ModedClause:
    """The mode grouping of clause idx, its groups' variables and its
    violations of the moded conditions, in one walk over each atom
    argument.  Raises MissingModeError when an atom's predicate has no
    directive for its arity."""
    atoms = []  # per atom: its input and output tuples and their serials
    order = {}
    for atom in (clause.head, *clause.body):
        key = (atom.functor, len(atom.args))
        d = program.mode_for(*key)
        if d is None:
            raise MissingModeError("no mode directive for predicate %s/%d" % key)
        t_in, t_out, v_in, v_out = [], [], set(), set()
        for a, m in zip(atom.args, d.modes):
            group, serials = (t_in, v_in) if m == "in" else (t_out, v_out)
            group.append(a)
            stack = [a]
            while stack:
                t = stack.pop()
                if type(t) is Variable:
                    serials.add(t.serial)
                    order.setdefault(t.serial, t)
                elif type(t) is Compound and not t.ground:
                    stack.extend(reversed(t.args))
        atoms.append((tuple(t_in), tuple(t_out), v_in, v_out))
    ins, outs, in_vars, out_vars = zip(*atoms)
    source_vars = (in_vars[0], *out_vars[1:])
    sink_vars = (*in_vars[1:], out_vars[0])
    # 1. Each sink group's variables are bound by the source groups up to it.
    violations = []
    available = set()
    for i, vs in enumerate(sink_vars):
        available |= source_vars[i]
        extra = vs - available
        if extra:
            names = _var_list(order[s] for s in extra)
            detail = "sink group %d uses %s not bound by any earlier source group"
            violations.append((idx, COND_FLOW, detail % (i, names)))
    # 2. The source groups are pairwise disjoint exactly when their union,
    # available, is as large as their sizes summed.  Otherwise one pass over
    # them, each variable keeping the groups it occurred in so far, finds
    # every sharing pair.
    if len(available) < sum(map(len, source_vars)):
        holders = {}
        shared = {}  # (i, j) -> the variables groups i < j share
        for j, vs in enumerate(source_vars):
            for s in vs:
                earlier = holders.setdefault(s, [])
                for i in earlier:
                    shared.setdefault((i, j), []).append(order[s])
                earlier.append(j)
        for i, j in sorted(shared):
            names = _var_list(shared[i, j])
            detail = "source groups %d and %d share %s" % (i, j, names)
            violations.append((idx, COND_DISJOINT, detail))
    sources, sinks = (ins[0], *outs[1:]), (*ins[1:], outs[0])
    return ModedClause(sources, sinks, source_vars, sink_vars, order, violations)


def check_moded(p: SourceProgram) -> FormReport:
    """Both moded conditions on the grouped form of every clause:
    1. vars of each sink group are covered by the source groups up to it;
    2. the source groups are pairwise variable-disjoint."""
    violations = []
    for idx, c in enumerate(p.clauses):
        violations += analyse_moded(idx, c, p).violations
    return FormReport(MODED, violations)


def _var_list(vs):
    return "{%s}" % ", ".join(sorted(v.name for v in vs))


def _as_source(p) -> SourceProgram:
    if isinstance(p, SourceProgram):
        return p
    return p.to_source()


def check_chain(p) -> FormReport:
    """Every clause is either a unit clause over a binary predicate (any
    terms), or a binary-atom clause threading distinct variables from the
    head input to the head output."""
    src = _as_source(p)
    violations = []
    for idx, clause in enumerate(src.clauses):
        detail = _chain_clause_violation(clause)
        if detail:
            violations.append((idx, COND_SHAPE, detail))
    return FormReport(CHAIN, violations)


def _chain_clause_violation(clause):
    if len(clause.head.args) != 2:
        return "head %s is not binary" % clause.head.functor
    if clause.is_unit:
        return None
    for atom in clause.body:
        if len(atom.args) != 2:
            return "body atom %s is not binary" % atom.functor
    xs = [clause.head.args[0]]
    for atom in clause.body:
        xs.append(atom.args[1])
    expected_inputs = xs[:-1]
    for atom, want in zip(clause.body, expected_inputs):
        if atom.args[0] is not want and atom.args[0] != want:
            return "argument threading broken at %s" % atom.functor
    if xs[-1] != clause.head.args[1]:
        return "head output is not the last body output"
    if any(not isinstance(x, Variable) for x in xs):
        return "threaded positions must be variables"
    if len({x.serial for x in xs}) != len(xs):
        return "threading variables are not distinct"
    return None


def check_gchain(p) -> FormReport:
    """Chain shape plus the groundness condition on unit clauses: every
    variable of the output term occurs in the input term."""
    src = _as_source(p)
    chain = check_chain(src)
    violations = [(i, c, d) for i, c, d in chain.violations]
    for idx, clause in enumerate(src.clauses):
        if not clause.is_unit or len(clause.head.args) != 2:
            continue
        t, t_out = clause.head.args
        extra = set(term_vars(t_out)) - set(term_vars(t))
        if extra:
            violations.append(
                (
                    idx,
                    COND_UNIT_RANGE,
                    "unit output uses %s absent from the input"
                    % _var_list(extra),
                )
            )
    return FormReport(GCHAIN, violations)


def check_prechain(p: SourceProgram) -> FormReport:
    """Prechain conditions on binary clauses: each sink term's variables are
    confined to the matching source term, and source terms are pairwise
    disjoint."""
    src = _as_source(p)
    violations = []
    for idx, clause in enumerate(src.clauses):
        atoms = (clause.head, *clause.body)
        bad = [a.functor for a in atoms if len(a.args) != 2]
        if bad:
            violations.append(
                (idx, COND_SHAPE, "non-binary atom(s): %s" % ", ".join(bad))
            )
            continue
        sources = [clause.head.args[0], *(a.args[1] for a in clause.body)]
        sinks = [*(a.args[0] for a in clause.body), clause.head.args[1]]
        src_vars = [set(term_vars(t)) for t in sources]
        for i, sink in enumerate(sinks):
            extra = set(term_vars(sink)) - src_vars[i]
            if extra:
                violations.append(
                    (
                        idx,
                        COND_FLOW,
                        "sink term %d uses %s outside its source term"
                        % (i, _var_list(extra)),
                    )
                )
        for i in range(len(src_vars)):
            for j in range(i + 1, len(src_vars)):
                shared = src_vars[i] & src_vars[j]
                if shared:
                    violations.append(
                        (
                            idx,
                            COND_DISJOINT,
                            "source terms %d and %d share %s"
                            % (i, j, _var_list(shared)),
                        )
                    )
    return FormReport(PRECHAIN, violations)


CHECKERS = {
    MODED: check_moded,
    CHAIN: check_chain,
    GCHAIN: check_gchain,
    PRECHAIN: check_prechain,
}
