"""Membership checks for the syntactic program classes: moded, chain,
G-chain, prechain.

The moded check works on the mode grouping of each clause: the 'in' argument
places of an atom, as its directive for that name and arity declares them,
form its input tuple and the 'out' places its output tuple, each preserving
argument order.  Data flows from the head input and the body atoms' outputs
(the "source" groups) into the body atoms' inputs and the head output (the
"sink" groups).
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import SourceClause, SourceProgram
from .terms import Variable, mk_tuple, term_vars

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


def split_args(args, modes):
    """The 'in' arguments and the 'out' arguments, each in argument order."""
    ins, outs = [], []
    for a, m in zip(args, modes):
        if m == "in":
            ins.append(a)
        elif m == "out":
            outs.append(a)
    return tuple(ins), tuple(outs)


def moded_groups(clause: SourceClause, program: SourceProgram):
    """The source groups (head input, then each body atom's output) and the
    sink groups (each body atom's input, then the head output) of a clause,
    as tuple terms.  Raises MissingModeError when an atom's predicate has no
    directive for its arity."""
    ins, outs = [], []
    for atom in (clause.head, *clause.body):
        key = (atom.functor, len(atom.args))
        d = program.mode_for(*key)
        if d is None:
            raise MissingModeError("no mode directive for predicate %s/%d" % key)
        t_in, t_out = split_args(atom.args, d.modes)
        ins.append(mk_tuple(t_in))
        outs.append(mk_tuple(t_out))
    return (ins[0], *outs[1:]), (*ins[1:], outs[0])


def group_vars(sources, sinks):
    """The variable sets of a clause's source groups and of its sink
    groups, as moded_groups gives them."""
    return [set(term_vars(t)) for t in sources], [set(term_vars(t)) for t in sinks]


def check_moded(p: SourceProgram) -> FormReport:
    """Both moded conditions on the grouped form of every clause:
    1. vars of each sink group are covered by the source groups up to it;
    2. the source groups are pairwise variable-disjoint."""
    violations = []
    for idx, c in enumerate(p.clauses):
        violations += moded_violations(idx, *group_vars(*moded_groups(c, p)))
    return FormReport(MODED, violations)


def moded_violations(idx, sources, sinks):
    """check_moded's violations for clause idx, from its group_vars."""
    violations = []
    available = set()
    for i, vs in enumerate(sinks):
        available |= sources[i]
        extra = vs - available
        if extra:
            violations.append(
                (
                    idx,
                    COND_FLOW,
                    "sink group %d uses %s not bound by any earlier "
                    "source group" % (i, _var_list(extra)),
                )
            )
    # One pass over the running union of the source groups: each variable
    # keeps the groups it occurred in so far.
    holders = {}
    shared = {}  # (i, j) -> the variables groups i < j share
    for j, vs in enumerate(sources):
        for v in vs:
            earlier = holders.setdefault(v, [])
            for i in earlier:
                shared.setdefault((i, j), set()).add(v)
            earlier.append(j)
    for i, j in sorted(shared):
        violations.append(
            (
                idx,
                COND_DISJOINT,
                "source groups %d and %d share %s"
                % (i, j, _var_list(shared[i, j])),
            )
        )
    return violations


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
