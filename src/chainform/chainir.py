"""Chain-program intermediate representation and the object-program registry.

A chain program has two clause shapes.  A non-unit clause threads distinct
variables through a sequence of binary body atoms, so only the predicate
names matter and the variables stay implicit.  A unit clause relates an input
term to an output term directly.

The registry is the object-program representation the metainterpreters
consume: per-predicate alternative lists (defn), body predicate lists for
non-unit clauses (nonunit), input/output term pairs for unit clauses (unit),
and the set of unit labels (isunit).  isunit is derivable from unit but kept
separate for readability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import SourceClause, SourceProgram, _display_names, term_to_str
from .terms import Compound, fresh_var, mk_tuple, term_vars


class UndefinedPredicateError(LookupError):
    """A predicate occurs in a clause body but has no definition."""


@dataclass(frozen=True)
class NonUnit:
    head: str
    body: tuple[str, ...]  # non-empty

    def __post_init__(self):
        if not self.body:
            raise ValueError("non-unit chain clause with empty body")


@dataclass(frozen=True)
class Unit:
    predicate: str
    input: object
    output: object


@dataclass
class ChainProgram:
    clauses: tuple = ()
    # (source clause index, role) per clause; role is 'main' for the clause
    # carrying the source clause's predicate and 'h_<j>' for restructuring
    # units.
    provenance: tuple = ()
    # source predicate (name, arity) -> its stack-extended counterpart
    entry: dict = field(default_factory=dict)
    kind: str = "definite"  # 'moded' or 'definite'
    # (name, arity) -> mode tuple, for goal decoding in moded programs
    source_modes: dict = field(default_factory=dict)
    name: str = ""

    def predicate_of(self, clause):
        return clause.head if isinstance(clause, NonUnit) else clause.predicate

    def to_source(self) -> SourceProgram:
        """The chain program as ordinary clauses (threading variables made
        explicit), suitable for printing and form checks."""
        out = []
        for clause in self.clauses:
            if isinstance(clause, Unit):
                out.append(
                    SourceClause(
                        Compound(clause.predicate, (clause.input, clause.output))
                    )
                )
            else:
                n = len(clause.body)
                xs = [fresh_var("X%d" % i) for i in range(n + 1)]
                head = Compound(clause.head, (xs[0], xs[n]))
                body = tuple(
                    Compound(q, (xs[i], xs[i + 1]))
                    for i, q in enumerate(clause.body)
                )
                out.append(SourceClause(head, body))
        return SourceProgram(tuple(out), (), self.name)


@dataclass
class Registry:
    defn: dict  # predicate -> tuple of clause labels, in program order
    nonunit: dict  # label -> tuple of body predicate names
    unit: dict  # label -> (input term, output term)
    isunit: frozenset  # = set of unit labels
    # predicate -> its alternatives as the engines take them, in either
    # evaluation mode, one (label, body reversed, None), (label, None, the
    # unit compiled once) or (label, rest of the body reversed, the unit
    # that alone defines the body's first predicate, compiled) per clause,
    # filled by the engines on a predicate's first selection, so a
    # registry is not changed once evaluated.  The alternatives hold
    # strings and compiled units, whose builds name registers, or gathers
    # in units' shared table, rather than holding getters, and whose match
    # functions, generated one per shape, are named by an id in another
    # shared table of units rather than held, so the garbage collector
    # stops tracking them.  Filling an entry compiles its units; a shape's
    # function is generated at its first match-mode run.  Not part of
    # the registry's value: never compared, printed or dumped.
    dispatch: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # The entry predicates, ChainProgram.entry's values, of a registry that
    # compile_to_registry built from a conversion; None in one built by
    # hand.  Every other predicate a conversion defines is a restructuring
    # unit h_j, and the engines take the pure identities among those as
    # empty bodies (see engines._Run.alternatives), which changes no
    # answer, step or budget.  So it is not part of the registry's value
    # either: never compared or printed, and dump_registry does not print
    # it.  The entry predicates are kept rather than the h_j, which
    # outnumber them: in perfbench's large-program a set of its 480 entry
    # predicates takes 33 KB, one of its 1280 h_j 128 KB.
    entry: Optional[frozenset] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        assert self.isunit == frozenset(self.unit)


def compile_to_registry(p: ChainProgram, declare_empty=()) -> Registry:
    """Build the registry.  Labels are '<pred>_<j>' with j the 1-based
    position of the clause inside its predicate's definition; alternative
    order is textual order.

    The entry predicates, p.entry's values, are recorded as entry when p
    records any, as a conversion does: each clause whose role in
    p.provenance is 'main' defines one, and every other clause is a
    restructuring unit h_j, the one clause of a predicate of its own.

    Predicates used in bodies but never defined are an error, which names
    them by their source predicates where p records them (p.entry); a
    genuinely empty definition must be declared explicitly via
    declare_empty.
    """
    defn = {}
    nonunit = {}
    unit = {}
    for name in declare_empty:
        defn[name] = []
    for clause in p.clauses:
        pred = p.predicate_of(clause)
        labels = defn.setdefault(pred, [])
        label = "%s_%d" % (pred, len(labels) + 1)
        labels.append(label)
        if isinstance(clause, Unit):
            unit[label] = (clause.input, clause.output)
        else:
            nonunit[label] = tuple(clause.body)
    for label, body in nonunit.items():
        for q in body:
            if q not in defn:
                # Name both predicates as the source program does, where p
                # records them; label is '<head>_<j>'.
                source = {hat: "%s/%d" % key for key, hat in p.entry.items()}
                head = label.rsplit("_", 1)[0]
                raise UndefinedPredicateError(
                    "predicate %s is used in %s but never defined"
                    % (source.get(q, repr(q)), source.get(head, label))
                )
    return Registry(
        {k: tuple(v) for k, v in defn.items()},
        nonunit,
        unit,
        frozenset(unit),
        frozenset(p.entry.values()) if p.entry else None,
    )


def dump_registry(r: Registry) -> str:
    """One defn/nonunit/unit/isunit fact per line, defn entries first."""
    lines = []
    for pred, labels in r.defn.items():
        lines.append("defn(%s, [%s])." % (pred, ",".join(labels)))
    for label, body in r.nonunit.items():
        lines.append("nonunit(%s, [%s])." % (label, ",".join(body)))
    for label, (t, t_out) in r.unit.items():
        names = _display_names(term_vars(mk_tuple((t, t_out))))
        lines.append(
            "unit(%s, %s, %s)."
            % (label, term_to_str(t, names), term_to_str(t_out, names))
        )
    for label in (l for l in _label_order(r) if l in r.isunit):
        lines.append("isunit(%s)." % label)
    return "\n".join(lines) + ("\n" if lines else "")


def _label_order(r: Registry):
    for labels in r.defn.values():
        yield from labels
