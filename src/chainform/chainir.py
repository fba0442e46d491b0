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

from .syntax import SourceClause, SourceProgram, _display_names, term_to_str
from .terms import Compound, fresh_var, mk_tuple, rename_many, term_vars


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
    # evaluation mode -> predicate -> its alternatives as the engines take
    # them, one (label, body reversed, None) or (label, None, the unit
    # compiled once for that mode) per clause, filled by the engines on a
    # predicate's first selection, so a registry is not changed once
    # evaluated.  Not part of the registry's value: never compared, printed
    # or dumped.
    dispatch: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        assert self.isunit == frozenset(self.unit)


def compile_to_registry(p: ChainProgram, declare_empty=()) -> Registry:
    """Build the registry.  Labels are '<pred>_<j>' with j the 1-based
    position of the clause inside its predicate's definition; alternative
    order is textual order.

    Predicates used in bodies but never defined are an error; a genuinely
    empty definition must be declared explicitly via declare_empty.
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
                raise UndefinedPredicateError(
                    "predicate %r is used in %s but never defined" % (q, label)
                )
    return Registry(
        {k: tuple(v) for k, v in defn.items()},
        nonunit,
        unit,
        frozenset(unit),
    )


def registry_to_clauses(r: Registry):
    """Invert compile_to_registry, up to label naming: clauses grouped by
    predicate in defn order, alternatives in definition order."""
    out = []
    for pred, labels in r.defn.items():
        for label in labels:
            if label in r.isunit:
                t, t_out = r.unit[label]
                out.append(Unit(pred, t, t_out))
            else:
                out.append(NonUnit(pred, r.nonunit[label]))
    return tuple(out)


def dump_registry(r: Registry) -> str:
    """One defn/nonunit/unit/isunit fact per line, defn entries first."""
    lines = []
    for pred, labels in r.defn.items():
        lines.append("defn(%s, [%s])." % (pred, ",".join(labels)))
    for label, body in r.nonunit.items():
        lines.append("nonunit(%s, [%s])." % (label, ",".join(body)))
    for label, (t, t_out) in r.unit.items():
        # Rename per line so display names are stable and clause-local.
        rt, rt_out = rename_many((t, t_out))
        names = _display_names(term_vars(mk_tuple((rt, rt_out))))
        lines.append(
            "unit(%s, %s, %s)."
            % (label, term_to_str(rt, names), term_to_str(rt_out, names))
        )
    for label in (l for l in _label_order(r) if l in r.isunit):
        lines.append("isunit(%s)." % label)
    return "\n".join(lines) + ("\n" if lines else "")


def _label_order(r: Registry):
    for labels in r.defn.values():
        yield from labels
