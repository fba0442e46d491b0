"""Random small-program and goal generators for the form laws and the
differential tests.

The moded generator builds clauses by construction: every source group
(head input, body outputs) draws from its own pool of fresh variables, so
the groups are pairwise disjoint; every sink group (body inputs, head
output) only uses variables already available, so the flow condition holds.
"""

from __future__ import annotations

import random

from chainform.syntax import Goal, ModeDirective, SourceClause, SourceProgram
from chainform.terms import Compound, Constant, fresh_var, is_ground

CONSTS = [Constant("a"), Constant("b"), Constant(0)]
FUNCTORS = [("f", 1), ("g", 2)]


def _random_term(rng, pool, depth=2):
    roll = rng.random()
    if pool and roll < 0.45:
        return rng.choice(pool)
    if depth > 0 and roll < 0.8:
        name, arity = rng.choice(FUNCTORS)
        return Compound(
            name, tuple(_random_term(rng, pool, depth - 1) for _ in range(arity))
        )
    return rng.choice(CONSTS)


def _signature(rng, k):
    preds = []
    for i in range(k):
        arity = rng.randint(1, 3)
        modes = tuple(rng.choice(("in", "out")) for _ in range(arity))
        preds.append(("p%d" % i, modes))
    return preds


def random_moded_program(
    rng: random.Random, max_preds: int = 3, max_body: int = 2
) -> SourceProgram:
    """1 to max_preds moded predicates of one or two clauses each, with 0
    to max_body body atoms per clause.  The defaults draw as the
    differential tests' pinned programs were drawn."""
    preds = _signature(rng, rng.randint(1, max_preds))
    directives = tuple(ModeDirective(name, modes) for name, modes in preds)
    clauses = []
    for name, modes in preds:
        for _ in range(rng.randint(1, 2)):
            clauses.append(_random_moded_clause(rng, name, modes, preds, max_body))
    return SourceProgram(tuple(clauses), directives, "random-moded")


def _fresh_pool(rng, hint):
    return [fresh_var("%s%d" % (hint, i)) for i in range(rng.randint(0, 3))]


def _group_terms(rng, places, pool):
    return [_random_term(rng, pool) for _ in range(places)]


def random_moded_clause(rng, preds=None):
    preds = preds or _signature(rng, rng.randint(1, 3))
    name, modes = rng.choice(preds)
    return _random_moded_clause(rng, name, modes, preds)


def _occurring(terms):
    from chainform.terms import term_vars

    out = []
    for t in terms:
        out.extend(term_vars(t))
    return out


def _random_moded_clause(rng, name, modes, preds, max_body=2):
    n_in = modes.count("in")
    n_out = modes.count("out")
    body_sig = [rng.choice(preds) for _ in range(rng.randint(0, max_body))]

    head_in = _group_terms(rng, n_in, _fresh_pool(rng, "X"))
    # Only variables that actually occur in a source group may feed a sink.
    available = _occurring(head_in)

    body_atoms = []
    for bname, bmodes in body_sig:
        sink_terms = _group_terms(rng, bmodes.count("in"), available)
        out_terms = _group_terms(rng, bmodes.count("out"), _fresh_pool(rng, "Y"))
        available = available + _occurring(out_terms)
        args = _weave(bmodes, sink_terms, out_terms)
        body_atoms.append(Compound(bname, tuple(args)))

    head_out = _group_terms(rng, n_out, available)
    head = Compound(name, tuple(_weave(modes, head_in, head_out)))
    return SourceClause(head, tuple(body_atoms))


def _weave(modes, ins, outs):
    ins = iter(ins)
    outs = iter(outs)
    return [next(ins) if m == "in" else next(outs) for m in modes]


def random_definite_program(
    rng: random.Random, max_preds: int = 3, max_body: int = 2
) -> SourceProgram:
    """1 to max_preds predicates of arity 1 to 3 and one or two clauses
    each, with 0 to max_body body atoms per clause.  The defaults draw as
    the differential tests' pinned programs were drawn."""
    preds = [
        ("p%d" % i, rng.randint(1, 3)) for i in range(rng.randint(1, max_preds))
    ]
    clauses = []
    for name, arity in preds:
        for _ in range(rng.randint(1, 2)):
            pool = _fresh_pool(rng, "V") + _fresh_pool(rng, "W")
            head = Compound(
                name, tuple(_random_term(rng, pool) for _ in range(arity))
            )
            body = []
            for _ in range(rng.randint(0, max_body)):
                bname, barity = rng.choice(preds)
                body.append(
                    Compound(
                        bname,
                        tuple(_random_term(rng, pool) for _ in range(barity)),
                    )
                )
            clauses.append(SourceClause(head, tuple(body)))
    return SourceProgram(tuple(clauses), (), "random-definite")


def random_open_goal(rng: random.Random, program: SourceProgram) -> Goal:
    """A goal on one of the program's predicates with at least one variable."""
    name, arity = rng.choice(
        sorted({(c.head.functor, len(c.head.args)) for c in program.clauses})
    )
    pool = [fresh_var("G%d" % i) for i in range(rng.randint(1, 3))]
    args = [_random_term(rng, pool) for _ in range(arity)]
    if all(is_ground(a) for a in args):
        args[rng.randrange(arity)] = pool[0]
    return Goal(Compound(name, tuple(args)))


def random_ground_goal(rng: random.Random, program: SourceProgram) -> Goal:
    """A goal on one of a moded program's predicates with ground input
    arguments, as moded evaluation needs.  Each output argument is a fresh
    variable or, one time in ten, a ground term the answers must match."""
    directive = rng.choice(program.modes)
    args = [
        fresh_var("G%d" % i)
        if mode == "out" and rng.random() < 0.9
        else _random_term(rng, [])
        for i, mode in enumerate(directive.modes)
    ]
    return Goal(Compound(directive.predicate, tuple(args)))
