"""A program's session: its conversion, its registry, and the goals it
answers over them.

A session converts the program once, builds its registry and checks its
G-chain form once, so every goal of the session runs over the same
registry and shares its dispatch table (Registry.dispatch).
"""

from .chainir import compile_to_registry
from .engines import (
    DEFAULT_BUDGET,
    enumerate_prolog,
    eval_abcde,
    eval_continuation,
    eval_stream,
)
from .forms import check_gchain
from .terms import NIL, is_ground
from .transform import TransformError, compile_goal, transform_definite, transform_moded


def convert(program, mode):
    """The chain program and the conversion that made it.  auto takes the
    moded conversion when the program is moded, the definite one otherwise;
    any mode but auto, moded and definite is a ValueError."""
    if mode == "auto":
        if program.fully_moded():
            try:
                return transform_moded(program), "moded"
            except TransformError:
                pass
        mode = "definite"
    if mode == "moded":
        return transform_moded(program), mode
    if mode == "definite":
        return transform_definite(program), mode
    raise ValueError("unknown mode: %r" % mode)


def accepted(enum, plan):
    """The answers enum yields that the goal's own bindings accept, decoded,
    in the order enum yields them."""
    for raw in enum:
        decoded = plan.decode(raw)
        if decoded is not None:
            yield decoded


class Session:
    """A program converted, compiled and form-checked once, answering goals."""

    def __init__(self, program, mode="auto"):
        self.chain, self.mode = convert(program, mode)
        self.registry = compile_to_registry(self.chain)
        self.gchain = check_gchain(self.chain.to_source()).holds

    def plan(self, goal):
        """The goal's plan and the unification its evaluation needs:
        one-sided matching suffices when the chain program is G-chain and
        the seed is ground; otherwise unit resolution needs full
        unification."""
        plan = compile_goal(goal, self.chain, self.mode)
        return plan, "match" if self.gchain and is_ground(plan.initial) else "unify"

    def answers(self, goal, engine="abcde", budget=DEFAULT_BUDGET):
        """Every answer of the goal the engine (abcde, continuation or
        stream) finds, decoded, in the engine's order.  Any other engine is
        a ValueError."""
        if engine not in ("abcde", "continuation", "stream"):
            raise ValueError("unknown engine: %r" % engine)
        plan, uni = self.plan(goal)
        args = (plan.continuations, self.registry, uni, budget)
        if engine == "stream":
            raw = eval_stream(NIL, [plan.initial], *args)
        else:
            run = eval_abcde if engine == "abcde" else eval_continuation
            raw = run(plan.initial, *args)
        return plan.decode_all(raw)

    def enumerate(self, goal, budget=DEFAULT_BUDGET):
        """The goal's Enumeration, which halt() abandons, and a generator
        over the answers it yields that the goal accepts, decoded."""
        plan, uni = self.plan(goal)
        enum = enumerate_prolog(
            plan.initial, plan.continuations, self.registry, uni, budget
        )
        return enum, accepted(enum, plan)
