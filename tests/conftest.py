"""Shared test infrastructure: the evaluation corpus and an independent
first-answer step counter."""

from __future__ import annotations

import sys
from dataclasses import dataclass

import pytest

from chainform.chainir import compile_to_registry
from chainform.fixtures import load_fixture
from chainform.oracle import canonical_answer
from chainform.syntax import parse_goal
from chainform.terms import canonical, match, rename_many, unify
from chainform.transform import compile_goal, transform_definite, transform_moded


def same_answer_sequence(xs, ys):
    """Element-for-element agreement; unify-mode answers carry fresh
    variables, so compare canonical forms (identity on ground answers)."""
    return [canonical(x) for x in xs] == [canonical(y) for y in ys]

# Terminating goals per bundled fixture; the pipeline is the one the
# fixture's declarations call for.
CORPUS_GOALS = {
    "split": [
        "s([],Y,Z)",
        "s([a],Y,Z)",
        "s([a,b],Y,Z)",
        "s([a,b,c],Y,Z)",
        "s([a,b,c,d],Y,Z)",
    ],
    "append": [
        "ap(X,Y,[])",
        "ap(X,Y,[a])",
        "ap(X,Y,[a,b])",
        "ap([a],[b,c],Z)",
        "ap([a,b],Y,[a,b,c])",
        "ap(X,[b],[a,b])",
    ],
    "nrev": [
        "rev([],R)",
        "rev([a],R)",
        "rev([a,b],R)",
        "rev([a,b,c],R)",
        "rev([a,b,c,d],R)",
        "app([a],[b],R)",
    ],
    "quicksort": [
        "qs([],S)",
        "qs([0],S)",
        "qs([s(0),0],S)",
        "qs([s(s(0)),0,s(0)],S)",
        "qs([s(0),s(0),0],S)",
        "le(0,s(0))",
    ],
    "member": [
        "member(X,[])",
        "member(X,[a])",
        "member(X,[a,b,c])",
        "member(a,[a,b,a])",
        "member(X,[a,a])",
    ],
    "reverse": [
        "rv([],R)",
        "rv([a],R)",
        "rv([a,b],R)",
        "rv([a,b,c],R)",
        "rv([a,b,c,d],R)",
    ],
    "length": [
        "len([],N)",
        "len([a],N)",
        "len([a,b],N)",
        "len([a,b,c],N)",
        "len([a,b,c,d],N)",
    ],
}

MODED_FIXTURES = ("split", "nrev", "quicksort", "member", "reverse", "length")
DEFINITE_FIXTURES = ("append",)


@dataclass
class Pipeline:
    """A fixture compiled end to end for one transform mode."""

    fixture: str
    mode: str  # 'moded' or 'definite'
    uni: str  # 'match' or 'unify'
    source: object
    chain: object
    registry: object

    def plan(self, goal_text):
        return compile_goal(parse_goal(goal_text), self.chain, self.mode)

    def goals(self):
        return CORPUS_GOALS[self.fixture]


def build_pipeline(name, mode):
    source = load_fixture(name)
    if mode == "moded":
        chain = transform_moded(source)
        uni = "match"
    else:
        chain = transform_definite(source)
        uni = "unify"
    return Pipeline(name, mode, uni, chain=chain, source=source,
                    registry=compile_to_registry(chain))


def corpus_pipelines():
    """Every fixture through its natural pipeline, plus the moded fixtures
    through the definite pipeline (which applies to any program)."""
    out = [build_pipeline(n, "moded") for n in MODED_FIXTURES]
    out.extend(build_pipeline(n, "definite") for n in DEFINITE_FIXTURES)
    out.extend(
        build_pipeline(n, "definite") for n in ("split", "member", "length")
    )
    return out


@pytest.fixture(scope="session")
def pipelines():
    return corpus_pipelines()


# CPython's default recursion limit.
DEFAULT_RECURSION_LIMIT = 1000


@pytest.fixture
def default_recursion_limit():
    """Run the test at the interpreter's default recursion limit, whatever
    the limit of the test process is."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    yield
    sys.setrecursionlimit(saved)


def decoded_canonical(pipeline, goal_text, answers):
    """Decode engine answers and canonicalize them for comparison with the
    reference resolution."""
    plan = pipeline.plan(goal_text)
    goal = plan.goal
    return [canonical_answer(goal, s) for s in plan.decode_all(answers)]


def oracle_canonical(pipeline, goal_text, depth_budget=10_000):
    from chainform.oracle import sld_solve

    goal = parse_goal(goal_text)
    result = sld_solve(pipeline.source, goal, depth_budget)
    assert not result.truncated, "oracle run truncated; raise the budget"
    return [canonical_answer(goal, a.bindings) for a in result.answers]


def counted_search(registry, x, qs, uni, first_only=False):
    """Independent instrumented search: depth-first, definition order.
    Returns the answers (at most one with first_only), the composition steps
    and the unit resolutions attempted and succeeded, each counted across
    all branches explored.  Kept free of the engines module on purpose."""
    steps = attempted = succeeded = 0
    answers = []

    def resolve(label, t):
        nonlocal attempted, succeeded
        attempted += 1
        t_in, t_out = registry.unit[label]
        if uni == "match":
            s = match(t_in, t)
            y = None if s is None else s.apply(t_out)
        else:
            r_in, r_out = rename_many((t_in, t_out))
            s = unify(t, r_in)
            y = None if s is None else s.apply(r_out)
        succeeded += y is not None
        return y

    def search(t, k):
        # True when the search is to stop.
        nonlocal steps
        if not k:
            answers.append(t)
            return first_only
        steps += 1
        for label in registry.defn[k[0]]:
            if label in registry.isunit:
                y = resolve(label, t)
                if y is not None and search(y, k[1:]):
                    return True
            elif search(t, registry.nonunit[label] + k[1:]):
                return True
        return False

    search(x, tuple(qs))
    return answers, steps, (attempted, succeeded)


def first_answer_steps(registry, x, qs, uni):
    """The first answer (None when there is none) and the composition steps
    spent finding it, by counted_search."""
    answers, steps, _ = counted_search(registry, x, qs, uni, first_only=True)
    return (answers[0] if answers else None), steps
