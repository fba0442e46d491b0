"""Answer equivalence on programs that stress the definite conversion:
variables shared between the head and inner atoms, variables shared among
inner atoms only, repeated variables within an atom, 0-ary predicates,
duplicate clauses and goals that only the occurs check refutes; then the
definite pipeline on long lists and on random programs, and the moded
pipeline on random programs, through all five engines, with a band of
random programs whose bodies have up to six atoms and a deeper band, also
run through the CLI; a 200-atom body; and the corpus through
tests/pyversions.py, the standard-library-only run of the same
comparison."""

import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from unittest import mock

import pytest

from conftest import (
    BudgetCut,
    alpha_equivalent,
    build_pipeline,
    corpus_pipelines,
    counted_search,
    long_body_text,
    recursion_limit,
    same_answer_sequence,
)
from genprog import (
    random_definite_program,
    random_ground_goal,
    random_moded_program,
    random_open_goal,
)

from chainform import oracle
from chainform.chainir import compile_to_registry
from chainform.cli import EXIT_BUDGET, EXIT_OK, main
from chainform.engines import (
    BudgetExceededError,
    enumerate_prolog,
    eval_abcde,
    eval_bounded,
    eval_continuation,
    eval_stream,
)
from chainform.oracle import canonical_answer, sld_solve
from chainform.syntax import goal_to_str, parse_goal, parse_program, print_program
from chainform.terms import NIL, Compound, canonical, term_vars, unify
from chainform.transform import compile_goal, transform_definite, transform_moded
from chainform.units import (
    compile_unit,
    is_pass_through,
    resolved,
    run_unit,
    unify_unit,
)

# Goals with no answer because every candidate unifier would bind a variable
# to a term containing it.
OCCURS_CHECK_CASES = [
    ("eq(X,X).", ["eq(Y,f(Y))"]),
    ("p(f(X),X).", ["p(Y,Y)"]),
]

CASES = [
    # head variable used by every atom
    (
        "p(X) :- q(X), r(X).\nq(a).\nq(b).\nr(b).\nr(c).",
        ["p(X)", "p(b)", "p(a)"],
    ),
    # head shares with the second atom only
    ("p(X) :- q(Y), r(X).\nq(a).\nq(b).\nr(c).", ["p(X)", "p(c)"]),
    # inner atoms share among themselves, not with the head
    (
        "p(X) :- q(Y), r(Y), s(X).\nq(a).\nq(b).\nr(b).\ns(d).",
        ["p(X)"],
    ),
    # repeated variable inside one atom
    (
        "eq(X, X).\ntest(Y) :- eq(Y, a).",
        ["test(Z)", "eq(U, V)", "eq(b, b)", "eq(a, c)"],
    ),
    # 0-ary predicates
    ("p :- q.\nq.", ["p", "q"]),
    # duplicate clauses yield duplicate answers (multiset semantics)
    ("d(a).\nd(a).", ["d(X)"]),
    # three chained atoms sharing threading variables pairwise
    (
        "t(X,Z) :- e(X,Y), e(Y,W), e(W,Z).\n"
        "e(a,b).\ne(b,c).\ne(c,d).\ne(b,d).",
        ["t(a,Z)", "t(X,d)"],
    ),
    *OCCURS_CHECK_CASES,
]


@pytest.mark.parametrize("text,goals", CASES)
def test_definite_pipeline_matches_reference(text, goals):
    program = parse_program(text)
    chain = transform_definite(program)
    registry = compile_to_registry(chain)
    for goal_text in goals:
        goal = parse_goal(goal_text)
        plan = compile_goal(goal, chain, "definite")
        answers = eval_abcde(plan.initial, plan.continuations, registry, "unify")
        got = [canonical_answer(plan.goal, s) for s in plan.decode_all(answers)]
        reference = sld_solve(program, goal, 10_000)
        assert not reference.truncated
        want = [canonical_answer(goal, a.bindings) for a in reference.answers]
        assert got == want, goal_text


@pytest.mark.parametrize("text,goals", CASES)
def test_engines_agree_on_edge_cases(text, goals):
    program = parse_program(text)
    chain = transform_definite(program)
    registry = compile_to_registry(chain)
    for goal_text in goals:
        plan = compile_goal(parse_goal(goal_text), chain, "definite")
        args = (plan.initial, plan.continuations, registry)
        base = eval_abcde(*args, uni="unify")
        assert same_answer_sequence(eval_continuation(*args, uni="unify"), base)
        assert same_answer_sequence(
            eval_stream(NIL, [plan.initial], plan.continuations, registry,
                        uni="unify"),
            base,
        )
        assert same_answer_sequence(
            list(enumerate_prolog(*args, uni="unify")), base
        )


def test_duplicate_answers_preserved():
    program = parse_program("d(a).\nd(a).")
    chain = transform_definite(program)
    registry = compile_to_registry(chain)
    plan = compile_goal(parse_goal("d(X)"), chain, "definite")
    answers = eval_abcde(plan.initial, plan.continuations, registry, "unify")
    assert len(plan.decode_all(answers)) == 2


@pytest.mark.parametrize("text,goals", OCCURS_CHECK_CASES)
def test_occurs_check_refutes(text, goals):
    chain = transform_definite(parse_program(text))
    registry = compile_to_registry(chain)
    for goal_text in goals:
        plan = compile_goal(parse_goal(goal_text), chain, "definite")
        assert plan.decode_all(
            eval_abcde(plan.initial, plan.continuations, registry, "unify")
        ) == [], goal_text


def five_engine_answers(plan, registry, budget, uni="unify"):
    """Decoded canonical answers of the four exhaustive engines, by engine,
    after checking that eval_bounded's answer is the head of eval_abcde's
    raw answer list.  Raises BudgetExceededError when a run hits the
    budget."""
    args = (plan.initial, plan.continuations, registry)
    raw = {
        "abcde": eval_abcde(*args, uni=uni, budget=budget),
        "continuation": eval_continuation(*args, uni=uni, budget=budget),
        "stream": eval_stream(
            NIL, [plan.initial], plan.continuations, registry,
            uni=uni, budget=budget,
        ),
        "enumerate": list(enumerate_prolog(*args, uni=uni, budget=budget)),
    }
    bounded = eval_bounded(*args, uni=uni, budget=budget)
    assert same_answer_sequence(
        [bounded.answer] if bounded.answer is not None else [], raw["abcde"][:1]
    )
    return {
        name: [canonical_answer(plan.goal, s) for s in plan.decode_all(answers)]
        for name, answers in raw.items()
    }


def assert_engines_match_oracle(reference, goal, exhaustive, ordered=False):
    """Every exhaustive engine gives the oracle's answer multiset, or with
    ordered its answer list."""
    assert not reference.truncated
    want = [canonical_answer(goal, a.bindings) for a in reference.answers]
    for name, got in exhaustive.items():
        if ordered:
            assert got == want, name
        else:
            assert Counter(got) == Counter(want), name


def test_pyversions_script():
    # The script runs under this interpreter as it runs under any other.
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pyversions.py")
    proc = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *_, digest, summary = proc.stdout.splitlines()
    assert digest.endswith(": the parse corpus digest is the pinned one")
    assert summary.endswith(": 265 runs, 0 disagree with the oracle")


@pytest.mark.parametrize(
    "fixture,goal_text,count",
    [
        ("append", "ap(X,Y,[%s])" % ",".join("e%d" % i for i in range(60)), 61),
        ("length", "len([%s],N)" % ",".join("e%d" % i for i in range(120)), 1),
    ],
    ids=["ap-60", "len-120"],
)
def test_definite_pipeline_at_size(fixture, goal_text, count):
    pipe = build_pipeline(fixture, "definite")
    plan = pipe.plan(goal_text)
    exhaustive = five_engine_answers(plan, pipe.registry, 10**6)
    assert len(exhaustive["abcde"]) == count
    reference = sld_solve(pipe.source, plan.goal, 10_000)
    assert_engines_match_oracle(reference, plan.goal, exhaustive)


def test_long_body_matches_oracle():
    """The definite conversion of a 200-atom body through the five engines.
    The oracle stays at this size: it applies every unifier to the whole
    goal list, so it is quadratic in the body's length."""
    program = parse_program(long_body_text(200))
    chain = transform_definite(program)
    plan = compile_goal(parse_goal("p(a,Y)"), chain, "definite")
    exhaustive = five_engine_answers(plan, compile_to_registry(chain), 10**6)
    reference = sld_solve(program, plan.goal, 10_000)
    assert len(reference.answers) == 1
    assert_engines_match_oracle(reference, plan.goal, exhaustive)


def test_long_body_answer_order():
    """The definite conversion of a 6-atom body over a predicate of five
    facts, a path of 6 steps through a graph on a, b and c: 22 answers of
    3 distinct values, which the five engines give in the oracle's order,
    so taking the facts in any other order shows."""
    program = parse_program(
        "q(a,b).\nq(b,b).\nq(b,c).\nq(c,c).\n" + long_body_text(6)
    )
    chain = transform_definite(program)
    goal = parse_goal("p(a,Y)")
    plan = compile_goal(goal, chain, "definite")
    exhaustive = five_engine_answers(plan, compile_to_registry(chain), 10**6)
    reference = sld_solve(program, goal, 100)
    want = [canonical_answer(goal, a.bindings) for a in reference.answers]
    assert len(want) == 22 and len(set(want)) == 3
    assert_engines_match_oracle(reference, goal, exhaustive, ordered=True)


def test_moded_name_at_two_arities():
    """Each body atom calls the predicate of its own arity, also when its
    name is used at another arity too."""
    program = parse_program(
        ":- mode(p,[in]).\n:- mode(p,[in,out]).\n:- mode(q,[in,out]).\n"
        "p(a).\nq(X,Y) :- p(X,Y).\np(a,b).\n"
    )
    chain = transform_moded(program)
    goal = parse_goal("q(a,Y)")
    plan = compile_goal(goal, chain, "moded")
    exhaustive = five_engine_answers(
        plan, compile_to_registry(chain), 10_000, uni="match"
    )
    reference = sld_solve(program, goal, 100)
    assert len(reference.answers) == 1
    assert_engines_match_oracle(reference, goal, exhaustive, ordered=True)


@pytest.mark.parametrize(
    "mode,depth,inner,second",
    [
        ("moded", 100, "0", "Y"),
        ("definite", 100, "0", "0"),
        ("definite", 2, "Z", "Y"),
    ],
    ids=["moded", "definite-ground", "definite-open"],
)
def test_moded_unit_over_the_cap(mode, depth, inner, second):
    """A unit too large for generated functions runs, in every engine, the
    reference terms.match and Subst.apply in match mode (the moded
    conversion), and unify_unit's register loop in unify mode (the definite
    conversion).  There the goal is ground, or its subject holds variables:
    the loop's loads meet Z two levels down and take write mode below it."""
    n = 100
    program = parse_program(
        ":- mode(p,[in,out]).\np(%sX%s, X).\n" % ("s(" * n, ")" * n)
    )
    convert, uni = (
        (transform_moded, "match") if mode == "moded"
        else (transform_definite, "unify")
    )
    chain = convert(program)
    registry = compile_to_registry(chain)
    assert any(
        compile_unit(*pair)[11] is None for pair in registry.unit.values()
    )
    goal = parse_goal(
        "p(%s%s%s,%s)" % ("s(" * depth, inner, ")" * depth, second)
    )
    plan = compile_goal(goal, chain, mode)
    exhaustive = five_engine_answers(plan, registry, 10_000, uni=uni)
    reference = sld_solve(program, goal, 100)
    assert len(reference.answers) == 1
    assert_engines_match_oracle(reference, goal, exhaustive, ordered=True)


# The generated programs of the differential tests: generator, goal
# generator, conversion, plan mode and evaluation mode.
RANDOM_KINDS = {
    "definite": (random_definite_program, random_open_goal, transform_definite,
                 "definite", "unify"),
    "moded": (random_moded_program, random_ground_goal, transform_moded,
              "moded", "match"),
}


# The oracle's depth budget and the engines' step budget on the generated
# programs.
RANDOM_DEPTH = 12
RANDOM_STEPS = 5_000
# counted_search's budget on a run that the oracle truncates or the engines
# do not finish: it applies every unifier eagerly, so the terms of some
# such runs grow at every step.
CUT_STEPS = 100


def generated_cases(kind, seed, count, **sizes):
    """count generated programs of one kind from random.Random(seed), drawn
    with the generator's size parameters sizes, each with its conversion,
    registry and goal."""
    program_of, goal_of, convert, _, _ = RANDOM_KINDS[kind]
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        program = program_of(rng, **sizes)
        chain = convert(program)
        cases.append((program, chain, compile_to_registry(chain), goal_of(rng, program)))
    return tuple(cases)


@functools.cache
def random_cases(kind):
    """300 generated programs of one kind from random.Random(7), shared by
    the differential tests and the pinned digest."""
    return generated_cases(kind, 7, 300)


class _OracleCut(Exception):
    """The oracle has spent its unifications."""


def capped_sld_solve(program, goal, depth_budget, unifies):
    """sld_solve, or None once it has called unify that many times."""
    calls = itertools.count()

    def counting(a, b):
        if next(calls) == unifies:
            raise _OracleCut
        return unify(a, b)

    with mock.patch.object(oracle, "unify", counting):
        try:
            return sld_solve(program, goal, depth_budget)
        except _OracleCut:
            return None


def compare_with_oracle(kind, cases, unifies=None):
    """Each case's goal through the five engines under RANDOM_STEPS and
    through SLD resolution under RANDOM_DEPTH and, given unifies, that many
    unifications.  Runs where either side was cut off are skipped; the rest
    must give the oracle's answer list in order, in either mode: both take
    clauses in definition order, depth first.  Returns the cases compared,
    each with its oracle's answer count, and how many of their goals have
    an answer."""
    _, _, _, mode, uni = RANDOM_KINDS[kind]
    compared, answered = [], 0
    for case in cases:
        program, chain, registry, goal = case
        if unifies is None:
            reference = sld_solve(program, goal, RANDOM_DEPTH)
        else:
            reference = capped_sld_solve(program, goal, RANDOM_DEPTH, unifies)
        if reference is None or reference.truncated:
            continue
        plan = compile_goal(goal, chain, mode)
        try:
            exhaustive = five_engine_answers(plan, registry, RANDOM_STEPS, uni=uni)
        except BudgetExceededError:
            continue
        assert_engines_match_oracle(reference, goal, exhaustive, ordered=True)
        compared.append((case, len(reference.answers)))
        answered += bool(reference.answers)
    return compared, answered


def test_random_definite_programs_match_oracle():
    """Differential test: random definite programs and random goals with open
    variables, every engine in unify mode under a step budget, against SLD
    resolution under a depth budget.  Runs where either side was cut off are
    skipped; the rest must give the oracle's answer list, in order."""
    compared, answered = compare_with_oracle("definite", random_cases("definite"))
    # Guard against a generator change that makes the comparison vacuous.
    assert len(compared) >= 150 and answered >= 40


def test_random_moded_programs_match_oracle():
    """Differential test: random moded programs and goals with ground
    inputs, every engine in match mode under a step budget, against SLD
    resolution under a depth budget.  Runs where either side was cut off are
    skipped; the rest must give the oracle's answer list, in order.

    The skipped engine runs loop however large the budget: SLD prunes a
    call by the pattern of its output arguments, moded evaluation computes
    every output first and matches it afterwards."""
    compared, answered = compare_with_oracle("moded", random_cases("moded"))
    # Guard against a generator change that makes the comparison vacuous.
    assert len(compared) >= 180 and answered >= 30


# The long-body band: programs of up to 4 predicates whose clause bodies
# have up to LONG_BODY atoms, from a seed of their own, so that the pinned
# programs above stay as they are.
LONG_BODY = 6
LONG_BODY_SEED = 22
LONG_BODY_CASES = 200


@pytest.mark.parametrize("kind", sorted(RANDOM_KINDS))
def test_long_body_programs_match_oracle(kind):
    """The differential tests' comparison, on the long-body band."""
    cases = generated_cases(
        kind, LONG_BODY_SEED, LONG_BODY_CASES, max_preds=4, max_body=LONG_BODY
    )
    compared, answered = compare_with_oracle(kind, cases)
    longest = Counter(longest_body(program) for (program, *_), _ in compared)
    # Guard against a vacuous comparison: enough goals, some answered, and
    # a third of the programs compared with a body of 5 or 6 atoms.
    assert len(compared) >= 100 and answered >= 10
    assert longest[LONG_BODY - 1] + longest[LONG_BODY] >= 50


def longest_body(program):
    return max(len(c.body) for c in program.clauses)


def term_depth(t):
    """Levels of compound nesting in t: 0 for a variable or a constant."""
    if type(t) is not Compound:
        return 0
    return 1 + max(map(term_depth, t.args), default=0)


def deepest_term(program):
    return max(
        term_depth(a)
        for c in program.clauses
        for atom in (c.head, *c.body)
        for a in atom.args
    )


# The deep band: up to 6 predicates, bodies of up to 8 atoms and argument
# terms up to 4 levels deep, from a seed of its own.  Its oracle runs are
# capped at DEEP_BAND_UNIFIES unifications and skipped past them, as runs
# past the depth budget are: the oracle applies every unifier to the whole
# goal list, so where a deep clause term repeats a variable, its terms
# grow geometrically with the depth (one run takes 40 s uncapped).
DEEP_BAND = {"max_preds": 6, "max_body": 8, "depth": 4}
DEEP_BAND_SEED = 23
DEEP_BAND_CASES = 320
DEEP_BAND_UNIFIES = 300


@functools.cache
def deep_band(kind):
    """The deep band's cases of one kind, and compare_with_oracle's result
    on them."""
    cases = generated_cases(kind, DEEP_BAND_SEED, DEEP_BAND_CASES, **DEEP_BAND)
    return cases, compare_with_oracle(kind, cases, DEEP_BAND_UNIFIES)


@pytest.mark.parametrize("kind", sorted(RANDOM_KINDS))
def test_deep_band_programs_match_oracle(kind):
    """The differential tests' comparison, on the deep band."""
    _, (compared, answered) = deep_band(kind)
    programs = [program for (program, *_), _ in compared]
    longest = Counter(map(longest_body, programs))
    deepest = Counter(map(deepest_term, programs))
    # Guard against a vacuous comparison: enough goals, some answered, and
    # half of the programs compared with a body of 7 or 8 atoms and a term
    # 3 or 4 levels deep.
    assert len(compared) >= 200 and answered >= 10, (len(compared), answered)
    assert longest[7] + longest[8] >= len(compared) / 2, longest
    assert deepest[3] + deepest[4] >= len(compared) / 2, deepest


@pytest.mark.parametrize("kind", sorted(RANDOM_KINDS))
def test_deep_band_through_the_cli(kind, tmp_path, capsys):
    """Each deep-band program through cli.main: check exits 0 on a moded
    program and 0 or 1 on a definite one, and transform --registry converts
    it with the conversion's clause count.  solve under RANDOM_STEPS gives
    a goal the band compared the oracle's answer count, and exits 0 or on
    the budget (3) under CUT_STEPS on any other goal."""
    cases, (compared, _) = deep_band(kind)
    counts = {id(case): count for case, count in compared}
    path = tmp_path / "band.pl"
    codes = Counter()
    for case in cases:
        program, chain, _, goal = case
        path.write_text(print_program(program), encoding="utf-8")
        code = main(["check", str(path)])
        assert code == 0 if kind == "moded" else code in (0, 1)
        capsys.readouterr()
        assert main(["transform", str(path), "--mode", kind, "--registry"]) == 0
        summary = "%d -> %d" % (len(program.clauses), len(chain.clauses))
        assert capsys.readouterr().err == summary + "\n"
        budget = RANDOM_STEPS if id(case) in counts else CUT_STEPS
        code = main([
            "solve", str(path), "-g", goal_to_str(goal), "--mode", kind,
            "--budget", str(budget), "--format", "jsonl",
        ])
        lines = capsys.readouterr().out.splitlines()
        if id(case) in counts:
            assert (code, len(lines)) == (EXIT_OK, counts[id(case)])
        else:
            assert code in (EXIT_OK, EXIT_BUDGET)
        codes[code] += 1
    # Both outcomes occur: guard against a vacuous run.
    assert codes[EXIT_OK] and codes[EXIT_BUDGET], codes


def searched_cases():
    """Every corpus goal and every generated program's goal, as (source
    program, registry, plan, evaluation mode, oracle depth budget)."""
    for pipe in corpus_pipelines():
        for goal_text in pipe.goals():
            yield pipe.source, pipe.registry, pipe.plan(goal_text), pipe.uni, 10_000
    for kind, (_, _, _, mode, uni) in RANDOM_KINDS.items():
        for program, chain, registry, goal in random_cases(kind):
            plan = compile_goal(goal, chain, mode)
            yield program, registry, plan, uni, RANDOM_DEPTH


def _engine_steps(registry, plan, uni):
    # The steps of a run to exhaustion, None when it passes RANDOM_STEPS.
    enum = enumerate_prolog(
        plan.initial, plan.continuations, registry, uni, RANDOM_STEPS
    )
    try:
        for _ in enum:
            pass
    except BudgetExceededError:
        return None
    return enum.steps


@functools.cache
def searched():
    """searched_cases, each with the oracle's result and counted_search's
    answers, the entry-predicate selections on each answer's derivation,
    its attempts at pass-through seams, and whether its budget cut it off.
    The budget is the engines' steps on a run that they finish and the
    oracle does not truncate, else CUT_STEPS."""
    out = []
    for case in searched_cases():
        source, registry, plan, uni, depth_budget = case
        reference = sld_solve(source, plan.goal, depth_budget)
        steps = None if reference.truncated else _engine_steps(registry, plan, uni)
        depths, passes = [], []
        # counted_search recurses once per step on a derivation.
        with recursion_limit(RANDOM_STEPS + 1_000):
            try:
                answers, _, _ = counted_search(
                    registry, plan.initial, plan.continuations, uni,
                    budget=CUT_STEPS if steps is None else steps,
                    passes=passes, depths=depths,
                )
                cut = False
            except BudgetCut as err:
                answers, cut = err.answers, True
        assert not (cut and steps), plan.goal
        out.append((case, reference, answers, depths, passes, cut))
    return tuple(out)


def test_pass_through_units_return_their_subject():
    """At every selection of a pass-through seam on the corpus and the
    generated programs, the unit the engines skip would succeed and return
    its subject if run: the subject itself in match mode, and in unify
    mode the subject as read, equal up to renaming once resolved."""
    seen = Counter()
    for (_, registry, _, uni, _), _, _, _, passes, _ in searched():
        codes = {}
        for label, t in passes:
            code = codes.get(label)
            if code is None:
                code = codes[label] = compile_unit(*registry.unit[label])
                assert is_pass_through(code), label
            if uni == "match":
                assert run_unit(code, t) is t, label
            else:
                bind, trail = {}, []
                out = unify_unit(code, t, bind, trail)
                assert out is t, label
                assert alpha_equivalent(resolved(out, bind), t), label
        seen[uni] += len(passes)
    # Both modes meet pass-through seams: guard against a vacuous check.
    assert seen["match"] > 1000 and seen["unify"] > 0, seen


def test_entry_selections_are_source_depth():
    """The premise of a depth bound counted in entry-predicate selections:
    on the corpus and the generated programs, each answer's entry-predicate
    selections equal the depth of its SLD derivation on the source
    program.  Moded answers compare in order and definite ones as
    multisets of (answer, depth); where the step budget cuts counted_search
    off, its answers so far must be a prefix, or a sub-multiset, of the
    oracle's.  Only runs the oracle truncates are skipped."""
    compared = cut_off = 0
    for (_, _, plan, uni, _), reference, answers, depths, _, cut in searched():
        if reference.truncated:
            continue
        want = [
            (canonical_answer(plan.goal, a.bindings), a.depth)
            for a in reference.answers
        ]
        got = []
        for answer, depth in zip(answers, depths, strict=True):
            s = plan.decode(answer)
            if s is not None:
                got.append((canonical_answer(plan.goal, s), depth))
        if uni == "match":
            assert got == (want[: len(got)] if cut else want), plan.goal
        else:
            assert (Counter(got) <= Counter(want) if cut
                    else Counter(got) == Counter(want)), plan.goal
        compared += 1
        cut_off += cut
    # The corpus goals and 249 + 256 generated ones run to the end; 47
    # moded ones loop where SLD does not (see the differential test).
    assert compared - cut_off >= 500 and cut_off < 60, (compared, cut_off)


def _pinned(t):
    # An answer up to renaming, with its variables' names in order.
    return repr(canonical(t)), tuple(v.name for v in term_vars(t))


def engine_records(plan, registry, uni, budget):
    """What every engine does on one goal: the answer lists of the
    exhaustive engines, eval_bounded's answer and resource, and each
    enumerated answer with Enumeration.steps after its next().  A budget
    exhaustion is recorded where it happens."""
    args = (plan.initial, plan.continuations, registry)
    runs = {
        "abcde": lambda: eval_abcde(*args, uni=uni, budget=budget),
        "continuation": lambda: eval_continuation(*args, uni=uni, budget=budget),
        "stream": lambda: eval_stream(
            NIL, [plan.initial], plan.continuations, registry,
            uni=uni, budget=budget,
        ),
    }
    for name, run in runs.items():
        try:
            yield name, [_pinned(t) for t in run()]
        except BudgetExceededError:
            yield name, "budget"
    try:
        bounded = eval_bounded(*args, uni=uni, budget=budget)
        answer = bounded.answer
        yield "bounded", answer is not None and _pinned(answer), bounded.resource
    except BudgetExceededError:
        yield "bounded", "budget"
    enum = enumerate_prolog(*args, uni=uni, budget=budget)
    steps = []
    try:
        while True:
            answer = enum.next()
            steps.append((answer is not None and _pinned(answer), enum.steps))
            if answer is None:
                break
    except BudgetExceededError:
        steps.append("budget")
    yield "enumerate", steps


def engine_digest(budget=3000):
    """sha256 over engine_records for the corpus goals and the 300 + 300
    generated programs, each record under its goal's text."""
    digest = hashlib.sha256()

    def add(plan, registry, uni):
        goal = goal_to_str(plan.goal)
        for record in engine_records(plan, registry, uni, budget):
            digest.update(repr((goal, record)).encode("utf-8") + b"\n")

    for pipe in corpus_pipelines():
        for goal_text in pipe.goals():
            add(pipe.plan(goal_text), pipe.registry, pipe.uni)
    for kind, (_, _, _, mode, uni) in RANDOM_KINDS.items():
        for _, chain, registry, goal in random_cases(kind):
            add(compile_goal(goal, chain, mode), registry, uni)
    return digest.hexdigest()


# engine_digest(), taken before unit clauses had one compiled form for both
# evaluation modes.
ENGINE_DIGEST = "9a557cd03246212be30acc4c891b97f4c71290db55e3128562123a0fa7ebd8e0"


class TestPinnedEngines:
    def test_engine_digest(self):
        assert engine_digest() == ENGINE_DIGEST
