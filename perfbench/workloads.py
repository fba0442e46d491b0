"""Seeded workload generation for the chainform benchmark.

Everything here is plain Python and imports nothing from chainform: the
program under test sees only the generated program and goal texts, and the
expected answers of every goal are computed here from the generated inputs.

A seed fixes the list contents, the Peano keys and, for the large program,
the renaming of its copies.  Sizes follow a ladder n, 2n, 4n so that the
benchmark can fit a scaling exponent.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

LADDER = (1, 2, 4)
ENGINES = ("abcde", "continuation", "stream", "bounded", "enumerate")
CLI_ENGINES = ("abcde", "continuation", "stream", "bounded")
PEANO_KEYS = 8  # Peano keys are 0..7
DEPTH_PROBE_LENGTH = 30_000
LARGE_COPIES = 40
LARGE_GOALS = 1280


@dataclass(frozen=True)
class Fixture:
    """A moded fixture with its predicate names as format placeholders."""

    entry: str  # the predicate the goals call
    preds: tuple  # every predicate the text defines
    text: str
    goal: str  # goal template over {entry} and {list}
    out_vars: tuple  # the goal's output variables, in answer order
    peano: bool  # list elements are Peano numerals rather than atoms
    chain_clauses: int  # clause count after the moded conversion


FIXTURES = {
    "split": Fixture(
        "s",
        ("s",),
        """\
:- mode({s}, [in,out,out]).
{s}(L, [], L).
{s}([A|N], [A|L], M) :- {s}(N, L, M).
""",
        "{entry}({list},Y,Z)",
        ("Y", "Z"),
        False,
        4,
    ),
    "nrev": Fixture(
        "rev",
        ("rev", "app"),
        """\
:- mode({rev}, [in,out]).
:- mode({app}, [in,in,out]).
{rev}([], []).
{rev}([A|L], R) :- {rev}(L, T), {app}(T, [A], R).
{app}([], L, L).
{app}([A|L], M, [A|N]) :- {app}(L, M, N).
""",
        "{entry}({list},R)",
        ("R",),
        False,
        9,
    ),
    "quicksort": Fixture(
        "qs",
        ("qs", "part", "app", "le", "gt"),
        """\
:- mode({qs}, [in,out]).
:- mode({part}, [in,in,out,out]).
:- mode({app}, [in,in,out]).
:- mode({le}, [in,in]).
:- mode({gt}, [in,in]).
{qs}([], []).
{qs}([A|L], S) :- {part}(L, A, Lo, Hi), {qs}(Lo, SL), {qs}(Hi, SH), {app}(SL, [A|SH], S).
{part}([], _, [], []).
{part}([X|L], P, [X|Lo], Hi) :- {le}(X, P), {part}(L, P, Lo, Hi).
{part}([X|L], P, Lo, [X|Hi]) :- {gt}(X, P), {part}(L, P, Lo, Hi).
{app}([], L, L).
{app}([A|L], M, [A|N]) :- {app}(L, M, N).
{le}(0, _).
{le}(s(X), s(Y)) :- {le}(X, Y).
{gt}(s(_), 0).
{gt}(s(X), s(Y)) :- {gt}(X, Y).
""",
        "{entry}({list},S)",
        ("S",),
        True,
        28,
    ),
    "member": Fixture(
        "member",
        ("member",),
        """\
:- mode({member}, [out,in]).
{member}(X, [X|_]).
{member}(X, [_|T]) :- {member}(X, T).
""",
        "{entry}(X,{list})",
        ("X",),
        False,
        4,
    ),
    "reverse": Fixture(
        "rv",
        ("rv", "rv3"),
        """\
:- mode({rv}, [in,out]).
:- mode({rv3}, [in,in,out]).
{rv}(L, R) :- {rv3}(L, [], R).
{rv3}([], A, A).
{rv3}([H|T], A, R) :- {rv3}(T, [H|A], R).
""",
        "{entry}({list},R)",
        ("R",),
        False,
        7,
    ),
    "length": Fixture(
        "len",
        ("len",),
        """\
:- mode({len}, [in,out]).
{len}([], 0).
{len}([_|T], s(N)) :- {len}(T, N).
""",
        "{entry}({list},N)",
        ("N",),
        False,
        4,
    ),
}

# Base sizes n of the ladders n, 2n, 4n.  They are set by run length: a run
# reports each operation's median over its passes, which is steady from
# about eight passes on, so one pass over every goal and engine must take at
# most about 3.5 s on the pure kernel (Python 3.11, 2 cores) to fit a 30 s
# run.
MODED_DEEP_BASE = {
    "nrev": 10,
    "quicksort": 8,  # a multiple of PEANO_KEYS
    "length": 250,
    "reverse": 120,
    "split": 25,
    "member": 25,
}
# The moded-deep fixtures whose n-level goal `chainform solve` also runs.
MODED_DEEP_CLI = ("split", "nrev", "length")
APPEND_BASE = 10
LENGTH_DEFINITE_BASE = 30

APPEND_TEXT = """\
ap([], L, L).
ap([A|L], M, [A|N]) :- ap(L, M, N).
"""


@dataclass(frozen=True)
class Goal:
    id: str
    program: str  # key into Workload.programs
    text: str
    out_vars: tuple  # goal variables, in the order answers list them
    expected: tuple  # every answer, in order; an answer is a tuple of values
    level: int  # index into LADDER


@dataclass(frozen=True)
class CliCommand:
    id: str
    args: tuple  # chainform arguments; program files are work-dir relative
    # A correct run exits with 0 and prints, when goal is set, the goal's
    # expected answers as jsonl, or, when stdout_line is set, that last line.
    goal: Goal = None
    stdout_line: str = None


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # conversion: "moded" or "definite"
    uni: str  # unit resolution: "match" or "unify"
    programs: dict  # file stem -> program text
    goals: tuple
    cli: tuple  # CliCommands, timed in traced passes
    probes: tuple  # outcome-only CliCommands, never timed
    setup_every: int  # a timed set-up before every setup_every-th goal
    # Reference for in-process answers: "python" compares with Goal.expected
    # in order; "sld" compares canonically with oracle.sld_solve, in order
    # when ordered is set and as multisets otherwise.
    reference: str
    ordered: bool


# ---------------------------------------------------------------------------
# Values and their rendering.  An answer value is an atom (str), a Peano
# numeral (int) or a list of values.


def render(value) -> str:
    """The text chainform prints for a value."""
    if type(value) is int:
        return "s(" * value + "0" + ")" * value
    if type(value) is list:
        return "[%s]" % ",".join(render(v) for v in value)
    return value


def answer_bindings(goal: Goal, answer) -> dict:
    """An expected answer as `chainform solve --format jsonl` prints it."""
    return {name: render(v) for name, v in zip(goal.out_vars, answer)}


def _elements(rng, n, peano):
    if peano:
        # Blocks of every key once, each block in seeded order.  The sort's
        # cost depends on how often each key occurs and on the pivot order;
        # uniform draws would make it vary across seeds by three times more.
        keys = []
        for _ in range(-(-n // PEANO_KEYS)):
            block = list(range(PEANO_KEYS))
            rng.shuffle(block)
            keys.extend(block)
        return keys[:n]
    return [rng.choice(string.ascii_lowercase) for _ in range(n)]


def _expected(fixture_name, xs):
    if fixture_name == "split":
        return tuple((xs[:i], xs[i:]) for i in range(len(xs) + 1))
    if fixture_name in ("nrev", "reverse"):
        return ((xs[::-1],),)
    if fixture_name == "quicksort":
        return ((sorted(xs),),)
    if fixture_name == "member":
        return tuple((x,) for x in xs)
    if fixture_name == "length":
        return ((len(xs),),)
    raise KeyError(fixture_name)


def _fixture_goal(gid, program, fixture_name, names, xs, level):
    fx = FIXTURES[fixture_name]
    text = fx.goal.format(entry=names[fx.entry], list=render(xs))
    return Goal(gid, program, text, fx.out_vars, _expected(fixture_name, xs), level)


def _solve(program_file, goal, *extra):
    return CliCommand(
        "cli/solve/" + goal.id,
        ("solve", program_file, "-g", goal.text, "--format", "jsonl", *extra),
        goal=goal,
    )


def _identity(fixture_name):
    return {p: p for p in FIXTURES[fixture_name].preds}


def moded_deep(seed: int) -> Workload:
    """Deep ground goals on the six moded fixtures, match mode."""
    rng = random.Random(seed)
    programs = {
        name: fx.text.format(**_identity(name)) for name, fx in FIXTURES.items()
    }
    goals = []
    for name, base in MODED_DEEP_BASE.items():
        for level, k in enumerate(LADDER):
            xs = _elements(rng, base * k, FIXTURES[name].peano)
            goals.append(
                _fixture_goal(
                    "%s-%d" % (name, base * k), name, name, _identity(name), xs, level
                )
            )
    cli = tuple(
        _solve(g.program + ".pl", g)
        for g in goals if g.level == 0 and g.program in MODED_DEEP_CLI
    )
    probe_list = [rng.choice(string.ascii_lowercase) for _ in range(DEPTH_PROBE_LENGTH)]
    probe_goal = _fixture_goal(
        "length-%d" % DEPTH_PROBE_LENGTH, "length", "length",
        _identity("length"), probe_list, 0,
    )
    probes = tuple(
        CliCommand(
            "probe/" + engine,
            ("solve", "length.pl", "-g", probe_goal.text, "--format", "jsonl",
             "--engine", engine),
            goal=probe_goal,
        )
        for engine in CLI_ENGINES
    )
    return Workload("moded-deep", "moded", "match", programs, tuple(goals),
                    cli, probes, setup_every=1, reference="python", ordered=True)


def definite_unify(seed: int) -> Workload:
    """append in both directions and length, definite conversion, unify
    mode with renaming."""
    rng = random.Random(seed)
    programs = {"append": APPEND_TEXT, "length": FIXTURES["length"].text.format(len="len")}
    goals = []
    for level, k in enumerate(LADDER):
        n = APPEND_BASE * k
        xs = _elements(rng, n, False)
        goals.append(Goal(
            "ap-split-%d" % n, "append", "ap(X,Y,%s)" % render(xs), ("X", "Y"),
            tuple((xs[:i], xs[i:]) for i in range(n + 1)), level,
        ))
        left, right = _elements(rng, n, False), _elements(rng, n, False)
        goals.append(Goal(
            "ap-join-%d" % n, "append",
            "ap(%s,%s,Z)" % (render(left), render(right)), ("Z",),
            ((left + right,),), level,
        ))
    for level, k in enumerate(LADDER):
        xs = _elements(rng, LENGTH_DEFINITE_BASE * k, False)
        goals.append(_fixture_goal(
            "len-%d" % len(xs), "length", "length", {"len": "len"}, xs, level
        ))
    cli = tuple(
        _solve(g.program + ".pl", g, "--mode", "definite")
        for g in goals if g.level == 0
    )
    return Workload("definite-unify", "definite", "unify", programs, tuple(goals),
                    cli, (), setup_every=1, reference="sld", ordered=False)


def large_program(seed: int) -> Workload:
    """One program of LARGE_COPIES renamed copies of the six moded fixtures,
    queried by many small goals."""
    rng = random.Random(seed)
    names = []  # per copy: fixture -> {placeholder: renamed predicate}
    taken = set()
    for _ in range(LARGE_COPIES):
        tag = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        while tag in taken:
            tag = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        taken.add(tag)
        names.append({
            fname: {p: "%s_%s_%s" % (p, fname, tag) for p in fx.preds}
            for fname, fx in FIXTURES.items()
        })
    parts = []
    for copy in names:
        for fname, fx in FIXTURES.items():
            parts.append(fx.text.format(**copy[fname]))
    programs = {"large": "".join(parts)}
    fixture_names = tuple(FIXTURES)
    goals = []
    for i in range(LARGE_GOALS):
        fname = fixture_names[i % len(fixture_names)]
        level = (i // len(fixture_names)) % len(LADDER)
        copy = rng.randrange(LARGE_COPIES)
        xs = _elements(rng, LADDER[level], FIXTURES[fname].peano)
        goals.append(_fixture_goal("g%04d" % i, "large", fname, names[copy][fname], xs, level))
    source_clauses = sum(
        1 for line in programs["large"].splitlines()
        if line and not line.startswith(":-")
    )
    chain_clauses = LARGE_COPIES * sum(fx.chain_clauses for fx in FIXTURES.values())
    cli = (
        CliCommand("cli/check", ("check", "large.pl")),
        CliCommand(
            "cli/transform", ("transform", "large.pl", "-o", "large_chain.pl"),
            stdout_line="%d -> %d" % (source_clauses, chain_clauses),
        ),
        _solve("large.pl", goals[2 * len(fixture_names)]),  # split, 4 elements
    )
    return Workload("large-program", "moded", "match", programs, tuple(goals),
                    cli, (), setup_every=LARGE_GOALS, reference="sld", ordered=True)


WORKLOADS = {
    "moded-deep": moded_deep,
    "definite-unify": definite_unify,
    "large-program": large_program,
}

