"""The evaluation corpus: terminating goals per bundled fixture, and the
pipelines they run through; and the parse corpus, seeded texts whose parse
outcomes are pinned by one digest.  Standard library only, so that
tests/pyversions.py can run both under an interpreter without pytest.
"""

import hashlib
import random

from genprog import (
    random_definite_program,
    random_ground_goal,
    random_moded_program,
    random_open_goal,
)

from chainform.fixtures import FIXTURE_NAMES, fixture_text
from chainform.syntax import (
    ParseError,
    goal_to_str,
    parse_goal,
    parse_program,
    print_program,
)

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

# Every fixture through its natural pipeline, plus three moded fixtures
# through the definite pipeline (which applies to any program).
CORPUS_RUNS = (
    *((name, "moded") for name in MODED_FIXTURES),
    *((name, "definite") for name in DEFINITE_FIXTURES),
    *((name, "definite") for name in ("split", "member", "length")),
)


# The parse corpus: every parse outcome over seeded texts, hashed.

# Edit characters: the syntax's own, and characters on which regex classes
# and str predicates could part: '²' and 'Ⅰ' are numerics that are not
# decimal (and 'Ⅰ' is upper case); U+00A0, U+2028 and '\x1c' are
# whitespace that the parser does not count as a line break.
EDIT_CHARS = "aXq_Z019()[],|.:-%⟨⟩ \t\n\r²Ⅰé١\u00a0\u2028\x1c$'"

HAND_TEXTS = [
    "u(⟨St,[A|N]⟩, ⟨[A|St],N⟩).",
    "u(⟨⟩, ⟨St⟩).",
    "p.\nq :- p.",
    ":- mode(p, [in,out]).\np(a, b).\n",
    "p(X) % trailing comment",
    "p(X, 007, 42).",
    "% only a comment",
    ":- mode(p, [in]).\n:- mode(p, [out]).\np(a).",
    "p(a).\n\n  :- mode(p,[in,out]).",
    "",
]


def parse_corpus(seed, count):
    """count texts: the fixtures, some fixed texts, and generated programs
    and goals, each as it is and then in eight copies with up to 10 random
    character edits."""
    rng = random.Random(seed)
    bases = [fixture_text(name) for name in FIXTURE_NAMES] + HAND_TEXTS
    while len(bases) * 9 < count:
        moded = random_moded_program(rng)
        definite = random_definite_program(rng)
        bases += [
            print_program(moded),
            print_program(definite),
            goal_to_str(random_ground_goal(rng, moded)),
            goal_to_str(random_open_goal(rng, definite)),
        ]
    texts = []
    while len(texts) < count:
        text = bases[len(texts) // 9 % len(bases)]
        for _ in range(rng.randint(0, 10) if len(texts) % 9 else 0):
            at = rng.randrange(len(text) + 1)
            cut = at + rng.randint(0, 1)
            text = text[:at] + rng.choice(["", rng.choice(EDIT_CHARS)]) + text[cut:]
        texts.append(text)
    return texts


def parse_outcomes(text):
    """The printed program and goal parsed from text, or each error with
    its position."""
    out = []
    for parse, show in ((parse_program, print_program), (parse_goal, goal_to_str)):
        try:
            out.append(show(parse(text)))
        except ParseError as err:
            out.append("error: %s @ %d:%d" % (err, err.line, err.col))
    return out


def corpus_digest(texts):
    digest = hashlib.sha256()
    for text in texts:
        for outcome in parse_outcomes(text):
            digest.update(outcome.encode("utf-8") + b"\x00")
    return digest.hexdigest()


# sha256 of parse_outcomes over parse_corpus(11, 2000), taken from the
# character-by-character tokenizer that preceded the regular expression.
CORPUS_DIGEST = "5fced652ea1cfbc4449d8a19f1126a88b9e5f83ab390bc624279a84f9019c29e"
