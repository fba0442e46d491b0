"""Every corpus goal through the five engines, against the SLD oracle, and
the pinned digest of the parse corpus.

Standard library only, so that any interpreter can run it, one without
pytest included:

    python tests/pyversions.py

Each goal of corpus.CORPUS_RUNS is answered by eval_abcde,
eval_continuation and eval_stream, by the first answer enumerate_prolog
yields that the goal accepts, and by eval_bounded's answer when the goal
accepts it.  The answers are compared with oracle.sld_solve's on the source
program, in order under both conversions, as tests/test_equivalence.py
compares them: the engines, like SLD resolution, take clauses in
definition order, depth first, so a first answer must be the oracle's
first.  It then hashes the parse outcomes of corpus.parse_corpus(11, 2000), as
test_syntax's TestPinnedParse does, and compares the digest with
corpus.CORPUS_DIGEST.  It prints one line per disagreement, a line on the
digest and a summary line, and exits 1 when any run disagrees or the digest
differs.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from corpus import (  # noqa: E402
    CORPUS_DIGEST,
    CORPUS_GOALS,
    CORPUS_RUNS,
    corpus_digest,
    parse_corpus,
)

from chainform.chainir import compile_to_registry  # noqa: E402
from chainform.engines import (  # noqa: E402
    enumerate_prolog,
    eval_abcde,
    eval_bounded,
    eval_continuation,
    eval_stream,
)
from chainform.fixtures import load_fixture  # noqa: E402
from chainform.oracle import canonical_answer, sld_solve  # noqa: E402
from chainform.syntax import parse_goal  # noqa: E402
from chainform.terms import NIL  # noqa: E402
from chainform.transform import (  # noqa: E402
    compile_goal,
    transform_definite,
    transform_moded,
)

CONVERSIONS = {"moded": transform_moded, "definite": transform_definite}


def first_accepted(plan, registry, uni):
    """The first answer enumerate_prolog yields that the goal accepts."""
    enum = enumerate_prolog(plan.initial, plan.continuations, registry, uni)
    while True:
        raw = enum.next()
        if raw is None:
            return None
        decoded = plan.decode(raw)
        if decoded is not None:
            enum.halt()
            return decoded


def engine_answers(plan, registry, uni):
    """(engine, decoded answers, first-answer engine) for each engine."""
    args = (plan.initial, plan.continuations, registry, uni)
    yield "abcde", plan.decode_all(eval_abcde(*args)), False
    yield "continuation", plan.decode_all(eval_continuation(*args)), False
    stream = eval_stream(NIL, [plan.initial], *args[1:])
    yield "stream", plan.decode_all(stream), False
    decoded = first_accepted(plan, registry, uni)
    yield "enumerate", [] if decoded is None else [decoded], True
    raw = eval_bounded(*args).answer
    decoded = None if raw is None else plan.decode(raw)
    # A bounded answer the goal rejects is not an answer, and not wrong.
    yield "bounded", None if decoded is None else [decoded], True


def agrees(got, want, first_only):
    return got is None or got == (want[:1] if first_only else want)


def main():
    runs = 0
    wrong = []
    for name, mode in CORPUS_RUNS:
        source = load_fixture(name)
        chain = CONVERSIONS[mode](source)
        registry = compile_to_registry(chain)
        uni = "match" if mode == "moded" else "unify"
        for text in CORPUS_GOALS[name]:
            goal = parse_goal(text)
            oracle = sld_solve(source, goal)
            if oracle.truncated:
                wrong.append("%s %s %s: the oracle was cut off" % (name, mode, text))
                continue
            want = [canonical_answer(goal, a.bindings) for a in oracle.answers]
            plan = compile_goal(goal, chain, mode)
            for engine, answers, first_only in engine_answers(plan, registry, uni):
                runs += 1
                got = None if answers is None else [
                    canonical_answer(goal, s) for s in answers
                ]
                if not agrees(got, want, first_only):
                    wrong.append("%s %s %s %s: %r, expected %r"
                                 % (name, mode, text, engine, got, want))
    for line in wrong:
        print(line)
    version = ".".join(map(str, sys.version_info[:3]))
    digest = corpus_digest(parse_corpus(11, 2000))
    if digest == CORPUS_DIGEST:
        print("Python %s: the parse corpus digest is the pinned one" % version)
    else:
        print("Python %s: parse corpus digest %s, pinned %s"
              % (version, digest, CORPUS_DIGEST))
    print(
        "Python %s: %d runs, %d disagree with the oracle" % (version, runs, len(wrong))
    )
    return 1 if wrong or digest != CORPUS_DIGEST else 0


if __name__ == "__main__":
    sys.exit(main())
