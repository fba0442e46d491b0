"""The evaluation corpus: terminating goals per bundled fixture, and the
pipelines they run through.  Standard library only, so that
tests/pyversions.py can run it under an interpreter without pytest.
"""

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
