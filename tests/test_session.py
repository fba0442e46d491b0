"""session.Session: the conversion auto picks, and the kernel each goal's
plan runs in."""

import pytest
from corpus import CORPUS_GOALS, CORPUS_RUNS, DEFINITE_FIXTURES, MODED_FIXTURES

from chainform.fixtures import load_fixture
from chainform.session import Session, convert
from chainform.syntax import parse_goal

# The one definite corpus run whose seed is ground over a G-chain
# conversion, so one-sided matching suffices.
DEFINITE_MATCHED = {("member", "member(a,[a,b,a])")}


@pytest.mark.parametrize("name, mode", CORPUS_RUNS)
def test_kernel_choice(name, mode):
    session = Session(load_fixture(name), mode)
    for text in CORPUS_GOALS[name]:
        _, uni = session.plan(parse_goal(text))
        matched = mode == "moded" or (name, text) in DEFINITE_MATCHED
        assert uni == ("match" if matched else "unify"), text


@pytest.mark.parametrize("name", MODED_FIXTURES + DEFINITE_FIXTURES)
def test_auto_takes_moded_on_moded_programs(name):
    want = "moded" if name in MODED_FIXTURES else "definite"
    assert Session(load_fixture(name)).mode == want


@pytest.mark.parametrize("engine", ["bounded", "enumerate", "ABCDE", ""])
def test_unknown_engine_is_rejected(engine):
    session = Session(load_fixture("append"))
    with pytest.raises(ValueError, match="unknown engine"):
        session.answers(parse_goal("ap(X,Y,[a,b])"), engine)


@pytest.mark.parametrize("mode", ["bounded", "Moded", ""])
def test_unknown_mode_is_rejected(mode):
    with pytest.raises(ValueError, match="unknown mode"):
        convert(load_fixture("split"), mode)
    with pytest.raises(ValueError, match="unknown mode"):
        Session(load_fixture("split"), mode)
