"""Conversion-to-chain-form tests: pass-on profiles, clause shapes, clause
counts, the size of a long body's conversion, goal compilation, and the
conversions pinned on generated programs."""

import functools
import hashlib
import os
import random

import pytest
from conftest import (
    alpha_equivalent,
    clause_count_law,
    long_body_text,
    pass_on_sets_definite,
    pass_on_sets_moded,
)
from genprog import random_definite_program, random_moded_program
from hypothesis import example, given, settings, strategies as st

from chainform.chainir import NonUnit, Unit, compile_to_registry, dump_registry
from chainform.cli import _render_chain
from chainform.fixtures import FIXTURE_NAMES, load_fixture
from chainform.forms import MissingModeError, check_chain, check_gchain, check_moded
from chainform.engines import eval_abcde
from chainform.syntax import (
    Goal,
    ModeDirective,
    SourceProgram,
    parse_goal,
    parse_program,
    term_to_str,
)
from chainform.terms import (
    Compound,
    Constant,
    NIL,
    Subst,
    Variable,
    cons,
    mk_list,
    mk_tuple,
    term_vars,
    unify,
)
from chainform import transform
from chainform.transform import (
    GoalError,
    TransformError,
    compile_goal,
    transform_definite,
    transform_moded,
)

SPLIT = """\
:- mode(s, [in,out,out]).
s(L, [], L).
s([A|N], [A|L], M) :- s(N, L, M).
"""

APPEND = "a([],L,L).\na([A|L],M,[A|N]) :- a(L,M,N).\n"


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CONVERSIONS = {"moded": transform_moded, "definite": transform_definite}


@pytest.mark.parametrize("mode", sorted(CONVERSIONS))
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_golden_conversion(fixture, mode):
    """The exact text of `chainform transform <fixture> --mode <mode>
    --registry`, kept in tests/golden/<fixture>.<mode>.txt.  A fixture
    without a file there is one the conversion refuses."""
    path = os.path.join(GOLDEN, "%s.%s.txt" % (fixture, mode))
    program = load_fixture(fixture)
    if not os.path.exists(path):
        with pytest.raises((TransformError, MissingModeError)):
            CONVERSIONS[mode](program)
        return
    chain = CONVERSIONS[mode](program)
    text = _render_chain(chain) + dump_registry(compile_to_registry(chain))
    with open(path, encoding="utf-8") as handle:
        assert text == handle.read()


def _flip_modes(rng, program):
    """program with each 'in'/'out' of its directives swapped one time in
    three, so that about half of the results fail the moded conditions."""
    flip = {"in": "out", "out": "in"}
    modes = tuple(
        ModeDirective(
            d.predicate,
            tuple(flip[m] if rng.random() < 1 / 3 else m for m in d.modes),
        )
        for d in program.modes
    )
    return SourceProgram(program.clauses, modes, program.name)


def pinned_programs():
    """The bundled fixtures, then 300 generated moded programs, 300
    generated definite programs and 300 generated moded programs with
    flipped directives, each drawn from its own random.Random(7)."""
    programs = [load_fixture(name) for name in FIXTURE_NAMES]
    moded, definite, flipped = (random.Random(7) for _ in range(3))
    programs += [random_moded_program(moded) for _ in range(300)]
    programs += [random_definite_program(definite) for _ in range(300)]
    programs += [
        _flip_modes(flipped, random_moded_program(flipped)) for _ in range(300)
    ]
    return tuple(programs)


def _outcome(run):
    try:
        return run()
    except (TransformError, MissingModeError) as err:
        return "%s: %s" % (type(err).__name__, err)


def _conversion_text(convert, program):
    chain = convert(program)
    return _render_chain(chain) + dump_registry(compile_to_registry(chain))


@functools.cache
def conversion_records():
    """For each of pinned_programs(): str(check_moded(program)), then the
    moded and the definite conversion's chain program and registry as
    `chainform transform --registry` prints them; a refusal in place of any
    of the three is its exception's type and message."""
    return tuple(
        (
            _outcome(lambda: str(check_moded(program))),
            _outcome(lambda: _conversion_text(transform_moded, program)),
            _outcome(lambda: _conversion_text(transform_definite, program)),
        )
        for program in pinned_programs()
    )


# sha256 over each column of conversion_records().  The check text and the
# moded conversion are pinned as they were before the moded check and the
# moded conversion shared one analysis per clause.  The definite conversion
# is pinned since it pushes each variable only at the seams that need it.
CHECK_DIGEST = "4280ef36ce0a3bca13740a6b1ce1dbea3ab09535d8a00568de9be04043925d7c"
MODED_DIGEST = "fa420a2a24786a4e9e30dc38b97e8add58847dc44927b642d2f618d10a481a43"
DEFINITE_DIGEST = "f7e3ca906d2e96237d8eca5dfe6fa86d9b46131ec0584a9fdd9335413d80012b"


class TestPinnedConversions:
    def test_conversion_digest(self):
        digests = [hashlib.sha256() for _ in range(3)]
        for record in conversion_records():
            for digest, column in zip(digests, record):
                digest.update(repr(column).encode("utf-8") + b"\n")
        assert [d.hexdigest() for d in digests] == [
            CHECK_DIGEST,
            MODED_DIGEST,
            DEFINITE_DIGEST,
        ]

    def test_check_and_conversion_agree(self):
        """transform_moded refuses exactly the programs check_moded reports
        violations for, and its message embeds the report; on a missing
        directive both raise MissingModeError with the same text."""
        refused = 0
        for check, moded, _ in conversion_records():
            if check.startswith("MissingModeError: "):
                assert moded == check
            elif check == "moded: holds":
                assert moded.startswith("% converted to chain form")
            else:
                assert moded == "TransformError: program is not moded:\n" + check
                refused += 1
        # Guard against a generator change that leaves no refusal to compare.
        assert refused >= 100


def names_of(vs):
    return {v.name for v in vs}


class TestPassOnModed:
    def test_split_recursive_clause(self):
        p = parse_program(SPLIT)
        profile = pass_on_sets_moded(p.clauses[1], p)
        assert [names_of(s) for s in profile.sets] == [set(), {"A"}, set()]
        st = profile.stack_var
        assert profile.sigmas[0] is st
        assert profile.sigmas[1] == cons(profile.sets[1][0], st)
        assert profile.sigmas[2] is st

    def test_unit_clause_profile(self):
        p = parse_program(SPLIT)
        profile = pass_on_sets_moded(p.clauses[0], p)
        assert [names_of(s) for s in profile.sets] == [set(), set()]

    def test_two_atom_clause(self):
        text = """\
        :- mode(p, [in,out]).
        :- mode(q, [in,out]).
        :- mode(r, [in,out]).
        p(f(U,V), V) :- q(U, W), r(W, g).
        q(a, b).
        r(b, g).
        """
        p = parse_program(text)
        profile = pass_on_sets_moded(p.clauses[0], p)
        assert [names_of(s) for s in profile.sets] == [
            set(),
            {"V"},
            {"V"},
            set(),
        ]


class TestPassOnDefinite:
    def test_append_recursive_clause(self):
        p = parse_program(APPEND)
        profile = pass_on_sets_definite(p.clauses[1])
        assert [names_of(s) for s in profile.sets] == [set(), {"A"}, set()]
        st = profile.stack_var
        assert profile.sigmas[0] is st
        assert profile.sigmas[1] == cons(profile.sets[1][0], st)
        assert profile.sigmas[2] is st

    def test_unit_clause(self):
        p = parse_program(APPEND)
        profile = pass_on_sets_definite(p.clauses[0])
        assert profile.sets == ((), ())
        assert profile.sigmas[0] is profile.sigmas[1] is profile.stack_var

    def test_no_common_variable(self):
        # X is in the head and r only, Y in the head and q only: each rides
        # the stack across the one atom that lacks it.  Z lives between q
        # and r and is never pushed.  X's earliest source group is the head.
        p = parse_program("p(X,Y) :- q(Y,Z), r(Z,X).\nq(a,b).\nr(b,c).")
        profile = pass_on_sets_definite(p.clauses[0])
        assert [names_of(s) for s in profile.sets] == [
            set(),
            {"X"},
            {"Y"},
            set(),
        ]


class TestTransformModed:
    def test_split_shape(self):
        chain = transform_moded(parse_program(SPLIT))
        assert len(chain.clauses) == 4
        unit1, main, h0, h1 = chain.clauses
        assert isinstance(unit1, Unit) and unit1.predicate == "s_hat"
        assert isinstance(main, NonUnit)
        assert main.body == ("h_2_0", "s_hat", "h_2_1")
        St, L, A, N, M = (Variable(n) for n in ("St", "L", "A", "N", "M"))
        assert alpha_equivalent(
            mk_tuple([unit1.input, unit1.output]),
            mk_tuple([mk_tuple([St, L]), mk_tuple([St, NIL, L])]),
        )
        assert alpha_equivalent(
            mk_tuple([h0.input, h0.output]),
            mk_tuple([mk_tuple([St, cons(A, N)]), mk_tuple([cons(A, St), N])]),
        )
        assert alpha_equivalent(
            mk_tuple([h1.input, h1.output]),
            mk_tuple(
                [mk_tuple([cons(A, St), L, M]), mk_tuple([St, cons(A, L), M])]
            ),
        )

    def test_split_counts(self):
        p = parse_program(SPLIT)
        chain = transform_moded(p)
        assert len(p.clauses) == 2
        assert len(chain.clauses) == 4
        assert len(chain.clauses) == clause_count_law(p)

    def test_output_is_gchain(self):
        chain = transform_moded(parse_program(SPLIT))
        assert check_gchain(chain.to_source()).holds

    def test_provenance(self):
        chain = transform_moded(parse_program(SPLIT))
        assert chain.provenance == ((1, "main"), (2, "main"), (2, "h_0"), (2, "h_1"))

    def test_rejects_unmoded(self):
        text = """\
        :- mode(p, [in,out]).
        :- mode(q, [in,out]).
        p(X, Y) :- q(Z, Y).
        q(a, b).
        """
        with pytest.raises(TransformError):
            transform_moded(parse_program(text))

    def test_refusal_stops_computing_seams(self, monkeypatch):
        # The second clause violates the flow condition: the conversion
        # computes the first clause's pass-on sets, then only violations,
        # and refuses with the check's whole report.
        from chainform import transform

        text = """\
        :- mode(s, [in,out,out]).
        s(L, [], L).
        s([A|N], [A|L], M) :- s(K, L, M).
        s([A|N], L, [A|M]) :- s(N, L, M).
        s([A|N], L, [B|M]) :- s(N, L, M).
        """
        program = parse_program(text)
        calls = []
        real = transform._pass_on
        monkeypatch.setattr(
            transform, "_pass_on", lambda a: calls.append(a) or real(a)
        )
        with pytest.raises(TransformError) as refused:
            transform_moded(program)
        assert len(calls) == 1
        report = check_moded(program)
        assert len(report.violations) == 2
        assert str(refused.value) == "program is not moded:\n%s" % report

    def test_hat_name_collision_avoided(self):
        text = """\
        :- mode(p, [in,out]).
        :- mode(p_hat, [in,out]).
        p(a, b).
        p_hat(a, b).
        """
        chain = transform_moded(parse_program(text))
        hats = set(chain.entry.values())
        assert len(hats) == 2
        assert chain.entry[("p", 2)] != chain.entry[("p_hat", 2)]
        assert hats.isdisjoint({"p", "p_hat"})


def variable_occurrences(t):
    """The occurrences of variables in t, each one counted."""
    count, stack = 0, [t]
    while stack:
        t = stack.pop()
        if type(t) is Variable:
            count += 1
        elif type(t) is Compound:
            stack.extend(t.args)
    return count


def stack_length(t):
    """The number of variables pushed on stack term t."""
    n = 0
    while type(t) is not Variable:
        n, t = n + 1, t.args[1]
    return n


class TestLongBody:
    """The definite conversion of a body of n atoms, each sharing one
    variable with the next: a variable rides the stack only across the
    atoms that lack it, so the chain program grows linearly with n."""

    @staticmethod
    def units(n):
        chain = transform_definite(parse_program(long_body_text(n)))
        return [c for c in chain.clauses if isinstance(c, Unit)]

    def test_occurrences_linear_in_body_length(self):
        sizes = [
            sum(variable_occurrences(mk_tuple([u.input, u.output])) for u in units)
            for units in (self.units(500), self.units(1000))
        ]
        assert sizes[1] <= 2.1 * sizes[0], sizes

    def test_stacks_hold_at_most_two_variables(self):
        units = self.units(1000)
        # q's fact and the clause's 1001 units h_0 .. h_1000.
        assert len(units) == 1002
        assert max(
            stack_length(t.args[0]) for u in units for t in (u.input, u.output)
        ) == 2


class TestTransformDefinite:
    def test_append_fact_inlined(self):
        chain = transform_definite(parse_program(APPEND))
        fact = chain.clauses[0]
        assert isinstance(fact, Unit)
        St, L = Variable("St"), Variable("L")
        expected = mk_tuple([St, NIL, L, L])
        assert alpha_equivalent(mk_tuple([fact.input, fact.output]),
                                mk_tuple([expected, expected]))
        assert fact.input == fact.output

    def test_append_recursive_units(self):
        chain = transform_definite(parse_program(APPEND))
        main, h0, h1 = chain.clauses[1:]
        assert isinstance(main, NonUnit)
        assert main.body == ("h_2_0", "a_hat", "h_2_1")
        St, A, L, M, N = (Variable(n) for n in ("St", "A", "L", "M", "N"))
        head_t = mk_tuple([St, cons(A, L), M, cons(A, N)])
        body_t = mk_tuple([cons(A, St), L, M, N])
        assert alpha_equivalent(
            mk_tuple([h0.input, h0.output]), mk_tuple([head_t, body_t])
        )
        assert alpha_equivalent(
            mk_tuple([h1.input, h1.output]), mk_tuple([body_t, head_t])
        )
        # The first unit's input shares its variables with the last unit's
        # output: both are the head tuple.
        assert h0.input == h1.output
        assert h0.output == h1.input

    def test_append_counts(self):
        p = parse_program(APPEND)
        chain = transform_definite(p)
        assert (len(p.clauses), len(chain.clauses)) == (2, 4)
        assert len(chain.clauses) == clause_count_law(p)

    def test_output_is_chain(self):
        chain = transform_definite(parse_program(APPEND))
        assert check_chain(chain.to_source()).holds

    def test_three_atom_body(self):
        text = "p(X) :- q(X), r(X), s(X).\nq(a).\nr(a).\ns(a)."
        p = parse_program(text)
        chain = transform_definite(p)
        assert len(chain.clauses) == clause_count_law(p) == 5 + 3
        main = chain.clauses[0]
        assert isinstance(main, NonUnit)
        assert len(main.body) == 7


class TestCompileGoal:
    def test_moded_plan(self):
        chain = transform_moded(parse_program(SPLIT))
        plan = compile_goal(parse_goal("s([a,b], Y, Z)"), chain, "moded")
        a, b = Constant("a"), Constant("b")
        assert plan.initial == mk_tuple([NIL, mk_list([a, b])])
        assert plan.continuations == ("s_hat",)
        answer = mk_tuple([NIL, NIL, mk_list([a, b])])
        s = plan.decode(answer)
        goal_vars = term_vars(plan.goal.atom)
        assert s.apply(goal_vars[0]) == NIL
        assert s.apply(goal_vars[1]) == mk_list([a, b])

    def test_moded_decoder_filters(self):
        chain = transform_moded(parse_program(SPLIT))
        plan = compile_goal(parse_goal("s([a,b], [], Z)"), chain, "moded")
        good = mk_tuple([NIL, NIL, mk_list([Constant("a"), Constant("b")])])
        bad = mk_tuple([NIL, mk_list([Constant("a")]), mk_list([Constant("b")])])
        assert plan.decode(good) is not None
        assert plan.decode(bad) is None

    def test_definite_plan(self):
        chain = transform_definite(parse_program(APPEND))
        plan = compile_goal(parse_goal("a(X, Y, [a,b])"), chain, "definite")
        assert plan.continuations == ("a_hat",)
        assert len(plan.initial.args) == 4
        assert plan.initial.args[0] == NIL

    def test_moded_requires_ground_input(self):
        chain = transform_moded(parse_program(SPLIT))
        with pytest.raises(GoalError, match="ground"):
            compile_goal(parse_goal("s(W, Y, Z)"), chain, "moded")

    def test_unknown_predicate(self):
        chain = transform_moded(parse_program(SPLIT))
        with pytest.raises(GoalError, match="unknown"):
            compile_goal(parse_goal("nosuch(X)"), chain, "moded")

    def test_registry_compiles(self):
        for chain in (
            transform_moded(parse_program(SPLIT)),
            transform_definite(parse_program(APPEND)),
        ):
            r = compile_to_registry(chain)
            assert set(r.defn) == {
                chain.predicate_of(c) for c in chain.clauses
            }


# Goal variables, and one more that only answers hold.
GOAL_VARS = (Variable("X", -301), Variable("Y", -302))
ANSWER_VARS = GOAL_VARS + (Variable("U", -303),)
DECODE_CHAINS = {
    "moded": transform_moded(parse_program(SPLIT)),
    "definite": transform_definite(parse_program(APPEND)),
}


def _terms(var_pool):
    base = st.sampled_from(
        [Constant("a"), Constant("b"), Constant(0), NIL, *var_pool]
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda h, t: mk_list([h], t), children, children),
            st.builds(lambda x: Compound("f", (x,)), children),
        )

    return st.recursive(base, extend, max_leaves=5)


GROUND_TERMS = _terms(())
GOAL_TERMS = _terms(GOAL_VARS)
ANSWER_TERMS = _terms(ANSWER_VARS)


@st.composite
def plans_and_answers(draw):
    """A moded or definite plan for a goal on s/3 or a/3 whose output
    arguments are random terms over GOAL_VARS, and an answer term: an
    instance of the outputs (over ANSWER_VARS, or ground) or any tail."""
    mode = draw(st.sampled_from(sorted(DECODE_CHAINS)))
    if mode == "moded":
        atom = Compound(
            "s", (draw(GROUND_TERMS), draw(GOAL_TERMS), draw(GOAL_TERMS))
        )
        expected = mk_tuple(atom.args[1:])
    else:
        atom = Compound("a", tuple(draw(GOAL_TERMS) for _ in range(3)))
        expected = mk_tuple(atom.args)
    plan = compile_goal(Goal(atom), DECODE_CHAINS[mode], mode)
    values = draw(st.sampled_from([GROUND_TERMS, ANSWER_TERMS]))
    if draw(st.booleans()):
        tail = Subst({v: draw(values) for v in GOAL_VARS}).apply(expected)
    else:
        tail = mk_tuple([draw(values) for _ in expected.args])
    return plan, expected, tail


def _reference_decode(plan, expected, tail):
    s = unify(expected, tail)
    return None if s is None else s.restrict(term_vars(plan.goal.atom))


def _repeated_output_case(mode):
    # Outputs ⟨X, X⟩ against a ground answer that differs at the two.
    X = GOAL_VARS[0]
    atom = Compound("s" if mode == "moded" else "a", (NIL, X, X))
    plan = compile_goal(Goal(atom), DECODE_CHAINS[mode], mode)
    outs = atom.args[1:] if mode == "moded" else atom.args
    values = (NIL, Constant("a"), Constant("b"))[-len(outs):]
    return plan, mk_tuple(outs), mk_tuple(values)


class TestDecode:
    @settings(max_examples=300)
    @given(plans_and_answers())
    @example(_repeated_output_case("moded"))
    @example(_repeated_output_case("definite"))
    def test_equals_unify_then_restrict(self, case):
        plan, expected, tail = case
        got = plan.decode(mk_tuple((NIL, *tail.args)))
        assert got == _reference_decode(plan, expected, tail)

    @pytest.mark.parametrize(
        "program, mode, goal, branch",
        [
            # Distinct output variables: each read off the answer.
            ("split", "moded", "s([a,b],Y,Z)", "read"),
            ("split", "definite", "s([a,b],Y,Z)", "read"),
            ("append", "definite", "a(X,Y,[a,b])", "read"),
            # A ground output, compared: it filters the answers.
            ("split", "moded", "s([a,b],[b],Z)", "read"),
            ("append", "definite", "a(X,[b],[a,b])", "read"),
            # A repeated variable, or a partial output: terms.match.
            ("split", "moded", "s([a,a],X,X)", "match"),
            ("split", "definite", "s([a,a],X,X)", "match"),
            ("split", "moded", "s([a,b],[H|T],Z)", "match"),
            ("split", "definite", "s([a,b],[H|T],Z)", "match"),
            # A non-ground answer: unify, then restrict.
            ("append", "definite", "a([a],Y,Z)", "unify"),
            ("append", "definite", "a([A,b],Y,Z)", "unify"),
        ],
    )
    def test_engine_answers(self, program, mode, goal, branch, monkeypatch):
        # Every raw answer eval_abcde gives, decoded by the branch named,
        # as the reference decodes it.  The plan's calls of terms.match and
        # terms.unify are recorded, so a read calls neither.
        called = []
        for name in ("match", "unify"):
            real = getattr(transform, name)
            monkeypatch.setattr(
                transform,
                name,
                lambda *a, name=name, real=real: called.append(name) or real(*a),
            )
        source = parse_program(SPLIT if program == "split" else APPEND)
        chain = CONVERSIONS[mode](source)
        plan = compile_goal(parse_goal(goal), chain, mode)
        uni = "match" if mode == "moded" else "unify"
        raw = eval_abcde(
            plan.initial, plan.continuations, compile_to_registry(chain), uni
        )
        assert raw
        atom = plan.goal.atom
        outs = atom.args[1:] if mode == "moded" else atom.args
        for answer in raw:
            assert answer.ground == (branch != "unify")
            tail = mk_tuple(answer.args[1:])
            del called[:]
            assert plan.decode(answer) == _reference_decode(
                plan, mk_tuple(outs), tail
            )
            assert called == ([] if branch == "read" else [branch])

    def test_long_ground_output(self):
        # ap(X,Y,L) in the definite conversion: the answers carry rebuilt
        # copies of the 200-element L, each compared with the goal's L.
        items = ",".join("e%d" % (i % 7) for i in range(200))
        chain = transform_definite(load_fixture("append"))
        plan = compile_goal(parse_goal("ap(X,Y,[%s])" % items), chain, "definite")
        raw = eval_abcde(
            plan.initial, plan.continuations, compile_to_registry(chain), "unify"
        )
        assert len(raw) == 201
        expected = mk_tuple(plan.goal.atom.args)
        rebuilt = [answer.args[3] is not expected.args[2] for answer in raw]
        assert sum(rebuilt) >= 200
        for answer in raw:
            assert answer.ground
            got = plan.decode(answer)
            assert got is not None
            assert got == _reference_decode(plan, expected, mk_tuple(answer.args[1:]))

    @pytest.mark.parametrize(
        "goal,answers",
        [
            ("s([a,a],X,X)", ["X = [a]"]),
            ("s([a,b],[a],Z)", ["Z = [b]"]),
            ("s([a,b],[b],Z)", []),
            ("s([a],[],[a])", [""]),
        ],
    )
    def test_moded_goals(self, goal, answers):
        chain = DECODE_CHAINS["moded"]
        plan = compile_goal(parse_goal(goal), chain, "moded")
        raw = eval_abcde(plan.initial, plan.continuations, compile_to_registry(chain))
        shown = [
            ", ".join("%s = %s" % (v.name, term_to_str(t)) for v, t in s.items())
            for s in plan.decode_all(raw)
        ]
        assert shown == answers

    @pytest.mark.parametrize("mode", sorted(DECODE_CHAINS))
    def test_malformed_answers_raise(self, mode):
        goal = "s([a],Y,Z)" if mode == "moded" else "a(X,Y,[a])"
        plan = compile_goal(parse_goal(goal), DECODE_CHAINS[mode], mode)
        width = len(plan.initial.args) if mode == "definite" else 3
        a = Constant("a")
        U = ANSWER_VARS[-1]
        for answer in (
            a,
            mk_list([a]),
            mk_tuple([NIL] * (width - 1)),
            mk_tuple([NIL] * (width + 1)),
        ):
            with pytest.raises(ValueError, match="malformed"):
                plan.decode(answer)
        for stack in (mk_list([a]), U):
            for item in (a, U):
                with pytest.raises(ValueError, match="answer stack"):
                    plan.decode(mk_tuple([stack] + [item] * (width - 1)))
