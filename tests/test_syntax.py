"""Parser and printer tests, including round-trip laws."""

import pytest

from chainform.syntax import (
    ModeDirective,
    ParseError,
    SourceClause,
    clause_to_str,
    goal_to_str,
    parse_goal,
    parse_program,
    print_program,
    term_to_str,
)
from chainform.terms import (
    Compound,
    Constant,
    NIL,
    Variable,
    alpha_equivalent,
    cons,
    mk_list,
    mk_tuple,
    term_vars,
)

SPLIT = """\
:- mode(s, [in,out,out]).
s(L, nil, L).
s([A|N], [A|L], M) :- s(N, L, M).
"""

APPEND = "a(nil,L,L).\na([A|L],M,[A|N]) :- a(L,M,N).\n"


def alpha_eq_clause(c1, c2):
    pack1 = mk_tuple([c1.head, *c1.body])
    pack2 = mk_tuple([c2.head, *c2.body])
    return alpha_equivalent(pack1, pack2)


class TestParseProgram:
    def test_split_unit_plus_directive(self):
        p = parse_program(SPLIT)
        assert len(p.clauses) == 2
        assert p.modes == (ModeDirective("s", ("in", "out", "out")),)
        assert p.clauses[0].is_unit
        assert p.clauses[0].head.functor == "s"

    def test_append_two_clauses(self):
        p = parse_program(APPEND)
        assert len(p.clauses) == 2
        assert not p.clauses[1].is_unit
        assert len(p.clauses[1].body) == 1

    def test_truncated_input(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(X")
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p([a|b,c]).", "expected ']', found ',' (line 1, column 7)"),
            ("p([a|]).", "expected a term (line 1, column 6)"),
            ("p([a,]).", "expected a term (line 1, column 6)"),
            ("p(f(a|b)).", "expected ')', found '|' (line 1, column 6)"),
            ("p(f()).", "expected a term (line 1, column 5)"),
            ("p(⟨a|b⟩).", "expected '⟩', found '|' (line 1, column 5)"),
            ("p(⟨a,b).", "expected '⟩', found ')' (line 1, column 7)"),
            ("p(a) :- .", "expected 'atom', found '.' (line 1, column 9)"),
        ],
    )
    def test_error_positions(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == message

    def test_variables_scoped_per_clause(self):
        p = parse_program("p(X) :- q(X).\nr(X).")
        v1 = term_vars(p.clauses[0].head)[0]
        v2 = term_vars(p.clauses[1].head)[0]
        assert v1 != v2

    def test_anonymous_vars_fresh_each_time(self):
        p = parse_program("p(_, _).")
        vs = term_vars(p.clauses[0].head)
        assert len(vs) == 2

    def test_duplicate_mode_directive(self):
        bad = ":- mode(p, [in]).\n:- mode(p, [out]).\np(a)."
        with pytest.raises(ParseError, match="duplicate"):
            parse_program(bad)

    def test_mode_directives_per_arity(self):
        text = ":- mode(p, [in]).\n:- mode(p, [in,out]).\np(a).\np(a, b)."
        p = parse_program(text)
        assert p.mode_for("p", 1).modes == ("in",)
        assert p.mode_for("p", 2).modes == ("in", "out")
        assert p.mode_for("p", 3) is None
        assert p.fully_moded()
        with pytest.raises(ParseError, match="duplicate"):
            parse_program(":- mode(p, [in,out]).\n" + text)

    def test_directive_arity_mismatch(self):
        bad = ":- mode(p, [in,out]).\np(a)."
        with pytest.raises(ParseError, match="arity"):
            parse_program(bad)

    def test_list_sugar(self):
        p = parse_program("p([a,b|T]).")
        arg = p.clauses[0].head.args[0]
        assert arg.functor == "cons"
        assert arg.args[0] == Constant("a")

    def test_nil_and_brackets_coincide(self):
        p = parse_program("p(nil, []).")
        x, y = p.clauses[0].head.args
        assert x == y == NIL

    def test_integers(self):
        p = parse_program("p(0, 42).")
        assert p.clauses[0].head.args == (Constant(0), Constant(42))

    def test_comments(self):
        p = parse_program("% leading\np(a). % trailing\n% done\n")
        assert len(p.clauses) == 1

    def test_zero_arity_predicate(self):
        p = parse_program("p.\nq :- p.")
        assert p.clauses[0].head == Compound("p", ())
        assert p.clauses[1].body == (Compound("p", ()),)

    def test_tuple_syntax(self):
        p = parse_program("u(⟨St,[A|N]⟩, ⟨[A|St],N⟩).")
        left = p.clauses[0].head.args[0]
        assert left.functor == "tuple"
        assert len(left.args) == 2

    def test_empty_tuple(self):
        p = parse_program("u(⟨⟩, ⟨St⟩).")
        assert p.clauses[0].head.args[0] == mk_tuple([])


class TestParseGoal:
    def test_simple(self):
        g = parse_goal("s([a,b], Y, Z)")
        assert g.atom.functor == "s"
        assert len(term_vars(g.atom)) == 2

    def test_append_goal(self):
        g = parse_goal("ap(X,Y,[a,b])")
        assert g.atom.functor == "ap"

    def test_conjunction_rejected(self):
        with pytest.raises(ParseError, match="conjunction"):
            parse_goal("p(X), q(X)")

    def test_trailing_period_ok(self):
        assert parse_goal("p(X).").atom.functor == "p"


class TestPrint:
    def test_simple_round_trip(self):
        text = "a(nil,L,L)."
        out = print_program(parse_program(text))
        assert out.strip() == "a([],L,L)."
        again = parse_program(out)
        assert alpha_eq_clause(again.clauses[0], parse_program(text).clauses[0])

    def test_empty_program(self):
        assert print_program(parse_program("")) == ""

    def test_round_trip_idempotent(self):
        p1 = parse_program(SPLIT)
        text1 = print_program(p1)
        p2 = parse_program(text1)
        text2 = print_program(p2)
        assert text1 == text2
        assert len(p1.clauses) == len(p2.clauses)
        for c1, c2 in zip(p1.clauses, p2.clauses):
            assert alpha_eq_clause(c1, c2)
        assert p1.modes == p2.modes

    def test_body_order_preserved(self):
        text = "p(X) :- q(X), r(X), s(X)."
        p = parse_program(text)
        assert [a.functor for a in p.clauses[0].body] == ["q", "r", "s"]
        out = print_program(p)
        assert out.index("q(") < out.index("r(") < out.index("s(")

    def test_term_rendering(self):
        X = Variable("X")
        assert term_to_str(mk_list([Constant("a"), Constant("b")], X)) == "[a,b|X]"
        assert term_to_str(NIL) == "[]"
        assert term_to_str(mk_tuple([Constant(1)])) == "⟨1⟩"
        assert term_to_str(mk_tuple([])) == "⟨⟩"
        assert term_to_str(Compound("f", (Compound("z", ()), NIL))) == "f(z,[])"

    def test_deep_terms_at_default_limit(self, default_recursion_limit):
        n = 10**5
        numeral = Constant(0)
        nested = NIL
        for _ in range(n):
            numeral = Compound("s", (numeral,))
            nested = cons(nested, NIL)
        assert term_to_str(numeral) == "s(" * n + "0" + ")" * n
        assert term_to_str(nested) == "[" * n + "[]" + "]" * n

    @pytest.mark.parametrize(
        "opening,inner,closing",
        [("s(", "X", ")"), ("[", "X", "]"), ("⟨", "X", "⟩"), ("[a|", "T", "]")],
        ids=["compound", "list", "tuple", "tail"],
    )
    def test_deep_text_at_default_limit(
        self, opening, inner, closing, default_recursion_limit
    ):
        n = 10**5
        text = "p(%s)" % (opening * n + inner + closing * n)
        want = text
        if opening == "[a|":  # a chain of tails prints as one flat list
            want = "p([%s|T])" % ",".join(["a"] * n)
        assert term_to_str(parse_goal(text).atom) == want
        program = parse_program(text + ".")
        assert term_to_str(program.clauses[0].head) == want

    def test_same_named_distinct_vars_disambiguated(self):
        v1 = Variable("X")
        v2 = Variable("X")
        c = SourceClause(Compound("p", (v1, v2)), ())
        text = clause_to_str(c)
        assert text == "p(X,X_2)."
        back = parse_program(text)
        assert alpha_eq_clause(back.clauses[0], c)

    def test_goal_to_str(self):
        assert goal_to_str(parse_goal("s([a,b],Y,Z)")) == "s([a,b],Y,Z)"

    def test_chain_program_printing(self):
        from chainform.fixtures import load_fixture
        from chainform.transform import transform_moded

        chain = transform_moded(load_fixture("split"))
        text = print_program(chain)
        assert (
            "s_hat(X0,X3) :- h_2_0(X0,X1), s_hat(X1,X2), h_2_1(X2,X3)." in text
        )
        back = parse_program(text)
        assert len(back.clauses) == 4
        for c1, c2 in zip(back.clauses, chain.to_source().clauses):
            assert alpha_eq_clause(c1, c2)
