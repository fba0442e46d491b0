"""Parser and printer tests, including round-trip laws."""

import re
import sys
from itertools import islice

import pytest
from conftest import alpha_equivalent
from corpus import (
    CORPUS_DIGEST,
    EDIT_CHARS,
    corpus_digest,
    parse_corpus,
    parse_outcomes,
)
from hypothesis import example, given, settings, strategies as st

from chainform import syntax
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
    cons,
    list_parts,
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

    def test_directive_arity_mismatch_position(self):
        bad = "p(a).\n\n  :- mode(p,[in,out])."
        with pytest.raises(ParseError) as err:
            parse_program(bad)
        assert (err.value.line, err.value.col) == (3, 3)
        assert str(err.value).endswith("(line 3, column 3)")

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

    def test_one_constant_per_symbol_per_read(self):
        # Within a read every occurrence of a token is one Constant (01
        # and 1 are two equal ones); another read makes its own.
        a, items, f, one = parse_goal("p(a, [a,1,b,01], f(a,1), 1)").atom.args
        (a2, one2, b, one3), _ = list_parts(items)
        assert a2 is a and f.args[0] is a
        assert one2 is one and f.args[1] is one and one3 == one
        assert b == Constant("b") and one == Constant(1) != Constant("1")
        again = parse_goal("p(a)").atom.args[0]
        assert again == a and again is not a
        clauses = parse_program("p(a, 1).\nq(a) :- p(a, 1).").clauses
        assert clauses[1].head.args[0] is clauses[0].head.args[0]
        assert clauses[1].body[0].args[1] is clauses[0].head.args[1]


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


# ---------------------------------------------------------------------------
# Pinned parse behaviour: every outcome over a seeded corpus, hashed (the
# corpus and its digest are in corpus.py).

LONG = "9" * 5000


class TestPinnedParse:
    def test_corpus_digest(self):
        assert corpus_digest(parse_corpus(11, 2000)) == CORPUS_DIGEST

    @pytest.mark.parametrize(
        "text,program,goal",
        [
            # '²' and 'Ⅰ' are word characters to a regular expression, and
            # 'Ⅰ' is upper case, but neither is a letter.
            ("p(²).", "unexpected character '²' (line 1, column 3)", None),
            ("p(Ⅰ).", "unexpected character 'Ⅰ' (line 1, column 3)", None),
            ("p(a²).", "p(a²).\n", "p(a²)"),
            ("p(aⅠ).", "p(aⅠ).\n", "p(aⅠ)"),
            ("p(a) :- q(1²).", "unexpected character '²' (line 1, column 12)", None),
            ("p(١٢, X).", "p(12,X).\n", "p(12,X)"),
            ("p(1 007).", "expected ')', found 7 (line 1, column 5)", None),
            # Whitespace other than a line feed counts one column.
            (
                "p(a,\u00a0b).\u2028q(c).\x1c",
                "p(a,b).\nq(c).\n",
                "expected 'eof', found 'q' (line 1, column 10)",
            ),
            ("\u00a0\u2028\x1cp(]).", "expected a term (line 1, column 6)", None),
            ("\tp(\t]).", "expected a term (line 1, column 5)", None),
            (
                "p(a).\n\t\tq(X,\t$).",
                "unexpected character '$' (line 2, column 8)",
                None,
            ),
            # End of input inside a comment is at the comment's column.
            (
                "p(X) % c",
                "expected '.', found end of input (line 1, column 6)",
                "p(X)",
            ),
            (
                "p(X).\n  q( % c",
                "expected a term (line 2, column 6)",
                "expected 'eof', found 'q' (line 2, column 3)",
            ),
            # A tokenizer error anywhere wins over an earlier parse error.
            ("p(]) q($).", "unexpected character '$' (line 1, column 8)", None),
            (
                "p(]) q(%s)." % LONG,
                "integer of 5000 digits is too long (line 1, column 8)",
                None,
            ),
            (
                "p(%s, $)." % LONG,
                "integer of 5000 digits is too long (line 1, column 3)",
                None,
            ),
            (
                "p(a %s)." % LONG,
                "integer of 5000 digits is too long (line 1, column 5)",
                None,
            ),
        ],
    )
    def test_outcome(self, text, program, goal):
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if LONG in text and not 0 < limit < len(LONG):
            pytest.skip("no integer digit limit below 5000 digits")
        goal = program if goal is None else goal
        want = []
        for expected in (program, goal):
            at = re.search(r"\(line (\d+), column (\d+)\)$", expected)
            if at:
                expected = "error: %s @ %s:%s" % (expected, *at.groups())
            want.append(expected)
        assert parse_outcomes(text) == want


# ---------------------------------------------------------------------------
# The tokenizer against the one it replaced, which skipped whitespace and
# comments before each token inside the regular expression, and returned
# the end of input as one or two empty strings.

REFERENCE_TOKEN = re.compile(r"(?:\s+|%.*)*(:-|\d+|[^\W\d]\w*|.|\Z)")


def reference_position(text, index):
    at = next(islice(REFERENCE_TOKEN.finditer(text), index, None)).start(1)
    line_start = text.rfind("\n", 0, at) + 1
    comment = text.find("%", line_start, at)
    if comment >= 0:
        at = comment
    return text.count("\n", 0, at) + 1, at - line_start + 1


TOKEN_TEXTS = st.lists(
    st.one_of(
        st.sampled_from(EDIT_CHARS),
        st.from_regex(r"[a-zA-Z_é][a-zA-Z0-9_é²Ⅰ]{0,4}", fullmatch=True),
        st.from_regex(r"[0-9١]{1,4}", fullmatch=True),
        st.just(":-"),
        st.text(EDIT_CHARS, max_size=6).map(lambda c: "%" + c),
        st.just("\r\n"),
    ),
    max_size=30,
).map("".join).flatmap(
    lambda text: st.sampled_from(["", " ", "\n", "\t\r\n", "\u2028"]).map(
        lambda end: text + end
    )
)


class TestTokens:
    @settings(max_examples=400)
    @given(TOKEN_TEXTS)
    @example("p(X) % c")
    @example("p(X).\r\n  q( % c\r\n")
    @example("%")
    @example("")
    def test_equals_reference(self, text):
        tokens = syntax._tokens(text)
        reference = REFERENCE_TOKEN.findall(text)
        # The same tokens, then one end token where the reference has one
        # or two.
        assert tokens[-1] == ""
        assert tokens[:-1] == [tok for tok in reference if tok]
        assert reference[len(tokens) - 1:] in ([""], ["", ""])
        outcomes = parse_outcomes(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(syntax, "_tokens", REFERENCE_TOKEN.findall)
            patch.setattr(syntax, "_position", reference_position)
            assert parse_outcomes(text) == outcomes
