"""Concrete syntax: parse and print source programs, mode directives, goals.

Grammar (operator-free):

    program   := (directive | clause)*
    directive := ':-' 'mode' '(' name ',' '[' mode (',' mode)* ']' ')' '.'
    clause    := atom (':-' atom (',' atom)*)? '.'
    atom      := name | name '(' term (',' term)* ')'
    term      := VAR | INT | name | name '(' term (',' term)* ')'
               | '[' ']' | '[' terms ('|' term)? ']'
               | '<' '>' | '<' terms '>'          (angle-bracket tuples)

Lowercase-initial identifiers are atoms/functors, uppercase-initial (or '_')
are variables, '_' alone is an anonymous fresh variable.  '%' starts a line
comment.  Lists desugar to cons/nil; tuples to the reserved 'tuple' functor.

Each match of one regular expression, _TOKEN, is a token, a plain string;
the search skips whitespace between them, '%' comments match as tokens and
are dropped only when the text holds a '%', and one empty string ends the
list.  The parser reads the list by index, taking a token's kind from its
first character, and builds compounds in place, as terms.mk_list builds
lists.  Lines and columns are computed from a token's index only when an
error is raised.  Within one read (a program or a goal), every occurrence
of a name or an integer is the same Constant; terms are immutable, so
sharing it is safe, and the table goes with the read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from sys import intern

from .terms import (
    NIL,
    TUPLE_FUNCTOR,
    Compound,
    Constant,
    Variable,
    _new_object,
    is_cons,
    is_nil,
    is_tuple,
    list_parts,
    mk_list,
    mk_tuple,
    term_vars,
)

TUPLE_OPEN = "⟨"  # ⟨
TUPLE_CLOSE = "⟩"  # ⟩


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Data model


@dataclass(frozen=True)
class ModeDirective:
    predicate: str
    modes: tuple[str, ...]  # each 'in' or 'out'

    @property
    def arity(self):
        return len(self.modes)


@dataclass(frozen=True)
class SourceClause:
    head: Compound
    body: tuple[Compound, ...] = ()

    @property
    def is_unit(self):
        return not self.body


@dataclass(frozen=True)
class Goal:
    atom: Compound


@dataclass
class SourceProgram:
    clauses: tuple[SourceClause, ...] = ()
    modes: tuple[ModeDirective, ...] = ()
    name: str = ""
    _mode_index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._mode_index = {(d.predicate, d.arity): d for d in self.modes}

    def mode_for(self, name, arity):
        return self._mode_index.get((name, arity))

    def predicates(self):
        """Predicate (name, arity) pairs in first-occurrence order, heads
        before bodies."""
        seen = {}
        for c in self.clauses:
            for atom in (c.head, *c.body):
                key = (atom.functor, len(atom.args))
                seen.setdefault(key, None)
        return tuple(seen)

    def fully_moded(self):
        return all(key in self._mode_index for key in self.predicates())


# ---------------------------------------------------------------------------
# Lexer

# Each match is one token: a word, any character but whitespace, '%', ':'
# and a digit, ':-', a run of decimal digits, a lone ':', or a '%' line
# comment, which _tokens drops.  Whitespace is skipped between matches.
# Whatever character a token starts with, one alternative alone matches
# there (a word takes every word character but a digit), so their order
# changes no token, only how soon a match is found: words, the commonest
# tokens, come first.  \s, \w and \d agree with str.isspace,
# str.isalnum or '_', and str.isdecimal on every character.
_TOKEN = re.compile(r"[^\W\d]\w*|[^\s%:\d]|:-|\d+|:|%.*")

_PUNCT = {"(", ")", "[", "]", ",", "|", ".", TUPLE_OPEN, TUPLE_CLOSE}

# The closing token of each open term but a compound, which ")" closes.
_CLOSE = {"[": "]", "|": "]", TUPLE_OPEN: TUPLE_CLOSE}


def _shown(tok):
    if not tok:
        return "end of input"
    if tok[0].isdecimal():
        try:
            return repr(int(tok))
        except ValueError:  # past the digit limit: _check_tokens reports it
            pass
    return repr(tok)


def _tokens(text):
    """The tokens of text without its comments, then the end-of-input
    token, the empty string."""
    tokens = _TOKEN.findall(text)
    if "%" in text:
        tokens = [tok for tok in tokens if tok[0] != "%"]
    tokens.append("")
    return tokens


def _position(text, index):
    """Line and column of the token at index in _tokens(text).  A column
    counts every character before the token on its line, but none of a
    comment there, which can only run to the end of input."""
    starts = (m.start() for m in _TOKEN.finditer(text) if text[m.start()] != "%")
    at = next(islice(starts, index, None), len(text))
    line_start = text.rfind("\n", 0, at) + 1
    comment = text.find("%", line_start, at)
    if comment >= 0:
        at = comment
    return text.count("\n", 0, at) + 1, at - line_start + 1


def _check_tokens(text, tokens):
    """Raise a ParseError at the first token that no parse can take: a
    character that opens no token, a word that does not start with a letter
    or '_' (such as '²', a numeral), or an integer past the interpreter's
    digit limit."""
    for index, tok in enumerate(tokens):
        c = tok[:1]
        message = None
        if c.isdecimal():
            try:
                int(tok)
            except ValueError:
                message = "integer of %d digits is too long" % len(tok)
        elif tok and not (c.isalpha() or c == "_" or tok == ":-" or tok in _PUNCT):
            message = "unexpected character %r" % c
        if message:
            raise ParseError(message, *_position(text, index)) from None


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Reads the token list by index, and rejects any token the grammar
    does not admit where it stands.  _parse then reports instead the first
    token that no parse can take, if there is one anywhere."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokens(text)
        self.pos = 0
        self.clause_vars = {}
        # token -> its Constant: one per distinct symbol in this read.
        self.constants = {}

    def error(self, message, at=None):
        raise ParseError(message, *_position(self.text, self.pos if at is None else at))

    def expect(self, token, name=None):
        """Consume token, or fail naming it (or name, when given)."""
        tok = self.tokens[self.pos]
        if tok != token:
            self.error("expected %r, found %s" % (name or token, _shown(tok)))
        self.pos += 1

    def accept(self, token):
        """Consume the next token when it is token."""
        if self.tokens[self.pos] == token:
            self.pos += 1
            return True
        return False

    def name(self):
        """Consume and return an atom: a word starting with a letter that
        is not upper case."""
        tok = self.tokens[self.pos]
        if not tok[:1].isalpha() or tok[0].isupper():
            self.error("expected 'atom', found %s" % _shown(tok))
        self.pos += 1
        return tok

    def term(self):
        # Open compounds, lists, list tails and tuples wait on an explicit
        # stack of (opener, items, start) frames, so terms of any depth
        # parse without recursion; the innermost frame is kept in opener,
        # items and start.  The opener is the interned functor name, "[",
        # "|" (the tail of a list, which ends its items) or TUPLE_OPEN; start
        # counts the variables read before it opened (seen counts them all).
        tokens = self.tokens
        constants = self.constants
        clause_vars = self.clause_vars
        pos = self.pos
        frames = []
        opener = items = None
        seen = start = 0
        while True:
            tok = tokens[pos]
            pos += 1
            c = tok[:1]
            if c.isalpha() or c == "_":
                if c == "_" or c.isupper():
                    seen += 1
                    t = clause_vars.get(tok)  # never "_": each is fresh
                    if t is None:
                        t = Variable(tok)
                        if tok != "_":
                            clause_vars[tok] = t
                elif tokens[pos] == "(":
                    pos += 1
                    frames.append((opener, items, start))
                    opener, items, start = intern(tok), [], seen
                    continue
                else:
                    t = constants.get(tok)
                    if t is None:
                        t = constants[tok] = Constant(tok)
            elif c.isdecimal():
                t = constants.get(tok)
                if t is None:
                    try:
                        t = constants[tok] = Constant(int(tok))
                    except ValueError:  # past the digit limit: see _check_tokens
                        self.error("integer too long", pos - 1)
            elif tok == "[" or tok == TUPLE_OPEN:
                if tokens[pos] != _CLOSE[tok]:
                    frames.append((opener, items, start))
                    opener, items, start = tok, [], seen
                    continue
                pos += 1
                t = NIL if tok == "[" else Compound(TUPLE_FUNCTOR, ())
            else:
                self.error("expected a term", pos - 1)
            # t is complete: close every frame it completes, or stop at the
            # separator before the next item.
            while opener is not None:
                items.append(t)
                tok = tokens[pos]
                pos += 1
                if tok == "," and opener != "|":
                    break
                if tok == "|" and opener == "[":
                    opener = "|"
                    break
                close = _CLOSE.get(opener, ")")
                if tok != close:
                    self.error("expected %r, found %s" % (close, _shown(tok)), pos - 1)
                if opener == "[":
                    t = mk_list(items)
                elif opener == "|":
                    t = mk_list(items[:-1], items[-1])
                else:
                    t = _new_object(Compound)
                    t.functor = TUPLE_FUNCTOR if opener == TUPLE_OPEN else opener
                    t.args = tuple(items)
                    t.ground = seen == start
                opener, items, start = frames.pop()
            else:
                self.pos = pos
                return t

    def head_or_body_atom(self):
        self.name()
        self.pos -= 1  # the name is read again as a term
        t = self.term()
        # Normalize 0-ary predicates to empty-args compounds so any atom
        # position is uniformly a Compound.
        if type(t) is Constant:
            return Compound(t.symbol, ())
        return t

    def directive(self):
        self.expect(":-", "neck")
        at = self.pos
        name = self.name()
        if name != "mode":
            self.error("unknown directive %r" % name, at)
        self.expect("(")
        predicate = self.name()
        self.expect(",")
        self.expect("[")
        modes = [self.mode_word()]
        while self.accept(","):
            modes.append(self.mode_word())
        self.expect("]")
        self.expect(")")
        self.expect(".")
        return ModeDirective(predicate, tuple(modes))

    def mode_word(self):
        at = self.pos
        word = self.name()
        if word not in ("in", "out"):
            self.error("mode must be 'in' or 'out', found %r" % word, at)
        return word

    def clause(self):
        self.clause_vars = {}
        head = self.head_or_body_atom()
        body = []
        if self.accept(":-"):
            body.append(self.head_or_body_atom())
            while self.accept(","):
                body.append(self.head_or_body_atom())
        self.expect(".")
        return SourceClause(head, tuple(body))

    def program(self, name=""):
        clauses = []
        directives = {}
        starts = {}  # (name, arity) -> index of the token opening its directive
        tokens = self.tokens
        while tokens[self.pos]:
            if tokens[self.pos] == ":-":
                start = self.pos
                d = self.directive()
                key = (d.predicate, d.arity)
                if key in directives:
                    self.error(
                        "duplicate mode directive for %s/%d" % key, self.pos - 1
                    )
                directives[key] = d
                starts[key] = start
            else:
                clauses.append(self.clause())
        prog = SourceProgram(tuple(clauses), tuple(directives.values()), name)
        self.check_directive_arities(prog, starts)
        return prog

    def goal(self):
        self.clause_vars = {}
        atom = self.head_or_body_atom()
        if self.tokens[self.pos] == ",":
            self.error("conjunction goals are not supported (single atom only)")
        self.accept(".")
        self.expect("", "eof")
        return Goal(atom)

    def check_directive_arities(self, prog, starts):
        """Reject a directive for a name the program uses only at other
        arities, at the directive's opening token (starts[(name, arity)])."""
        arity_by_name = {}
        for c in prog.clauses:
            for atom in (c.head, *c.body):
                arity_by_name.setdefault(atom.functor, set()).add(len(atom.args))
        for d in prog.modes:
            used = arity_by_name.get(d.predicate)
            if used and d.arity not in used:
                self.error(
                    "mode directive for %s declares arity %d but the program "
                    "uses arity %s"
                    % (d.predicate, d.arity, "/".join(map(str, sorted(used)))),
                    starts[(d.predicate, d.arity)],
                )


def _parse(text, rule, *args):
    parser = _Parser(text)
    try:
        return rule(parser, *args)
    except ParseError:
        _check_tokens(text, parser.tokens)
        raise


def parse_program(text: str, name: str = "") -> SourceProgram:
    """Parse a program file's text.  Clause order is preserved."""
    return _parse(text, _Parser.program, name)


def parse_goal(text: str) -> Goal:
    """Parse a single-atom goal, with variables fresh w.r.t. everything."""
    return _parse(text, _Parser.goal)


# ---------------------------------------------------------------------------
# Printer


def _display_names(variables):
    """Pick display names: the bare name when unique among the given
    variables, otherwise name, name_2, name_3 by first occurrence."""
    by_name = {}
    for v in variables:
        by_name.setdefault(v.name, []).append(v)
    names = {}
    for name, group in by_name.items():
        if len(group) == 1:
            names[group[0]] = name
        else:
            for k, v in enumerate(group):
                names[v] = name if k == 0 else "%s_%d" % (name, k + 1)
    return names


def term_to_str(t, var_names=None):
    """Render a term; lists and tuples get their bracket sugar."""
    if var_names is None:
        var_names = _display_names(term_vars(t))
    return _render(t, var_names)


def _render(t, names):
    # An explicit stack of pending pieces, each a string to emit or a term to
    # render, so terms of any depth print without recursion.
    out = []
    pending = [t]
    while pending:
        t = pending.pop()
        if type(t) is str:
            out.append(t)
        elif type(t) is Variable:
            out.append(names.get(t, "%s_%d" % (t.name, t.serial)))
        elif type(t) is Constant:
            out.append("[]" if is_nil(t) else str(t.symbol))
        elif is_cons(t):
            items, tail = list_parts(t)
            pending.append("]")
            if not is_nil(tail):
                pending.extend((tail, "|"))
            _push_args(pending, items, "[")
        elif is_tuple(t):
            pending.append(TUPLE_CLOSE)
            _push_args(pending, t.args, TUPLE_OPEN)
        elif not t.args:
            out.append(t.functor)
        else:
            pending.append(")")
            _push_args(pending, t.args, t.functor + "(")
    return "".join(out)


def _push_args(pending, args, opening):
    # Push opening and the comma-separated args so that they pop in reading
    # order.
    for i in range(len(args) - 1, 0, -1):
        pending.extend((args[i], ","))
    if args:
        pending.append(args[0])
    pending.append(opening)


def atom_to_str(atom, var_names):
    if not atom.args:
        return atom.functor
    return "%s(%s)" % (
        atom.functor,
        ",".join(_render(x, var_names) for x in atom.args),
    )


def clause_to_str(clause: SourceClause) -> str:
    names = _display_names(term_vars(mk_tuple((clause.head, *clause.body))))
    head = atom_to_str(clause.head, names)
    if clause.is_unit:
        return head + "."
    body = ", ".join(atom_to_str(a, names) for a in clause.body)
    return "%s :- %s." % (head, body)


def directive_to_str(d: ModeDirective) -> str:
    return ":- mode(%s, [%s])." % (d.predicate, ",".join(d.modes))


def goal_to_str(g: Goal) -> str:
    names = _display_names(term_vars(g.atom))
    return atom_to_str(g.atom, names)


def print_program(p) -> str:
    """Render a source or chain program so that parsing the output yields an
    alpha-equivalent program, clause by clause."""
    if not isinstance(p, SourceProgram):
        # Chain programs are printed through their source embedding.
        p = p.to_source()
    lines = [directive_to_str(d) for d in p.modes]
    lines.extend(clause_to_str(c) for c in p.clauses)
    return "\n".join(lines) + ("\n" if lines else "")
