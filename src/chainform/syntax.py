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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import (
    NIL,
    TUPLE_FUNCTOR,
    Compound,
    Constant,
    Variable,
    fresh_var,
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

_PUNCT = {"(", ")", "[", "]", ",", "|", ".", TUPLE_OPEN, TUPLE_CLOSE}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # 'atom', 'var', 'int', 'punct', 'neck', 'eof'
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.value)


def _tokenize(text):
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c == ":" and i + 1 < n and text[i + 1] == "-":
            tokens.append(_Token("neck", ":-", line, start_col))
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            tokens.append(_Token("punct", c, line, start_col))
            i += 1
            col += 1
            continue
        # isdecimal, not isdigit: int() refuses digits such as '²'.
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past the interpreter's digit limit
                raise ParseError(
                    "integer of %d digits is too long" % (j - i), line, start_col
                ) from None
            tokens.append(_Token("int", value, line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if (c == "_" or c.isupper()) else "atom"
            tokens.append(_Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % c, line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.clause_vars = {}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind, value=None):
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = "end of input" if tok.kind == "eof" else repr(tok.value)
            self.error("expected %r, found %s" % (want, got))
        return self.advance()

    def variable(self, name):
        if name == "_":
            return fresh_var("_")
        v = self.clause_vars.get(name)
        if v is None:
            v = fresh_var(name)
            self.clause_vars[name] = v
        return v

    def accept(self, value):
        """Consume the next token when it is the punctuation value."""
        tok = self.tokens[self.pos]
        if tok.kind == "punct" and tok.value == value:
            self.pos += 1
            return True
        return False

    def term(self):
        # Open compounds, lists, list tails and tuples wait on an explicit
        # stack of (opener, items) frames, so terms of any depth parse
        # without recursion.  The opener is the functor name, "[", "|" (the
        # tail of a list, which ends its items) or TUPLE_OPEN.
        frames = []
        while True:
            tok = self.peek()
            if tok.kind == "var":
                self.advance()
                t = self.variable(tok.value)
            elif tok.kind == "int":
                self.advance()
                t = Constant(tok.value)
            elif tok.kind == "atom":
                self.advance()
                if self.accept("("):
                    frames.append((tok.value, []))
                    continue
                t = Constant(tok.value)
            elif self.accept("["):
                if not self.accept("]"):
                    frames.append(("[", []))
                    continue
                t = NIL
            elif self.accept(TUPLE_OPEN):
                if not self.accept(TUPLE_CLOSE):
                    frames.append((TUPLE_OPEN, []))
                    continue
                t = Compound(TUPLE_FUNCTOR, ())
            else:
                self.error("expected a term")
            # t is complete: close every frame it completes, or stop at the
            # separator before the next item.
            while frames:
                opener, items = frames[-1]
                items.append(t)
                if opener != "|" and self.accept(","):
                    break
                if opener == "[" and self.accept("|"):
                    frames[-1] = ("|", items)
                    break
                frames.pop()
                if opener == "[":
                    self.expect("punct", "]")
                    t = mk_list(items)
                elif opener == "|":
                    self.expect("punct", "]")
                    t = mk_list(items[:-1], items[-1])
                elif opener == TUPLE_OPEN:
                    self.expect("punct", TUPLE_CLOSE)
                    t = Compound(TUPLE_FUNCTOR, tuple(items))
                else:
                    self.expect("punct", ")")
                    t = Compound(opener, tuple(items))
            else:
                return t

    def head_or_body_atom(self):
        if self.peek().kind != "atom":
            self.expect("atom")
        t = self.term()
        # Normalize 0-ary predicates to empty-args compounds so any atom
        # position is uniformly a Compound.
        if type(t) is Constant:
            return Compound(t.symbol, ())
        return t

    def directive(self):
        self.expect("neck")
        name_tok = self.expect("atom")
        if name_tok.value != "mode":
            self.error("unknown directive %r" % name_tok.value, name_tok)
        self.expect("punct", "(")
        pred_tok = self.expect("atom")
        self.expect("punct", ",")
        self.expect("punct", "[")
        modes = [self.mode_word()]
        while self.accept(","):
            modes.append(self.mode_word())
        self.expect("punct", "]")
        self.expect("punct", ")")
        self.expect("punct", ".")
        return ModeDirective(pred_tok.value, tuple(modes))

    def mode_word(self):
        tok = self.expect("atom")
        if tok.value not in ("in", "out"):
            self.error("mode must be 'in' or 'out', found %r" % tok.value, tok)
        return tok.value

    def clause(self):
        self.clause_vars = {}
        head = self.head_or_body_atom()
        body = []
        if self.peek().kind == "neck":
            self.advance()
            body.append(self.head_or_body_atom())
            while self.accept(","):
                body.append(self.head_or_body_atom())
        self.expect("punct", ".")
        return SourceClause(head, tuple(body))

    def program(self, name=""):
        clauses = []
        directives = {}
        starts = {}  # (name, arity) -> the token that opens its directive
        while self.peek().kind != "eof":
            if self.peek().kind == "neck":
                start = self.peek()
                d = self.directive()
                key = (d.predicate, d.arity)
                if key in directives:
                    self.error(
                        "duplicate mode directive for %s/%d" % key,
                        self.tokens[self.pos - 1],
                    )
                directives[key] = d
                starts[key] = start
            else:
                clauses.append(self.clause())
        prog = SourceProgram(tuple(clauses), tuple(directives.values()), name)
        _check_directive_arities(prog, starts)
        return prog

    def goal(self):
        self.clause_vars = {}
        atom = self.head_or_body_atom()
        tok = self.peek()
        if self.accept(","):
            self.error("conjunction goals are not supported (single atom only)", tok)
        self.accept(".")
        self.expect("eof")
        return Goal(atom)


def _check_directive_arities(prog, starts):
    """Reject a directive for a name the program uses only at other arities,
    at the position of the directive's opening token (starts[(name, arity)])."""
    arity_by_name = {}
    for c in prog.clauses:
        for atom in (c.head, *c.body):
            arity_by_name.setdefault(atom.functor, set()).add(len(atom.args))
    for d in prog.modes:
        used = arity_by_name.get(d.predicate)
        if used and d.arity not in used:
            tok = starts[(d.predicate, d.arity)]
            raise ParseError(
                "mode directive for %s declares arity %d but the program "
                "uses arity %s"
                % (d.predicate, d.arity, "/".join(map(str, sorted(used)))),
                tok.line,
                tok.col,
            )


def parse_program(text: str, name: str = "") -> SourceProgram:
    """Parse a program file's text.  Clause order is preserved."""
    return _Parser(text).program(name)


def parse_goal(text: str) -> Goal:
    """Parse a single-atom goal, with variables fresh w.r.t. everything."""
    return _Parser(text).goal()


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
