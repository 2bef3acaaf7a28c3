# The object parser before its regex lexer and precedence-climbing loop,
# kept verbatim (only the import of yablo.syntax is absolute) as the
# reference that tests/test_parser_reference.py compares yablo.parser with.

"""Concrete syntax for terms and formulas.

Grammar, loosest first: `->` (right associative) then `|` then `&` then `~`.
Comparisons bind tighter than connectives, `*` tighter than `+` (both left
associative).  Quantifier bodies extend as far right as possible.  `>` is
accepted and flipped into `<`.  `Prov[ body ; x := t, ... ]` is the provability
atom; with the substitution omitted every free variable of the body is mapped
to itself.  An identifier applied to arguments is a predicate application,
except `S(...)` (successor) and `Prov[...]`; a bare identifier is a variable
when lowercase and a zero-ary predicate when capitalized.
"""

from __future__ import annotations

from dataclasses import dataclass

from yablo.syntax import (
    And,
    Box,
    Eq,
    Exists,
    Falsum,
    ForAll,
    Formula,
    Imp,
    Lt,
    Not,
    Or,
    Plus,
    PredApp,
    Succ,
    SyntaxBuildError,
    Term,
    Times,
    Var,
    free_vars,
    numeral,
)

_SYMBOLS = ["->", ":=", "(", ")", "[", "]", ";", ",", ".", "+", "*", "=", "<", ">", "~", "&", "|"]
_KEYWORDS = {"all", "exists", "bot"}


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


@dataclass(frozen=True)
class _Tok:
    kind: str  # "num" | "ident" | "sym" | "eof"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(_Tok("num", src[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("ident", src[i:j], i))
            i = j
            continue
        for sym in _SYMBOLS:
            if src.startswith(sym, i):
                toks.append(_Tok("sym", sym, i))
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Tok("eof", "", n))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    # -- cursor helpers

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == text

    def eat_sym(self, text: str) -> None:
        if not self.at_sym(text):
            t = self.peek()
            got = t.text or "end of input"
            raise ParseError(f"expected {text!r}, found {got!r}", t.pos)
        self.next()

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.peek().pos)

    # -- formulas

    def formula(self) -> Formula:
        left = self._or()
        if self.at_sym("->"):
            self.next()
            return Imp(left, self.formula())
        return left

    def _or(self) -> Formula:
        left = self._and()
        if self.at_sym("|"):
            self.next()
            return Or(left, self._or())
        return left

    def _and(self) -> Formula:
        left = self._not()
        if self.at_sym("&"):
            self.next()
            return And(left, self._and())
        return left

    def _not(self) -> Formula:
        if self.at_sym("~"):
            self.next()
            return Not(self._not())
        t = self.peek()
        if t.kind == "ident" and t.text in ("all", "exists"):
            self.next()
            v = self._var_name()
            self.eat_sym(".")
            body = self.formula()
            return ForAll(v, body) if t.text == "all" else Exists(v, body)
        return self._atom()

    def _var_name(self) -> str:
        t = self.peek()
        if t.kind != "ident" or not t.text[0].islower() or t.text in _KEYWORDS:
            raise self.fail("expected a variable name")
        self.next()
        try:
            Var(t.text)
        except SyntaxBuildError as e:
            raise ParseError(str(e), t.pos) from None
        return t.text

    def _atom(self) -> Formula:
        t = self.peek()
        if t.kind == "ident":
            if t.text == "bot":
                self.next()
                return Falsum()
            if t.text == "Prov" and self.peek(1).text == "[":
                return self._box()
            if self.peek(1).text == "(" and t.text != "S":
                return self._predapp()
            if t.text[0].isupper() and t.text != "S":
                self.next()
                return PredApp(t.text, ())
        if self.at_sym("("):
            mark = self.i
            try:
                self.next()
                inner = self.formula()
                self.eat_sym(")")
                return inner
            except ParseError:
                self.i = mark
        return self._comparison()

    def _comparison(self) -> Formula:
        left = self.term()
        t = self.peek()
        if t.kind == "sym" and t.text in ("<", "=", ">"):
            self.next()
            right = self.term()
            if t.text == "=":
                return Eq(left, right)
            if t.text == "<":
                return Lt(left, right)
            return Lt(right, left)
        raise self.fail("expected a comparison operator")

    def _predapp(self) -> Formula:
        name = self.next().text
        self.eat_sym("(")
        args = [self.term()]
        while self.at_sym(","):
            self.next()
            args.append(self.term())
        self.eat_sym(")")
        return PredApp(name, tuple(args))

    def _box(self) -> Formula:
        self.next()  # Prov
        self.eat_sym("[")
        template = self.formula()
        entries: list[tuple[str, Term]] = []
        explicit = False
        if self.at_sym(";"):
            self.next()
            while not self.at_sym("]"):
                explicit = True
                v = self._var_name()
                self.eat_sym(":=")
                entries.append((v, self.term()))
                if self.at_sym(","):
                    self.next()
                    continue
                break
        close = self.peek()
        self.eat_sym("]")
        if not explicit:
            entries = [(v, Var(v)) for v in sorted(free_vars(template))]
        try:
            return Box(template, tuple(entries))
        except SyntaxBuildError as e:
            raise ParseError(str(e), close.pos) from None

    # -- terms

    def term(self) -> Term:
        left = self._mul()
        while self.at_sym("+"):
            self.next()
            left = Plus(left, self._mul())
        return left

    def _mul(self) -> Term:
        left = self._prim()
        while self.at_sym("*"):
            self.next()
            left = Times(left, self._prim())
        return left

    def _prim(self) -> Term:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return numeral(int(t.text))
        if t.kind == "ident" and t.text == "S" and self.peek(1).text == "(":
            self.next()
            self.eat_sym("(")
            inner = self.term()
            self.eat_sym(")")
            return Succ(inner)
        if t.kind == "ident" and t.text[0].islower() and t.text not in _KEYWORDS:
            self.next()
            try:
                return Var(t.text)
            except SyntaxBuildError as e:
                raise ParseError(str(e), t.pos) from None
        if self.at_sym("("):
            self.next()
            inner = self.term()
            self.eat_sym(")")
            return inner
        raise self.fail("expected a term")

    def finish(self) -> None:
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input starting at {t.text!r}", t.pos)


def parse_formula(src: str) -> Formula:
    p = _Parser(src)
    f = p.formula()
    p.finish()
    return f


def parse_term(src: str) -> Term:
    p = _Parser(src)
    t = p.term()
    p.finish()
    return t
