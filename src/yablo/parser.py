"""Concrete syntax for terms and formulas.

Grammar, loosest first: `->` then `|` then `&` (all right associative), then
`~` and the quantifiers.  Comparisons bind tighter than connectives, `*`
tighter than `+` (both left associative).  The symbols and precedences are
`syntax`'s operator tables, which its printer reads too; this module derives
its lookups from them.  Quantifier bodies extend as far right as possible.
`>` is accepted and flipped into `<`.  `Prov[ body ; x := t, ... ]` is the
provability atom; with the substitution omitted every free variable of the
body is mapped to itself.  An identifier applied to arguments is a predicate
application, except `S(...)` (successor) and `Prov[...]`; a bare identifier
is a variable when lowercase and a zero-ary predicate when capitalized.

Identifiers (`[A-Za-z][A-Za-z0-9_]*`) and numerals (`[0-9]+`) are ASCII; any
other character outside whitespace is a parse error.  Nesting is capped at
MAX_DEPTH levels: each `(`, `~`, quantifier, `S(`, `Prov[` and binary
operator on the way into a subterm counts one, and so does each operator
consumed earlier in the same chain, so every later recursive walk
of the tree stays well inside Python's stack.  Deeper input raises ParseError
at the token that crosses the cap; the CLI exits 2 on it.  A numeral is one
node of any size up to the interpreter's int-from-str digit limit (4300
digits by default); a longer one is a parse error.

The GL oracle's modal grammar (`gl.parse_modal`) lives in `gl`, on this
module's tokens, nesting cap and ParseError.  This module does not import
`gl`, so the kernel leg never loads the oracle.
"""

from __future__ import annotations

import re
import sys

from .syntax import (
    COMPARISONS,
    CONNECTIVES,
    QUANTIFIERS,
    TERM_OPS,
    Box,
    Falsum,
    Formula,
    Lt,
    Not,
    Num,
    PredApp,
    Succ,
    SyntaxBuildError,
    Term,
    Var,
)

MAX_DEPTH = 100

_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<sym>->|:=|[\[\]();,.+*=<>~&|])|(?P<bad>\S))"
)
_QUANTIFIERS = {word: cls for cls, word in QUANTIFIERS.items()}
_KEYWORDS = {*_QUANTIFIERS, "bot"}
# `>` is `<` with its operands swapped
_COMPARISONS = {op: cls for cls, op in COMPARISONS.items()} | {">": lambda l, r: Lt(r, l)}


def _operators(table: dict, right_assoc: bool) -> dict:
    """symbol -> (precedence, right associative, constructor), from a table
    of class -> (symbol, precedence)."""
    return {op: (prec, right_assoc, cls) for cls, (op, prec) in table.items()}


_CONNECTIVES = _operators(CONNECTIVES, True)
_TERM_OPS = _operators(TERM_OPS, False)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


class _TooDeep(ParseError):
    """Raised past MAX_DEPTH; a parenthesis never backtracks over it."""


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, pos) triples, kind one of num, ident, sym, ending in eof."""
    toks = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        toks.append((kind, m[kind], m.start(kind)))
    toks.append(("eof", "", len(src)))
    return toks


def _build(pos: int, make, *args):
    """make(*args), with a constructor's complaint positioned at pos."""
    try:
        return make(*args)
    except SyntaxBuildError as e:
        raise ParseError(str(e), pos) from None


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    def at(self, text: str) -> bool:
        return self.toks[self.i][1] == text

    def eat(self, text: str) -> None:
        _, got, pos = self.toks[self.i]
        if got != text:
            raise ParseError(f"expected {text!r}, found {got or 'end of input'!r}", pos)
        self.i += 1

    def enter(self, depth: int, width: int = 1) -> int:
        """Step over the width tokens that open a subterm; its depth, within the cap."""
        if depth >= MAX_DEPTH:
            raise _TooDeep(f"nested deeper than {MAX_DEPTH} levels", self.toks[self.i][2])
        self.i += width
        return depth + 1

    def binary(self, ops: dict, operand, min_prec: int, depth: int):
        """Precedence climbing over the operators in ops, from min_prec up."""
        left = operand(depth)
        while True:
            op = ops.get(self.toks[self.i][1])
            if op is None or op[0] < min_prec:
                return left
            prec, right_assoc, make = op
            depth = self.enter(depth)
            left = make(left, self.binary(ops, operand, prec if right_assoc else prec + 1, depth))

    # -- formulas

    def formula(self, depth: int) -> Formula:
        return self.binary(_CONNECTIVES, self.unary, 1, depth)

    def unary(self, depth: int) -> Formula:
        text = self.toks[self.i][1]
        if text == "~":
            return Not(self.unary(self.enter(depth)))
        quantifier = _QUANTIFIERS.get(text)
        if quantifier is not None:
            depth = self.enter(depth)
            v = self.var_name()
            self.eat(".")
            return quantifier(v, self.formula(depth))
        return self.atom(depth)

    def var_name(self) -> str:
        kind, text, pos = self.toks[self.i]
        if kind != "ident" or not text[0].islower() or text in _KEYWORDS:
            raise ParseError("expected a variable name", pos)
        self.i += 1
        return _build(pos, Var, text).name

    def atom(self, depth: int) -> Formula:
        kind, text, pos = self.toks[self.i]
        if kind == "ident" and text != "S":
            after = self.toks[self.i + 1][1]
            if text == "bot":
                self.i += 1
                return Falsum()
            if text == "Prov" and after == "[":
                return self.box(depth)
            if after == "(":
                self.i += 2
                args = [self.term(depth)]
                while self.at(","):
                    self.i += 1
                    args.append(self.term(depth))
                self.eat(")")
                return PredApp(text, tuple(args))
            if text[0].isupper():
                self.i += 1
                return PredApp(text)
        elif text == "(":
            # a parenthesized formula, else a comparison whose left term
            # opens with a parenthesis
            mark = self.i
            try:
                inner = self.formula(self.enter(depth))
                self.eat(")")
                return inner
            except _TooDeep:
                raise
            except ParseError:
                self.i = mark
        left = self.term(depth)
        _, op, pos = self.toks[self.i]
        make = _COMPARISONS.get(op)
        if make is None:
            raise ParseError("expected a comparison operator", pos)
        self.i += 1
        return make(left, self.term(depth))

    def box(self, depth: int) -> Formula:
        depth = self.enter(depth, 2)  # Prov [
        template = self.formula(depth)
        entries: list[tuple[str, Term]] = []
        explicit = False
        if self.at(";"):
            self.i += 1
            while not self.at("]"):
                explicit = True
                v = self.var_name()
                self.eat(":=")
                entries.append((v, self.term(depth)))
                if not self.at(","):
                    break
                self.i += 1
        close = self.toks[self.i][2]
        self.eat("]")
        if not explicit:
            entries = [(v, Var(v)) for v in sorted(template.free)]
        return _build(close, Box, template, tuple(entries))

    # -- terms

    def term(self, depth: int) -> Term:
        return self.binary(_TERM_OPS, self.prim, 1, depth)

    def prim(self, depth: int) -> Term:
        kind, text, pos = self.toks[self.i]
        if kind == "num":
            self.i += 1
            try:
                return Num(int(text))
            except ValueError:  # past the interpreter's int-from-str digit limit
                limit = sys.get_int_max_str_digits()
                raise ParseError(f"numeral longer than {limit} digits", pos) from None
        successor = text == "S" and self.toks[self.i + 1][1] == "("
        if successor or text == "(":
            inner = self.term(self.enter(depth, 2 if successor else 1))
            self.eat(")")
            return Succ(inner) if successor else inner
        if kind == "ident" and text[0].islower() and text not in _KEYWORDS:
            self.i += 1
            return _build(pos, Var, text)
        raise ParseError("expected a term", pos)


def _parse(p: _Parser, start):
    """start's parse from depth 0, which must use up p's input."""
    out = start(0)
    kind, text, pos = p.toks[p.i]
    if kind != "eof":
        raise ParseError(f"trailing input starting at {text!r}", pos)
    return out


def parse_formula(src: str) -> Formula:
    p = _Parser(src)
    return _parse(p, p.formula)


def parse_term(src: str) -> Term:
    p = _Parser(src)
    return _parse(p, p.term)
