# The printer before its operator tables: print_term, print_formula and the
# precedence functions _term_prec and _prec, kept verbatim (only its imports
# are absolute and added here) as the reference that tests/test_syntax.py
# compares yablo.syntax's printer with.  Each binary kind's symbol and
# precedence is written into its own case here.

from __future__ import annotations

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
    Num,
    Or,
    Plus,
    PredApp,
    Succ,
    Term,
    Times,
    Var,
    decimal,
)


def _term_prec(t: Term) -> int:
    # atom/succ/numeral 3, times 2, plus 1
    match t:
        case Plus(_, _):
            return 1
        case Times(_, _):
            return 2
        case _:
            return 3


def print_term(t: Term) -> str:
    match t:
        case Num(n):
            return decimal(n)
        case Var(name):
            return name
        case Succ(a):
            return f"S({print_term(a)})"
        case Plus(l, r):
            ls = print_term(l) if _term_prec(l) >= 1 else f"({print_term(l)})"
            rs = print_term(r) if _term_prec(r) >= 2 else f"({print_term(r)})"
            return f"{ls} + {rs}"
        case Times(l, r):
            ls = print_term(l) if _term_prec(l) >= 2 else f"({print_term(l)})"
            rs = print_term(r) if _term_prec(r) >= 3 else f"({print_term(r)})"
            return f"{ls} * {rs}"
    raise TypeError(f"not a term: {t!r}")


def _prec(f: Formula) -> int:
    # -> 1, | 2, & 3, ~ 4, atoms 5; quantifiers print parenthesized as operands
    match f:
        case Imp(_, _):
            return 1
        case Or(_, _):
            return 2
        case And(_, _):
            return 3
        case Not(_):
            return 4
        case ForAll(_, _) | Exists(_, _):
            return 0
        case _:
            return 5


def print_formula(f: Formula) -> str:
    def operand(g: Formula, minimum: int) -> str:
        s = print_formula(g)
        return s if _prec(g) >= minimum else f"({s})"

    match f:
        case Falsum():
            return "bot"
        case Eq(l, r):
            return f"{print_term(l)} = {print_term(r)}"
        case Lt(l, r):
            return f"{print_term(l)} < {print_term(r)}"
        case Not(s):
            return f"~{operand(s, 4)}"
        case And(l, r):
            return f"{operand(l, 4)} & {operand(r, 3)}"
        case Or(l, r):
            return f"{operand(l, 3)} | {operand(r, 2)}"
        case Imp(l, r):
            return f"{operand(l, 2)} -> {operand(r, 1)}"
        case ForAll(v, b):
            return f"all {v}. {print_formula(b)}"
        case Exists(v, b):
            return f"exists {v}. {print_formula(b)}"
        case PredApp(name, args):
            if not args:
                return name
            return f"{name}({', '.join(print_term(a) for a in args)})"
        case Box(tpl, subst):
            inner = print_formula(tpl)
            if not subst:
                return f"Prov[{inner} ;]"
            entries = ", ".join(f"{v} := {print_term(t)}" for v, t in subst)
            return f"Prov[{inner} ; {entries}]"
    raise TypeError(f"not a formula: {f!r}")
