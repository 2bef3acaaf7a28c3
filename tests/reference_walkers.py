# The recursive walkers that recomputed free variables and predicate uses on
# every call, before each syntax node held them, kept as the reference that
# tests/test_syntax.py compares the node attributes with.  Only the imports are
# absolute and added here, and free_vars has lost its body_vars hook, which
# served only a memo of substitute_many.  tests/reference_substitute.py rescans
# quantifier bodies with these walkers.

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
    Or,
    Plus,
    PredApp,
    Signature,
    Succ,
    Term,
    Times,
    Var,
)


def term_vars(t: Term) -> set[str]:
    match t:
        case Var(name):
            return {name}
        case Succ(a):
            return term_vars(a)
        case Plus(l, r) | Times(l, r):
            return term_vars(l) | term_vars(r)
        case _:
            return set()


def free_vars(f: Formula) -> set[str]:
    match f:
        case Falsum():
            return set()
        case Eq(l, r) | Lt(l, r):
            return term_vars(l) | term_vars(r)
        case Not(s):
            return free_vars(s)
        case Imp(l, r) | And(l, r) | Or(l, r):
            return free_vars(l) | free_vars(r)
        case ForAll(v, b) | Exists(v, b):
            return free_vars(b) - {v}
        case PredApp(_, args):
            out: set[str] = set()
            for a in args:
                out |= term_vars(a)
            return out
        case Box(_, subst):
            out = set()
            for _, t in subst:
                out |= term_vars(t)
            return out
    raise TypeError(f"not a formula: {f!r}")


def _template_var_order(f: Formula) -> list[str]:
    """Free variables of a Box template in first-occurrence order."""
    seen: list[str] = []

    def walk_term(t: Term, bound: frozenset[str]):
        match t:
            case Var(name):
                if name not in bound and name not in seen:
                    seen.append(name)
            case Succ(a):
                walk_term(a, bound)
            case Plus(l, r) | Times(l, r):
                walk_term(l, bound)
                walk_term(r, bound)

    def walk(g: Formula, bound: frozenset[str]):
        match g:
            case Eq(l, r) | Lt(l, r):
                walk_term(l, bound)
                walk_term(r, bound)
            case Not(s):
                walk(s, bound)
            case Imp(l, r) | And(l, r) | Or(l, r):
                walk(l, bound)
                walk(r, bound)
            case ForAll(v, b) | Exists(v, b):
                walk(b, bound | {v})
            case PredApp(_, args):
                for a in args:
                    walk_term(a, bound)
            case Box(_, subst):
                for _, t in subst:
                    walk_term(t, bound)

    walk(f, frozenset())
    return seen


def arity_violation(f: Formula, sig: Signature) -> str | None:
    """First predicate-usage problem in f (quotation templates included)."""
    match f:
        case PredApp(name, args):
            known = sig.arity(name)
            if known is None:
                return f"unknown predicate {name}"
            if known != len(args):
                return f"predicate {name} expects {known} arguments, got {len(args)}"
            return None
        case Not(s):
            return arity_violation(s, sig)
        case Imp(l, r) | And(l, r) | Or(l, r):
            return arity_violation(l, sig) or arity_violation(r, sig)
        case ForAll(_, b) | Exists(_, b):
            return arity_violation(b, sig)
        case Box(tpl, _):
            return arity_violation(tpl, sig)
        case _:
            return None
