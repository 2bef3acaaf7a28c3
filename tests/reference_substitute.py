# Capture-avoiding substitution before it memoized the free variables of
# quantifier bodies, kept verbatim (only its imports are absolute and added
# here) as the reference that tests/test_syntax.py compares
# yablo.syntax.substitute_many with.  It recomputes free_vars(b) at every
# quantifier it passes, with the recursive walker of tests/reference_walkers.py,
# so it is quadratic in quantifier nesting.

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
    PredApp,
    Term,
    Var,
    fresh_name,
    substitute_term,
)

from reference_walkers import free_vars, term_vars


def substitute_many(f: Formula, sigma: dict[str, Term]) -> Formula:
    """Capture-avoiding parallel substitution of terms for free variables.

    Inside a Box only the subst range terms are rewritten; the template is
    quoted material and never touched.
    """
    sigma = {v: t for v, t in sigma.items() if not (isinstance(t, Var) and t.name == v)}
    if not sigma:
        return f

    def go(g: Formula, sg: dict[str, Term]) -> Formula:
        if not sg:
            return g
        match g:
            case Falsum():
                return g
            case Eq(l, r):
                return Eq(substitute_term(l, sg), substitute_term(r, sg))
            case Lt(l, r):
                return Lt(substitute_term(l, sg), substitute_term(r, sg))
            case Not(s):
                return Not(go(s, sg))
            case Imp(l, r):
                return Imp(go(l, sg), go(r, sg))
            case And(l, r):
                return And(go(l, sg), go(r, sg))
            case Or(l, r):
                return Or(go(l, sg), go(r, sg))
            case PredApp(name, args):
                return PredApp(name, tuple(substitute_term(a, sg) for a in args))
            case Box(tpl, subst):
                return Box(tpl, tuple((v, substitute_term(t, sg)) for v, t in subst))
            case ForAll(v, b) | Exists(v, b):
                inner = {w: t for w, t in sg.items() if w != v and w in free_vars(b)}
                cls = ForAll if isinstance(g, ForAll) else Exists
                if not inner:
                    return cls(v, b)
                clash = set()
                for t in inner.values():
                    clash |= term_vars(t)
                if v in clash:
                    avoid = clash | free_vars(b) | set(inner)
                    v2 = fresh_name(v, avoid)
                    b = go(b, {v: Var(v2)})
                    v = v2
                return cls(v, go(b, inner))
        raise TypeError(f"not a formula: {g!r}")

    return go(f, sigma)
