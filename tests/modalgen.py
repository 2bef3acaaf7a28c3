"""Exhaustive enumeration of small modal formulas, shared by the oracle tests.

Formulas are counted by node count: leaves are the listed atoms plus bottom,
every unary/binary connective adds one node.  The enumeration is deterministic
so failures reproduce.
"""

from functools import lru_cache

from yablo.gl import And, Atom, Box, Falsum, Imp, MFormula, Not, Or

ATOMS = ("p", "q")


@lru_cache(maxsize=None)
def _of_size(n: int) -> tuple[MFormula, ...]:
    if n == 1:
        return tuple(Atom(a) for a in ATOMS) + (Falsum(),)
    out: list[MFormula] = []
    for sub in _of_size(n - 1):
        out.append(Not(sub))
        out.append(Box(sub))
    for k in range(1, n - 1):
        for left in _of_size(k):
            for right in _of_size(n - 1 - k):
                out.append(Imp(left, right))
                out.append(And(left, right))
                out.append(Or(left, right))
    return tuple(out)


def small_formulas(max_nodes: int = 4) -> list[MFormula]:
    out: list[MFormula] = []
    for n in range(1, max_nodes + 1):
        out.extend(_of_size(n))
    return out


def random_formula(rng, atoms: tuple[str, ...], nodes: int) -> MFormula:
    """A seeded random formula of exactly `nodes` nodes over atoms and bottom."""
    if nodes == 1:
        return rng.choice([Atom(a) for a in atoms] + [Falsum()])
    if nodes == 2 or rng.random() < 0.3:
        return rng.choice((Not, Box))(random_formula(rng, atoms, nodes - 1))
    left = rng.randrange(1, nodes - 1)
    return rng.choice((Imp, And, Or))(random_formula(rng, atoms, left),
                                      random_formula(rng, atoms, nodes - 1 - left))
