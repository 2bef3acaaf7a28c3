# The brute-force GL search before it evaluated each frame once over all
# valuations, kept verbatim (only its imports are absolute and added here)
# as the reference that tests/test_gl.py compares yablo.gl.brute_force with.
# It evaluates every (frame, valuation) pair on its own and has no budget.

from functools import lru_cache

from yablo.gl import (
    And,
    Atom,
    Falsum,
    GLResult,
    Imp,
    KripkeModel,
    MFormula,
    Not,
    Or,
    atoms_of,
)


@lru_cache(maxsize=8)
def _transitive_relations(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            out.append(tuple(sorted(rel)))
    return tuple(out)


def _eval_mask(f: MFormula, full: int, succ: list[int], am: dict[str, int]) -> int:
    """Truth of f at every world at once, as a bitmask over worlds."""
    if isinstance(f, Atom):
        return am.get(f.name, 0)
    if isinstance(f, Falsum):
        return 0
    if isinstance(f, Not):
        return full & ~_eval_mask(f.sub, full, succ, am)
    if isinstance(f, Imp):
        return (full & ~_eval_mask(f.left, full, succ, am)) | _eval_mask(f.right, full, succ, am)
    if isinstance(f, And):
        return _eval_mask(f.left, full, succ, am) & _eval_mask(f.right, full, succ, am)
    if isinstance(f, Or):
        return _eval_mask(f.left, full, succ, am) | _eval_mask(f.right, full, succ, am)
    sub = _eval_mask(f.sub, full, succ, am)
    return sum(1 << w for w in range(full.bit_length()) if succ[w] & ~sub == 0)


def brute_force(f: MFormula, max_worlds: int = 4) -> GLResult:
    """Scan every frame up to the size bound for a falsifying world.

    Deterministic: the counterexample, if any, is the first in the fixed
    enumeration order (size, then relation, then valuation, then world).
    """
    names = sorted(atoms_of(f))
    checked = 0
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for rel in _transitive_relations(n):
            succ = [0] * n
            for a, b in rel:
                succ[a] |= 1 << b
            for vmask in range(1 << (n * len(names))):
                am = {
                    name: sum(
                        1 << w
                        for w in range(n)
                        if vmask >> (w * len(names) + k) & 1
                    )
                    for k, name in enumerate(names)
                }
                checked += 1
                truth = _eval_mask(f, full, succ, am)
                if truth != full:
                    world = (truth ^ full & -(truth ^ full)).bit_length() - 1
                    val = tuple(
                        frozenset(name for name in names if am[name] >> w & 1)
                        for w in range(n)
                    )
                    model = KripkeModel(n, frozenset(rel), val)
                    return GLResult(False, model, world, checked)
    return GLResult(True, None, None, checked)
