"""Independent oracle for the propositional modal logic of derivability (GL).

This module shares no inference machinery with the kernel.  It has its own
formula type, a backward sequent tableau whose modal rule bakes the
diagonal collapse into the jump (the jumped-on box joins the premise on the
left), and a brute-force search over small transitive irreflexive frames
used to cross-check the tableau.  Skeleton extraction maps quantifier-free
object formulas onto modal shapes so corpus lemmas can be replayed here.

Termination of the tableau needs no loop check: boolean decomposition only
shrinks the non-modal part, and each modal jump strictly grows the set of
boxed formulas on the left, which is bounded by the subformula closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import syntax as fol


class MFormula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(MFormula):
    name: str


@dataclass(frozen=True)
class Falsum(MFormula):
    pass


@dataclass(frozen=True)
class Not(MFormula):
    sub: MFormula


@dataclass(frozen=True)
class Imp(MFormula):
    left: MFormula
    right: MFormula


@dataclass(frozen=True)
class And(MFormula):
    left: MFormula
    right: MFormula


@dataclass(frozen=True)
class Or(MFormula):
    left: MFormula
    right: MFormula


@dataclass(frozen=True)
class Box(MFormula):
    sub: MFormula


def atoms_of(f: MFormula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset({f.name})
    if isinstance(f, (Not, Box)):
        return atoms_of(f.sub)
    if isinstance(f, (Imp, And, Or)):
        return atoms_of(f.left) | atoms_of(f.right)
    return frozenset()


# -- printing and parsing

_PREC = {Imp: 1, Or: 2, And: 3}


def print_modal(f: MFormula, prec: int = 0) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Falsum):
        return "bot"
    if isinstance(f, Not):
        return "~" + print_modal(f.sub, 4)
    if isinstance(f, Box):
        return "[]" + print_modal(f.sub, 4)
    op, mine = {Imp: ("->", 1), Or: ("|", 2), And: ("&", 3)}[type(f)]
    s = f"{print_modal(f.left, mine + 1)} {op} {print_modal(f.right, mine)}"
    return f"({s})" if prec > mine else s


class ModalParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


MAX_DEPTH = 100


def parse_modal(text: str) -> MFormula:
    """The modal formula text spells.  Nesting is capped at MAX_DEPTH levels,
    each `~`, `[]`, `(` and binary operator on the way in counting one, so
    the tableau, brute force and printer stay within Python's stack; deeper
    input raises ModalParseError at the token that crosses the cap."""
    toks: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("[]", i):
            toks.append(("box", "[]", i))
            i += 2
            continue
        if text.startswith("->", i):
            toks.append(("sym", "->", i))
            i += 2
            continue
        if c in "~&|()":
            toks.append(("sym", c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ModalParseError(f"unexpected character {c!r}", i)
    pos = 0

    def peek() -> tuple[str, str, int] | None:
        return toks[pos] if pos < len(toks) else None

    def eat(kind: str, value: str | None = None) -> tuple[str, str, int]:
        nonlocal pos
        t = peek()
        if t is None or t[0] != kind or (value is not None and t[1] != value):
            where = t[2] if t else len(text)
            raise ModalParseError(f"expected {value or kind}", where)
        pos += 1
        return t

    def enter(depth: int, kind: str, value: str | None = None) -> int:
        """Eat the token that opens a subformula; its depth, within the cap."""
        if depth >= MAX_DEPTH:
            raise ModalParseError(f"nested deeper than {MAX_DEPTH} levels", toks[pos][2])
        eat(kind, value)
        return depth + 1

    def imp(depth: int) -> MFormula:
        left = disj(depth)
        t = peek()
        if t and t[:2] == ("sym", "->"):
            return Imp(left, imp(enter(depth, "sym", "->")))
        return left

    def disj(depth: int) -> MFormula:
        left = conj(depth)
        while (t := peek()) and t[:2] == ("sym", "|"):
            depth = enter(depth, "sym", "|")
            left = Or(left, conj(depth))
        return left

    def conj(depth: int) -> MFormula:
        left = unary(depth)
        while (t := peek()) and t[:2] == ("sym", "&"):
            depth = enter(depth, "sym", "&")
            left = And(left, unary(depth))
        return left

    def unary(depth: int) -> MFormula:
        t = peek()
        if t is None:
            raise ModalParseError("formula ends early", len(text))
        if t[:2] == ("sym", "~"):
            return Not(unary(enter(depth, "sym")))
        if t[0] == "box":
            return Box(unary(enter(depth, "box")))
        if t[:2] == ("sym", "("):
            inner = imp(enter(depth, "sym"))
            eat("sym", ")")
            return inner
        if t[0] == "ident":
            eat("ident")
            return Falsum() if t[1] == "bot" else Atom(t[1])
        raise ModalParseError(f"unexpected {t[1]!r}", t[2])

    out = imp(0)
    if pos < len(toks):
        raise ModalParseError(f"trailing input {toks[pos][1]!r}", toks[pos][2])
    return out


# -- models

class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class KripkeModel:
    size: int
    rel: frozenset[tuple[int, int]]
    val: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        if self.size < 1 or len(self.val) != self.size:
            raise ModelError("one valuation per world is required")
        succ: list[set[int]] = [set() for _ in range(self.size)]
        for a, b in self.rel:
            if not (0 <= a < self.size and 0 <= b < self.size):
                raise ModelError(f"edge ({a}, {b}) leaves the frame")
            if a == b:
                raise ModelError(f"edge ({a}, {a}) breaks irreflexivity")
            succ[a].add(b)
        for a, b in self.rel:
            missing = succ[b] - succ[a]
            if missing:
                raise ModelError(f"missing edge ({a}, {min(missing)}) breaks transitivity")

    def successors(self, w: int) -> list[int]:
        return [b for a, b in self.rel if a == w]


def forces(model: KripkeModel, w: int, f: MFormula) -> bool:
    """Truth of f at world w.  A box's truth at a world is computed once per
    call, so nested boxes cost time linear in their depth, not exponential."""
    # successors in index order: a tableau countermodel numbers its worlds
    # depth first, so a box tries its children before their descendants
    succ: list[list[int]] = [[] for _ in range(model.size)]
    for a, b in sorted(model.rel):
        succ[a].append(b)
    boxes: dict[tuple[int, int], bool] = {}

    def at(w: int, f: MFormula) -> bool:
        if isinstance(f, Atom):
            return f.name in model.val[w]
        if isinstance(f, Falsum):
            return False
        if isinstance(f, Not):
            return not at(w, f.sub)
        if isinstance(f, Imp):
            return not at(w, f.left) or at(w, f.right)
        if isinstance(f, And):
            return at(w, f.left) and at(w, f.right)
        if isinstance(f, Or):
            return at(w, f.left) or at(w, f.right)
        if isinstance(f, Box):
            key = (w, id(f))
            if key not in boxes:
                boxes[key] = all(at(v, f.sub) for v in succ[w])
            return boxes[key]
        raise ModelError(f"cannot evaluate {f!r}")

    return at(w, f)


@dataclass(frozen=True)
class GLResult:
    valid: bool
    model: KripkeModel | None
    world: int | None
    visited: int


class GLBudgetExceeded(Exception):
    pass


# -- sequent tableau

@dataclass(frozen=True)
class _Tree:
    atoms: frozenset[str]
    children: tuple["_Tree", ...]


def _sort_key(f: MFormula) -> str:
    return print_modal(f)


class _Search:
    def __init__(self, budget: int):
        self.budget = budget
        self.visited = 0
        self.memo: dict[tuple[frozenset, frozenset], bool | _Tree] = {}

    def solve(self, gamma: frozenset, delta: frozenset) -> bool | _Tree:
        key = (gamma, delta)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.visited += 1
        if self.visited > self.budget:
            raise GLBudgetExceeded(f"sequent budget of {self.budget} exhausted")
        out = self._step(gamma, delta)
        self.memo[key] = out
        return out

    def _step(self, gamma: frozenset, delta: frozenset) -> bool | _Tree:
        if gamma & delta or Falsum() in gamma:
            return True
        for f in sorted(gamma, key=_sort_key):
            if isinstance(f, Not):
                return self.solve(gamma - {f}, delta | {f.sub})
            if isinstance(f, And):
                return self.solve(gamma - {f} | {f.left, f.right}, delta)
            if isinstance(f, Or):
                first = self.solve(gamma - {f} | {f.left}, delta)
                if first is not True:
                    return first
                return self.solve(gamma - {f} | {f.right}, delta)
            if isinstance(f, Imp):
                first = self.solve(gamma - {f}, delta | {f.left})
                if first is not True:
                    return first
                return self.solve(gamma - {f} | {f.right}, delta)
        for f in sorted(delta, key=_sort_key):
            if isinstance(f, Falsum):
                return self.solve(gamma, delta - {f})
            if isinstance(f, Not):
                return self.solve(gamma | {f.sub}, delta - {f})
            if isinstance(f, Imp):
                return self.solve(gamma | {f.left}, delta - {f} | {f.right})
            if isinstance(f, Or):
                return self.solve(gamma, delta - {f} | {f.left, f.right})
            if isinstance(f, And):
                first = self.solve(gamma, delta - {f} | {f.left})
                if first is not True:
                    return first
                return self.solve(gamma, delta - {f} | {f.right})
        # saturated: only atoms and boxes remain
        failures = []
        boxed_left = frozenset(
            x for b in gamma if isinstance(b, Box) for x in (b, b.sub)
        )
        for f in sorted(delta, key=_sort_key):
            if isinstance(f, Box):
                premise = self.solve(boxed_left | {f}, frozenset({f.sub}))
                if premise is True:
                    return True
                failures.append(premise)
        here = frozenset(a.name for a in gamma if isinstance(a, Atom))
        return _Tree(here, tuple(failures))


def _tree_to_model(tree: _Tree) -> KripkeModel:
    worlds: list[frozenset[str]] = []
    edges: set[tuple[int, int]] = set()

    def visit(node: _Tree) -> list[int]:
        mine = len(worlds)
        worlds.append(node.atoms)
        subtree = [mine]
        for child in node.children:
            below = visit(child)
            edges.update((mine, d) for d in below)
            subtree.extend(below)
        return subtree

    visit(tree)
    return KripkeModel(len(worlds), frozenset(edges), tuple(worlds))


def decide_gl(f: MFormula, budget: int = 200_000) -> GLResult:
    """Decide validity over transitive, conversely well-founded frames."""
    search = _Search(budget)
    out = search.solve(frozenset(), frozenset({f}))
    if out is True:
        return GLResult(True, None, None, search.visited)
    return GLResult(False, _tree_to_model(out), 0, search.visited)


# -- brute force over small frames

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


# -- skeletons of quantifier-free object formulas

class NotSkeletonizable(ValueError):
    pass


def skeleton(f: fol.Formula) -> MFormula:
    """Modal shape of a quantifier-free object formula.

    The consistency sentence unfolds to its definition first, quotations
    become boxes around the skeleton of their applied template, and any
    other atomic formula becomes an opaque atom keyed by its printed form.
    """
    if isinstance(f, fol.PredApp) and f.name == "Con" and not f.args:
        return Not(Box(Falsum()))
    if isinstance(f, fol.Falsum):
        return Falsum()
    if isinstance(f, (fol.Eq, fol.Lt, fol.PredApp)):
        return Atom(fol.print_formula(f))
    if isinstance(f, fol.Not):
        return Not(skeleton(f.sub))
    if isinstance(f, fol.Imp):
        return Imp(skeleton(f.left), skeleton(f.right))
    if isinstance(f, fol.And):
        return And(skeleton(f.left), skeleton(f.right))
    if isinstance(f, fol.Or):
        return Or(skeleton(f.left), skeleton(f.right))
    if isinstance(f, fol.Box):
        return Box(skeleton(fol.apply_box_subst(f)))
    raise NotSkeletonizable(f"quantifier at {fol.print_formula(f)}")
