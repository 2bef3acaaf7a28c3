"""Independent oracle for the propositional modal logic of derivability (GL).

This module shares no inference machinery with the kernel.  It has its own
formula type, a backward sequent tableau whose modal rule bakes the
diagonal collapse into the jump (the jumped-on box joins the premise on the
left), and a brute-force search over small transitive irreflexive frames
used to cross-check the tableau.  Skeleton extraction maps quantifier-free
object formulas onto modal shapes so corpus lemmas can be replayed here.
Only the concrete syntax is shared: `parse_modal` reads modal formulas with
the object language's parser (its tokens, precedence climbing, nesting cap
and ParseError), and `print_modal` writes them.  Both read CONNECTIVES,
which takes each connective's symbol and precedence from `syntax`'s table:
`->`, `|` and `&` are right associative, loosest first.  `~`, the box `[]`
(also written `[ ]`) and `(` each count one nesting level; `bot` is falsum
and any other identifier is an atom.

Formulas, Kripke models and results are immutable, slotted values of one
base class, kept apart from `syntax`'s nodes: fields are named once, in
__match_args__, and taken positionally; assigning one raises AttributeError;
the hash is computed once, at construction, from the fields' hashes, so the
tableau's sets of formulas hash each formula in constant time.  Formula
equality checks identity, then kind and hash, then the operands.

Termination of the tableau needs no loop check: boolean decomposition only
shrinks the non-modal part, and each modal jump strictly grows the set of
boxed formulas on the left, which is bounded by the subformula closure.
"""

from __future__ import annotations

from functools import lru_cache

from . import syntax as fol
from .parser import ParseError, _operators, _Parser, _parse


_set = object.__setattr__  # the one way to fill a value's slots


class _Value:
    """Base of this module's formulas and records: immutable and slotted.

    Each class names its fields once, in __match_args__, and adds them to its
    __slots__; the constructor takes them in that order and computes the hash
    once, from theirs.  Two values are equal when they are of one class with
    equal hashes and equal fields."""

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self.__match_args__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__match_args__}")
        for name, value in zip(self.__match_args__, values):
            _set(self, name, value)
        _set(self, "_hash", hash((type(self), *values)))

    def __init_subclass__(cls):
        cls.__hash__ = _Value.__hash__  # which a class's own __eq__ would unset

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._hash == other._hash
                                 and all(getattr(self, k) == getattr(other, k)
                                         for k in self.__match_args__))

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class MFormula(_Value):
    __slots__ = ()


class Atom(MFormula):
    __slots__ = __match_args__ = ("name",)


class Falsum(MFormula):
    __slots__ = ()
    _hash = hash("bot")  # no fields, so one hash for every Falsum

    def __init__(self):
        pass

    def __eq__(self, other):
        return type(other) is Falsum


class _Unary(MFormula):
    __slots__ = __match_args__ = ("sub",)

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._hash == other._hash
                                 and self.sub == other.sub)


class _Binary(MFormula):
    __slots__ = __match_args__ = ("left", "right")

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._hash == other._hash
                                 and self.left == other.left and self.right == other.right)


class Not(_Unary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


def atoms_of(f: MFormula) -> frozenset[str]:
    return frozenset(_atoms_and_size(f)[0])


def _atoms_and_size(f: MFormula) -> tuple[set[str], int]:
    """f's atoms and its number of nodes, from one walk."""
    atoms: set[str] = set()
    size = 0
    todo = [f]
    while todo:
        g = todo.pop()
        size += 1
        if isinstance(g, Atom):
            atoms.add(g.name)
        elif isinstance(g, (Not, Box)):
            todo.append(g.sub)
        elif isinstance(g, (Imp, And, Or)):
            todo += (g.left, g.right)
    return atoms, size


# each object connective's modal counterpart, whose symbol and precedence
# are the object connective's
_MIRRORS = {fol.Imp: Imp, fol.Or: Or, fol.And: And}
CONNECTIVES = {cls: fol.CONNECTIVES[obj] for obj, cls in _MIRRORS.items()}


# -- printing

def print_modal(f: MFormula, prec: int = 0) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Falsum):
        return "bot"
    if isinstance(f, Not):
        return "~" + print_modal(f.sub, 4)
    if isinstance(f, Box):
        return "[]" + print_modal(f.sub, 4)
    op, mine = CONNECTIVES[type(f)]
    s = f"{print_modal(f.left, mine + 1)} {op} {print_modal(f.right, mine)}"
    return f"({s})" if prec > mine else s


# -- parsing

_MODAL_CONNECTIVES = _operators(CONNECTIVES, True)


class _ModalParser(_Parser):
    """The GL oracle's formulas, on the object language's tokens."""

    def modal(self, depth: int) -> MFormula:
        return self.binary(_MODAL_CONNECTIVES, self.modal_unary, 1, depth)

    def modal_unary(self, depth: int) -> MFormula:
        kind, text, pos = self.toks[self.i]
        if text == "~":
            return Not(self.modal_unary(self.enter(depth)))
        if text == "[":
            depth = self.enter(depth)
            self.eat("]")
            return Box(self.modal_unary(depth))
        if text == "(":
            inner = self.modal(self.enter(depth))
            self.eat(")")
            return inner
        if kind == "ident":
            self.i += 1
            return Falsum() if text == "bot" else Atom(text)
        raise ParseError("expected a modal formula", pos)


def parse_modal(src: str) -> MFormula:
    p = _ModalParser(src)
    return _parse(p, p.modal)


# -- models

class ModelError(ValueError):
    pass


class KripkeModel(_Value):
    __slots__ = __match_args__ = ("size", "rel", "val")

    def __init__(self, size: int, rel: frozenset[tuple[int, int]],
                 val: tuple[frozenset[str], ...]) -> None:
        _Value.__init__(self, size, rel, val)
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


class GLResult(_Value):
    """A verdict: valid, or a countermodel (a KripkeModel) and a world of it
    where the formula is false; visited counts the states searched."""

    __slots__ = __match_args__ = ("valid", "model", "world", "visited")


class GLBudgetExceeded(Exception):
    pass


# -- sequent tableau

class _Tree(_Value):
    """A countermodel as a tree: the atoms true at its root, and a subtree
    for each box the root falsifies."""

    __slots__ = __match_args__ = ("atoms", "children")


# Non-branching rules run in a loop; only splits and modal jumps nest, two
# stack frames each, so a path of MAX_PATH of them stays inside Python's
# default recursion limit.
MAX_PATH = 300


class _Search:
    def __init__(self, budget: int):
        self.budget = budget
        self.visited = 0
        self.depth = 0
        self.memo: dict[tuple[frozenset, frozenset], bool | _Tree] = {}
        # each node's printed form, the order rules are tried in; every node
        # sorted is a subformula of the root, which outlives the search
        self.keys: dict[int, str] = {}

    def _sorted(self, fs: frozenset) -> list[MFormula]:
        keys = self.keys
        for f in fs:
            if id(f) not in keys:
                keys[id(f)] = print_modal(f)
        return sorted(fs, key=lambda f: keys[id(f)])

    def solve(self, gamma: frozenset, delta: frozenset) -> bool | _Tree:
        """The outcome of the sequent: True, or the tree of a countermodel.
        Each sequent met along the way counts as visited and is memoized."""
        if self.depth >= MAX_PATH:
            raise GLBudgetExceeded(f"a tableau branch nests more than {MAX_PATH} splits and jumps")
        self.depth += 1
        try:
            chain = []
            while (out := self.memo.get((gamma, delta))) is None:
                self.visited += 1
                if self.visited > self.budget:
                    raise GLBudgetExceeded(f"sequent budget of {self.budget} exhausted")
                chain.append((gamma, delta))
                out = self._step(gamma, delta)
                if not isinstance(out, tuple):
                    break
                gamma, delta = out
            for key in chain:
                self.memo[key] = out
            return out
        finally:
            self.depth -= 1

    def _step(self, gamma: frozenset,
              delta: frozenset) -> bool | _Tree | tuple[frozenset, frozenset]:
        """The outcome of the sequent, or the one premise of a non-branching
        rule, for solve to continue with."""
        if gamma & delta or Falsum() in gamma:
            return True
        for f in self._sorted(gamma):
            if isinstance(f, Not):
                return gamma - {f}, delta | {f.sub}
            if isinstance(f, And):
                return gamma - {f} | {f.left, f.right}, delta
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
        for f in self._sorted(delta):
            if isinstance(f, Falsum):
                return gamma, delta - {f}
            if isinstance(f, Not):
                return gamma | {f.sub}, delta - {f}
            if isinstance(f, Imp):
                return gamma | {f.left}, delta - {f} | {f.right}
            if isinstance(f, Or):
                return gamma, delta - {f} | {f.left, f.right}
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
        for f in self._sorted(delta):
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

_BLOCK_BITS = 16  # a block of valuations is at most 2**16, the bits of one column

# Node evaluations one scan may spend: each evaluation of the formula on a
# frame's block charges its nodes times the frame's worlds.  Six million of
# them take about 2 s (CPython 3.11, 2 vCPU); the pair budget does not bound
# them.
MAX_BRUTE_WORK = 6_000_000


@lru_cache(maxsize=8)
def _transitive_relations(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every strict partial order on worlds 0..n-1 as its sorted edges, in
    increasing order of its mask over the pairs (i, j), i != j, row by row.

    The orders on n worlds extend those on n - 1 by a last world x: the
    worlds x sees form an up-set D, the worlds that see x a down-set U, and
    every world of U sees every world of D."""
    if n == 0:
        return ((),)
    x = n - 1
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    bit = {p: 1 << k for k, p in enumerate(pairs)}
    edge = {p: p for p in pairs}  # one tuple per edge, shared by every frame
    members = [[y for y in range(x) if s >> y & 1] for s in range(1 << x)]
    keyed = []
    for rel in _transitive_relations(x):
        succ, pred = [0] * x, [0] * x
        for a, b in rel:
            succ[a] |= 1 << b
            pred[b] |= 1 << a
        ups = [s for s in range(1 << x) if all(succ[y] & ~s == 0 for y in members[s])]
        downs = [s for s in range(1 << x) if all(pred[y] & ~s == 0 for y in members[s])]
        for u in downs:
            seen_by_all = (1 << x) - 1
            for y in members[u]:
                seen_by_all &= succ[y]
            for d in ups:
                if d & ~seen_by_all == 0:
                    new = sorted(rel + tuple(edge[y, x] for y in members[u])
                                 + tuple(edge[x, y] for y in members[d]))
                    keyed.append((sum(bit[p] for p in new), tuple(new)))
    keyed.sort()
    return tuple(rel for _, rel in keyed)


def brute_force(f: MFormula, max_worlds: int = 4, budget: int = 1 << 26) -> GLResult:
    """Scan every frame up to the size bound for a falsifying world.

    `valid` means "no countermodel with at most max_worlds worlds", which is
    weaker than GL-validity: `[]bot` has no countermodel on one world.
    Deterministic: the counterexample, if any, is the first in the fixed
    enumeration order (size, then relation, then valuation, then world), and
    `visited` counts the (frame, valuation) pairs scanned up to it.

    Valuation v on n worlds makes the k-th atom (sorted by name) true at
    world w when bit w*K + k of v is set, K atoms in all.  Each frame is
    evaluated once per block of up to 2**16 consecutive valuations, on one
    integer column per (world, atom) whose bit j is that atom's value at that
    world under the block's j-th valuation.

    Raises GLBudgetExceeded when the scan would visit more than budget
    pairs, or, since the frames on n worlds are built before any is scanned,
    when a bound on their number (those on n - 1 worlds times 3**(n - 1))
    exceeds what is left of it; also when evaluating the formula on the next
    frame would spend more than MAX_BRUTE_WORK node evaluations in all.
    """
    atoms, nodes = _atoms_and_size(f)
    names = sorted(atoms)
    index = {name: k for k, name in enumerate(names)}
    stride = len(names)
    checked = work = 0

    def columns(g: MFormula) -> list[int]:
        """Truth of g at each world, one column over the current block each;
        reads the scan's n, bits, full, patterns, base and succ."""
        if isinstance(g, Atom):
            return [patterns[i] if i < bits else full if base >> i & 1 else 0
                    for i in range(index[g.name], n * stride, stride)]
        if isinstance(g, Falsum):
            return [0] * n
        if isinstance(g, Not):
            return [full ^ c for c in columns(g.sub)]
        if isinstance(g, Imp):
            return [(full ^ a) | b for a, b in zip(columns(g.left), columns(g.right))]
        if isinstance(g, And):
            return [a & b for a, b in zip(columns(g.left), columns(g.right))]
        if isinstance(g, Or):
            return [a | b for a, b in zip(columns(g.left), columns(g.right))]
        sub = columns(g.sub)
        out = []
        for seen in succ:
            col = full
            for s in seen:
                col &= sub[s]
            out.append(col)
        return out

    for n in range(1, max_worlds + 1):
        if len(_transitive_relations(n - 1)) * 3 ** (n - 1) > budget - checked:
            raise GLBudgetExceeded(f"brute-force budget of {budget} (frame, valuation) pairs "
                                   f"cannot cover the frames on {n} worlds")
        bits = min(n * stride, _BLOCK_BITS)
        full = (1 << (1 << bits)) - 1
        # bit j of patterns[i] is bit i of j: the low bits of a valuation
        patterns = []
        for i in range(bits):
            col, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
            while width < 1 << bits:
                col, width = col | col << width, 2 * width
            patterns.append(col)
        for rel in _transitive_relations(n):
            succ = [[] for _ in range(n)]
            for a, b in rel:
                succ[a].append(b)
            for base in range(0, 1 << n * stride, 1 << bits):
                work += nodes * n
                if work > MAX_BRUTE_WORK:
                    raise GLBudgetExceeded(f"brute-force work cap of {MAX_BRUTE_WORK} node "
                                           f"evaluations exhausted on {n} worlds")
                truth = columns(f)
                everywhere = full
                for col in truth:
                    everywhere &= col
                falsified = full ^ everywhere
                if falsified:
                    j = (falsified & -falsified).bit_length() - 1  # lowest falsifying valuation
                    if checked + j < budget:
                        v = base + j
                        world = next(w for w in range(n) if not truth[w] >> j & 1)
                        val = tuple(frozenset(names[k] for k in range(stride) if v >> (w * stride + k) & 1)
                                    for w in range(n))
                        return GLResult(False, KripkeModel(n, frozenset(rel), val), world, checked + j + 1)
                checked += 1 << bits
                if checked > budget:
                    raise GLBudgetExceeded(f"brute-force budget of {budget} (frame, valuation) pairs "
                                           "exhausted")
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
    if isinstance(f, (fol.Imp, fol.And, fol.Or)):
        return _MIRRORS[type(f)](skeleton(f.left), skeleton(f.right))
    if isinstance(f, fol.Box):
        return Box(skeleton(fol.apply_box_subst(f)))
    raise NotSkeletonizable(f"quantifier at {fol.print_formula(f)}")
