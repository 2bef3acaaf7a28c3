"""The benchmark's four workloads: inputs, operations and known answers.

A workload builds its inputs once (set-up) and then hands out one pass of
operations at a time.  An operation is one call chain into yablo's public API
that ends in one verdict.  Its ``check`` compares that verdict with an answer
fixed in advance -- the pinned codes, the way a mutant was built, agreement of
the two modal deciders, a countermodel evaluated by this file's own code, a
coding round trip -- and never with a second run of the same code.

Workloads call yablo through an :class:`Api` object, so a traced run can hand
them one whose entry points record spans (see ``tracing.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterator

from yablo import coding, corpus, gl, kernel, scripts, syntax
from yablo.gl import And, Atom, Box, Falsum, Imp, Not, Or


class Api:
    """The public yablo entry points the workloads call, one attribute each."""

    NAMES = {
        "Registry": corpus,
        "golden_codes": corpus,
        "parse_script": scripts,
        "check_kernel_script": kernel,
        "base_signature": syntax,
        "substitute": syntax,
        "fix_intro": coding,
        "replay_trace": coding,
        "encode": coding,
        "decode": coding,
        "sub_code": coding,
        "decide_gl": gl,
        "brute_force": gl,
        "forces": gl,
    }

    def __init__(self, **overrides: Callable) -> None:
        for name, module in self.NAMES.items():
            setattr(self, name, overrides.get(name, getattr(module, name)))


@dataclass(frozen=True)
class Op:
    """One verdict: ``run`` calls yablo, ``check`` returns None when the
    result is the known answer and a message otherwise."""

    layer: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _digest(items: list[str]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _accepted(report) -> str | None:
    return None if report.ok else f"rejected: {report.first()}"


# ---------------------------------------------------------------- corpus


class CorpusWorkload:
    """`yablo prove-all`: every bundled and generated script, read as text,
    parsed and checked from a fresh Registry, then the pinned codes."""

    name = "corpus"

    def __init__(self, api: Api, seed: int) -> None:
        self.api = api
        registry = api.Registry()
        self.count = len(registry.names())
        text = (resources.files("yablo") / "corpus" / "codes.txt").read_text()
        self.pins = [(label, printed, coding.code_from_str(code))
                     for label, printed, code in (line.split("\t") for line in text.splitlines())]

    def inputs(self) -> dict:
        return {"scripts": self.count, "pins": len(self.pins), "generated": 0,
                "digest": _digest([])}

    def cli(self, out: Path) -> tuple[list[str], int]:
        """The representative `yablo` command and the exit code it must give."""
        return ["prove-all"], 0

    def ops(self) -> Iterator[Op]:
        registry = self.api.Registry()
        for name in registry.names():
            yield Op("corpus", name, partial(registry.check, name), _accepted)
        yield Op("coding", "pinned codes", partial(self._codes, registry), self._pinned)

    def _codes(self, registry) -> list[tuple[str, str, int]]:
        return [(label, syntax.print_formula(f), self.api.encode(f))
                for label, f in self.api.golden_codes(registry)]

    def _pinned(self, rows) -> str | None:
        if rows == self.pins:
            return None
        bad = next((r[0] for r, p in zip(rows, self.pins) if r != p), "row count")
        return f"code differs from its pin at {bad}"


# ---------------------------------------------------------------- mutants


def _citers(script) -> dict[int, int]:
    """For each cited step index, the index of the first step citing it."""
    first: dict[int, int] = {}
    for step in script.steps:
        cited = set(step.refs) | ({step.target} if step.target is not None else set())
        for ref in cited:
            first.setdefault(ref, step.index)
    return first


def kernel_mutants(script) -> Iterator[tuple[str, Any, int, int]]:
    """Single-step mutants with the step range their violation must fall in.

    The families are those of the test suite: deleting a step that a later
    step cites, and retargeting the minor premise of `mp` to a neighbour whose
    formula differs.  Every step before the damage is unchanged from an
    accepted script, so the checker must report a step in the given range.
    """
    for idx, citer in sorted(_citers(script).items()):
        steps = tuple(s for s in script.steps if s.index != idx)
        yield (f"{script.name}: without step {idx}",
               dataclasses.replace(script, steps=steps), idx + 1, citer)
    stated = {s.index: s.formula for s in script.steps if s.formula is not None}
    for pos, step in enumerate(script.steps):
        if step.kind != "derive" or step.rule != "mp":
            continue
        major, minor = step.refs
        for swapped in (minor - 1, minor + 1):
            if swapped not in stated or swapped >= step.index:
                continue
            if syntax.alpha_eq(stated[swapped], stated[minor]):
                continue
            steps = list(script.steps)
            steps[pos] = dataclasses.replace(step, refs=(major, swapped))
            yield (f"{script.name}: step {step.index} detaches from {swapped}",
                   dataclasses.replace(script, steps=tuple(steps)), step.index, step.index)


def _rejected_within(lo: int, hi: int, report) -> str | None:
    if report.ok:
        return "mutant accepted"
    v = report.first()
    if v is None or v.step is None or not lo <= v.step <= hi:
        return f"violation {v} not localized to steps {lo}..{hi}"
    return None


class MutantsWorkload:
    """The rejection path: single-step mutants of the bundled kernel scripts,
    parsed once in set-up, each checked against a fresh base signature."""

    name = "mutants"

    def __init__(self, api: Api, seed: int) -> None:
        self.api = api
        self.registry = api.Registry()
        self.axioms = self.registry.axioms
        self.mutants = [m for name in corpus.KERNEL_ORDER
                        for m in kernel_mutants(self.registry.script(name))]

    def inputs(self) -> dict:
        return {"mutants": len(self.mutants), "generated": 0, "digest": _digest([])}

    def cli(self, out: Path) -> tuple[list[str], int]:
        """`yablo check` on lem_yj_box_step without step 5, which step 6 cites."""
        text, n = re.subn(r"(?m)^5\. .*\n", "", self.registry.entry("lem_yj_box_step").text)
        if n != 1:
            raise ValueError("lem_yj_box_step has no single step 5")
        path = out / "mutant.prf"
        path.write_text(text)
        return ["check", str(path)], 1

    def ops(self) -> Iterator[Op]:
        for label, mutant, lo, hi in self.mutants:
            yield Op("kernel", label, partial(self._check, mutant), partial(_rejected_within, lo, hi))

    def _check(self, mutant):
        api = self.api
        return api.check_kernel_script(mutant, api.base_signature(), self.axioms)


# ---------------------------------------------------------------- modal

SMALL_ATOMS = ("p", "q")
RANDOM_ATOMS = ("p", "q", "r", "s")
RANDOM_SIZES = range(40, 141, 2)
# Tableau time grows exponentially with the boxes in a formula.  With a random
# box count, one seed's worst formula takes seconds and another seed's whole
# set takes tens of milliseconds; a fixed count keeps seeds comparable.
RANDOM_BOXES = 8


def small_modal(max_nodes: int) -> list:
    """Every formula of at most max_nodes nodes over p, q and bot."""
    by_size: list[list] = [[], [Atom(a) for a in SMALL_ATOMS] + [Falsum()]]
    for n in range(2, max_nodes + 1):
        out = [c(sub) for sub in by_size[n - 1] for c in (Not, Box)]
        for k in range(1, n - 1):
            out += [c(left, right) for left in by_size[k] for right in by_size[n - 1 - k]
                    for c in (Imp, And, Or)]
        by_size.append(out)
    return [f for level in by_size for f in level]


def random_modal(rng: random.Random, nodes: int, boxes: int):
    """A formula of exactly `nodes` nodes over four atoms, with exactly
    `boxes` boxes, each put around a uniformly chosen subformula."""
    f = _random_boolean(rng, nodes - boxes)
    for _ in range(boxes):
        f = _box_at(f, rng.randrange(_size(f)))
    return f


def _random_boolean(rng: random.Random, nodes: int):
    if nodes == 1:
        return Atom(rng.choice(RANDOM_ATOMS))
    if nodes == 2 or rng.random() < 0.2:
        return Not(_random_boolean(rng, nodes - 1))
    k = rng.randrange(1, nodes - 1)
    return rng.choice((Imp, And, Or))(_random_boolean(rng, k),
                                      _random_boolean(rng, nodes - 1 - k))


def _size(f) -> int:
    if isinstance(f, (Not, Box)):
        return 1 + _size(f.sub)
    if isinstance(f, (Imp, And, Or)):
        return 1 + _size(f.left) + _size(f.right)
    return 1


def _box_at(f, i: int):
    """f with its i-th node in preorder put under a box."""
    if i == 0:
        return Box(f)
    if isinstance(f, (Not, Box)):
        return type(f)(_box_at(f.sub, i - 1))
    left = _size(f.left)
    if i - 1 < left:
        return type(f)(_box_at(f.left, i - 1), f.right)
    return type(f)(f.left, _box_at(f.right, i - 1 - left))


def _holds(model, w: int, f) -> bool:
    """Truth at a world, evaluated here rather than by yablo.gl.forces."""
    if isinstance(f, Atom):
        return f.name in model.val[w]
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Not):
        return not _holds(model, w, f.sub)
    if isinstance(f, Imp):
        return not _holds(model, w, f.left) or _holds(model, w, f.right)
    if isinstance(f, And):
        return _holds(model, w, f.left) and _holds(model, w, f.right)
    if isinstance(f, Or):
        return _holds(model, w, f.left) or _holds(model, w, f.right)
    return all(_holds(model, b, f.sub) for a, b in model.rel if a == w)


def _refutes(result, replayed: bool, f) -> str | None:
    """A countermodel must be a finite transitive irreflexive frame whose
    designated world falsifies f, by yablo's replay and by _holds."""
    model, rel = result.model, result.model.rel
    if any(a == b for a, b in rel) or any((a, d) not in rel for a, b in rel
                                          for c, d in rel if b == c):
        return "countermodel frame is not transitive and irreflexive"
    if replayed or _holds(model, result.world, f):
        return "countermodel does not replay false"
    return None


def _deciders_agree(f, answer) -> str | None:
    tableau, brute, replays = answer
    if tableau.valid and not brute.valid:
        return "brute force refutes a tableau-valid formula"
    if not tableau.valid and brute.valid and tableau.model.size <= 4:
        return "tableau countermodel fits the brute-force bound but brute force missed it"
    for result, replayed in zip((r for r in (tableau, brute) if not r.valid), replays):
        problem = _refutes(result, replayed, f)
        if problem:
            return problem
    return None


def _tableau_sound(f, answer) -> str | None:
    tableau, check = answer
    if tableau.valid:
        return None if check.valid else "tableau valid, refuted on two worlds"
    return _refutes(tableau, check, f)


class ModalWorkload:
    """The GL oracle alone: (a) every formula of at most five nodes over p, q
    and the corpus skeletons, by tableau and brute force on four worlds;
    (b) seeded random formulas of 40 to 140 nodes over four atoms with eight
    boxes each, by the tableau, with valid verdicts re-tested on two-world
    frames."""

    name = "modal"

    def __init__(self, api: Api, seed: int) -> None:
        self.api = api
        registry = api.Registry()
        self.small = small_modal(5)
        skeletons = []
        for name in corpus.KERNEL_ORDER:
            try:
                skeletons.append(gl.skeleton(registry.check(name).conclusion))
            except gl.NotSkeletonizable:
                pass
        skeletons += [gl.skeleton(f) for _, f in corpus.lob_step_formulas(registry)]
        self.small += skeletons
        rng = random.Random(seed)
        self.random = [random_modal(rng, n, RANDOM_BOXES) for n in RANDOM_SIZES]

    def inputs(self) -> dict:
        return {"exhaustive": len(self.small), "generated": len(self.random),
                "digest": _digest([gl.print_modal(f) for f in self.random])}

    def cli(self, out: Path) -> tuple[list[str], int]:
        return ["gl", "[]([]p -> p) -> []p"], 0

    def ops(self) -> Iterator[Op]:
        for f in self.small:
            yield Op("gl", gl.print_modal(f), partial(self._both, f), partial(_deciders_agree, f))
        for i, f in enumerate(self.random):
            yield Op("gl", f"random #{i}", partial(self._tableau, f), partial(_tableau_sound, f))

    def _both(self, f):
        api = self.api
        tableau, brute = api.decide_gl(f), api.brute_force(f, 4)
        replays = [api.forces(r.model, r.world, f) for r in (tableau, brute) if not r.valid]
        return tableau, brute, replays

    def _tableau(self, f):
        api = self.api
        tableau = api.decide_gl(f)
        if tableau.valid:
            return tableau, api.brute_force(f, 2)
        return tableau, api.forces(tableau.model, tableau.world, f)


# ---------------------------------------------------------------- scaling

DEF_DEPTHS = range(1, 8)
MONO_NUMERALS = (5, 50, 100, 200, 300, 330, 400, 1000)
CODING_BATCHES = 7
CODING_BATCH = 8
TERM_VARS = ("x", "y", "z", "k", "u", "w0")
PREDICATES = (("P", 0), ("Q", 1), ("R", 2), ("YJ", 1))


def nested_definition(depth: int) -> str:
    """A one-`def` clause whose `self` sits under `depth` negations inside the
    quotation; each level doubles the bit length of the trace codes."""
    return f"D(k) := all x. (k < x) -> Prov[ {'~' * depth}self(x) ; x := x ]"


def nested_script(depth: int) -> str:
    body = f"all x. (k < x) -> Prov[ {'~' * depth}D(x) ; x := x ]"
    return (f'theorem nested_{depth} "Definition nested {depth} deep"\n'
            f"def {nested_definition(depth)}\n\n"
            f"1. D(k) -> ({body}) by unfold D\n"
            f"conclusion D(k) -> ({body})\n")


def random_term(rng: random.Random, depth: int, scope: list[str]):
    pool = scope or list(TERM_VARS)
    pick = rng.randrange(6) if depth > 0 else rng.randrange(3)
    if pick == 0:
        return syntax.Zero()
    if pick == 1:
        return syntax.numeral(rng.randrange(0, 33))
    if pick == 2:
        return syntax.Var(rng.choice(pool))
    if pick == 3:
        return syntax.Succ(random_term(rng, depth - 1, scope))
    kind = syntax.Plus if pick == 4 else syntax.Times
    return kind(random_term(rng, depth - 1, scope), random_term(rng, depth - 1, scope))


def random_formula(rng: random.Random, depth: int, scope: list[str]):
    """A random object formula; quotations get one range term per free
    template variable, as the Box constructor demands."""
    pick = rng.randrange(8) if depth > 0 else 7
    if pick == 0:
        return syntax.Not(random_formula(rng, depth - 1, scope))
    if pick in (1, 2, 3):
        kind = (syntax.Imp, syntax.And, syntax.Or)[pick - 1]
        return kind(random_formula(rng, depth - 1, scope), random_formula(rng, depth - 1, scope))
    if pick in (4, 5):
        v = rng.choice(TERM_VARS)
        body = random_formula(rng, depth - 1, scope + [v])
        return (syntax.ForAll if pick == 4 else syntax.Exists)(v, body)
    if pick == 6:
        template = random_formula(rng, max(depth - 2, 0), list(TERM_VARS[:3]))
        subst = tuple((v, random_term(rng, 1, scope))
                      for v in sorted(syntax.free_vars(template)))
        return syntax.Box(template, subst)
    atom = rng.randrange(4)
    if atom == 0:
        return syntax.Falsum()
    if atom in (1, 2):
        kind = syntax.Eq if atom == 1 else syntax.Lt
        return kind(random_term(rng, 1, scope), random_term(rng, 1, scope))
    name, arity = rng.choice(PREDICATES)
    return syntax.PredApp(name, tuple(random_term(rng, 1, scope) for _ in range(arity)))


def _replays(ok) -> str | None:
    return None if ok is True else "trace does not replay"


def _round_trips(batch, answers) -> str | None:
    for (f, v, n), (decoded, via_code, via_ast) in zip(batch, answers):
        if decoded != f:
            return f"decode(encode(f)) differs from {syntax.print_formula(f)}"
        if via_code != via_ast:
            return f"sub_code disagrees with substitute on {syntax.print_formula(f)}, {v} := {n}"
    return None


class ScalingWorkload:
    """Sizes that drive the cost: definition nesting depth (check and trace
    replay), numeral size (monotonicity instances), and seeded coding round
    trips.  Numerals of 330 and up exhaust the recursion limit at the seed
    commit; those operations count as failed, they are not left out.

    The random formulas are few and shallow.  A Cantor code doubles its bit
    length with each level, so a random formula's coding cost depends on the
    draw far more than on its depth; the nested definitions carry the bignum
    sizes with fixed inputs.  The random formulas come in seven batches of
    eight, one verdict per batch, so a pass has 26 completed verdicts.  Both
    percentiles then fall midway between two fixed operations (the depth-2
    check and the numeral-200 instance; the depth-6 check and replay), so
    the two may swap places from pass to pass without moving the value."""

    name = "scaling"

    def __init__(self, api: Api, seed: int) -> None:
        self.api = api
        self.axioms = api.Registry().axioms
        self.nested = [(d, nested_script(d), scripts.parse_definition(nested_definition(d)))
                       for d in DEF_DEPTHS]
        self.mono = [(n, corpus.mono_instance("YJ", n, n + 1)) for n in MONO_NUMERALS]
        rng = random.Random(seed)
        self.coding = []
        for _ in range(CODING_BATCHES):
            batch = []
            for i in range(CODING_BATCH):
                f = random_formula(rng, 1 + i % 2, [])
                free = sorted(syntax.free_vars(f)) or list(TERM_VARS)
                batch.append((f, rng.choice(free), rng.randrange(33)))
            self.coding.append(batch)

    def inputs(self) -> dict:
        printed = [f"{syntax.print_formula(f)} | {v} := {n}"
                   for batch in self.coding for f, v, n in batch]
        return {"depths": len(self.nested), "numerals": len(self.mono),
                "generated": len(printed), "digest": _digest(printed)}

    def cli(self, out: Path) -> tuple[list[str], int]:
        return ["code", "diag", nested_definition(4)], 0

    def ops(self) -> Iterator[Op]:
        for d, text, definition in self.nested:
            yield Op("kernel", f"nested {d}: check", partial(self._check, text), _accepted)
            yield Op("coding", f"nested {d}: replay", partial(self._replay, definition), _replays)
        for n, text in self.mono:
            yield Op("kernel", f"mono {n}", partial(self._check, text), _accepted)
        for i, batch in enumerate(self.coding):
            yield Op("coding", f"round trips #{i}", partial(self._round_trips, batch),
                     partial(_round_trips, batch))

    def _check(self, text: str):
        api = self.api
        return api.check_kernel_script(api.parse_script(text), api.base_signature(), self.axioms)

    def _replay(self, d):
        api = self.api
        return api.replay_trace(api.fix_intro(api.base_signature(), d.name, d.params, d.body))

    def _round_trips(self, batch):
        api = self.api
        out = []
        for f, v, n in batch:
            code = api.encode(f)
            via_ast = api.encode(api.substitute(f, v, syntax.numeral(n)))
            out.append((api.decode(code), api.sub_code(code, v, n), via_ast))
        return out


WORKLOADS = {w.name: w for w in (CorpusWorkload, MutantsWorkload, ModalWorkload, ScalingWorkload)}
