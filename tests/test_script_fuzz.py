"""Seeded scripts for the 0/1/2 contract: whatever the steps, the kernel and
meta checkers return a report, accepting or rejecting, and never raise.

Each script crosses the rules of KERNEL_RULES or META_RULES, each with the
argument fields its shape gives, citation counts 0-3 where the shape allows
any, block-opening and block-closing lines, and formulas of the outer shapes
the rules take apart, built from tests/astgen.py samples.  Each step carries
the fields the parser gives its rule's argument shape, and no others.
"""

from __future__ import annotations

import random
from importlib import resources

from astgen import VARS, rand_formula, rand_term
from yablo.kernel import CheckReport, check_kernel_script
from yablo.meta import _RULES, ResolveError, check_meta_script
from yablo.scripts import (
    KERNEL_RULES,
    META_RULES,
    KernelScript,
    KernelStep,
    MetaScript,
    MetaStep,
    load_axioms,
)
from yablo.syntax import (
    CON,
    CON_BODY,
    And,
    Exists,
    Falsum,
    ForAll,
    Imp,
    Lt,
    Not,
    Or,
    PredApp,
    Var,
    Zero,
    base_signature,
    identity_box,
    iff,
)

SCRIPTS = 600
AXIOMS = load_axioms((resources.files("yablo") / "corpus" / "arith.axioms").read_text())
CONCLUDES = {r.name: r.judgment for r in _RULES.values()}
NAMES = [*AXIOMS, "Q", "P", "Con", "nope"]  # axioms, a defined, a declared and an unknown name


def signature():
    sig = base_signature()
    sig.declare("P", 0)
    sig.define("Q", ("p0",), Lt(Var("p0"), Zero()))
    sig.declare("R", 2)
    sig.declare("YJ", 1)
    return sig


def shaped(rng: random.Random) -> list:
    """Formulas of every outer shape a rule takes apart: sampled formulas,
    their connectives and quantifiers, and the quotation shapes of gd2, gd3,
    lob, con-def, m-g2 and m-witness."""
    a, b, c = (rand_formula(rng, rng.randrange(3)) for _ in range(3))
    v = rng.choice(VARS)
    return [a, b, Not(a), Imp(a, b), And(a, b), Or(a, b), ForAll(v, a), Exists(v, a), Falsum(),
            identity_box(a), Imp(a, identity_box(a)), Imp(identity_box(a), identity_box(b)),
            Imp(identity_box(Imp(a, b)), Imp(identity_box(a), identity_box(b))),
            Imp(identity_box(a), Imp(identity_box(b), identity_box(c))),
            Imp(identity_box(Imp(identity_box(a), a)), identity_box(a)),
            Exists(v, And(Lt(Zero(), Var(v)), a)), Imp(PredApp("Q", (Var(v),)), a),
            iff(CON, CON_BODY), CON]


def refs(rng: random.Random, index: int, shape: str) -> tuple[int, ...]:
    """Citations of earlier steps, and now and then of the citing step."""
    count = {"N, ...": rng.choice((0, 1, 1, 2, 2, 3)), "N, M with y": 2}.get(shape, 1 if "N" in shape else 0)
    return tuple(index if index == 1 or rng.random() < 0.15 else rng.randrange(1, index)
                 for _ in range(count))


def kernel_script(rng: random.Random) -> KernelScript:
    pool = shaped(rng)
    steps, open_blocks = [], []
    opening = rng.randrange(4)
    for index in range(1, opening + rng.randrange(2, 5)):
        roll = rng.random()
        if index <= opening or roll < 0.1:
            steps.append(KernelStep(index, "assume", rng.choice(pool)))
            open_blocks.append(index)
        elif roll < 0.2:
            target = open_blocks.pop() if open_blocks and rng.random() < 0.8 else index - 1
            steps.append(KernelStep(index, "qed", target=target))
        else:
            rule = rng.choice(list(KERNEL_RULES))
            shape = KERNEL_RULES[rule]
            steps.append(KernelStep(
                index, "derive", rng.choice(pool), rule, refs(rng, index, shape),
                term=rand_term(rng, 1, []) if "TERM" in shape else None,
                var=rng.choice(VARS) if "with y" in shape else None,
                name=rng.choice(NAMES) if shape == "NAME" else None))
    return KernelScript("fuzz", "", (), tuple(steps), rng.choice(pool))


class Resolver:
    def __init__(self, rng: random.Random, pool: list):
        self.kernel = {name: rng.choice(pool) for name in ("k1", "k2")}
        self.meta = {"m1": (frozenset({"Con"}), "NotPrv", rng.choice(pool)),
                     "m2": (frozenset({"OneCon"}), "Prv", rng.choice(pool))}

    def kernel_conclusion(self, name):
        if name not in self.kernel:
            raise ResolveError(f"no checked derivation named {name}")
        return self.kernel[name]

    def meta_result(self, name):
        if name not in self.meta:
            raise ResolveError(f"no checked meta result named {name}")
        return self.meta[name]


def meta_script(rng: random.Random, pool: list) -> MetaScript:
    steps = []
    opening = rng.randrange(4)
    for index in range(1, opening + rng.randrange(2, 5)):
        if index <= opening or rng.random() < 0.1:
            steps.append(MetaStep(index, "suppose", "Prv", rng.choice(pool)))
            continue
        rule = rng.choice(list(META_RULES))
        shape = META_RULES[rule]
        judgment = CONCLUDES[rule] if rng.random() < 0.8 else rng.choice(["Prv", "NotPrv", "meta-bot"])
        fields = dict(rule=rule, refs=refs(rng, index, shape),
                      name=rng.choice(["k1", "k2", "m1", "m2", "nope"]) if "NAME" in shape else None,
                      bindings=tuple((v, rand_term(rng, 1, [])) for v in rng.sample(VARS, 2))
                      if ":=" in shape else (),
                      var=rng.choice([*VARS, "w1", "w2"]) if "with y" in shape else None)
        if judgment == "meta-bot":
            steps.append(MetaStep(index, "bot", **fields))
        else:
            steps.append(MetaStep(index, "judge", judgment, rng.choice(pool), **fields))
    assumptions = frozenset(rng.choice([["Con", "OneCon"]] * 4 + [["Con"], []]))
    return MetaScript("fuzz", "", assumptions, tuple(VARS), (), tuple(steps),
                      rng.choice(["Prv", "NotPrv"]), rng.choice(pool))


def test_checkers_return_a_report_on_seeded_scripts():
    rng = random.Random(24)
    for i in range(SCRIPTS):
        script = kernel_script(rng)
        try:
            report = check_kernel_script(script, signature(), AXIOMS)
        except Exception as e:
            raise AssertionError(f"kernel script {i} raised {e!r}: {script.steps}") from e
        assert isinstance(report, CheckReport)
        pool = shaped(rng)
        script = meta_script(rng, pool)
        try:
            report = check_meta_script(script, signature(), Resolver(rng, pool))
        except Exception as e:
            raise AssertionError(f"meta script {i} raised {e!r}: {script.steps}") from e
        assert isinstance(report, CheckReport)
