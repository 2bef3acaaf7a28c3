"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single summary line (visible with ``pytest -rA`` or on
failure) and asserts the guarantee exactly; timing bounds are wall-clock.
"""

import dataclasses
import random
import time

from astgen import VARS, rand_formula, sample_formulas
from modalgen import small_formulas
from yablo.cli import main
from yablo.coding import decode, encode, fix_intro, replay_trace, sub_code
from yablo.corpus import (
    KERNEL_ORDER,
    META_ORDER,
    Registry,
    definitions_used,
    lob_step_formulas,
    mono_instance_names,
)
from yablo.gl import NotSkeletonizable, brute_force, decide_gl, forces, skeleton
from yablo.meta import check_meta_script
from yablo.syntax import (
    PredApp,
    Var,
    alpha_eq,
    base_signature,
    iff,
    numeral,
    substitute,
)

EXPECTED_ASSUMPTIONS = {
    "thm1_1a": frozenset({"OneCon"}),
    "thm1_1b": frozenset({"Con"}),
    "thm1_2a": frozenset({"Con"}),
    "thm1_2b": frozenset({"OneCon"}),
}

WEAKENINGS = {
    "thm1_1a": frozenset({"Con"}),
    "thm1_1b": frozenset(),
    "thm1_2a": frozenset(),
    "thm1_2b": frozenset({"Con"}),
}


def test_criterion_1_whole_corpus_checks_within_ten_seconds():
    start = time.perf_counter()
    registry = Registry()
    results = registry.check_all()
    elapsed = time.perf_counter() - start

    failures = [(e.name, str(r.first())) for e, r in results if not r.ok]
    assert not failures, failures
    names = {e.name for e, _ in results}
    assert set(KERNEL_ORDER) <= names
    assert set(META_ORDER) <= names
    instances = set(mono_instance_names())
    assert len(instances) == 45 and instances <= names
    for name, want in EXPECTED_ASSUMPTIONS.items():
        assert registry.script(name).assumptions == want, name
    assert elapsed <= 10.0, f"corpus check took {elapsed:.2f}s"
    print(f"criterion 1: PASS — {len(results)} scripts accepted in {elapsed:.2f}s")


def test_criterion_2_meta_assumptions_are_minimal(registry):
    rejected = 0
    for name, weaker in WEAKENINGS.items():
        script = registry.script(name)
        assert registry.check(name).ok, name
        mutant = dataclasses.replace(script, assumptions=weaker)
        report = check_meta_script(mutant, base_signature(), registry)
        assert not report.ok, f"{name} still checks under {set(weaker) or '{}'}"
        first = report.first()
        assert first is not None and first.step is not None, name
        assert "assumption" in first.message, first.message
        rejected += 1
    assert rejected == 4
    print("criterion 2: PASS — 4/4 weakened assumption sets rejected with "
          "step-level violations")


def test_criterion_3_single_step_mutations_all_rejected(mutant_reports):
    checked = len(mutant_reports)
    survivors = [label for label, report, *_ in mutant_reports if report.ok]
    unlocalized = [label for label, report, *_ in mutant_reports
                   if not report.ok and (report.first() is None or report.first().step is None)]
    assert checked >= 50, f"only {checked} mutants generated"
    assert not survivors, survivors[:10]
    assert not unlocalized, unlocalized[:10]
    print(f"criterion 3: PASS — {checked} single-step mutants, 100% rejected, "
          "every violation step-localized")


def test_criterion_4_coding_round_trip_and_substitution_commutation():
    decode_failures = 0
    for g in sample_formulas(1000, seed=402):
        if decode(encode(g)) != g:
            decode_failures += 1

    rng = random.Random(403)
    commute_failures = 0
    for _ in range(500):
        g = rand_formula(rng, rng.randrange(1, 5))
        v = rng.choice(VARS)
        n = rng.randrange(33)
        if sub_code(encode(g), v, n) != encode(substitute(g, v, numeral(n))):
            commute_failures += 1

    assert decode_failures == 0
    assert commute_failures == 0
    print("criterion 4: PASS — 1000/1000 decode-encode round trips, "
          "500/500 code-level substitutions commute")


def test_criterion_5_diagonal_fixed_points_replay(registry):
    families = {d.name: d for d in definitions_used(registry)}
    done = 0
    for name in ("YJ", "YG", "YH"):
        d = families[name]
        sig = base_signature()
        result = fix_intro(sig, d.name, d.params, d.body)
        params = tuple(Var(p) for p in d.params)
        assert result.fixed_point == PredApp(d.name, params)
        want = iff(result.fixed_point, sig.instantiate(d.name, params))
        assert alpha_eq(result.biconditional, want), d.name
        assert replay_trace(result), d.name
        assert result.trace[-1] == ("fixed-point", encode(result.fixed_point))
        done += 1
    assert done == 3
    print("criterion 5: PASS — 3/3 sentence-family definitions diagonalize, "
          "replay, and pin their fixed-point codes")


def _skeleton_corpus(registry):
    out = []
    for name in KERNEL_ORDER:
        concl = registry.check(name).conclusion
        try:
            out.append((f"concl:{name}", skeleton(concl)))
        except NotSkeletonizable:
            continue
    for label, formula in lob_step_formulas(registry):
        out.append((f"lob:{label}", skeleton(formula)))
    return out


def test_criterion_6_modal_deciders_agree_within_a_minute(registry):
    start = time.perf_counter()
    suite = [(None, g) for g in small_formulas(4)] + _skeleton_corpus(registry)
    disagreements = []
    bad_replays = []
    for label, g in suite:
        t = decide_gl(g)
        b = brute_force(g, 4)
        if t.valid != b.valid:
            disagreements.append(label or repr(g))
            continue
        for r in (t, b):
            if not r.valid and forces(r.model, r.world, g):
                bad_replays.append(label or repr(g))
    elapsed = time.perf_counter() - start
    assert not disagreements, disagreements[:10]
    assert not bad_replays, bad_replays[:10]
    assert elapsed <= 60.0, f"agreement suite took {elapsed:.2f}s"
    print(f"criterion 6: PASS — tableau and brute force agree on {len(suite)} "
          f"formulas in {elapsed:.2f}s, countermodels replay false")


def test_criterion_7_derived_modal_lemmas_are_valid(registry):
    targets = [
        ("g2", registry.check("lem_formalized_g2").conclusion),
        ("explosion", registry.check("lem_box_explosion").conclusion),
    ] + lob_step_formulas(registry)
    assert len(targets) >= 5
    for label, formula in targets:
        shape = skeleton(formula)
        assert decide_gl(shape).valid, label
        assert brute_force(shape, 4).valid, label
    print(f"criterion 7: PASS — {len(targets)} derived modal shapes "
          "(collapse instances, formalized second incompleteness, explosion) are valid")


def test_criterion_8_cli_exit_codes(registry, tmp_path):
    def cli(*argv):
        return main(list(argv))

    good = tmp_path / "good.prf"
    good.write_text(registry.entry("lem_yj_box_step").text)
    goodmeta = tmp_path / "good.mprf"
    goodmeta.write_text(registry.entry("thm1_2b").text)
    tampered = tmp_path / "tampered.prf"
    tampered.write_text(
        registry.entry("lem_lt_plus_one").text.replace(
            "k < k + 1 by arith", "k < k by arith", 1))
    garbage = tmp_path / "garbage.prf"
    garbage.write_text("zzz not a script")

    table = [
        (("check", str(good)), 0),
        (("check", str(goodmeta)), 0),
        (("check", str(tampered)), 1),
        (("check", str(garbage)), 2),
        (("check", str(tmp_path / "missing.prf")), 2),
        (("prove-all",), 0),
        (("gl", "[]([]p -> p) -> []p"), 0),
        (("gl", "[]p -> p"), 1),
        (("gl", "p ->"), 2),
        (("code", "encode", "Con -> ~Prov[ bot ; ]"), 0),
        (("code", "decode", "22"), 0),
        (("code", "decode", "0"), 2),
        (("code", "diag", "D(k) := all x. (k < x) -> Prov[ ~self(x) ; x := x ]"), 0),
        (("code", "diag", "garbage"), 2),
    ]
    for argv, want in table:
        got = cli(*argv)
        assert got == want, f"{argv} exited {got}, expected {want}"
    print(f"criterion 8: PASS — {len(table)} CLI invocations exit 0/1/2 as specified")
