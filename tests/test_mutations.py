from mutate import deletion_mutants, mp_retarget_mutants, referenced_indices
from yablo.corpus import KERNEL_ORDER


def test_reference_scan_includes_block_targets(registry):
    script = registry.script("lem_yj_box_step")
    assert referenced_indices(script) == [1, 2, 3, 4, 5]


def test_both_families_fire_on_a_small_script(registry):
    script = registry.script("lem_yj_box_step")
    assert len(list(deletion_mutants(script))) == 5
    assert len(list(mp_retarget_mutants(script))) >= 2


def test_every_mutant_is_rejected_and_localized(registry, mutant_reports):
    for name in KERNEL_ORDER:
        assert registry.check(name).ok, name
    survivors = [label for label, report, *_ in mutant_reports if report.ok]
    unlocalized = [label for label, report, *_ in mutant_reports
                   if not report.ok and (report.first() is None or report.first().step is None)]
    misplaced = [f"{label}: {report.first()}, not in steps {lo}..{hi}"
                 for label, report, lo, hi in mutant_reports
                 if not report.ok and report.first() is not None
                 and report.first().step is not None and not lo <= report.first().step <= hi]
    assert len(mutant_reports) >= 50
    assert not survivors, survivors[:10]
    assert not unlocalized, unlocalized[:10]
    assert not misplaced, misplaced[:10]
