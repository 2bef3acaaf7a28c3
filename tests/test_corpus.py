from importlib import resources

import pytest

from yablo import coding, corpus
from yablo.coding import code_from_str, encode, fix_intro
from yablo.corpus import (
    KERNEL_ORDER,
    META_ORDER,
    MONO_BOUND,
    CorpusError,
    Registry,
    definitions_used,
    golden_codes,
    lob_step_formulas,
    mono_instance,
    mono_instance_names,
)
from yablo.meta import ResolveError
from yablo.parser import parse_formula
from yablo.scripts import parse_script
from yablo.syntax import alpha_eq, base_signature, print_formula


def f(text: str):
    return parse_formula(text)


class TestInventory:
    def test_total_count(self, registry):
        assert len(registry.names()) == len(KERNEL_ORDER) + len(META_ORDER) + 45
        assert len(registry.names("kernel")) == len(KERNEL_ORDER) + 45
        assert len(registry.names("meta")) == len(META_ORDER)

    def test_origins(self, registry):
        for name in KERNEL_ORDER + META_ORDER:
            assert registry.entry(name).origin == "bundled"
        for name in mono_instance_names():
            assert registry.entry(name).origin == "generated"

    def test_docs_present(self, registry):
        for name in KERNEL_ORDER + META_ORDER:
            assert registry.script(name).doc.strip()

    def test_unknown_name(self, registry):
        with pytest.raises(CorpusError):
            registry.entry("no_such_script")


class TestGeneratedInstances:
    def test_name_grid(self):
        names = mono_instance_names()
        assert len(names) == 45
        per_family = MONO_BOUND * (MONO_BOUND + 1) // 2
        assert per_family == 15
        assert "rem2_mono_YJ_0_1" in names
        assert f"rem2_mono_YH_{MONO_BOUND - 1}_{MONO_BOUND}" in names

    def test_bad_parameters(self):
        with pytest.raises(CorpusError):
            mono_instance("YX", 0, 1)
        with pytest.raises(CorpusError):
            mono_instance("YJ", 3, 3)
        with pytest.raises(CorpusError):
            mono_instance("YJ", 2, 1)

    def test_text_parses_and_states_the_step(self):
        script = parse_script(mono_instance("YG", 1, 4))
        assert script.kind == "kernel"
        assert alpha_eq(script.conclusion, f("YG(1) -> YG(4)"))

    def test_built_scripts_equal_their_parsed_text(self):
        fresh = Registry()
        for name in mono_instance_names():
            assert fresh.script(name) == parse_script(fresh.entry(name).text), name

    @pytest.mark.parametrize("lo, hi", [(5, 50), (329, 330), (999, 1000)])
    def test_built_scripts_equal_their_parsed_text_at_large_numerals(self, registry, lo, hi):
        for family in ("YJ", "YG", "YH"):
            assert registry.mono_script(family, lo, hi) == parse_script(mono_instance(family, lo, hi))

    def test_built_script_takes_checked_parameters(self, registry):
        with pytest.raises(CorpusError):
            registry.mono_script("YX", 0, 1)
        with pytest.raises(CorpusError):
            registry.mono_script("YJ", 2, 1)

    def test_templates_are_parsed_once_per_family(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_script(text)

        monkeypatch.setattr(corpus, "parse_script", counting)
        results = Registry().check_all()
        assert all(report.ok for _, report in results)
        assert len(calls) <= len(KERNEL_ORDER) + len(META_ORDER) + 3


class TestEverythingChecks:
    def test_check_all_green(self, registry):
        results = registry.check_all()
        assert len(results) == len(registry.names())
        bad = [(e.name, str(r.first())) for e, r in results if not r.ok]
        assert not bad, bad
        for _, report in results:
            assert report.steps_checked > 0
            assert report.conclusion is not None

    def test_reports_are_cached(self, registry):
        assert registry.check("thm2") is registry.check("thm2")


class TestHeadlineStatements:
    def test_always_provable_family(self, registry):
        assert alpha_eq(registry.check("thm1_3_YH").conclusion, f("YH(k)"))

    def test_consistency_equivalences(self, registry):
        assert alpha_eq(registry.check("thm2").conclusion,
                        f("(Con -> YG(k)) & (YG(k) -> Con)"))
        assert alpha_eq(registry.check("thm3").conclusion,
                        f("(Con -> ~YJ(k)) & (~YJ(k) -> Con)"))

    def test_unprovability_results_and_their_assumptions(self, registry):
        expected = {
            "thm1_1a": ({"OneCon"}, "YJ(k)"),
            "thm1_1b": ({"Con"}, "~YJ(k)"),
            "thm1_2a": ({"Con"}, "YG(k)"),
            "thm1_2b": ({"OneCon"}, "~YG(k)"),
        }
        for name, (assumptions, conclusion) in expected.items():
            script = registry.script(name)
            assert script.assumptions == frozenset(assumptions), name
            assert script.conclusion_judgment == "NotPrv", name
            assert alpha_eq(script.conclusion, f(conclusion)), name
            assert registry.check(name).ok, name

    def test_reflection_to_detachment_bridge(self, registry):
        # the diagonal route turns reflection-for-a-fact into the fact itself
        report = registry.check("rem1_glt_via_diagonal")
        assert report.ok
        assert alpha_eq(report.conclusion, f("k < k + 1"))
        script = registry.script("rem1_glt_via_diagonal")
        assert all(step.rule != "lob" for step in script.steps if step.kind == "derive")


class TestResolver:
    def test_kernel_conclusion(self, registry):
        assert alpha_eq(registry.kernel_conclusion("lem_lt_plus_one"), f("k < k + 1"))

    def test_kind_mismatches_raise(self, registry):
        with pytest.raises(ResolveError):
            registry.kernel_conclusion("thm1_1a")
        with pytest.raises(ResolveError):
            registry.meta_result("lem_mono_yj")
        with pytest.raises(ResolveError):
            registry.kernel_conclusion("nonexistent")

    def test_meta_result_payload(self, registry):
        need, judgment, concl = registry.meta_result("thm1_2a")
        assert need == frozenset({"Con"})
        assert judgment == "NotPrv"
        assert alpha_eq(concl, f("YG(k)"))


class TestCorpusScans:
    def test_lob_steps_found(self, registry):
        formulas = dict(lob_step_formulas(registry))
        assert len(formulas) >= 3
        assert any(name.startswith("thm1_3_YH:") for name in formulas)

    def test_definitions(self, registry):
        names = sorted(d.name for d in definitions_used(registry))
        assert names == ["LoebFix", "YG", "YH", "YJ"]


class TestPinnedCodes:
    def test_golden_codes_match_the_shipped_table(self, registry):
        text = (resources.files("yablo") / "corpus" / "codes.txt").read_text()
        rows = {}
        for line in text.splitlines():
            label, printed, code = line.split("\t")
            rows[label] = (printed, code_from_str(code))
        golden = golden_codes(registry)
        assert [label for label, _ in golden] == list(rows)
        for label, formula in golden:
            printed, code = rows[label]
            assert print_formula(formula) == printed, label
            assert encode(formula) == code, label


class TraceBuilt(Exception):
    pass


class TestCheckingBuildsNoTrace:
    def test_checks_and_pinned_codes_never_build_a_trace(self, monkeypatch):
        def refuse(*args):
            raise TraceBuilt

        monkeypatch.setattr(coding, "_codes", refuse)
        fresh = Registry()
        for name in fresh.names():
            assert fresh.check(name).ok, name
        assert golden_codes(fresh)
        # the patch is live: reading a fixed point's trace does build it
        result = fix_intro(base_signature(), "H", ("k",), f("all x. k < x -> Prov[ ~self(x) ; x := x ]"))
        with pytest.raises(TraceBuilt):
            result.trace
