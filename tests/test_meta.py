from importlib import resources

import pytest

from checker_mutants import M_REFL1_SKIPS_RANGES
from yablo.corpus import Registry
from yablo.kernel import _Fail
from yablo.meta import _RULES, ResolveError, _MetaChecker, check_meta_script
from yablo.parser import parse_formula
from yablo.scripts import META_RULES, ScriptError, parse_meta_script, parse_script
from yablo.syntax import base_signature


def f(text: str):
    return parse_formula(text)


class StubResolver:
    """Resolver backed by plain dictionaries, for isolated checker tests."""

    def __init__(self, kernel=None, meta=None):
        self.kernel = kernel or {}
        self.meta = meta or {}

    def kernel_conclusion(self, name):
        if name not in self.kernel:
            raise ResolveError(f"no checked derivation named {name}")
        return self.kernel[name]

    def meta_result(self, name):
        if name not in self.meta:
            raise ResolveError(f"no checked meta result named {name}")
        return self.meta[name]


def run(body: str, conclusion: str, assume: str = "Con", eigen: str = "k",
        defs: str = "", resolver=None):
    text = 'meta-theorem t_meta "inline"\n'
    if assume:
        text += f"assume-meta {assume}\n"
    if eigen:
        text += f"eigen {eigen}\n"
    text += f"{defs}{body}\nconclusion {conclusion}\n"
    script = parse_meta_script(text)
    sig = base_signature()
    sig.declare("P", 0)
    sig.declare("Q", 1)
    return check_meta_script(script, sig, resolver or StubResolver())


def rejected_at(report, step, fragment: str = ""):
    assert not report.ok
    first = report.first()
    assert first is not None
    assert first.step == step, f"violation sits at {first.step}: {first.message}"
    if fragment:
        assert fragment in first.message, first.message
    return first


REFUTE_P = (
    "1. suppose Prv: P\n"
    "2. Prv: ~P by m-kernel not_p\n"
    "3. meta-bot by m-con 1, 2\n"
    "4. NotPrv: P by m-raa 1"
)


class TestGates:
    def test_contradiction_clash_needs_consistency(self):
        resolver = StubResolver(kernel={"not_p": f("~P")})
        assert run(REFUTE_P, "NotPrv: P", resolver=resolver).ok
        rejected_at(run(REFUTE_P, "NotPrv: P", assume="", resolver=resolver),
                    3, "needs the Con assumption")

    def test_stronger_assumption_covers_the_weaker(self):
        resolver = StubResolver(kernel={"not_p": f("~P")})
        assert run(REFUTE_P, "NotPrv: P", assume="OneCon", resolver=resolver).ok

    def test_reflection_needs_the_stronger_assumption(self):
        body = (
            "1. suppose Prv: Prov[ k < 0 ; k := k ]\n"
            "2. Prv: k < 0 by m-refl1 1\n"
        )
        rejected_at(run(body, "NotPrv: Prov[ k < 0 ; k := k ]"),
                    2, "needs the OneCon assumption")

    def test_unknown_assumption_rejected_at_parse(self):
        with pytest.raises(ScriptError, match="unknown meta assumption"):
            parse_meta_script(
                'meta-theorem t "x"\nassume-meta Sound\nconclusion NotPrv: bot\n')

    def test_every_gated_rule_names_its_gate(self):
        gates = {r.name: r.gate for r in _RULES.values()}
        assert gates["m-refl1"] == "OneCon"
        assert gates["m-witness"] == "OneCon"
        assert gates["m-con"] == "Con"
        assert gates["m-g2"] == "Con"
        assert gates["m-mp"] == ""


class TestJudgmentRules:
    def test_m_kernel_requires_known_name(self):
        body = "1. suppose Prv: P\n2. Prv: ~P by m-kernel missing\n"
        rejected_at(run(body, "NotPrv: P"), 2, "no checked derivation")

    def test_m_kernel_requires_matching_statement(self):
        resolver = StubResolver(kernel={"not_p": f("~P")})
        body = "1. suppose Prv: P\n2. Prv: ~Q(k) by m-kernel not_p\n"
        rejected_at(run(body, "NotPrv: P", resolver=resolver), 2, "differs from the conclusion")

    def test_m_mp_checks_the_antecedent(self):
        resolver = StubResolver(kernel={"imp": f("P -> Q(k)"), "q": f("Q(k)")})
        body = (
            "1. Prv: P -> Q(k) by m-kernel imp\n"
            "2. Prv: Q(k) by m-kernel q\n"
            "3. Prv: Q(k) by m-mp 1, 2\n"
        )
        rejected_at(run(body, "Prv: Q(k)", resolver=resolver), 3, "cited step 2: expected P at A, found Q(k)")

    def test_m_inst_substitutes_schematic_numerals(self):
        resolver = StubResolver(kernel={"gen": f("k < k + 1")})
        body = (
            "1. Prv: k < k + 1 by m-kernel gen\n"
            "2. Prv: u < u + 1 by m-inst 1 with k := u\n"
        )
        assert run(body, "Prv: u < u + 1", eigen="k, u", resolver=resolver).ok

    def test_m_inst_bindings_must_use_declared_names(self):
        resolver = StubResolver(kernel={"gen": f("k < k + 1")})
        body = (
            "1. Prv: k < k + 1 by m-kernel gen\n"
            "2. Prv: u < u + 1 by m-inst 1 with k := u\n"
        )
        rejected_at(run(body, "Prv: u < u + 1", resolver=resolver),
                    2, "not schematic here")

    def test_m_refl1_peels_a_quotation(self):
        resolver = StubResolver(kernel={"boxed": f("Prov[ x < 1 ; x := k ]")})
        body = (
            "1. Prv: Prov[ x < 1 ; x := k ] by m-kernel boxed\n"
            "2. Prv: k < 1 by m-refl1 1\n"
        )
        assert run(body, "Prv: k < 1", assume="OneCon", resolver=resolver).ok

    def test_m_refl1_requires_a_quotation(self):
        resolver = StubResolver(kernel={"plain": f("k < 1")})
        body = (
            "1. Prv: k < 1 by m-kernel plain\n"
            "2. Prv: k < 1 by m-refl1 1\n"
        )
        rejected_at(run(body, "Prv: k < 1", assume="OneCon", resolver=resolver),
                    2, "not a quotation")

    def test_judgment_rules_must_state_prv(self):
        body = "1. NotPrv: P by m-kernel not_p\n"
        resolver = StubResolver(kernel={"not_p": f("~P")})
        rejected_at(run(body, "NotPrv: P", resolver=resolver), 1, "concludes Prv")


class TestCheckerWeakenings:
    # Every Prv judgment a script records has passed wf where it stands, and
    # a step cites it only while the blocks around it are open, so its ranges
    # use only names usable at the citing step: no script reaches m-refl1's
    # range check.  The checker below starts from a record that skipped wf.
    def refl1_on_a_loose_range(self):
        resolver = StubResolver(kernel={"boxed": f("Prov[ x < 1 ; x := k ]")})
        script = parse_meta_script(
            'meta-theorem t_meta "inline"\nassume-meta OneCon\neigen k\n'
            "1. Prv: Prov[ x < 1 ; x := k ] by m-kernel boxed\n"
            "2. Prv: u < 1 by m-refl1 1\n"
            "conclusion Prv: u < 1\n")
        checker = _MetaChecker(script, base_signature(), resolver)
        checker._record(1, f("Prov[ x < 1 ; x := u ]"), "Prv")  # u is no eigenvariable
        checker.rule_m_refl1(script.steps[1])

    def test_m_refl1_range_outside_the_schematic_names(self):
        with pytest.raises(_Fail, match="quotation range for x is not built from schematic numerals"):
            self.refl1_on_a_loose_range()

    def test_weakened_m_refl1_accepts_the_loose_range(self, monkeypatch):
        M_REFL1_SKIPS_RANGES(monkeypatch)
        self.refl1_on_a_loose_range()
        with pytest.raises(pytest.fail.Exception):
            self.test_m_refl1_range_outside_the_schematic_names()

    def test_m_mp_stated_formula_must_be_the_consequent(self):
        resolver = StubResolver(kernel={"imp": f("P -> P"), "p": f("P")})
        body = (
            "1. Prv: P -> P by m-kernel imp\n"
            "2. Prv: P by m-kernel p\n"
            "3. Prv: bot by m-mp 1, 2\n"
        )
        rejected_at(run(body, "Prv: bot", resolver=resolver),
                    3, "expected P at B, stated bot")

    def test_cited_step_must_be_a_Prv_judgment(self):
        # m-inst would turn the refuted P into a Prv judgment
        resolver = StubResolver(kernel={"not_p": f("~P")})
        body = REFUTE_P + "\n5. Prv: P by m-inst 4 with k := 0"
        rejected_at(run(body, "Prv: P", resolver=resolver), 5, "step 4 is not a Prv judgment")

    def test_m_inst_yields_the_instance_under_the_bindings(self):
        resolver = StubResolver(kernel={"lt": f("k < k + 1")})
        body = "1. Prv: k < k + 1 by m-kernel lt\n2. Prv: 1 < 0 by m-inst 1 with k := 0"
        rejected_at(run(body, "Prv: 1 < 0", resolver=resolver), 2,
                    "stated formula is not the cited judgment under the given bindings")

    def test_m_refl1_yields_the_quoted_instance(self):
        resolver = StubResolver(kernel={"boxed": f("Prov[ x < 1 ; x := 0 ]")})
        body = "1. Prv: Prov[ x < 1 ; x := 0 ] by m-kernel boxed\n2. Prv: 1 < 0 by m-refl1 1"
        rejected_at(run(body, "Prv: 1 < 0", assume="OneCon", resolver=resolver),
                    2, "stated formula is not the quoted instance")

    def test_m_witness_yields_the_body_instance(self):
        resolver = StubResolver(kernel={"ex": f("exists x. (k < x) & x = x")})
        body = ("1. Prv: exists x. (k < x) & x = x by m-kernel ex\n"
                "2. Prv: 1 < 0 by m-witness 1 with y")
        rejected_at(run(body, "Prv: 1 < 0", assume="OneCon", resolver=resolver),
                    2, "stated formula is not the body instance at the witness y")

    def test_m_witness_body_is_in_the_existential_fragment(self):
        # 1-consistency yields a true witness, but only an existential body
        # is provable at it; x = x is, its negation is not
        resolver = StubResolver(kernel={"ex": f("exists x. (k < x) & ~(x = x)")})
        body = ("1. Prv: exists x. (k < x) & ~(x = x) by m-kernel ex\n"
                "2. Prv: ~(y = y) by m-witness 1 with y")
        rejected_at(run(body, "Prv: ~(y = y)", assume="OneCon", resolver=resolver),
                    2, "existential body is outside the existential fragment")

    def test_eigen_names_are_variable_names(self):
        text = (resources.files("yablo") / "corpus" / "thm1_1a.mprf").read_text()
        script = parse_meta_script(text.replace("eigen k, a, b", "eigen k, a, b, Foo"))
        first = check_meta_script(script, base_signature(), Registry()).first()
        assert first is not None
        assert (first.step, first.message) == (None, "eigen Foo: bad variable name 'Foo'")


EXISTS_BODY = "exists x. (k < x) & Prov[ Q(z) ; z := x ]"


class TestWitnessExtraction:
    def full(self, witness: str = "y"):
        return (
            f"1. suppose Prv: {EXISTS_BODY}\n"
            f"2. Prv: Prov[ Q(z) ; z := {witness} ] by m-witness 1 with {witness}\n"
            f"3. Prv: Q({witness}) by m-refl1 2\n"
            f"4. Prv: ~Q({witness}) by m-kernel not_q\n"
            "5. meta-bot by m-con 3, 4\n"
            f"6. NotPrv: {EXISTS_BODY} by m-raa 1"
        )

    def resolver(self, witness: str = "y"):
        return StubResolver(kernel={"not_q": f(f"~Q({witness})")})

    def test_extraction_refutation_round(self):
        report = run(self.full(), f"NotPrv: {EXISTS_BODY}",
                     assume="OneCon", resolver=self.resolver())
        assert report.ok

    def test_witness_needs_the_stronger_assumption(self):
        rejected_at(run(self.full(), f"NotPrv: {EXISTS_BODY}",
                        resolver=self.resolver()),
                    2, "needs the OneCon assumption")

    def test_witness_name_must_be_new(self):
        rejected_at(run(self.full(witness="k"), f"NotPrv: {EXISTS_BODY}",
                        assume="OneCon", resolver=self.resolver(witness="k")),
                    2, "already in use")

    def test_witness_expires_with_its_block(self):
        body = self.full() + "\n7. Prv: Q(y) by m-kernel q_y"
        resolver = StubResolver(kernel={"not_q": f("~Q(y)"), "q_y": f("Q(y)")})
        rejected_at(run(body, f"NotPrv: {EXISTS_BODY}",
                        assume="OneCon", resolver=resolver),
                    7, "witnesses usable here")

    def test_reserved_witness_name(self):
        body = (
            f"1. suppose Prv: {EXISTS_BODY}\n"
            "2. Prv: k < k by m-witness 1 with self\n"
        )
        rejected_at(run(body, f"NotPrv: {EXISTS_BODY}", assume="OneCon"),
                    2, "bad variable name 'self'")

    def test_cited_judgment_must_be_existential(self):
        body = (
            "1. suppose Prv: k < k\n"
            "2. Prv: Q(y) by m-witness 1 with y\n"
        )
        rejected_at(run(body, "NotPrv: k < k", assume="OneCon"), 2, "not existential")

    def test_existential_body_needs_a_lower_bound(self):
        body = (
            "1. suppose Prv: exists x. (x < k) & Prov[ Q(z) ; z := x ]\n"
            "2. Prv: Prov[ Q(z) ; z := y ] by m-witness 1 with y\n"
        )
        rejected_at(run(body, "NotPrv: P", assume="OneCon"), 2, "lower bound")


class TestRefutationDiscipline:
    def test_g2_requires_the_consistency_sentence(self):
        resolver = StubResolver(kernel={"p": f("P")})
        body = (
            "1. suppose Prv: P\n"
            "2. meta-bot by m-g2 1\n"
        )
        rejected_at(run(body, "NotPrv: P", resolver=resolver),
                    2, "consistency sentence")

    def test_g2_closes_a_con_refutation(self):
        resolver = StubResolver(kernel={"to_con": f("P -> Con")})
        body = (
            "1. suppose Prv: P\n"
            "2. Prv: P -> Con by m-kernel to_con\n"
            "3. Prv: Con by m-mp 2, 1\n"
            "4. meta-bot by m-g2 3\n"
            "5. NotPrv: P by m-raa 1"
        )
        assert run(body, "NotPrv: P", resolver=resolver).ok

    def test_m_con_requires_a_clash(self):
        resolver = StubResolver(kernel={"q": f("Q(k)")})
        body = (
            "1. suppose Prv: P\n"
            "2. Prv: Q(k) by m-kernel q\n"
            "3. meta-bot by m-con 1, 2\n"
        )
        rejected_at(run(body, "NotPrv: P", resolver=resolver),
                    3, "not a formula and its negation")

    def test_raa_needs_a_reached_bottom(self):
        body = (
            "1. suppose Prv: P\n"
            "2. NotPrv: P by m-raa 1"
        )
        rejected_at(run(body, "NotPrv: P"), 2, "has not reached meta-bot")

    def test_raa_statement_must_match_supposition(self):
        resolver = StubResolver(kernel={"not_p": f("~P")})
        body = (
            "1. suppose Prv: P\n"
            "2. Prv: ~P by m-kernel not_p\n"
            "3. meta-bot by m-con 1, 2\n"
            "4. NotPrv: Q(k) by m-raa 1"
        )
        rejected_at(run(body, "NotPrv: Q(k)", resolver=resolver),
                    4, "differs from the supposition")

    def test_unclosed_refutation_rejected(self):
        report = run("1. suppose Prv: P", "NotPrv: P")
        assert not report.ok
        assert report.first().step is None
        assert "never closed" in report.first().message

    def test_conclusion_judgment_must_match(self):
        resolver = StubResolver(kernel={"not_p": f("~P")})
        report = run(REFUTE_P, "Prv: P", resolver=resolver)
        assert not report.ok
        assert "stated conclusion" in report.first().message


class TestLemmaCitation:
    META = {"prior": (frozenset({"OneCon"}), "NotPrv", f("Q(k)"))}

    def test_instantiated_clash(self):
        resolver = StubResolver(kernel={"q": f("Q(u + 1)")}, meta=self.META)
        body = (
            "1. Prv: Q(u + 1) by m-kernel q\n"
            "2. suppose Prv: P\n"
            "3. meta-bot by lemma prior, 1 with k := u + 1\n"
            "4. NotPrv: P by m-raa 2"
        )
        assert run(body, "NotPrv: P", assume="OneCon", eigen="u",
                   resolver=resolver).ok

    def test_lemma_assumptions_must_be_covered(self):
        resolver = StubResolver(kernel={"q": f("Q(u + 1)")}, meta=self.META)
        body = (
            "1. Prv: Q(u + 1) by m-kernel q\n"
            "2. suppose Prv: P\n"
            "3. meta-bot by lemma prior, 1 with k := u + 1\n"
            "4. NotPrv: P by m-raa 2"
        )
        rejected_at(run(body, "NotPrv: P", assume="Con", eigen="u", resolver=resolver),
                    3, "relies on the OneCon assumption")

    def test_lemma_must_cite_an_unprovability_result(self):
        resolver = StubResolver(
            kernel={"q": f("Q(k)")},
            meta={"prior": (frozenset(), "Prv", f("Q(k)"))},
        )
        body = (
            "1. Prv: Q(k) by m-kernel q\n"
            "2. suppose Prv: P\n"
            "3. meta-bot by lemma prior, 1\n"
        )
        rejected_at(run(body, "NotPrv: P", resolver=resolver),
                    3, "unprovability")

    def test_lemma_instance_must_match_cited_prv(self):
        resolver = StubResolver(kernel={"q": f("Q(k)")}, meta=self.META)
        body = (
            "1. Prv: Q(k) by m-kernel q\n"
            "2. suppose Prv: P\n"
            "3. meta-bot by lemma prior, 1 with k := k + 1\n"
        )
        rejected_at(run(body, "NotPrv: P", assume="OneCon", resolver=resolver),
                    3, "does not match the instantiated conclusion")


class TestWellFormedness:
    def test_loose_variables_rejected(self):
        body = "1. suppose Prv: u < k\n"
        rejected_at(run(body, "NotPrv: u < k"), 1, "neither declared eigenvariables")

    def test_unknown_predicate_rejected(self):
        resolver = StubResolver(kernel={"z": f("Z9")})
        report = run("1. Prv: Z9 by m-kernel z\n", "Prv: Z9", resolver=resolver)
        rejected_at(report, 1, "unknown predicate")


class TestParsing:
    def test_dispatch_by_header(self):
        meta = parse_script('meta-theorem t "d"\n1. suppose Prv: bot\nconclusion NotPrv: bot\n')
        assert meta.kind == "meta"
        kernel = parse_script('theorem t "d"\n1. bot by taut\nconclusion bot\n')
        assert kernel.kind == "kernel"
        with pytest.raises(ScriptError):
            parse_script("definitely not a script\n")

    def test_rule_tables_match_checker_handlers(self):
        handlers = {n[len("rule_"):] for n in dir(_MetaChecker) if n.startswith("rule_")}
        handlers |= {rule.replace("-", "_") for rule in _MetaChecker.schemas}
        assert {rule.replace("-", "_") for rule in META_RULES} == handlers
        assert set(_RULES) == set(META_RULES)

    def test_unknown_meta_rule(self):
        with pytest.raises(ScriptError, match="unknown meta rule"):
            parse_meta_script('meta-theorem t "d"\n1. Prv: bot by m-zap 1\nconclusion Prv: bot\n')

    def test_bot_rules_are_restricted(self):
        report = run("1. suppose Prv: P\n2. meta-bot by m-mp 1, 1\n", "NotPrv: P")
        rejected_at(report, 2, "does not conclude meta-bot")
