from importlib import resources

import pytest

from yablo.kernel import (
    _KernelChecker,
    apply_glt,
    arity_violation,
    check_kernel_script,
    eval_closed_term,
    match_schema,
    taut_consequence,
)
from yablo.parser import parse_formula, parse_term
from yablo.scripts import KERNEL_RULES, ScriptError, load_axioms, parse_kernel_script
from yablo.syntax import Var, alpha_eq, base_signature

AXIOMS = load_axioms((resources.files("yablo") / "corpus" / "arith.axioms").read_text())


def f(text: str):
    return parse_formula(text)


def run(body: str, conclusion: str, defs: str = ""):
    text = f'theorem t_inline "inline"\n{defs}{body}\nconclusion {conclusion}\n'
    script = parse_kernel_script(text)
    sig = base_signature()
    sig.declare("P", 0)
    sig.declare("Q", 1)
    sig.declare("R", 2)
    return check_kernel_script(script, sig, AXIOMS)


def rejected_at(report, step: int, fragment: str = ""):
    assert not report.ok
    first = report.first()
    assert first is not None
    assert first.step == step, f"violation sits at {first.step}: {first.message}"
    if fragment:
        assert fragment in first.message, first.message
    return first


YJ_DEF = "def YJ(k) := all x. (k < x) -> Prov[ ~self(x) ; x := x ]\n"


class TestTautConsequence:
    def test_detachment(self):
        ok, _ = taut_consequence([f("P -> Q(x)"), f("P")], f("Q(x)"))
        assert ok

    def test_excluded_middle(self):
        ok, _ = taut_consequence([], f("P | ~P"))
        assert ok

    def test_countervaluation_reported(self):
        ok, witness = taut_consequence([], f("P"))
        assert not ok
        assert witness == {"P": False}

    def test_atoms_compared_up_to_renaming(self):
        ok, _ = taut_consequence([f("all x. Q(x)")], f("all y. Q(y)"))
        assert ok

    def test_quantified_subformulas_are_opaque(self):
        ok, _ = taut_consequence([f("all x. Q(x)")], f("Q(0)"))
        assert not ok

    def test_atom_budget_is_enforced(self):
        goal = " | ".join(f"R(x, {i})" for i in range(17))
        with pytest.raises(Exception, match="too many distinct atoms"):
            taut_consequence([], f(goal))


class TestMatchSchema:
    def test_instance_found(self):
        schema = f("x < y -> (y < z -> x < z)")
        inst = f("k < k + 1 -> (k + 1 < u -> k < u)")
        got = match_schema(schema, inst)
        assert got == {"x": Var("k"), "y": parse_term("k + 1"), "z": Var("u")}

    def test_repeated_variables_must_agree(self):
        assert match_schema(f("~(x < x)"), f("~(k < k)")) is not None
        assert match_schema(f("~(x < x)"), f("~(k < u)")) is None

    def test_shape_mismatch(self):
        assert match_schema(f("x < S(x)"), f("k < k + 1")) is None


class TestEvalClosedTerm:
    def test_values(self):
        assert eval_closed_term(parse_term("2 + 3 * 4")) == 14
        assert eval_closed_term(parse_term("S(0 + 1)")) == 2
        assert eval_closed_term(parse_term("x + 1")) is None


class TestArityCheck:
    def test_wrong_argument_count_is_reported(self):
        sig = base_signature()
        sig.define("Q", ("k",), f("k < 1"))
        assert arity_violation(f("Q(0, 1)"), sig) is not None
        assert arity_violation(f("Q(0)"), sig) is None

    def test_checked_inside_quotations(self):
        sig = base_signature()
        sig.define("Q", ("k",), f("k < 1"))
        assert arity_violation(f("Prov[ Q(x, y) ; x := 0, y := 0 ]"), sig) is not None


class TestStepDiscipline:
    def test_missing_reference(self):
        rejected_at(run("1. k < k + 1 by mp 3, 2", "k < k + 1"), 1, "does not exist")

    def test_indices_must_increase(self):
        body = "2. k < k + 1 by arith lt_plus_one\n2. k < k + 1 by arith lt_plus_one"
        rejected_at(run(body, "k < k + 1"), 2, "increase")

    def test_citation_into_closed_block(self):
        body = (
            "1. assume k < 0\n"
            "2. qed-block 1\n"
            "3. bot by mp 2, 1"
        )
        rejected_at(run(body, "bot"), 3, "closed block")

    def test_qed_must_close_innermost_block(self):
        body = (
            "1. assume P\n"
            "2. assume Q(k)\n"
            "3. qed-block 1"
        )
        rejected_at(run(body, "P -> Q(k)"), 3)

    def test_unclosed_block_rejected(self):
        report = run("1. assume P", "P")
        assert not report.ok
        assert report.first().step is None
        assert "never closed" in report.first().message

    def test_conclusion_must_match_final_step(self):
        report = run("1. k < k + 1 by arith lt_plus_one", "k < k")
        assert not report.ok
        assert "not the stated conclusion" in report.first().message

    def test_qed_packages_the_block(self):
        body = (
            "1. assume P\n"
            "2. P by reiterate 1\n"
            "3. qed-block 1"
        )
        assert run(body, "P -> P").ok


class TestPropositionalRules:
    def test_mp_wrong_antecedent(self):
        body = (
            "1. assume P -> Q(k)\n"
            "2. assume R(k, k)\n"
            "3. Q(k) by mp 1, 2\n"
        )
        rejected_at(run(body, "Q(k)"), 3, "antecedent")

    def test_and_or_neg_round(self):
        body = (
            "1. assume P & Q(k)\n"
            "2. P by andE1 1\n"
            "3. Q(k) by andE2 1\n"
            "4. Q(k) & P by andI 3, 2\n"
            "5. (Q(k) & P) | R(k, k) by orI1 4\n"
            "6. qed-block 1"
        )
        assert run(body, "P & Q(k) -> (Q(k) & P) | R(k, k)").ok

    def test_orE_needs_both_cases(self):
        body = (
            "1. assume P | Q(k)\n"
            "2. assume P\n"
            "3. P | P by orI1 2\n"
            "4. qed-block 2\n"
            "5. P | P by orE 1, 4, 4\n"
        )
        rejected_at(run(body, "P | P"), 5, "right disjunct")

    def test_negI_negE(self):
        body = (
            "1. assume ~P\n"
            "2. assume P\n"
            "3. bot by negE 2, 1\n"
            "4. qed-block 2\n"
            "5. ~P by negI 4\n"
            "6. qed-block 1"
        )
        assert run(body, "~P -> ~P").ok

    def test_negE_requires_matching_pair(self):
        body = (
            "1. assume ~P\n"
            "2. assume Q(k)\n"
            "3. bot by negE 2, 1\n"
        )
        rejected_at(run(body, "bot"), 3, "negation of the first")


class TestQuantifierRules:
    def test_allE_instance_checked(self):
        body = (
            "1. assume all x. x < S(x)\n"
            "2. k < S(k + 1) by allE 1 with k + 1\n"
        )
        rejected_at(run(body, "k < S(k + 1)"), 2, "instance")

    def test_allI_eigencondition(self):
        body = (
            "1. assume x < k\n"
            "2. x < k by reiterate 1\n"
            "3. all x. x < k by allI 2\n"
        )
        rejected_at(run(body, "all x. x < k"), 3, "free in an active assumption")

    def test_exI_exE_round(self):
        body = (
            "1. k < k + 1 by arith lt_plus_one\n"
            "2. exists x. k < x by exI 1 with k + 1\n"
            "3. assume k < u\n"
            "4. P | ~P by taut\n"
            "5. qed-block 3\n"
            "6. P | ~P by exE 2, 5 with u\n"
        )
        assert run(body, "P | ~P").ok

    def test_exE_witness_freshness(self):
        body = (
            "1. k < k + 1 by arith lt_plus_one\n"
            "2. exists x. k < x by exI 1 with k + 1\n"
            "3. assume k < k\n"
            "4. P | ~P by taut\n"
            "5. qed-block 3\n"
            "6. P | ~P by exE 2, 5 with k\n"
        )
        rejected_at(run(body, "P | ~P"), 6, "not fresh")

    def test_exE_reserved_witness_name(self):
        body = (
            "1. k < k + 1 by arith lt_plus_one\n"
            "2. exists x. k < x by exI 1 with k + 1\n"
            "3. assume k < u\n"
            "4. P | ~P by taut\n"
            "5. qed-block 3\n"
            "6. P | ~P by exE 2, 5 with bot\n"
        )
        rejected_at(run(body, "P | ~P"), 6, "bad variable name 'bot'")


class TestArithmeticRules:
    def test_unknown_axiom_name(self):
        rejected_at(run("1. k < k + 1 by arith no_such", "k < k + 1"), 1, "no axiom named")

    def test_non_instance_rejected(self):
        rejected_at(run("1. k < k by arith lt_plus_one", "k < k"), 1, "not an instance")

    def test_numeval_accepts_truths_and_negated_falsehoods(self):
        assert run("1. 2 < 3 by numeval", "2 < 3").ok
        assert run("1. ~(3 < 2) by numeval", "~(3 < 2)").ok
        assert run("1. 2 + 2 = 4 by numeval", "2 + 2 = 4").ok

    def test_numeval_rejects_falsehoods_and_open_terms(self):
        rejected_at(run("1. 3 < 2 by numeval", "3 < 2"), 1, "false")
        rejected_at(run("1. k < 2 by numeval", "k < 2"), 1, "not closed")


class TestDefinitionalRules:
    def test_unfold_and_fold(self):
        body = (
            "1. YJ(0) -> (all x. (0 < x) -> Prov[ ~YJ(x) ; x := x ]) by unfold YJ\n"
            "2. (all x. (0 < x) -> Prov[ ~YJ(x) ; x := x ]) -> YJ(0) by fold YJ\n"
        )
        report = run(body, "(all x. (0 < x) -> Prov[ ~YJ(x) ; x := x ]) -> YJ(0)",
                     defs=YJ_DEF)
        assert report.ok

    def test_unfold_body_must_match(self):
        body = "1. YJ(0) -> (all x. (1 < x) -> Prov[ ~YJ(x) ; x := x ]) by unfold YJ"
        rejected_at(run(body, "P", defs=YJ_DEF), 1, "does not match")

    def test_unfold_requires_a_definition(self):
        rejected_at(run("1. R(k, k) -> bot by unfold R", "P"), 1, "no definition")


class TestQuotationRules:
    def test_gd1_quotes_a_depth_zero_step(self):
        body = (
            "1. k < k + 1 by arith lt_plus_one\n"
            "2. Prov[ k < k + 1 ; k := k ] by gd1 1\n"
        )
        assert run(body, "Prov[ k < k + 1 ; k := k ]").ok

    def test_gd1_refuses_steps_inside_blocks(self):
        body = (
            "1. assume k < k + 1\n"
            "2. Prov[ k < k + 1 ; k := k ] by gd1 1\n"
        )
        rejected_at(run(body, "P"), 2, "outside every assumption block")

    def test_gd1_requires_identity_substitution(self):
        body = (
            "1. k < k + 1 by arith lt_plus_one\n"
            "2. Prov[ k < k + 1 ; k := 0 ] by gd1 1\n"
        )
        rejected_at(run(body, "P"), 2, "self-substituted")

    def test_gd2_distributes_with_restricted_ranges(self):
        body = (
            "1. Prov[ x < y -> x < y + 1 ; x := k, y := k ] -> "
            "(Prov[ x < y ; x := k, y := k ] -> Prov[ x < y + 1 ; x := k, y := k ]) by gd2\n"
        )
        assert run(body, "Prov[ x < y -> x < y + 1 ; x := k, y := k ] -> "
                         "(Prov[ x < y ; x := k, y := k ] -> Prov[ x < y + 1 ; x := k, y := k ])").ok

    def test_gd2_substituted_values_must_carry_over(self):
        body = (
            "1. Prov[ x < y -> x < y + 1 ; x := k, y := k ] -> "
            "(Prov[ x < y ; x := k, y := u ] -> Prov[ x < y + 1 ; x := k, y := k ]) by gd2\n"
        )
        rejected_at(run(body, "P"), 1, "restricted substitution")

    def test_gd2_drops_ranges_a_side_no_longer_needs(self):
        # the guard `P` mentions neither variable, so its quotation keeps none
        body = (
            "1. Prov[ P -> x < y ; x := k, y := k ] -> "
            "(Prov[ P ;] -> Prov[ x < y ; x := k, y := k ]) by gd2\n"
        )
        assert run(body, "Prov[ P -> x < y ; x := k, y := k ] -> "
                         "(Prov[ P ;] -> Prov[ x < y ; x := k, y := k ])").ok

    def test_gd3_needs_existential_fragment(self):
        good = "1. (k < k + 1) -> Prov[ k < k + 1 ; k := k ] by gd3"
        assert run(good, "(k < k + 1) -> Prov[ k < k + 1 ; k := k ]").ok
        bad = "1. (all x. x < k) -> Prov[ all x. x < k ; k := k ] by gd3"
        rejected_at(run(bad, "P"), 1, "existential fragment")

    def test_lob_shape(self):
        good = ("1. Prov[ Prov[ P ;] -> P ;] -> Prov[ P ;] by lob")
        assert run(good, "Prov[ Prov[ P ;] -> P ;] -> Prov[ P ;]").ok
        bad = "1. Prov[ P ;] -> Prov[ P ;] by lob"
        rejected_at(run(bad, "P"), 1)

    def test_con_def_is_fixed(self):
        good = "1. (Con -> ~Prov[ bot ;]) & (~Prov[ bot ;] -> Con) by con-def"
        assert run(good, "(Con -> ~Prov[ bot ;]) & (~Prov[ bot ;] -> Con)").ok
        bad = "1. (Con -> Prov[ bot ;]) & (Prov[ bot ;] -> Con) by con-def"
        rejected_at(run(bad, "P"), 1, "definitional equivalence")


class TestScriptParsing:
    def test_rule_table_matches_checker_handlers(self):
        handlers = {n[len("rule_"):] for n in dir(_KernelChecker) if n.startswith("rule_")}
        assert {rule.replace("-", "_") for rule in KERNEL_RULES} == handlers

    def test_var_declarations_are_not_accepted(self):
        with pytest.raises(ScriptError, match="unrecognized line"):
            parse_kernel_script('theorem t "x"\nvar k\n1. 0 = 0 by numeval\nconclusion 0 = 0\n')

    def test_unknown_rule_rejected_at_parse(self):
        with pytest.raises(ScriptError, match="unknown rule"):
            parse_kernel_script('theorem t "x"\n1. P by hocus 1\nconclusion P\n')

    def test_missing_conclusion(self):
        with pytest.raises(ScriptError, match="no conclusion"):
            parse_kernel_script('theorem t "x"\n1. P | ~P by taut\n')

    def test_missing_justification(self):
        with pytest.raises(ScriptError, match="justification"):
            parse_kernel_script('theorem t "x"\n1. P | ~P\nconclusion P | ~P\n')


class TestSoundnessComposer:
    def test_extends_reflection_into_detachment(self):
        text = (
            'theorem t_refl "reflection for a closed evaluable fact"\n'
            "1. 0 = 0 by numeval\n"
            "2. Prov[ 0 = 0 ;] -> 0 = 0 by taut 1\n"
            "conclusion Prov[ 0 = 0 ;] -> 0 = 0\n"
        )
        script = parse_kernel_script(text)
        out = apply_glt(script, base_signature(), AXIOMS)
        assert alpha_eq(out.conclusion, f("0 = 0"))
        report = check_kernel_script(out, base_signature(), AXIOMS)
        assert report.ok

    def test_requires_reflection_shape(self):
        text = (
            'theorem t_plain "not a reflection statement"\n'
            "1. 0 = 0 by numeval\n"
            "conclusion 0 = 0\n"
        )
        script = parse_kernel_script(text)
        with pytest.raises(ValueError):
            apply_glt(script, base_signature(), AXIOMS)
