import dataclasses
import random
from importlib import resources

import pytest

from checker_mutants import EXE_IGNORES_ASSUMPTIONS
from yablo import kernel
from yablo.kernel import (
    MAX_TAUT_ATOMS,
    _collect_atoms,
    _Fail,
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
from yablo.syntax import (
    And,
    Eq,
    Exists,
    Falsum,
    ForAll,
    Imp,
    Lt,
    Not,
    Or,
    PredApp,
    Var,
    alpha_eq,
    base_signature,
    canonical,
    numeral,
    print_formula,
)

AXIOMS = load_axioms((resources.files("yablo") / "corpus" / "arith.axioms").read_text())


def f(text: str):
    return parse_formula(text)


def parsed(body: str, conclusion: str, defs: str = ""):
    return parse_kernel_script(f'theorem t_inline "inline"\n{defs}{body}\nconclusion {conclusion}\n')


def run(body: str, conclusion: str, defs: str = ""):
    return check(parsed(body, conclusion, defs))


def check(script):
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


def row_by_row_taut(premises, goal):
    """Reference for taut_consequence: the truth table one row at a time,
    stopping at the first falsifying row."""
    form = goal
    for p in reversed(premises):
        form = Imp(p, form)
    order: list = []
    index: dict = {}
    _collect_atoms(form, order, index)
    if len(order) > MAX_TAUT_ATOMS:
        raise _Fail(f"too many distinct atoms for a truth-table check ({len(order)})")

    def ev(g, bits: int) -> bool:
        match g:
            case Falsum():
                return False
            case Not(s):
                return not ev(s, bits)
            case Imp(l, r):
                return (not ev(l, bits)) or ev(r, bits)
            case And(l, r):
                return ev(l, bits) and ev(r, bits)
            case Or(l, r):
                return ev(l, bits) or ev(r, bits)
            case _:
                return bool(bits >> index[canonical(g)] & 1)

    for bits in range(1 << len(order)):
        if not ev(form, bits):
            return False, {print_formula(a): bool(bits >> i & 1) for i, a in enumerate(order)}
    return True, None


def opaque_atom(i: int, variant: int):
    """Atom number i; the variants of a quantified atom are alpha-equivalent."""
    v = "xyz"[variant % 3]
    match i % 4:
        case 0:
            return ForAll(v, Imp(Lt(Var(v), numeral(i)), PredApp("Q", (Var(v),))))
        case 1:
            return Exists(v, Eq(Var(v), numeral(i)))
        case 2:
            return PredApp("R", (Var("k"), numeral(i)))
        case _:
            return Lt(numeral(i), Var("k"))


def random_connectives(rng: random.Random, leaves: list):
    if len(leaves) == 1:
        out = leaves[0]
    else:
        cut = rng.randrange(1, len(leaves))
        left = random_connectives(rng, leaves[:cut])
        right = random_connectives(rng, leaves[cut:])
        out = rng.choice((Imp, And, Or))(left, right)
    return Not(out) if rng.random() < 0.25 else out


def random_taut_case(rng: random.Random, atoms: int):
    """0-2 premises and a goal over exactly `atoms` opaque atoms and bot;
    a quarter of the small cases are tautologies by construction."""
    chosen = rng.sample(range(MAX_TAUT_ATOMS + 1), atoms)
    leaves = chosen + [rng.choice(chosen) for _ in range(rng.randrange(5))]
    leaves += [None] * rng.randrange(3)
    rng.shuffle(leaves)
    parts = sorted(rng.sample(range(1, len(leaves)), min(rng.randrange(3), len(leaves) - 1)))
    groups = [leaves[a:b] for a, b in zip([0] + parts, parts + [len(leaves)])]
    formulas = [random_connectives(rng, [Falsum() if i is None else opaque_atom(i, rng.randrange(3))
                                         for i in g]) for g in groups]
    premises, goal = formulas[:-1], formulas[-1]
    if atoms <= 10 and rng.random() < 0.25:
        twin = random_connectives(random.Random(0), [opaque_atom(i, 2) for i in chosen])
        goal = Or(goal, Imp(random_connectives(random.Random(0), [opaque_atom(i, 0) for i in chosen]), twin))
    return premises, goal


class TestTautConsequenceAgainstRowByRow:
    def test_same_verdict_and_countervaluation(self):
        # the reference scans up to 2**n rows, so the widest tables get few cases
        sizes = [n for n in range(1, 13) for _ in range(20)] + [n for n in range(13, 17) for _ in range(2)]
        rng = random.Random(20111)
        valid = 0
        for case, n in enumerate(sizes):
            premises, goal = random_taut_case(rng, n)
            expected = row_by_row_taut(premises, goal)
            assert taut_consequence(premises, goal) == expected, (case, premises, goal)
            valid += expected[0]
        assert 0 < valid < len(sizes)

    def test_sixteen_atom_tautology(self):
        atoms = [opaque_atom(i, 0) for i in range(MAX_TAUT_ATOMS)]
        # the excluded middle comes first, so the reference never reads the rest
        goal = Or(Or(atoms[0], Not(opaque_atom(0, 1))), random_connectives(random.Random(1), atoms[1:]))
        assert taut_consequence([], goal) == row_by_row_taut([], goal) == (True, None)

    def test_seventeen_atoms_raise_the_same_failure(self):
        atoms = [opaque_atom(i, i) for i in range(MAX_TAUT_ATOMS + 1)]
        premise = random_connectives(random.Random(2), atoms[:9])
        goal = random_connectives(random.Random(3), atoms[9:])
        with pytest.raises(_Fail) as new:
            taut_consequence([premise], goal)
        with pytest.raises(_Fail) as old:
            row_by_row_taut([premise], goal)
        assert str(new.value) == str(old.value) == "too many distinct atoms for a truth-table check (17)"


def instance_env(schema, inst):
    """The bindings under which inst is an instance of schema, or None."""
    env = {}
    return env if match_schema(schema, inst, env) is None else None


class TestMatchSchema:
    def test_instance_found(self):
        schema = f("x < y -> (y < z -> x < z)")
        inst = f("k < k + 1 -> (k + 1 < u -> k < u)")
        got = instance_env(schema, inst)
        assert got == {"x": Var("k"), "y": parse_term("k + 1"), "z": Var("u")}

    def test_repeated_variables_must_agree(self):
        assert instance_env(f("~(x < x)"), f("~(k < k)")) is not None
        assert instance_env(f("~(x < x)"), f("~(k < u)")) is None

    def test_shape_mismatch(self):
        assert instance_env(f("x < S(x)"), f("k < k + 1")) is None

    def test_successor_pattern_matches_positive_numerals(self):
        assert instance_env(f("x < S(x)"), f("3 < 4")) == {"x": numeral(3)}
        assert instance_env(f("x < S(x)"), f("3 < 5")) is None
        assert instance_env(f("S(x) = y"), f("0 = 0")) is None

    def test_metavariables_bind_formulas_up_to_renaming(self):
        (prem, minor), concl = kernel.SCHEMAS["mp"]
        env = {}
        assert match_schema(prem, f("(all x. x < k) -> P"), env) is None
        assert match_schema(minor, f("all y. y < k"), env) is None
        assert env == {"A": f("all x. x < k"), "B": f("P")}
        miss = match_schema(concl, f("Q(k)"), env)
        assert miss == (kernel.B, f("Q(k)"))

    def test_mismatch_is_the_first_differing_subformula(self):
        ((prem,), _) = kernel.SCHEMAS["negI"]
        assert match_schema(prem, f("P -> Q(k)"), {}) == (Falsum(), f("Q(k)"))
        assert match_schema(prem, f("P & bot"), {}) == (prem, f("P & bot"))

    def test_con_and_axiom_atoms_are_not_metavariables(self):
        (_, con_def) = kernel.SCHEMAS["con-def"]
        assert match_schema(con_def, f("(Con -> ~Prov[ bot ;]) & (~Prov[ bot ;] -> Con)"), {}) is None
        assert match_schema(con_def, f("(P -> ~Prov[ bot ;]) & (~Prov[ bot ;] -> P)"), {}) is not None
        assert instance_env(f("P -> x < x"), f("Q(k) -> k < k")) is None
        assert instance_env(f("P -> x < x"), f("P -> k < k")) == {"x": Var("k")}


class TestEvalClosedTerm:
    def test_values(self):
        assert eval_closed_term(parse_term("2 + 3 * 4")) == 14
        assert eval_closed_term(parse_term("S(0 + 1)")) == 2
        assert eval_closed_term(parse_term("x + 1")) is None
        assert eval_closed_term(numeral(10**40)) == 10**40


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
        rejected_at(run(body, "Q(k)"), 3, "cited step 2: expected P at A, found R(k, k)")

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
        rejected_at(run(body, "P | P"), 5, "cited step 4: expected Q(k) at B, found P")

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
        rejected_at(run(body, "bot"), 3, "cited step 1: expected Q(k) at A, found P")


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


# From Q(u), the witness u for exists x. ~Q(x) is no fresh name: it is free in
# the open assumption.  Were exE to allow it, this script would derive
# Q(u) -> ~exists x. ~Q(x), that is, from one instance of Q every instance.
EXE_WITNESS_IN_OPEN_ASSUMPTION = (
    "1. assume Q(u)\n"
    "2. assume exists x. ~Q(x)\n"
    "3. assume ~Q(u)\n"
    "4. bot by negE 1, 3\n"
    "5. qed-block 3\n"
    "6. bot by exE 2, 5 with u\n"
    "7. qed-block 2\n"
    "8. ~(exists x. ~Q(x)) by negI 7\n"
    "9. qed-block 1"
)


class TestCheckerWeakenings:
    """Scripts that a weakened rule would accept, each rejected at its step."""

    def test_exE_witness_free_in_an_open_assumption(self):
        rejected_at(run(EXE_WITNESS_IN_OPEN_ASSUMPTION, "Q(u) -> ~(exists x. ~Q(x))"),
                    6, "witness variable u is not fresh here")

    def test_weakened_exE_accepts_the_unsound_script(self, monkeypatch):
        EXE_IGNORES_ASSUMPTIONS(monkeypatch)
        assert run(EXE_WITNESS_IN_OPEN_ASSUMPTION, "Q(u) -> ~(exists x. ~Q(x))").ok
        with pytest.raises(AssertionError):
            self.test_exE_witness_free_in_an_open_assumption()

    def test_undeclared_predicate_is_rejected(self):
        script = parsed("1. P -> P by taut", "P -> P")
        rejected_at(check_kernel_script(script, base_signature(), AXIOMS), 1, "unknown predicate P")

    def test_unknown_rule_is_rejected(self):
        # the parser refuses an unknown rule, so the step is built directly
        script = parsed("1. P -> P by taut", "P -> P")
        step = dataclasses.replace(script.steps[0], rule="nonesuch")
        rejected_at(check(dataclasses.replace(script, steps=(step,))), 1, "unknown rule 'nonesuch'")

    def test_taut_rejects_a_non_consequence(self):
        rejected_at(run("1. bot by taut", "bot"), 1, "not a tautological consequence")

    def test_mp_stated_formula_must_be_the_consequent(self):
        body = (
            "1. (0 = 0 -> 0 = 0) -> (0 = 0 -> 0 = 0) by taut\n"
            "2. 0 = 0 -> 0 = 0 by taut\n"
            "3. bot by mp 1, 2"
        )
        rejected_at(run(body, "bot"), 3, "expected 0 = 0 -> 0 = 0 at B, stated bot")

    def test_gd2_consequent_carries_the_restricted_substitution(self):
        stated = ("Prov[ x < y -> x < y + 1 ; x := k, y := k ] -> "
                  "(Prov[ x < y ; x := k, y := k ] -> Prov[ x < y + 1 ; x := k, y := u ])")
        rejected_at(run(f"1. {stated} by gd2", stated),
                    1, "quoted consequent does not carry the restricted substitution")

    def test_lob_antecedent_must_quote_the_soundness_assertion(self):
        stated = "Prov[ 0 = 0 ;] -> Prov[ bot ;]"
        rejected_at(run(f"1. {stated} by lob", stated), 1, "if provable then true")

    def test_reiterate_repeats_the_cited_step(self):
        rejected_at(run("1. 0 = 0 by numeval\n2. bot by reiterate 1", "bot"),
                    2, "expected 0 = 0 at A, stated bot")

    # Each script below derives bot, or quotes it, through one step that
    # compares its stated formula with what the rule yields.
    def test_andI_conjuncts_are_the_cited_steps(self):
        body = "1. 0 = 0 by numeval\n2. 0 = 0 & bot by andI 1, 1\n3. bot by andE2 2"
        rejected_at(run(body, "bot"), 2, "expected 0 = 0 at B, stated bot")

    def test_andE1_yields_the_left_conjunct(self):
        body = "1. 0 = 0 by numeval\n2. 0 = 0 & 0 = 0 by andI 1, 1\n3. bot by andE1 2"
        rejected_at(run(body, "bot"), 3, "expected 0 = 0 at A, stated bot")

    def test_andE2_yields_the_right_conjunct(self):
        body = "1. 0 = 0 by numeval\n2. 0 = 0 & 0 = 0 by andI 1, 1\n3. bot by andE2 2"
        rejected_at(run(body, "bot"), 3, "expected 0 = 0 at B, stated bot")

    def test_orI1_yields_a_disjunction_of_the_cited_step(self):
        rejected_at(run("1. 0 = 0 by numeval\n2. bot by orI1 1", "bot"),
                    2, "expected A | B, stated bot")

    def test_orI2_yields_a_disjunction_of_the_cited_step(self):
        rejected_at(run("1. 0 = 0 by numeval\n2. bot by orI2 1", "bot"),
                    2, "expected A | B, stated bot")

    def test_orE_yields_the_case_conclusions(self):
        body = (
            "1. 0 = 0 by numeval\n"
            "2. 0 = 0 | 0 = 0 by orI1 1\n"
            "3. 0 = 0 -> 0 = 0 by taut\n"
            "4. bot by orE 2, 3, 3"
        )
        rejected_at(run(body, "bot"), 4, "expected 0 = 0 at C, stated bot")

    def test_orE_first_cited_step_is_a_disjunction(self):
        rejected_at(run("1. bot -> bot by taut\n2. bot by orE 1, 1, 1", "bot"),
                    2, "cited step 1: expected A | B, found bot -> bot")

    def test_mp_cites_the_implication_first(self):
        body = "1. assume P\n2. assume P -> Q(k)\n3. Q(k) by mp 1, 2"
        rejected_at(run(body, "bot"), 3, "cited step 1: expected A -> B, found P")

    def test_andE2_cites_a_conjunction(self):
        rejected_at(run("1. ~bot | bot by taut\n2. bot by andE2 1", "bot"),
                    2, "cited step 1: expected A & B, found ~bot | bot")

    def test_schema_rules_check_the_citation_count(self):
        rejected_at(run("1. bot by reiterate", "bot"), 1, "reiterate cites exactly one step")

    def test_orE_second_cited_step_discharges_the_left_disjunct(self):
        body = "1. ~bot | bot by taut\n2. bot -> bot by taut\n3. bot by orE 1, 2, 2"
        rejected_at(run(body, "bot"), 3, "cited step 2: expected ~bot at A, found bot")

    def test_negI_negates_the_refuted_formula(self):
        body = (
            "1. bot -> bot by taut\n"
            "2. ~(0 = 0) by negI 1\n"
            "3. 0 = 0 by numeval\n"
            "4. bot by negE 3, 2"
        )
        rejected_at(run(body, "bot"), 2, "expected bot at A, stated 0 = 0")

    def test_allI_body_is_the_cited_step(self):
        body = "1. 0 = 0 by numeval\n2. all x. bot by allI 1\n3. bot by allE 2 with 0"
        rejected_at(run(body, "bot"), 2, "cited step does not match the quantified body")

    def test_exI_cites_the_instance(self):
        body = (
            "1. 0 = 0 by numeval\n"
            "2. exists x. bot by exI 1 with 0\n"
            "3. bot -> bot by taut\n"
            "4. bot by exE 2, 3 with y"
        )
        rejected_at(run(body, "bot"), 2, "cited step is not the instance at 0")

    def test_exE_yields_the_implication_consequent(self):
        body = (
            "1. 0 = 0 by numeval\n"
            "2. exists x. x = x by exI 1 with 0\n"
            "3. y = y -> y = y by taut\n"
            "4. bot by exE 2, 3 with y"
        )
        rejected_at(run(body, "bot"), 4, "stated formula does not match the implication consequent")

    def test_exE_antecedent_is_the_witness_instance(self):
        body = (
            "1. 0 = 0 by numeval\n"
            "2. exists x. x = x by exI 1 with 0\n"
            "3. bot -> bot by taut\n"
            "4. bot by exE 2, 3 with y"
        )
        rejected_at(run(body, "bot"), 4, "implication antecedent is not the witness instance at y")

    def test_fold_applies_the_named_predicate(self):
        # folding T's body into B(0) would make B(0), whose body is false, true
        defs = "def T(k) := k = k\ndef B(k) := ~(k = k)\n"
        body = (
            "1. 0 = 0 -> B(0) by fold T\n"
            "2. 0 = 0 by numeval\n"
            "3. B(0) by mp 1, 2\n"
            "4. B(0) -> ~(0 = 0) by unfold B\n"
            "5. ~(0 = 0) by mp 4, 3\n"
            "6. bot by negE 2, 5"
        )
        rejected_at(run(body, "bot", defs), 1, "consequent is not an application of T")

    def test_gd3_consequent_quotes_the_antecedent(self):
        body = "1. 0 = 0 -> Prov[ bot ;] by gd3\n2. 0 = 0 by numeval\n3. Prov[ bot ;] by mp 1, 2"
        rejected_at(run(body, "Prov[ bot ;]"),
                    1, "consequent is not the self-substituted quotation of the antecedent")


class TestArithmeticRules:
    def test_unknown_axiom_name(self):
        rejected_at(run("1. k < k + 1 by arith no_such", "k < k + 1"), 1, "no axiom named")

    def test_non_instance_rejected(self):
        rejected_at(run("1. k < k by arith lt_plus_one", "k < k"), 1, "not an instance")

    def test_numeval_accepts_truths_and_negated_falsehoods(self):
        assert run("1. 2 < 3 by numeval", "2 < 3").ok
        assert run("1. ~(3 < 2) by numeval", "~(3 < 2)").ok
        assert run("1. 2 + 2 = 4 by numeval", "2 + 2 = 4").ok

    def test_schemas_apply_at_numerals(self):
        for stated, axiom in [
            ("3 < 4", "lt_succ"),
            ("0 < 1", "lt_succ"),
            ("S(2) = S(y) -> 2 = y", "succ_inj"),
            ("4 = 3 -> 3 = 2", "succ_inj"),
            ("~(7 < 0)", "lt_zero"),
        ]:
            report = run(f"1. {stated} by arith {axiom}", stated)
            assert report.ok, (stated, report.first())
        rejected_at(run("1. 3 < 5 by arith lt_succ", "3 < 5"), 1, "not an instance")

    def test_numeval_at_large_numerals(self):
        assert run("1. 500 < 501 by numeval", "500 < 501").ok
        assert run("1. S(99999999) = 100000000 by numeval", "100000000 = 100000000").ok
        big = "9" * 4000
        rejected_at(run(f"1. {big} * {big} < 0 by numeval", "0 = 0"), 1, "false")

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


class TestIllFormedDefinitions:
    """A def the diagonal construction refuses is a violation before step 1."""

    def refused(self, definition: str, fragment: str) -> None:
        rejected_at(run("1. P -> P by taut", "P -> P", defs=definition + "\n"), None, fragment)

    def test_duplicate_parameter(self):
        self.refused("def D(k, k) := k < k", "duplicate parameter in D(k, k)")

    def test_stray_free_variable(self):
        self.refused("def D(k) := x < k", "free variables ['x'] are not parameters of D")

    def test_self_outside_every_quotation(self):
        self.refused("def D(k) := self(k) -> bot", "predicate D occurs outside every quotation")

    def test_self_at_the_wrong_arity(self):
        self.refused("def D(k) := Prov[ self(k, k) ; k := k ]",
                     "predicate D is applied to other than 1 arguments")


class TestDefinitionsDiagonalizedOnce:
    """A parsed def is diagonalized on its first check only: later checks of
    the same Definition object install the template it kept."""

    UNFOLD = "1. YJ(0) -> (all x. (0 < x) -> Prov[ ~YJ(x) ; x := x ]) by unfold YJ"
    UNFOLDED = "YJ(0) -> (all x. (0 < x) -> Prov[ ~YJ(x) ; x := x ])"
    YG_DEF = "def YG(k) := all x. (k < x) -> ~Prov[ self(x) ; x := x ]\n"

    def test_mutants_of_one_script_diagonalize_each_definition_once(self):
        script = parsed(self.UNFOLD, self.UNFOLDED, defs=YJ_DEF + self.YG_DEF)
        mutants = [dataclasses.replace(script, conclusion=f(c)) for c in ("P", "bot", "YG(0)")]
        mutants.append(dataclasses.replace(script, steps=()))
        calls = []
        real = kernel.fix_intro

        def counted(sig, name, params, body):
            calls.append(name)
            return real(sig, name, params, body)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "fix_intro", counted)
            assert check(script).ok
            for mutant in mutants:
                assert not check(mutant).ok
        assert calls == ["YJ", "YG"]

    def test_ill_formed_definition_is_rejected_on_every_check(self):
        script = parsed("1. P -> P by taut", "P -> P", defs="def D(k, k) := k < k\n")
        first, second = check(script), check(script)
        assert first == second
        rejected_at(second, None, "definition D: duplicate parameter in D(k, k)")

    def test_checked_twice_in_fresh_signatures(self):
        script = parsed(self.UNFOLD, self.UNFOLDED, defs=YJ_DEF)
        first, second = check(script), check(script)
        assert first == second
        assert second.ok and second.steps_checked == 1

    def test_each_script_unfolds_its_own_body(self):
        cases = [("k < 1", "0 < 1"), ("1 < k", "1 < 0")]
        for order in (cases, cases[::-1]):
            scripts = [parsed(f"1. D(0) -> {at_0} by unfold D", f"D(0) -> {at_0}",
                              defs=f"def D(k) := {body}\n")
                       for body, at_0 in order]
            assert [check(s).ok for s in scripts] == [True, True], order


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
        rejected_at(run(bad, "P"), 1, "expected ~Prov[bot ;], stated Prov[bot ;]")


class TestScriptParsing:
    def test_rule_table_matches_checker_handlers(self):
        handlers = {n[len("rule_"):] for n in dir(_KernelChecker) if n.startswith("rule_")}
        handlers |= {rule.replace("-", "_") for rule in _KernelChecker.schemas}
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
