"""Weakened checkers, each with the test that must kill it.

An entry patches one weakening into the checkers in-process, through pytest's
monkeypatch, so no source is rewritten and no subprocess is spawned.  Its
killer is the node id of a test under tests/ that takes no fixtures: it must
pass on the checkers as they are and fail under the weakening.
tests/test_checker_mutants.py runs every entry and fails on a survivor.

Most weakenings are derived from the source they weaken: without_check drops
one `raise`, edited makes textual edits, and both compile the edited source
in its module's globals.  So no function body is copied here, and a change
that moves a weakened line fails collection with a ValueError rather than
leaving an entry that tests a stale copy.  schema_replaced swaps one rule's
entry in the kernel's schema table.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from collections.abc import Callable
from dataclasses import dataclass

import pytest

from yablo import coding, gl, kernel, syntax
from yablo.kernel import BlockChecker, _Fail, _KernelChecker
from yablo.meta import _MetaChecker
from yablo.syntax import And, Imp, Or


@dataclass(frozen=True)
class CheckerMutant:
    name: str
    apply: Callable[[pytest.MonkeyPatch], None]
    killer: str


def uses_skip_quotation_templates(mp: pytest.MonkeyPatch) -> None:
    held = syntax.Box.__post_init__

    def weakened(self):
        held(self)
        object.__setattr__(self, "uses", ())

    mp.setattr(syntax.Box, "__post_init__", weakened)


def binder_keeps_its_variable(mp: pytest.MonkeyPatch) -> None:
    def weakened(q):
        object.__setattr__(q, "free", q.body.free)
        object.__setattr__(q, "uses", q.body.uses)

    mp.setattr(syntax.ForAll, "__post_init__", weakened)
    mp.setattr(syntax.Exists, "__post_init__", weakened)


def merge_drops_its_right_operand(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(syntax, "_merge", lambda a, b: a)


@dataclass(frozen=True)
class Recompiled:
    """owner.name replaced by func, a copy compiled from its edited source."""
    owner: object
    name: str
    func: Callable

    def __call__(self, mp: pytest.MonkeyPatch) -> None:
        mp.setattr(self.owner, self.name, self.func)


def _where(owner: object, name: str) -> str:
    return f"{owner.__name__}.{name}"


def _recompiled(owner: object, name: str, rewrite: Callable[[str], str]) -> Recompiled:
    """owner.name, a function of a module or a method of a class, compiled
    from rewrite(its dedented source) in its module's globals, at its own
    line numbers.  A function with free variables is refused: the copy would
    have no cells for them, so every call of it would fail and any test
    reaching it would kill the entry."""
    func = getattr(owner, name)
    if func.__code__.co_freevars:
        raise ValueError(f"{_where(owner, name)} is a closure or calls super(), and cannot be "
                         f"recompiled alone: {func.__code__.co_freevars} would be unbound")
    tree = ast.parse(rewrite(textwrap.dedent(inspect.getsource(func))))
    ast.increment_lineno(tree, func.__code__.co_firstlineno - 1)
    copy: dict[str, Callable] = {}
    exec(compile(tree, inspect.getsourcefile(func), "exec"), vars(sys.modules[func.__module__]), copy)
    return Recompiled(owner, name, copy[name])


def edited(owner: object, name: str, *edits: tuple[str, str]) -> Recompiled:
    """owner.name with each (old, new) edit made in turn on its source; each
    old must occur exactly once when its turn comes."""

    def rewrite(source: str) -> str:
        for old, new in edits:
            if source.count(old) != 1:
                raise ValueError(f"{old!r} occurs {source.count(old)} times in {_where(owner, name)}")
            source = source.replace(old, new)
        return source

    return _recompiled(owner, name, rewrite)


def without_check(owner: object, name: str, message: str) -> Recompiled:
    """owner.name with the one `raise X(...)` whose first argument's source
    contains message replaced by `pass`."""

    def rewrite(source: str) -> str:
        sites = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                 and node.exc.args and message in ast.unparse(node.exc.args[0])]
        if len(sites) != 1:
            raise ValueError(f"{len(sites)} checks in {_where(owner, name)} say {message!r}")
        (site,) = sites
        lines = source.splitlines(keepends=True)
        head = lines[site.lineno - 1].encode()[:site.col_offset].decode()
        tail = lines[site.end_lineno - 1].encode()[site.end_col_offset:].decode()
        lines[site.lineno - 1:site.end_lineno] = [head + "pass" + tail]
        return "".join(lines)

    return _recompiled(owner, name, rewrite)


def connectives_swap_two_precedences(mp: pytest.MonkeyPatch) -> None:
    """The printer's table with & binding looser than |; the parser keeps the
    table it derived on import."""
    mp.setattr(syntax, "CONNECTIVES", {**syntax.CONNECTIVES, syntax.And: ("&", 2),
                                       syntax.Or: ("|", 3)})


def tags_swap_imp_and_or(mp: pytest.MonkeyPatch) -> None:
    """The coding's tag table with -> and | swapped in both directions, so
    every code still decodes back to its formula."""
    kinds = {**coding._KINDS, coding.TAG_IMP: syntax.Or, coding.TAG_OR: syntax.Imp}
    mp.setattr(coding, "_KINDS", kinds)
    mp.setattr(coding, "_TAGS", {cls: tag for tag, cls in kinds.items()})


def pair_swaps_two_tags(mp: pytest.MonkeyPatch) -> None:
    held = coding.pair
    swap = {coding.TAG_EQ: coding.TAG_LT, coding.TAG_LT: coding.TAG_EQ}
    mp.setattr(coding, "pair", lambda a, b: held(swap.get(a, a), b))


def successor_left_unfolded(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(coding, "_succ_code", lambda inner, split: coding.pair(coding.TAG_SUCC, inner))


def schema_replaced(rule: str, premises: tuple, conclusion) -> Callable[[pytest.MonkeyPatch], None]:
    """The kernel's schema table with rule's schema replaced."""
    table = {**kernel.SCHEMAS, rule: (premises, conclusion)}
    return lambda mp: mp.setattr(_KernelChecker, "schemas", table)


def schema_match_skipped(rule: str, pattern: str = "conclusion") -> Recompiled:
    """BlockChecker.by_schema skipping, for rule only, one match: the stated
    formula's against the conclusion pattern, or with pattern `premises[i]`,
    a cited step's against that premise pattern."""
    if pattern == "conclusion":
        call, keep = "match_schema(conclusion,", f"step.rule != {rule!r}"
    else:
        call, keep = "match_schema(pattern,", f"(step.rule != {rule!r} or pattern is not {pattern})"
    return edited(BlockChecker, "by_schema", (f"miss = {call}", f"miss = {keep} and {call}"))


def templates_kept_by_name(mp: pytest.MonkeyPatch) -> None:
    """Patch in BlockChecker.declare keeping each template under its
    predicate name, in a table made afresh for each run, rather than on its
    Definition."""
    kept: dict[str, syntax.Formula] = {}

    def weakened(self) -> None:
        for d in self.script.defs:
            try:
                if d.name not in kept:
                    kept[d.name] = kernel.fix_intro(self.sig, d.name, d.params, d.body).template
                else:
                    self.sig.define(d.name, d.params, kept[d.name])
            except (syntax.SyntaxBuildError, coding.DiagonalError) as e:
                raise _Fail(f"definition {d.name}: {e}") from None

    mp.setattr(BlockChecker, "declare", weakened)


A, B, C = kernel.A, kernel.B, kernel.C  # the schema metavariables
# K4's jump: the boxes and their bodies, without GL's Loeb premise
K4_JUMP = ("boxed_left | {f}", "boxed_left")
# shared with the tests that show each of these weakenings accepting its script
EXE_IGNORES_ASSUMPTIONS = edited(_KernelChecker, "rule_exE", (", *self.active_assumptions()", ""))
M_REFL1_SKIPS_RANGES = edited(
    _MetaChecker, "rule_m_refl1",
    ('self.schematic(fi.subst, "quotation range for {} is not built from schematic numerals")',
     "pass"))

CRITERION_1 = "test_acceptance.py::test_criterion_1_whole_corpus_checks_within_ten_seconds"
TABLEAU_JUMP = "test_gl.py::TestTableau::test_jump_keeps_the_loeb_premise_and_the_boxes"
WEAKENINGS = "test_kernel.py::TestCheckerWeakenings"
META_WEAKENINGS = "test_meta.py::TestCheckerWeakenings"
FUZZ = "test_script_fuzz.py::test_checkers_return_a_report_on_seeded_scripts"
PROPOSITIONAL = "test_kernel.py::TestPropositionalRules"

# Shape guards and citation counts: without one of these checks, a seeded
# script makes the checker raise rather than report.
GUARDS = [
    (BlockChecker, "get", "which does not exist"),
    (BlockChecker, "_one", "cites exactly one step"),
    (BlockChecker, "_two", "cites exactly two steps"),
    (BlockChecker, "close_block", "is open"),
    (_KernelChecker, "rule_allI", "not universally quantified"),
    (_KernelChecker, "rule_allE", "not universally quantified"),
    (_KernelChecker, "rule_exI", "not existentially quantified"),
    (_KernelChecker, "rule_exE", "not existentially quantified"),
    (_KernelChecker, "rule_exE", "not an implication"),
    (_KernelChecker, "rule_numeval", "equalities and inequalities only"),
    (_KernelChecker, "rule_numeval", "not closed"),
    (_KernelChecker, "_definitional", "stated formula is not an implication"),
    (_KernelChecker, "rule_gd2", "shape must be"),
    (_KernelChecker, "rule_gd2", "does not contain an implication"),
    (_KernelChecker, "rule_gd3", "stated formula is not an implication"),
    (_KernelChecker, "rule_lob", "shape must be"),
    (_MetaChecker, "rule_m_kernel", "cannot resolve"),
    (_MetaChecker, "rule_m_refl1", "not a quotation"),
    (_MetaChecker, "rule_m_witness", "not existential"),
    (_MetaChecker, "rule_m_witness", "lower bound"),
    (_MetaChecker, "rule_lemma", "cannot resolve"),
    (_MetaChecker, "rule_m_raa", "cites the suppose step"),
    (_MetaChecker, "_check_step", "does not conclude"),
]

MUTANTS = [
    CheckerMutant("uses skip quotation templates", uses_skip_quotation_templates,
                  "test_kernel.py::TestArityCheck::test_checked_inside_quotations"),
    CheckerMutant("binder keeps its variable free", binder_keeps_its_variable, CRITERION_1),
    CheckerMutant("ordered merge drops its right operand", merge_drops_its_right_operand,
                  CRITERION_1),
    CheckerMutant("exE ignores the open assumptions", EXE_IGNORES_ASSUMPTIONS,
                  "test_kernel.py::TestCheckerWeakenings::test_exE_witness_free_in_an_open_assumption"),
    CheckerMutant("m-refl1 without its range check", M_REFL1_SKIPS_RANGES,
                  f"{META_WEAKENINGS}::test_m_refl1_range_outside_the_schematic_names"),
    CheckerMutant("square root without its correction step",
                  edited(coding, "_sqrtrem", ("if r < 0:", "if False:")),
                  "test_coding.py::TestSquareRoot::test_squares_and_their_neighbours"),
    CheckerMutant("recursive division without its remainder fix-up",
                  edited(coding, "_div3n2n", ("while r < 0:", "while False:")),
                  "test_coding.py::TestSquareRoot::test_division_agrees_with_divmod"),
    CheckerMutant("pair swaps the = and < tags", pair_swaps_two_tags,
                  "test_coding.py::TestEncoding::test_structural_values"),
    CheckerMutant("sub_code leaves a numeral's successor unfolded", successor_left_unfolded,
                  "test_coding.py::TestCodeSubstitution::test_successor_folds_into_numeral"),
    CheckerMutant("gd1 cites a step inside an assumption block",
                  without_check(_KernelChecker, "rule_gd1", "outside every assumption block"),
                  "test_kernel.py::TestQuotationRules::test_gd1_refuses_steps_inside_blocks"),
    CheckerMutant("allI without its eigenvariable check",
                  without_check(_KernelChecker, "rule_allI", "free in an active assumption"),
                  "test_kernel.py::TestQuantifierRules::test_allI_eigencondition"),
    CheckerMutant("gd3 without its sigma1 check",
                  without_check(_KernelChecker, "rule_gd3", "existential fragment"),
                  "test_kernel.py::TestQuotationRules::test_gd3_needs_existential_fragment"),
    CheckerMutant("m-g2 on any judgment",
                  without_check(_MetaChecker, "rule_m_g2", "consistency sentence"),
                  "test_meta.py::TestRefutationDiscipline::test_g2_requires_the_consistency_sentence"),
    CheckerMutant("tableau jumps as K4", edited(gl._Search, "_step", K4_JUMP), TABLEAU_JUMP),
    CheckerMutant("tableau jumps as K",
                  edited(gl._Search, "_step", K4_JUMP, ("(b, b.sub)", "(b.sub,)")), TABLEAU_JUMP),
    CheckerMutant("diagonalize allows a duplicate parameter",
                  without_check(coding, "diagonalize", "duplicate parameter"),
                  "test_kernel.py::TestIllFormedDefinitions::test_duplicate_parameter"),
    CheckerMutant("diagonalize allows a stray free variable",
                  without_check(coding, "diagonalize", "are not parameters of"),
                  "test_kernel.py::TestIllFormedDefinitions::test_stray_free_variable"),
    CheckerMutant("diagonalize allows the hole outside every quotation",
                  without_check(coding, "diagonalize", "outside every quotation"),
                  "test_kernel.py::TestIllFormedDefinitions::test_self_outside_every_quotation"),
    CheckerMutant("diagonalize allows the hole at the wrong arity",
                  without_check(coding, "diagonalize", "applied to other than"),
                  "test_kernel.py::TestIllFormedDefinitions::test_self_at_the_wrong_arity"),
    CheckerMutant("replay skips the template's decode-back",
                  without_check(coding, "replay_trace", "template code does not"),
                  "test_coding.py::TestDiagonalization::test_tampered_trace_is_detected"),
    CheckerMutant("replay skips the name check",
                  without_check(coding, "replay_trace", "name code does not"),
                  "test_coding.py::TestDiagonalization::test_wrong_name_code_is_detected"),
    CheckerMutant("replay skips the probe comparison",
                  without_check(coding, "replay_trace", "substitution probe"),
                  "test_coding.py::TestReplayBuildsOnce::test_reused_probe_is_checked_against_the_syntax_route"),
    CheckerMutant("replay skips the fixed point's decode-back",
                  without_check(coding, "replay_trace", "final trace entry"),
                  "test_coding.py::TestReplayBuildsOnce::test_wrong_fixed_point_code_is_detected"),
    CheckerMutant("replay skips the tie",
                  without_check(coding, "replay_trace", "biconditional does not tie"),
                  "test_coding.py::TestReplayBuildsOnce::test_biconditional_that_does_not_tie_is_detected"),
    CheckerMutant("declare reuses a template without defining it",
                  edited(BlockChecker, "declare",
                         ("self.sig.define(d.name, d.params, d.template)", "pass")),
                  "test_kernel.py::TestDefinitionsDiagonalizedOnce::test_checked_twice_in_fresh_signatures"),
    CheckerMutant("declare keeps templates by predicate name", templates_kept_by_name,
                  "test_kernel.py::TestDefinitionsDiagonalizedOnce::test_each_script_unfolds_its_own_body"),
    CheckerMutant("unfold and fold skip the body comparison",
                  without_check(_KernelChecker, "_definitional", "instantiated definition body"),
                  "test_kernel.py::TestDefinitionalRules::test_unfold_body_must_match"),
    CheckerMutant("taut accepts any formula",
                  without_check(_KernelChecker, "rule_taut", "not a tautological consequence"),
                  f"{WEAKENINGS}::test_taut_rejects_a_non_consequence"),
    CheckerMutant("mp without its consequent check", schema_match_skipped("mp"),
                  f"{WEAKENINGS}::test_mp_stated_formula_must_be_the_consequent"),
    CheckerMutant("gd2 without the consequent's restricted substitution",
                  without_check(_KernelChecker, "rule_gd2", "quoted consequent does not"),
                  f"{WEAKENINGS}::test_gd2_consequent_carries_the_restricted_substitution"),
    CheckerMutant("lob accepts any shape-correct formula",
                  without_check(_KernelChecker, "rule_lob", "if provable then true"),
                  f"{WEAKENINGS}::test_lob_antecedent_must_quote_the_soundness_assertion"),
    CheckerMutant("reiterate accepts any formula", schema_match_skipped("reiterate"),
                  f"{WEAKENINGS}::test_reiterate_repeats_the_cited_step"),
    CheckerMutant("m-mp without its consequent check", schema_match_skipped("m-mp"),
                  f"{META_WEAKENINGS}::test_m_mp_stated_formula_must_be_the_consequent"),
    CheckerMutant("andI without its conjuncts check", schema_match_skipped("andI"),
                  f"{WEAKENINGS}::test_andI_conjuncts_are_the_cited_steps"),
    CheckerMutant("andE1 accepts any formula", schema_match_skipped("andE1"),
                  f"{WEAKENINGS}::test_andE1_yields_the_left_conjunct"),
    CheckerMutant("andE2 accepts any formula", schema_match_skipped("andE2"),
                  f"{WEAKENINGS}::test_andE2_yields_the_right_conjunct"),
    CheckerMutant("orI1 accepts any formula", schema_match_skipped("orI1"),
                  f"{WEAKENINGS}::test_orI1_yields_a_disjunction_of_the_cited_step"),
    CheckerMutant("orI2 accepts any formula", schema_match_skipped("orI2"),
                  f"{WEAKENINGS}::test_orI2_yields_a_disjunction_of_the_cited_step"),
    CheckerMutant("orE without its case conclusions check", schema_match_skipped("orE"),
                  f"{WEAKENINGS}::test_orE_yields_the_case_conclusions"),
    CheckerMutant("negI accepts any formula", schema_match_skipped("negI"),
                  f"{WEAKENINGS}::test_negI_negates_the_refuted_formula"),
    CheckerMutant("allI without its body check",
                  without_check(_KernelChecker, "rule_allI", "does not match the quantified body"),
                  f"{WEAKENINGS}::test_allI_body_is_the_cited_step"),
    CheckerMutant("exI without its instance check",
                  without_check(_KernelChecker, "rule_exI", "cited step is not the instance"),
                  f"{WEAKENINGS}::test_exI_cites_the_instance"),
    CheckerMutant("exE without its consequent check",
                  without_check(_KernelChecker, "rule_exE", "implication consequent"),
                  f"{WEAKENINGS}::test_exE_yields_the_implication_consequent"),
    CheckerMutant("unfold and fold on any predicate",
                  without_check(_KernelChecker, "_definitional", "is not an application of"),
                  f"{WEAKENINGS}::test_fold_applies_the_named_predicate"),
    CheckerMutant("gd3 without its consequent check",
                  without_check(_KernelChecker, "rule_gd3", "consequent is not the self-substituted"),
                  f"{WEAKENINGS}::test_gd3_consequent_quotes_the_antecedent"),
    CheckerMutant("cited takes any judgment",
                  without_check(_MetaChecker, "cited", "is not a Prv judgment"),
                  f"{META_WEAKENINGS}::test_cited_step_must_be_a_Prv_judgment"),
    CheckerMutant("m-inst without its bindings check",
                  without_check(_MetaChecker, "rule_m_inst", "under the given bindings"),
                  f"{META_WEAKENINGS}::test_m_inst_yields_the_instance_under_the_bindings"),
    CheckerMutant("m-refl1 without its instance check",
                  without_check(_MetaChecker, "rule_m_refl1", "not the quoted instance"),
                  f"{META_WEAKENINGS}::test_m_refl1_yields_the_quoted_instance"),
    CheckerMutant("m-witness without its body instance check",
                  without_check(_MetaChecker, "rule_m_witness", "body instance at the witness"),
                  f"{META_WEAKENINGS}::test_m_witness_yields_the_body_instance"),
    CheckerMutant("meta declare without the eigen name check",
                  lambda mp: mp.setattr(_MetaChecker, "declare", BlockChecker.declare),
                  f"{META_WEAKENINGS}::test_eigen_names_are_variable_names"),
    CheckerMutant("printer with & looser than |", connectives_swap_two_precedences,
                  "test_syntax.py::TestPrinterAgainstReference::test_hand_cases"),
    CheckerMutant("tag table with -> and | swapped", tags_swap_imp_and_or,
                  "test_coding.py::TestAgainstReference::test_codes_of_sampled_and_hand_formulas"),
    CheckerMutant("undeclared predicates pass the arity check",
                  without_check(_KernelChecker, "arity_check", "problem"),
                  f"{WEAKENINGS}::test_undeclared_predicate_is_rejected"),
    CheckerMutant("orE on any first cited step", schema_match_skipped("orE", "premises[0]"),
                  f"{WEAKENINGS}::test_orE_first_cited_step_is_a_disjunction"),
    CheckerMutant("orE without its left discharge check", schema_match_skipped("orE", "premises[1]"),
                  f"{WEAKENINGS}::test_orE_second_cited_step_discharges_the_left_disjunct"),
    CheckerMutant("exE without its antecedent check",
                  without_check(_KernelChecker, "rule_exE", "not the witness instance"),
                  f"{WEAKENINGS}::test_exE_antecedent_is_the_witness_instance"),
    CheckerMutant("m-witness outside the existential fragment",
                  without_check(_MetaChecker, "rule_m_witness", "existential fragment"),
                  f"{META_WEAKENINGS}::test_m_witness_body_is_in_the_existential_fragment"),
    CheckerMutant("andE1 yields the right conjunct", schema_replaced("andE1", (And(A, B),), B),
                  f"{PROPOSITIONAL}::test_and_or_neg_round"),
    CheckerMutant("mp with its premises swapped", schema_replaced("mp", (A, Imp(A, B)), B),
                  f"{WEAKENINGS}::test_mp_cites_the_implication_first"),
    CheckerMutant("orE discharges the left disjunct twice",
                  schema_replaced("orE", (Or(A, B), Imp(A, C), Imp(A, C)), C),
                  f"{PROPOSITIONAL}::test_orE_needs_both_cases"),
    CheckerMutant("schema metavariables bind but are never compared",
                  edited(kernel, "match_schema", ("bound is instance or alpha_eq(bound, instance)", "True")),
                  f"{PROPOSITIONAL}::test_mp_wrong_antecedent"),
    CheckerMutant("schema connectives match any binary node",
                  edited(kernel, "match_schema", ("if type(instance) is not kind:", "if False:")),
                  f"{WEAKENINGS}::test_andE2_cites_a_conjunction"),
    CheckerMutant("schema rules take any number of citations",
                  without_check(BlockChecker, "by_schema", "cites"),
                  f"{WEAKENINGS}::test_schema_rules_check_the_citation_count"),
    CheckerMutant("unknown rules reach no handler check",
                  without_check(BlockChecker, "handler", "unknown rule"),
                  f"{WEAKENINGS}::test_unknown_rule_is_rejected"),
    *(CheckerMutant(f"{owner.__name__}.{name} without {message!r}",
                    without_check(owner, name, message), FUZZ)
      for owner, name, message in GUARDS),
]
