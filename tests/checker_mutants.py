"""Weakened checkers, each with the test that must kill it.

An entry patches one weakening into the checkers in-process, through pytest's
monkeypatch, so no source is rewritten and no subprocess is spawned.  Its
killer is the node id of a test under tests/ that takes no fixtures: it must
pass on the checkers as they are and fail under the weakening.
tests/test_checker_mutants.py runs every entry and fails on a survivor.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

import pytest

from test_coding import div3n2n_without_fixup, sqrtrem_without_correction
from test_kernel import exE_without_assumptions_banned
from test_meta import m_refl1_without_the_range_check
from yablo import coding, gl, kernel, syntax
from yablo.kernel import BlockChecker, _Fail, _KernelChecker
from yablo.meta import _MetaChecker
from yablo.syntax import Num, PredApp, Var, alpha_eq, iff


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


def rule_patch(cls: type, rule: str, weakened: Callable) -> Callable[[pytest.MonkeyPatch], None]:
    return lambda mp: mp.setattr(cls, rule, weakened)


def without_check(cls: type, method: str, message: str) -> Callable[[pytest.MonkeyPatch], None]:
    """Patch in cls.method with the one `raise _Fail(...)` whose message
    contains message replaced by `pass`.  The weakened copy is compiled from
    the method's own source, in its module's globals.  A method that calls
    super() with no arguments is refused: the copy would have no __class__
    cell, so every call of it would fail and any test reaching it would kill
    the entry."""
    func = getattr(cls, method)
    if "__class__" in func.__code__.co_freevars:
        raise ValueError(f"{cls.__name__}.{method} calls super() and cannot be recompiled alone")
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    ast.increment_lineno(tree, func.__code__.co_firstlineno - 1)
    sites = [node for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and getattr(node.exc.func, "id", None) == "_Fail"
             and message in ast.unparse(node.exc.args[0])]
    if len(sites) != 1:
        raise ValueError(f"{len(sites)} checks in {cls.__name__}.{method} say {message!r}")

    class Drop(ast.NodeTransformer):
        def visit_Raise(self, node: ast.Raise) -> ast.AST:
            return ast.copy_location(ast.Pass(), node) if node is sites[0] else node

    code = compile(Drop().visit(tree), inspect.getsourcefile(func), "exec")
    weakened: dict[str, Callable] = {}
    exec(code, vars(sys.modules[func.__module__]), weakened)
    return lambda mp: mp.setattr(cls, method, weakened[method])


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


def root_skips_its_correction(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(coding, "_sqrtrem", sqrtrem_without_correction)


def division_skips_its_fixup(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(coding, "_div3n2n", div3n2n_without_fixup)


def pair_swaps_two_tags(mp: pytest.MonkeyPatch) -> None:
    held = coding.pair
    swap = {coding.TAG_EQ: coding.TAG_LT, coding.TAG_LT: coding.TAG_EQ}
    mp.setattr(coding, "pair", lambda a, b: held(swap.get(a, a), b))


def successor_left_unfolded(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(coding, "_succ_code", lambda inner, split: coding.pair(coding.TAG_SUCC, inner))


def tableau_jump(premise: Callable[[frozenset, gl.Box], frozenset]) -> Callable:
    """gl._Search._step with the left side of a modal jump's premise built by
    premise(gamma, box) from the saturated left side and the box jumped on."""

    def step(self, gamma, delta):
        if gamma & delta or gl.Falsum() in gamma:
            return True
        for f in self._sorted(gamma):
            if isinstance(f, gl.Not):
                return gamma - {f}, delta | {f.sub}
            if isinstance(f, gl.And):
                return gamma - {f} | {f.left, f.right}, delta
            if isinstance(f, gl.Or):
                first = self.solve(gamma - {f} | {f.left}, delta)
                return first if first is not True else self.solve(gamma - {f} | {f.right}, delta)
            if isinstance(f, gl.Imp):
                first = self.solve(gamma - {f}, delta | {f.left})
                return first if first is not True else self.solve(gamma - {f} | {f.right}, delta)
        for f in self._sorted(delta):
            if isinstance(f, gl.Falsum):
                return gamma, delta - {f}
            if isinstance(f, gl.Not):
                return gamma | {f.sub}, delta - {f}
            if isinstance(f, gl.Imp):
                return gamma | {f.left}, delta - {f} | {f.right}
            if isinstance(f, gl.Or):
                return gamma, delta - {f} | {f.left, f.right}
            if isinstance(f, gl.And):
                first = self.solve(gamma, delta - {f} | {f.left})
                return first if first is not True else self.solve(gamma, delta - {f} | {f.right})
        failures = []
        for f in self._sorted(delta):
            if isinstance(f, gl.Box):
                out = self.solve(premise(gamma, f), frozenset({f.sub}))
                if out is True:
                    return True
                failures.append(out)
        return gl._Tree(frozenset(a.name for a in gamma if isinstance(a, gl.Atom)), tuple(failures))

    return step


def k4_jump(gamma: frozenset, box: gl.Box) -> frozenset:
    """K4's premise: the boxes and their bodies, without GL's Löb premise."""
    return frozenset(x for b in gamma if isinstance(b, gl.Box) for x in (b, b.sub))


def k_jump(gamma: frozenset, box: gl.Box) -> frozenset:
    """K's premise: the boxes' bodies only."""
    return frozenset(b.sub for b in gamma if isinstance(b, gl.Box))


def diagonalize_skipping(check: str) -> Callable[[pytest.MonkeyPatch], None]:
    """Patch in coding.diagonalize with the parameter check named check left
    out.  Kernel scripts reach it through fix_intro."""

    def weakened(template, hole, params):
        for p in params:
            Var(p)
        fail = coding.DiagonalError
        if check != "duplicate" and len(set(params)) != len(params):
            raise fail(f"duplicate parameter in {hole}({', '.join(params)})")
        stray = set(template.free) - set(params)
        if check != "stray" and stray:
            raise fail(f"free variables {sorted(stray)} are not parameters of {hole}")
        arities = [n for name, n in template.uses if name == hole]
        if check != "unquoted" and arities and coding._unquoted(template, hole):
            raise fail(f"predicate {hole} occurs outside every quotation")
        if check != "arity" and any(n != len(params) for n in arities):
            raise fail(f"predicate {hole} is applied to other than {len(params)} arguments")
        fixed_point = PredApp(hole, tuple(Var(p) for p in params)) if arities else template
        return coding.DiagonalResult(hole, tuple(params), template, fixed_point,
                                     iff(fixed_point, template))

    return lambda mp: mp.setattr(coding, "diagonalize", weakened)


def replay_skipping(check: str) -> Callable[[pytest.MonkeyPatch], None]:
    """Patch in coding.replay_trace with the check named check left out.  Its
    killers call replay through the module, so they run the weakened copy."""

    def weakened(result):
        split = cache(coding.unpair)
        codes = coding._codes(result, split)
        first, name, _, *probes, last = coding.trace_labels(result.params)
        fail = coding.DiagonalError
        if check != "template" and coding._decode(codes[first], split) != result.template:
            raise fail("template code does not decode back")
        if check != "name" and coding.decode_name(codes[name]) != result.hole:
            raise fail(f"name code does not decode to {result.hole}")
        for label, p in zip(probes, result.params):
            probe = coding.encode(syntax.substitute_many(result.template, {p: Num(0)}))
            if check != "probes" and codes[label] != probe:
                raise fail(f"substitution probe for {p} disagrees with the syntax route")
        if check != "fixed point" and coding._decode(codes[last], split) != result.fixed_point:
            raise fail("final trace entry is not the fixed point's code")
        if check != "tie" and not alpha_eq(result.biconditional,
                                           iff(result.fixed_point, result.template)):
            raise fail("biconditional does not tie fixed point to template")
        return True

    return lambda mp: mp.setattr(coding, "replay_trace", weakened)


def declare_reusing_without_define(self) -> None:
    """BlockChecker.declare whose reuse path leaves the kept template out of
    the signature."""
    for d in self.script.defs:
        try:
            if d.template is None:
                template = kernel.fix_intro(self.sig, d.name, d.params, d.body).template
                object.__setattr__(d, "template", template)
        except (syntax.SyntaxBuildError, coding.DiagonalError) as e:
            raise _Fail(f"definition {d.name}: {e}") from None


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


CRITERION_1 = "test_acceptance.py::test_criterion_1_whole_corpus_checks_within_ten_seconds"
TABLEAU_JUMP = "test_gl.py::TestTableau::test_jump_keeps_the_loeb_premise_and_the_boxes"
WEAKENINGS = "test_kernel.py::TestCheckerWeakenings"
META_WEAKENINGS = "test_meta.py::TestCheckerWeakenings"

MUTANTS = [
    CheckerMutant("uses skip quotation templates", uses_skip_quotation_templates,
                  "test_kernel.py::TestArityCheck::test_checked_inside_quotations"),
    CheckerMutant("binder keeps its variable free", binder_keeps_its_variable, CRITERION_1),
    CheckerMutant("ordered merge drops its right operand", merge_drops_its_right_operand,
                  CRITERION_1),
    CheckerMutant("exE ignores the open assumptions",
                  rule_patch(_KernelChecker, "rule_exE", exE_without_assumptions_banned),
                  "test_kernel.py::TestCheckerWeakenings::test_exE_witness_free_in_an_open_assumption"),
    CheckerMutant("m-refl1 without its range check",
                  rule_patch(_MetaChecker, "rule_m_refl1", m_refl1_without_the_range_check),
                  f"{META_WEAKENINGS}::test_m_refl1_range_outside_the_schematic_names"),
    CheckerMutant("square root without its correction step", root_skips_its_correction,
                  "test_coding.py::TestSquareRoot::test_squares_and_their_neighbours"),
    CheckerMutant("recursive division without its remainder fix-up", division_skips_its_fixup,
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
    CheckerMutant("tableau jumps as K4", rule_patch(gl._Search, "_step", tableau_jump(k4_jump)),
                  TABLEAU_JUMP),
    CheckerMutant("tableau jumps as K", rule_patch(gl._Search, "_step", tableau_jump(k_jump)),
                  TABLEAU_JUMP),
    CheckerMutant("diagonalize allows a duplicate parameter", diagonalize_skipping("duplicate"),
                  "test_kernel.py::TestIllFormedDefinitions::test_duplicate_parameter"),
    CheckerMutant("diagonalize allows a stray free variable", diagonalize_skipping("stray"),
                  "test_kernel.py::TestIllFormedDefinitions::test_stray_free_variable"),
    CheckerMutant("diagonalize allows the hole outside every quotation",
                  diagonalize_skipping("unquoted"),
                  "test_kernel.py::TestIllFormedDefinitions::test_self_outside_every_quotation"),
    CheckerMutant("diagonalize allows the hole at the wrong arity", diagonalize_skipping("arity"),
                  "test_kernel.py::TestIllFormedDefinitions::test_self_at_the_wrong_arity"),
    CheckerMutant("replay skips the template's decode-back", replay_skipping("template"),
                  "test_coding.py::TestDiagonalization::test_tampered_trace_is_detected"),
    CheckerMutant("replay skips the name check", replay_skipping("name"),
                  "test_coding.py::TestDiagonalization::test_wrong_name_code_is_detected"),
    CheckerMutant("replay skips the probe comparison", replay_skipping("probes"),
                  "test_coding.py::TestReplayBuildsOnce::test_reused_probe_is_checked_against_the_syntax_route"),
    CheckerMutant("replay skips the fixed point's decode-back", replay_skipping("fixed point"),
                  "test_coding.py::TestReplayBuildsOnce::test_wrong_fixed_point_code_is_detected"),
    CheckerMutant("replay skips the tie", replay_skipping("tie"),
                  "test_coding.py::TestReplayBuildsOnce::test_biconditional_that_does_not_tie_is_detected"),
    CheckerMutant("declare reuses a template without defining it",
                  rule_patch(BlockChecker, "declare", declare_reusing_without_define),
                  "test_kernel.py::TestDefinitionsDiagonalizedOnce::test_checked_twice_in_fresh_signatures"),
    CheckerMutant("declare keeps templates by predicate name", templates_kept_by_name,
                  "test_kernel.py::TestDefinitionsDiagonalizedOnce::test_each_script_unfolds_its_own_body"),
    CheckerMutant("unfold and fold skip the body comparison",
                  without_check(_KernelChecker, "_definitional", "instantiated definition body"),
                  "test_kernel.py::TestDefinitionalRules::test_unfold_body_must_match"),
    CheckerMutant("taut accepts any formula",
                  without_check(_KernelChecker, "rule_taut", "not a tautological consequence"),
                  f"{WEAKENINGS}::test_taut_rejects_a_non_consequence"),
    CheckerMutant("mp without its consequent check",
                  without_check(_KernelChecker, "rule_mp", "does not match the consequent"),
                  f"{WEAKENINGS}::test_mp_stated_formula_must_be_the_consequent"),
    CheckerMutant("gd2 without the consequent's restricted substitution",
                  without_check(_KernelChecker, "rule_gd2", "quoted consequent does not"),
                  f"{WEAKENINGS}::test_gd2_consequent_carries_the_restricted_substitution"),
    CheckerMutant("lob accepts any shape-correct formula",
                  without_check(_KernelChecker, "rule_lob", "if provable then true"),
                  f"{WEAKENINGS}::test_lob_antecedent_must_quote_the_soundness_assertion"),
    CheckerMutant("reiterate accepts any formula",
                  without_check(_KernelChecker, "rule_reiterate", "differs from the cited step"),
                  f"{WEAKENINGS}::test_reiterate_repeats_the_cited_step"),
    CheckerMutant("m-mp without its consequent check",
                  without_check(_MetaChecker, "rule_m_mp", "does not match the consequent"),
                  f"{META_WEAKENINGS}::test_m_mp_stated_formula_must_be_the_consequent"),
    CheckerMutant("andI without its conjuncts check",
                  without_check(_KernelChecker, "rule_andI", "conjuncts do not match"),
                  f"{WEAKENINGS}::test_andI_conjuncts_are_the_cited_steps"),
    CheckerMutant("andE1 accepts any formula",
                  without_check(_KernelChecker, "rule_andE1", "not the left conjunct"),
                  f"{WEAKENINGS}::test_andE1_yields_the_left_conjunct"),
    CheckerMutant("andE2 accepts any formula",
                  without_check(_KernelChecker, "rule_andE2", "not the right conjunct"),
                  f"{WEAKENINGS}::test_andE2_yields_the_right_conjunct"),
    CheckerMutant("orI1 accepts any formula",
                  without_check(_KernelChecker, "rule_orI1", "left side is the cited step"),
                  f"{WEAKENINGS}::test_orI1_yields_a_disjunction_of_the_cited_step"),
    CheckerMutant("orI2 accepts any formula",
                  without_check(_KernelChecker, "rule_orI2", "right side is the cited step"),
                  f"{WEAKENINGS}::test_orI2_yields_a_disjunction_of_the_cited_step"),
    CheckerMutant("orE without its case conclusions check",
                  without_check(_KernelChecker, "rule_orE", "both case conclusions"),
                  f"{WEAKENINGS}::test_orE_yields_the_case_conclusions"),
    CheckerMutant("negI accepts any formula",
                  without_check(_KernelChecker, "rule_negI", "negation of the refuted formula"),
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
                  rule_patch(_MetaChecker, "declare", BlockChecker.declare),
                  f"{META_WEAKENINGS}::test_eigen_names_are_variable_names"),
    CheckerMutant("printer with & looser than |", connectives_swap_two_precedences,
                  "test_syntax.py::TestPrinterAgainstReference::test_hand_cases"),
    CheckerMutant("tag table with -> and | swapped", tags_swap_imp_and_or,
                  "test_coding.py::TestAgainstReference::test_codes_of_sampled_and_hand_formulas"),
]
