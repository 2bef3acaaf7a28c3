"""Checker for provability/unprovability reasoning about the object theory.

Judgments are `Prv: F` (the theory derives F) and `NotPrv: F`.  A `suppose
Prv:` block is a refutation: once it reaches `meta-bot`, the matching
unprovability claim is discharged by m-raa.  Two reflection strengths gate the
rules that need them: `Con` (the theory proves no contradiction) and `OneCon`
(additionally, whatever it proves in the existential fragment is true); OneCon
subsumes Con wherever Con is required.

Free variables of judgment formulas are schematic numerals.  They must be
declared up front (`eigen`), except for witnesses that m-witness extracts,
which become usable inside the block where they were obtained.

The block discipline, citation and the script driver are the kernel's
:class:`~yablo.kernel.BlockChecker`; this module adds the step kinds, the rule
table and one ``rule_<name>`` method per rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .coding import fix_intro  # noqa: F401  unused, kept bound: bench/tracing.py wraps meta.fix_intro
from .kernel import BlockChecker, CheckReport, _Fail, arity_violation
from .scripts import MetaScript, MetaStep
from .syntax import (
    And,
    Box,
    Exists,
    Formula,
    Imp,
    Lt,
    Not,
    PredApp,
    Signature,
    SyntaxBuildError,
    Term,
    Var,
    alpha_eq,
    apply_box_subst,
    sigma1,
    substitute,
    substitute_many,
)

GATE_NONE = ""
GATE_CON = "Con"
GATE_ONECON = "OneCon"


@dataclass(frozen=True)
class RuleInfo:
    name: str
    gate: str
    judgment: str  # what a step by the rule concludes: "Prv", "NotPrv" or "meta-bot"
    description: str


_RULES = {r.name: r for r in (
    RuleInfo("m-kernel", GATE_NONE, "Prv", "cite a checked derivation"),
    RuleInfo("m-mp", GATE_NONE, "Prv",
             "from Prv of an implication and Prv of its antecedent, Prv of the consequent"),
    RuleInfo("m-inst", GATE_NONE, "Prv",
             "specialize a schematic variable of a Prv judgment to a term"),
    RuleInfo("m-refl1", GATE_ONECON, "Prv",
             "from Prv of a quotation with schematic-numeral ranges, Prv of the quoted instance"),
    RuleInfo("m-witness", GATE_ONECON, "Prv",
             "from Prv of a bounded-below existential in the existential fragment, "
             "a fresh witness with Prv of its instance"),
    RuleInfo("m-con", GATE_CON, "meta-bot",
             "Prv of a formula and Prv of its negation is absurd"),
    RuleInfo("m-g2", GATE_CON, "meta-bot",
             "Prv of the consistency sentence is absurd"),
    RuleInfo("lemma", GATE_NONE, "meta-bot",
             "clash a Prv premise against a checked unprovability result"),
    RuleInfo("m-raa", GATE_NONE, "NotPrv",
             "close a refutation block that reached meta-bot as NotPrv of its supposition"),
)}


def list_rules() -> list[RuleInfo]:
    return list(_RULES.values())


class ResolveError(KeyError):
    pass


class Resolver(Protocol):
    """Looks up already-checked scripts that a meta script cites."""

    def kernel_conclusion(self, name: str) -> Formula: ...

    def meta_result(self, name: str) -> tuple[frozenset[str], str, Formula]: ...


def _covers(have: frozenset[str], need: str) -> bool:
    if need == GATE_ONECON:
        return GATE_ONECON in have
    return GATE_CON in have or GATE_ONECON in have


class _MetaChecker(BlockChecker):
    block = "refutation block"

    def __init__(self, script: MetaScript, signature: Signature, resolver: Resolver):
        super().__init__(script, signature)
        self.goal = script.conclusion_judgment
        self.resolver = resolver
        self.fresh: dict[str, tuple[int, ...]] = {}  # witness name -> block path

    def declare(self) -> None:
        super().declare()
        for v in self.script.eigens:
            try:
                Var(v)
            except SyntaxBuildError as e:
                raise _Fail(f"eigen {v}: {e}") from None

    # -- access and well-formedness

    def cited(self, ref: int) -> Formula:
        """The formula of the cited step, which must be a Prv judgment."""
        rec = self.get(ref)
        if rec.judgment != "Prv":
            raise _Fail(f"step {ref} is not a Prv judgment")
        return rec.formula

    def usable_vars(self) -> set[str]:
        return set(self.script.eigens) | {y for y, path in self.fresh.items() if self.visible(path)}

    def wf(self, f: Formula) -> None:
        loose = set(f.free) - self.usable_vars()
        if loose:
            raise _Fail(
                f"free variables {sorted(loose)} are neither declared eigenvariables "
                "nor witnesses usable here"
            )
        problem = arity_violation(f, self.sig)
        if problem:
            raise _Fail(problem)

    def schematic(self, entries: tuple[tuple[str, Term], ...], message: str) -> None:
        """Fail with message, formatted with the entry's variable, at the first
        entry whose term uses a name that is not usable here."""
        usable = self.usable_vars()
        for v, t in entries:
            if not usable.issuperset(t.free):
                raise _Fail(message.format(v))

    # -- rules

    def rule_m_kernel(self, step: MetaStep) -> None:
        try:
            concl = self.resolver.kernel_conclusion(step.name)
        except ResolveError as e:
            raise _Fail(str(e.args[0]) if e.args else f"cannot resolve {step.name}") from None
        if not alpha_eq(step.formula, concl):
            raise _Fail(f"stated formula differs from the conclusion of {step.name}")

    def rule_m_mp(self, step: MetaStep) -> None:
        fi, fj = self._two(step)
        if not isinstance(fi, Imp):
            raise _Fail("first cited judgment is not about an implication")
        if not alpha_eq(fj, fi.left):
            raise _Fail("second cited judgment does not match the antecedent")
        if not alpha_eq(step.formula, fi.right):
            raise _Fail("stated formula does not match the consequent")

    def rule_m_inst(self, step: MetaStep) -> None:
        if len(step.refs) != 1 or not step.bindings:
            raise _Fail("m-inst cites one step and at least one binding")
        fi = self.cited(step.refs[0])
        self.schematic(step.bindings, "binding for {} uses variables that are not schematic here")
        want = substitute_many(fi, dict(step.bindings))
        if not alpha_eq(step.formula, want):
            raise _Fail("stated formula is not the cited judgment under the given bindings")

    def rule_m_refl1(self, step: MetaStep) -> None:
        fi = self._one(step)
        if not isinstance(fi, Box):
            raise _Fail("cited judgment is not a quotation")
        self.schematic(fi.subst, "quotation range for {} is not built from schematic numerals")
        want = apply_box_subst(fi)
        if not alpha_eq(step.formula, want):
            raise _Fail("stated formula is not the quoted instance")

    def rule_m_witness(self, step: MetaStep) -> None:
        fi = self._one(step)
        if not isinstance(fi, Exists):
            raise _Fail("cited judgment is not existential")
        body = fi.body
        if not (isinstance(body, And) and isinstance(body.left, Lt)
                and body.left.right == Var(fi.var)
                and fi.var not in body.left.left.free):
            raise _Fail("existential body must be a conjunction starting with a lower bound "
                        "on the quantified variable")
        if not sigma1(body):
            raise _Fail("existential body is outside the existential fragment")
        y = step.var
        if y in self.script.eigens or y in self.fresh:
            raise _Fail(f"witness name {y} is already in use")
        want = substitute(body.right, fi.var, Var(y))
        if not alpha_eq(step.formula, want):
            raise _Fail(f"stated formula is not the body instance at the witness {y}")
        self.fresh[y] = tuple(self.open_blocks)

    def rule_m_con(self, step: MetaStep) -> None:
        fi, fj = self._two(step)
        clash = (isinstance(fj, Not) and alpha_eq(fj.sub, fi)) or (
            isinstance(fi, Not) and alpha_eq(fi.sub, fj)
        )
        if not clash:
            raise _Fail("cited judgments are not a formula and its negation")

    def rule_m_g2(self, step: MetaStep) -> None:
        fi = self._one(step)
        if not alpha_eq(fi, PredApp("Con")):
            raise _Fail("cited judgment is not about the consistency sentence")

    def rule_lemma(self, step: MetaStep) -> None:
        if len(step.refs) != 1:
            raise _Fail("lemma cites one Prv step")
        try:
            need, judgment, concl = self.resolver.meta_result(step.name)
        except ResolveError as e:
            raise _Fail(str(e.args[0]) if e.args else f"cannot resolve {step.name}") from None
        if judgment != "NotPrv":
            raise _Fail(f"{step.name} does not conclude an unprovability claim")
        for a in need:
            if not _covers(self.script.assumptions, a):
                raise _Fail(f"{step.name} relies on the {a} assumption, which is not declared here")
        self.schematic(step.bindings, "binding for {} uses variables that are not schematic here")
        instance = substitute_many(concl, dict(step.bindings))
        psi = self.cited(step.refs[0])
        if not alpha_eq(psi, instance):
            raise _Fail(f"cited Prv does not match the instantiated conclusion of {step.name}")

    def rule_m_raa(self, step: MetaStep) -> None:
        if len(step.refs) != 1:
            raise _Fail("m-raa cites the suppose step it closes")
        target = step.refs[0]
        if self.close_block(target).judgment != "meta-bot":
            raise _Fail("the refutation block has not reached meta-bot")
        if not alpha_eq(step.formula, self.records[target].formula):
            raise _Fail("stated formula differs from the supposition being refuted")

    def _check_step(self, step: MetaStep) -> None:
        if step.kind == "suppose":
            self.wf(step.formula)
            self.open_blocks.append(step.index)
            self._record(step.index, step.formula, "Prv")
            return
        handle = self.handler(step.rule)
        rule = _RULES[step.rule]
        claimed = step.judgment if step.kind == "judge" else "meta-bot"
        if claimed != rule.judgment:
            raise _Fail(f"rule {step.rule} does not conclude {claimed}; it concludes {rule.judgment}")
        if rule.gate and not _covers(self.script.assumptions, rule.gate):
            have = ", ".join(sorted(self.script.assumptions)) or "none"
            raise _Fail(f"rule {step.rule} needs the {rule.gate} assumption (declared: {have})")
        handle(step)
        if step.kind == "judge":
            # after the handler: m-witness registers its fresh name first, and the
            # stated formula must be schematic in what is usable from here on
            self.wf(step.formula)
        self._record(step.index, step.formula, claimed)


def check_meta_script(script: MetaScript, signature: Signature, resolver: Resolver) -> CheckReport:
    return _MetaChecker(script, signature, resolver).run()
