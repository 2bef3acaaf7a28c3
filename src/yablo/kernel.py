"""Checker for object-level derivations.

Steps live in a block discipline: `assume` opens a subproof, `qed-block`
discharges it into an implication, and a step may cite an earlier step only if
that step's block is still open around the citing one.  Every rule compares
formulas up to renaming of bound variables, which includes the dotted
variables of a quotation's substitution.

The provability-specific rules are: introduction of a quotation for an
already-derived line (gd1, top level only), distribution of quotation over
implication (gd2), quotation of any formula in the existential fragment (gd3),
the quoted-soundness-to-truth collapse (lob), the definitional unfolding and
folding implications, and the consistency sentence's definition (con-def).

The block discipline, citation and the script driver live in
:class:`BlockChecker`, which the meta checker shares; :class:`_KernelChecker`
adds only the step kinds and one ``rule_<name>`` method per rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coding import DiagonalError, fix_intro
from .scripts import KernelScript, KernelStep
from .syntax import (
    And,
    Box,
    Eq,
    Exists,
    Falsum,
    ForAll,
    Formula,
    Imp,
    Lt,
    Not,
    Num,
    Or,
    Plus,
    PredApp,
    Signature,
    Succ,
    SyntaxBuildError,
    Term,
    Times,
    Var,
    alpha_eq,
    canonical,
    decimal,
    identity_box,
    iff,
    print_formula,
    print_term,
    sigma1,
    substitute,
)

MAX_TAUT_ATOMS = 16


@dataclass(frozen=True)
class Violation:
    step: int | None
    message: str

    def __str__(self) -> str:
        where = f"step {self.step}" if self.step is not None else "script"
        return f"{where}: {self.message}"


@dataclass
class CheckReport:
    name: str
    ok: bool
    violations: list[Violation] = field(default_factory=list)
    conclusion: Formula | None = None
    steps_checked: int = 0

    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None


class _Fail(Exception):
    """A step breaks a rule; the message says how."""


@dataclass(frozen=True)
class _Record:
    formula: Formula | None  # None for meta-bot
    path: tuple[int, ...]  # the blocks open around the step
    judgment: str = ""  # meta only: "Prv", "NotPrv" or "meta-bot"

    def __str__(self) -> str:
        if self.formula is None:
            return self.judgment
        text = print_formula(self.formula)
        return f"{self.judgment}: {text}" if self.judgment else text


# ---------------------------------------------------------------- helpers


def eval_closed_term(t: Term) -> int | None:
    """Value of a variable-free term, or None if a variable occurs."""
    match t:
        case Num(n):
            return n
        case Succ(a):
            v = eval_closed_term(a)
            return None if v is None else v + 1
        case Plus(l, r):
            lv, rv = eval_closed_term(l), eval_closed_term(r)
            return None if lv is None or rv is None else lv + rv
        case Times(l, r):
            lv, rv = eval_closed_term(l), eval_closed_term(r)
            return None if lv is None or rv is None else lv * rv
        case Var(_):
            return None
    raise TypeError(f"not a term: {t!r}")


def _collect_atoms(f: Formula, order: list, index: dict) -> None:
    match f:
        case Falsum():
            return
        case Not(s):
            _collect_atoms(s, order, index)
        case Imp(l, r) | And(l, r) | Or(l, r):
            _collect_atoms(l, order, index)
            _collect_atoms(r, order, index)
        case _:
            key = canonical(f)
            if key not in index:
                index[key] = len(order)
                order.append(f)


def taut_consequence(premises: list[Formula], goal: Formula) -> tuple[bool, dict | None]:
    """Truth-table check that goal follows from premises treating every
    non-connective subformula as an opaque atom.  Returns (True, None) or
    (False, countervaluation keyed by printed atom).

    The table is evaluated bit-parallel: row r assigns atom i the truth value
    (r >> i) & 1, atom i's column is the integer whose bit r is that value,
    and the formula is evaluated once on whole columns.  The countervaluation
    is the lowest falsifying row."""
    form: Formula = goal
    for p in reversed(premises):
        form = Imp(p, form)
    order: list[Formula] = []
    index: dict = {}
    _collect_atoms(form, order, index)
    if len(order) > MAX_TAUT_ATOMS:
        raise _Fail(f"too many distinct atoms for a truth-table check ({len(order)})")
    rows = 1 << len(order)
    full = (1 << rows) - 1
    columns = []
    for i in range(len(order)):
        width = 2 << i
        col = ((1 << (1 << i)) - 1) << (1 << i)  # 2**i false rows, then 2**i true rows
        while width < rows:
            col |= col << width
            width *= 2
        columns.append(col)

    def ev(g: Formula) -> int:
        match g:
            case Falsum():
                return 0
            case Not(s):
                return ev(s) ^ full
            case Imp(l, r):
                return (ev(l) ^ full) | ev(r)
            case And(l, r):
                return ev(l) & ev(r)
            case Or(l, r):
                return ev(l) | ev(r)
            case _:
                return columns[index[canonical(g)]]

    falsifying = ev(form) ^ full
    if not falsifying:
        return True, None
    row = (falsifying & -falsifying).bit_length() - 1
    return False, {print_formula(a): bool(row >> i & 1) for i, a in enumerate(order)}


def match_schema(pattern: Formula, instance: Formula) -> dict[str, Term] | None:
    """One-sided match of a quantifier-free axiom schema against a formula,
    assigning terms to the schema's free variables."""
    env: dict[str, Term] = {}

    def mt(p: Term, i: Term) -> bool:
        match p:
            case Var(name):
                if name in env:
                    return env[name] == i
                env[name] = i
                return True
            case Num(_):
                return p == i
            case Succ(a):
                if isinstance(i, Num):  # S(a) against the numeral k > 0 matches a := k - 1
                    return i.value > 0 and mt(a, Num(i.value - 1))
                return isinstance(i, Succ) and mt(a, i.arg)
            case Plus(l, r) | Times(l, r):
                return type(i) is type(p) and mt(l, i.left) and mt(r, i.right)
        return False

    def mf(p: Formula, i: Formula) -> bool:
        match p:
            case Falsum():
                return isinstance(i, Falsum)
            case Eq(l, r) | Lt(l, r):
                return type(i) is type(p) and mt(l, i.left) and mt(r, i.right)
            case Not(s):
                return isinstance(i, Not) and mf(s, i.sub)
            case Imp(l, r) | And(l, r) | Or(l, r):
                return type(i) is type(p) and mf(l, i.left) and mf(r, i.right)
        return False

    return env if mf(pattern, instance) else None


def _restrict(subst: tuple[tuple[str, Term], ...], names: tuple[str, ...]) -> tuple[tuple[str, Term], ...]:
    return tuple((v, t) for v, t in subst if v in names)


def arity_violation(f: Formula, sig: Signature) -> str | None:
    """First predicate-usage problem in f (quotation templates included)."""
    for name, n in f.uses:
        known = sig.arity(name)
        if known is None:
            return f"unknown predicate {name}"
        if known != n:
            return f"predicate {name} expects {known} arguments, got {n}"
    return None


# ---------------------------------------------------------------- block discipline


class BlockChecker:
    """Citation through open blocks and the script driver, shared by the
    kernel and meta checkers.

    A step opening a block pushes its own index on ``open_blocks`` before it
    is recorded, so every record carries the path of blocks open around it;
    a step may cite a record only while that record's path is still open.
    Subclasses check their step kinds in ``_check_step`` and give each rule
    a ``rule_<name>`` method (``-`` in a rule name spelled ``_``).
    """

    block = "assumption block"
    goal = ""  # the judgment the final record must carry; the kernel has none

    def __init__(self, script, signature: Signature):
        self.script = script
        self.sig = signature
        self.records: dict[int, _Record] = {}
        self.open_blocks: list[int] = []

    def visible(self, path: tuple[int, ...]) -> bool:
        """Whether every block on path is still open around the current step."""
        return path == tuple(self.open_blocks[: len(path)])

    def get(self, ref: int) -> _Record:
        rec = self.records.get(ref)
        if rec is None:
            raise _Fail(f"cites step {ref}, which does not exist")
        if not self.visible(rec.path):
            raise _Fail(f"cites step {ref}, which sits in a closed block")
        return rec

    def cited(self, ref: int) -> Formula:
        """The formula a rule may use from the step it cites."""
        return self.get(ref).formula

    def _one(self, step) -> Formula:
        if len(step.refs) != 1:
            raise _Fail(f"{step.rule} cites exactly one step")
        return self.cited(step.refs[0])

    def _two(self, step) -> tuple[Formula, Formula]:
        if len(step.refs) != 2:
            raise _Fail(f"{step.rule} cites exactly two steps")
        return self.cited(step.refs[0]), self.cited(step.refs[1])

    def _record(self, index: int, formula: Formula | None, judgment: str = "") -> None:
        self.records[index] = _Record(formula, tuple(self.open_blocks), judgment)

    def close_block(self, target: int) -> _Record:
        """Close the innermost block, which must be the one opened at target,
        and return the last record inside it."""
        if not self.open_blocks:
            raise _Fail(f"no {self.block} is open")
        if target != self.open_blocks[-1]:
            raise _Fail(f"block to close is the one opened at step {self.open_blocks[-1]}, not {target}")
        self.open_blocks.pop()
        # the latest record sits in this block: closing a nested block records in it
        return self.records[next(reversed(self.records))]

    def handler(self, rule: str):
        handle = getattr(self, "rule_" + rule.replace("-", "_"), None)
        if handle is None:
            raise _Fail(f"unknown rule {rule!r}")
        return handle

    def declare(self) -> None:
        """Install the script's definitions in the signature.  A definition is
        diagonalized by fix_intro on its first install only, and keeps the
        template that passed; later checks just define it in their own
        signature."""
        for d in self.script.defs:
            try:
                if d.template is None:
                    template = fix_intro(self.sig, d.name, d.params, d.body).template
                    object.__setattr__(d, "template", template)
                else:
                    self.sig.define(d.name, d.params, d.template)
            except (SyntaxBuildError, DiagonalError) as e:
                raise _Fail(f"definition {d.name}: {e}") from None

    def run(self) -> CheckReport:
        report = CheckReport(self.script.name, ok=False)
        violation = self._first_violation(report)
        if violation is None:
            report.ok = True
            report.conclusion = self.script.conclusion
        else:
            report.violations.append(violation)
        return report

    def _first_violation(self, report: CheckReport) -> Violation | None:
        """Check the script, counting checked steps in report."""
        try:
            self.declare()
        except _Fail as e:
            return Violation(None, str(e))
        last_index = 0
        for step in self.script.steps:
            try:
                if step.index <= last_index:
                    raise _Fail(f"step numbers must increase (previous was {last_index})")
                last_index = step.index
                self._check_step(step)
            except (_Fail, SyntaxBuildError) as e:
                return Violation(step.index, str(e))
            report.steps_checked += 1
        if self.open_blocks:
            return Violation(None, f"{self.block} opened at step {self.open_blocks[-1]} is never closed")
        if not self.records:
            return Violation(None, "script has no steps")
        index = next(reversed(self.records))
        last = self.records[index]
        if last.judgment != self.goal or not alpha_eq(last.formula, self.script.conclusion):
            return Violation(index, f"final step proves {last}, not the stated conclusion")
        return None


# ---------------------------------------------------------------- checker


class _KernelChecker(BlockChecker):
    def __init__(self, script: KernelScript, signature: Signature, axioms: dict[str, Formula]):
        super().__init__(script, signature)
        self.axioms = axioms

    def arity_check(self, f: Formula) -> None:
        problem = arity_violation(f, self.sig)
        if problem:
            raise _Fail(problem)

    def active_assumptions(self) -> list[Formula]:
        return [self.records[i].formula for i in self.open_blocks]

    def _check_step(self, step: KernelStep) -> None:
        if step.kind == "qed":
            last = self.close_block(step.target)
            self._record(step.index, Imp(self.records[step.target].formula, last.formula))
            return
        self.arity_check(step.formula)
        if step.kind == "assume":
            self.open_blocks.append(step.index)
        else:
            self.handler(step.rule)(step)
        self._record(step.index, step.formula)

    # -- rule handlers; each raises _Fail or returns None

    def rule_taut(self, step: KernelStep) -> None:
        premises = [self.get(r).formula for r in step.refs]
        ok, witness = taut_consequence(premises, step.formula)
        if not ok:
            raise _Fail(f"not a tautological consequence; countervaluation {witness}")

    def rule_mp(self, step: KernelStep) -> None:
        fi, fj = self._two(step)
        if not isinstance(fi, Imp):
            raise _Fail("first cited step is not an implication")
        if not alpha_eq(fj, fi.left):
            raise _Fail("second cited step does not match the antecedent")
        if not alpha_eq(step.formula, fi.right):
            raise _Fail("stated formula does not match the consequent")

    def rule_andI(self, step: KernelStep) -> None:
        fi, fj = self._two(step)
        if not isinstance(step.formula, And):
            raise _Fail("stated formula is not a conjunction")
        if not (alpha_eq(step.formula.left, fi) and alpha_eq(step.formula.right, fj)):
            raise _Fail("conjuncts do not match the cited steps")

    def rule_andE1(self, step: KernelStep) -> None:
        fi = self._one(step)
        if not isinstance(fi, And):
            raise _Fail("cited step is not a conjunction")
        if not alpha_eq(step.formula, fi.left):
            raise _Fail("stated formula is not the left conjunct")

    def rule_andE2(self, step: KernelStep) -> None:
        fi = self._one(step)
        if not isinstance(fi, And):
            raise _Fail("cited step is not a conjunction")
        if not alpha_eq(step.formula, fi.right):
            raise _Fail("stated formula is not the right conjunct")

    def rule_orI1(self, step: KernelStep) -> None:
        fi = self._one(step)
        if not isinstance(step.formula, Or) or not alpha_eq(step.formula.left, fi):
            raise _Fail("stated formula is not a disjunction whose left side is the cited step")

    def rule_orI2(self, step: KernelStep) -> None:
        fi = self._one(step)
        if not isinstance(step.formula, Or) or not alpha_eq(step.formula.right, fi):
            raise _Fail("stated formula is not a disjunction whose right side is the cited step")

    def rule_orE(self, step: KernelStep) -> None:
        if len(step.refs) != 3:
            raise _Fail("orE cites a disjunction and two implications")
        fi, fj, fk = (self.get(r).formula for r in step.refs)
        if not isinstance(fi, Or):
            raise _Fail("first cited step is not a disjunction")
        if not (isinstance(fj, Imp) and alpha_eq(fj.left, fi.left)):
            raise _Fail("second cited step does not discharge the left disjunct")
        if not (isinstance(fk, Imp) and alpha_eq(fk.left, fi.right)):
            raise _Fail("third cited step does not discharge the right disjunct")
        if not (alpha_eq(fj.right, step.formula) and alpha_eq(fk.right, step.formula)):
            raise _Fail("stated formula does not match both case conclusions")

    def rule_negI(self, step: KernelStep) -> None:
        fi = self._one(step)
        if not (isinstance(fi, Imp) and isinstance(fi.right, Falsum)):
            raise _Fail("cited step is not an implication into absurdity")
        if not alpha_eq(step.formula, Not(fi.left)):
            raise _Fail("stated formula is not the negation of the refuted formula")

    def rule_negE(self, step: KernelStep) -> None:
        fi, fj = self._two(step)
        if not isinstance(step.formula, Falsum):
            raise _Fail("stated formula must be absurdity")
        if not (isinstance(fj, Not) and alpha_eq(fj.sub, fi)):
            raise _Fail("second cited step is not the negation of the first")

    def rule_allI(self, step: KernelStep) -> None:
        fi = self._one(step)
        if not isinstance(step.formula, ForAll):
            raise _Fail("stated formula is not universally quantified")
        v, body = step.formula.var, step.formula.body
        if not alpha_eq(fi, body):
            raise _Fail("cited step does not match the quantified body")
        for a in self.active_assumptions():
            if v in a.free:
                raise _Fail(f"variable {v} is free in an active assumption")

    def rule_allE(self, step: KernelStep) -> None:
        fi = self._one(step)
        if not isinstance(fi, ForAll):
            raise _Fail("cited step is not universally quantified")
        want = substitute(fi.body, fi.var, step.term)
        if not alpha_eq(step.formula, want):
            raise _Fail(f"stated formula is not the instance at {print_term(step.term)}")

    def rule_exI(self, step: KernelStep) -> None:
        fi = self._one(step)
        if not isinstance(step.formula, Exists):
            raise _Fail("stated formula is not existentially quantified")
        want = substitute(step.formula.body, step.formula.var, step.term)
        if not alpha_eq(fi, want):
            raise _Fail(f"cited step is not the instance at {print_term(step.term)}")

    def rule_exE(self, step: KernelStep) -> None:
        fi, fj = self._two(step)
        if not isinstance(fi, Exists):
            raise _Fail("first cited step is not existentially quantified")
        if not isinstance(fj, Imp):
            raise _Fail("second cited step is not an implication")
        y = step.var
        want_left = substitute(fi.body, fi.var, Var(y))
        if not alpha_eq(fj.left, want_left):
            raise _Fail(f"implication antecedent is not the witness instance at {y}")
        if not alpha_eq(step.formula, fj.right):
            raise _Fail("stated formula does not match the implication consequent")
        if any(y in g.free for g in (fi, step.formula, *self.active_assumptions())):
            raise _Fail(f"witness variable {y} is not fresh here")

    def rule_arith(self, step: KernelStep) -> None:
        axiom = self.axioms.get(step.name)
        if axiom is None:
            raise _Fail(f"no axiom named {step.name}")
        if match_schema(axiom, step.formula) is None:
            raise _Fail(f"stated formula is not an instance of axiom {step.name}")

    def rule_numeval(self, step: KernelStep) -> None:
        f = step.formula
        negated = isinstance(f, Not)
        atom = f.sub if negated else f
        match atom:
            case Eq(l, r):
                op = int.__eq__
            case Lt(l, r):
                op = int.__lt__
            case _:
                raise _Fail("numeric evaluation applies to equalities and inequalities only")
        lv, rv = eval_closed_term(l), eval_closed_term(r)
        if lv is None or rv is None:
            raise _Fail("terms are not closed")
        if bool(op(lv, rv)) == negated:
            raise _Fail(f"evaluates to {decimal(lv)} and {decimal(rv)}; the stated formula is false")

    def rule_unfold(self, step: KernelStep) -> None:
        self._definitional(step, folded_on_left=True)

    def rule_fold(self, step: KernelStep) -> None:
        self._definitional(step, folded_on_left=False)

    def _definitional(self, step: KernelStep, folded_on_left: bool) -> None:
        d = self.sig.definition(step.name)
        if d is None:
            raise _Fail(f"predicate {step.name} has no definition")
        if not isinstance(step.formula, Imp):
            raise _Fail("stated formula is not an implication")
        app = step.formula.left if folded_on_left else step.formula.right
        body = step.formula.right if folded_on_left else step.formula.left
        if not (isinstance(app, PredApp) and app.name == step.name):
            side = "antecedent" if folded_on_left else "consequent"
            raise _Fail(f"{side} is not an application of {step.name}")
        want = self.sig.instantiate(step.name, app.args)
        if not alpha_eq(body, want):
            raise _Fail("other side does not match the instantiated definition body")

    def rule_gd1(self, step: KernelStep) -> None:
        if len(step.refs) != 1:
            raise _Fail("gd1 cites exactly one step")
        ref = step.refs[0]
        rec = self.records.get(ref)
        if rec is None:
            raise _Fail(f"cites step {ref}, which does not exist")
        if rec.path != ():
            raise _Fail("quotation introduction may only cite a step outside every assumption block")
        if not alpha_eq(step.formula, identity_box(rec.formula)):
            raise _Fail("stated formula is not the self-substituted quotation of the cited step")

    def rule_gd2(self, step: KernelStep) -> None:
        f = step.formula
        if not (isinstance(f, Imp) and isinstance(f.left, Box) and isinstance(f.right, Imp)
                and isinstance(f.right.left, Box) and isinstance(f.right.right, Box)):
            raise _Fail("shape must be: quoted implication implies (quoted antecedent implies quoted consequent)")
        outer = f.left
        if not isinstance(outer.template, Imp):
            raise _Fail("outermost quotation does not contain an implication")
        a, b = outer.template.left, outer.template.right
        want1 = Box(a, _restrict(outer.subst, a.free))
        want2 = Box(b, _restrict(outer.subst, b.free))
        if not alpha_eq(f.right.left, want1):
            raise _Fail("quoted antecedent does not carry the restricted substitution")
        if not alpha_eq(f.right.right, want2):
            raise _Fail("quoted consequent does not carry the restricted substitution")

    def rule_gd3(self, step: KernelStep) -> None:
        f = step.formula
        if not isinstance(f, Imp):
            raise _Fail("stated formula is not an implication")
        psi = f.left
        if not sigma1(psi):
            raise _Fail("antecedent is outside the existential fragment")
        if not alpha_eq(f.right, identity_box(psi)):
            raise _Fail("consequent is not the self-substituted quotation of the antecedent")

    def rule_lob(self, step: KernelStep) -> None:
        f = step.formula
        if not (isinstance(f, Imp) and isinstance(f.left, Box) and isinstance(f.right, Box)):
            raise _Fail("shape must be: quoted soundness-assertion implies quoted formula")
        target = f.right
        expected = Imp(
            Box(Imp(identity_box(target.template), target.template), target.subst),
            target,
        )
        if not alpha_eq(f, expected):
            raise _Fail("antecedent does not quote `if provable then true` for the consequent's formula")

    def rule_con_def(self, step: KernelStep) -> None:
        want = iff(PredApp("Con"), Not(Box(Falsum())))
        if not alpha_eq(step.formula, want):
            raise _Fail("stated formula is not the definitional equivalence for Con")

    def rule_reiterate(self, step: KernelStep) -> None:
        fi = self._one(step)
        if not alpha_eq(step.formula, fi):
            raise _Fail("stated formula differs from the cited step")


def check_kernel_script(script: KernelScript, signature: Signature,
                        axioms: dict[str, Formula]) -> CheckReport:
    return _KernelChecker(script, signature, axioms).run()


# ---------------------------------------------------------------- soundness-to-truth composer


def apply_glt(sub: KernelScript, signature: Signature,
              axioms: dict[str, Formula]) -> KernelScript:
    """Extend a derivation of `Prov[phi] -> phi` (self-substituted quotation)
    into a derivation of phi, via quotation introduction and the lob scheme.

    The input script must check, and its conclusion must have exactly that
    reflection shape; the returned script ends in phi and checks under the
    same signature and axioms.
    """
    report = check_kernel_script(sub, signature.copy(), axioms)
    if not report.ok:
        raise ValueError(f"input script does not check: {report.first()}")
    concl = sub.conclusion
    if not (isinstance(concl, Imp) and isinstance(concl.left, Box)):
        raise ValueError("conclusion is not of the form `Prov[...] -> ...`")
    phi = concl.right
    if not alpha_eq(concl.left, identity_box(phi)):
        raise ValueError("antecedent is not the self-substituted quotation of the consequent")
    m = sub.steps[-1].index
    n = m + 1
    boxed_concl = identity_box(concl)
    lob_step = Imp(boxed_concl, identity_box(phi))
    new_steps = (
        KernelStep(n, "derive", formula=boxed_concl, rule="gd1", refs=(m,)),
        KernelStep(n + 1, "derive", formula=lob_step, rule="lob"),
        KernelStep(n + 2, "derive", formula=identity_box(phi), rule="mp", refs=(n + 1, n)),
        KernelStep(n + 3, "derive", formula=phi, rule="mp", refs=(m, n + 2)),
    )
    return KernelScript(
        name=f"{sub.name}_collapsed",
        doc=sub.doc,
        defs=sub.defs,
        steps=sub.steps + new_steps,
        conclusion=phi,
    )
