"""Bundled derivation corpus: loading, instance generation, batch checking.

The package ships its derivations as plain-text scripts under ``corpus/``.
A :class:`Registry` parses them, checks them on demand with result caching,
and doubles as the resolver that meta scripts use to cite kernel conclusions
and earlier unprovability results.  On top of the bundled files it generates
one monotonicity instance script per sentence family and numeral pair below
a small bound, exercising the same step template at concrete numerals.

A generated script is not parsed from its text.  The Registry parses one
template per family, written with the variables ``lo`` and ``hi`` where the
numerals go, and builds each instance by substituting the numerals into the
template's step formulas and conclusion.  The result equals the parse of the
instance's rendered text (``Entry.text``, ``mono_instance``), so checking
that text gives the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

from .kernel import CheckReport, check_kernel_script
from .meta import ResolveError, check_meta_script
from .scripts import Definition, KernelScript, MetaScript, load_axioms, parse_script
from .syntax import Formula, Num, base_signature, substitute_many

# bundled scripts in citation order: support lemmas first, then the
# headline derivations, then the meta-level results
KERNEL_ORDER = [
    "lem_lt_plus_one",
    "lem_mono_yj",
    "lem_yj_box_step",
    "lem_box_explosion",
    "lem_formalized_g2",
    "lem_yj_con",
    "lem_yg_con",
    "lem_yg_exists",
    "rem1_glt_via_diagonal",
    "rem2_mono",
    "thm1_3_YH",
    "thm2",
    "thm3",
]
META_ORDER = ["thm1_1a", "thm1_1b", "thm1_2a", "thm1_2b"]

MONO_BOUND = 5
_FAMILIES = {
    "YJ": ("Prov[ ~self(x) ; x := x ]", "Prov[ ~YJ(x) ; x := {r} ]"),
    "YG": ("~Prov[ self(x) ; x := x ]", "~Prov[ YG(x) ; x := {r} ]"),
    "YH": ("Prov[ self(x) ; x := x ]", "Prov[ YH(x) ; x := {r} ]"),
}


class CorpusError(Exception):
    pass


_MONO_NAME = "rem2_mono_{f}_{lo}_{hi}"
_MONO_DOC = "Monotonicity instance for {f} at the numerals {lo} and {hi}"
# the variables a family's parsed template holds in place of the two numerals
_LO, _HI = "lo", "hi"


def _check_mono(family: str, lo: int, hi: int) -> None:
    if family not in _FAMILIES:
        raise CorpusError(f"no sentence family named {family}")
    if not 0 <= lo < hi:
        raise CorpusError(f"need 0 <= lo < hi, got {lo}, {hi}")


def mono_instance(family: str, lo: int, hi: int) -> str:
    """Monotonicity instance at concrete numerals: family(lo) -> family(hi)."""
    _check_mono(family, lo, hi)
    return _mono_text(family, lo, hi)


def _mono_text(f: str, lo: int | str, hi: int | str) -> str:
    """The instance script of family f at lo and hi, numerals or variables."""
    self_body, judged = _FAMILIES[f]
    at = lambda r: judged.format(r=r)
    return f"""theorem {_MONO_NAME.format(f=f, lo=lo, hi=hi)} "{_MONO_DOC.format(f=f, lo=lo, hi=hi)}"
def {f}(k) := all x. (k < x) -> {self_body}

1. {lo} < {hi} by numeval
2. assume {f}({lo})
3. {f}({lo}) -> (all x. ({lo} < x) -> {at('x')}) by unfold {f}
4. all x. ({lo} < x) -> {at('x')} by mp 3, 2
5. assume {hi} < u
6. {lo} < {hi} -> (({hi} < u) -> {lo} < u) by arith lt_trans
7. ({hi} < u) -> {lo} < u by mp 6, 1
8. {lo} < u by mp 7, 5
9. ({lo} < u) -> {at('u')} by allE 4 with u
10. {at('u')} by mp 9, 8
11. qed-block 5
12. all u. ({hi} < u) -> {at('u')} by allI 11
13. (all u. ({hi} < u) -> {at('u')}) -> {f}({hi}) by fold {f}
14. {f}({hi}) by mp 13, 12
15. qed-block 2
conclusion {f}({lo}) -> {f}({hi})
"""


def mono_instance_names() -> list[str]:
    return [
        _MONO_NAME.format(f=fam, lo=lo, hi=hi)
        for fam in _FAMILIES
        for lo in range(MONO_BOUND)
        for hi in range(lo + 1, MONO_BOUND + 1)
    ]


@dataclass(frozen=True)
class Entry:
    name: str
    kind: str    # "kernel" | "meta"
    origin: str  # "bundled" | "generated"
    text: str


class Registry:
    """All corpus scripts plus cached check results; resolves meta citations."""

    def __init__(self) -> None:
        self._entries: dict[str, Entry] = {}
        self._scripts: dict[str, KernelScript | MetaScript] = {}
        self._reports: dict[str, CheckReport] = {}
        self._checking: set[str] = set()
        self._mono_templates: dict[str, KernelScript] = {}  # family -> parsed template
        root = resources.files(__package__) / "corpus"
        self.axioms = load_axioms((root / "arith.axioms").read_text())
        listed = {p.name: p for p in root.iterdir() if p.name.endswith((".prf", ".mprf"))}
        ordered = [f"{n}.prf" for n in KERNEL_ORDER] + [f"{n}.mprf" for n in META_ORDER]
        for fname in ordered:
            if fname not in listed:
                raise CorpusError(f"bundled corpus is missing {fname}")
        for fname in ordered + sorted(set(listed) - set(ordered)):
            stem = fname.rsplit(".", 1)[0]
            kind = "kernel" if fname.endswith(".prf") else "meta"
            self._add(Entry(stem, kind, "bundled", listed[fname].read_text()))
        for name in mono_instance_names():
            _, fam, lo, hi = name.rsplit("_", 3)
            self._add(Entry(name, "kernel", "generated", mono_instance(fam, int(lo), int(hi))))

    def _add(self, entry: Entry) -> None:
        if entry.name in self._entries:
            raise CorpusError(f"duplicate corpus name {entry.name}")
        self._entries[entry.name] = entry

    def names(self, kind: str | None = None) -> list[str]:
        return [n for n, e in self._entries.items() if kind is None or e.kind == kind]

    def entry(self, name: str) -> Entry:
        e = self._entries.get(name)
        if e is None:
            raise CorpusError(f"no corpus script named {name}")
        return e

    def script(self, name: str) -> KernelScript | MetaScript:
        if name not in self._scripts:
            e = self.entry(name)
            if e.origin == "generated":
                _, fam, lo, hi = name.rsplit("_", 3)
                script = self.mono_script(fam, int(lo), int(hi))
            else:
                script = parse_script(e.text)
            if script.name != name:
                raise CorpusError(f"{name}: declares the name {script.name}")
            self._scripts[name] = script
        return self._scripts[name]

    def mono_script(self, family: str, lo: int, hi: int) -> KernelScript:
        """The script ``mono_instance(family, lo, hi)`` parses to, built from
        the family's template, which this Registry parses on first use."""
        _check_mono(family, lo, hi)
        template = self._mono_templates.get(family)
        if template is None:
            template = self._mono_templates[family] = parse_script(_mono_text(family, _LO, _HI))
        sigma = {_LO: Num(lo), _HI: Num(hi)}
        steps = tuple(
            s if s.formula is None else replace(s, formula=substitute_many(s.formula, sigma))
            for s in template.steps
        )
        return replace(template, name=_MONO_NAME.format(f=family, lo=lo, hi=hi),
                       doc=_MONO_DOC.format(f=family, lo=lo, hi=hi), steps=steps,
                       conclusion=substitute_many(template.conclusion, sigma))

    def check(self, name: str) -> CheckReport:
        if name in self._reports:
            return self._reports[name]
        if name in self._checking:
            raise ResolveError(f"circular citation through {name}")
        self._checking.add(name)
        try:
            script = self.script(name)
            if script.kind == "kernel":
                rep = check_kernel_script(script, base_signature(), self.axioms)
            else:
                rep = check_meta_script(script, base_signature(), self)
        finally:
            self._checking.discard(name)
        self._reports[name] = rep
        return rep

    def check_all(self) -> list[tuple[Entry, CheckReport]]:
        return [(self._entries[n], self.check(n)) for n in self._entries]

    # -- resolver protocol for meta scripts

    def kernel_conclusion(self, name: str) -> Formula:
        e = self._entries.get(name)
        if e is None or e.kind != "kernel":
            raise ResolveError(f"no kernel derivation named {name}")
        rep = self.check(name)
        if not rep.ok:
            raise ResolveError(f"cited derivation {name} does not check")
        return rep.conclusion

    def meta_result(self, name: str) -> tuple[frozenset[str], str, Formula]:
        e = self._entries.get(name)
        if e is None or e.kind != "meta":
            raise ResolveError(f"no meta result named {name}")
        rep = self.check(name)
        if not rep.ok:
            raise ResolveError(f"cited meta result {name} does not check")
        script = self.script(name)
        assert isinstance(script, MetaScript)
        return script.assumptions, script.conclusion_judgment, script.conclusion


def lob_step_formulas(registry: Registry) -> list[tuple[str, Formula]]:
    """Every formula justified by the diagonal-collapse rule across the corpus."""
    out = []
    for name in registry.names("kernel"):
        script = registry.script(name)
        assert isinstance(script, KernelScript)
        for step in script.steps:
            if step.rule == "lob":
                out.append((f"{name}:{step.index}", step.formula))
    return out


def definitions_used(registry: Registry) -> list[Definition]:
    """One representative of each distinct definition appearing in the corpus."""
    seen: dict[str, Definition] = {}
    for name in registry.names():
        for d in registry.script(name).defs:
            seen.setdefault(d.name, d)
    return list(seen.values())


def golden_codes(registry: Registry) -> list[tuple[str, Formula]]:
    """The formulas whose numeric codes are pinned in ``corpus/codes.txt``:
    every bundled kernel conclusion and each definition's fixed-point
    biconditional."""
    from .coding import fix_intro

    out = []
    for name in KERNEL_ORDER:
        rep = registry.check(name)
        if not rep.ok:
            raise CorpusError(f"{name} does not check; no code to pin")
        out.append((f"concl:{name}", rep.conclusion))
    for d in sorted(definitions_used(registry), key=lambda d: d.name):
        sig = base_signature()
        res = fix_intro(sig, d.name, d.params, d.body)
        out.append((f"bicond:{d.name}", res.biconditional))
    return out
