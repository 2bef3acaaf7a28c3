"""Plain-text proof script format.

Two script kinds share one surface: `theorem` files carry object-level
derivations, `meta-theorem` files carry provability/unprovability reasoning
about them.  Lines are one of

    theorem NAME "headline"            (or meta-theorem)
    def Name(p, q) := BODY             fixed-point definition, `self` recurs
    assume-meta Con, OneCon            meta only: reflection strength used
    eigen k, a, b                      meta only: schematic number variables
    N. FORMULA by RULE ARGS
    N. assume FORMULA                  kernel: open a subproof
    N. qed-block M                     kernel: close the subproof opened at M
    N. suppose Prv: FORMULA            meta: open a refutation block
    N. meta-bot by RULE ARGS           meta: the block reached absurdity
    N. Prv: FORMULA by RULE ARGS       meta judgment forms
    conclusion FORMULA                 (meta: conclusion Prv:/NotPrv: FORMULA)

`#` starts a comment line.  Step numbers are ASCII digits.  Parsing is deliberately permissive about step
numbers and rule arity so that a damaged script still parses and the checker
can point at the offending step.  Free variables need no declaration in
kernel scripts: they are schematic.

Each script kind has one table of its rules' argument shapes
(`KERNEL_RULES`, `META_RULES`); its checker has a `rule_<name>` method for
every entry.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import ClassVar

from .parser import ParseError, parse_formula, parse_term
from .syntax import Formula, Term


class ScriptError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Definition:
    """A `def` line.  The checkers diagonalize it on its first install and
    keep the template they built, with `self` renamed to name, in
    ``template``: later checks install that in their signature and skip the
    diagonal construction.  ``template`` is not a field, so it takes no part in
    equality, hashing or the repr, and it is set only once the construction
    has passed every check."""

    name: str
    params: tuple[str, ...]
    body: Formula  # self-references spelled with the `self` predicate
    template: ClassVar[Formula | None] = None


@dataclass(frozen=True)
class KernelStep:
    index: int
    kind: str  # "derive" | "assume" | "qed"
    formula: Formula | None = None
    rule: str | None = None
    refs: tuple[int, ...] = ()
    term: Term | None = None
    var: str | None = None
    name: str | None = None
    target: int | None = None


@dataclass(frozen=True)
class KernelScript:
    name: str
    doc: str
    defs: tuple[Definition, ...]
    steps: tuple[KernelStep, ...]
    conclusion: Formula

    kind = "kernel"


@dataclass(frozen=True)
class MetaStep:
    index: int
    kind: str  # "suppose" | "judge" | "bot"
    judgment: str | None = None  # "Prv" | "NotPrv"
    formula: Formula | None = None
    rule: str | None = None
    refs: tuple[int, ...] = ()
    name: str | None = None
    bindings: tuple[tuple[str, Term], ...] = ()
    var: str | None = None


@dataclass(frozen=True)
class MetaScript:
    name: str
    doc: str
    assumptions: frozenset[str]  # subset of {"Con", "OneCon"}
    eigens: tuple[str, ...]
    defs: tuple[Definition, ...]
    steps: tuple[MetaStep, ...]
    conclusion_judgment: str
    conclusion: Formula

    kind = "meta"


_IDENT = r"[A-Za-z][A-Za-z0-9_]*"

# argument shape, written as its usage -> pattern whose named groups fill the
# step fields of the same name
_SHAPES = {
    "": r"",
    "N, ...": r"(?P<refs>.*)",
    "NAME": rf"(?P<name>{_IDENT})",
    "N with TERM": r"(?P<refs>[0-9]+)\s+with\s+(?P<term>.+)",
    "N, M with y": rf"(?P<refs>[0-9]+\s*,\s*[0-9]+)\s+with\s+(?P<var>{_IDENT})",
    "N with y": rf"(?P<refs>[0-9]+)\s+with\s+(?P<var>{_IDENT})",
    "N with v := t": r"(?P<refs>[0-9]+)\s+with\s+(?P<bindings>.+)",
    "NAME, N [with v := t, ...]":
        rf"(?P<name>{_IDENT})\s*,\s*(?P<refs>[0-9]+)(?:\s+with\s+(?P<bindings>.+))?",
}

# rule name -> argument shape, one table per script kind
KERNEL_RULES = {
    **dict.fromkeys(["taut", "mp", "andI", "andE1", "andE2", "orI1", "orI2", "orE",
                     "negI", "negE", "allI", "gd1", "reiterate"], "N, ..."),
    **dict.fromkeys(["numeval", "gd2", "gd3", "lob", "con-def"], ""),
    **dict.fromkeys(["arith", "unfold", "fold"], "NAME"),
    **dict.fromkeys(["allE", "exI"], "N with TERM"),
    "exE": "N, M with y",
}
META_RULES = {
    "m-kernel": "NAME",
    **dict.fromkeys(["m-mp", "m-con", "m-refl1", "m-g2", "m-raa"], "N, ..."),
    "m-inst": "N with v := t",
    "m-witness": "N with y",
    "lemma": "NAME, N [with v := t, ...]",
}


def _step_number(digits: str, line: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int-from-str digit limit
        limit = sys.get_int_max_str_digits()
        raise ScriptError(f"step number longer than {limit} digits", line) from None


def _parse_indices(text: str, line: int) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not (piece.isascii() and piece.isdigit()):
            raise ScriptError(f"expected a step number, found {piece!r}", line)
        out.append(_step_number(piece, line))
    return tuple(out)


def _formula(text: str, line: int) -> Formula:
    try:
        return parse_formula(text)
    except ParseError as e:
        raise ScriptError(str(e), line) from None


def _term(text: str, line: int) -> Term:
    try:
        return parse_term(text)
    except ParseError as e:
        raise ScriptError(str(e), line) from None


def _bindings(text: str, line: int) -> tuple[tuple[str, Term], ...]:
    out = []
    for piece in text.split(","):
        m = re.match(rf"^\s*({_IDENT})\s*:=\s*(.+?)\s*$", piece)
        if not m:
            raise ScriptError(f"expected `v := t`, found {piece.strip()!r}", line)
        out.append((m.group(1), _term(m.group(2), line)))
    return tuple(out)


_ARG_PARSERS = {"refs": _parse_indices, "term": _term, "bindings": _bindings}


def _split_justification(rest: str, line: int) -> tuple[str, str]:
    cut = rest.rfind(" by ")
    if cut < 0:
        raise ScriptError("step is missing a ` by RULE` justification", line)
    return rest[:cut].strip(), rest[cut + 4 :].strip()


def _parse_rule(justif: str, rules: dict[str, str], noun: str, line: int) -> dict:
    """The rule and argument fields of a `RULE ARGS` justification."""
    parts = justif.split(None, 1)
    rule = parts[0]
    args = parts[1].strip() if len(parts) > 1 else ""
    usage = rules.get(rule)
    if usage is None:
        raise ScriptError(f"unknown {noun} {rule!r}", line)
    m = re.fullmatch(_SHAPES[usage], args)
    if not m:
        written = f"{rule} {usage}".rstrip()
        raise ScriptError(f"rule {rule} is used as `{written}`", line)
    fields = {"rule": rule}
    for key, text in m.groupdict().items():
        if text is not None:
            fields[key] = _ARG_PARSERS[key](text, line) if key in _ARG_PARSERS else text
    return fields


def _iter_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_names(argtext: str, line: int) -> tuple[str, ...]:
    names = tuple(p.strip() for p in argtext.split(","))
    for n in names:
        if not re.fullmatch(_IDENT, n):
            raise ScriptError(f"bad name {n!r}", line)
    return names


def _parse_def(line_text: str, lineno: int) -> Definition:
    m = re.match(rf"^def\s+({_IDENT})\s*\(([^)]*)\)\s*:=\s*(.+)$", line_text)
    if not m:
        raise ScriptError("definition is written `def Name(p, q) := BODY`", lineno)
    params = tuple(p.strip() for p in m.group(2).split(",") if p.strip())
    return Definition(m.group(1), params, _formula(m.group(3), lineno))


def parse_definition(text: str) -> Definition:
    """One `Name(p, q) := BODY` clause; a leading `def` keyword is optional."""
    t = text.strip()
    if not t.startswith("def "):
        t = "def " + t
    return _parse_def(t, 1)


def _parse_lines(text: str, header: str, step, conclusion, other=None):
    """The line loop both script kinds share: header, `def`, numbered steps
    and the conclusion.  `step(index, rest, lineno)` parses the text after
    `N.`, `conclusion(text, lineno)` the text after `conclusion`, and
    `other(line, lineno)` consumes a kind-specific line, returning False for
    one it does not recognize."""
    name = doc = concl = None
    defs: list[Definition] = []
    steps: list = []
    for lineno, line in _iter_lines(text):
        if concl is not None:
            raise ScriptError("content after the conclusion line", lineno)
        m = re.match(rf'^{header}\s+({_IDENT})\s+"(.*)"\s*$', line)
        if m:
            if name is not None:
                raise ScriptError(f"duplicate {header} header", lineno)
            name, doc = m.group(1), m.group(2)
        elif name is None:
            raise ScriptError(f"expected a `{header} NAME \"...\"` header first", lineno)
        elif line.startswith("def "):
            defs.append(_parse_def(line, lineno))
        elif line.startswith("conclusion "):
            concl = conclusion(line[len("conclusion ") :].strip(), lineno)
        elif m := re.match(r"^([0-9]+)\.\s+(.*)$", line):
            steps.append(step(_step_number(m.group(1), lineno), m.group(2), lineno))
        elif not (other and other(line, lineno)):
            raise ScriptError(f"unrecognized line {line!r}", lineno)
    if name is None:
        raise ScriptError("empty script", 1)
    if concl is None:
        raise ScriptError("script has no conclusion line", 1)
    return name, doc, tuple(defs), tuple(steps), concl


def _kernel_step(index: int, rest: str, lineno: int) -> KernelStep:
    if rest.startswith("assume "):
        return KernelStep(index, "assume", formula=_formula(rest[7:], lineno))
    qm = re.match(r"^qed-block\s+([0-9]+)\s*$", rest)
    if qm:
        return KernelStep(index, "qed", target=_step_number(qm.group(1), lineno))
    ftext, justif = _split_justification(rest, lineno)
    fields = _parse_rule(justif, KERNEL_RULES, "rule", lineno)
    return KernelStep(index, "derive", formula=_formula(ftext, lineno), **fields)


def parse_kernel_script(text: str) -> KernelScript:
    return KernelScript(*_parse_lines(text, "theorem", _kernel_step, _formula))


def _meta_step(index: int, rest: str, lineno: int) -> MetaStep:
    sm = re.match(r"^suppose\s+Prv:\s*(.+)$", rest)
    if sm:
        return MetaStep(index, "suppose", judgment="Prv", formula=_formula(sm.group(1), lineno))
    bm = re.match(r"^meta-bot\s+by\s+(.+)$", rest)
    if bm:
        return MetaStep(index, "bot", **_parse_rule(bm.group(1), META_RULES, "meta rule", lineno))
    jm = re.match(r"^(Prv|NotPrv):\s*(.+)$", rest)
    if jm:
        ftext, justif = _split_justification(jm.group(2), lineno)
        fields = _parse_rule(justif, META_RULES, "meta rule", lineno)
        return MetaStep(index, "judge", judgment=jm.group(1),
                        formula=_formula(ftext, lineno), **fields)
    raise ScriptError(f"unrecognized step form {rest!r}", lineno)


def _meta_conclusion(text: str, lineno: int) -> tuple[str, Formula]:
    m = re.match(r"^(Prv|NotPrv):\s*(.+)$", text)
    if not m:
        raise ScriptError("conclusion is written `conclusion Prv: F` or `conclusion NotPrv: F`", lineno)
    return m.group(1), _formula(m.group(2), lineno)


def parse_meta_script(text: str) -> MetaScript:
    assumptions: set[str] = set()
    eigens: list[str] = []

    def other(line: str, lineno: int) -> bool:
        if line.startswith("assume-meta "):
            for a in _parse_names(line[len("assume-meta ") :], lineno):
                if a not in ("Con", "OneCon"):
                    raise ScriptError(f"unknown meta assumption {a!r}", lineno)
                assumptions.add(a)
        elif line.startswith("eigen "):
            eigens.extend(_parse_names(line[6:], lineno))
        else:
            return False
        return True

    name, doc, defs, steps, (judgment, concl) = _parse_lines(
        text, "meta-theorem", _meta_step, _meta_conclusion, other)
    return MetaScript(name, doc, frozenset(assumptions), tuple(eigens), defs, steps,
                      judgment, concl)


def parse_script(text: str) -> KernelScript | MetaScript:
    """Dispatch on the header keyword of the first contentful line."""
    for _, line in _iter_lines(text):
        if line.startswith("meta-theorem"):
            return parse_meta_script(text)
        if line.startswith("theorem"):
            return parse_kernel_script(text)
        break
    raise ScriptError("script must open with `theorem` or `meta-theorem`", 1)


def load_axioms(text: str) -> dict[str, Formula]:
    """`name: formula` lines; free variables are schematic."""
    out: dict[str, Formula] = {}
    for lineno, line in _iter_lines(text):
        m = re.match(rf"^({_IDENT})\s*:\s*(.+)$", line)
        if not m:
            raise ScriptError("axiom lines read `name: FORMULA`", lineno)
        if m.group(1) in out:
            raise ScriptError(f"duplicate axiom name {m.group(1)!r}", lineno)
        out[m.group(1)] = _formula(m.group(2), lineno)
    return out
