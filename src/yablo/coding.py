"""Injective numeric codes for terms and formulas, plus the fixed-point
constructor built on top of them.

Every node becomes pair(tag, payload) under a shifted Cantor pairing whose
image excludes 0, so 0 is never a code.  A numeral's payload is its value.

decode is a left inverse of encode and validates as it goes: unknown tags,
malformed payloads, reserved binder names, and quotation substitutions that
miss or exceed the template's free variables all raise NotACode.  It is not
injective (a successor wrapped around a numeral decodes fine but re-encodes
as the next numeral), which is harmless for a left inverse.

A fixed point's trace of codes is a view: each read of DiagonalResult.trace
builds it afresh, and nothing caches it.  Codes double in bit length with each
quotation level, and checking a script needs only the biconditional, so
nothing on the checking path reads a trace, and `yablo code diag` prints only
the trace's labels (trace_labels), so it builds none either.  One helper,
_codes, builds every code of a trace but the biconditional's, for the trace and
for replay_trace alike.  replay_trace checks each of those codes against the
construction, once, and checks the biconditional as a formula, so it never
builds the biconditional's code, about 16 times the template's in bits.

Reading a code back is most of a replay's cost, and most of that is the
integer square root in unpair, which is subquadratic (see unpair).  decode
and sub_code read codes through a split function: unpair itself when called
on their own, and within replay_trace a memo of unpair that lives for that
call only, so replay unpairs each code once, and the template's decode-back
check and every probe share the work.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

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
    Succ,
    SyntaxBuildError,
    Term,
    Times,
    Var,
    _no_digit_limit,
    alpha_eq,
    decimal,
    iff,
    substitute_many,
)


class NotACode(ValueError):
    pass


code_to_str = decimal  # codes routinely outgrow the int-to-str digit limit


def _digits(n: int) -> str:
    """n in decimal for a message: past 50 digits, its first 40 and the count."""
    text = decimal(n)
    return text if len(text) <= 50 else f"{text[:40]}... ({len(text)} digits)"


def code_from_str(s: str) -> int:
    """The code an ASCII decimal string spells, of any length."""
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"a code is written in ASCII digits only, not {s!r}")
    with _no_digit_limit():
        return int(s)


# ---------------------------------------------------------------- pairing


def pair(a: int, b: int) -> int:
    """Cantor pairing shifted by one: the image is exactly the positives."""
    if a < 0 or b < 0:
        raise ValueError("pair is defined on naturals")
    s = a + b
    # squaring is cheaper than a general product on multi-megabit operands
    return (s * s + s >> 1) + b + 1


def unpair(p: int) -> tuple[int, int]:
    """The (a, b) with pair(a, b) == p.

    Its cost is one integer square root, with remainder, of a number of p's
    size.  Past _SQRT_CUTOFF bits that is Zimmermann's Karatsuba square root
    (INRIA RR-3805, 1999), whose one half-size division per level is Burnikel
    and Ziegler's recursive division (MPI-I-98-1-022, 1998) past _DIV_CUTOFF
    bits.  Both cost a constant times one Karatsuba product, O(n^1.59) on n
    bits, where math.isqrt divides by schoolbook in O(n^2) on CPython 3.11:
    a 488 kbit code unpairs in about 23 ms against 106 ms (2 vCPU).
    """
    if p < 1:
        raise NotACode(f"{p} is not a pair code")
    # with w = a + b, 8(p - 1) + 1 == (2w + 1)^2 + 8b and 0 <= b <= w, so
    # its root is 2w + 1 or 2w + 2, and its remainder gives b
    s, r = _sqrtrem(8 * p - 7)
    if not s & 1:  # the root is 2w + 2: step back to 2w + 1
        r += 2 * s - 1
        s -= 1
    b = r >> 3
    return (s >> 1) - b, b


# Below these sizes in bits the builtins are as fast: math.isqrt and divmod.
_SQRT_CUTOFF = 4000
_DIV_CUTOFF = 4000


def _sqrtrem(n: int) -> tuple[int, int]:
    """(s, n - s*s) for s = math.isqrt(n), by Zimmermann's Karatsuba root.

    Shifted left by 2t bits (t is 0 or 1), n has 4h or 4h - 1 bits, so its
    top quarter is at least 2^h / 4 and one correction step suffices.  The
    root of its top half, with its remainder, gives the next h bits of the
    root by one division; their square, subtracted, gives the remainder.
    """
    bits = n.bit_length()
    if bits <= _SQRT_CUTOFF:
        s = math.isqrt(n)
        return s, n - s * s
    h = (bits + 3) // 4
    t = (4 * h - bits) // 2
    n <<= 2 * t
    low = (1 << h) - 1
    s, r = _sqrtrem(n >> 2 * h)  # s has h bits, and r <= 2s
    q, u = _div2n1n(r << h | n >> h & low, s << 1, h + 1)
    s = (s << h) + q
    r = (u << h | n & low) - q * q
    if r < 0:  # q overshot by one
        r += 2 * s - 1
        s -= 1
    if t:  # undo the shift: n's root is s // 2
        s0 = s & 1
        s >>= 1
        r = r + s0 * (4 * s + 1) >> 2
    return s, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2^n, by Burnikel
    and Ziegler's recursion: in digits of n/2 bits, two 3-by-2 divisions,
    each one call on half the size and one half-size product."""
    if n <= _DIV_CUTOFF:
        return divmod(a, b)
    odd = n & 1
    if odd:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    low = (1 << half) - 1
    b1, b2 = b >> half, b & low
    q1, r = _div3n2n(a >> n, a >> half & low, b, b1, b2, half)
    q2, r = _div3n2n(r, a & low, b, b1, b2, half)
    return q1 << half | q2, r >> odd


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """divmod(a12 * 2^n + a3, b) for b == b1 * 2^n + b2 of exactly 2n bits,
    a12 < b and a3 < 2^n: guess the quotient from b1, then fix it up."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:  # the guess exceeds the quotient by at most two
        q -= 1
        r += b
    return q, r


# ---------------------------------------------------------------- identifiers

_FIRST = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_REST = _FIRST + "0123456789_"
_FIRST_RANK = {c: i for i, c in enumerate(_FIRST)}
_REST_RANK = {c: i for i, c in enumerate(_REST)}


def name_code(name: str) -> int:
    """Position of name in the length-then-lexicographic enumeration of
    identifiers (letter first, then letters, digits, underscores)."""
    if not name or name[0] not in _FIRST_RANK or any(c not in _REST_RANK for c in name[1:]):
        raise ValueError(f"not an identifier: {name!r}")
    offset = 0
    block = len(_FIRST)
    for _ in range(len(name) - 1):
        offset += block
        block *= len(_REST)
    rank = _FIRST_RANK[name[0]]
    for c in name[1:]:
        rank = rank * len(_REST) + _REST_RANK[c]
    return offset + rank


def decode_name(code: int) -> str:
    if code < 0:
        raise NotACode(f"{code} is not an identifier code")
    offset = 0
    block = len(_FIRST)
    length = 1
    while code >= offset + block:
        offset += block
        block *= len(_REST)
        length += 1
    rank = code - offset
    rest: list[str] = []
    for _ in range(length - 1):
        rest.append(_REST[rank % len(_REST)])
        rank //= len(_REST)
    return _FIRST[rank] + "".join(reversed(rest))


# ---------------------------------------------------------------- node tags

TAG_NUM = 1
TAG_VAR = 2
TAG_SUCC = 3
TAG_PLUS = 4
TAG_TIMES = 5
TAG_FALSUM = 6
TAG_EQ = 7
TAG_LT = 8
TAG_NOT = 9
TAG_IMP = 10
TAG_AND = 11
TAG_OR = 12
TAG_FORALL = 13
TAG_EXISTS = 14
TAG_PRED = 15
TAG_BOX = 16

# The node kinds whose payload is a pair of two parts, by tag.
_KINDS = {TAG_PLUS: Plus, TAG_TIMES: Times, TAG_EQ: Eq, TAG_LT: Lt, TAG_IMP: Imp,
          TAG_AND: And, TAG_OR: Or, TAG_FORALL: ForAll, TAG_EXISTS: Exists}
_TAGS = {cls: tag for tag, cls in _KINDS.items()}

_NIL = 0

# How a reader of codes unpairs them: unpair itself, or, where one call reads
# the same code more than once, a memo of it that lives as long as that call.
Split = Callable[[int], tuple[int, int]]


def _cons_list(codes: list[int]) -> int:
    out = _NIL
    for c in reversed(codes):
        out = pair(c, out)
    return out


def _uncons_list(code: int, split: Split) -> list[int]:
    out: list[int] = []
    while code != _NIL:
        head, code = split(code)
        out.append(head)
    return out


def encode_term(t: Term) -> int:
    match t:
        case Num(n):
            return pair(TAG_NUM, n)
        case Var(name):
            return pair(TAG_VAR, name_code(name))
        case Succ(a):
            return pair(TAG_SUCC, encode_term(a))
        case Plus(l, r) | Times(l, r):
            return pair(_TAGS[type(t)], pair(encode_term(l), encode_term(r)))
    raise TypeError(f"not a term: {t!r}")


def encode(f: Formula) -> int:
    match f:
        case Falsum():
            return pair(TAG_FALSUM, 0)
        case Eq(l, r) | Lt(l, r):
            return pair(_TAGS[type(f)], pair(encode_term(l), encode_term(r)))
        case Not(s):
            return pair(TAG_NOT, encode(s))
        case Imp(l, r) | And(l, r) | Or(l, r):
            return pair(_TAGS[type(f)], pair(encode(l), encode(r)))
        case ForAll(v, b) | Exists(v, b):
            return pair(_TAGS[type(f)], pair(name_code(v), encode(b)))
        case PredApp(name, args):
            return pair(TAG_PRED, pair(name_code(name), _cons_list([encode_term(a) for a in args])))
        case Box(tpl, subst):
            entries = _cons_list([pair(name_code(v), encode_term(t)) for v, t in subst])
            return pair(TAG_BOX, pair(encode(tpl), entries))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------- code sizes

# A code's bit length about doubles with each level of nesting, and printing
# it in decimal is quadratic in that length: 2^20 bits print in about 1.5 s
# (CPython 3.11, 2 vCPU).  code_bits can overshoot a deep code about twofold.
MAX_CODE_BITS = 1 << 20
_TAG_BITS = TAG_BOX.bit_length()  # the widest tag


def _pair_bits(a: int, b: int) -> int:
    """A bound on pair(x, y).bit_length() from bounds a and b on x's and
    y's: with m = max(a, b), x + y < 2^(m+1), so pair(x, y) < 2^(2m+1)."""
    return 2 * max(a, b) + 2


def _list_bits(bits: list[int]) -> int:
    out = _NIL.bit_length()
    for b in reversed(bits):
        out = _pair_bits(b, out)
    return out


def _term_bits(t: Term) -> int:
    match t:
        case Num(n):
            payload = n.bit_length()
        case Var(name):
            payload = name_code(name).bit_length()
        case Succ(a):
            payload = _term_bits(a)
        case Plus(l, r) | Times(l, r):
            payload = _pair_bits(_term_bits(l), _term_bits(r))
        case _:
            raise TypeError(f"not a term: {t!r}")
    return _pair_bits(_TAG_BITS, payload)


def code_bits(f: Formula) -> int:
    """An upper bound on encode(f).bit_length(), found from f's shape without
    pairing anything, so it costs time linear in f's size."""
    match f:
        case Falsum():
            payload = 0
        case Eq(l, r) | Lt(l, r):
            payload = _pair_bits(_term_bits(l), _term_bits(r))
        case Not(s):
            payload = code_bits(s)
        case Imp(l, r) | And(l, r) | Or(l, r):
            payload = _pair_bits(code_bits(l), code_bits(r))
        case ForAll(v, b) | Exists(v, b):
            payload = _pair_bits(name_code(v).bit_length(), code_bits(b))
        case PredApp(name, args):
            payload = _pair_bits(name_code(name).bit_length(), _list_bits([_term_bits(a) for a in args]))
        case Box(tpl, subst):
            entries = _list_bits([_pair_bits(name_code(v).bit_length(), _term_bits(t)) for v, t in subst])
            payload = _pair_bits(code_bits(tpl), entries)
        case _:
            raise TypeError(f"not a formula: {f!r}")
    return _pair_bits(_TAG_BITS, payload)


# ---------------------------------------------------------------- decoding


def decode_term(code: int) -> Term:
    return _decode_term(code, unpair)


def _decode_term(code: int, split: Split) -> Term:
    tag, payload = split(code)
    if tag == TAG_NUM:
        return Num(payload)
    if tag == TAG_VAR:
        return _decoded_var(payload)
    if tag == TAG_SUCC:
        return Succ(_decode_term(payload, split))
    if tag in (TAG_PLUS, TAG_TIMES):
        l, r = split(payload)
        return _KINDS[tag](_decode_term(l, split), _decode_term(r, split))
    raise NotACode(f"tag {_digits(tag)} is not a term tag")


def _decoded_var(name_payload: int) -> Var:
    name = decode_name(name_payload)
    try:
        return Var(name)
    except SyntaxBuildError as e:
        raise NotACode(str(e)) from None


def decode(code: int) -> Formula:
    return _decode(code, unpair)


def _decode(code: int, split: Split) -> Formula:
    tag, payload = split(code)
    if tag == TAG_FALSUM:
        if payload != 0:
            raise NotACode("falsum carries a payload")
        return Falsum()
    if tag in (TAG_EQ, TAG_LT):
        l, r = split(payload)
        return _KINDS[tag](_decode_term(l, split), _decode_term(r, split))
    if tag == TAG_NOT:
        return Not(_decode(payload, split))
    if tag in (TAG_IMP, TAG_AND, TAG_OR):
        l, r = split(payload)
        return _KINDS[tag](_decode(l, split), _decode(r, split))
    if tag in (TAG_FORALL, TAG_EXISTS):
        v, b = split(payload)
        return _KINDS[tag](_decoded_var(v).name, _decode(b, split))
    if tag == TAG_PRED:
        nm, args = split(payload)
        name = decode_name(nm)
        try:
            return PredApp(name, tuple(_decode_term(a, split) for a in _uncons_list(args, split)))
        except SyntaxBuildError as e:
            raise NotACode(str(e)) from None
    if tag == TAG_BOX:
        tpl, entries = split(payload)
        pairs = []
        for e in _uncons_list(entries, split):
            v, t = split(e)
            pairs.append((_decoded_var(v).name, _decode_term(t, split)))
        try:
            return Box(_decode(tpl, split), tuple(pairs))
        except SyntaxBuildError as e:
            raise NotACode(str(e)) from None
    raise NotACode(f"tag {_digits(tag)} is not a formula tag")


def numeral_code(n: int) -> int:
    if n < 0:
        raise ValueError("numerals are non-negative")
    return pair(TAG_NUM, n)


# ---------------------------------------------------------------- code-level substitution


def sub_code(code: int, var: str, n: int) -> int:
    """Substitute the numeral for the variable, working directly on codes.

    Commutes with encode: sub_code(encode(f), v, n) equals
    encode(substitute(f, v, numeral(n))).  A successor whose argument becomes
    a numeral is folded into the next numeral, as Succ does, and
    binders for the substituted variable shadow it.  Quotation templates are
    untouched; only their substitution ranges are rewritten.
    """
    return _sub_code(code, var, n, unpair)


def _succ_code(inner: int, split: Split) -> int:
    """The code of S(t) from t's: a numeral's successor is the next numeral."""
    tag, value = split(inner)
    return pair(TAG_NUM, value + 1) if tag == TAG_NUM else pair(TAG_SUCC, inner)


def _sub_code(code: int, var: str, n: int, split: Split) -> int:
    vcode = name_code(var)

    def go(k: int) -> int:
        tag, payload = split(k)
        if tag in (TAG_NUM, TAG_FALSUM):
            return k
        if tag == TAG_VAR:
            return pair(TAG_NUM, n) if payload == vcode else k
        if tag == TAG_SUCC:
            return _succ_code(go(payload), split)
        if tag in (TAG_PLUS, TAG_TIMES, TAG_EQ, TAG_LT, TAG_IMP, TAG_AND, TAG_OR):
            l, r = split(payload)
            return pair(tag, pair(go(l), go(r)))
        if tag == TAG_NOT:
            return pair(tag, go(payload))
        if tag in (TAG_FORALL, TAG_EXISTS):
            v, b = split(payload)
            if v == vcode:
                return k
            return pair(tag, pair(v, go(b)))
        if tag == TAG_PRED:
            nm, args = split(payload)
            return pair(tag, pair(nm, _cons_list([go(a) for a in _uncons_list(args, split)])))
        if tag == TAG_BOX:
            tpl, entries = split(payload)
            new = []
            for e in _uncons_list(entries, split):
                v, t = split(e)
                new.append(pair(v, go(t)))
            return pair(tag, pair(tpl, _cons_list(new)))
        raise NotACode(f"tag {_digits(tag)} is not a node tag")

    return go(code)


# ---------------------------------------------------------------- fixed points


class DiagonalError(ValueError):
    pass


@dataclass(frozen=True)
class DiagonalResult:
    """Outcome of introducing a predicate as the fixed point of a template.

    fixed_point is the defined atom (or the template itself when the template
    never mentions the hole).  biconditional is the definitional equivalence.
    trace is a replayable tuple of (label, code) checkpoints tying the
    construction to the numeric coding.  It is a view, built afresh on each
    read, and only a read builds the biconditional's code: replay_trace
    checks the construction without it.
    """

    hole: str
    params: tuple[str, ...]
    template: Formula
    fixed_point: Formula
    biconditional: Formula

    @property
    def trace(self) -> tuple[tuple[str, int], ...]:
        codes = _codes(self, cache(unpair))
        codes["biconditional"] = encode(self.biconditional)
        return tuple((label, codes[label]) for label in trace_labels(self.params))


def _unquoted(f: Formula, hole: str) -> bool:
    """Whether hole is applied in f outside every quotation."""
    match f:
        case PredApp(name, _):
            return name == hole
        case Not(s):
            return _unquoted(s, hole)
        case Imp(l, r) | And(l, r) | Or(l, r):
            return _unquoted(l, hole) or _unquoted(r, hole)
        case ForAll(_, b) | Exists(_, b):
            return _unquoted(b, hole)
    return False


def trace_labels(params: tuple[str, ...]) -> tuple[str, ...]:
    """The labels of a diagonal trace's checkpoints, in order."""
    return ("template", "name", "biconditional",
            *(f"probe {p}:=0" for p in params), "fixed-point")


def _codes(result: DiagonalResult, split: Split) -> dict[str, int]:
    """A diagonal trace's codes by label, all but the biconditional's: the
    codes replay checks.  Every probe reads the template's code through
    split."""
    tcode = encode(result.template)
    first, name, _, *probes, last = trace_labels(result.params)
    return {first: tcode, name: name_code(result.hole),
            **{label: _sub_code(tcode, p, 0, split) for label, p in zip(probes, result.params)},
            last: encode(result.fixed_point)}


def diagonalize(template: Formula, hole: str, params: tuple[str, ...]) -> DiagonalResult:
    """Fixed point of template in the hole predicate, by naming.

    The parameters are distinct variables and the template's free variables
    are among them.  The hole may occur only inside quotation templates, and
    applied to one argument per parameter; an occurrence in direct position
    is rejected.  When the hole never occurs the template is its own fixed
    point.
    """
    for p in params:
        Var(p)
    if len(set(params)) != len(params):
        raise DiagonalError(f"duplicate parameter in {hole}({', '.join(params)})")
    stray = set(template.free) - set(params)
    if stray:
        raise DiagonalError(f"free variables {sorted(stray)} are not parameters of {hole}")
    arities = [n for name, n in template.uses if name == hole]
    if arities and _unquoted(template, hole):
        raise DiagonalError(f"predicate {hole} occurs outside every quotation")
    if any(n != len(params) for n in arities):
        raise DiagonalError(f"predicate {hole} is applied to other than {len(params)} arguments")
    if arities:
        fixed_point: Formula = PredApp(hole, tuple(Var(p) for p in params))
    else:
        fixed_point = template
    bicond = iff(fixed_point, template)
    return DiagonalResult(
        hole=hole,
        params=tuple(params),
        template=template,
        fixed_point=fixed_point,
        biconditional=bicond,
    )


def replay_trace(result: DiagonalResult) -> bool:
    """Check a diagonal construction against the numeric coding, from scratch.

    Raises DiagonalError on the first mismatch.  The template's code must
    decode back to the template, the name must decode to the hole, each
    substitution probe must agree with decode/substitute/encode's route, the
    fixed point's code must decode to the fixed point, and the biconditional
    must be alpha-equivalent to iff(fixed_point, template).  So every entry of
    the trace but the biconditional's is checked against the construction,
    and that one is checked as a formula: its code is never built.  Each code
    is built once, and unpaired once: the decode-back checks and the probes
    read codes through one memo of unpair, which this call makes, fills from
    the codes themselves and drops when it returns.
    """
    split = cache(unpair)
    codes = _codes(result, split)
    first, name, _, *probes, last = trace_labels(result.params)

    def decodes_to(code: int, want: Formula) -> bool:
        try:
            return _decode(code, split) == want
        except NotACode:
            return False

    if not decodes_to(codes[first], result.template):
        raise DiagonalError("template code does not decode back")
    if decode_name(codes[name]) != result.hole:
        raise DiagonalError(f"name code does not decode to {result.hole}")
    for label, p in zip(probes, result.params):
        if codes[label] != encode(substitute_many(result.template, {p: Num(0)})):
            raise DiagonalError(f"substitution probe for {p} disagrees with the syntax route")
    if not decodes_to(codes[last], result.fixed_point):
        raise DiagonalError("final trace entry is not the fixed point's code")
    if not alpha_eq(result.biconditional, iff(result.fixed_point, result.template)):
        raise DiagonalError("biconditional does not tie fixed point to template")
    return True


def pred_rename(f: Formula, old: str, new: str) -> Formula:
    """Rename a predicate symbol everywhere, quotation templates included.
    A subformula that never applies old is returned as it is, so only the
    paths down to old's applications are rebuilt."""
    if all(name != old for name, _ in f.uses):
        return f
    match f:
        case PredApp(_, args):
            return PredApp(new, args)
        case Not(s):
            return Not(pred_rename(s, old, new))
        case Imp(l, r) | And(l, r) | Or(l, r):
            return type(f)(pred_rename(l, old, new), pred_rename(r, old, new))
        case ForAll(v, b) | Exists(v, b):
            return type(f)(v, pred_rename(b, old, new))
        case Box(tpl, subst):
            return Box(pred_rename(tpl, old, new), subst)
        case _:
            return f


def fix_intro(signature, name: str, params: tuple[str, ...], body_with_self: Formula) -> DiagonalResult:
    """Install name as the fixed point of a template written with `self`.

    The template's `self` applications become applications of name, the
    diagonal construction produces the definitional biconditional (and, when
    read, its trace), and the definition is registered so proof scripts can
    unfold and fold it.
    """
    body = pred_rename(body_with_self, "self", name)
    result = diagonalize(body, name, params)
    signature.define(name, tuple(params), body)
    return result
