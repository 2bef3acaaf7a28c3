# decode and sub_code as they were before they took a split function, and
# encode and encode_term as they were before the tag table, kept verbatim
# (only its imports are absolute and added here) as the reference that
# tests/test_coding.py compares yablo.coding's with.  Each call unpairs every
# code it reads afresh, and each encoder case names its own tag.

from __future__ import annotations

from yablo.coding import (
    _NIL,
    TAG_AND,
    TAG_BOX,
    TAG_EQ,
    TAG_EXISTS,
    TAG_FALSUM,
    TAG_FORALL,
    TAG_IMP,
    TAG_LT,
    TAG_NOT,
    TAG_NUM,
    TAG_OR,
    TAG_PLUS,
    TAG_PRED,
    TAG_SUCC,
    TAG_TIMES,
    TAG_VAR,
    NotACode,
    _cons_list,
    _digits,
    decode_name,
    name_code,
    pair,
    unpair,
)
from yablo.syntax import (
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
)


def _uncons_list(code: int) -> list[int]:
    out: list[int] = []
    while code != _NIL:
        head, code = unpair(code)
        out.append(head)
    return out


def decode_term(code: int) -> Term:
    tag, payload = unpair(code)
    if tag == TAG_NUM:
        return Num(payload)
    if tag == TAG_VAR:
        return _decoded_var(payload)
    if tag == TAG_SUCC:
        return Succ(decode_term(payload))
    if tag in (TAG_PLUS, TAG_TIMES):
        l, r = unpair(payload)
        cls = Plus if tag == TAG_PLUS else Times
        return cls(decode_term(l), decode_term(r))
    raise NotACode(f"tag {_digits(tag)} is not a term tag")


def _decoded_var(name_payload: int) -> Var:
    name = decode_name(name_payload)
    try:
        return Var(name)
    except SyntaxBuildError as e:
        raise NotACode(str(e)) from None


def decode(code: int) -> Formula:
    tag, payload = unpair(code)
    if tag == TAG_FALSUM:
        if payload != 0:
            raise NotACode("falsum carries a payload")
        return Falsum()
    if tag in (TAG_EQ, TAG_LT):
        l, r = unpair(payload)
        cls = Eq if tag == TAG_EQ else Lt
        return cls(decode_term(l), decode_term(r))
    if tag == TAG_NOT:
        return Not(decode(payload))
    if tag in (TAG_IMP, TAG_AND, TAG_OR):
        l, r = unpair(payload)
        cls = {TAG_IMP: Imp, TAG_AND: And, TAG_OR: Or}[tag]
        return cls(decode(l), decode(r))
    if tag in (TAG_FORALL, TAG_EXISTS):
        v, b = unpair(payload)
        cls = ForAll if tag == TAG_FORALL else Exists
        return cls(_decoded_var(v).name, decode(b))
    if tag == TAG_PRED:
        nm, args = unpair(payload)
        name = decode_name(nm)
        try:
            return PredApp(name, tuple(decode_term(a) for a in _uncons_list(args)))
        except SyntaxBuildError as e:
            raise NotACode(str(e)) from None
    if tag == TAG_BOX:
        tpl, entries = unpair(payload)
        pairs = []
        for e in _uncons_list(entries):
            v, t = unpair(e)
            pairs.append((_decoded_var(v).name, decode_term(t)))
        try:
            return Box(decode(tpl), tuple(pairs))
        except SyntaxBuildError as e:
            raise NotACode(str(e)) from None
    raise NotACode(f"tag {_digits(tag)} is not a formula tag")


def sub_code(code: int, var: str, n: int) -> int:
    """Substitute the numeral for the variable, working directly on codes.

    Commutes with encode: sub_code(encode(f), v, n) equals
    encode(substitute(f, v, numeral(n))).  A successor whose argument becomes
    a numeral is folded into the next numeral, as Succ does, and
    binders for the substituted variable shadow it.  Quotation templates are
    untouched; only their substitution ranges are rewritten.
    """
    vcode = name_code(var)

    def go(k: int) -> int:
        tag, payload = unpair(k)
        if tag in (TAG_NUM, TAG_FALSUM):
            return k
        if tag == TAG_VAR:
            return pair(TAG_NUM, n) if payload == vcode else k
        if tag == TAG_SUCC:
            inner = go(payload)
            itag, ival = unpair(inner)
            if itag == TAG_NUM:
                return pair(TAG_NUM, ival + 1)
            return pair(TAG_SUCC, inner)
        if tag in (TAG_PLUS, TAG_TIMES, TAG_EQ, TAG_LT, TAG_IMP, TAG_AND, TAG_OR):
            l, r = unpair(payload)
            return pair(tag, pair(go(l), go(r)))
        if tag == TAG_NOT:
            return pair(tag, go(payload))
        if tag in (TAG_FORALL, TAG_EXISTS):
            v, b = unpair(payload)
            if v == vcode:
                return k
            return pair(tag, pair(v, go(b)))
        if tag == TAG_PRED:
            nm, args = unpair(payload)
            return pair(tag, pair(nm, _cons_list([go(a) for a in _uncons_list(args)])))
        if tag == TAG_BOX:
            tpl, entries = unpair(payload)
            new = []
            for e in _uncons_list(entries):
                v, t = unpair(e)
                new.append(pair(v, go(t)))
            return pair(tag, pair(tpl, _cons_list(new)))
        raise NotACode(f"tag {_digits(tag)} is not a node tag")

    return go(code)


def encode_term(t: Term) -> int:
    match t:
        case Num(n):
            return pair(TAG_NUM, n)
        case Var(name):
            return pair(TAG_VAR, name_code(name))
        case Succ(a):
            return pair(TAG_SUCC, encode_term(a))
        case Plus(l, r):
            return pair(TAG_PLUS, pair(encode_term(l), encode_term(r)))
        case Times(l, r):
            return pair(TAG_TIMES, pair(encode_term(l), encode_term(r)))
    raise TypeError(f"not a term: {t!r}")


def encode(f: Formula) -> int:
    match f:
        case Falsum():
            return pair(TAG_FALSUM, 0)
        case Eq(l, r):
            return pair(TAG_EQ, pair(encode_term(l), encode_term(r)))
        case Lt(l, r):
            return pair(TAG_LT, pair(encode_term(l), encode_term(r)))
        case Not(s):
            return pair(TAG_NOT, encode(s))
        case Imp(l, r):
            return pair(TAG_IMP, pair(encode(l), encode(r)))
        case And(l, r):
            return pair(TAG_AND, pair(encode(l), encode(r)))
        case Or(l, r):
            return pair(TAG_OR, pair(encode(l), encode(r)))
        case ForAll(v, b):
            return pair(TAG_FORALL, pair(name_code(v), encode(b)))
        case Exists(v, b):
            return pair(TAG_EXISTS, pair(name_code(v), encode(b)))
        case PredApp(name, args):
            return pair(TAG_PRED, pair(name_code(name), _cons_list([encode_term(a) for a in args])))
        case Box(tpl, subst):
            entries = _cons_list([pair(name_code(v), encode_term(t)) for v, t in subst])
            return pair(TAG_BOX, pair(encode(tpl), entries))
    raise TypeError(f"not a formula: {f!r}")
