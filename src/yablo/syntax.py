"""Object-language syntax: first-order arithmetic plus a structural provability
quotation.

Terms are built from numerals (one Num node each, the successor of a numeral
being the next numeral), successor, plus, times, and variables.  Formulas add
quantifiers, connectives, predicate applications resolved against a Signature,
and Box(template, subst): the provability assertion for the template with the
substitution's terms written into its dotted variables.  The subst domain must
cover the template's free variables exactly, so a Box node is closed from the
outside except through the subst range.

Nodes are immutable: assigning or deleting an attribute raises
AttributeError.  Each kind names its fields once, in __match_args__, which
positional patterns and the repr read; its constructor takes them in that
order.  A node also holds two tuples, built from its children's when it is
constructed: ``free``, its free variables in order of first occurrence (for a
Box, those of its range terms in subst order), and ``uses``, its (predicate,
argument count) pairs in order of first occurrence, quotation templates
included.  Both are () unless the kind can have some.  Neither takes part in
equality, hashing or the repr.  The hash is computed once, at construction,
from the children's hashes, so hashing a node of any depth takes constant
time.  Equality checks identity, then kind and hash, then the fields.

Each binary node kind's concrete symbol, and its precedence where it has one,
is stated once, in the operator tables CONNECTIVES, TERM_OPS, COMPARISONS and
QUANTIFIERS.  The printer here reads them, `parser` derives its lookups from
them, and the canonical keys are headed by their symbols.  The walkers below
treat each group of binary kinds in one case, rebuilding a node with its own
class.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from functools import lru_cache, reduce

IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
PRED_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")
RESERVED = {"bot", "all", "exists", "by", "with", "self"}


class SyntaxBuildError(ValueError):
    """Raised when a constructor is handed ill-formed pieces."""


def _check_var(name: str) -> str:
    if not IDENT_RE.match(name) or name in RESERVED:
        raise SyntaxBuildError(f"bad variable name {name!r}")
    return name


def _merge(a: tuple, b: tuple) -> tuple:
    """a followed by the entries of b that are not in a."""
    if not b or a is b:
        return a
    if not a:
        return b
    merged = tuple(dict.fromkeys(a + b))
    return a if len(merged) == len(a) else merged


_set = object.__setattr__  # the one way to fill a node's slots


class Node:
    """Base of the term and formula nodes.  A kind adds its fields, and free
    and uses where it can have some, to __slots__; its constructor fills
    them, and the hash, through _set."""

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()
    free: tuple[str, ...] = ()
    uses: tuple[tuple[str, int], ...] = ()

    def __init_subclass__(cls):
        cls.__hash__ = Node.__hash__  # which a kind's own __eq__ would unset

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class _Binary(Node):
    """A left and a right operand: the term operators and the comparisons,
    and with uses the connectives."""

    __match_args__ = ("left", "right")
    __slots__ = __match_args__ + ("free",)

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "free", _merge(left.free, right.free))
        _set(self, "_hash", hash((type(self), left._hash, right._hash)))

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._hash == other._hash
                                 and self.left == other.left and self.right == other.right)


# ---------------------------------------------------------------- terms


class Term(Node):
    __slots__ = ()


class Num(Term):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int):
        if value < 0:
            raise SyntaxBuildError("numerals are non-negative")
        _set(self, "value", value)
        _set(self, "_hash", hash((Num, value)))

    def __eq__(self, other):
        return self is other or (type(other) is Num and self._hash == other._hash
                                 and self.value == other.value)


class Succ(Term):
    __match_args__ = ("arg",)
    __slots__ = ("arg", "free")

    def __new__(cls, arg: Term):  # the successor of a numeral is the next numeral
        if isinstance(arg, Num):
            return Num(arg.value + 1)
        self = object.__new__(cls)
        _set(self, "arg", arg)
        _set(self, "free", arg.free)
        _set(self, "_hash", hash((Succ, arg._hash)))
        return self

    def __eq__(self, other):
        return self is other or (type(other) is Succ and self._hash == other._hash
                                 and self.arg == other.arg)


class Plus(_Binary, Term):
    __slots__ = ()


class Times(_Binary, Term):
    __slots__ = ()


class Var(Term):
    __match_args__ = ("name",)
    __slots__ = ("name", "free")

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "free", (_check_var(name),))
        _set(self, "_hash", hash((Var, name)))

    def __eq__(self, other):
        return self is other or (type(other) is Var and self._hash == other._hash
                                 and self.name == other.name)


numeral = Num


def Zero() -> Num:
    """The numeral 0."""
    return Num(0)


@contextmanager
def _no_digit_limit():
    """Lift the interpreter's int/str digit limit for the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def decimal(n: int) -> str:
    """str(n), past the interpreter's int-to-str digit limit."""
    if n.bit_length() < 2000:  # under 640 digits, within any limit the interpreter allows
        return str(n)
    with _no_digit_limit():
        return str(n)


# ---------------------------------------------------------------- formulas


class Formula(Node):
    __slots__ = ()


class Falsum(Formula):
    __slots__ = ()
    _hash = hash("bot")  # no fields, so one hash for every Falsum

    def __eq__(self, other):
        return type(other) is Falsum


class Eq(_Binary, Formula):
    __slots__ = ()


class Lt(_Binary, Formula):
    __slots__ = ()


class Not(Formula):
    __match_args__ = ("sub",)
    __slots__ = ("sub", "free", "uses")

    def __init__(self, sub: Formula):
        _set(self, "sub", sub)
        _set(self, "free", sub.free)
        _set(self, "uses", sub.uses)
        _set(self, "_hash", hash((Not, sub._hash)))

    def __eq__(self, other):
        return self is other or (type(other) is Not and self._hash == other._hash
                                 and self.sub == other.sub)


class _Connective(_Binary, Formula):
    __slots__ = ("uses",)

    def __init__(self, left: Formula, right: Formula):
        _Binary.__init__(self, left, right)
        _set(self, "uses", _merge(left.uses, right.uses))


class Imp(_Connective):
    __slots__ = ()


class And(_Connective):
    __slots__ = ()


class Or(_Connective):
    __slots__ = ()


def _bind(q: ForAll | Exists) -> None:
    """__post_init__ of the quantifiers."""
    v, free = _check_var(q.var), q.body.free
    if v in free:
        free = tuple(w for w in free if w != v)
    _set(q, "free", free)
    _set(q, "uses", q.body.uses)


class _Quantifier(Formula):
    __match_args__ = ("var", "body")
    __slots__ = __match_args__ + ("free", "uses")

    def __init__(self, var: str, body: Formula):
        _set(self, "var", var)
        _set(self, "body", body)
        self.__post_init__()
        _set(self, "_hash", hash((type(self), var, body._hash)))

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._hash == other._hash
                                 and self.var == other.var and self.body == other.body)


class ForAll(_Quantifier):
    __slots__ = ()
    __post_init__ = _bind


class Exists(_Quantifier):
    __slots__ = ()
    __post_init__ = _bind


class PredApp(Formula):
    __match_args__ = ("name", "args")
    __slots__ = __match_args__ + ("free", "uses")

    def __init__(self, name: str, args: tuple[Term, ...] = ()):
        if not PRED_RE.match(name):
            raise SyntaxBuildError(f"bad predicate name {name!r}")
        args = tuple(args)
        _set(self, "name", name)
        _set(self, "args", args)
        _set(self, "free", reduce(_merge, (a.free for a in args), ()))
        _set(self, "uses", ((name, len(args)),))
        _set(self, "_hash", hash((PredApp, name, args)))

    def __eq__(self, other):
        return self is other or (type(other) is PredApp and self._hash == other._hash
                                 and self.name == other.name and self.args == other.args)


class Box(Formula):
    """Provability of the template at the values supplied by subst.

    subst maps each free variable of the template (exactly those, no extras,
    no duplicates) to a term.  Entries are stored sorted by variable name.
    """

    __match_args__ = ("template", "subst")
    __slots__ = __match_args__ + ("free", "uses")

    def __init__(self, template: Formula, subst: tuple[tuple[str, Term], ...] = ()):
        _set(self, "template", template)
        _set(self, "subst", subst)
        self.__post_init__()
        _set(self, "_hash", hash((Box, template._hash, self.subst)))

    def __post_init__(self):
        entries = tuple(sorted(self.subst, key=lambda e: e[0]))
        names = [v for v, _ in entries]
        if len(set(names)) != len(names):
            raise SyntaxBuildError("duplicate variable in Box substitution")
        need = set(self.template.free)
        have = set(names)
        if have != need:
            missing = sorted(need - have)
            extra = sorted(have - need)
            bits = []
            if missing:
                bits.append(f"uncovered template variables {missing}")
            if extra:
                bits.append(f"entries for non-template variables {extra}")
            raise SyntaxBuildError("Box substitution mismatch: " + "; ".join(bits))
        _set(self, "subst", entries)
        _set(self, "free", reduce(_merge, (t.free for _, t in entries), ()))
        _set(self, "uses", self.template.uses)

    def __eq__(self, other):
        return self is other or (type(other) is Box and self._hash == other._hash
                                 and self.template == other.template and self.subst == other.subst)

    def range_of(self, v: str) -> Term:
        for name, t in self.subst:
            if name == v:
                return t
        raise KeyError(v)


# ---------------------------------------------------------------- operator tables

# class -> (symbol, precedence), loosest 1; the GL oracle's grammar reads
# CONNECTIVES too.  Connectives are right associative, term operators left.
CONNECTIVES = {Imp: ("->", 1), Or: ("|", 2), And: ("&", 3)}
TERM_OPS = {Plus: ("+", 1), Times: ("*", 2)}
COMPARISONS = {Eq: "=", Lt: "<"}
QUANTIFIERS = {ForAll: "all", Exists: "exists"}


def iff(a: Formula, b: Formula) -> And:
    """A biconditional, spelled as the conjunction of both implications."""
    return And(Imp(a, b), Imp(b, a))


# ---------------------------------------------------------------- free variables


def free_vars(f: Formula) -> set[str]:
    """The free variables of f, as a fresh set."""
    return set(f.free)


# ---------------------------------------------------------------- alpha-equivalence

# Canonical forms use de-Bruijn-style levels for quantifier binders.  A Box
# template is its own scope: its free variables are bound by the subst domain,
# so they are canonicalized positionally (first-occurrence order) and the range
# terms are read in the enclosing scope.  Two quotations that differ only in
# the spelling of their dotted variables therefore compare equal, which is what
# the checked derivations rely on when a definition's quoted formula meets one
# produced by distributing Box over an implication.


def _canon_term(t: Term, env: dict[str, object]) -> tuple:
    match t:
        case Num(n):
            return ("n", n)
        case Succ(a):
            return ("s", _canon_term(a, env))
        case Plus(l, r) | Times(l, r):
            return (TERM_OPS[type(t)][0], _canon_term(l, env), _canon_term(r, env))
        case Var(name):
            return ("v", env.get(name, ("free", name)))
    raise TypeError(f"not a term: {t!r}")


def _canon(f: Formula, env: dict[str, object], depth: int) -> tuple:
    match f:
        case Falsum():
            return ("bot",)
        case Eq(l, r) | Lt(l, r):
            return (COMPARISONS[type(f)], _canon_term(l, env), _canon_term(r, env))
        case Not(s):
            return ("~", _canon(s, env, depth))
        case Imp(l, r) | And(l, r) | Or(l, r):
            return (CONNECTIVES[type(f)][0], _canon(l, env, depth), _canon(r, env, depth))
        case ForAll(v, b):
            return ("all", _canon(b, {**env, v: ("q", depth)}, depth + 1))
        case Exists(v, b):
            return ("ex", _canon(b, {**env, v: ("q", depth)}, depth + 1))
        case PredApp(name, args):
            return ("p", name, tuple(_canon_term(a, env) for a in args))
        case Box(tpl, _):
            order = tpl.free
            tpl_env: dict[str, object] = {v: ("d", i) for i, v in enumerate(order)}
            ranges = tuple(_canon_term(f.range_of(v), env) for v in order)
            return ("box", _canon(tpl, tpl_env, 0), ranges)
    raise TypeError(f"not a formula: {f!r}")


@lru_cache(maxsize=65536)
def canonical(f: Formula) -> tuple:
    """A hashable key equal for exactly the alpha-equivalent formulas."""
    return _canon(f, {}, 0)


def alpha_eq(f: Formula, g: Formula) -> bool:
    return f == g or canonical(f) == canonical(g)


# ---------------------------------------------------------------- substitution


def substitute_term(t: Term, sigma: dict[str, Term]) -> Term:
    match t:
        case Var(name):
            return sigma.get(name, t)
        case Succ(a):
            return Succ(substitute_term(a, sigma))
        case Plus(l, r) | Times(l, r):
            return type(t)(substitute_term(l, sigma), substitute_term(r, sigma))
        case _:
            return t


def fresh_name(base: str, avoid: set[str]) -> str:
    """base with the smallest unused numeric suffix appended."""
    i = 0
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def substitute_many(f: Formula, sigma: dict[str, Term]) -> Formula:
    """Capture-avoiding parallel substitution of terms for free variables.

    Inside a Box only the subst range terms are rewritten; the template is
    quoted material and never touched.
    """
    sigma = {v: t for v, t in sigma.items() if not (isinstance(t, Var) and t.name == v)}
    if not sigma:
        return f

    def go(g: Formula, sg: dict[str, Term]) -> Formula:
        if sg.keys().isdisjoint(g.free):  # no substituted variable is free in g
            return g
        match g:
            case Eq(l, r) | Lt(l, r):
                return type(g)(substitute_term(l, sg), substitute_term(r, sg))
            case Not(s):
                return Not(go(s, sg))
            case Imp(l, r) | And(l, r) | Or(l, r):
                return type(g)(go(l, sg), go(r, sg))
            case PredApp(name, args):
                return PredApp(name, tuple(substitute_term(a, sg) for a in args))
            case Box(tpl, subst):
                return Box(tpl, tuple((v, substitute_term(t, sg)) for v, t in subst))
            case ForAll(v, b) | Exists(v, b):
                inner = {w: t for w, t in sg.items() if w != v and w in b.free}
                clash = set()
                for t in inner.values():
                    clash.update(t.free)
                if v in clash:
                    avoid = clash | set(b.free) | set(inner)
                    v2 = fresh_name(v, avoid)
                    b = go(b, {v: Var(v2)})
                    v = v2
                return type(g)(v, go(b, inner))
        raise TypeError(f"not a formula: {g!r}")

    return go(f, sigma)


def substitute(f: Formula, v: str, t: Term) -> Formula:
    return substitute_many(f, {v: t})


def apply_box_subst(b: Box) -> Formula:
    """The template with its subst written in: what the quotation asserts."""
    return substitute_many(b.template, {v: t for v, t in b.subst})


def identity_box(f: Formula) -> Box:
    """Box(f) with every free variable dotted at itself."""
    return Box(f, tuple((v, Var(v)) for v in sorted(f.free)))


# ---------------------------------------------------------------- sigma-1


def sigma1(f: Formula) -> bool:
    """Membership in the existential class the provable-completeness scheme
    accepts: atomic (in)equalities and Box atoms, closed under conjunction,
    disjunction, bounded universal quantification, and unbounded existential
    quantification."""
    match f:
        case Eq(_, _) | Lt(_, _) | Box(_, _):
            return True
        case And(l, r) | Or(l, r):
            return sigma1(l) and sigma1(r)
        case Exists(_, b):
            return sigma1(b)
        case ForAll(v, Imp(Lt(Var(w), bound), b)) if w == v and v not in bound.free:
            return sigma1(b)
        case _:
            return False


# ---------------------------------------------------------------- printing


def print_term(t: Term, prec: int = 0) -> str:
    """t in concrete syntax, parenthesized as the operand of an operator of
    precedence prec (0 for none)."""
    kind = type(t)
    if kind is Var:
        return t.name
    if kind is Num:
        return decimal(t.value)
    if kind in TERM_OPS:
        op, mine = TERM_OPS[kind]
        s = f"{print_term(t.left, mine)} {op} {print_term(t.right, mine + 1)}"
        return f"({s})" if prec > mine else s
    if kind is Succ:
        return f"S({print_term(t.arg)})"
    raise TypeError(f"not a term: {t!r}")


def print_formula(f: Formula, prec: int = 0) -> str:
    """f in concrete syntax, parenthesized as the operand of a connective of
    precedence prec (0 for none; 4 for `~`).  A quantifier as an operand is
    always parenthesized."""
    kind = type(f)
    if kind in CONNECTIVES:
        op, mine = CONNECTIVES[kind]
        s = f"{print_formula(f.left, mine + 1)} {op} {print_formula(f.right, mine)}"
        return f"({s})" if prec > mine else s
    if kind in COMPARISONS:
        return f"{print_term(f.left)} {COMPARISONS[kind]} {print_term(f.right)}"
    if kind is Not:
        return "~" + print_formula(f.sub, 4)
    if kind is Box:
        inner = print_formula(f.template)
        if not f.subst:
            return f"Prov[{inner} ;]"
        entries = ", ".join(f"{v} := {print_term(t)}" for v, t in f.subst)
        return f"Prov[{inner} ; {entries}]"
    if kind in QUANTIFIERS:
        s = f"{QUANTIFIERS[kind]} {f.var}. {print_formula(f.body)}"
        return f"({s})" if prec > 0 else s
    if kind is Falsum:
        return "bot"
    if isinstance(f, PredApp):
        if not f.args:
            return f.name
        return f"{f.name}({', '.join(print_term(a) for a in f.args)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------- signature


class Signature:
    """Registry of predicate symbols: arity, and for defined ones the body.

    A definition, once set, is immutable; re-registering the identical
    definition is a no-op so independent scripts can share fixed points.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: dict[str, tuple[tuple[str, ...], Formula | None]] | None = None):
        self._entries = {} if entries is None else entries

    def declare(self, name: str, arity: int) -> None:
        if name in self._entries:
            params, _ = self._entries[name]
            if len(params) != arity:
                raise SyntaxBuildError(f"predicate {name} re-declared with different arity")
            return
        self._entries[name] = (tuple(f"p{i}" for i in range(arity)), None)

    def define(self, name: str, params: tuple[str, ...], body: Formula) -> None:
        if name in self._entries:
            old_params, old_body = self._entries[name]
            if old_body is None and len(old_params) == len(params):
                self._entries[name] = (tuple(params), body)
                return
            if old_body is not None and len(old_params) == len(params):
                theirs = substitute_many(
                    old_body, {p: Var(q) for p, q in zip(old_params, params)}
                )
                if alpha_eq(theirs, body):
                    return
            raise SyntaxBuildError(f"conflicting redefinition of {name}")
        self._entries[name] = (tuple(params), body)

    def arity(self, name: str) -> int | None:
        e = self._entries.get(name)
        return None if e is None else len(e[0])

    def definition(self, name: str) -> tuple[tuple[str, ...], Formula] | None:
        e = self._entries.get(name)
        if e is None or e[1] is None:
            return None
        return e

    def instantiate(self, name: str, args: tuple[Term, ...]) -> Formula:
        """The definition body of name with args written in for its parameters."""
        d = self.definition(name)
        if d is None:
            raise SyntaxBuildError(f"predicate {name} has no definition")
        params, body = d
        if len(params) != len(args):
            raise SyntaxBuildError(f"arity mismatch applying {name}")
        return substitute_many(body, dict(zip(params, args)))

    def names(self) -> list[str]:
        return sorted(self._entries)

    def copy(self) -> "Signature":
        return Signature(dict(self._entries))


CON = PredApp("Con")
CON_BODY = Not(Box(Falsum()))


def base_signature() -> Signature:
    """Fresh signature with the consistency sentence pre-defined."""
    sig = Signature()
    sig.define("Con", (), CON_BODY)
    return sig
