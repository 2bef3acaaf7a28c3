import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_printer
import reference_substitute as reference
import reference_walkers as walkers
from astgen import VARS, rand_formula, rand_term, sample_formulas
from yablo import syntax
from yablo.kernel import arity_violation
from yablo.parser import MAX_DEPTH, ParseError, parse_formula, parse_term
from yablo.syntax import (
    And,
    Box,
    Eq,
    Exists,
    Falsum,
    ForAll,
    Imp,
    Lt,
    Not,
    Or,
    Plus,
    PredApp,
    Succ,
    SyntaxBuildError,
    Times,
    Var,
    Zero,
    alpha_eq,
    apply_box_subst,
    base_signature,
    canonical,
    free_vars,
    fresh_name,
    identity_box,
    iff,
    Num,
    numeral,
    print_formula,
    print_term,
    sigma1,
    substitute,
    substitute_many,
    substitute_term,
)


def f(text: str):
    return parse_formula(text)


def t(text: str):
    return parse_term(text)


class TestTerms:
    def test_numeral_round_trip(self):
        for n in (0, 1, 2, 17):
            assert numeral(n) == Num(n) and numeral(n).value == n

    def test_numeral_value_rejects_open_terms(self):
        assert not isinstance(Succ(Var("x")), Num)
        assert not isinstance(Plus(Zero(), Zero()), Num)

    def test_successor_of_a_numeral_is_the_next_numeral(self):
        for n in (0, 1, 9, 10**30):
            assert Succ(numeral(n)) == numeral(n + 1)
            assert hash(Succ(numeral(n))) == hash(numeral(n + 1))
        assert Zero() == numeral(0)
        assert Succ(Succ(Zero())) == numeral(2)
        assert t("S(S(3))") == numeral(5)
        assert substitute_term(Succ(Var("x")), {"x": numeral(4)}) == numeral(5)
        assert substitute(f("S(x) = y"), "x", numeral(4)) == f("5 = y")

    def test_numerals_are_non_negative(self):
        with pytest.raises(SyntaxBuildError):
            numeral(-1)

    def test_numerals_of_any_size_parse_and_print(self):
        n = 10**5000
        g = f(f"x = {'9' * 4300}")
        assert g.right == numeral(10**4300 - 1)
        assert print_term(Succ(g.right)) == "1" + "0" * 4300
        assert print_term(numeral(n)) == "1" + "0" * 5000
        assert t("S(S(1000000))") == numeral(1000002)

    def test_over_long_numeral_is_a_parse_error(self):
        with pytest.raises(ParseError) as e:
            parse_formula("x = " + "9" * 5000)
        assert e.value.pos == 4

    def test_reserved_variable_names(self):
        for bad in ("bot", "all", "self", "with"):
            with pytest.raises(SyntaxBuildError):
                Var(bad)

    def test_print_term_precedence(self):
        assert print_term(t("x * (y + z)")) == "x * (y + z)"
        assert print_term(t("x * y + z")) == "x * y + z"
        assert print_term(t("S(x + 1)")) == "S(x + 1)"


class TestNodeContract:
    SAMPLE = "all x. x < S(y) & P(x, y + 1) -> Prov[~Q(z) ; z := x * 2] | bot"

    def test_fields_cannot_be_assigned_or_deleted(self):
        g = f(self.SAMPLE)
        box = g.body.right.left
        for node, name in ((g, "body"), (g, "free"), (g.body, "left"), (box, "subst"),
                           (box, "uses"), (Num(3), "value"), (Var("x"), "name"),
                           (Succ(Var("x")), "arg"), (Falsum(), "free")):
            with pytest.raises(AttributeError):
                setattr(node, name, Falsum())
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert print_formula(g) == self.SAMPLE

    def test_deep_chains_hash(self):
        g = Eq(Var("x"), Zero())
        for _ in range(5000):
            g = Not(g)
        assert hash(g) != hash(g.sub) and g in {g}

    def test_equal_formulas_built_apart_hash_equal(self):
        built = ForAll("x", Imp(And(Lt(Var("x"), Succ(Var("y"))),
                                    PredApp("P", (Var("x"), Plus(Var("y"), numeral(1))))),
                                Or(Box(Not(PredApp("Q", (Var("z"),))),
                                       (("z", Times(Var("x"), numeral(2))),)), Falsum())))
        for g in (f(self.SAMPLE), built):
            assert g == f(self.SAMPLE) and g is not f(self.SAMPLE)
            assert hash(g) == hash(f(self.SAMPLE))
        assert Succ(numeral(2)) == numeral(3) and hash(Succ(numeral(2))) == hash(numeral(3))

    def test_kinds_with_equal_operands_differ(self):
        x, y = Var("x"), Var("y")
        assert len({Plus(x, y), Times(x, y), Eq(x, y), Lt(x, y), Plus(y, x)}) == 5
        assert And(Eq(x, y), Falsum()) != Or(Eq(x, y), Falsum())
        assert ForAll("x", Eq(x, y)) != Exists("x", Eq(x, y))

    def test_repr_names_the_fields(self):
        assert repr(PredApp("P", (Succ(Var("x")),))) == \
            "PredApp(name='P', args=(Succ(arg=Var(name='x')),))"
        assert repr(Box(Falsum())) == "Box(template=Falsum(), subst=())"


class TestBoxWellFormedness:
    def test_domain_must_cover_free_variables(self):
        with pytest.raises(SyntaxBuildError):
            Box(Lt(Var("x"), Var("y")), ((("x"), Var("x")),))

    def test_domain_must_not_exceed_free_variables(self):
        with pytest.raises(SyntaxBuildError):
            Box(Falsum(), (("x", Var("x")),))

    def test_duplicate_domain_entries_rejected(self):
        with pytest.raises(SyntaxBuildError):
            Box(Lt(Var("x"), numeral(1)), (("x", Zero()), ("x", Var("y"))))

    def test_free_vars_are_the_range_variables(self):
        b = f("Prov[ x < y ; x := u + 1, y := 0 ]")
        assert free_vars(b) == {"u"}

    def test_apply_box_subst(self):
        b = f("Prov[ x < y ; x := u + 1, y := 0 ]")
        assert apply_box_subst(b) == f("u + 1 < 0")

    def test_identity_box(self):
        g = f("P & x < y")
        assert identity_box(g) == f("Prov[ P & x < y ; x := x, y := y ]")


class TestAlphaEquivalence:
    def test_quantifier_renaming(self):
        assert alpha_eq(f("all x. x < y"), f("all z. z < y"))
        assert not alpha_eq(f("all x. x < y"), f("all z. z < x"))

    def test_box_domain_is_a_binder(self):
        assert alpha_eq(f("Prov[ ~Q(a) ; a := x ]"), f("Prov[ ~Q(b) ; b := x ]"))
        assert not alpha_eq(f("Prov[ ~Q(a) ; a := x ]"), f("Prov[ ~Q(b) ; b := y ]"))

    def test_box_template_shape_matters(self):
        one_var = f("Prov[ x < x + 1 ; x := x ]")
        two_var = f("Prov[ a < b ; a := x, b := x + 1 ]")
        assert not alpha_eq(one_var, two_var)

    def test_nested_binders(self):
        assert alpha_eq(
            f("all x. exists y. x < y"),
            f("all u. exists x. u < x"),
        )

    def test_canonical_is_hashable_and_stable(self):
        g = f("all x. (k < x) -> Prov[ ~Q(x) ; x := x ]")
        assert canonical(g) == canonical(f("all z. (k < z) -> Prov[ ~Q(u) ; u := z ]"))
        hash(canonical(g))


class TestSubstitution:
    def test_capture_avoidance_renames_binder(self):
        out = substitute(f("all y. x < y"), "x", Var("y"))
        assert alpha_eq(out, f("all u. y < u"))
        assert out != f("all y. y < y")

    def test_not_free_is_identity(self):
        g = f("all x. x < k")
        assert substitute(g, "x", numeral(3)) == g

    def test_parallel_swap(self):
        out = substitute_many(f("x < y"), {"x": Var("y"), "y": Var("x")})
        assert out == f("y < x")

    def test_box_ranges_only(self):
        g = f("Prov[ x < 1 ; x := x ]")
        out = substitute(g, "x", numeral(4))
        assert out == f("Prov[ x < 1 ; x := 4 ]")

    def test_shadowed_binder_untouched(self):
        g = f("(all x. x < k) & x < k")
        out = substitute(g, "x", numeral(2))
        assert out == f("(all x. x < k) & 2 < k")

    def test_matches_the_unmemoized_reference(self, monkeypatch):
        # nested binders over the variables the substituted terms mention, so
        # that many substitutions capture and fresh_name picks new binders
        renames = []
        pick = syntax.fresh_name

        def counted(base, avoid):
            renames.append(base)
            return pick(base, avoid)

        monkeypatch.setattr(syntax, "fresh_name", counted)
        fresh = [f"{v}0" for v in VARS]  # what fresh_name tries first, free in the body
        rng = random.Random(20261019)
        for _ in range(400):
            keys = rng.sample(VARS, rng.randrange(1, 4))
            others = [v for v in VARS if v not in keys]
            g = rand_formula(rng, rng.randrange(3, 7), VARS + fresh)
            for _ in range(rng.randrange(1, 5)):
                g = (ForAll if rng.randrange(2) else Exists)(rng.choice(others), g)
            sigma = {v: Plus(Var(rng.choice(others)), rand_term(rng, 1, VARS)) for v in keys}
            assert substitute_many(g, sigma) == reference.substitute_many(g, sigma)
        assert len(renames) > 50

    def test_each_quantifier_body_is_scanned_once(self, monkeypatch):
        # 200 nested binders over k < y.  A node's free variables are computed
        # once, when it is built, and stored in its free slot; rescanning each
        # body at its binder, as the reference substitution does with the
        # recursive walker, would visit about 200 * 200 / 2 nodes.  Both are
        # counted: each slot fill of free, and each walker call.
        g = Lt(Var("k"), Var("y"))
        for i in range(200):
            g = ForAll(f"y{i}", g)
        visits = []

        def counted(compute):
            def visit(node, *rest):
                visits.append(node)
                return compute(node, *rest)
            return visit

        def fill(node, name, value):
            if name == "free":
                visits.append(node)
            object.__setattr__(node, name, value)

        monkeypatch.setattr(syntax, "_set", fill)
        monkeypatch.setattr(walkers, "free_vars", counted(walkers.free_vars))
        monkeypatch.setattr(reference, "free_vars", walkers.free_vars)
        out = substitute_many(g, {"k": numeral(0)})
        assert len(visits) < 4 * 200
        visits.clear()
        assert reference.substitute_many(g, {"k": numeral(0)}) == out
        assert len(visits) > 4 * 200, "the bound above no longer tells a rescanning substitution"

    def test_fresh_name_avoids(self):
        assert fresh_name("x", {"x", "x0"}) == "x1"
        assert fresh_name("y", set()) == "y0"


def subformulas(g):
    """g and every formula below it, quotation templates included."""
    todo = [g]
    while todo:
        h = todo.pop()
        yield h
        match h:
            case Not(s):
                todo.append(s)
            case Imp(l, r) | And(l, r) | Or(l, r):
                todo += [l, r]
            case ForAll(_, b) | Exists(_, b):
                todo.append(b)
            case Box(tpl, _):
                todo.append(tpl)


class TestNodeAttributesAgainstWalkers:
    """Each node's free and uses against the recursive walkers they replaced,
    on seeded formulas with shadowing binders and nested quotations."""

    def formulas(self):
        rng = random.Random(20261020)
        for _ in range(500):
            g = rand_formula(rng, rng.randrange(1, 7))
            for _ in range(rng.randrange(3)):  # rebind names the body may bind or use
                g = (ForAll if rng.randrange(2) else Exists)(rng.choice(VARS), g)
            if rng.randrange(3) == 0:  # quote it, with ranges in the enclosing scope
                g = Box(g, tuple((v, rand_term(rng, 1, VARS)) for v in sorted(walkers.free_vars(g))))
            yield g

    def test_variable_order_and_sets(self):
        shadowed = nested = 0
        for g in self.formulas():
            for h in subformulas(g):
                assert list(h.free) == walkers._template_var_order(h), print_formula(h)
                assert free_vars(h) == walkers.free_vars(h) == set(h.free), print_formula(h)
                if isinstance(h, (ForAll, Exists)):
                    shadowed += any(isinstance(b, (ForAll, Exists)) and b.var == h.var
                                    for b in subformulas(h.body))
                if isinstance(h, Box):
                    nested += any(isinstance(b, Box) for b in subformulas(h.template))
        assert shadowed > 50 and nested > 50

    def test_term_variables(self):
        rng = random.Random(20261021)
        for _ in range(500):
            u = rand_term(rng, rng.randrange(0, 5), VARS)
            assert set(u.free) == walkers.term_vars(u)
            assert list(u.free) == walkers._template_var_order(Eq(u, Zero()))

    def test_arity_messages(self):
        sig = base_signature()
        sig.declare("P", 0)
        sig.declare("Q", 2)  # the generator applies Q to one argument
        sig.declare("R", 2)  # YJ stays undeclared
        seen = set()
        for g in self.formulas():
            for h in subformulas(g):
                got = arity_violation(h, sig)
                assert got == walkers.arity_violation(h, sig), print_formula(h)
                seen.add(got.split()[0] if got else None)
        assert seen == {None, "unknown", "predicate"}


class TestSigmaOne:
    def test_atoms_and_boxes_are_existential_fragment(self):
        assert sigma1(f("x < y"))
        assert sigma1(f("x = y"))
        assert sigma1(f("Prov[ bot ; ]"))

    def test_closure(self):
        assert sigma1(f("x < y & exists z. z = x"))
        assert sigma1(f("all u. (u < k) -> u < S(k)"))

    def test_unbounded_universal_is_not(self):
        assert not sigma1(f("all u. u < k"))
        assert not sigma1(f("P -> Q(x)"))


class TestPrinting:
    def test_golden_strings(self):
        cases = [
            "k < k + 1",
            "(Con -> YG(k)) & (YG(k) -> Con)",
            "all x. k < x -> Prov[~YJ(x) ; x := x]",
            "~Prov[bot ;]",
            "exists x. k < x & ~Prov[~YJ(z) ; z := x]",
        ]
        for text in cases:
            assert print_formula(f(text)) == text

    def test_round_trip_samples(self):
        for g in sample_formulas(300, seed=20250819):
            assert parse_formula(print_formula(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32))
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        g = rand_formula(rng, rng.randrange(1, 5))
        assert parse_formula(print_formula(g)) == g


class TestPrinterAgainstReference:
    """print_formula and print_term against tests/reference_printer.py, the
    printer before its operator tables: the same strings, byte for byte."""

    def same(self, g) -> None:
        assert print_formula(g) == reference_printer.print_formula(g)

    def test_sampled_formulas(self):
        for seed in range(4):
            for g in sample_formulas(250, seed, depth=5):
                self.same(g)

    def test_sampled_terms(self):
        rng = random.Random(3)
        for _ in range(500):
            u = rand_term(rng, rng.randrange(1, 6), VARS)
            assert print_term(u) == reference_printer.print_term(u)

    def test_hand_cases(self):
        p, q = PredApp("P"), PredApp("Q", (Var("x"),))
        every, some = ForAll("x", q), Exists("x", q)
        x, y, z = Var("x"), Var("y"), Var("z")
        terms = [Plus(Times(x, y), Times(y, z)), Times(Plus(x, y), Plus(y, z)),
                 Plus(x, Plus(y, z)), Plus(Plus(x, y), z), Times(x, Times(y, z)),
                 Times(Times(x, y), z), Times(Succ(Plus(x, y)), numeral(2)),
                 Plus(numeral(10**5000 + 1), Times(x, numeral(7)))]
        cases = [Not(every), Not(some), And(every, p), And(p, some), Imp(every, p),
                 Imp(p, every), Or(some, every), Not(Not(And(p, q))),
                 And(Or(p, q), p), Or(And(p, q), p), Or(p, And(q, p)), And(p, Or(q, p)),
                 Imp(Imp(p, q), p), Imp(p, Imp(q, p)), And(And(p, q), p), Or(Or(p, q), p),
                 Imp(Or(p, q), And(q, p)), ForAll("x", Imp(every, some))]
        cases += [Eq(u, w) for u in terms for w in terms[:3]] + [Lt(u, x) for u in terms]
        for g in cases:
            self.same(g)


class TestParser:
    def test_implication_is_right_associative(self):
        assert f("P -> Q(x) -> R(x, y)") == f("P -> (Q(x) -> R(x, y))")

    def test_quantifier_body_extends_right(self):
        assert f("all x. x < y -> P") == ForAll("x", Imp(Lt(Var("x"), Var("y")), PredApp("P")))

    def test_omitted_box_subst_completed(self):
        assert f("Prov[ x < y ]") == f("Prov[ x < y ; x := x, y := y ]")

    def test_greater_than_flips(self):
        assert f("x > y") == Lt(Var("y"), Var("x"))

    def test_error_position(self):
        with pytest.raises(ParseError) as e:
            parse_formula("x < ")
        assert "column" in str(e.value)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("x < y y")

    def test_bad_box_subst_rejected(self):
        with pytest.raises((ParseError, SyntaxBuildError)):
            parse_formula("Prov[ x < y ; x := 0 ]")

    @pytest.mark.parametrize("nested", [
        lambda n: "~" * n + "0 = 0",
        lambda n: "(" * n + "0 = 0" + ")" * n,
        lambda n: "S(" * n + "x" + ")" * n + " = x",
        lambda n: "Prov[" * n + "0 = 0" + "]" * n,
        lambda n: "all x." * n + "x = x",
        lambda n: "0 = 0 " + "-> 0 = 0 " * n,
        lambda n: "x = x " + "* x " * n,
    ], ids=["not", "paren", "succ", "prov", "all", "imp", "times"])
    def test_nesting_cap(self, nested):
        parse_formula(nested(MAX_DEPTH))
        deeper = nested(MAX_DEPTH + 1)
        with pytest.raises(ParseError, match="nested deeper than") as e:
            parse_formula(deeper)
        # the token that crosses the cap is where the text departs from the capped one
        assert e.value.pos == len(os.path.commonprefix([nested(MAX_DEPTH), deeper]))

    def test_terms_share_the_cap(self):
        parse_term("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH)
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_term("x" + " + x" * (MAX_DEPTH + 1))

    @pytest.mark.parametrize("text, pos", [
        ("x = \u00b2", 4), ("x = 1\u0663", 5), ("\u03a9mega", 0), ("P\u00e9(x)", 1), ("x\u00b2 = x", 1),
    ])
    def test_identifiers_and_numerals_are_ascii(self, text, pos):
        with pytest.raises(ParseError, match="unexpected character") as e:
            parse_formula(text)
        assert e.value.pos == pos


class TestSignature:
    def test_base_declarations(self):
        sig = base_signature()
        assert sig.arity("Con") == 0
        assert alpha_eq(sig.instantiate("Con", ()), Not(Box(Falsum())))

    def test_define_and_instantiate(self):
        sig = base_signature()
        sig.define("D", ("k",), Lt(Var("k"), numeral(1)))
        assert sig.instantiate("D", (numeral(0),)) == f("0 < 1")

    def test_redefinition_must_be_alpha_equal(self):
        sig = base_signature()
        sig.define("D", ("k",), f("all x. k < x"))
        sig.define("D", ("k",), f("all z. k < z"))
        with pytest.raises(SyntaxBuildError):
            sig.define("D", ("k",), f("all x. x < k"))

    def test_iff_shape(self):
        assert iff(f("P"), f("Q(x)")) == And(Imp(f("P"), f("Q(x)")), Imp(f("Q(x)"), f("P")))
