import pytest

from modalgen import small_formulas
from yablo.gl import (
    Atom,
    Box,
    Falsum,
    GLBudgetExceeded,
    MAX_DEPTH,
    KripkeModel,
    ModalParseError,
    ModelError,
    Not,
    NotSkeletonizable,
    atoms_of,
    brute_force,
    decide_gl,
    forces,
    parse_modal,
    print_modal,
    skeleton,
)
from yablo.parser import parse_formula

VALID = [
    "[]([]p -> p) -> []p",            # the characteristic scheme
    "[](p -> q) -> ([]p -> []q)",     # distribution
    "[]p -> [][]p",                   # transitivity is derivable here
    "[]bot -> []p",                   # explosion under the box
    "[](p | ~p)",                     # boxed tautology
    "[]~[]bot -> []bot",              # provable consistency forces collapse
    "[]([]p -> p) -> [](p & []p -> p)",
    "([]p & []q) -> [](p & q)",
]

INVALID = [
    "[]p -> p",                       # reflection fails
    "p -> []p",
    "~[]bot",                         # consistency is not valid
    "[]([]p -> p)",
    "[](p -> q) -> (p -> q)",
    "[]p | []~p",
]


def m(text: str):
    return parse_modal(text)


class TestModalSyntax:
    def test_parse_print_round_trip_exhaustive(self):
        for g in small_formulas(4):
            assert parse_modal(print_modal(g)) == g

    def test_precedence(self):
        assert m("[]p -> q & r") == m("([]p) -> (q & r)")
        assert m("~[]p") == Not(Box(Atom("p")))

    def test_atoms_of(self):
        assert atoms_of(m("[](p -> q) & ~r")) == frozenset({"p", "q", "r"})
        assert atoms_of(m("[]bot")) == frozenset()

    def test_parse_errors(self):
        for bad in ("p ->", "[p", "", "p @ q", "(p"):
            with pytest.raises(ModalParseError):
                parse_modal(bad)

    def test_nesting_cap(self):
        for opener in ("~", "[]", "("):
            text = opener * MAX_DEPTH + "p" + ")" * MAX_DEPTH * (opener == "(")
            assert parse_modal(text)
            with pytest.raises(ModalParseError, match="nested deeper") as e:
                parse_modal(opener + text + ")" * (opener == "("))
            assert e.value.pos == MAX_DEPTH * len(opener)
        with pytest.raises(ModalParseError, match="nested deeper") as e:
            parse_modal("p | " * (MAX_DEPTH + 1) + "p")
        assert e.value.pos == 4 * MAX_DEPTH + 2


class TestKripkeModels:
    def test_reflexive_edge_rejected(self):
        with pytest.raises(ModelError, match="irreflexivity"):
            KripkeModel(1, frozenset({(0, 0)}), (frozenset(),))

    def test_transitivity_required(self):
        with pytest.raises(ModelError, match="transitivity"):
            KripkeModel(3, frozenset({(0, 1), (1, 2)}),
                        (frozenset(), frozenset(), frozenset()))

    def test_valuation_arity(self):
        with pytest.raises(ModelError):
            KripkeModel(2, frozenset(), (frozenset(),))

    def test_forces(self):
        model = KripkeModel(2, frozenset({(0, 1)}),
                            (frozenset(), frozenset({"p"})))
        assert forces(model, 0, m("[]p"))
        assert forces(model, 1, m("[]p"))  # vacuously: the end world sees nothing
        assert not forces(model, 0, m("p"))
        assert forces(model, 0, m("[]p -> ~p"))


class TestTableau:
    @pytest.mark.parametrize("text", VALID)
    def test_valid(self, text):
        result = decide_gl(m(text))
        assert result.valid
        assert result.model is None
        assert result.visited > 0

    @pytest.mark.parametrize("text", INVALID)
    def test_invalid_with_replaying_countermodel(self, text):
        g = m(text)
        result = decide_gl(g)
        assert not result.valid
        assert result.model is not None
        assert not forces(result.model, result.world, g)

    def test_deterministic(self):
        a = decide_gl(m("[]p | []~p"))
        b = decide_gl(m("[]p | []~p"))
        assert (a.model, a.world) == (b.model, b.world)

    def test_budget_exhaustion(self):
        deep = m("[]([]([]([]p -> p) -> []p) -> q) -> ([]q | [](q -> p))")
        with pytest.raises(GLBudgetExceeded):
            decide_gl(deep, budget=3)


class TestBruteForce:
    @pytest.mark.parametrize("text", VALID)
    def test_valid(self, text):
        assert brute_force(m(text), 4).valid

    @pytest.mark.parametrize("text", INVALID)
    def test_invalid_with_replaying_countermodel(self, text):
        g = m(text)
        result = brute_force(g, 4)
        assert not result.valid
        assert not forces(result.model, result.world, g)

    def test_deterministic(self):
        a = brute_force(m("[]p -> p"), 4)
        b = brute_force(m("[]p -> p"), 4)
        assert (a.model, a.world) == (b.model, b.world)
        # the least countermodel for failed reflection: one world, p false there
        assert a.model.size == 1
        assert a.model.rel == frozenset()

    def test_agrees_with_tableau_exhaustively(self):
        disagreements = []
        for g in small_formulas(4):
            t = decide_gl(g)
            b = brute_force(g, 4)
            if t.valid != b.valid:
                disagreements.append(print_modal(g))
        assert not disagreements, disagreements[:10]


class TestSkeletons:
    def test_consistency_sentence_unfolds(self):
        assert skeleton(parse_formula("Con")) == Not(Box(Falsum()))
        assert skeleton(parse_formula("~Con")) == Not(Not(Box(Falsum())))

    def test_atoms_are_opaque(self):
        assert skeleton(parse_formula("YJ(k)")) == Atom("YJ(k)")
        assert skeleton(parse_formula("k < k + 1")) == Atom("k < k + 1")

    def test_quotation_applies_its_substitution(self):
        got = skeleton(parse_formula("Prov[ ~Q(a) ; a := x ]"))
        assert got == Box(Not(Atom("Q(x)")))
        # alpha-equal quotations share one skeleton
        assert got == skeleton(parse_formula("Prov[ ~Q(b) ; b := x ]"))

    def test_quantifiers_are_out_of_scope(self):
        with pytest.raises(NotSkeletonizable):
            skeleton(parse_formula("all x. x < k"))

    def test_derived_implication_shape_is_valid(self):
        got = skeleton(parse_formula("Prov[ Con ; ] -> ~Con"))
        assert decide_gl(got).valid
        assert brute_force(got, 4).valid
