import random
import sys
from functools import reduce
from pathlib import Path

import pytest

import reference_brute_force as reference
from modalgen import random_formula, small_formulas
from yablo import gl, kernel
from yablo import syntax as fol
from yablo.gl import (
    And,
    Atom,
    Box,
    Falsum,
    GLBudgetExceeded,
    Imp,
    KripkeModel,
    ModelError,
    Not,
    NotSkeletonizable,
    Or,
    _transitive_relations,
    atoms_of,
    brute_force,
    decide_gl,
    forces,
    parse_modal,
    print_modal,
    skeleton,
)
from yablo.kernel import _KernelChecker
from yablo.meta import _MetaChecker
from yablo.parser import MAX_DEPTH, ParseError, parse_formula

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

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
        for g in small_formulas(5):
            assert parse_modal(print_modal(g)) == g

    def test_parse_print_round_trip_random(self):
        rng = random.Random(14)
        for _ in range(200):
            g = random_formula(rng, ("p", "q", "r"), rng.randrange(40, 141))
            assert parse_modal(print_modal(g)) == g

    def test_chains_associate_to_the_right(self):
        assert m("p & q & r") == m("p & (q & r)")
        assert m("p | q | r") == m("p | (q | r)")
        assert m("p -> q -> r") == m("p -> (q -> r)")

    def test_object_language_tokens(self):
        assert m("[ ]p") == Box(Atom("p"))
        assert m("[]p_1 & bot") == And(Box(Atom("p_1")), Falsum())
        for bad in ("_a", "\u00e4", "p & \u00e4", "[p]", "1", "p."):
            with pytest.raises(ParseError):
                parse_modal(bad)

    def test_precedence(self):
        assert m("[]p -> q & r") == m("([]p) -> (q & r)")
        assert m("~[]p") == Not(Box(Atom("p")))

    def test_atoms_of(self):
        assert atoms_of(m("[](p -> q) & ~r")) == frozenset({"p", "q", "r"})
        assert atoms_of(m("[]bot")) == frozenset()

    def test_parse_errors(self):
        for bad in ("p ->", "[p", "", "p @ q", "(p"):
            with pytest.raises(ParseError):
                parse_modal(bad)

    def test_nesting_cap(self):
        for opener in ("~", "[]", "("):
            text = opener * MAX_DEPTH + "p" + ")" * MAX_DEPTH * (opener == "(")
            assert parse_modal(text)
            with pytest.raises(ParseError, match="nested deeper") as e:
                parse_modal(opener + text + ")" * (opener == "("))
            assert e.value.pos == MAX_DEPTH * len(opener)
        with pytest.raises(ParseError, match="nested deeper") as e:
            parse_modal("p | " * (MAX_DEPTH + 1) + "p")
        assert e.value.pos == 4 * MAX_DEPTH + 2


class TestValueContract:
    def test_fields_cannot_be_assigned_or_deleted(self):
        g = m("[](p -> q) & ~bot")
        model = KripkeModel(2, frozenset({(0, 1)}), (frozenset(), frozenset({"p"})))
        for value, name in ((g, "left"), (g.left, "sub"), (g.right, "sub"),
                            (g.left.sub.left, "name"), (model, "rel"),
                            (decide_gl(m("p")), "valid")):
            with pytest.raises(AttributeError):
                setattr(value, name, Falsum())
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert print_modal(g) == "[](p -> q) & ~bot"

    def test_deep_chains_hash(self):
        g = Atom("p")
        for _ in range(5000):
            g = Box(g)
        assert hash(g) != hash(g.sub) and g in {g}

    def test_equal_formulas_built_apart_hash_equal(self):
        built = Imp(Box(Imp(Box(Atom("p")), Atom("p"))), Box(Atom("p")))
        assert built == m("[]([]p -> p) -> []p") and hash(built) == hash(m("[]([]p -> p) -> []p"))
        assert len({Not(Atom("p")), Box(Atom("p")), And(Atom("p"), Atom("q")),
                    Or(Atom("p"), Atom("q")), And(Atom("q"), Atom("p"))}) == 5

    def test_results_compare_by_their_fields(self):
        assert decide_gl(m("[]p -> p")) == decide_gl(m("[]p -> p"))
        assert decide_gl(m("p -> p")) != decide_gl(m("q -> q | p"))
        assert repr(decide_gl(m("p -> p"))) == \
            "GLResult(valid=True, model=None, world=None, visited=2)"
        with pytest.raises(TypeError):
            KripkeModel(1, frozenset())


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

    def test_jump_keeps_the_loeb_premise_and_the_boxes(self):
        # K4's jump leaves the box jumped on out of its premise, and K's
        # leaves out the other boxes too: each then refutes one of these
        for text in ("[]([]p -> p) -> []p", "[]p -> [][]p"):
            assert decide_gl(m(text)).valid, text

    def test_budget_exhaustion(self):
        deep = m("[]([]([]([]p -> p) -> []p) -> q) -> ([]q | [](q -> p))")
        with pytest.raises(GLBudgetExceeded):
            decide_gl(deep, budget=3)

    def test_each_node_is_printed_once_per_search(self, monkeypatch):
        # rules are tried in the printed order of a sequent's formulas;
        # printing each formula anew at every sequent made about 354 k
        # print_modal calls on this chain, printing each node once about 5 k
        calls = 0
        real = gl.print_modal

        def counted(f, prec=0):
            nonlocal calls
            calls += 1
            return real(f, prec)

        monkeypatch.setattr(gl, "print_modal", counted)
        result = decide_gl(m("[]" * 100 + "p"))
        assert not result.valid
        assert result.visited == 101
        assert calls < 20_000


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


class TestBruteForceAgainstPerValuation:
    """The bit-parallel scan returns the same GLResult, model, world and
    visited count included, as the per-valuation scan it replaced."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_small_formulas(self, k):
        for g in small_formulas(5):
            assert brute_force(g, k) == reference.brute_force(g, k), print_modal(g)

    def test_random_formulas_of_three_to_five_atoms(self):
        rng = random.Random(11)
        cases = []
        while len(cases) < 40:
            atoms = tuple(f"p{i}" for i in range(rng.choice((3, 4, 5))))
            g = random_formula(rng, atoms, rng.randrange(2 * len(atoms), 4 * len(atoms) + 1))
            if len(atoms_of(g)) == len(atoms):
                cases.append(g)
        valid = 0
        for g in cases:
            for k in (1, 2, 3):
                expected = reference.brute_force(g, k)
                assert brute_force(g, k) == expected, (print_modal(g), k)
            valid += expected.valid
        assert 0 < valid < len(cases)

    def test_countermodels_past_the_first_block(self):
        # seventeen atoms on one world: 2**17 valuations, two blocks of 2**16
        names = [f"p{k:02}" for k in range(17)]
        g = m(f"p16 -> ~p03 | ({' & '.join(names[:16])} & bot)")
        expected = reference.brute_force(g, 1)
        assert expected.visited == (1 << 16) + 8 + 1
        assert brute_force(g, 1) == expected
        # nine atoms on two worlds: h at world 1 is bit 16 of the valuation
        g = m("[]bot | ~[]h | ~c | (a & b & d & e & f & g & i & bot)")
        got = brute_force(g, 2)
        assert got.model.rel == frozenset({(0, 1)})
        assert got.model.val == (frozenset({"c"}), frozenset({"h"}))
        assert got.world == 0
        assert got.visited == (1 << 9) + (1 << 18) + (1 << 16) + 4 + 1
        assert brute_force(g, 2, budget=got.visited) == got
        with pytest.raises(GLBudgetExceeded):
            brute_force(g, 2, budget=got.visited - 1)

    def test_partial_orders_in_mask_order(self):
        assert [len(_transitive_relations(n)) for n in range(1, 6)] == [1, 3, 19, 219, 4231]
        for n in range(5):
            assert _transitive_relations(n) == reference._transitive_relations(n)
        pairs = [(i, j) for i in range(5) for j in range(5) if i != j]
        masks = [sum(1 << pairs.index(e) for e in rel) for rel in _transitive_relations(5)]
        assert masks == sorted(set(masks))
        for rel in _transitive_relations(5):
            assert all(a != b for a, b in rel)
            assert all((a, d) in rel for a, b in rel for c, d in rel if b == c)


class TestBruteForceBudget:
    @pytest.mark.parametrize("text", ["[]p -> [][]p", "[](p -> q) -> ([]p -> p)"])
    def test_budget_bounds_visited_exactly(self, text):
        g = m(text)
        full = brute_force(g, 3)
        assert brute_force(g, 3, budget=full.visited) == full
        with pytest.raises(GLBudgetExceeded):
            brute_force(g, 3, budget=full.visited - 1)

    def test_frames_too_many_for_the_rest_of_the_budget(self):
        # 242 pairs up to four worlds; the frames on five could number 219 * 3**4
        with pytest.raises(GLBudgetExceeded, match="frames on 5 worlds"):
            brute_force(m("~bot"), 5, budget=1000)

    def test_modal_workload_scans_stay_far_below_the_work_cap(self, monkeypatch):
        workload = workloads.ModalWorkload(workloads.Api(), seed=7)
        monkeypatch.setattr(gl, "MAX_BRUTE_WORK", gl.MAX_BRUTE_WORK // 16)
        for g in workload.small:
            brute_force(g, 4)
        for g in workload.random:
            brute_force(g, 2)


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


def schema_skeleton(premises, conclusion):
    """The modal skeleton of `p1 -> ... -> pn -> c` for a rule schema, each
    metavariable an opaque atom."""
    return skeleton(reduce(lambda c, p: fol.Imp(p, c), reversed(premises), conclusion))


class TestRuleSchemas:
    """Every rule schema of both checkers is valid read as a GL formula, so
    each rule only ever derives consequences of the steps it cites."""

    @pytest.mark.parametrize("schema", [pytest.param(schema, id=rule)
                                        for checker in (_KernelChecker, _MetaChecker)
                                        for rule, schema in checker.schemas.items()])
    def test_schema_is_gl_valid(self, schema):
        assert decide_gl(schema_skeleton(*schema)).valid

    def test_invalid_schema_is_refuted(self):
        a, b = kernel.A, kernel.B
        assert not decide_gl(schema_skeleton((fol.Or(a, b),), a)).valid
