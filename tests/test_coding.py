import dataclasses
import math
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_coding
from astgen import VARS, rand_formula, sample_formulas
from yablo import coding
from yablo.coding import (
    MAX_CODE_BITS,
    TAG_BOX,
    TAG_EQ,
    TAG_FALSUM,
    TAG_FORALL,
    TAG_NOT,
    TAG_NUM,
    TAG_PRED,
    TAG_SUCC,
    TAG_VAR,
    DiagonalError,
    DiagonalResult,
    NotACode,
    code_bits,
    code_from_str,
    code_to_str,
    decode,
    decode_name,
    decode_term,
    diagonalize,
    encode,
    encode_term,
    fix_intro,
    name_code,
    numeral_code,
    pair,
    pred_rename,
    replay_trace,
    sub_code,
    trace_labels,
    unpair,
)
from yablo.corpus import definitions_used, golden_codes
from yablo.parser import parse_formula, parse_term
from yablo.scripts import parse_kernel_script
from yablo.syntax import (
    And,
    Box,
    Exists,
    Falsum,
    ForAll,
    Imp,
    Lt,
    Not,
    Or,
    PredApp,
    Succ,
    Var,
    Zero,
    alpha_eq,
    base_signature,
    free_vars,
    iff,
    numeral,
    substitute,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def f(text: str):
    return parse_formula(text)


class TestPairing:
    def test_hand_values(self):
        # (a + b)(a + b + 1)/2 + b + 1, so the image starts at 1
        assert pair(0, 0) == 1
        assert pair(1, 0) == 2
        assert pair(0, 1) == 3
        assert pair(1, 5) == 27
        assert pair(6, 0) == 22

    def test_unpair_inverts_pair(self):
        for a in range(25):
            for b in range(25):
                assert unpair(pair(a, b)) == (a, b)

    def test_every_positive_is_a_pair(self):
        seen = set()
        for p in range(1, 300):
            a, b = unpair(p)
            assert pair(a, b) == p
            seen.add((a, b))
        assert len(seen) == 299

    def test_zero_is_not_a_pair(self):
        with pytest.raises(NotACode):
            unpair(0)
        with pytest.raises(ValueError):
            pair(-1, 0)


def seeded_roots() -> list[int]:
    """Seeded k of 1 kbit to 1 Mbit, top bit set."""
    rng = random.Random(18)
    return [rng.getrandbits(bits) | 1 << bits - 1
            for bits in (1000, 2001, 3000, 10_000, 33_333, 100_000, 1_000_000)]


class TestSquareRoot:
    """The square root unpair takes, and its division, against math.isqrt
    and divmod."""

    def test_every_small_number(self):
        for n in range(1 << 16):
            s = math.isqrt(n)
            assert coding._sqrtrem(n) == (s, n - s * s)

    def test_squares_and_their_neighbours(self):
        # math.isqrt's answers are known here without calling it on megabits
        for k in seeded_roots():
            for n, root in ((k * k, k), (k * k - 1, k - 1), (k * k + 2 * k, k)):
                assert coding._sqrtrem(n) == (root, n - root * root), k.bit_length()
                if k.bit_length() <= 100_000:
                    assert root == math.isqrt(n)

    def test_powers_of_two_and_the_cutoffs(self):
        for e in [*range(2 * coding._SQRT_CUTOFF), 100_001, 100_002]:
            for n in (1 << e, (1 << e) - 1):
                s = math.isqrt(n)
                assert coding._sqrtrem(n) == (s, n - s * s), e
        assert coding._sqrtrem(1 << (1 << 21)) == (1 << (1 << 20), 0)
        rng = random.Random(19)
        # a few bits either side of the root's cutoff, and of where the
        # root's divisor, about a quarter of its input, crosses the division's
        around = [c + d for c in (coding._SQRT_CUTOFF, 4 * coding._DIV_CUTOFF)
                  for d in range(-6, 7)]
        for bits in around:
            for _ in range(20):
                n = rng.getrandbits(bits) | 1 << bits - 1
                s = math.isqrt(n)
                assert coding._sqrtrem(n) == (s, n - s * s), bits

    def test_division_agrees_with_divmod(self):
        rng = random.Random(20)
        widths = [c + d for c in (coding._DIV_CUTOFF, 2 * coding._DIV_CUTOFF) for d in (-1, 0, 1)]
        for n in widths + [33_333, 100_000]:
            for _ in range(10):
                b = rng.getrandbits(n) | 1 << n - 1
                for a in (rng.randrange(b << n), rng.getrandbits(n), (b << n) - 1):
                    assert coding._div2n1n(a, b, n) == divmod(a, b), n

    def test_unpair_inverts_pair_on_megabit_pairs(self):
        rng = random.Random(21)
        for bits_a, bits_b in ((5000, 5000), (1_000_000, 3), (2, 1_000_000),
                               (250_000, 999_999), (1_000_000, 1_000_000)):
            a, b = rng.getrandbits(bits_a), rng.getrandbits(bits_b)
            assert unpair(pair(a, b)) == (a, b), (bits_a, bits_b)

    def test_fifteen_negations_decode_within_two_seconds(self):
        g = f("~" * 15 + "x = 0")
        code = encode(g)
        assert code.bit_length() > 900_000
        start = time.perf_counter()
        assert decode(code) == g
        assert time.perf_counter() - start < 2


class TestNameCodes:
    def test_single_letter_ranks(self):
        assert name_code("a") == 0
        assert name_code("b") == 1
        assert name_code("z") == 25
        assert name_code("A") == 26
        assert name_code("Z") == 51
        assert name_code("aa") == 52

    def test_round_trip(self):
        for name in ("a", "z", "Z", "k", "w0", "Con", "YJ", "self", "x_1", "Prov"):
            assert decode_name(name_code(name)) == name

    def test_length_orders_before_lexicographic(self):
        longest_one = name_code("Z")
        assert all(name_code(c) <= longest_one for c in "abcXYZ")
        assert name_code("aa") > longest_one
        assert name_code("a0") > name_code("aa")  # digits rank after letters

    def test_rejects_non_identifiers(self):
        for bad in ("", "0x", "has space", "dash-ed"):
            with pytest.raises(ValueError):
                name_code(bad)


class TestEncoding:
    def test_structural_values(self):
        # every node is pair(tag, payload); leaves carry their rank directly
        assert encode(Falsum()) == pair(TAG_FALSUM, 0) == 22
        assert encode_term(Zero()) == pair(TAG_NUM, 0) == 2
        assert encode_term(numeral(5)) == pair(TAG_NUM, 5) == 27
        assert encode_term(Var("a")) == pair(TAG_VAR, 0)
        assert encode(f("0 = 0")) == pair(TAG_EQ, pair(2, 2))
        assert encode(f("~bot")) == pair(TAG_NOT, 22)
        assert encode(f("all a. bot")) == pair(TAG_FORALL, pair(0, 22))

    def test_numeral_towers_fold(self):
        assert encode_term(Succ(Zero())) == pair(TAG_NUM, 1)
        assert encode_term(Succ(Var("x"))) == pair(TAG_SUCC, encode_term(Var("x")))
        assert numeral_code(9) == encode_term(numeral(9))

    def test_numeral_codes_grow_with_value(self):
        codes = [numeral_code(n) for n in range(65)]
        assert codes == sorted(set(codes))

    def test_predicate_and_box_round_trip(self):
        cases = [
            "Con",
            "YJ(k + 1)",
            "R(x, S(y))",
            "Prov[ bot ; ]",
            "Prov[ x < y ; x := u + 1, y := 0 ]",
            "all x. k < x -> Prov[ ~YJ(x) ; x := x ]",
        ]
        for text in cases:
            g = f(text)
            assert decode(encode(g)) == g

    def test_decode_rejects_non_codes(self):
        with pytest.raises(NotACode):
            decode(0)
        with pytest.raises(NotACode):
            decode(pair(TAG_SUCC, 2))  # term tag where a formula is required
        with pytest.raises(NotACode):
            decode_term(pair(TAG_EQ, pair(2, 2)))
        with pytest.raises(NotACode):
            decode(pair(TAG_FALSUM, 3))  # falsum carries no payload

    def test_round_trip_samples(self):
        for g in sample_formulas(300, seed=11):
            assert decode(encode(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32))
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        g = rand_formula(rng, rng.randrange(1, 5))
        assert decode(encode(g)) == g

    def test_big_code_strings(self):
        n = 10**5000 + 7
        assert code_from_str(code_to_str(n)) == n


class TestCodeSubstitution:
    def test_matches_syntax_route_on_samples(self):
        rng = random.Random(77)
        for g in sample_formulas(150, seed=77):
            v = rng.choice(VARS)
            n = rng.randrange(33)
            assert sub_code(encode(g), v, n) == encode(substitute(g, v, numeral(n)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 32))
    def test_commutes_with_encode(self, seed, n):
        rng = random.Random(seed)
        g = rand_formula(rng, rng.randrange(1, 5))
        v = rng.choice(VARS)
        assert sub_code(encode(g), v, n) == encode(substitute(g, v, numeral(n)))

    def test_shadowing_binders_block_substitution(self):
        g = f("(all x. x < k) & x < k")
        assert sub_code(encode(g), "x", 2) == encode(f("(all x. x < k) & 2 < k"))

    def test_box_templates_untouched(self):
        g = f("Prov[ x < 1 ; x := x ]")
        assert sub_code(encode(g), "x", 4) == encode(f("Prov[ x < 1 ; x := 4 ]"))

    def test_successor_folds_into_numeral(self):
        g = f("S(x) = y")
        assert sub_code(encode(g), "x", 3) == encode(f("4 = y"))


def judged_template() -> tuple:
    template = ForAll(
        "x",
        Imp(
            Lt(Var("k"), Var("x")),
            Box(Not(PredApp("H", (Var("x"),))), (("x", Var("x")),)),
        ),
    )
    return template, "H", ("k",)


class TestDiagonalization:
    def test_fixed_point_is_the_named_atom(self):
        template, hole, params = judged_template()
        result = diagonalize(template, hole, params)
        assert result.fixed_point == PredApp("H", (Var("k"),))
        assert alpha_eq(result.biconditional, iff(result.fixed_point, template))
        assert replay_trace(result)

    def test_trace_ends_at_fixed_point_code(self):
        template, hole, params = judged_template()
        result = diagonalize(template, hole, params)
        labels = [label for label, _ in result.trace]
        assert labels[0] == "template"
        assert labels[-1] == "fixed-point"
        assert result.trace[-1][1] == encode(result.fixed_point)

    def test_hole_outside_quotation_rejected(self):
        with pytest.raises(DiagonalError):
            diagonalize(Imp(PredApp("H"), Falsum()), "H", ())

    @pytest.mark.parametrize("template, params", [
        ("x < k", ("k",)),
        ("k < k", ("k", "k")),
        ("Prov[ H(k, k) ; k := k ]", ("k",)),
        ("Prov[ H ; ]", ("k",)),
    ], ids=["free-variable", "duplicate-parameter", "extra-argument", "missing-argument"])
    def test_ill_formed_definitions_rejected(self, template, params):
        with pytest.raises(DiagonalError):
            diagonalize(f(template), "H", params)

    def test_absent_hole_fixes_the_template_itself(self):
        template = f("all x. k < x")
        result = diagonalize(template, "H", ("k",))
        assert result.fixed_point == template

    # The replay checks below are called through coding.replay_trace, so
    # that each kills the checker mutant that patches in a replay without it;
    # each tampers with one code only, which every other check lets through.
    def test_tampered_trace_is_detected(self):
        template = f("Prov[ ~H ; ]")  # no parameters, so no probe reads its code
        result = diagonalize(template, "H", ())
        real = coding.encode
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coding, "encode", lambda g: real(Falsum()) if g == template else real(g))
            with pytest.raises(DiagonalError, match="template code does not decode back"):
                coding.replay_trace(result)

    def test_wrong_name_code_is_detected(self):
        result = diagonalize(f("all x. k < x"), "H", ("k",))  # no other code names H
        real = coding.name_code
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coding, "name_code", lambda name: real(name) + 1 if name == "H" else real(name))
            assert dict(result.trace)["name"] == real("I")
            with pytest.raises(DiagonalError, match="name code does not decode to H"):
                coding.replay_trace(result)

    def test_fix_intro_registers_definition(self):
        sig = base_signature()
        body = f("all x. k < x -> Prov[ ~self(x) ; x := x ]")
        result = fix_intro(sig, "H", ("k",), body)
        assert isinstance(result, DiagonalResult)
        expected = f("all x. k < x -> Prov[ ~H(x) ; x := x ]")
        assert alpha_eq(sig.instantiate("H", (Var("k"),)), expected)
        assert alpha_eq(
            sig.instantiate("H", (numeral(2),)),
            substitute(expected, "k", numeral(2)),
        )
        # installing the same fixed point twice is a no-op, a clash is an error
        fix_intro(sig, "H", ("k",), body)
        with pytest.raises(Exception):
            fix_intro(sig, "H", ("k",), f("all x. k < x -> Prov[ self(x) ; x := x ]"))

    def test_trace_probes_cover_every_parameter(self):
        template, hole, _ = judged_template()
        result = diagonalize(template, hole, ("k",))
        probe_labels = [label for label, _ in result.trace if label.startswith("probe")]
        assert probe_labels == ["probe k:=0"]
        probe_code = dict(result.trace)["probe k:=0"]
        assert probe_code == encode(substitute(template, "k", numeral(0)))
        assert "k" not in free_vars(decode(probe_code))


def fresh_fix_intro() -> DiagonalResult:
    """A fixed point whose trace nobody has read."""
    return fix_intro(base_signature(), "H", ("k",), f("all x. k < x -> Prov[ ~self(x) ; x := x ]"))


class TestReplayBuildsOnce:
    def test_replay_of_an_unread_trace_builds_no_trace(self, monkeypatch):
        calls = []
        codes = coding._codes

        def counted(result, split):
            calls.append(result)
            return codes(result, split)

        monkeypatch.setattr(coding, "_codes", counted)
        result = fresh_fix_intro()
        assert replay_trace(result)
        assert calls == [result]  # replay builds the codes it checks, once
        # the trace is a view: each read builds it afresh, and nothing keeps it
        first = result.trace
        assert result.trace == first
        assert len(calls) == 3
        assert "trace" not in result.__dict__

    def test_replay_of_an_unread_trace_encodes_no_biconditional(self, monkeypatch):
        result = fresh_fix_intro()
        bicond = result.biconditional
        encoded = []
        real = coding.encode

        def spy(g):
            encoded.append(g)
            return real(g)

        monkeypatch.setattr(coding, "encode", spy)
        assert replay_trace(result)
        assert encoded
        assert not any(g == bicond or g == bicond.left or g == bicond.right for g in encoded)

    def test_replay_codes_stay_near_the_template_size(self, monkeypatch):
        # five negations deep the biconditional's code is about 16 times the
        # template's in bits; replay builds nothing that big
        result = fix_intro(base_signature(), "D", ("k",),
                           f("all x. (k < x) -> Prov[ ~~~~~self(x) ; x := x ]"))
        template_bits = encode(result.template).bit_length()
        widest = 0
        real = coding.pair

        def spy(a, b):
            nonlocal widest
            out = real(a, b)
            widest = max(widest, out.bit_length())
            return out

        monkeypatch.setattr(coding, "pair", spy)
        assert replay_trace(result)
        assert template_bits <= widest <= 2 * template_bits
        assert encode(result.biconditional).bit_length() > 8 * template_bits

    def test_labels_have_one_source(self):
        result = fresh_fix_intro()
        assert tuple(label for label, _ in result.trace) == trace_labels(result.params)
        assert trace_labels(("k", "m")) == (
            "template", "name", "biconditional", "probe k:=0", "probe m:=0", "fixed-point")

    def test_reused_probe_is_checked_against_the_syntax_route(self):
        # replay computes its probes with the unpairs it shares, not through sub_code
        real = coding._sub_code
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coding, "_sub_code", lambda code, var, n, split: real(code, var, n, split) + 1)
            with pytest.raises(DiagonalError, match="disagrees with the syntax route"):
                coding.replay_trace(fresh_fix_intro())

    def test_wrong_fixed_point_code_is_detected(self):
        result = fresh_fix_intro()
        real = coding.encode
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coding, "encode",
                       lambda g: real(Falsum()) if g == result.fixed_point else real(g))
            with pytest.raises(DiagonalError, match="not the fixed point's code"):
                coding.replay_trace(result)

    # a code that decodes to no formula at all is a mismatch, not a crash
    def test_template_code_that_is_no_code_is_detected(self):
        template = f("Prov[ ~H ; ]")
        result = diagonalize(template, "H", ())
        real = coding.encode
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coding, "encode", lambda g: 0 if g == template else real(g))
            with pytest.raises(DiagonalError, match="template code does not decode back"):
                coding.replay_trace(result)

    def test_fixed_point_code_that_is_no_code_is_detected(self):
        result = fresh_fix_intro()
        real = coding.encode
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coding, "encode", lambda g: 0 if g == result.fixed_point else real(g))
            with pytest.raises(DiagonalError, match="not the fixed point's code"):
                coding.replay_trace(result)

    def test_biconditional_that_does_not_tie_is_detected(self):
        result = fresh_fix_intro()
        swapped = dataclasses.replace(result, biconditional=iff(result.template, Falsum()))
        with pytest.raises(DiagonalError, match="does not tie"):
            coding.replay_trace(swapped)


def rename_rebuilding_every_node(g, old: str, new: str):
    """pred_rename as it was before it kept untouched subformulas."""
    match g:
        case PredApp(name, args):
            return PredApp(new if name == old else name, args)
        case Not(s):
            return Not(rename_rebuilding_every_node(s, old, new))
        case Imp(l, r) | And(l, r) | Or(l, r):
            return type(g)(rename_rebuilding_every_node(l, old, new),
                           rename_rebuilding_every_node(r, old, new))
        case ForAll(v, b) | Exists(v, b):
            return type(g)(v, rename_rebuilding_every_node(b, old, new))
        case Box(tpl, subst):
            return Box(rename_rebuilding_every_node(tpl, old, new), subst)
    return g


class TestPredRename:
    def test_agrees_with_the_full_rebuild(self, registry):
        defs = definitions_used(registry) + [
            parse_kernel_script(workloads.nested_script(depth)).defs[0] for depth in range(1, 8)]
        for d in defs:
            assert pred_rename(d.body, "self", d.name) == \
                rename_rebuilding_every_node(d.body, "self", d.name), d.name

    def test_untouched_subformulas_come_back_as_they_are(self):
        body = f("all x. (k < x) -> (Q(x) & Prov[ ~self(x) ; x := x ])")
        renamed = pred_rename(body, "self", "D")
        assert renamed == f("all x. (k < x) -> (Q(x) & Prov[ ~D(x) ; x := x ])")
        assert renamed.body.left is body.body.left
        assert renamed.body.right.left is body.body.right.left
        assert renamed.body.right.right.template.sub.args is body.body.right.right.template.sub.args
        no_self = f("all x. (k < x) -> Q(x)")
        assert pred_rename(no_self, "self", "D") is no_self


def nested_result(depth: int) -> DiagonalResult:
    """A definition whose `self` sits under depth negations in the quotation;
    the template's code doubles in bits with each one."""
    return fix_intro(base_signature(), "D", ("k",),
                     f(f"all x. (k < x) -> Prov[ {'~' * depth}self(x) ; x := x ]"))


@pytest.fixture()
def unpaired(monkeypatch) -> list[int]:
    """Every code coding.unpair is called on from here on, in order."""
    calls: list[int] = []
    real = coding.unpair

    def spy(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(coding, "unpair", spy)
    return calls


class TestReplayUnpairsOnce:
    def test_replay_unpairs_the_template_code_once(self, unpaired):
        result = nested_result(5)  # building a definition unpairs nothing
        assert replay_trace(result)
        assert unpaired.count(encode(result.template)) == 1
        assert len(unpaired) == len(set(unpaired))  # no code is unpaired twice

    def test_sub_code_on_its_own_leaves_quotation_templates_whole(self, unpaired):
        g = f("k < 1 & Prov[ ~~~~~(x < 1) ; x := k ]")
        assert sub_code(encode(g), "k", 3) == encode(f("3 < 1 & Prov[ ~~~~~(x < 1) ; x := 3 ]"))
        assert encode(f("~~~~~(x < 1)")) not in unpaired


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def hostile_codes() -> list[int]:
    """Integers that are not codes of formulas, or only barely are."""
    falsum = encode(Falsum())
    var = encode_term(Var("x"))
    out = list(range(0, 2000))
    rng = random.Random(4242)
    out += [rng.getrandbits(bits) for bits in (64, 256, 2048) for _ in range(100)]
    out += [
        pair(17, 0), pair(99, pair(2, 2)), pair(10**40, 5),       # unknown tags
        pair(TAG_FALSUM, 5), pair(TAG_NOT, pair(TAG_FALSUM, 1)),  # falsum payloads
        pair(TAG_SUCC, pair(TAG_NUM, 7)),                         # a successor of a numeral
    ]
    for reserved in ("bot", "self", "all"):                       # reserved binder names
        out.append(pair(TAG_FORALL, pair(name_code(reserved), falsum)))
        out.append(pair(TAG_BOX, pair(encode(f("x < 1")),
                                      pair(pair(name_code(reserved), var), 0))))
    pred = name_code("R")
    out += [
        pair(TAG_PRED, pair(pred, pair(0, 0))),                   # bad list entries
        pair(TAG_PRED, pair(pred, pair(var, pair(falsum, 0)))),
        pair(TAG_PRED, pair(name_code("lower"), 0)),
        pair(TAG_BOX, pair(encode(f("x < 1")), pair(0, 0))),
        pair(TAG_BOX, pair(encode(f("x < 1")), 0)),               # a range too few
        pair(TAG_BOX, pair(falsum, pair(pair(name_code("x"), var), 0))),  # one too many
    ]
    return out


class TestAgainstReference:
    """decode and sub_code against tests/reference_coding.py, the versions
    that unpaired every code afresh: same result, or the same exception."""

    def agree(self, code: int, subs=(("x", 0), ("k", 3), ("w0", 12))) -> None:
        assert outcome(decode, code) == outcome(reference_coding.decode, code)
        assert outcome(decode_term, code) == outcome(reference_coding.decode_term, code)
        for v, n in subs:
            assert outcome(sub_code, code, v, n) == outcome(reference_coding.sub_code, code, v, n)

    def test_sampled_formulas(self):
        for g in sample_formulas(200, seed=5):
            self.agree(encode(g))

    def test_quotations_and_predicates(self):
        for text in ("Con", "YJ(k + 1)", "R(x, S(y))", "Prov[ bot ; ]",
                     "Prov[ x < y ; x := u + 1, y := 0 ]",
                     "all x. k < x -> Prov[ ~YJ(x) ; x := x ]",
                     "Prov[ Prov[ x = k ; x := x, k := k ] ; x := S(k), k := x * x ]"):
            self.agree(encode(f(text)))

    def test_nested_definitions(self):
        for depth in range(1, 8):
            result = nested_result(depth)
            self.agree(encode(result.template), subs=(("k", 0),))

    def test_hostile_integers(self):
        for code in hostile_codes():
            self.agree(code)

    def test_codes_of_sampled_and_hand_formulas(self):
        # round trips cannot see two tags swapped consistently; the codes can
        hand = ["P -> Q(x) | R(x, y) & bot", "exists y. all x. x + y * 2 < S(y)",
                "Prov[ x = k -> ~(x < k) ; x := S(k), k := k * k ]"]
        for g in [f(text) for text in hand] + sample_formulas(1000, seed=6, depth=5):
            assert encode(g) == reference_coding.encode(g)
        for text in ("x + y * S(z)", "(x + 1) * (y + 2)", "1" * 4000):
            assert encode_term(parse_term(text)) == reference_coding.encode_term(parse_term(text))


class TestCodeSizeBound:
    def test_bound_holds_on_samples_and_nested_definitions(self):
        for g in sample_formulas(300, seed=23):
            assert encode(g).bit_length() <= code_bits(g)
        for depth in range(1, 6):
            result = nested_result(depth)
            for g in (result.template, result.fixed_point, result.biconditional):
                assert encode(g).bit_length() <= code_bits(g)

    def test_bound_is_within_a_small_factor_on_deep_codes(self):
        # each level at most doubles the bound and at least doubles the code
        g = nested_result(7).template
        assert code_bits(g) < 2 * encode(g).bit_length()

    def test_pins_are_within_the_limit(self, registry):
        for label, g in golden_codes(registry):
            assert code_bits(g) <= MAX_CODE_BITS, label

    @pytest.mark.parametrize("seed", [7, 4242, 9001])
    def test_benchmark_codes_are_within_the_limit(self, seed):
        # every code the scaling workload builds on an untraced run: the
        # nested templates, their probes and fixed points, and the round trips
        scaling = workloads.ScalingWorkload(workloads.Api(), seed)
        for _, _, d in scaling.nested:
            result = fix_intro(base_signature(), d.name, d.params, d.body)
            for g in (result.template, result.fixed_point,
                      *(substitute(result.template, p, numeral(0)) for p in d.params)):
                assert code_bits(g) <= MAX_CODE_BITS
        for batch in scaling.coding:
            for g, v, n in batch:
                assert code_bits(g) <= MAX_CODE_BITS
                assert code_bits(substitute(g, v, numeral(n))) <= MAX_CODE_BITS
