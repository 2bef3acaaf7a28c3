import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from modalgen import small_formulas

from yablo.cli import main
from yablo.coding import MAX_CODE_BITS, code_bits, code_from_str, code_to_str, encode
from yablo.corpus import mono_instance
from yablo.gl import MAX_PATH as MODAL_MAX_PATH
from yablo.gl import print_modal
from yablo.parser import MAX_DEPTH, parse_formula


def run_cli(*argv):
    return main(list(argv))


# formulas nested n levels deep, one per way of nesting
NESTED = {
    "and": lambda n: "0 = 0 & " * n + "0 = 0",
    "plus": lambda n: "x = " + "x + " * n + "x",
    "succ": lambda n: "S(" * n + "x" + ")" * n + " = x",
    "prov": lambda n: "Prov[ " * n + "0 = 0" + " ]" * n,
    "not": lambda n: "~" * n + "0 = 0",
    "all": lambda n: "all x. " * n + "x = x",
    "paren": lambda n: "(" * n + "0 = 0" + ")" * n,
}


def one_step_script(tmp_path, formula: str) -> str:
    path = tmp_path / "one.prf"
    path.write_text(f'theorem one "one step"\n1. {formula} by taut\nconclusion {formula}\n')
    return str(path)


@pytest.fixture()
def script_file(registry, tmp_path):
    def write(name: str, transform=None):
        entry = registry.entry(name)
        text = transform(entry.text) if transform else entry.text
        suffix = ".prf" if entry.kind == "kernel" else ".mprf"
        path = tmp_path / f"{name}{suffix}"
        path.write_text(text)
        return str(path)

    return write


class TestCheckCommand:
    def test_good_kernel_script(self, script_file, capsys):
        assert run_cli("check", script_file("lem_yj_box_step")) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "lem_yj_box_step" in out

    def test_good_meta_script(self, script_file, capsys):
        assert run_cli("check", script_file("thm1_1b")) == 0
        assert "ok" in capsys.readouterr().out

    def test_tampered_script_rejected(self, script_file, capsys):
        path = script_file(
            "lem_lt_plus_one",
            lambda text: text.replace("k < k + 1 by arith", "k < k by arith", 1),
        )
        assert run_cli("check", path) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out or "step 1" in out

    def test_meta_script_missing_gate_rejected(self, script_file, capsys):
        path = script_file(
            "thm1_1b",
            lambda text: text.replace("assume-meta Con\n", ""),
        )
        assert run_cli("check", path) == 1
        assert "needs the Con assumption" in capsys.readouterr().out

    def test_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "junk.prf"
        bad.write_text("this is not a script\n")
        assert run_cli("check", str(bad)) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("check", str(tmp_path / "absent.prf")) == 2
        assert "error" in capsys.readouterr().err

    def test_json_report(self, script_file, capsys):
        assert run_cli("check", script_file("lem_lt_plus_one"), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "lem_lt_plus_one"
        assert payload["kind"] == "kernel"
        assert payload["ok"] is True
        assert payload["violations"] == []

    def test_deeply_nested_definition_checks_quickly(self, tmp_path, capsys):
        # each negation under the quotation doubles the bit length of the
        # definition's trace codes, which checking never builds
        body = f"all x. (k < x) -> Prov[ {'~' * 18}D(x) ; x := x ]"
        path = tmp_path / "deep.prf"
        path.write_text(f'theorem deep "self under 18 negations"\n'
                        f"def D(k) := all x. (k < x) -> Prov[ {'~' * 18}self(x) ; x := x ]\n"
                        f"1. D(k) -> ({body}) by unfold D\n"
                        f"conclusion D(k) -> ({body})\n")
        start = time.perf_counter()
        assert run_cli("check", str(path)) == 0
        assert time.perf_counter() - start < 10
        assert "ok: deep" in capsys.readouterr().out

    @pytest.mark.parametrize("shape", NESTED)
    def test_nesting_over_the_cap_is_a_parse_error(self, shape, tmp_path, capsys):
        assert run_cli("check", one_step_script(tmp_path, NESTED[shape](5000))) == 2
        assert "nested deeper than" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", NESTED)
    def test_nesting_at_the_cap_is_checked(self, shape, tmp_path, capsys):
        assert run_cli("check", one_step_script(tmp_path, NESTED[shape](MAX_DEPTH))) in (0, 1)
        assert "step" in capsys.readouterr().out

    @pytest.mark.parametrize("step", [
        "1. 0 = 0 by taut\n2. 0 = 0 by reiterate \u00b2",
        "\u0661. 0 = 0 by taut",
    ])
    def test_non_ascii_step_numbers_rejected(self, step, tmp_path, capsys):
        path = tmp_path / "digits.prf"
        path.write_text(f'theorem digits "digits"\n{step}\nconclusion 0 = 0\n', encoding="utf-8")
        assert run_cli("check", str(path)) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("step", [
        "1" * 5000 + ". 0 = 0 by numeval",
        "1. 0 = 0 by numeval\n2. 0 = 0 by reiterate " + "1" * 5000,
        "1. assume 0 = 0\n2. qed-block " + "1" * 5000,
        "1. x = " + "9" * 5000 + " by taut",
    ], ids=["step", "citation", "qed-block", "numeral"])
    def test_over_long_digit_strings_rejected(self, step, tmp_path, capsys):
        path = tmp_path / "long.prf"
        path.write_text(f'theorem long "long"\n{step}\nconclusion 0 = 0\n')
        assert run_cli("check", str(path)) == 2
        assert "error" in capsys.readouterr().err

    def test_large_numerals_check_quickly(self, tmp_path, capsys):
        start = time.perf_counter()
        path = tmp_path / "num.prf"
        path.write_text('theorem num "numeral"\n1. 500 < 501 by numeval\nconclusion 500 < 501\n')
        assert run_cli("check", str(path)) == 0
        path = tmp_path / "mono.prf"
        path.write_text(mono_instance("YJ", 1000, 1001))
        assert run_cli("check", str(path)) == 0
        assert time.perf_counter() - start < 5
        assert "ok: rem2_mono_YJ_1000_1001 [kernel] (15 steps)" in capsys.readouterr().out

    def test_definition_with_a_free_variable_is_rejected(self, tmp_path, capsys):
        # with x free in D's body, fold and unfold would derive bot
        path = tmp_path / "free.prf"
        path.write_text("""theorem free "a definition with a free variable"
def D(k) := x < k
1. (x < 1) -> D(1) by fold D
2. all x. (x < 1) -> D(1) by allI 1
3. (0 < 1) -> D(1) by allE 2 with 0
4. 0 < 1 by numeval
5. D(1) by mp 3, 4
6. D(1) -> x < 1 by unfold D
7. all x. D(1) -> x < 1 by allI 6
8. D(1) -> 5 < 1 by allE 7 with 5
9. 5 < 1 by mp 8, 5
10. ~(5 < 1) by numeval
11. bot by negE 9, 10
conclusion bot
""")
        assert run_cli("check", str(path)) == 1
        out = capsys.readouterr().out
        assert "REJECTED: free [kernel]" in out
        assert "definition D: free variables ['x']" in out

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.prf"
        path.write_bytes('theorem t "\u00e9"\n1. 0 = 0 by taut\nconclusion 0 = 0\n'.encode("latin-1"))
        assert run_cli("check", str(path)) == 2
        assert "error" in capsys.readouterr().err


class TestProveAllCommand:
    def test_accepts_whole_corpus(self, registry, capsys):
        assert run_cli("prove-all") == 0
        out = capsys.readouterr().out
        total = len(registry.names())
        assert f"{total}/{total} scripts accepted" in out
        assert "REJECTED" not in out

    def test_json_lists_every_script(self, registry, capsys):
        assert run_cli("prove-all", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == len(registry.names())
        assert all(item["ok"] for item in payload)


class TestGlCommand:
    def test_valid_formula(self, capsys):
        assert run_cli("gl", "[]([]p -> p) -> []p") == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_formula_prints_replaying_countermodel(self, capsys):
        assert run_cli("gl", "[]p -> p") == 1
        out = capsys.readouterr().out
        assert "countermodel" in out
        assert "replay: confirmed" in out

    def test_brute_force_mode(self, capsys):
        assert run_cli("gl", "--brute", "3", "[](p -> q) -> ([]p -> []q)") == 0
        assert run_cli("gl", "--brute", "3", "p -> []p") == 1

    @pytest.mark.parametrize("k", ["0", "-3", "two"])
    def test_brute_force_needs_a_positive_world_count(self, k, capsys):
        with pytest.raises(SystemExit) as e:  # argparse rejects it
            run_cli("gl", "--brute", k, "p")
        assert e.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    def test_brute_force_without_countermodel_defers_to_the_tableau(self, capsys):
        # []bot fails at any world with a successor, so one world shows nothing
        assert run_cli("gl", "--brute", "1", "[]bot") == 1
        out = capsys.readouterr().out
        assert "no countermodel within 1 worlds" in out
        assert "invalid (sequent tableau" in out
        assert "replay: confirmed" in out
        assert run_cli("gl", "--brute", "3", "[](p -> q) -> ([]p -> []q)") == 0
        out = capsys.readouterr().out
        assert "no countermodel within 3 worlds" in out
        assert "valid (sequent tableau" in out

    def test_brute_force_on_five_and_six_worlds_is_bounded(self, capsys):
        start = time.perf_counter()
        assert run_cli("gl", "--brute", "5", "[]p -> [][]p") == 0
        assert time.perf_counter() - start < 5
        start = time.perf_counter()
        assert run_cli("gl", "--brute", "6", "[]p -> [][]p") in (0, 2)
        assert time.perf_counter() - start < 20

    def test_brute_force_work_cap_exits_2_within_five_seconds(self, capsys):
        # 71 nodes on one atom: 8.5 M pairs, inside the pair budget, but about
        # 55 M node evaluations on the 130,023 frames of six worlds
        formula = " & ".join(["([]([]p -> p) -> []p)"] * 8)
        assert run_cli("gl", "--brute", "5", formula) == 0
        start = time.perf_counter()
        assert run_cli("gl", "--brute", "6", formula) == 2
        assert "work cap" in capsys.readouterr().err
        assert time.perf_counter() - start < 5

    def test_brute_force_budget_exits_2(self, capsys):
        start = time.perf_counter()
        assert run_cli("gl", "--brute", "2", " & ".join("abcdefghijklmn") + " -> a") == 2
        assert "budget" in capsys.readouterr().err
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("argv, code, message", [
        (("--budget", "0", "p"), 2, "sequent budget of 0 exhausted"),
        (("--budget", "-5", "p"), 2, "sequent budget of -5 exhausted"),
        (("--budget", "99999999999999999999", "p -> p"), 0, ""),
        (("--brute", "0", "p"), 2, "expected a positive integer"),
        (("--brute", "7", "p -> p"), 2, "(frame, valuation) pairs"),
        (("--brute", "100", "bot -> bot"), 2, "(frame, valuation) pairs"),
        (("--brute", "99999999999999999999", "p"), 1, ""),
        (("--brute", "99999999999999999999", "p -> p"), 2, "(frame, valuation) pairs"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_extreme_search_bounds_exit_promptly(self, argv, code, message, capsys):
        start = time.perf_counter()
        try:
            got = run_cli("gl", *argv)
        except SystemExit as e:  # argparse rejects the value
            got = e.code
        assert got == code
        assert time.perf_counter() - start < 10
        assert message in capsys.readouterr().err

    def test_parse_error(self, capsys):
        assert run_cli("gl", "p -> ->") == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("formula", ["~" * 2000 + "p", "[]" * 300 + "p", "p & " * 3000 + "p"],
                             ids=["not", "box", "and"])
    def test_nesting_over_the_cap_is_a_parse_error(self, formula, capsys):
        assert run_cli("gl", formula) == 2
        assert "nested deeper than" in capsys.readouterr().err

    def test_nesting_at_the_cap_is_decided(self, capsys):
        assert run_cli("gl", "~" * MAX_DEPTH + "p") == 1
        assert "replay: confirmed" in capsys.readouterr().out

    def test_nested_boxes_at_the_cap_replay(self, capsys):
        start = time.perf_counter()
        assert run_cli("gl", "[]" * MAX_DEPTH + "p") == 1
        assert time.perf_counter() - start < 5
        assert "replay: confirmed" in capsys.readouterr().out

    def test_wide_conjunction_is_decided(self, capsys):
        def balanced(atoms):
            half = len(atoms) // 2
            return atoms[0] if half == 0 else f"({balanced(atoms[:half])} & {balanced(atoms[half:])})"

        start = time.perf_counter()
        assert run_cli("gl", balanced([f"a{i}" for i in range(512)]) + " -> b") == 1
        assert "replay: confirmed" in capsys.readouterr().out
        assert time.perf_counter() - start < 10

    def test_tableau_path_bound_exits_2(self, capsys):
        # each disjunction splits the branch the next one is split on
        conjuncts = [f"(p{i} | q{i})" for i in range(MODAL_MAX_PATH)]
        while len(conjuncts) > 1:
            pairs = zip(conjuncts[::2], conjuncts[1::2])
            conjuncts = [f"({a} & {b})" for a, b in pairs] + conjuncts[len(conjuncts) // 2 * 2:]
        start = time.perf_counter()
        assert run_cli("gl", conjuncts[0] + " -> b") == 2
        assert "splits and jumps" in capsys.readouterr().err
        assert time.perf_counter() - start < 10

    def test_budget_exhaustion(self, capsys):
        deep = "[]([]([]([]p -> p) -> []p) -> q) -> ([]q | [](q -> p))"
        assert run_cli("gl", "--budget", "3", deep) == 2
        assert "error" in capsys.readouterr().err

    def test_token_edits_exit_0_1_or_2(self, capsys):
        # seeded single-token insertions, deletions and replacements of every
        # printed formula of at most five nodes; an edited token is set off by
        # spaces, so it never merges with a neighbour
        piece = re.compile(r"->|\[\]|[A-Za-z0-9_]+|\S")
        vocabulary = ["p", "q", "bot", "~", "[]", "[", "]", "(", ")", "->", "&", "|",
                      "-", ">", "_a", "\u00e4", "7", "all", ".", "$"]
        texts = [print_modal(g) for g in small_formulas(5)]
        rng = random.Random(20261019)
        seen = set()
        for _ in range(2000):
            text = rng.choice(texts)
            start, end = rng.choice([m.span() for m in piece.finditer(text)])
            how = rng.randrange(3)
            token = "" if how == 1 else rng.choice(vocabulary)
            edited = f"{text[:start]} {token} {text[start if how == 0 else end:]}"
            began = time.perf_counter()
            code = run_cli("gl", "--", edited)
            assert code in (0, 1, 2), edited
            assert time.perf_counter() - began < 2, edited
            seen.add(code)
            capsys.readouterr()
        assert seen == {0, 1, 2}


class TestCodeCommand:
    def test_encode_decode_round_trip(self, capsys):
        assert run_cli("code", "encode", "all x. k < x -> Prov[ ~YJ(x) ; x := x ]") == 0
        code = capsys.readouterr().out.strip()
        assert code_from_str(code) == encode(
            parse_formula("all x. k < x -> Prov[ ~YJ(x) ; x := x ]"))
        assert run_cli("code", "decode", code) == 0
        printed = capsys.readouterr().out.strip()
        assert parse_formula(printed) == parse_formula(
            "all x. k < x -> Prov[ ~YJ(x) ; x := x ]")

    def test_encode_rejects_bad_formula(self, capsys):
        assert run_cli("code", "encode", "k <") == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", NESTED)
    def test_encode_rejects_nesting_over_the_cap(self, shape, capsys):
        assert run_cli("code", "encode", NESTED[shape](5000)) == 2
        assert "nested deeper than" in capsys.readouterr().err

    @pytest.mark.parametrize("formula", ["x = \u00b2", "\u03a9mega", "P\u00e9(x)", "x = \u0663"])
    def test_encode_rejects_non_ascii(self, formula, capsys):
        assert run_cli("code", "encode", formula) == 2
        assert "error: unexpected character" in capsys.readouterr().err

    def test_decode_rejects_non_codes(self, capsys):
        assert run_cli("code", "decode", "0") == 2
        capsys.readouterr()
        assert run_cli("code", "decode", "42") == 2
        assert "error" in capsys.readouterr().err

    def test_decode_error_truncates_a_long_tag(self, capsys):
        assert run_cli("code", "decode", "7" * 5000) == 2
        err = capsys.readouterr().err
        assert "(2500 digits) is not a formula tag" in err
        assert len(err) < 200

    def test_decode_handles_very_long_numerals(self, capsys):
        big = code_to_str(encode(parse_formula("Prov[ bot ; ]")))
        assert run_cli("code", "decode", big) == 0
        assert capsys.readouterr().out.strip() == "Prov[bot ;]"

    def test_large_numeral_round_trip(self, capsys):
        start = time.perf_counter()
        assert run_cli("code", "encode", "x = 100000000") == 0
        code = capsys.readouterr().out.strip()
        assert run_cli("code", "decode", code) == 0
        assert capsys.readouterr().out.strip() == "x = 100000000"
        assert time.perf_counter() - start < 5

    def test_encode_rejects_over_long_numeral(self, capsys):
        assert run_cli("code", "encode", "x = " + "9" * 5000) == 2
        assert "error: numeral longer than" in capsys.readouterr().err

    @pytest.mark.parametrize("code", ["\u0662\u0662", "1_0", " 2 ", "+7", ""])
    def test_decode_takes_ascii_digits_only(self, code, capsys):
        assert run_cli("code", "decode", code) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, code", [
        (NESTED["not"](14), 0),
        (NESTED["not"](15), 2),
        (NESTED["succ"](14), 0),
        (NESTED["succ"](15), 2),
        (NESTED["and"](7), 0),
        (NESTED["and"](8), 2),
        ("R(" + ", ".join(["x"] * 14) + ")", 0),
        ("R(" + ", ".join(["x"] * 16) + ")", 2),
        *((NESTED[shape](MAX_DEPTH), 0 if shape == "paren" else 2) for shape in NESTED),
    ], ids=["not-14", "not-15", "succ-14", "succ-15", "and-7", "and-8", "args-14", "args-16",
            *(f"{shape}-at-the-cap" for shape in NESTED)])
    def test_encode_budgets_the_code_size(self, text, code, capsys):
        # a code about doubles in bits per level of nesting; past the limit
        # encode exits 2 with the predicted size, before pairing anything
        start = time.perf_counter()
        assert run_cli("code", "encode", text) == code
        assert time.perf_counter() - start < 5
        out, err = capsys.readouterr()
        if code == 0:
            assert out.strip().isdigit()
        else:
            assert f"over the limit of {MAX_CODE_BITS}" in err and not out

    @pytest.mark.parametrize("seed", [1606, 2011])
    def test_seeded_wide_and_deep_formulas_exit_0_or_2_promptly(self, seed, capsys):
        rng = random.Random(seed)
        atoms = ["x = 0", "k < S(y)", "P", "Q(x + 1)", "bot", "Prov[ x < 1 ; x := k ]"]

        def wide(width: int) -> str:
            if width == 1:
                return rng.choice(atoms)
            left = rng.randrange(1, width)
            return f"({wide(left)} {rng.choice(['&', '|', '->'])} {wide(width - left)})"

        seen = set()
        for _ in range(8):
            kind = rng.randrange(3)
            if kind == 0:
                text = wide(rng.randrange(2, 40))
            elif kind == 1:
                text = NESTED[rng.choice(sorted(NESTED))](rng.randrange(1, MAX_DEPTH + 1))
            else:
                text = "R(" + ", ".join(rng.choice(["x", "0", "S(k)"]) for _ in range(rng.randrange(1, 30))) + ")"
            bound = code_bits(parse_formula(text))
            start = time.perf_counter()
            code = run_cli("code", "encode", text)
            assert time.perf_counter() - start < 5, text
            out = capsys.readouterr().out.strip()
            assert code == (0 if bound <= MAX_CODE_BITS else 2), text
            if code == 0:
                assert out.isdigit() and len(out) <= bound * 0.30103 + 1
            seen.add(code)
        assert seen == {0, 2}

    def test_diag_budgets_the_fixed_point_code(self, capsys):
        # with no self the template is its own fixed point, and its code is printed
        assert run_cli("code", "diag", "D(k) := " + NESTED["not"](20)) == 2
        assert "over the limit" in capsys.readouterr().err

    def test_diag_reports_fixed_point(self, capsys):
        clause = "D(k) := all x. (k < x) -> Prov[ ~self(x) ; x := x ]"
        assert run_cli("code", "diag", clause) == 0
        out = capsys.readouterr().out
        assert "fixed point:   D(k)" in out
        assert "biconditional:" in out
        assert "trace:" in out and "fixed-point" in out

    def test_diag_prints_trace_labels_without_building_codes(self, capsys):
        # the quotation's codes grow about threefold in cost per negation: a
        # trace 9 deep takes several seconds to build, its labels none
        for depth in (2, 9):
            clause = f"D(k) := all x. (k < x) -> Prov[ {'~' * depth}self(x) ; x := x ]"
            start = time.perf_counter()
            assert run_cli("code", "diag", clause) == 0
            assert time.perf_counter() - start < 5
            trace_line = capsys.readouterr().out.splitlines()[-1]
            assert trace_line == ("trace:         template -> name -> biconditional"
                                  " -> probe k:=0 -> fixed-point")

    def test_diag_rejects_direct_self_reference(self, capsys):
        assert run_cli("code", "diag", "D(k) := self(k) -> k < 1") == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("clause", [
        "D(k) := x < k",
        "D(k, k) := k < k",
        "D(k) := Prov[ self(k, k) ; k := k ]",
    ], ids=["free-variable", "duplicate-parameter", "self-arity"])
    def test_diag_rejects_ill_formed_definitions(self, clause, capsys):
        assert run_cli("code", "diag", clause) == 2
        assert "error" in capsys.readouterr().err

    def test_diag_rejects_garbage(self, capsys):
        assert run_cli("code", "diag", "not a clause") == 2
        assert "error" in capsys.readouterr().err


SRC = Path(__file__).resolve().parents[1] / "src"

# run main(argv) with its output swallowed; print the exit code and the yablo
# modules loaded
LOADED_BY_MAIN = """
import contextlib, io, json, sys
from yablo.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def in_fresh_interpreter(code: str, *argv: str) -> str:
    """The output of `python -c code argv`, with this tree's src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def modules_after(*argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running `yablo argv`, which must exit 0."""
    code, modules = json.loads(in_fresh_interpreter(LOADED_BY_MAIN, *argv))
    assert code == 0
    return set(modules)


def loaded_by(*argv: str) -> set[str]:
    """The yablo modules a fresh interpreter loads to run `yablo argv`, which must exit 0."""
    return {m for m in modules_after(*argv) if m.split(".")[0] == "yablo"}


class TestModuleLoading:
    """Each subcommand loads only the modules it runs, and the kernel leg
    never loads the GL oracle."""

    def test_gl_loads_the_oracle_and_its_syntax_only(self):
        assert loaded_by("gl", "[]([]p -> p) -> []p") == {
            "yablo", "yablo.cli", "yablo.gl", "yablo.parser", "yablo.syntax"}
        # nodes are hand-written slotted classes, so no dataclass machinery loads
        assert not modules_after("gl", "[]([]p -> p) -> []p") & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("argv", [
        ("code", "encode", "all x. x < S(x)"),
        ("code", "diag", "D(k) := all x. (k < x) -> Prov[ ~self(x) ; x := x ]"),
    ], ids=["encode", "diag"])
    def test_code_loads_no_checker_and_no_oracle(self, argv):
        loaded = loaded_by(*argv)
        assert "yablo.coding" in loaded
        assert not loaded & {"yablo.kernel", "yablo.meta", "yablo.corpus", "yablo.gl"}

    @pytest.mark.parametrize("argv", [
        ("check", str(SRC / "yablo" / "corpus" / "lem_yj_box_step.prf")),
        ("prove-all",),
    ], ids=["check", "prove-all"])
    def test_checkers_load_no_oracle(self, argv):
        loaded = loaded_by(*argv)
        assert "yablo.kernel" in loaded
        assert "yablo.gl" not in loaded

    def test_kernel_import_leaves_the_oracle_unloaded(self):
        probe = "import sys, yablo.kernel; print('yablo.gl' in sys.modules)"
        assert in_fresh_interpreter(probe).strip() == "False"
