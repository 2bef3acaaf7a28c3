"""Command line interface.

Exit codes are uniform across subcommands: 0 when the input is accepted
(script checks, formula is valid, coding succeeds), 1 when the input is
well-formed but rejected (a failed check, an invalid formula), and 2 when
the input cannot be processed at all (unreadable file, parse error,
exhausted search budget, a code over its size limit).

Each subcommand imports the modules it runs when it runs, so `yablo gl`
loads no kernel-side module and `yablo code` loads no checker.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .kernel import CheckReport
    from .syntax import Formula


def _report_lines(name: str, kind: str, rep: CheckReport) -> list[str]:
    from .syntax import print_formula

    if rep.ok:
        lines = [f"ok: {name} [{kind}] ({rep.steps_checked} steps)"]
        if rep.conclusion is not None:
            lines.append(f"   conclusion: {print_formula(rep.conclusion)}")
        return lines
    lines = [f"REJECTED: {name} [{kind}]"]
    lines.extend(f"   {v}" for v in rep.violations)
    return lines


def _report_json(name: str, kind: str, rep: CheckReport) -> dict:
    from .syntax import print_formula

    return {
        "name": name,
        "kind": kind,
        "ok": rep.ok,
        "steps": rep.steps_checked,
        "conclusion": print_formula(rep.conclusion) if rep.conclusion else None,
        "violations": [
            {"step": v.step, "message": v.message} for v in rep.violations
        ],
    }


def _cmd_check(args: argparse.Namespace) -> int:
    from .corpus import Registry
    from .kernel import check_kernel_script
    from .meta import check_meta_script
    from .parser import ParseError
    from .scripts import ScriptError, parse_script
    from .syntax import base_signature

    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        script = parse_script(text)
    except (ScriptError, ParseError) as e:
        print(f"error: {args.path}: {e}", file=sys.stderr)
        return 2
    registry = Registry()
    if script.kind == "kernel":
        rep = check_kernel_script(script, base_signature(), registry.axioms)
    else:
        rep = check_meta_script(script, base_signature(), registry)
    if args.json:
        print(json.dumps(_report_json(script.name, script.kind, rep), indent=2))
    else:
        print("\n".join(_report_lines(script.name, script.kind, rep)))
    return 0 if rep.ok else 1


def _cmd_prove_all(args: argparse.Namespace) -> int:
    from .corpus import Registry

    registry = Registry()
    results = registry.check_all()
    if args.json:
        print(json.dumps(
            [_report_json(e.name, e.kind, rep) for e, rep in results], indent=2
        ))
    else:
        for e, rep in results:
            verdict = "ok" if rep.ok else "REJECTED"
            print(f"{verdict:8s} {e.name}  [{e.kind}, {e.origin}, {rep.steps_checked} steps]")
            for v in rep.violations:
                print(f"         {v}")
        good = sum(rep.ok for _, rep in results)
        print(f"{good}/{len(results)} scripts accepted")
    return 0 if all(rep.ok for _, rep in results) else 1


def _print_model(result) -> None:
    model = result.model
    print(f"countermodel with {model.size} worlds, false at world {result.world}:")
    for w in range(model.size):
        succ = ",".join(str(v) for v in sorted(model.successors(w))) or "-"
        true = ", ".join(sorted(model.val[w])) or "-"
        print(f"   world {w}: sees [{succ}]  atoms: {true}")


def _cmd_gl(args: argparse.Namespace) -> int:
    from .gl import GLBudgetExceeded, brute_force, decide_gl, forces, parse_modal
    from .parser import ParseError

    try:
        f = parse_modal(args.formula)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        if args.brute is None:
            result = decide_gl(f, args.budget)
            how = "sequent tableau"
        else:
            result = brute_force(f, args.brute)
            how = f"brute force over frames with at most {args.brute} worlds"
            if result.valid:
                # no small countermodel is not validity: the tableau decides
                print(f"no countermodel within {args.brute} worlds ({how}, {result.visited} states)")
                result, how = decide_gl(f, args.budget), "sequent tableau"
    except GLBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if result.valid:
        print(f"valid ({how}, {result.visited} states)")
        return 0
    print(f"invalid ({how}, {result.visited} states)")
    _print_model(result)
    replay = "confirmed" if not forces(result.model, result.world, f) else "FAILED"
    print(f"   replay: {replay}")
    return 1


def _over_budget(f: Formula) -> bool:
    """Whether f's code could outgrow MAX_CODE_BITS; if so, says so on stderr."""
    from .coding import MAX_CODE_BITS, code_bits

    bits = code_bits(f)
    if bits <= MAX_CODE_BITS:
        return False
    print(f"error: the code could take up to {bits} bits, over the limit of {MAX_CODE_BITS}",
          file=sys.stderr)
    return True


def _cmd_code(args: argparse.Namespace) -> int:
    from .coding import NotACode, code_from_str, code_to_str, decode, encode, fix_intro, trace_labels
    from .parser import ParseError, parse_formula
    from .scripts import ScriptError, parse_definition
    from .syntax import base_signature, print_formula

    if args.what == "encode":
        try:
            f = parse_formula(args.value)
        except ParseError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if _over_budget(f):
            return 2
        print(code_to_str(encode(f)))
        return 0
    if args.what == "decode":
        try:
            n = code_from_str(args.value)
            f = decode(n)
        except (ValueError, NotACode) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(print_formula(f))
        return 0
    # diag
    try:
        d = parse_definition(args.value)
        sig = base_signature()
        result = fix_intro(sig, d.name, d.params, d.body)
    except (ScriptError, ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if _over_budget(result.fixed_point):
        return 2
    print(f"fixed point:   {print_formula(result.fixed_point)}")
    print(f"code:          {code_to_str(encode(result.fixed_point))}")
    print(f"biconditional: {print_formula(result.biconditional)}")
    print(f"trace:         {' -> '.join(trace_labels(result.params))}")
    return 0


def _positive_int(text: str) -> int:
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return k


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(
        prog="yablo",
        description="check derivation scripts, decide modal validity, and code formulas",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check one derivation script file")
    p_check.add_argument("path", help="path to a .prf or .mprf script")
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.set_defaults(fn=_cmd_check)

    p_all = sub.add_parser("prove-all", help="check every bundled and generated script")
    p_all.add_argument("--json", action="store_true", help="machine-readable report")
    p_all.set_defaults(fn=_cmd_prove_all)

    p_gl = sub.add_parser("gl", help="decide a modal formula over transitive well-founded frames")
    p_gl.add_argument("formula", help="modal formula, e.g. '[]([]p -> p) -> []p'")
    p_gl.add_argument("--budget", type=int, default=200_000, help="tableau state budget")
    p_gl.add_argument("--brute", type=_positive_int, metavar="K",
                      help="search frames with at most K worlds for a countermodel first; "
                           "valid only if the tableau agrees")
    p_gl.set_defaults(fn=_cmd_gl)

    p_code = sub.add_parser("code", help="numeric coding of formulas and fixed points")
    p_code.add_argument("what", choices=["encode", "decode", "diag"])
    p_code.add_argument("value", help="a formula, a number, or a `Name(p) := BODY` clause")
    p_code.set_defaults(fn=_cmd_code)

    args = top.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
