"""Verdict benchmark for yablo.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs one workload (corpus, mutants, modal, scaling) in a fresh interpreter
(``worker.py``), checks every verdict against its known answer, and prints
the metrics, one per line with its unit, then one JSON object as the last
line.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
throughput and latency of verdicts, the share of operations that completed,
set-up time and peak memory of a fresh interpreter, and the cold-start time
of the CLI on the workload's representative command.  ``--trace 1`` reports
its per-layer metrics, from a traced run, instead.

Exit status: 0 when every verdict is right, 1 when any is wrong, 2 when the
run cannot start (no ``src/yablo`` next to this directory, a worker crash).
A record of each run, and the spans of a traced run, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, for the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description="yablo verdict benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "mutants", "modal", "scaling"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "yablo" / "__init__.py").is_file():
        print(f"error: no yablo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
                              capture_output=True, text=True,
                              timeout=min(150, 3 * args.seconds + 30))
    except subprocess.TimeoutExpired:
        print("error: worker timed out", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 2
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run, indent=1))

    if args.trace:
        measured = dict(run["layers"], **run["probes"])
    else:
        measured = {
            "verdicts_per_s": run["verdicts_per_s"],
            "verdict_p50_ms": run["verdict_p50_ms"],
            "verdict_p90_ms": run["verdict_p90_ms"],
            "completed_share": 1 - run["failed"] / run["attempted"],
            "setup_s": run["probes"]["setup_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "cli_cold_s": run["probes"]["cli_cold_s"],
        }
    units = declared_units(args.trace)
    if set(measured) != set(units):
        print(f"error: measured {sorted(set(measured) ^ set(units))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  passes {run['passes']}  "
          f"inputs {json.dumps(run['inputs'], sort_keys=True)}")
    print(f"verdicts {run['latency_samples']}  p90 has {run['p90_samples_beyond']} beyond it  "
          f"attempted {run['attempted']}  failed {run['failed']}  "
          f"failed_share {run['failed'] / run['attempted']:.6f} ratio")
    if run["failed"]:
        print(f"failures {json.dumps(run['failures'], sort_keys=True)} "
              f"in {', '.join(run['failed_ops'])}")
    for problem in run["wrong"][:20]:
        print(f"WRONG VERDICT {problem}")
    for name, unit in units.items():
        print(f"{name} {measured[name]:.6g} {unit}")
    correct = not run["wrong"]
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
