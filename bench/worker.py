"""One workload in one fresh interpreter: set up, run passes, check verdicts.

Started by ``run.py``; prints one JSON object as its last line.  With
``--setup-only`` it stops once the first verdict could start and reports how
long that took from before the first ``import yablo``.  Otherwise it runs
passes of the workload's operations for ``--seconds``, one operation at a
time (a closed loop: one caller, one thread).  With ``--trace 1`` the first
half of the time runs untraced and the second half traced, so the ratio of
their pass times is the tracing overhead.

Probes start one child interpreter at a time: fresh set-ups (``setup_s``)
and cold CLI runs (``cli_cold_s``) between the passes of an untraced run,
spread over it so that their medians sample the same stretch of machine time
as the passes; fresh ``import yablo.cli`` (``cli.import_s``) after a traced
run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_RUNS = 21
IMPORT_PROBE = ("import time; t = time.perf_counter(); import yablo.cli; "
                "print(time.perf_counter() - t)")


class Probes:
    """Child interpreters started on a schedule spread over the pass budget."""

    def __init__(self, specs: list[tuple[str, list[str], int | None]], budget: float) -> None:
        self.specs = specs
        self.budget = budget
        self.samples: dict[str, list[float]] = {name: [] for name, _, _ in specs}
        self.bad_exits: list[str] = []
        self.spent = 0.0

    def run_due(self, elapsed: float) -> None:
        """Start every probe whose slot falls at or before `elapsed` seconds."""
        while self.specs and self._next_slot() <= elapsed:
            self._run(*self.specs.pop(0))

    def finish(self) -> None:
        while self.specs:
            self._run(*self.specs.pop(0))

    def _next_slot(self) -> float:
        done = sum(len(v) for v in self.samples.values()) + len(self.bad_exits)
        return done * self.budget / (done + len(self.specs))

    def _run(self, name: str, argv: list[str], want: int | None) -> None:
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
        began = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        wall = time.perf_counter() - began
        self.spent += wall
        if want is None:  # the child reports its own time on its last line
            if proc.returncode != 0:
                raise RuntimeError(f"probe {name} exited {proc.returncode}: {proc.stderr}")
            self.samples[name].append(float(proc.stdout.strip().splitlines()[-1]))
        elif proc.returncode == want:
            self.samples[name].append(wall)
        else:
            self.bad_exits.append(f"{' '.join(argv[3:])} exited {proc.returncode}, not {want}")

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.samples.items() if v}


def run_pass(workload, tracer=None) -> dict:
    """Every operation of one pass, each under its own exception guard."""
    latencies: list[float] = []
    failures: list[list[str]] = []
    wrong: list[str] = []
    oracle = 0.0
    if tracer is not None:
        tracer.begin_pass()
    start = time.perf_counter()
    for op in workload.ops():
        if tracer is not None:
            tracer.op += 1
        began = time.perf_counter()
        try:
            result = op.run()
        except Exception as e:  # a failed operation is counted, never fatal
            failures.append([op.layer, op.label, type(e).__name__])
            continue
        done = time.perf_counter()
        latencies.append(done - began)
        problem = op.check(result)
        oracle += time.perf_counter() - done
        if problem:
            wrong.append(f"{op.label}: {problem}")
    wall = time.perf_counter() - start - oracle
    return {"wall": wall, "latencies": latencies, "failures": failures, "wrong": wrong}


def run_passes(workload, budget: float, probes: Probes | None = None,
               tracer=None) -> list[dict]:
    """Passes until another one of median length would overrun the budget;
    time spent in probes does not count against it."""
    passes: list[dict] = []
    start = time.perf_counter()
    spent_before = probes.spent if probes else 0.0

    def elapsed() -> float:
        spent = probes.spent - spent_before if probes else 0.0
        return time.perf_counter() - start - spent

    while True:
        if probes:
            probes.run_due(elapsed())
        if passes and elapsed() + statistics.median(p["wall"] for p in passes) > budget:
            break
        passes.append(run_pass(workload, tracer))
    if probes:
        probes.finish()
    return passes


def summarize(passes: list[dict]) -> dict:
    """Run totals.  A latency percentile is taken within each pass, over the
    workload's fixed set of verdicts, and reported as the median over passes,
    so a stretch of machine noise moves it only if it spans most passes."""
    timed = [sorted(p["latencies"]) for p in passes if len(p["latencies"]) > 1]
    if not timed:
        raise RuntimeError("no pass completed two verdicts")
    p50 = [statistics.median(lat) for lat in timed]
    p90 = [statistics.quantiles(lat, n=10, method="inclusive")[8] for lat in timed]
    failures: dict[str, int] = {}
    for p in passes:
        for layer, _, kind in p["failures"]:
            key = f"{layer}:{kind}"
            failures[key] = failures.get(key, 0) + 1
    return {
        "passes": len(passes),
        "verdicts_per_s": statistics.median(len(p["latencies"]) / p["wall"] for p in passes),
        "verdict_p50_ms": 1e3 * statistics.median(p50),
        "verdict_p90_ms": 1e3 * statistics.median(p90),
        "latency_samples": sum(len(lat) for lat in timed),
        "p90_samples_beyond": sum(x > cut for lat, cut in zip(timed, p90) for x in lat),
        "attempted": sum(len(p["latencies"]) + len(p["failures"]) for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "failures": failures,
        "failed_ops": sorted({f"{layer}/{label}" for p in passes
                              for layer, label, _ in p["failures"]}),
        "wrong": [w for p in passes for w in p["wrong"]],
        "pass_wall_median_s": statistics.median(p["wall"] for p in passes),
    }


def untraced_run(workload, args) -> dict:
    """End-to-end numbers, with set-up and CLI probes between passes."""
    py = sys.executable
    cli_argv, cli_exit = workload.cli(args.out)
    setup = [py, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"]
    cli = [py, "-m", "yablo.cli", *cli_argv]
    probes = Probes([spec for _ in range(PROBE_RUNS)
                     for spec in (("setup_s", setup, None), ("cli_cold_s", cli, cli_exit))],
                    args.seconds)
    out = summarize(run_passes(workload, args.seconds, probes))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["probes"] = probes.medians()
    out["probe_samples"] = probes.samples
    out["wrong"] += probes.bad_exits
    return out


def traced_run(workload, api, args) -> dict:
    """Per-layer numbers: an untraced half, then a traced half, then the
    import probes."""
    import tracing
    from yablo.syntax import canonical

    cache = canonical.cache_info()
    plain = run_passes(workload, args.seconds / 2)
    tracer = tracing.Tracer()
    workload.api = tracer.install(api)
    try:
        traced = run_passes(workload, args.seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
        workload.api = api
    layers = tracer.metrics()
    # the cache is process-wide and warm after the untraced half, so its
    # counts cover the whole run, starting cold
    hits = canonical.cache_info().hits - cache.hits
    misses = canonical.cache_info().misses - cache.misses
    passes = len(plain) + len(traced)
    layers["syntax.canonical_hits"] = hits / passes
    layers["syntax.canonical_misses"] = misses / passes
    layers["syntax.canonical_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    registry_s = []
    for _ in range(PROBE_RUNS):
        began = time.perf_counter()
        api.Registry()
        registry_s.append(time.perf_counter() - began)
    layers["corpus.registry_s"] = statistics.median(registry_s)
    # the first pass runs with cold caches, so it is left out of the baseline
    warm = plain[1:] or plain
    layers["trace.overhead_ratio"] = (statistics.median(p["wall"] for p in traced)
                                      / statistics.median(p["wall"] for p in warm))
    probes = Probes([("cli.import_s", [sys.executable, "-c", IMPORT_PROBE], None)] * PROBE_RUNS,
                    0.0)
    probes.finish()
    tracer.write(args.out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    out = summarize(plain + traced)
    out.update(layers=layers, spans=len(tracer.spans), probes=probes.medians(),
               probe_samples=probes.samples)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                    help="directory for the CLI input file and the spans")
    args = ap.parse_args()

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: no workload named {args.workload}", file=sys.stderr)
        return 2
    api = workloads.Api()
    workload = workloads.WORKLOADS[args.workload](api, args.seed)
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(setup_s)
        return 0
    out = traced_run(workload, api, args) if args.trace else untraced_run(workload, args)
    out["inputs"] = workload.inputs()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
