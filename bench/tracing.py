"""Spans around the calls into each yablo layer, recorded from outside yablo.

A :class:`Tracer` wraps public entry points where their caller looks them
up: in the :class:`workloads.Api` the benchmark calls, and in the module
namespaces of yablo modules that call another layer (``yablo.corpus``
binds ``parse_script`` and ``check_kernel_script``, ``yablo.kernel`` binds
``fix_intro`` and ``alpha_eq``, and so on).  Functions that recurse through
their own module globals are wrapped only at the caller, so tracing adds a
fixed number of frames, not one per recursion level.

Each span is ``(name, start, end, parent, op, error)``; spans stay in memory
and are written out when the run ends.  Self time is a span's duration minus
the part its children cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

from yablo import coding, corpus, kernel, meta, scripts

from workloads import Api

# (module, attribute) -> span name: the cross-layer bindings inside yablo
_BINDINGS = {
    (corpus, "parse_script"): "scripts.parse_script",
    (corpus, "check_kernel_script"): "kernel.check",
    (corpus, "check_meta_script"): "meta.check",
    (scripts, "parse_formula"): "parser.parse_formula",
    (kernel, "fix_intro"): "coding.fix_intro",
    (meta, "fix_intro"): "coding.fix_intro",
    (coding, "fix_intro"): "coding.fix_intro",  # corpus.golden_codes imports it late
    (kernel, "alpha_eq"): "syntax.alpha_eq",
    (meta, "alpha_eq"): "syntax.alpha_eq",
    (kernel, "substitute"): "syntax.substitute",
    (meta, "substitute"): "syntax.substitute",
    (meta, "substitute_many"): "syntax.substitute",
    (corpus.Registry, "kernel_conclusion"): "meta.resolve",
    (corpus.Registry, "meta_result"): "meta.resolve",
}

# Api attribute -> span name: the calls the workloads make themselves
_API_SPANS = {
    "Registry": "corpus.registry",
    "golden_codes": "corpus.golden_codes",
    "parse_script": "scripts.parse_script",
    "check_kernel_script": "kernel.check",
    "substitute": "syntax.substitute",
    "fix_intro": "coding.fix_intro",
    "replay_trace": "coding.replay",
    "encode": "coding.encode",
    "decode": "coding.decode",
    "sub_code": "coding.sub_code",
    "decide_gl": "gl.tableau",
    "brute_force": "gl.brute",
    "forces": "gl.replay",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.fix_keys: set = set()
        self.passes = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                spans[idx] = (name, start, clock(), parent, self.op, type(e).__name__)
                raise
            finally:
                stack.pop()
            spans[idx] = (name, start, clock(), parent, self.op, None)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self, api: Api) -> Api:
        """Patch the yablo bindings and return a traced copy of api."""
        for (owner, attr), name in _BINDINGS.items():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        return Api(**{attr: self.wrap(name, getattr(api, attr))
                      for attr, name in _API_SPANS.items()})

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def begin_pass(self) -> None:
        self.passes += 1
        self.fix_keys = set()

    # -- reporting

    def layer_totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total duration, total self time, errors raised."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, err in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        errors: Counter = Counter()
        for i, (name, start, end, parent, op, err) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            if err is not None:
                errors[name] += 1
        return total, own, errors

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics read off the spans, as totals per traced pass
        unless named a ratio, rate or maximum."""
        total, own, errors = self.layer_totals()
        c, n = self.counts, max(self.passes, 1)
        calls = Counter(s[0] for s in self.spans)

        def per_pass(x: float) -> float:
            return x / n

        def rate(num: float, den: float) -> float:
            return num / den if den else 0.0

        brute_calls = calls["gl.brute"]
        return {
            "scripts.parse_s": per_pass(total["scripts.parse_script"]),
            "scripts.scripts_parsed": per_pass(calls["scripts.parse_script"]),
            "scripts.lines_per_s": rate(c["script_lines"], total["scripts.parse_script"]),
            "parser.formula_s": per_pass(total["parser.parse_formula"]),
            "parser.formulas": per_pass(calls["parser.parse_formula"]),
            "kernel.check_s": per_pass(total["kernel.check"]),
            "kernel.self_s": per_pass(own["kernel.check"]),
            "kernel.steps": per_pass(c["kernel_steps"]),
            "kernel.steps_per_s": rate(c["kernel_steps"], total["kernel.check"]),
            "kernel.rejections": per_pass(c["kernel_rejections"]),
            "kernel.steps_before_reject": rate(c["steps_before_reject"], c["kernel_rejections"]),
            "kernel.errors": per_pass(errors["kernel.check"]),
            "syntax.alpha_eq_calls": per_pass(calls["syntax.alpha_eq"]),
            "syntax.alpha_eq_s": per_pass(total["syntax.alpha_eq"]),
            "syntax.substitute_s": per_pass(total["syntax.substitute"]),
            "meta.check_s": per_pass(total["meta.check"]),
            "meta.steps": per_pass(c["meta_steps"]),
            "meta.resolve_s": per_pass(total["meta.resolve"]),
            "coding.fix_intro_s": per_pass(total["coding.fix_intro"]),
            "coding.fix_intro_calls": per_pass(calls["coding.fix_intro"]),
            "coding.fix_intro_repeat_ratio": rate(calls["coding.fix_intro"], c["fix_distinct"]),
            "coding.trace_bits_max": self.maxima["trace_bits"],
            "coding.trace_bits_sum": per_pass(c["trace_bits"]),
            "coding.encode_s": per_pass(total["coding.encode"]),
            "coding.decode_s": per_pass(total["coding.decode"]),
            "coding.sub_code_s": per_pass(total["coding.sub_code"]),
            "coding.replay_s": per_pass(total["coding.replay"]),
            "coding.ops": per_pass(sum(calls[k] for k in (
                "coding.encode", "coding.decode", "coding.sub_code", "coding.replay"))),
            "gl.brute_s": per_pass(total["gl.brute"]),
            "gl.brute_frames": per_pass(c["brute_frames"]),
            "gl.brute_frames_per_s": rate(c["brute_frames"], total["gl.brute"]),
            "gl.brute_frames_per_verdict": rate(c["brute_frames"], brute_calls),
            "gl.tableau_s": per_pass(total["gl.tableau"]),
            "gl.tableau_decisions": per_pass(calls["gl.tableau"]),
            "gl.tableau_states": per_pass(c["tableau_states"]),
            "gl.tableau_states_per_s": rate(c["tableau_states"], total["gl.tableau"]),
            "gl.countermodel_worlds_max": self.maxima["countermodel_worlds"],
            "gl.replay_s": per_pass(total["gl.replay"]),
            "gl.errors": per_pass(errors["gl.tableau"] + errors["gl.brute"]),
        }

    def write(self, path: Path) -> None:
        """One JSON header line naming the fields, then one line per span,
        times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent",
                                             "op", "error"]}) + "\n")
            for name, start, end, parent, op, err in self.spans:
                out.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                      parent, op, err]) + "\n")


# -- counters read off results, at the same boundaries as the spans

def _kernel_report(tr: Tracer, args, report) -> None:
    tr.counts["kernel_steps"] += report.steps_checked
    if not report.ok:
        tr.counts["kernel_rejections"] += 1
        tr.counts["steps_before_reject"] += report.steps_checked


def _meta_report(tr: Tracer, args, report) -> None:
    tr.counts["meta_steps"] += report.steps_checked


def _script_text(tr: Tracer, args, script) -> None:
    tr.counts["script_lines"] += args[0].count("\n") + 1


def _diagonal(tr: Tracer, args, result) -> None:
    _, name, params, body = args
    key = (name, tuple(params), body)
    if key not in tr.fix_keys:
        tr.fix_keys.add(key)
        tr.counts["fix_distinct"] += 1
    bits = [code.bit_length() for _, code in result.trace]
    tr.counts["trace_bits"] += sum(bits)
    tr.maxima["trace_bits"] = max(tr.maxima["trace_bits"], max(bits))


def _tableau(tr: Tracer, args, result) -> None:
    tr.counts["tableau_states"] += result.visited
    if result.model is not None:
        tr.maxima["countermodel_worlds"] = max(tr.maxima["countermodel_worlds"],
                                               result.model.size)


def _brute(tr: Tracer, args, result) -> None:
    tr.counts["brute_frames"] += result.visited


_OBSERVERS = {
    "kernel.check": _kernel_report,
    "meta.check": _meta_report,
    "scripts.parse_script": _script_text,
    "coding.fix_intro": _diagonal,
    "gl.tableau": _tableau,
    "gl.brute": _brute,
}
