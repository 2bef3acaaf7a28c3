"""The benchmark's traced run wraps yablo's cross-layer bindings by module
attribute (``bench/tracing.py``); these names must stay bound and called."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import Tracer  # noqa: E402
from workloads import Api  # noqa: E402


def test_tracer_records_both_checkers_and_their_layers():
    tracer = Tracer()
    try:
        registry = tracer.install(Api()).Registry()
        assert registry.check("lem_yj_con").ok
        assert registry.check("thm1_1b").ok  # a meta script with a def
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for name in ("coding.fix_intro", "syntax.alpha_eq", "kernel.check", "meta.check"):
        assert name in names, name
    meta = {i for i, name in enumerate(names) if name == "meta.check"}
    assert any(span[0] == "coding.fix_intro" and span[3] in meta for span in tracer.spans)
