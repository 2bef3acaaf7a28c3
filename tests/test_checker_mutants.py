import gc
import importlib

import pytest

from checker_mutants import MUTANTS, Recompiled, edited, without_check
from yablo import coding
from yablo.kernel import check_kernel_script
from yablo.meta import _MetaChecker
from yablo.scripts import Definition, parse_kernel_script
from yablo.syntax import base_signature, canonical


def run_test(node_id: str) -> None:
    """Call the fixture-free test named by node_id, a pytest node id under tests/."""
    path, *names = node_id.split("::")
    target = importlib.import_module(path.removesuffix(".py"))
    for name in names:
        target = getattr(target, name)
        if isinstance(target, type):
            target = target()
    target()


def forget_derived() -> None:
    """Drop what yablo keeps from earlier work, so that nothing computed on
    either side of a weakening outlives it: canonical forms, whose cache keys
    compare nodes by structure only, and the template every live Definition
    keeps from its first check, which other tests may share (the session
    registry's Definitions are)."""
    canonical.cache_clear()
    for obj in gc.get_objects():
        if isinstance(obj, Definition):
            vars(obj).pop("template", None)


def test_forgotten_template_is_rebuilt():
    script = parse_kernel_script('theorem t "t"\ndef D(k) := k < 1\n'
                                 "1. D(0) -> 0 < 1 by unfold D\nconclusion D(0) -> 0 < 1\n")
    assert check_kernel_script(script, base_signature(), {}).ok
    (d,) = script.defs
    assert d.template is not None
    forget_derived()
    assert d.template is None
    assert check_kernel_script(script, base_signature(), {}).ok


def test_methods_calling_super_are_refused():
    with pytest.raises(ValueError, match="calls super"):
        without_check(_MetaChecker, "declare", "eigen")


def test_fragments_matched_other_than_once_are_refused():
    for times, fragment in ((0, "no such text"), (2, "return s")):
        with pytest.raises(ValueError, match=f"occurs {times} times in yablo.coding._sqrtrem"):
            edited(coding, "_sqrtrem", (fragment, ""))
    for times, message in ((0, "no such message"), (2, "does not decode")):
        with pytest.raises(ValueError, match=f"{times} checks in yablo.coding.replay_trace"):
            without_check(coding, "replay_trace", message)


def test_closures_are_refused():
    def outer():
        bound = 0
        return lambda: bound

    with pytest.raises(ValueError, match="is a closure"):
        edited(type("Holder", (), {"inner": staticmethod(outer())}), "inner")


@pytest.mark.parametrize("mutant", [m for m in MUTANTS if isinstance(m.apply, Recompiled)],
                         ids=lambda m: m.name)
def test_unedited_recompile_passes_its_killer(mutant, monkeypatch):
    edited(mutant.apply.owner, mutant.apply.name)(monkeypatch)
    run_test(mutant.killer)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_checker_mutant_is_killed(mutant, monkeypatch):
    run_test(mutant.killer)
    forget_derived()
    try:
        with monkeypatch.context() as mp:
            mutant.apply(mp)
            run_test(mutant.killer)
    except (Exception, pytest.fail.Exception):
        return
    finally:
        forget_derived()
    pytest.fail(f"{mutant.name} survives {mutant.killer}")
