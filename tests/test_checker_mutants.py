import importlib

import pytest

from checker_mutants import MUTANTS
from yablo.syntax import canonical


def run_test(node_id: str) -> None:
    """Call the fixture-free test named by node_id, a pytest node id under tests/."""
    path, *names = node_id.split("::")
    target = importlib.import_module(path.removesuffix(".py"))
    for name in names:
        target = getattr(target, name)
        if isinstance(target, type):
            target = target()
    target()


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_checker_mutant_is_killed(mutant, monkeypatch):
    run_test(mutant.killer)
    # canonical's cache keys compare nodes by structure only, so no form
    # computed on either side of the weakening may outlive it
    canonical.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mutant.apply(mp)
            run_test(mutant.killer)
    except (Exception, pytest.fail.Exception):
        return
    finally:
        canonical.cache_clear()
    pytest.fail(f"{mutant.name} survives {mutant.killer}")
