import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mutate import all_mutants
from yablo.corpus import KERNEL_ORDER, Registry
from yablo.kernel import CheckReport, check_kernel_script
from yablo.syntax import base_signature


@pytest.fixture(scope="session")
def registry() -> Registry:
    return Registry()


@pytest.fixture(scope="session")
def mutant_reports(registry) -> list[tuple[str, CheckReport, int, int]]:
    """Every single-step mutant of the bundled kernel scripts, checked once,
    with the first and last step its violation may sit at."""
    return [(label, check_kernel_script(mutant, base_signature(), registry.axioms), lo, hi)
            for name in KERNEL_ORDER
            for label, mutant, lo, hi in all_mutants(registry.script(name))]
