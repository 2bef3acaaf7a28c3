"""Weakened checkers, each with the test that must kill it.

An entry patches one weakening into the checkers in-process, through pytest's
monkeypatch, so no source is rewritten and no subprocess is spawned.  Its
killer is the node id of a test under tests/ that takes no fixtures: it must
pass on the checkers as they are and fail under the weakening.
tests/test_checker_mutants.py runs every entry and fails on a survivor.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import pytest

from test_coding import div3n2n_without_fixup, sqrtrem_without_correction
from test_kernel import exE_without_assumptions_banned
from test_meta import m_refl1_without_the_range_check
from yablo import coding, syntax
from yablo.kernel import _KernelChecker
from yablo.meta import _MetaChecker


@dataclass(frozen=True)
class CheckerMutant:
    name: str
    apply: Callable[[pytest.MonkeyPatch], None]
    killer: str


def uses_skip_quotation_templates(mp: pytest.MonkeyPatch) -> None:
    held = syntax.Box.__post_init__

    def weakened(self):
        held(self)
        object.__setattr__(self, "uses", ())

    mp.setattr(syntax.Box, "__post_init__", weakened)


def binder_keeps_its_variable(mp: pytest.MonkeyPatch) -> None:
    def weakened(q):
        object.__setattr__(q, "free", q.body.free)
        object.__setattr__(q, "uses", q.body.uses)

    mp.setattr(syntax.ForAll, "__post_init__", weakened)
    mp.setattr(syntax.Exists, "__post_init__", weakened)


def merge_drops_its_right_operand(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(syntax, "_merge", lambda a, b: a)


def exE_ignores_open_assumptions(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(_KernelChecker, "rule_exE", exE_without_assumptions_banned)


def m_refl1_skips_the_range_check(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(_MetaChecker, "rule_m_refl1", m_refl1_without_the_range_check)


def root_skips_its_correction(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(coding, "_sqrtrem", sqrtrem_without_correction)


def division_skips_its_fixup(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(coding, "_div3n2n", div3n2n_without_fixup)


def pair_swaps_two_tags(mp: pytest.MonkeyPatch) -> None:
    held = coding.pair
    swap = {coding.TAG_EQ: coding.TAG_LT, coding.TAG_LT: coding.TAG_EQ}
    mp.setattr(coding, "pair", lambda a, b: held(swap.get(a, a), b))


def successor_left_unfolded(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(coding, "_succ_code", lambda inner, split: coding.pair(coding.TAG_SUCC, inner))


CRITERION_1 = "test_acceptance.py::test_criterion_1_whole_corpus_checks_within_ten_seconds"

MUTANTS = [
    CheckerMutant("uses skip quotation templates", uses_skip_quotation_templates,
                  "test_kernel.py::TestArityCheck::test_checked_inside_quotations"),
    CheckerMutant("binder keeps its variable free", binder_keeps_its_variable, CRITERION_1),
    CheckerMutant("ordered merge drops its right operand", merge_drops_its_right_operand,
                  CRITERION_1),
    CheckerMutant("exE ignores the open assumptions", exE_ignores_open_assumptions,
                  "test_kernel.py::TestCheckerWeakenings::test_exE_witness_free_in_an_open_assumption"),
    CheckerMutant("m-refl1 without its range check", m_refl1_skips_the_range_check,
                  "test_meta.py::TestCheckerWeakenings::test_m_refl1_range_outside_the_schematic_names"),
    CheckerMutant("square root without its correction step", root_skips_its_correction,
                  "test_coding.py::TestSquareRoot::test_squares_and_their_neighbours"),
    CheckerMutant("recursive division without its remainder fix-up", division_skips_its_fixup,
                  "test_coding.py::TestSquareRoot::test_division_agrees_with_divmod"),
    CheckerMutant("pair swaps the = and < tags", pair_swaps_two_tags,
                  "test_coding.py::TestEncoding::test_structural_values"),
    CheckerMutant("sub_code leaves a numeral's successor unfolded", successor_left_unfolded,
                  "test_coding.py::TestCodeSubstitution::test_successor_folds_into_numeral"),
]
