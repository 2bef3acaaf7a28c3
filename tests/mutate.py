"""Single-step mutants of kernel scripts, for checker-robustness tests.

Two mutation families, both guaranteed (by construction) to damage a valid
script in a way the checker must localize:

- deletion of any step that a later step cites (directly or as a block
  target): the citing step dangles, so the checker must report a step after
  the deleted one and no later than its first citer;
- retargeting the minor premise of a detachment step to a neighbouring index
  whose stated formula is not alpha-equivalent to the original premise: the
  antecedent check must fail at that step.

Each mutant comes with that range, as bench/workloads.py requires it too.
"""

import dataclasses
from typing import Iterator

from yablo.scripts import KernelScript
from yablo.syntax import alpha_eq

# label, script, and the first and last step the checker may report
Mutant = tuple[str, KernelScript, int, int]


def first_citers(script: KernelScript) -> dict[int, int]:
    """Each cited step index, block targets included, mapped to the index of
    the first step citing it."""
    first: dict[int, int] = {}
    for step in script.steps:
        for ref in (*step.refs, *(() if step.target is None else (step.target,))):
            first.setdefault(ref, step.index)
    return first


def referenced_indices(script: KernelScript) -> list[int]:
    return sorted(first_citers(script))


def deletion_mutants(script: KernelScript) -> Iterator[Mutant]:
    for idx, citer in sorted(first_citers(script).items()):
        steps = tuple(s for s in script.steps if s.index != idx)
        yield (f"{script.name}: without step {idx}",
               dataclasses.replace(script, steps=steps), idx + 1, citer)


def mp_retarget_mutants(script: KernelScript) -> Iterator[Mutant]:
    stated = {s.index: s.formula for s in script.steps if s.formula is not None}
    for pos, step in enumerate(script.steps):
        if step.kind != "derive" or step.rule != "mp":
            continue
        major, minor = step.refs
        for swapped in (minor - 1, minor + 1):
            if swapped not in stated or swapped >= step.index:
                continue
            if alpha_eq(stated[swapped], stated[minor]):
                continue
            steps = list(script.steps)
            steps[pos] = dataclasses.replace(step, refs=(major, swapped))
            yield (f"{script.name}: step {step.index} detaches from {swapped} instead of {minor}",
                   dataclasses.replace(script, steps=tuple(steps)), step.index, step.index)


def all_mutants(script: KernelScript) -> Iterator[Mutant]:
    yield from deletion_mutants(script)
    yield from mp_retarget_mutants(script)
