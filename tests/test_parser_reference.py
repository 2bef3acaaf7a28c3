"""yablo.parser against the reference parser it replaced.

On every input both give the same AST, or both raise an error of the same
type with the same message and column.  Inputs: every formula and term text
the corpus parses (scripts, generated instances, arith.axioms), seeded
`astgen` samples, and seeded single-token insertions, deletions and
truncations of the corpus texts, all ASCII and under the nesting cap.
"""

from __future__ import annotations

import random
import re

import pytest
import reference_parser as reference
from astgen import rand_formula, rand_term

from yablo import parser, scripts
from yablo.corpus import Registry
from yablo.syntax import print_formula, print_term

_PIECE = re.compile(r"->|:=|[A-Za-z0-9_]+|\S")
_VOCABULARY = ["->", ":=", "(", ")", "[", "]", ";", ",", ".", "+", "*", "=", "<", ">",
               "~", "&", "|", "-", ":", "_", "$", "x", "y", "k", "S", "Prov", "P", "YJ",
               "all", "exists", "bot", "by", "self", "0", "7", "42"]


def outcome(parse, text: str):
    try:
        return "ok", parse(text)
    except ValueError as e:
        return "error", type(e).__name__, str(e)


def assert_same(kind: str, texts) -> None:
    new = getattr(parser, f"parse_{kind}")
    old = getattr(reference, f"parse_{kind}")
    for text in texts:
        assert outcome(new, text) == outcome(old, text), text


@pytest.fixture(scope="module")
def corpus_texts() -> dict[str, list[str]]:
    """The texts scripts.py hands the object parser while a Registry loads
    and every script's text is parsed, in the order it hands them over.  The
    texts are parsed here, not through the Registry, which builds generated
    scripts from one parsed template per family."""
    seen: dict[str, list[str]] = {"formula": [], "term": []}

    def recording(kind: str):
        parse = getattr(scripts, f"parse_{kind}")

        def record(text: str):
            seen[kind].append(text)
            return parse(text)

        return record

    with pytest.MonkeyPatch.context() as mp:
        for kind in seen:
            mp.setattr(scripts, f"parse_{kind}", recording(kind))
        registry = Registry()
        for name in registry.names():
            scripts.parse_script(registry.entry(name).text)
    return {kind: list(dict.fromkeys(texts)) for kind, texts in seen.items()}


def mutations(texts: list[str], count: int, seed: int) -> list[str]:
    """count single-token insertions, deletions and truncations of texts;
    an edited token is set off by spaces, so it never merges with a neighbour."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = rng.choice(texts)
        spans = [m.span() for m in _PIECE.finditer(text)]
        start, end = rng.choice(spans)
        how = rng.randrange(3)
        if how == 0:
            out.append(f"{text[:start]} {rng.choice(_VOCABULARY)} {text[start:]}")
        elif how == 1:
            out.append(f"{text[:start]} {text[end:]}")
        else:
            out.append(text[:rng.randrange(len(text) + 1)])
    return out


def test_corpus_texts_collected(corpus_texts):
    assert len(corpus_texts["formula"]) > 300
    assert corpus_texts["term"]


@pytest.mark.parametrize("kind", ["formula", "term"])
def test_corpus_texts(corpus_texts, kind):
    assert_same(kind, corpus_texts[kind])


def test_astgen_samples():
    rng = random.Random(20261018)
    assert_same("formula", [print_formula(rand_formula(rng, rng.randrange(1, 6)))
                            for _ in range(400)])
    assert_same("term", [print_term(rand_term(rng, rng.randrange(0, 5), []))
                         for _ in range(400)])


@pytest.mark.parametrize("kind", ["formula", "term"])
def test_token_mutations(corpus_texts, kind):
    texts = corpus_texts[kind] + (corpus_texts["formula"] if kind == "term" else [])
    mutants = mutations(texts, 3000, seed=len(kind))
    assert all(t.isascii() for t in mutants)
    assert_same(kind, mutants)
