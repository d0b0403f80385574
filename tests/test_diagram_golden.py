"""Exact outputs of the diagram functions, pinned in ``tests/golden/diagram_kernels.txt``.

For each of 300 seeded words (n = 1..8, 0..60 letters) the golden has one
block: the word, then the braid of its closure, its closure's Gauss data
(``format_gauss``), its closure component count, ``pi`` in cycle notation
and the ``isomorphic`` witness from its closure to a seeded relabelling of
it.  Regenerate it, only when an output is meant to change, with

    PYTHONPATH=src:tests python -c "import test_diagram_golden as t; t.write()"
"""

import random

from conftest import GOLDEN
from doodlekit.alexander import braid
from doodlekit.gauss import closure_gauss, format_gauss, isomorphic, relabel
from doodlekit.words import closure_components, format_word, pi, random_word

DIAGRAM_GOLDEN = GOLDEN / "diagram_kernels.txt"
SEED, WORDS = 22, 300


def golden_text() -> str:
    rng = random.Random(SEED)
    blocks = []
    for k in range(WORDS):
        n = rng.randint(1, 8)
        w = random_word(rng, n, rng.randint(0, 60))
        g = closure_gauss(w)
        sigma = list(range(1, g.crossings + 1))
        rng.shuffle(sigma)
        witness = isomorphic(g, relabel(g, tuple(sigma)))
        b = braid(g)  # every closure has a component, so braid never refuses it
        blocks.append(
            f"word {k} n={n} {format_word(w)}".rstrip()
            + f"\nbraid n={b.strands} {format_word(b)}".rstrip()
            + "\n"
            + format_gauss(g)
            + f"components {closure_components(w)}\n"
            f"pi {pi(w).cycle_string()}\n"
            f"witness {witness}\n"
        )
    return "\n".join(blocks)


def write() -> None:
    DIAGRAM_GOLDEN.write_text(golden_text())


def test_diagram_functions_match_golden():
    want = DIAGRAM_GOLDEN.read_text().split("\n\n")
    got = golden_text().split("\n\n")
    assert len(got) == len(want) == WORDS
    for block, expected in zip(got, want):
        assert block == expected
