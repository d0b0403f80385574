import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_text
from doodlekit.alexander import braid
from doodlekit.errors import InvalidGaussData
from doodlekit.gauss import GaussData, closure_gauss, isomorphic, parse_gauss, relabel
from doodlekit.words import REAL, TwinWord, parse_word, random_word


def real_count(word):
    return sum(1 for l in word.letters if l.kind == REAL)


@st.composite
def closures(draw):
    """The closure of a word with n <= 7 and at most 30 letters, and a relabelled copy."""
    n = draw(st.integers(1, 7))
    # 1..n-1 are s_1..s_{n-1}; n..2n-2 become r_1..r_{n-1}
    letters = draw(st.lists(st.integers(1, 2 * n - 2), max_size=30)) if n > 1 else []
    g = closure_gauss(TwinWord(n, tuple(a if a < n else n - 1 - a for a in letters)))
    return g, relabel(g, tuple(draw(st.permutations(range(1, g.crossings + 1)))))


@settings(max_examples=200, deadline=None)
@given(closures())
def test_roundtrip_is_exact(pair):
    """The closure of the braid is the diagram itself: equal, not only isomorphic."""
    for g in pair:
        back = closure_gauss(braid(g))
        assert back == g  # the same crossing count, link and free loops
        assert isomorphic(back, g) == tuple(range(1, g.crossings + 1))


class TestBraid:
    def test_free_loops_only(self):
        word = braid(GaussData(0, frozenset(), 2))
        assert word.strands == 2 and word.letters == ()

    def test_empty_diagram_rejected(self):
        with pytest.raises(InvalidGaussData):
            braid(GaussData(0, frozenset(), 0))

    def test_kink(self):
        g = closure_gauss(parse_word("s1", 2))
        word = braid(g)
        assert real_count(word) == 1
        assert word.strands == 2
        assert isomorphic(closure_gauss(word), g) is not None

    def test_two_crossing_example(self):
        g = closure_gauss(parse_word("s1 s2", 3))
        word = braid(g)
        assert real_count(word) == 2
        assert isomorphic(closure_gauss(word), g) is not None

    def test_deterministic(self):
        g = parse_gauss(fixture_text("kishino.gauss"))
        assert braid(g) == braid(g)

    def test_strand_count_formula(self, rng):
        for _ in range(100):
            n = rng.randint(1, 5)
            word = random_word(rng, n, rng.randint(0, 12))
            g = closure_gauss(word)
            if g.crossings == 0 and g.free_loops == 0:
                continue
            out = braid(g)
            winding = sum(1 for frm, to in g.arcs if to.crossing <= frm.crossing)
            assert out.strands == winding + g.free_loops

    def test_roundtrip_random(self, rng):
        for _ in range(150):
            n = rng.randint(1, 5)
            word = random_word(rng, n, rng.randint(0, 15))
            g = closure_gauss(word)
            out = braid(g)
            assert real_count(out) == g.crossings
            assert closure_gauss(out) == g
            assert isomorphic(closure_gauss(out), g) is not None

    def test_roundtrip_kishino(self):
        g = parse_gauss(fixture_text("kishino.gauss"))
        out = braid(g)
        assert real_count(out) == 4
        assert closure_gauss(out) == g
        assert isomorphic(closure_gauss(out), g) is not None

    def test_index_bounds_and_length(self, rng):
        for _ in range(100):
            n = rng.randint(1, 5)
            word = random_word(rng, n, rng.randint(0, 15))
            g = closure_gauss(word)
            out = braid(g)
            m = out.strands
            assert all(1 <= l.index <= m - 1 for l in out.letters)
            assert len(out) <= g.crossings + 2 * len(g.arcs) * m
