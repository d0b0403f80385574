import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_text
from test_cli import GAUSS_REJECTS, invoke
from doodlekit.alexander import braid
from doodlekit.errors import MatchingViolation, NegativeCount, SlotMisuse
from doodlekit.gauss import (
    End,
    GaussData,
    _gauss,
    closure_gauss,
    format_gauss,
    isomorphic,
    make_gauss,
    parse_gauss,
    relabel,
    validate,
)
from doodlekit.words import REAL, Letter, TwinWord, parse_word, pi, random_word

KINK = make_gauss(1, [((1, 3), (1, 1)), ((1, 4), (1, 2))])
TWISTED = make_gauss(1, [((1, 3), (1, 2)), ((1, 4), (1, 1))])


def w(text, n):
    return parse_word(text, n)


class TestValidate:
    def test_kink_ok(self):
        validate(KINK)

    def test_slot_misuse(self):
        with pytest.raises(SlotMisuse):
            GaussData(1, frozenset({(End(1, 1), End(1, 3)), (End(1, 4), End(1, 2))}), 0)

    def test_matching_violation(self):
        with pytest.raises(MatchingViolation):
            GaussData(1, frozenset({(End(1, 3), End(1, 1))}), 0)

    def test_negative_count(self):
        with pytest.raises(NegativeCount):
            GaussData(0, frozenset(), -1)

    def test_unknown_crossing_id(self):
        with pytest.raises(MatchingViolation):
            GaussData(1, frozenset({(End(1, 3), End(2, 1)), (End(1, 4), End(1, 2))}), 0)

    @pytest.mark.parametrize(
        "crossings,arcs,message",
        [
            (10**5000, [], "expected 20000000000000000000... (5001 digits) arcs, found 0"),
            (1, [((1, 3), (10**5000, 1)), ((1, 4), (1, 2))],
             "end 10000000000000000000... (5001 digits).1 names no crossing"),
            (1, [((1, 10**30), (1, 1)), ((1, 4), (1, 2))],
             "arc source 1.10000000000000000000... (31 digits) is not an exit end"),
            (1, [((1, 3), (2, 1)), ((1, 4), (1, 2))], "end 2.1 names no crossing"),
        ],
        ids=["count", "crossing", "slot", "short"],
    )
    def test_messages_cut_long_numbers(self, crossings, arcs, message):
        with pytest.raises((MatchingViolation, SlotMisuse)) as exc:
            make_gauss(crossings, arcs)
        assert str(exc.value) == message


    def test_link_rechecked(self):
        # validate re-checks a link that library code built without checks
        validate(_gauss(1, (2, 3, 0, 1), 0))
        for link, error in [
            ((2, 3, 0), MatchingViolation),  # not 4n ends
            ((2, 2, 0, 1), MatchingViolation),  # not a bijection
            ((3, 2, 0, 1), MatchingViolation),  # not an involution
            ((2, 3, 4, 1), MatchingViolation),  # names an end past 4n
            ((1, 0, 3, 2), SlotMisuse),  # entries paired with entries
        ]:
            with pytest.raises(error):
                validate(_gauss(1, link, 0))

    @pytest.mark.parametrize("crossings, free_loops", [(-1, 0), (0, -1)])
    def test_negative_count_rechecked(self, crossings, free_loops):
        with pytest.raises(NegativeCount):
            validate(_gauss(crossings, (), free_loops))

    def test_str_is_the_file_format(self):
        assert str(KINK) == format_gauss(KINK)


class TestRelabel:
    @pytest.mark.parametrize("sigma", [(1,), (1, 1), (1, 3), (0, 1), (2, 1, 3)])
    def test_sigma_must_be_a_permutation(self, sigma):
        g = closure_gauss(w("s1 s1", 2))
        with pytest.raises(MatchingViolation):
            relabel(g, sigma)

    def test_swap(self):
        g = closure_gauss(w("s1 s1", 2))
        assert relabel(g, (2, 1)).sorted_arcs == sorted(
            ((End(3 - f.crossing, f.slot), End(3 - t.crossing, t.slot)) for f, t in g.arcs)
        )


@st.composite
def twin_words(draw):
    n = draw(st.integers(1, 8))
    # 1..n-1 are s_1..s_{n-1}; n..2n-2 become r_1..r_{n-1}
    letters = draw(st.lists(st.integers(1, 2 * n - 2), max_size=60)) if n > 1 else []
    return TwinWord(n, tuple(a if a < n else n - 1 - a for a in letters))


@settings(max_examples=100, deadline=None)
@given(twin_words())
def test_link_and_arcs_agree(word):
    """The link built by closure_gauss and the one the checked constructor
    builds from its arcs are the same data to every caller."""
    g = closure_gauss(word)
    h = make_gauss(g.crossings, g.arcs, g.free_loops)
    assert h == g and hash(h) == hash(g) and h.arcs == g.arcs
    assert parse_gauss(format_gauss(g)) == g
    validate(g)
    others = [relabel(g, tuple(range(g.crossings, 0, -1)))]
    if g.crossings or g.free_loops:
        assert braid(h) == braid(g)
        others.append(closure_gauss(braid(g)))
    for other in others:
        assert isomorphic(h, other) == isomorphic(g, other) is not None
        assert isomorphic(other, h) == isomorphic(other, g)


class TestClosureGauss:
    def test_kink(self):
        assert closure_gauss(w("s1", 2)) == KINK

    def test_empty_word(self):
        g = closure_gauss(w("", 3))
        assert g.crossings == 0 and g.free_loops == 3

    def test_two_crossings(self):
        got = closure_gauss(w("s1 s1", 2))
        expect = make_gauss(
            2,
            [
                ((1, 4), (2, 2)),
                ((1, 3), (2, 1)),
                ((2, 3), (1, 1)),
                ((2, 4), (1, 2)),
            ],
        )
        assert got == expect

    def test_no_reduction_first(self):
        assert closure_gauss(w("s1 s1", 2)).crossings == 2

    @staticmethod
    def curve_count(g):
        """Closed curves through the arcs: an oracle independent of pi."""
        from doodlekit.gauss import CONTINUATION

        succ = {frm: to for frm, to in g.arcs}
        entries = {(c, s) for c in range(1, g.crossings + 1) for s in (1, 2)}
        count = 0
        while entries:
            start = entries.pop()
            cur = start
            while True:
                exit_end = End(cur[0], CONTINUATION[cur[1]])
                cur = tuple(succ[exit_end])
                if cur == start:
                    break
                entries.remove(cur)
            count += 1
        return count

    def test_crossing_count_and_loops(self, rng):
        for _ in range(200):
            n = rng.randint(1, 5)
            word = random_word(rng, n, rng.randint(0, 12))
            g = closure_gauss(word)
            assert g.crossings == sum(1 for l in word.letters if l.kind == REAL)
            assert g.free_loops + self.curve_count(g) == len(pi(word).cycles())

    def test_cyclic_shift_isomorphic(self, rng):
        # closures are cut-point independent
        for _ in range(150):
            n = rng.randint(2, 4)
            word = random_word(rng, n, rng.randint(1, 10))
            shifted = parse_word(
                " ".join(str(l) for l in word.letters[1:] + word.letters[:1]), n
            )
            assert isomorphic(closure_gauss(word), closure_gauss(shifted)) is not None


class TestIsomorphic:
    def test_reflexive_identity(self):
        g = closure_gauss(w("s1 r2 s1", 3))
        assert isomorphic(g, g) == tuple(range(1, g.crossings + 1))

    def test_kink_vs_twisted(self):
        assert isomorphic(KINK, TWISTED) is None

    def test_swap_symmetric_relabeling(self):
        g = closure_gauss(w("s1 s1", 2))
        assert isomorphic(g, relabel(g, (2, 1))) == (1, 2)

    def test_double_cover_is_not_a_witness(self):
        # both crossings of s1 s1 map onto the kink slot for slot, but not injectively
        kink_and_twisted = make_gauss(
            2, [((1, 3), (1, 1)), ((1, 4), (1, 2)), ((2, 3), (2, 2)), ((2, 4), (2, 1))]
        )
        assert isomorphic(closure_gauss(w("s1 s1", 2)), kink_and_twisted) is None

    def test_free_loop_mismatch(self):
        assert isomorphic(GaussData(0, frozenset(), 1), GaussData(0, frozenset(), 2)) is None

    def test_random_relabeling(self, rng):
        for _ in range(100):
            n = rng.randint(2, 5)
            word = random_word(rng, n, rng.randint(1, 12))
            g = closure_gauss(word)
            if g.crossings == 0:
                continue
            sigma = list(range(1, g.crossings + 1))
            rng.shuffle(sigma)
            h = relabel(g, tuple(sigma))
            found = isomorphic(g, h)
            assert found is not None
            assert relabel(g, found) == h

    @staticmethod
    def least_witness(g1, g2):
        """Brute force: the least sigma over every permutation, else None."""
        if (g1.crossings, g1.free_loops) != (g2.crossings, g2.free_loops):
            return None
        for sigma in itertools.permutations(range(1, g1.crossings + 1)):
            if relabel(g1, sigma) == g2:
                return sigma
        return None

    def test_least_witness_brute_force(self, rng):
        outcomes = set()
        for _ in range(600):
            n = rng.randint(1, 5)
            word = random_word(rng, n, rng.randint(0, 10))
            g1 = closure_gauss(word)
            if g1.crossings > 6:
                continue
            # same letter kinds, fresh indices: same crossing count, isomorphic or not
            fresh = (Letter(l.kind, rng.randint(1, n - 1)) for l in word.letters)
            other = TwinWord(n, tuple(fresh))
            g2 = closure_gauss(other if rng.random() < 0.5 else word)
            perm = list(range(1, g2.crossings + 1))
            rng.shuffle(perm)
            g2 = relabel(g2, tuple(perm))
            expect = self.least_witness(g1, g2)
            assert isomorphic(g1, g2) == expect
            outcomes.add(expect is None)
        assert outcomes == {True, False}

    @staticmethod
    def large_pair():
        """About 1,300 crossings: past the depth a recursive matcher reaches.

        The copy swaps crossings 2 and 3, so the links differ and the equal-link
        return does not apply: rooting crossing 1 at 1 forces the whole piece.
        """
        rng = random.Random(2600)
        g = closure_gauss(random_word(rng, 8, 2_600))
        sigma = (1, 3, 2) + tuple(range(4, g.crossings + 1))
        return g, relabel(g, sigma), sigma

    def test_large_aligned_pair(self):
        g, h, sigma = self.large_pair()
        assert g.crossings > 1_200 and g.link != h.link
        assert isomorphic(g, h) == sigma

    def test_large_aligned_pair_cli(self, tmp_path):
        g, h, sigma = self.large_pair()
        paths = [tmp_path / "a.gauss", tmp_path / "b.gauss"]
        for path, data in zip(paths, (g, h)):
            path.write_text(format_gauss(data), encoding="utf-8")
        code, out, _ = invoke("gauss-iso", *map(str, paths))
        assert code == 0
        assert out.split() == [f"{k}->{v}" for k, v in enumerate(sigma, start=1)]

    def test_symmetric_relabeled_copy_is_fast(self):
        # five disjoint 13-crossing chains whose crossings all look alike
        g = closure_gauss(parse_word("s1 s3 s5 s7 s9 " * 13, 10))
        perm = list(range(1, g.crossings + 1))
        random.Random(0).shuffle(perm)
        h = relabel(g, tuple(perm))
        start = time.perf_counter()
        sigma = isomorphic(g, h)
        assert time.perf_counter() - start < 0.5
        assert relabel(g, sigma) == h

    def test_symmetric_and_transitive(self, rng):
        words = [random_word(rng, 3, rng.randint(1, 8)) for _ in range(12)]
        data = [closure_gauss(word) for word in words]
        for a in data:
            for c in data:
                ab = isomorphic(a, c)
                ba = isomorphic(c, a)
                assert (ab is None) == (ba is None)
        for a in data:
            for c in data:
                for e in data:
                    if isomorphic(a, c) is not None and isomorphic(c, e) is not None:
                        assert isomorphic(a, e) is not None


class TestFileFormat:
    def test_roundtrip(self):
        g = closure_gauss(w("s1 s2 r1", 3))
        assert parse_gauss(format_gauss(g)) == g

    def test_fixture_files(self):
        for name in ("kink", "twisted", "two_crossings", "kishino"):
            g = parse_gauss(fixture_text(f"{name}.gauss"))
            validate(g)

    def test_kink_fixture_matches(self):
        assert parse_gauss(fixture_text("kink.gauss")) == KINK

    def test_rejects_bad_matching(self):
        with pytest.raises(MatchingViolation):
            parse_gauss("crossings 1\nfreeloops 0\narc 1.3 1.1\n")

    @pytest.mark.parametrize("text, error", GAUSS_REJECTS.items())
    def test_rejects_with_its_error(self, text, error):
        with pytest.raises(error):
            parse_gauss(text)
