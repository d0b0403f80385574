import pytest
from hypothesis import given, settings, strategies as st

from doodlekit.errors import IndexOutOfRange, PatternMismatch, RankMismatch
from doodlekit.freegroup import (
    FreeEndomorphism,
    FreeWord,
    compose,
    mu,
    reduce_free,
    relation_count,
    relation_instances,
    separates,
    separating_generator,
    verify_relations,
)
from doodlekit.words import Letter, Permutation, TwinWord, concat, parse_word, pi, random_word


def w(text, n):
    return parse_word(text, n)


def one_letter_map(a, n):
    """mu of one signed letter, read off the substitution table directly."""
    i = abs(a)
    images = [FreeWord(n, (k,)) for k in range(1, n + 1)]
    if a > 0:
        images[i - 1], images[i] = FreeWord(n, (i, i + 1)), FreeWord(n, (-(i + 1),))
    else:
        images[i - 1], images[i] = FreeWord(n, (i + 1,)), FreeWord(n, (i,))
    return FreeEndomorphism(n, tuple(images))


def signed_letters(n):
    return [a for i in range(1, n) for a in (i, -i)]


@st.composite
def sized_words(draw):
    """Words at the sizes the round-trip benchmark uses: n <= 8, <= 120 letters.

    Besides single letters, the word is built from runs of one s_i, where
    every second s_i cancels a whole image at the seam, and runs of s_i r_i,
    which lengthen both images with every pair.
    """
    n = draw(st.integers(1, 8))
    if n == 1:
        return TwinWord(1, ())
    index = st.integers(1, n - 1)
    block = st.one_of(
        st.sampled_from(signed_letters(n)).map(lambda a: (a,)),
        st.builds(lambda i, k: (i,) * k, index, st.integers(2, 24)),
        st.builds(lambda i, k: (i, -i) * k, index, st.integers(1, 12)),
    )
    return TwinWord(n, sum(draw(st.lists(block, max_size=120)), ())[:120])


@st.composite
def affix_pairs(draw):
    """(u, v) = (P X S, P Y S) on n <= 8 strands: the middles are empty,
    equal, equal with a square inserted into Y (so mu agrees on differing
    middles), or drawn apart."""
    n = draw(st.integers(2, 8))
    part = st.lists(st.sampled_from(signed_letters(n)), max_size=30).map(tuple)
    p, x, s = draw(part), draw(part), draw(part)
    kind = draw(st.sampled_from(["empty", "equal", "square", "apart"]))
    if kind == "empty":
        x = y = ()
    elif kind == "equal":
        y = x
    elif kind == "square":
        g = draw(st.sampled_from(signed_letters(n)))
        k = draw(st.integers(0, len(x)))
        y = x[:k] + (g, g) + x[k:]
    else:
        y = draw(part)
    return TwinWord(n, p + x + s), TwinWord(n, p + y + s)


def least_differing_image(u, v):
    """The brute-force witness: the least i where the whole images differ."""
    fu, fv = mu(u).images, mu(v).images
    return next((i for i in range(1, u.strands + 1) if fu[i - 1] != fv[i - 1]), None)


class TestFreeWords:
    def test_reduce_pair(self):
        assert reduce_free(FreeWord(2, (1, -1))).letters == ()

    def test_reduce_inner(self):
        assert reduce_free(FreeWord(2, (1, 2, -2, 1))).letters == (1, 1)

    def test_reduced_already(self):
        assert reduce_free(FreeWord(2, (1, 2, -1))).letters == (1, 2, -1)

    def test_display(self):
        assert str(FreeWord(3, (1, -2))) == "x1 x2^-1"
        assert str(FreeWord(3, ())) == "1"

    @pytest.mark.parametrize("letters,message", [
        ((1, 0, 2), "letter 0 out of range for rank 3"),
        ((1, 4, -5), "letter 4 out of range for rank 3"),
        ((2, -4, 0), "letter -4 out of range for rank 3"),
        ((1, -(10**30)), "letter -10000000000000000000... (31 digits) out of range for rank 3"),
    ])
    def test_rejects_first_bad_letter(self, letters, message):
        with pytest.raises(IndexOutOfRange) as exc:
            FreeWord(3, letters)
        assert type(exc.value) is IndexOutOfRange and str(exc.value) == message


class TestMu:
    def test_real_generator_images(self):
        m = mu(w("s1", 2))
        assert m.image(1).letters == (1, 2)
        assert m.image(2).letters == (-2,)

    def test_virtual_generator_images(self):
        m = mu(w("r1", 3))
        assert m.image(1).letters == (2,)
        assert m.image(2).letters == (1,)
        assert m.image(3).letters == (3,)

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_generators_outside_1_to_rank_raise(self, i):
        # a tuple index i - 1 would wrap around at 0 and -1 and fail at rank + 1
        with pytest.raises(IndexOutOfRange, match=f"^generator {i} out of range for rank 3$"):
            mu(w("s1", 3)).image(i)

    def test_involution_by_hand(self):
        assert mu(w("s1 s1", 2)) == FreeEndomorphism.identity(2)

    def test_rightmost_first(self):
        assert mu(w("r1 r2 s1", 3)).image(1).letters == (2, 3)
        assert mu(w("s2 r1 r2", 3)).image(1).letters == (2, 3)

    def test_compose_identity(self):
        g = mu(w("s1 r2", 3))
        assert compose(FreeEndomorphism.identity(3), g) == g

    def test_compose_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            compose(FreeEndomorphism.identity(2), FreeEndomorphism.identity(3))

    def test_images_must_be_reduced(self):
        with pytest.raises(PatternMismatch):
            FreeEndomorphism(1, (FreeWord(1, (1, -1)),))
        with pytest.raises(PatternMismatch) as exc:
            FreeEndomorphism(2, (FreeWord(2, (2,)), FreeWord(2, (1, 2, -2, 1))))
        assert type(exc.value) is PatternMismatch
        assert str(exc.value) == "image x1 x2 x2^-1 x1 is not reduced"

    def test_long_unreduced_image_is_cut_in_the_message(self):
        with pytest.raises(PatternMismatch) as exc:
            FreeEndomorphism(1, (FreeWord(1, (1, -1) * 50000),))
        assert type(exc.value) is PatternMismatch
        assert len(str(exc.value)) < 200
        assert str(exc.value) == "image x1 x1^-1 x1 x1^-1 x1... (449999 characters) is not reduced"

    def test_one_image_per_generator_of_its_rank(self):
        with pytest.raises(RankMismatch, match="^one image required per generator$"):
            FreeEndomorphism(2, (FreeWord(2, (1,)),))
        with pytest.raises(RankMismatch, match="^image rank mismatch$"):
            FreeEndomorphism(2, (FreeWord(2, (1,)), FreeWord(3, (2,))))

    def test_rank_mismatches(self):
        with pytest.raises(RankMismatch):
            FreeEndomorphism.identity(2).apply(FreeWord(3, (1,)))
        with pytest.raises(RankMismatch):
            relation_instances(1)

    def test_letter_squares(self):
        for n in (2, 3, 4):
            for kind in "sr":
                for i in range(1, n):
                    m = one_letter_map(Letter(kind, i), n)
                    assert compose(m, m) == FreeEndomorphism.identity(n)

    def test_homomorphism_sampled(self, rng):
        for _ in range(1000):
            n = rng.randint(2, 6)
            u = random_word(rng, n, rng.randint(0, 8))
            v = random_word(rng, n, rng.randint(0, 8))
            assert mu(concat(u, v)) == compose(mu(u), mu(v))

    @settings(max_examples=200, deadline=None)
    @given(sized_words(), st.data())
    def test_fold_of_one_letter_maps(self, word, data):
        n, code = word.strands, word.code
        fold = FreeEndomorphism.identity(n)
        for a in code:
            fold = compose(fold, one_letter_map(a, n))
        assert mu(word) == fold
        far = [p for p in range(len(code) - 1) if abs(abs(code[p]) - abs(code[p + 1])) >= 2]
        if far:
            p = data.draw(st.sampled_from(far))
            swapped = code[:p] + (code[p + 1], code[p]) + code[p + 2 :]
            assert not separates(word, TwinWord(n, swapped))
        if n > 1:
            p = data.draw(st.integers(0, len(code)))
            g = data.draw(st.sampled_from(signed_letters(n)))
            assert not separates(word, TwinWord(n, code[:p] + (g, g) + code[p:]))

    @settings(max_examples=200, deadline=None)
    @given(sized_words())
    def test_unchecked_images_pass_the_checks(self, word):
        # mu skips the constructors' checks; rebuilding through them passes
        f = mu(word)
        rebuilt = FreeEndomorphism(f.rank, tuple(FreeWord(f.rank, x.letters) for x in f.images))
        assert f == rebuilt and hash(f) == hash(rebuilt)
        for image in f.images:
            assert type(image.letters) is tuple
            assert reduce_free(image) == image


class TestRelations:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 14), (5, 26), (6, 42)])
    def test_instance_counts(self, n, count):
        assert len(relation_instances(n)) == count
        assert relation_count(n) == count

    @pytest.mark.parametrize("f", [relation_count, relation_instances, verify_relations])
    @pytest.mark.parametrize("n", [-2, 0, 1])
    def test_below_two_strands_the_count_raises_as_the_enumeration(self, f, n):
        with pytest.raises(RankMismatch, match=f"^relations need n >= 2, got {n}$"):
            f(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_all_hold(self, n):
        report = verify_relations(n)
        assert all(r.holds for r in report)


class TestSeparation:
    def test_forbidden_real(self):
        u, v = w("s1 s2 s1", 3), w("s2 s1 s2", 3)
        assert separating_generator(u, v) == 1
        assert str(mu(u).image(1)) == "x1 x3"
        assert str(mu(v).image(1)) == "x1 x2 x3"

    def test_forbidden_mixed(self):
        u, v = w("r1 s2 s1", 3), w("s2 s1 r2", 3)
        assert separating_generator(u, v) == 1
        assert str(mu(u).image(1)) == "x2 x1 x3"
        assert str(mu(v).image(1)) == "x1 x2 x3"

    def test_equal_words(self):
        assert not separates(w("s1 r2", 3), w("s1 r2", 3))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            separates(w("s1", 2), w("s1", 3))

    def test_virtual_braid_not_separated(self):
        assert not separates(w("r1 r2 r1", 3), w("r2 r1 r2", 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_never_separates_relation_sides(self, n):
        for _, lhs, rhs in relation_instances(n):
            assert not separates(lhs, rhs)

    @settings(max_examples=400, deadline=None)
    @given(affix_pairs())
    def test_witness_is_least_differing_image(self, pair):
        u, v = pair
        assert separating_generator(u, v) == least_differing_image(u, v)
        assert separating_generator(v, u) == least_differing_image(v, u)

    def test_witness_of_words_not_of_middles(self):
        # u = X r1 and v = Y r1: the middles separate at x1, the words at x2
        u, v = w("s1 r2 s1 r1", 3), w("r1 s2 r2 r1", 3)
        assert mu(w("s1 r2 s1", 3)).image(1) != mu(w("r1 s2 r2", 3)).image(1)
        assert separating_generator(u, v) == 2
        assert mu(u).image(1) == mu(v).image(1)

    def test_mu_is_not_faithful(self):
        # distinct in VT_3 (freegroup docstring), yet neither mu nor pi tells them apart
        u, v = w("s2 r2 s1 r2 r1 s1 s2 s1", 3), w("r1 s1 s2 s1 s2 r2 s1 r2", 3)
        assert not separates(u, v)
        assert mu(u) == mu(v)
        assert pi(u) == pi(v) == Permutation.identity(3)
