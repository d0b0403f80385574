import copy
import dataclasses
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from doodlekit import words
from doodlekit.errors import (
    DoodleError,
    IndexOutOfRange,
    InvalidStrandCount,
    PatternMismatch,
    RankMismatch,
    UnknownToken,
)
from doodlekit.words import (
    Letter,
    Permutation,
    TwinWord,
    closure_components,
    concat,
    format_word,
    format_word_file,
    free_reduce,
    inverse,
    parse_word,
    parse_word_file,
    pi,
    random_word,
    shift_left,
)


def w(text, n):
    return parse_word(text, n)


def letters(max_n):
    return st.builds(
        Letter,
        st.sampled_from("sr"),
        st.integers(1, max_n - 1),
    )


def twin_words(n):
    return st.builds(lambda ls: TwinWord(n, tuple(ls)), st.lists(letters(n), max_size=20))


class TestParse:
    def test_tokens(self):
        word = w("s1 r2 s1", 3)
        assert word.letters == (Letter("s", 1), Letter("r", 2), Letter("s", 1))

    def test_empty(self):
        assert w("", 4).letters == ()

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            w("s3", 3)

    def test_unknown_token(self):
        with pytest.raises(UnknownToken):
            w("t1", 3)
        with pytest.raises(UnknownToken):
            w("s", 3)

    def test_bad_strand_count(self):
        with pytest.raises(InvalidStrandCount):
            w("", 0)
        with pytest.raises(InvalidStrandCount):  # before the letters are read
            TwinWord(0, ("x",))

    def test_index_zero(self):
        with pytest.raises(IndexOutOfRange):
            w("s0", 3)

    def test_bad_token_before_bad_strand_count(self):
        with pytest.raises(UnknownToken):
            w("s1 t1", 0)
        with pytest.raises(InvalidStrandCount) as exc:
            w("s1 s9", 0)
        assert str(exc.value) == "strand count must be >= 1, got 0"

    def test_messages_name_the_first_bad_letter(self):
        with pytest.raises(IndexOutOfRange) as exc:
            w("s1 r3 s4", 3)
        assert type(exc.value) is IndexOutOfRange
        assert str(exc.value) == "letter r3 invalid on 3 strands"
        with pytest.raises(IndexOutOfRange) as exc:
            w("s1 r0", 3)
        assert str(exc.value) == "letter r0 has index below 1"

    def test_one_strand_word_must_be_empty(self):
        with pytest.raises(IndexOutOfRange):
            TwinWord(1, (Letter("s", 1),))

    @pytest.mark.parametrize("code,token", [
        ((1, 3, -2), "s3"),
        ((-1, -3, 3), "r3"),
        ((2, 0, -3), "r0"),
        ((5, 0), "s5"),
        ((0, 5), "r0"),
        ((1, 0, -2), "r0"),
    ])
    def test_out_of_range_names_first_bad_token(self, code, token):
        with pytest.raises(IndexOutOfRange) as exc:
            TwinWord(3, code)
        assert type(exc.value) is IndexOutOfRange
        assert str(exc.value) == f"letter {token} invalid on 3 strands"

    @given(twin_words(4))
    def test_format_parse_roundtrip(self, word):
        assert parse_word(format_word(word), 4) == word

    def test_word_file_roundtrip(self):
        word = w("s1 r2", 3)
        assert parse_word_file(format_word_file(word)) == word

    @pytest.mark.parametrize("header", ["n=+3", "n=0_3", "n=\u0663", "n=", "n=three", ""])
    def test_word_file_strand_count_is_ascii_digits(self, header):
        with pytest.raises(UnknownToken):
            parse_word_file(f"{header}\ns1 r2\n")

    def test_word_file_has_one_token_line(self):
        with pytest.raises(UnknownToken):
            parse_word_file("n=3\ns1\ns2\n")


REFERENCE_TOKEN = re.compile(r"([sr])([0-9]+)$")


def reference_parse(text, n):
    """parse_word written as one regex match per token and one check per letter."""
    code = []
    for tok in text.split():
        m = REFERENCE_TOKEN.match(tok)
        if m is None:
            raise UnknownToken(f"bad token {tok!r}")
        i = int(m.group(2))
        if i < 1:
            raise IndexOutOfRange(f"letter {tok} has index below 1")
        code.append(i if m.group(1) == "s" else -i)
    if n < 1:
        raise InvalidStrandCount(f"strand count must be >= 1, got {n}")
    for a in code:
        if not 0 < abs(a) < n:
            kind = "s" if a > 0 else "r"
            raise IndexOutOfRange(f"letter {kind}{abs(a)} invalid on {n} strands")
    return n, tuple(code)


def outcome(parse, text, n):
    try:
        return parse(text, n)
    except DoodleError as exc:
        return type(exc), str(exc)


# every one raises on 3 strands
BAD_TOKENS = ["S1", "s", "s0", "s\u0663", "r-1", "s1x", "t1", "r0000000000", "s5", "s12345678901"]

token_soups = st.lists(
    st.one_of(
        st.builds(lambda kind, i: f"{kind}{i}", st.sampled_from("sr"), st.integers(1, 12)),
        st.sampled_from(BAD_TOKENS + ["s01", "r007"]),
        st.from_regex(r"[sr][0-9]{10,20}", fullmatch=True),
    ),
    max_size=12,
)


class TestTokenTable:
    @settings(max_examples=400, deadline=None)
    @given(token_soups, st.lists(st.sampled_from([" ", "  ", "\t", "\n"]), min_size=13, max_size=13),
           st.integers(0, 12))
    def test_parse_matches_reference_tokenizer(self, tokens, gaps, n):
        text = gaps[0] + "".join(tok + gap for tok, gap in zip(tokens, gaps[1:]))

        def parsed(text, n):
            word = parse_word(text, n)
            return word.strands, word.code

        want = outcome(reference_parse, text, n)
        assert outcome(parsed, text, n) == want
        assert outcome(parsed, text, n) == want  # the second call reads the table

    @pytest.mark.parametrize("token", BAD_TOKENS)
    def test_bad_token_raises_every_call(self, token):
        errors = []
        for _ in range(2):
            with pytest.raises((UnknownToken, IndexOutOfRange)) as exc:
                parse_word(f"s1 {token}", 3)
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]

    def test_token_tables_are_bounded(self):
        assert words._letter.cache_info().maxsize == words._tok.cache_info().maxsize == 1024
        assert words._view.cache_info().maxsize is not None

    def test_token_tables_are_inverse(self):
        for a in range(1, 512):
            for letter in (a, -a):
                assert words._letter(words._tok(letter)) == letter
        assert words._tok(Letter("r", 12)) == words._tok(-12) == "r12"
        assert words._tok(Letter("s", 3)) == "s3"

    def test_overlong_index_is_an_unknown_token(self):
        # more digits than int() converts: the same error on every call
        token = "s" + "1" * 5000
        errors = []
        for _ in range(2):
            with pytest.raises(UnknownToken) as exc:
                parse_word(f"s1 {token}", 3)
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == (
            "bad token 's1111111111111111111... (5001 characters)': index too long"
        )


class TestLongValuesInMessages:
    # a message quotes at most 20 characters or digits of a token, index or count
    @pytest.mark.parametrize(
        "make,error,message",
        [
            (lambda: TwinWord(3, (10**5000,)), IndexOutOfRange,
             "letter s10000000000000000000... (5001 digits) invalid on 3 strands"),
            (lambda: TwinWord(3, (-(10**20),)), IndexOutOfRange,
             "letter r10000000000000000000... (21 digits) invalid on 3 strands"),
            (lambda: TwinWord(-(10**5000), ()), InvalidStrandCount,
             "strand count must be >= 1, got -10000000000000000000... (5001 digits)"),
            (lambda: Letter("s", -(10**5000)), IndexOutOfRange,
             "letter index must be >= 1, got -10000000000000000000... (5001 digits)"),
            (lambda: Letter(10**5000, 1), UnknownToken,
             "bad letter kind 10000000000000000000... (5001 digits)"),
            (lambda: shift_left(-(10**5000), w("", 2)), InvalidStrandCount,
             "shift amount must be >= 0, got -10000000000000000000... (5001 digits)"),
            (lambda: parse_word("s" + "0" * 21, 3), IndexOutOfRange,
             "letter s00000000000000000000... (21 digits) has index below 1"),
            (lambda: parse_word("s" + "2" * 30, 10**25), IndexOutOfRange,
             "letter s22222222222222222222... (30 digits) invalid on "
             "10000000000000000000... (26 digits) strands"),
            (lambda: parse_word_file("n=" + "1" * 5000 + "\ns1\n"), UnknownToken,
             "bad strand header 'n=111111111111111111... (5002 characters)'"),
        ],
    )
    def test_long_values_are_cut(self, make, error, message):
        with pytest.raises(error) as exc:
            make()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "make,error,message",
        [
            (lambda: TwinWord(3, (10**19,)), IndexOutOfRange,
             "letter s10000000000000000000 invalid on 3 strands"),
            (lambda: TwinWord(-(10**19), ()), InvalidStrandCount,
             "strand count must be >= 1, got -10000000000000000000"),
            (lambda: parse_word("r" + "0" * 20, 3), IndexOutOfRange,
             "letter r00000000000000000000 has index below 1"),
            (lambda: parse_word("x" * 20, 3), UnknownToken, "bad token '" + "x" * 20 + "'"),
        ],
    )
    def test_values_at_the_cap_are_whole(self, make, error, message):
        with pytest.raises(error) as exc:
            make()
        assert str(exc.value) == message

    @given(st.integers(-(10**300), 10**300) | st.sampled_from(
        [s * (10**k + d) for k in (19, 20, 21, 299) for d in (-1, 0, 1) for s in (1, -1)]))
    def test_digits_agree_with_str(self, a):
        text = str(abs(a))
        sign = "-" if a < 0 else ""
        if len(text) <= 20:
            assert words._digits(a) == sign + text
        else:
            assert words._digits(a) == f"{sign}{text[:20]}... ({len(text)} digits)"


def self_containing(width):
    x = []
    x.extend([x] * width)
    return x


def nested_deep(depth, kind):
    x = kind()
    for _ in range(depth):
        x = kind([x])
    return x


# _quoted's longest text: a str's 20 quoted characters may each print as
# an escape of up to 10 characters, plus the quotes and its length
QUOTED_BOUND = 10 * 20 + 40
huge_ints = st.builds(lambda k, d, s: s * (10**k + d), st.integers(0, 6000),
                      st.integers(-5, 5), st.sampled_from([1, -1]))
any_strs = st.text() | st.builds(lambda c, k: c * k, st.characters(), st.integers(0, 10**5))
outside_values = st.one_of(
    st.recursive(
        st.integers() | huge_ints | any_strs | st.none() | st.floats(),
        lambda kids: st.lists(kids) | st.lists(kids).map(tuple),
    ),
    st.builds(nested_deep, st.integers(0, 10**5), st.sampled_from([list, tuple])),
    st.builds(self_containing, st.integers(1, 1000)),
    st.builds(lambda k: tuple(range(k)), st.integers(0, 10**5)),
)
short_values = st.recursive(
    st.integers(-(10**19), 10**19) | st.text(max_size=20) | st.none(),
    lambda kids: st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple),
    max_leaves=6,
)


class TestQuoted:
    """words._quoted is the one way a message shows an outside value."""

    @given(outside_values)
    @settings(max_examples=100, deadline=None)
    def test_never_raises_and_stays_short(self, x):
        assert len(words._quoted(x)) < QUOTED_BOUND

    @given(short_values)
    def test_short_values_read_as_their_repr(self, x):
        # messages only change for values over the caps
        if len(repr(x)) <= 80 and repr(x).count("[") + repr(x).count("(") < 8:
            assert words._quoted(x) == repr(x)

    def test_containers(self):
        assert words._quoted(("destab",)) == "('destab',)"
        assert words._quoted(["conj", 10**5000]) == "['conj', 10000000000000000000... (5001 digits)]"
        assert words._quoted(self_containing(1)) == "[[[[[[[[...]]]]]]]]"
        assert words._quoted(tuple(range(10**5))) == (
            "(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 2"
            "... (100000 items)"
        )

    def test_permutation_message_is_cut(self):
        with pytest.raises(PatternMismatch) as exc:
            Permutation((10**5000,))
        assert str(exc.value) == (
            "not a bijection of 1..1: (10000000000000000000... (5001 digits),)"
        )


class TestFreeReduce:
    def test_involution_pair(self):
        assert free_reduce(w("s1 s1", 2)) == w("", 2)

    def test_nested(self):
        assert free_reduce(w("s1 r2 r2 s1", 3)) == w("", 3)

    def test_no_adjacent_pair(self):
        assert free_reduce(w("s1 r1 s1", 2)) == w("s1 r1 s1", 2)

    @given(twin_words(4))
    def test_idempotent_and_short(self, word):
        red = free_reduce(word)
        assert free_reduce(red) == red
        assert len(red) <= len(word)
        assert pi(red).images == pi(word).images

    @given(twin_words(4))
    def test_components_invariant(self, word):
        assert closure_components(free_reduce(word)) == closure_components(word)


class TestInverse:
    def test_reversal(self):
        assert inverse(w("s1 r2", 3)) == w("r2 s1", 3)

    def test_empty(self):
        assert inverse(w("", 2)) == w("", 2)

    @given(twin_words(4))
    def test_involution(self, word):
        assert inverse(inverse(word)) == word

    @given(twin_words(4))
    def test_cancels(self, word):
        assert free_reduce(concat(word, inverse(word))) == TwinWord(4, ())

    @given(twin_words(5))
    def test_pi_inverse(self, word):
        assert pi(inverse(word)).images == pi(word).inverse().images


class TestShift:
    def test_example(self):
        assert shift_left(2, w("s1", 2)) == w("s3", 4)

    def test_identity(self):
        assert shift_left(0, w("r1 s1", 2)) == w("r1 s1", 2)

    def test_both_kinds(self):
        assert shift_left(1, w("r1 s1", 2)) == w("r2 s2", 3)

    def test_negative_shift(self):
        with pytest.raises(InvalidStrandCount):
            shift_left(-1, w("s1", 2))

    def test_concat_needs_one_strand_count(self):
        with pytest.raises(InvalidStrandCount):
            concat(w("s1", 2), w("s1", 3))


@st.composite
def long_words(draw):
    """Words on 1..9 strands with 0..150 letters."""
    n = draw(st.integers(1, 9))
    if n == 1:
        return TwinWord(1, ())
    signed = [a for i in range(1, n) for a in (i, -i)]
    return TwinWord(n, tuple(draw(st.lists(st.sampled_from(signed), max_size=150))))


class TestPi:
    @settings(max_examples=300, deadline=None)
    @given(long_words())
    def test_matches_transposition_oracle(self, word):
        n = word.strands
        at = list(range(1, n + 1))  # at[p] = the strand at position p + 1
        for a in word.code:
            i = abs(a)
            at[i - 1], at[i] = at[i], at[i - 1]
        bottom = {strand: p for p, strand in enumerate(at, start=1)}
        assert pi(word).images == tuple(bottom[k] for k in range(1, n + 1))
        unseen, cycles = set(range(1, n + 1)), 0
        while unseen:
            k = bottom[unseen.pop()]
            cycles += 1
            while k in unseen:
                unseen.remove(k)
                k = bottom[k]
        assert closure_components(word) == cycles

    def test_hand_traced(self):
        assert pi(w("s1 r2", 3)).images == (3, 1, 2)

    def test_identity(self):
        assert pi(w("", 5)).is_identity()

    def test_virtual_braid_relation(self):
        assert pi(w("r1 r2 r1", 3)) == pi(w("r2 r1 r2", 3))

    def test_cycle_string(self):
        assert pi(w("s1 r2", 3)).cycle_string() == "(1 3 2)"
        assert pi(w("", 3)).cycle_string() == "()"

    def test_homomorphism_sampled(self, rng):
        for _ in range(1000):
            n = rng.randint(2, 6)
            u = random_word(rng, n, rng.randint(0, 20))
            v = random_word(rng, n, rng.randint(0, 20))
            assert pi(concat(u, v)) == pi(u).then(pi(v))


class TestClosureComponents:
    def test_one_crossing(self):
        assert closure_components(w("s1", 2)) == 1

    def test_identity_word(self):
        assert closure_components(w("", 3)) == 3

    def test_three_cycle(self):
        assert closure_components(w("s1 r2", 3)) == 1

    def test_conjugation_invariance(self, rng):
        for _ in range(300):
            n = rng.randint(2, 5)
            word = random_word(rng, n, rng.randint(0, 12))
            g = Letter(rng.choice("sr"), rng.randint(1, n - 1))
            conj = TwinWord(n, (g,) + word.letters + (g,))
            assert closure_components(conj) == closure_components(word)


def test_permutation_validation():
    with pytest.raises(PatternMismatch, match=r"^not a bijection of 1\.\.2: \(1, 1\)$"):
        Permutation((1, 1))
    assert Permutation.identity(3)(2) == 2
    with pytest.raises(RankMismatch, match="^size mismatch$"):
        Permutation.identity(2).then(Permutation.identity(3))


@pytest.mark.parametrize("k", [0, -1, 4])
def test_permutation_points_outside_1_to_n_raise(k):
    # a tuple index k - 1 would wrap around at 0 and -1 and fail at n + 1
    p = pi(parse_word("s1", 3))
    with pytest.raises(IndexOutOfRange, match=rf"^point {k} outside 1\.\.3$"):
        p(k)
    assert [p(j) for j in (1, 2, 3)] == [2, 1, 3]


class TestLetter:
    def test_is_its_signed_int(self):
        assert Letter("s", 2) == 2 and Letter("r", 2) == -2
        assert (Letter("r", 3).kind, Letter("r", 3).index) == ("r", 3)
        assert type(Letter("r", 3).index) is int

    def test_token_and_repr(self):
        let = Letter("r", 12)
        assert str(let) == f"{let}" == "r12"
        assert repr(let) == "Letter(kind='r', index=12)"

    def test_unknown_kind(self):
        with pytest.raises(UnknownToken):
            Letter("x", 1)
        with pytest.raises(UnknownToken):
            TwinWord(2, (Letter("x", 1),))

    @pytest.mark.parametrize("index", [0, -1])
    def test_index_below_one(self, index):
        with pytest.raises(IndexOutOfRange):
            Letter("s", index)

    def test_word_iterates_its_letters(self):
        word = w("s1 r2 s2", 3)
        assert list(word) == list(word.letters) == [Letter("s", 1), Letter("r", 2), Letter("s", 2)]

    def test_word_stores_exact_ints(self):
        word = TwinWord(3, (Letter("s", 1), Letter("r", 2)))
        assert word.code == (1, -2) and all(type(a) is int for a in word.code)
        listed = TwinWord(3, [Letter("s", 1)])
        assert type(listed.code) is tuple and type(listed.code[0]) is int
        assert word == TwinWord(3, (1, -2)) == w("s1 r2", 3)
        assert hash(word) == hash(TwinWord(3, (1, -2)))
        assert word.letters == (Letter("s", 1), Letter("r", 2))
        assert all(type(let) is Letter for let in word.letters)


@dataclasses.dataclass(frozen=True)
class _Holder:
    letter: Letter


class TestRoundTrips:
    WORD = TwinWord(4, (Letter("s", 3), Letter("r", 1), Letter("s", 1)))

    def test_pickle(self):
        assert pickle.loads(pickle.dumps(self.WORD)) == self.WORD
        let = pickle.loads(pickle.dumps(Letter("r", 2)))
        assert type(let) is Letter and repr(let) == "Letter(kind='r', index=2)"

    def test_deepcopy(self):
        assert copy.deepcopy(self.WORD) == self.WORD
        let = copy.deepcopy(Letter("s", 5))
        assert type(let) is Letter and (let.kind, let.index) == ("s", 5)

    def test_asdict(self):
        assert dataclasses.asdict(self.WORD) == {"strands": 4, "code": (3, -1, 1)}
        assert TwinWord(**dataclasses.asdict(self.WORD)) == self.WORD
        held = dataclasses.asdict(_Holder(Letter("r", 4)))["letter"]
        assert type(held) is Letter and held == Letter("r", 4)


class TestRandomWord:
    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_strand_count_below_one(self, n):
        with pytest.raises(InvalidStrandCount):
            random_word(random.Random(0), n, 5)

    def test_one_strand_is_empty(self):
        assert random_word(random.Random(0), 1, 5) == TwinWord(1, ())

    def test_draws_kind_then_index(self):
        rng = random.Random(7)
        want = [(rng.choice("sr"), rng.randint(1, 4)) for _ in range(12)]
        got = random_word(random.Random(7), 5, 12)
        assert [(let.kind, let.index) for let in got.letters] == want
