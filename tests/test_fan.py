"""The search fan, pinned and checked against whole-word reduction.

``tests/golden/fans.txt.gz`` holds a ``_moves_int`` sequence, with the
default caps, of the first 200 states of a breadth-first walk from the
braided Kishino doodle.  It was written when the fan still emitted every
rule application; the fan may leave out an edge whose result an earlier
edge of the same fan reached, and must keep the rest in order.  It also
held the fans of 20 unreduced words; when the fan came to take
free-reduced states only, the file was cut to its first 200 ``state``
blocks, a byte-identical prefix, and not regenerated.  Regenerate it, on
code whose fan is known good, with

    PYTHONPATH=src python tests/test_fan.py
"""

import collections
import gzip
import random
import tracemalloc

import pytest

from hypothesis import assume, given, settings, strategies as st

from conftest import GOLDEN, fixture_text
from doodlekit import braid, moves, parse_gauss
from doodlekit.markov import Budget, neighbors
from doodlekit.moves import (
    _LETTER_RULES,
    _M0_RULES,
    _apply_int,
    _join,
    _moves_int,
    _render_params,
    _seam_factors,
    _splices_at,
)
from doodlekit.words import _reduce, _tok, parse_word

FAN_GOLDEN = GOLDEN / "fans.txt.gz"
WALK_STATES = 200

def golden_words():
    """The breadth-first walk from the braided Kishino doodle, in visiting
    order (the walk the benchmark's fan sample takes)."""
    first = braid(parse_gauss(fixture_text("kishino.gauss")))
    seen, queue = {first}, [first]
    for word in queue:
        if len(seen) >= WALK_STATES:
            break
        for _, nb in neighbors(word):
            if nb not in seen and len(seen) < WALK_STATES:
                seen.add(nb)
                queue.append(nb)
    return queue


def letters(t):
    return " ".join(map(_tok, t))


def fan_block(word) -> str:
    """The state line and one line per _moves_int edge, default caps."""
    _, max_len, max_n = Budget().resolve(word, word)
    state = (word.strands, word.code)
    lines = [f"state n={state[0]} : {letters(state[1])}"]
    for _, tag, params, (n, t) in _moves_int(state, max_len, max_n):
        head = " ".join([tag] + _render_params(tag, params))
        lines.append(f"{head} -> {letters(t)} @ n={n}")
    return "\n".join(lines) + "\n"


def fan_lines(block):
    """The state line and the (edge line, result) pairs of one fan block."""
    state, *edges = block.rstrip("\n").split("\n")
    return state, [(line, line.split(" -> ")[1]) for line in edges]


def first_reach(edges):
    """The edge line that first reaches each result, in fan order."""
    first = {}
    for line, res in edges:
        first.setdefault(res, line)
    return list(first.values())


def test_fans_match_golden():
    # the golden holds every rule application; the fan skips those that
    # provably repeat an earlier result, and keeps the rest in order
    want = gzip.decompress(FAN_GOLDEN.read_bytes()).decode().split("\nstate ")
    got = "".join(fan_block(word) for word in golden_words()).split("\nstate ")
    assert len(got) == len(want) == WALK_STATES
    for block, expected in zip(got, want):
        state, edges = fan_lines(block)
        golden_state, golden_edges = fan_lines(expected)
        assert state == golden_state
        rest = iter(golden_edges)  # an order-preserving subsequence
        assert all(edge in rest for edge in edges), state
        assert first_reach(edges) == first_reach(golden_edges), state
        # on a reduced word no M0 edge repeats a result
        seen = set()
        for line, res in edges:
            assert not (line.startswith("M0 ") and res in seen), (state, line)
            seen.add(res)


def int_states():
    """(n, letters): n = 1..6, 0..14 letters drawn, then free-reduced."""
    def word(n):
        if n == 1:
            return st.just(())
        gen = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
        return st.lists(gen, max_size=14).map(lambda ls: _reduce(tuple(ls)))

    return st.integers(1, 6).flatmap(lambda n: word(n).map(lambda t: (n, t)))


def m0_brute_force(state, max_len, max_n):
    """(params, result) of every M0 rule the fan may emit, at every
    position and with every comm-grow letter, by whole-word reduction;
    square rules are never emitted, so they are left out."""
    n, t = state
    out = set()
    for rule in _M0_RULES:
        if rule.startswith("square-"):
            continue
        extras = [(a,) for j in range(1, n) for a in (j, -j)] if rule in _LETTER_RULES else [()]
        for pos in range(len(t) + 1):
            for extra in extras:
                params = (rule, pos, *extra)
                res = _apply_int(state, "M0", params)
                if res is not None and len(res[1]) <= max_len and res[0] <= max_n:
                    out.add((params, res))
    return out


def brute_force(state, max_len, max_n):
    """(tag, params, result) of every move the fan may emit: the M0 rules
    of m0_brute_force, conjugation by every generator, M2 and M3
    stabilization and destabilization, and M4 and M5, each applied to the
    whole word and kept if the result fits the caps."""
    n = state[0]
    out = {("M0", params, res) for params, res in m0_brute_force(state, max_len, max_n)}
    moves = [("M1", ("conj", g)) for j in range(1, n) for g in (j, -j)]
    moves += [("M2", ("stab", "s")), ("M2", ("stab", "r")), ("M2", ("destab",)),
              ("M3", ("stab",)), ("M3", ("destab",)), ("M4", ()), ("M5", ())]
    for tag, params in moves:
        res = _apply_int(state, tag, params)
        if res is not None and len(res[1]) <= max_len and 1 <= res[0] <= max_n:
            out.add((tag, params, res))
    return out


class TestFanReference:
    @settings(max_examples=400, deadline=None)
    @given(int_states(), st.integers(0, 4), st.integers(-1, 1))
    def test_edges_equal_whole_word_reduction(self, state, len_slack, n_slack):
        n, t = state
        max_len, max_n = len(t) + len_slack, n + n_slack
        fan = [e[1:] for e in _moves_int(state, max_len, max_n)]
        assert len({(tag, params) for tag, params, _ in fan}) == len(fan)
        for tag, params, res in fan:
            assert _apply_int(state, tag, params) == res, (state, tag, params)
            assert len(res[1]) <= max_len and 1 <= res[0] <= max_n
            # reduced in, reduced out: the search keys states by reduced word
            assert _reduce(res[1]) == res[1], (state, tag, params)
        # both one-letter rotations are reached, by conjugation with the
        # letter they move
        if t and n <= max_n:
            results = {res for _, _, res in fan}
            for rot in (t[1:] + t[:1], t[-1:] + t[:-1]):
                assert (n, _reduce(rot)) in results, state
        # every M0 edge is a rule application; every M0 result is reached
        m0 = {(params, res) for tag, params, res in fan if tag == "M0"}
        brute = m0_brute_force(state, max_len, max_n)
        assert m0 <= brute, state
        want = {res for _, res in brute if res != state}
        assert {res for _, res in m0 if res != state} == want, state

    @settings(max_examples=400, deadline=None)
    @given(int_states(), st.integers(0, 4), st.integers(-1, 1))
    def test_every_family_equals_brute_force(self, state, len_slack, n_slack):
        # the caps are drawn tight enough that a stabilization often does
        # not fit, so a cap check that drops too much or too little shows
        n, t = state
        max_len, max_n = len(t) + len_slack, n + n_slack
        fan = {e[1:] for e in _moves_int(state, max_len, max_n)}
        brute = brute_force(state, max_len, max_n)
        assert fan <= brute, state
        reached = {(tag, res) for tag, _, res in fan if res != state}
        assert reached == {(tag, res) for tag, _, res in brute if res != state}, state


class TestMonotoneCaps:
    """A tighter cap only drops edges: the fan under caps (a, b) is, in
    order, the edges of the fan under (A, B) whose results fit (a, b).  The
    search's final level relies on this when it caps its fan at the other
    side's longest word and widest strand count."""

    @staticmethod
    def check(state, a, b, wide_len, wide_n):
        wide = list(_moves_int(state, wide_len, wide_n))
        fitting = [e for e in wide if len(e[3][1]) <= a and e[3][0] <= b]
        assert list(_moves_int(state, a, b)) == fitting, (state, a, b, wide_len, wide_n)
        return fitting

    @settings(max_examples=500, deadline=None)
    @given(int_states(), st.data())
    def test_tighter_caps_keep_the_fitting_edges_in_order(self, state, data):
        # both length caps are drawn near the state's length, the tight one
        # often below it, where only edges that cancel letters fit
        n, t = state
        wide_len = max(len(t) + data.draw(st.integers(-4, 4)), 0)
        a = max(wide_len - data.draw(st.integers(0, 4)), 0)
        wide_n = data.draw(st.integers(1, n + 2))
        self.check(state, a, data.draw(st.integers(1, wide_n)), wide_len, wide_n)

    @pytest.mark.parametrize("t, shorter, edge", [
        # at the cap, a comm, a width-3 splice and a conjugation by the
        # letter at one end keep the length
        ((1, 3, 2), 0, ("M0", ("comm", 0), (4, (3, 1, 2)))),
        ((-1, -2, -1), 0, ("M0", ("braid", 0), (4, (-2, -1, -2)))),
        ((1, 3, 2), 0, ("M1", ("conj", 1), (4, (3, 2, 1)))),
        # below it, they fit only if letters cancel: s1 s3 s1 -> s3 s1 s1 -> s3,
        # r1 r2 r1 r2 -> r2 r1 r2 r2 -> r2 r1 and s1 s2 s1 -> s2
        ((1, 3, 1), 2, ("M0", ("comm", 0), (4, (3,)))),
        ((-1, -2, -1, -2), 2, ("M0", ("braid", 0), (4, (-2, -1)))),
        ((1, 2, 1), 2, ("M1", ("conj", 1), (4, (2,)))),
    ])
    def test_edges_that_fit_at_or_below_the_words_length(self, t, shorter, edge):
        assert ((4, t), *edge) in self.check((4, t), len(t) - shorter, 4, len(t) + 4, 4)


class TestLengthCap:
    """No edge the fan yields is longer than the length cap; on a reduced
    word every grow has two letters more than the word, so the fan builds
    none that the cap would drop.  Every _join call also keeps its
    precondition: the new letters do not start with the letter before them."""

    @staticmethod
    def longest_edge(states, max_len, max_n):
        """The longest result of any edge over the fans of states."""

        def join(*parts):
            head, mid, _ = parts
            assert not head or head[-1] != mid[0], parts
            return _join(*parts)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moves, "_join", join)
            return max(
                (len(t) for state in states for *_, (_, t) in _moves_int(state, max_len, max_n)),
                default=0,
            )

    def test_kishino_walk_under_search_caps(self):
        walk = golden_words()[:WALK_STATES]
        # the caps of the benchmark's Kishino searches (16 letters, 4 strands)
        max_len, max_n = Budget(800).resolve(walk[0], parse_word("", 1))[1:]
        states = [(w.strands, w.code) for w in walk if len(w) <= max_len]
        assert any(len(t) + 2 > max_len for _, t in states)
        assert self.longest_edge(states, max_len, max_n) <= max_len

    @settings(max_examples=300, deadline=None)
    @given(int_states(), st.integers(0, 4), st.integers(-1, 1))
    def test_reduced_words(self, state, len_slack, n_slack):
        n, t = state[0], _reduce(state[1])
        max_len = len(t) + len_slack
        assert self.longest_edge([(n, t)], max_len, n + n_slack) <= max_len, (n, t, max_len)


# ---------------------------------------------------------------------------
# an oracle for the relator rules, written from the relators alone

RELATOR_TOKENS = {"braid": "r1 r2 r1 r2 r1 r2", "mix": "r1 r2 s1 r2 r1 s2"}


def relator_at(tokens, d):
    """The relator with every index raised by d, as ints (+i s_i, -i r_i)."""
    return tuple(
        (1 if tok[0] == "s" else -1) * (int(tok[1:]) + d) for tok in tokens.split()
    )


def oracle_splices(n):
    """(family, level d, window, replacement) for every split of every
    rotation of each relator and of its reversal, at every level on n
    strands, into a window of 2, 3 or 4 letters and the rest reversed."""
    out = set()
    for family, tokens in RELATOR_TOKENS.items():
        for d in range(n - 2):
            relator = relator_at(tokens, d)
            for word in (relator, relator[::-1]):
                for k in range(len(word)):
                    rot = word[k:] + word[:k]
                    for width in (2, 3, 4):
                        out.add((family, d, rot[:width], rot[width:][::-1]))
    return out


def oracle_rule(family, win, rhs):
    """The rule id of a split, from the naming in the moves docstring."""
    if len(win) == 3:
        return "braid" if family == "braid" else "mix3"
    short = win if len(win) == 2 else rhs
    if family == "braid":
        name = "braid"
    else:
        name = "mixr" if all(a < 0 for a in short) else "mixs"
    return name + ("-grow" if len(win) == 2 else "-shrink")


def random_reduced(rng, n, length):
    t = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
    return _reduce(t)


def planted_words(n, rng):
    """(t, pos, split): every oracle split at n strands, planted at a random
    position of a random reduced word; a draw whose seams cancel is drawn
    again, so that t is reduced."""
    for split in sorted(oracle_splices(n)):
        while True:
            word = random_reduced(rng, n, rng.randint(0, 8))
            pos = rng.randint(0, len(word))
            t = word[:pos] + split[2] + word[pos:]
            if _reduce(t) == t:
                yield t, pos, split
                break


RELATOR_RULES = {rule for rule in _M0_RULES if not rule.startswith(("comm", "square"))}


class TestRelatorOracle:
    def test_table_size_and_order(self):
        for d in range(6):
            table = _splices_at(d)
            entries = [entry for group in table.values() for entry in group]
            assert len(table) <= 6 and len(entries) <= 16
            # the fan leaves shrinks out: width 3 at pos reaches their results;
            # an entry's width is its two key letters and its rest
            assert {len(rest) for rest, _, _ in entries} <= {1, 0}
            for key, group in table.items():
                widths = [2 + len(rest) for rest, _, _ in group]
                assert widths == sorted(widths, reverse=True), key

    def test_fan_relator_edges_are_sound_and_complete(self):
        rng = random.Random(11)
        for n in range(3, 9):
            splices = oracle_splices(n)
            planted = set()
            for t, pos, (family, d, win, rhs) in planted_words(n, rng):
                planted.add((family, d, win, rhs))
                fan = [e[1:] for e in _moves_int((n, t), len(t) + 4, n)]
                # completeness: the planted split's result is reached by M0
                want = (n, _reduce(t[:pos] + rhs + t[pos + len(win):]))
                assert want in {res for tag, _, res in fan if tag == "M0"}, (n, t, pos, win, rhs)
                # soundness: each relator edge is explained by some split
                for tag, params, res in fan:
                    if tag != "M0" or params[0] not in RELATOR_RULES:
                        continue
                    rule, at = params
                    assert any(
                        t[at : at + len(w)] == w
                        and oracle_rule(f, w, r) == rule
                        and _reduce(t[:at] + r + t[at + len(w):]) == res[1]
                        for f, _, w, r in splices
                    ), (n, t, params)
            assert planted == splices, n


@st.composite
def over_cap_words(draw):
    """(n, t, pos, rhs): a relator 6-factor, its 5-prefix or a far g b g b
    at pos of t, between a flank and the start of the flank reversed, so
    that the width-3 splice (or comm) there, which writes rhs, cancels at
    least two letter pairs at its seam: the factor's own, and after a
    6-factor or a square the mirrored flank's too."""
    kind = draw(st.sampled_from(("six", "five", "square")))
    n = draw(st.integers(4 if kind == "square" else 3, 8))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    if kind == "square":
        g = draw(letter)
        b = draw(letter.filter(lambda b: abs(abs(g) - abs(b)) >= 2))
        factor, rhs = (g, b, g, b), (b, g)
    else:
        windows = sorted((win, rhs) for *_, win, rhs in oracle_splices(n) if len(win) == 3)
        win, rhs = draw(st.sampled_from(windows))
        factor = (win + rhs[::-1])[: 6 if kind == "six" else 5]
    flank = draw(st.lists(letter, max_size=6).map(lambda ls: _reduce(tuple(ls))))
    t = flank + factor + flank[::-1][: draw(st.integers(0, len(flank)))]
    assume(_reduce(t) == t)
    return n, t, len(flank), rhs


class TestOverTheCap:
    """On a word more than two letters over the length cap, only a comm or a
    width-3 splice whose seam cancels at least two letter pairs can fit, and
    the fan returns at once unless the word has a factor that allows one.
    Random reduced words almost never cancel twice at a seam, so the factors
    are planted; the fan must still equal the wide fan, which is never over
    the cap, cut to the edges that fit."""

    @settings(max_examples=600, deadline=None)
    @given(over_cap_words(), st.integers(3, 8))
    def test_planted_factors(self, planted, over):
        n, t, pos, rhs = planted
        a = max(len(t) - over, 0)
        fitting = TestMonotoneCaps.check((n, t), a, n, len(t) + 4, n + 2)
        planted_result = _reduce(t[:pos] + rhs + t[pos + len(rhs) :])
        if len(planted_result) <= a:
            assert (n, planted_result) in {res for *_, res in fitting}, (n, t, a)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_seam_factors_are_the_width_3_windows(self, n):
        # the window, then the replacement reversed, of every width-3 splice
        # of the fan's per-level tables and of the relator oracle
        fives, sixes = _seam_factors(n)
        fan_windows = {
            key + rest + rhs[::-1]
            for d in range(n - 2)
            for key, group in _splices_at(d).items()
            for rest, _, rhs in group
            if rest
        }
        oracle = {win + rhs[::-1] for *_, win, rhs in oracle_splices(n) if len(win) == 3}
        assert sixes == fan_windows == oracle
        assert fives == {f[:5] for f in oracle}

    def test_seam_factors_fill_no_level_table(self):
        # at n = 1,000 the factors of all 998 levels are built from the
        # level-0 windows, in a few MB, and no level's splice table is
        tables = _splices_at.cache_info().currsize, moves._rules_at.cache_info().currsize
        tracemalloc.start()
        try:
            fives, sixes = _seam_factors.__wrapped__(1_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sixes) == 8 * 998 and len(fives) == len(sixes)
        assert peak < 5_000_000
        assert (_splices_at.cache_info().currsize, moves._rules_at.cache_info().currsize) == tables


# ---------------------------------------------------------------------------
# the exchange moves on planted words

EXCHANGES = ("M4", "M5")


def exchange_edges(state, max_len, max_n):
    """(tag, result) of the fan's M4 and M5 edges from state."""
    return {(tag, res) for _, tag, _, res in _moves_int(state, max_len, max_n) if tag in EXCHANGES}


def exchange_oracle(state):
    """(tag, result) of every M4 and M5 application _apply_int allows."""
    results = ((tag, _apply_int(state, tag, ())) for tag in EXCHANGES)
    return {(tag, res) for tag, res in results if res is not None}


def planted_exchanges(n, rng):
    """(t, place, same): words on n strands in which an extreme index e
    (1 or n - 1) occurs exactly twice, with the same kind or with opposite
    kinds, the pair planted at the end, at the start or only in the middle
    of a random word on the other indices.  At n = 2 there are none, so
    the word is the pair alone and the middle is skipped."""
    for e in sorted({1, n - 1}):
        others = [j for j in range(1, n) if j != e]
        for place in ("end", "start", "middle"):
            if place == "middle" and not others:
                continue
            for same in (True, False):
                for _ in range(4):
                    size = rng.randint(2, 8) if others else 0
                    body = [rng.choice((1, -1)) * rng.choice(others) for _ in range(size)]
                    L = len(body) + 2
                    if place == "end":
                        p, q = rng.randint(0, L - 2), L - 1
                    elif place == "start":
                        p, q = 0, rng.randint(1, L - 1)
                    else:
                        p, q = sorted(rng.sample(range(1, L - 1), 2))
                    a = rng.choice((1, -1)) * e
                    body.insert(p, a)
                    body.insert(q, a if same else -a)
                    yield tuple(body), place, same


class TestExchangeOracle:
    """M4 and M5 need the extreme index exactly twice, which random draws
    seldom give at n >= 4; here the pattern is planted, and the word then
    free-reduced."""

    def test_fan_exchanges_equal_apply_int(self):
        rng = random.Random(15)
        for n in range(2, 8):
            applied = collections.Counter()
            for t, place, same in planted_exchanges(n, rng):
                state = (n, _reduce(t))
                want = exchange_oracle(state)
                assert exchange_edges(state, len(state[1]) + 4, n) == want, (state, place, same)
                applied.update(tag for tag, _ in want)
            # at n = 2 no reduced word holds index 1 exactly twice with one kind
            assert n == 2 or (applied["M4"] and applied["M5"]), n

    def test_no_failed_attempt_on_kishino_walk(self):
        # the fan tests the index list and builds each exchange itself, so
        # it never calls _apply_int, whose M4/M5 attempts mostly fail
        walk = golden_words()[:WALK_STATES]
        max_len, max_n = Budget(800).resolve(walk[0], parse_word("", 1))[1:]
        calls = []

        def apply_int(*args):
            calls.append(args)
            return _apply_int(*args)

        states = [(w.strands, w.code) for w in walk]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moves, "_apply_int", apply_int)
            fans = [exchange_edges(state, max_len, max_n) for state in states]
        assert not calls
        assert fans == [exchange_oracle(state) for state in states]


if __name__ == "__main__":
    text = "".join(fan_block(word) for word in golden_words())
    FAN_GOLDEN.write_bytes(gzip.compress(text.encode(), 9, mtime=0))
    print(f"wrote {FAN_GOLDEN}")
