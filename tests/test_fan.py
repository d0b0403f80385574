"""The search fan, pinned and checked against whole-word reduction.

``tests/golden/fans.txt.gz`` holds the exact ``_moves_int`` sequence,
with the default caps, of the first 200 states of a breadth-first walk
from the braided Kishino doodle and of the unreduced words below.
Regenerate it, on code whose fan is known good, with

    PYTHONPATH=src python tests/test_fan.py
"""

import gzip

from hypothesis import given, settings, strategies as st

from conftest import GOLDEN, fixture_text
from doodlekit import braid, parse_gauss
from doodlekit.markov import (
    _LETTER_RULES,
    _M0_RULES,
    Budget,
    _apply_int,
    _moves_int,
    _reduce,
    _render_params,
    _tok,
    neighbors,
)
from doodlekit.words import parse_word

FAN_GOLDEN = GOLDEN / "fans.txt.gz"
WALK_STATES = 200

UNREDUCED = [
    (2, "s1 r1 s1 s1 s1 s1 s1"),
    (2, "r1 r1 r1 r1 r1 r1 r1 r1 s1 r1 r1 s1"),
    (5, "r4 r3 s4 s2 r1 s4 r1 r3 r3 r4"),
    (3, "s2 s2 r2 r1 r2 r1"),
    (4, "r1 r3 r1 s2 r2 r2 s2 s1 s1"),
    (6, "s1 s1 r5 s3 s3 r5 s2 r2 r2 r2"),
    (6, "s4 r2 r2 r2 r1 s1 r3 r1"),
    (5, "s2 r2 s4 r1 r1 s2 r1 r2 s1 s2 s2"),
    (3, "r2 r1 s2 s2 r2 r2 s2 s1"),
    (2, "r1 s1 r1 s1 s1 s1 s1 s1 s1"),
    (2, "s1 r1 r1 r1 r1 r1 r1 r1 s1 s1 r1 s1 s1 s1"),
    (4, "r3 s2 s2 s2 s3 s3 s3 s2 s3 s3"),
    (2, "s1 s1 r1"),
    (5, "s4 s2 s2 s2 r4 s2 s2 r4"),
    (4, "s3 s3 r3 r3"),
    (2, "s1 s1 r1 r1 r1 r1 s1 s1 s1 s1 r1 s1"),
    (2, "r1 r1"),
    (6, "s2 s2 r3 s5 s5 s5 s3 s2 r4 s5"),
    (2, "r1 r1 s1 s1 s1 r1 r1 r1 s1 r1"),
    (5, "s3 s3 r4 r4 r2 r3 r4 r2 r2 r3 s4"),
]


def golden_words():
    """The breadth-first walk from the braided Kishino doodle, in visiting
    order (the walk the benchmark's fan sample takes), then UNREDUCED."""
    first = braid(parse_gauss(fixture_text("kishino.gauss")))
    seen, queue = {first}, [first]
    for word in queue:
        if len(seen) >= WALK_STATES:
            break
        for _, nb in neighbors(word):
            if nb not in seen and len(seen) < WALK_STATES:
                seen.add(nb)
                queue.append(nb)
    return queue + [parse_word(text, n) for n, text in UNREDUCED]


def letters(t):
    return " ".join(map(_tok, t))


def fan_block(word) -> str:
    """The state line and one line per _moves_int edge, default caps."""
    _, max_len, max_n = Budget().resolve(word, word)
    state = (word.strands, word.code)
    lines = [f"state n={state[0]} : {letters(state[1])}"]
    for tag, params, (n, t) in _moves_int(state, max_len, max_n):
        head = " ".join([tag] + _render_params(tag, params))
        lines.append(f"{head} -> {letters(t)} @ n={n}")
    return "\n".join(lines) + "\n"


def test_fans_match_golden():
    want = gzip.decompress(FAN_GOLDEN.read_bytes()).decode().split("\nstate ")
    got = "".join(fan_block(word) for word in golden_words()).split("\nstate ")
    assert len(got) == len(want) == WALK_STATES + len(UNREDUCED)
    for block, expected in zip(got, want):
        assert block == expected


def int_states():
    """(n, letters): n = 1..6, 0..14 letters, reduced or left as drawn."""
    def word(n):
        if n == 1:
            return st.just(())
        gen = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
        drawn = st.lists(gen, max_size=14).map(tuple)
        return st.one_of(drawn, drawn.map(_reduce))

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


class TestFanReference:
    @settings(max_examples=400, deadline=None)
    @given(int_states(), st.integers(0, 4), st.integers(-1, 1))
    def test_edges_equal_whole_word_reduction(self, state, len_slack, n_slack):
        n, t = state
        max_len, max_n = len(t) + len_slack, n + n_slack
        fan = list(_moves_int(state, max_len, max_n))
        assert len({(tag, params) for tag, params, _ in fan}) == len(fan)
        for tag, params, res in fan:
            assert _apply_int(state, tag, params) == res, (state, tag, params)
            assert len(res[1]) <= max_len and 1 <= res[0] <= max_n
        # shifts are not emitted; conjugation by the moved letter stands in
        if t and n <= max_n:
            results = {res for _, _, res in fan}
            for side in ("left", "right"):
                assert _apply_int(state, "M1", ("shift", side)) in results, state
        m0 = {(params, res) for tag, params, res in fan if tag == "M0" and res != state}
        brute = m0_brute_force(state, max_len, max_n)
        want = {(params, res) for params, res in brute if res != state}
        assert m0 == want, state


if __name__ == "__main__":
    text = "".join(fan_block(word) for word in golden_words())
    FAN_GOLDEN.write_bytes(gzip.compress(text.encode(), 9, mtime=0))
    print(f"wrote {FAN_GOLDEN}")
