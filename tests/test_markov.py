import functools
import gc
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from doodlekit import markov, moves
from doodlekit.errors import CertificateError, DoodleError, PatternMismatch
from doodlekit.freegroup import mu
from doodlekit.gauss import closure_gauss, parse_gauss
from doodlekit.alexander import braid
from doodlekit.derived import apply_derived
from doodlekit.markov import (
    Budget,
    Distinct,
    Equivalent,
    MoveInstance,
    MoveTrace,
    Unknown,
    apply_move,
    equivalent_closures,
    format_certificate,
    neighbors,
    parse_certificate,
    verify_certificate,
)
from doodlekit.moves import (
    _LETTER_RULES,
    _M0_RULES,
    _apply_int,
    _edge_trace,
    _inverse_edges,
    _moves_int,
    _parse_params,
    _render_params,
    _square_edges,
)
from doodlekit.words import (
    TwinWord,
    _reduce,
    closure_components,
    format_word,
    free_reduce,
    parse_word,
    parse_word_file,
    pi,
    random_word,
)
from conftest import fixture_text
from test_fan import m0_brute_force


def w(text, n):
    return parse_word(text, n)


def outcomes(word):
    return {(m.tag, format_word(r), r.strands) for m, r in neighbors(word)}


def tight_budget(u, v, max_states=100_000):
    return Budget(
        max_states,
        max_len=max(len(u), len(v)) + 2,
        max_n=max(u.strands, v.strands),
    )


class TestNeighbors:
    def test_right_stabilizations(self):
        outs = outcomes(w("s1", 2))
        assert ("M2", "s1 s2", 3) in outs
        assert ("M2", "s1 r2", 3) in outs

    def test_braid_rewrite(self):
        assert ("M0", "r2 r1 r2", 3) in outcomes(w("r1 r2 r1", 3))

    def test_right_exchange(self):
        assert ("M4", "s1 r2 r1 r2", 3) in outcomes(w("s1 s2 r1 s2", 3))

    def test_left_exchange(self):
        assert ("M5", "r1 s2 r1 r2", 3) in outcomes(w("s1 s2 s1 r2", 3))

    def test_destab_only_when_sole(self):
        # index 1 occurs twice, so no destabilization from VT_2
        moves = neighbors(w("s1 r1", 2))
        assert not any(m.tag in ("M2", "M3") and m.params[0] == "destab" for m, _ in moves)

    def test_unreduced_word_raises(self):
        # the fan takes free-reduced words only
        with pytest.raises(PatternMismatch):
            neighbors(w("s1 s1 r1", 2))

    def test_deduplicated(self):
        seen = [format_word(r) + f"@{r.strands}" for _, r in neighbors(w("s1", 2))]
        assert len(seen) == len(set(seen))

    def test_caps_prune(self):
        capped = neighbors(w("s1", 2), Budget(max_len=1, max_n=2))
        assert all(r.strands <= 2 and len(r) <= 1 for _, r in capped)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_relation_is_one_move(self, n):
        # each defining relation with distinct sides is a single M0 move,
        # in both directions
        from doodlekit.freegroup import relation_instances

        for family, lhs, rhs in relation_instances(n):
            if lhs == rhs or len(rhs) == 0:
                continue
            assert rhs in {r for m, r in neighbors(lhs) if m.tag == "M0"}, family
            assert lhs in {r for m, r in neighbors(rhs) if m.tag == "M0"}, family

    def test_replay_and_soundness(self, rng):
        m0_checked = 0
        for _ in range(1000):
            n = rng.randint(2, 5)
            word = free_reduce(random_word(rng, n, rng.randint(0, 10)))
            comps = closure_components(word)
            m = mu(word)
            for move, result in neighbors(word):
                assert move.replay()
                assert closure_components(result) == comps
                if move.tag == "M0":
                    assert result.strands == word.strands
                    assert pi(result) == pi(word)
                    assert mu(result) == m
                    m0_checked += 1
                if move.tag in ("M2", "M3"):
                    assert abs(result.strands - word.strands) == 1
        assert m0_checked > 1000


class TestApplyMove:
    def test_pattern_mismatch(self):
        with pytest.raises(PatternMismatch):
            apply_move(w("s1 r1", 2), "M2", ("destab",))

    def test_square_moves(self):
        grown = apply_move(w("s1", 2), "M0", ("square-ins", 0, 1))
        assert format_word(grown) == "s1 s1 s1"
        back = apply_move(grown, "M0", ("square-del", 1))
        assert back == w("s1", 2)

    def test_long_parameters_are_cut(self):
        # a message quotes at most 20 digits of a position or letter, in a
        # tuple or a list
        with pytest.raises(PatternMismatch) as exc:
            apply_move(w("s1", 3), "M1", ("conj", 10**5000))
        assert str(exc.value) == (
            "move M1 ('conj', 10000000000000000000... (5001 digits)) does not apply to 's1'"
        )
        with pytest.raises(PatternMismatch) as exc:
            apply_move(w("s1", 3), "M1", ["conj", 10**5000])
        assert str(exc.value) == (
            "move M1 ['conj', 10000000000000000000... (5001 digits)] does not apply to 's1'"
        )
        with pytest.raises(PatternMismatch) as exc:
            apply_move(w("s1", 3), "M4", [])
        assert str(exc.value) == "move M4 [] does not apply to 's1'"
        step = "step M0 braid " + "1" * 4000 + " -> s1 @ n=2"
        with pytest.raises(CertificateError) as exc:
            verify_certificate(f"doodlekit certificate\nleft n=2 : s1\nright n=2 : s1\n{step}\n")
        assert str(exc.value) == (
            "move M0 ('braid', 11111111111111111111... (4000 digits)) does not apply to 's1'"
        )

    # 0 is in range but holds no square
    @pytest.mark.parametrize("pos", [-1, -2, -3, 0, 2])
    def test_square_del_position_in_range(self, pos):
        with pytest.raises(PatternMismatch):
            apply_move(w("s1 s2 s2", 3), "M0", ("square-del", pos))

    def test_conjugation_by_a_letter(self):
        # a Letter is a letter: the move renders, replays and certifies as
        # conjugation by its plain int, and the result holds plain ints
        word = w("s1 r2", 3)
        params = ("conj", word.letters[0])
        got = apply_move(word, "M1", params)
        assert got == apply_move(word, "M1", ("conj", 1)) == w("r2 s1", 3)
        assert all(type(a) is int for a in got.code)
        assert MoveInstance("M1", params, word, got).replay()

    def test_comm_grow_by_a_letter(self):
        word = w("s1", 4)
        params = ("comm-grow", 0, w("r3", 4).letters[0])
        got = apply_move(word, "M0", params)
        assert got == apply_move(word, "M0", ("comm-grow", 0, -3)) == w("r3 s1 r3", 4)
        assert all(type(a) is int for a in got.code)
        assert MoveInstance("M0", params, word, got).replay()


HEAD = "doodlekit certificate\nleft n=2 : s1\nright n=2 : s1\n"
LONG = "1" * 5000


def cut_line(text):
    return f"{text[:80]}... ({len(text)} characters)"


class TestLongLinesInMessages:
    """A message quotes an input line, field or list of fields whole up to
    80 characters, else its first 80 and its length."""

    @pytest.mark.parametrize(
        "parse,text,message",
        [
            (verify_certificate, f"doodlekit certificate\nleft n=2 : s{LONG}\nright n=2 : s1\n",
             f"bad header line '{cut_line('left n=2 : s' + LONG)}'"),
            (verify_certificate, HEAD + f"step M1 conj s{LONG} -> s1 @ n=2\n",
             f"bad step line '{cut_line(f'step M1 conj s{LONG} -> s1 @ n=2')}'"),
            (verify_certificate, HEAD + f"junk {LONG}\n",
             f"unexpected line '{cut_line('junk ' + LONG)}'"),
            (verify_certificate, HEAD + f"step M{LONG} x -> s1 @ n=2\n",
             f"unknown move tag '{cut_line('M' + LONG)}'"),
            (verify_certificate, HEAD + "step M4" + " x" * 3000 + " -> s1 @ n=2\n",
             f"bad parameters {cut_line(repr(['x'] * 3000))} for move M4"),
            (parse_word_file, f"n=3\ns1\ns2 {LONG}\n",
             f"word file has a second token line '{cut_line('s2 ' + LONG)}'"),
            (parse_gauss, f"crossings {LONG}\n",
             f"bad gauss line '{cut_line('crossings ' + LONG)}'"),
        ],
        ids=["header", "step", "unexpected", "tag", "parameters", "word-file", "gauss"],
    )
    def test_long_lines_are_cut(self, parse, text, message):
        with pytest.raises(DoodleError) as exc:
            parse(text)
        assert str(exc.value) == message and len(message) < 160

    @pytest.mark.parametrize(
        "text,message",
        [
            (HEAD + "x" * 80 + "\n", "unexpected line '" + "x" * 80 + "'"),
            (HEAD + "x" * 81 + "\n", "unexpected line '" + "x" * 80 + "... (81 characters)'"),
            (HEAD + "step M4 y -> s1 @ n=2\n", "bad parameters ['y'] for move M4"),
            (HEAD + "step Mx y -> s1 @ n=2\n", "unknown move tag 'Mx'"),
        ],
        ids=["at-cap", "over-cap", "short-parameters", "short-tag"],
    )
    def test_lines_up_to_the_cap_are_whole(self, text, message):
        with pytest.raises(CertificateError) as exc:
            verify_certificate(text)
        assert str(exc.value) == message


def nested(depth):
    x = []
    for _ in range(depth):
        x = [x]
    return x


LONG_WORD = w(" ".join(["s1", "s2"] * 1000), 3)


class TestOutsideValuesInMessages:
    """Every outside value a message shows goes through words._quoted, so a
    huge int, a long word, tag or item, or a deep or wide container in the
    params ends in a short DoodleError."""

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda: apply_move(w("s1", 3), "M1", ("conj", [10**5000])), PatternMismatch),
            (lambda: apply_move(w("s1", 3), 10**5000, ()), PatternMismatch),
            (lambda: apply_move(w("s1", 3), "M" * 5000, ()), PatternMismatch),
            (lambda: apply_move(w("s1", 3), "M1", ("conj", nested(100_000))), PatternMismatch),
            (lambda: apply_move(w("s1", 3), "M1", tuple(range(10**5))), PatternMismatch),
            (lambda: apply_derived("x" * 5000, n=3), PatternMismatch),
            (lambda: apply_move(LONG_WORD, "M4", ()), PatternMismatch),
            (lambda: neighbors(w(" ".join(["s1"] * 2000), 3)), PatternMismatch),
            (lambda: verify_certificate(
                f"doodlekit certificate\nleft n=3 : {LONG_WORD}\nright n=3 : s1\n"
                f"step M1 conj s1 -> {LONG_WORD} @ n=3\n"), CertificateError),
            (lambda: verify_certificate(
                f"doodlekit certificate\nleft n=3 : {LONG_WORD}\nright n=3 : s1\n"),
             CertificateError),
        ],
        ids=["int-in-list", "int-tag", "long-tag", "deep-params", "wide-params",
             "derived-item", "apply-word", "neighbors-word", "step-words", "end-word"],
    )
    def test_message_is_short(self, call, error):
        with pytest.raises(error) as exc:
            call()
        assert len(str(exc.value)) < 200

    def test_int_in_a_nested_list(self):
        with pytest.raises(PatternMismatch) as exc:
            apply_move(w("s1", 3), "M1", ("conj", [10**5000]))
        assert str(exc.value) == (
            "move M1 ('conj', [10000000000000000000... (5001 digits)]) does not apply to 's1'"
        )

    def test_long_words_are_cut(self):
        cut = "'s1 s2 s1 s2 s1 s2 s1... (5999 characters)'"
        with pytest.raises(PatternMismatch) as exc:
            apply_move(LONG_WORD, "M4", ())
        assert str(exc.value) == f"move M4 () does not apply to {cut}"
        cert = (f"doodlekit certificate\nleft n=3 : {LONG_WORD}\nright n=3 : s1\n"
                f"step M2 stab s -> {LONG_WORD} @ n=3\n")
        with pytest.raises(CertificateError) as exc:
            verify_certificate(cert)
        assert str(exc.value) == (
            f"step M2 ('stab', 's') gives 's1 s2 s1 s2 s1 s2 s1... (6002 characters)', "
            f"certificate claims {cut}"
        )


class TestMalformedParams:
    # parameters outside the certificate grammar never apply
    CASES = [
        ("M1", ("shift",)),
        ("M2", ("stab",)),
        ("M3", ()),
        ("M0", ()),
        ("M0", ("comm", "x")),
        ("M0", (["comm"], 0)),
        ("M1", ("conj", "s1")),
        ("M2", ("stab", "x")),
        ("M0", ("comm", 0, 2)),
        ("M0", ("comm-grow", 0)),
        ("M0", ("square-ins", 0, 9)),
        ("M4", ("x",)),
        ("M9", ()),
        # a one-letter shift is spelled as conjugation by the letter it moves
        ("M1", ("shift", "left")),
        ("M1", ("shift", "right")),
        # a bool is an int but no letter
        ("M1", ("conj", True)),
        ("M0", ("comm-grow", 0, True)),
        # params that are neither a tuple nor a list
        ("M4", None),
    ]

    @pytest.mark.parametrize("tag,params", CASES)
    def test_apply_move_raises_pattern_mismatch(self, tag, params):
        with pytest.raises(PatternMismatch):
            apply_move(w("s1 r1", 2), tag, params)

    @pytest.mark.parametrize("tag,params", CASES)
    def test_replay_is_false(self, tag, params):
        word = w("s1 r1", 2)
        assert not MoveInstance(tag, params, word, word).replay()
        assert not MoveInstance(tag, params, word, w("s1 r1 r2", 3)).replay()

    @pytest.mark.parametrize(
        "tag,params",
        [
            ("M0", ()),
            ("M0", (["comm"], 0)),
            ("M1", ("shift",)),
            ("M1", ("conj", "s1")),
            ("M0", ("comm", 0, 10**5000)),  # more digits than str() converts
            ("M4", None),
            # forms that render a line the step grammar refuses
            ("M0", ("comm", "x")),
            ("M2", ("stab", "x")),
            ("M0", ("comm", 0, 2)),
            ("M0", ("comm-grow", 0, 0)),  # renders r0, an index below 1
        ],
    )
    def test_describe_without_a_certificate_form_raises_pattern_mismatch(self, tag, params):
        word = w("s1 r1", 2)
        with pytest.raises(PatternMismatch, match="has no certificate form"):
            MoveInstance(tag, params, word, word).describe()


# (window width, matches) of each fixed-window M0 rule over every window of
# 2-4 letters at n = 7 whose length is the rule's width
M0_WINDOW_COUNTS = {
    "comm": (2, 80),
    "comm-shrink": (3, 80),
    "braid": (3, 10),
    "braid-grow": (2, 10),
    "braid-shrink": (4, 10),
    "mix3": (3, 30),
    "mixs-grow": (2, 20),
    "mixs-shrink": (4, 20),
    "mixr-grow": (2, 10),
    "mixr-shrink": (4, 10),
}


class TestM0Rules:
    def test_every_window_at_n7(self):
        letters = [*range(1, 7), *range(-1, -7, -1)]
        counts = dict.fromkeys(M0_WINDOW_COUNTS, 0)
        for width in (2, 3, 4):
            for win in itertools.product(letters, repeat=width):
                word = TwinWord(7, win)
                for rule, (rule_width, _) in M0_WINDOW_COUNTS.items():
                    got = _apply_int((7, win), "M0", (rule, 0))
                    if got is None or width != rule_width:
                        continue
                    counts[rule] += 1
                    result = TwinWord(*got)
                    assert pi(result) == pi(word), (rule, win)
                    assert mu(result) == mu(word), (rule, win)
        assert counts == {rule: count for rule, (_, count) in M0_WINDOW_COUNTS.items()}

    def test_rules_apply_only_at_their_own_indices(self):
        # a window whose letters leave {i, i+1} must not match a relator
        # rule, even where its signs and the shift to i = 1 would fit
        assert _apply_int((7, (-3, -4, 1)), "M0", ("braid", 0)) is None
        assert _apply_int((7, (-3, -4, -3)), "M0", ("braid", 0)) == (7, (-4, -3, -4))


def int_states(max_letters=12):
    """Reduced int-encoded states (n, letters): n = 1..5, 0..max_letters letters."""
    def letters(n):
        if n == 1:
            return st.just(())
        gen = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
        return st.lists(gen, max_size=max_letters).map(lambda ls: _reduce(tuple(ls)))

    return st.integers(1, 5).flatmap(lambda n: letters(n).map(lambda t: (n, t)))


@st.composite
def one_reduction_pairs(draw):
    """Two words on 2..4 strands with one free reduction: squares g g put
    at random places into one reduced word."""
    n = draw(st.integers(2, 4))
    gen = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    base = _reduce(tuple(draw(st.lists(gen, max_size=6))))

    def padded():
        t = list(base)
        for _ in range(draw(st.integers(0, 3))):
            p, g = draw(st.integers(0, len(t))), draw(gen)
            t[p:p] = [g, g]
        return TwinWord(n, tuple(t))

    return padded(), padded()


class TestEdgeInverse:
    @settings(max_examples=300, deadline=None)
    @given(int_states())
    def test_inverse_chain_replays_to_source(self, src):
        # the single inverse rule is total: no fan scan or search backs it up.
        # Checked on the fan's edges and on every M0 rule at every position,
        # with the shrinks and the square insertions the fan leaves out
        n, t = src
        edges = [e[1:] for e in _moves_int(src, len(t) + 4, n + 1)]
        edges += [("M0", params, dst) for params, dst in m0_brute_force(src, len(t) + 4, n + 1)]
        squares = [
            ("square-ins", pos, a) for pos in range(len(t) + 1) for j in range(1, n) for a in (j, -j)
        ]
        edges += [("M0", params, _apply_int(src, "M0", params)) for params in squares]
        for tag, params, dst in edges:
            cur = dst
            for a, itag, iparams, b in _inverse_edges(src, tag, params, dst):
                assert a == cur, (src, tag, params)
                assert _apply_int(a, itag, iparams) == b, (src, tag, params)
                cur = b
            assert cur == src, (src, tag, params)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))),
        min_size=1, max_size=20).map(tuple))))
    def test_end_letter_conjugation_is_rotation(self, src):
        # the lemma behind M1's single form: conjugating by an end letter
        # rotates the word, reduced or not, and the edge reverses exactly
        n, t = src
        for g, rot in ((t[0], t[1:] + t[:1]), (t[-1], t[-1:] + t[:-1])):
            dst = _apply_int(src, "M1", ("conj", g))
            assert dst == (n, _reduce(rot)), (src, g)
            cur = dst
            for a, itag, iparams, b in _inverse_edges(src, "M1", ("conj", g), dst):
                assert a == cur and _apply_int(a, itag, iparams) == b, (src, g)
                cur = b
            assert cur == src, (src, g)

    def test_cancelled_letters_are_rebuilt(self):
        # comm at 1 on s1 r3 s1 gives s1 s1 r3 -> r3; reversal reinserts s1 s1
        src = (4, (1, -3, 1))
        dst = _apply_int(src, "M0", ("comm", 1))
        assert dst == (4, (-3,))
        chain = _inverse_edges(src, "M0", ("comm", 1), dst)
        assert [(tag, params) for _, tag, params, _ in chain] == [
            ("M0", ("square-ins", 0, 1)),
            ("M0", ("comm", 1)),
        ]


class TestEdgeTrace:
    # _edge_trace is the one check of every built trace
    @pytest.mark.parametrize("fault", ["tampered result", "gap", "wrong end"])
    def test_faulty_chain_is_internal_error(self, fault):
        src, mid = (2, (1,)), (3, (1, 2))
        edges = [(src, "M2", ("stab", "s"), mid), (mid, "M1", ("conj", 2), (3, (2, 1)))]
        end = edges[-1][3]
        if fault == "tampered result":
            edges[0] = (src, "M2", ("stab", "s"), (3, (1, -2)))
        elif fault == "gap":
            edges[1] = ((3, (1, -2)), "M1", ("conj", -2), (3, (-2, 1)))
        else:  # the chain replays, but passes the claimed end on the way
            end = mid
        with pytest.raises(RuntimeError, match="internal"):
            _edge_trace(src, edges, end)

    def test_a_chain_that_comes_back_is_cut(self):
        # stab then destab comes back to an equal, but distinct, tuple: the
        # trace goes on from the chain's last arrival there, so it is empty
        src, mid = (2, (1,)), (3, (1, 2))
        edges = [(src, "M2", ("stab", "s"), mid), (mid, "M2", ("destab",), (2, (1,)))]
        assert _edge_trace(src, edges, src).steps == ()
        # A -> B -> A -> C is A -> C
        a, b, c = (3, (1, 2)), (3, (2, 1)), (3, (-2, 1, 2, -2))
        edges = [(a, "M1", ("conj", 1), b), (b, "M1", ("conj", 1), a), (a, "M1", ("conj", -2), c)]
        trace = _edge_trace(a, edges, c)
        assert trace.start == TwinWord(*a)
        assert trace.steps == (MoveInstance("M1", ("conj", -2), TwinWord(*a), TwinWord(*c)),)

    @settings(max_examples=400, deadline=None)
    @given(int_states(10), st.data())
    def test_int_replay_accepts_what_object_replay_accepts(self, start, data):
        # a random fan walk, perhaps tampered with; the oracle is a trace
        # built word by word here and judged by MoveTrace.replay
        edges, cur = [], start
        for _ in range(data.draw(st.integers(0, 6))):
            fan = [e[1:] for e in _moves_int(cur, len(cur[1]) + 4, 6)]
            if not fan:
                break
            tag, params, res = data.draw(st.sampled_from(fan))
            edges.append((cur, tag, params, res))
            cur = res
        end = cur
        fault = data.draw(st.sampled_from([None, "result", "gap", "params", "end"]))
        if fault == "result" and any(b[1] for *_, b in edges):
            k = data.draw(st.sampled_from([k for k, e in enumerate(edges) if e[3][1]]))
            a, tag, params, (n, t) = edges[k]
            p = data.draw(st.integers(0, len(t) - 1))
            edges[k] = (a, tag, params, (n, t[:p] + (-t[p],) + t[p + 1 :]))
        elif fault == "gap" and edges:
            del edges[data.draw(st.integers(0, len(edges) - 1))]
        elif fault == "params" and edges:
            k = data.draw(st.integers(0, len(edges) - 1))
            a, _, _, b = edges[k]
            _, tag, params, _ = data.draw(st.sampled_from(list(_moves_int(a, len(a[1]) + 4, 6))))
            edges[k] = (a, tag, params, b)
        elif fault == "end":
            end = data.draw(st.sampled_from([start] + [b for *_, b in edges]))

        def word_trace(chain):
            return MoveTrace(TwinWord(*start), tuple(
                MoveInstance(tag, params, TwinWord(*a), TwinWord(*b)) for a, tag, params, b in chain
            ))

        raw = word_trace(edges)
        if not raw.replay() or raw.end != TwinWord(*end):
            with pytest.raises(RuntimeError, match="internal"):
                _edge_trace(start, edges, end)
            return
        # the chain replays; cut it by removing the first repeated state,
        # with the steps since that state's first visit, until none repeats
        cut = list(edges)
        while True:
            states = [start] + [b for *_, b in cut]
            j = next((j for j in range(len(states)) if states[j] in states[:j]), None)
            if j is None:
                break
            del cut[states.index(states[j]) : j]
        oracle = word_trace(cut)
        assert oracle.replay() and oracle.end == TwinWord(*end)
        trace = _edge_trace(start, edges, end)
        assert trace == oracle
        # one word per distinct state, handed on from step to step
        for s, t in zip(trace.steps, trace.steps[1:]):
            assert s.result is t.source
        by_state = {}
        for word in [trace.start, *(s.result for s in trace.steps)]:
            assert by_state.setdefault((word.strands, word.code), word) is word

    def test_square_edges_fault_is_internal_error(self):
        # s1 and r1 share no free reduction; every caller rules that out
        with pytest.raises(RuntimeError, match="internal"):
            _square_edges(2, (1,), (-1,))


class TestEquivalentClosures:
    def test_one_step_destab(self):
        verdict = equivalent_closures(w("s1", 2), w("", 1))
        assert isinstance(verdict, Equivalent)
        assert [s.tag for s in verdict.trace.steps] == ["M2"]
        assert verdict.trace.steps[0].params == ("destab",)

    def test_distinct_components(self):
        verdict = equivalent_closures(w("", 2), w("", 1))
        assert verdict == Distinct("closure_components", 2, 1)

    def test_equal_words(self):
        verdict = equivalent_closures(w("s1 r2", 3), w("s1 r2", 3))
        assert isinstance(verdict, Equivalent) and verdict.trace.steps == ()

    def test_left_virtual_destabilization(self):
        verdict = equivalent_closures(w("s2 r1", 3), w("s1", 2))
        assert isinstance(verdict, Equivalent)
        assert verdict.trace.replay() and verdict.trace.end == w("s1", 2)

    def test_closures_of_forbidden_pair_are_equivalent(self):
        # the words differ in VT_3 (mu separates them) but their closures
        # are move-equivalent; both sides of the coin in one example
        verdict = equivalent_closures(w("s1 s2 s1", 3), w("s2 s1 s2", 3))
        assert isinstance(verdict, Equivalent) and verdict.trace.replay()

    def test_unknown_on_tiny_budget(self):
        hard = w("r2 r1 s1 r1 s1 r2 r1 s1 r1 s1 r2 r1", 3)
        verdict = equivalent_closures(hard, w("", 1), Budget(5))
        assert isinstance(verdict, Unknown)
        assert verdict.states_explored == 5

    def test_unreduced_inputs_get_boundary_steps(self):
        verdict = equivalent_closures(w("s1 s1", 2), w("r1 r1", 2))
        assert isinstance(verdict, Equivalent)
        assert verdict.trace.replay()
        assert verdict.trace.start == w("s1 s1", 2)
        assert verdict.trace.end == w("r1 r1", 2)
        tags = [s.params[0] for s in verdict.trace.steps if s.tag == "M0"]
        assert "square-del" in tags and "square-ins" in tags

    def test_equal_unreduced_words_take_no_step(self):
        # deleting the square and inserting it again would come back
        verdict = equivalent_closures(w("s1 s1", 2), w("s1 s1", 2))
        assert isinstance(verdict, Equivalent) and verdict.trace.steps == ()
        assert verdict.trace.start == w("s1 s1", 2)

    @settings(max_examples=200, deadline=None)
    @given(one_reduction_pairs())
    def test_no_certificate_repeats_a_state(self, pair):
        u, v = pair
        verdict = equivalent_closures(u, v)
        assert isinstance(verdict, Equivalent)
        trace = verdict.trace
        states = [trace.start, *(s.result for s in trace.steps)]
        assert len(set(states)) == len(states)
        assert trace.start == u and trace.end == v
        assert verify_certificate(format_certificate(u, v, trace)).end == v

    @pytest.mark.parametrize(
        "a,b,squares",
        [
            ("s1 s2 s1", "s2 s1 s2", (False, False)),
            ("r1 r2", "r2 r1", (False, False)),
            ("s1 r2 s1", "s1 s2 s1", (False, False)),
            ("s2 s2 r1 r2", "r2 r1", (True, False)),
            ("r1 r2", "r2 s1 s1 r1", (False, True)),
            ("r1 s2 r2 s1 s2 s2 r2", "s1 r2 s2 r2 r1 s1 s1 r2 r1", (True, True)),
        ],
    )
    def test_square_chains_only_at_unreduced_ends(self, a, b, squares, monkeypatch):
        scans = []

        def recording(n, lhs, rhs):
            scans.append((lhs, rhs))
            return _square_edges(n, lhs, rhs)

        # the search joins its ends, and each backward edge's inverse its squares
        monkeypatch.setattr(markov, "_square_edges", recording)
        monkeypatch.setattr(moves, "_square_edges", recording)
        verdict = equivalent_closures(w(a, 3), w(b, 3), Budget(20_000))
        steps = verdict.trace.steps
        assert verdict.trace.replay()
        ends = (steps[0], steps[-1])
        assert tuple(s.tag == "M0" and s.params[0].startswith("square-") for s in ends) == squares
        # a square chain is built only where letters cancel
        assert all(lhs != rhs for lhs, rhs in scans)

    def test_exhaustion_reports_unknown(self):
        # with n capped at 1 nothing is reachable from the empty word
        verdict = equivalent_closures(w("", 1), w("r1", 2), Budget(1000, 4, 1))
        assert isinstance(verdict, Unknown)

    @pytest.mark.parametrize(
        "a,b",
        [
            ("r1 r2", "r2 r1"),
            ("s1 r2 s1", "s1 s2 s1"),
            ("s1 s2 s1", ""),
            ("s1 s1 r1", "r1"),  # one free reduction: a square-steps trace
        ],
    )
    def test_verdict_symmetry(self, a, b):
        u, v = w(a, 3), w(b, 3)
        one = equivalent_closures(u, v, Budget(20_000))
        two = equivalent_closures(v, u, Budget(20_000))
        assert type(one) is type(two)
        if isinstance(one, Equivalent):
            assert one.trace.replay() and two.trace.replay()
            assert one.trace.start == u and one.trace.end == v
            assert two.trace.start == v and two.trace.end == u

    def test_search_traces_replay(self, rng):
        for _ in range(25):
            n = rng.randint(1, 3)
            word = random_word(rng, n, rng.randint(0, 5))
            target = braid(closure_gauss(word))
            budget = Budget(
                100_000,
                max_len=max(len(word), len(target)) + 4,
                max_n=max(word.strands, target.strands) + 1,
            )
            verdict = equivalent_closures(word, target, budget)
            assert isinstance(verdict, Equivalent)
            assert verdict.trace.replay()

    def test_random_move_chains_recovered(self, rng):
        # pairs constructed by applying random moves must be proved back,
        # exercising trace reversal across cascading cancellations
        for _ in range(120):
            n = rng.randint(2, 4)
            u = free_reduce(random_word(rng, n, rng.randint(0, 8)))
            v = u
            for _ in range(rng.randint(1, 6)):
                options = neighbors(v, Budget(max_len=len(u) + 6, max_n=n + 2))
                if not options:
                    break
                v = rng.choice(options)[1]
            budget = Budget(
                60_000,
                max_len=max(len(u), len(v)) + 4,
                max_n=max(u.strands, v.strands) + 1,
            )
            verdict = equivalent_closures(u, v, budget)
            assert isinstance(verdict, Equivalent), (format_word(u), format_word(v))
            assert verdict.trace.replay()
            assert verdict.trace.start == u and verdict.trace.end == v
            verify_certificate(format_certificate(u, v, verdict.trace))

    def test_deep_cascade_reversal_regression(self):
        # a commutation whose result cancels four letters away needs the
        # square-insertion reversal path
        u = w("r2 r1 r3", 4)
        v = w("r3 s3 r1 s3 r1 s1 r2 r1 s2", 4)
        verdict = equivalent_closures(u, v, Budget(60_000, 13, 5))
        assert isinstance(verdict, Equivalent)
        assert verdict.trace.replay()
        verify_certificate(format_certificate(u, v, verdict.trace))


def stored_search(u, v, budget):
    """The search with every reached state stored, the final level's too:
    each level is expanded state by state until the budget runs out.
    Returns the verdict and the explored count at the start of each level."""
    cu, cv = closure_components(u), closure_components(v)
    if cu != cv:
        return Distinct("closure_components", cu, cv), []
    max_states, max_len, max_n = budget.resolve(u, v)
    nu, tu, nv, tv = u.strands, u.code, v.strands, v.code
    roots = su, sv = (nu, _reduce(tu)), (nv, _reduce(tv))
    visited = [{su: None}, {sv: None}]
    frontier = [[su], [sv]]
    explored, starts = 0, []

    def proof(meet):
        paths = [[], []]
        for side in (0, 1):
            cur = meet
            while visited[side][cur] is not None:
                prev, tag, params = visited[side][cur]
                paths[side].append((prev, tag, params, cur))
                cur = prev
        edges = _square_edges(nu, tu, su[1]) + paths[0][::-1]
        edges += moves._invert_edges(paths[1][::-1]) + _square_edges(nv, sv[1], tv)
        return Equivalent(_edge_trace((nu, tu), edges, (nv, tv))), starts

    if su == sv:
        return proof(su)
    while frontier[0] and frontier[1]:
        if len(frontier[0]) != len(frontier[1]):
            side = 0 if len(frontier[0]) < len(frontier[1]) else 1
        else:
            side = 0 if roots[0] <= roots[1] else 1
        starts.append(explored)
        nxt, mine, other = [], visited[side], visited[1 - side]
        for state in sorted(frontier[side]):
            if explored >= max_states:
                return Unknown(explored, budget), starts
            explored += 1
            for _, tag, params, res in _moves_int(state, max_len, max_n):
                entry = (state, tag, params)
                if mine.setdefault(res, entry) is not entry:
                    continue
                if res in other:
                    return proof(res)
                nxt.append(res)
        frontier[side] = nxt
    return Unknown(explored, budget), starts


def outcome(u, v, verdict):
    """What a verdict shows: its class, its explored count or its certificate."""
    if isinstance(verdict, Equivalent):
        return "Equivalent", format_certificate(u, v, verdict.trace)
    if isinstance(verdict, Unknown):
        return "Unknown", verdict.states_explored, verdict.budget
    return "Distinct", verdict


class TestFinalLevel:
    """equivalent_closures stores nothing from the level where its budget
    runs out; it must agree with stored_search, which stores everything."""

    def agree(self, u, v, budget):
        expected, starts = stored_search(u, v, budget)
        assert outcome(u, v, equivalent_closures(u, v, budget)) == outcome(u, v, expected)
        return expected, starts

    def test_kishino_at_every_budget(self):
        kishino = braid(parse_gauss(fixture_text("kishino.gauss")))
        budgets = range(1, 121)
        for max_states in budgets:
            verdict, starts = self.agree(kishino, w("", 1), Budget(max_states))
            assert verdict == Unknown(max_states, Budget(max_states))
        # six of these budgets end exactly where a level ends
        assert starts == [0, 1, 2, 4, 12, 25, 70]

    def test_kishino_rotations_at_the_benchmark_budget(self):
        # the benchmark's Kishino op: every rotation against the unknot at 800
        kishino = braid(parse_gauss(fixture_text("kishino.gauss")))
        for rot in range(len(kishino)):
            word = TwinWord(kishino.strands, kishino.code[rot:] + kishino.code[:rot])
            verdict, _ = self.agree(word, w("", 1), Budget(800))
            assert verdict == Unknown(800, Budget(800)), rot

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_small_pairs(self, data):
        n = data.draw(st.integers(1, 4))
        letters = st.integers(1, max(n - 1, 1)).flatmap(lambda i: st.sampled_from((i, -i)))
        size = 6 if n > 1 else 0
        u, v = (TwinWord(n, data.draw(st.lists(letters, max_size=size))) for _ in "uv")
        self.agree(u, v, Budget(data.draw(st.integers(1, 150))))

    def test_meet_in_the_final_level(self):
        u, v = w("s2 r1 s2 r1", 3), w("r2 s1", 3)
        proved, starts = self.agree(u, v, Budget(84))
        assert isinstance(proved, Equivalent) and proved.trace.replay()
        # the meet is found expanding the 6th state of the level that starts at 78
        assert starts == [0, 1, 2, 10, 18, 78]
        assert self.agree(u, v, Budget(83))[0] == Unknown(83, Budget(83))

    def test_over_the_cap_only_the_conjugation_by_both_ends_fits(self):
        # s1 s2 s1 under a one-letter cap: conjugating by s1 gives s2, and
        # no other edge fits; under a strand cap below the word's, none does
        state = (3, (1, 2, 1))
        assert list(_moves_int(state, 1, 3)) == [(state, "M1", ("conj", 1), (3, (2,)))]
        assert list(_moves_int(state, 1, 2)) == []

    @pytest.mark.parametrize("state, max_len, edges", [
        # a 5-factor: r1 r2 r1 -> r2 r1 r2 cancels the r2 r1 after it
        ((3, (-1, -2, -1, -2, -1)), 2, [("braid", 0), (3, (-2,))]),
        # a 6-factor at the top level: a whole relator rotation cancels
        ((4, (-2, -3, -2, -3, -2, -3)), 1, [("braid", 0), (4, ())]),
        # a far square: s1 s3 s1 s3 -> s3 s1 s1 s3 cancels
        ((4, (1, 3, 1, 3)), 1, [("comm", 0), (4, ())]),
        # no factor that cancels twice: s1 s3 s1 s2 only starts a square
        ((4, (1, 3, 1, 2)), 1, []),
    ])
    def test_three_letters_over_the_cap_a_seam_must_cancel_twice(self, state, max_len, edges):
        n, t = state
        wide = _moves_int(state, len(t) + 4, n + 2)
        fitting = [e for e in wide if len(e[3][1]) <= max_len and e[3][0] <= n]
        want = [(state, "M0", *edges)] if edges else []
        assert list(_moves_int(state, max_len, n)) == fitting == want

    @pytest.mark.parametrize("u", [
        "s1 s3 s1 s3", "s2 s1 s3 s1 s3 s2", "r1 r2 r1 r2 r1 r2", "s3 r1 r2 r1 r2 r1 r2 s3",
    ])
    def test_meet_from_a_word_over_the_cap(self, u, monkeypatch):
        # at Budget(2) the empty word's level comes first and u's is final;
        # its cap is the longest word the empty word reached, one letter, and
        # u meets the empty word by a move whose seam cancels every letter
        calls = []

        def recording(state, max_len, max_n):
            calls.append((state, max_len))
            return fan(state, max_len, max_n)

        fan = markov._moves_int
        monkeypatch.setattr(markov, "_moves_int", recording)
        proved, starts = self.agree(w(u, 4), w("", 4), Budget(2))
        assert isinstance(proved, Equivalent) and starts == [0, 1]
        (n, t), cap = calls[-1]
        assert (n, t) == (4, w(u, 4).code) and len(t) >= cap + 3


@st.composite
def search_pairs(draw):
    """Two free-reduced states on 1..4 strands, at most 8 letters each, with
    equal closure component counts, and caps of at most 2,000 states."""

    def state():
        n = draw(st.integers(1, 4))
        letters = [a for j in range(1, n) for a in (j, -j)]
        code = draw(st.lists(st.sampled_from(letters), max_size=8)) if letters else []
        return n, _reduce(tuple(code))

    su, sv = state(), state()
    assume(closure_components(TwinWord(*su)) == closure_components(TwinWord(*sv)))
    budget = Budget(
        draw(st.integers(0, 2_000)),
        draw(st.one_of(st.none(), st.integers(0, 12))),
        draw(st.one_of(st.none(), st.integers(1, 6))),
    )
    return su, sv, budget


class TestSearch:
    """markov._search returns the edges of a path between two reduced roots,
    or the number of states it spent; equivalent_closures reports either."""

    @settings(max_examples=40, deadline=None)
    @given(search_pairs())
    def test_a_path_replays_and_a_spend_is_the_verdicts(self, pair):
        su, sv, budget = pair
        u, v = TwinWord(*su), TwinWord(*sv)
        found = markov._search(su, sv, *budget.resolve(u, v))
        verdict = equivalent_closures(u, v, budget)
        if isinstance(found, int):
            assert verdict == Unknown(found, budget)
        else:
            trace = _edge_trace(su, found, sv)
            assert trace.replay() and (trace.start, trace.end) == (u, v)
            assert verdict == Equivalent(trace)

    @given(int_states(max_letters=8), st.integers(0, 2_000))
    def test_equal_roots_give_the_empty_path(self, s, max_states):
        assert markov._search(s, s, max_states, len(s[1]) + 4, s[0] + 1) == []


@pytest.fixture
def collector():
    """Turn the cyclic collector on for a test, and back to how it was after."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """equivalent_closures pauses the cyclic collector during its search and
    leaves it as it found it.  The pause is safe because the search makes no
    reference cycle: with the collector off, a search leaves nothing behind
    that only the collector could free."""

    @pytest.mark.parametrize("on", [True, False])
    def test_state_is_restored_after_a_verdict(self, collector, monkeypatch, on):
        during = set()

        def recording(*args):
            during.add(gc.isenabled())
            return fan(*args)

        fan = markov._moves_int
        monkeypatch.setattr(markov, "_moves_int", recording)
        if not on:
            gc.disable()
        u, v = w("s1 s2 s1", 3), w("s2 s1 s2", 3)
        for verdict, budget in ((Equivalent, Budget()), (Unknown, Budget(1))):
            assert isinstance(equivalent_closures(u, v, budget), verdict)
            assert gc.isenabled() is on
        assert during == {False}

    def test_collector_is_back_on_after_an_exception(self, collector, monkeypatch):
        def failing(*args):
            raise RuntimeError("fan failed")

        monkeypatch.setattr(markov, "_moves_int", failing)
        with pytest.raises(RuntimeError, match="fan failed"):
            equivalent_closures(w("s1", 2), w("r1", 2))
        assert gc.isenabled()

    @pytest.mark.parametrize("pair", ["unreduced", "derived", "kishino"])
    def test_the_search_makes_no_reference_cycle(self, collector, pair):
        if pair == "unreduced":
            u, v = w("r1 s2 r2 s1 s2 s2 r2", 3), w("s1 r2 s2 r2 r1 s1 s1 r2 r1", 3)
            budget, verdict = Budget(20_000), Equivalent
        elif pair == "derived":
            label = "right-exchange n=3 i=2 ks=('s', 's') b1='s1' b2='s1'"
            _, lhs, ln, rhs, rn = next(p for p in _BATTERY if p[0] == label)
            u, v = w(lhs, ln), w(rhs, rn)
            budget, verdict = tight_budget(u, v), Equivalent
        else:
            u, v = braid(parse_gauss(fixture_text("kishino.gauss"))), w("", 1)
            budget, verdict = Budget(2_000), Unknown
        gc.disable()
        gc.collect()
        assert isinstance(equivalent_closures(u, v, budget), verdict)
        assert gc.collect() == 0


# step lines one field away from a form the certificate grammar accepts
NEAR_MISSES = [
    "step M0 comm 0 s1 -> s1 @ n=2",    # a letter on a rule that takes none
    "step M0 comm-grow 0 s1 s1 -> s1 s1 s1 @ n=2",  # two letters
    "step M0 braid x -> s1 @ n=2",      # position not a number
    "step M2 destab s -> s1 @ n=2",     # destab takes no kind
    "step M2 stab x -> s1 @ n=2",       # kind neither s nor r
    "step M3 destab destab -> s1 @ n=2",  # field repeated
    "step M5 x -> s1 @ n=2",            # M5 takes no field
]


class TestCertificates:
    def roundtrip(self, u, v):
        verdict = equivalent_closures(u, v)
        assert isinstance(verdict, Equivalent)
        cert = format_certificate(u, v, verdict.trace)
        trace = verify_certificate(cert)
        assert trace.end == v
        return cert

    def test_basic_roundtrip(self):
        self.roundtrip(w("s1", 2), w("", 1))

    def test_longer_roundtrip(self):
        self.roundtrip(w("s2 r1", 3), w("s1", 2))

    def test_tampered_word_rejected(self):
        cert = self.roundtrip(w("s1", 2), w("", 1))
        with pytest.raises(CertificateError):
            verify_certificate(cert.replace("right n=1 :", "right n=2 : s1 r1"))
        with pytest.raises(CertificateError):
            verify_certificate(cert.replace("left n=2 : s1", "left n=2 : s1 r1"))

    def test_tampered_step_rejected(self):
        cert = self.roundtrip(w("s2 r1", 3), w("s1", 2))
        lines = cert.splitlines()
        lines[3], lines[4] = lines[4], lines[3]
        with pytest.raises(CertificateError):
            verify_certificate("\n".join(lines) + "\n")

    def test_parse_headers(self):
        cert = self.roundtrip(w("s1", 2), w("", 1))
        left, right, steps = parse_certificate(cert)
        assert left == w("s1", 2) and right == w("", 1)
        assert len(steps) == 1

    @pytest.mark.parametrize("text", ["", "left n=2 : s1\nright n=2 : s1\n"])
    def test_certificate_without_header_rejected(self, text):
        with pytest.raises(CertificateError, match="missing certificate header"):
            parse_certificate(text)

    def test_empty_trace_certificate(self):
        verdict = equivalent_closures(w("", 1), w("", 1))
        cert = format_certificate(w("", 1), w("", 1), verdict.trace)
        assert verify_certificate(cert).steps == ()

    @pytest.mark.parametrize(
        "line",
        [
            "step M2 -> s1 @ n=2",              # missing destab/stab field
            "step M1 conj -> s1 @ n=2",         # missing letter
            "step M0 comm-grow 0 -> s1 @ n=2",  # missing wrapped letter
            "step M0 comm-grow 0 s0 -> s1 @ n=2",  # zero index letter
            "step M4 extra -> s1 @ n=2",        # spurious field
            "step M0 square-ins 0 s9 -> s9 s9 s1 @ n=2",  # letters out of range
            "step M1 conj s1 -> s1 @ n=0",      # no strands
            "step M1 conj s+1 -> s1 @ n=2",     # sign in a letter index
            "step M1 conj s0_1 -> s1 @ n=2",    # underscore in a letter index
            "step M1 conj s1_0 -> s1 @ n=2",    # int() reads it as s10
            "step M1 conj s\u0661 -> s1 @ n=2",  # Arabic-Indic digit one
            "step M0 square-ins +0 s1 -> s1 s1 s1 @ n=2\nstep M0 square-del 0 -> s1 @ n=2",
            "step M0 square-ins 0_0 s1 -> s1 s1 s1 @ n=2\nstep M0 square-del 0 -> s1 @ n=2",
            "step M0 square-ins \u0660 s1 -> s1 s1 s1 @ n=2\nstep M0 square-del 0 -> s1 @ n=2",
            "step M1 conj s1 -> s1 @ n=+2",     # sign in a strand count
            "step M1 conj s1 -> s1 @ n=0_2",    # underscore in a strand count
            "step M1 conj s1 -> s1 @ n=\u0662",  # Arabic-Indic digit two
            "step M0 frob 0 -> s1 @ n=2",       # unknown M0 rule
            "step M0 comm -> s1 @ n=2",         # missing position
            "step M3 stab s -> s1 @ n=2",       # M3 stabilizes with s only
            "step M9 -> s1 @ n=2",              # unknown move
            "stop M1 conj s1 -> s1 @ n=2",      # not a step line
        ]
        + NEAR_MISSES,
    )
    def test_malformed_step_lines_rejected(self, line):
        cert = f"doodlekit certificate\nleft n=2 : s1\nright n=2 : s1\n{line}\n"
        with pytest.raises(CertificateError):
            verify_certificate(cert)

    @pytest.mark.parametrize(
        "headers",
        [
            "left n=2 : s5\nright n=2 : s5\n",
            "left n=2 : s1\nright n=0 : \n",
            "left n=2 : x1\nright n=2 : s1\n",
            "left n=2 junk : s1\nright n=2 : s1\n",
            "left n=+2 : s1\nright n=2 : s1\n",
            "left n=0_2 : s1\nright n=2 : s1\n",
            "left n=2 : s1\nright n=\u0662 : s1\n",
            "right n=2 : s1\nleft n=2 : s1\n",  # right header first
            "left 2 : s1\nright n=2 : s1\n",    # strand count without n=
            "left n=2 : s1\n",                   # one header line only
        ],
    )
    def test_malformed_headers_rejected(self, headers):
        with pytest.raises(CertificateError):
            parse_certificate("doodlekit certificate\n" + headers)

    @pytest.mark.parametrize(
        "line,message,cause",
        [
            ("step M2 stab s -> s1 @ n=2",
             "step M2 ('stab', 's') gives 's1 s2', certificate claims 's1'", None),
            # same letters, other strand count
            ("step M2 stab s -> s1 s2 @ n=4",
             "step M2 ('stab', 's') gives 's1 s2', certificate claims 's1 s2'", None),
            ("step M1 conj r1 -> s1 @ n=2",
             "step M1 ('conj', -1) gives 'r1 s1 r1', certificate claims 's1'", None),
            ("step M4 -> r1 @ n=2", "move M4 () does not apply to 's1'", PatternMismatch),
            ("step M0 braid 0 -> s1 @ n=2",
             "move M0 ('braid', 0) does not apply to 's1'", PatternMismatch),
        ],
    )
    def test_rejected_step_messages(self, line, message, cause):
        cert = f"doodlekit certificate\nleft n=2 : s1\nright n=2 : s1\n{line}\n"
        with pytest.raises(CertificateError) as info:
            verify_certificate(cert)
        assert str(info.value) == message
        assert type(info.value.__cause__) is (cause or type(None))

    @pytest.mark.parametrize(
        "tag,params",
        [("M0", (rule, 3, -2) if rule in _LETTER_RULES else (rule, 3)) for rule in _M0_RULES]
        + [("M1", ("conj", -2)), ("M2", ("stab", "s")), ("M2", ("stab", "r")), ("M2", ("destab",))]
        + [("M3", ("stab",)), ("M3", ("destab",)), ("M4", ()), ("M5", ())],
    )
    def test_params_round_trip(self, tag, params):
        assert _parse_params(tag, _render_params(tag, params)) == params

    @pytest.mark.parametrize("line", NEAR_MISSES)
    def test_near_misses_fail_to_parse(self, line):
        cert = f"doodlekit certificate\nleft n=2 : s1\nright n=2 : s1\n{line}\n"
        for _ in range(2):  # a bad step head is never cached
            with pytest.raises(CertificateError, match="^bad parameters "):
                parse_certificate(cert)

    def test_step_heads_are_a_bounded_table(self):
        assert markov._step_head.cache_info().maxsize == 1024
        assert markov._step_head("M0 comm-grow 0 s1") == ("M0", ("comm-grow", 0, 1))
        assert markov._step_head("M4") == ("M4", ())

    def test_trace_steps_share_words(self):
        verdict = equivalent_closures(w("s2 r1", 3), w("s1", 2))
        steps = verdict.trace.steps
        assert len(steps) >= 2 and verdict.trace.replay()
        for step, following in zip(steps, steps[1:]):
            assert step.result is following.source

    @pytest.mark.parametrize("kind,ok", [("r", True), ("s", False), ("sr", False), ("rs", False)])
    def test_stab_kind_is_one_token(self, kind, ok):
        cert = f"doodlekit certificate\nleft n=2 :\nright n=3 : r2\nstep M2 stab {kind} -> r2 @ n=3\n"
        if ok:
            assert verify_certificate(cert).end == w("r2", 3)
        else:
            with pytest.raises(CertificateError):
                verify_certificate(cert)


M0_SPLICES = (
    "comm", "comm-shrink", "braid", "braid-grow", "braid-shrink", "mix3",
    "mixs-grow", "mixs-shrink", "mixr-grow", "mixr-shrink",
)


@functools.lru_cache(maxsize=None)
def step_heads(n, length):
    """Step heads of the certificate grammar, one branch per production,
    with positions before the start and past the end of the word, letter
    indices out of range, and fields the grammar does not allow."""
    letter = st.tuples(st.sampled_from("sr"), st.integers(0, n)).map(lambda p: f"{p[0]}{p[1]}")
    pos = st.integers(-length - 2, length + 2).map(str)
    any_rule = st.sampled_from(M0_SPLICES + ("comm-grow", "square-ins", "square-del"))
    return st.one_of(
        st.tuples(st.just("M0"), st.sampled_from(M0_SPLICES), pos),
        st.tuples(st.just("M0"), st.just("comm-grow"), pos, letter),
        st.tuples(st.just("M0"), st.just("square-ins"), pos, letter),
        st.tuples(st.just("M0"), st.just("square-del"), pos),
        st.tuples(st.just("M0"), any_rule, pos, letter),
        st.tuples(st.just("M1"), st.just("conj"), letter),
        st.tuples(st.just("M2"), st.just("stab"), st.sampled_from(["s", "r", "sr"])),
        st.tuples(st.sampled_from(["M2", "M3"]), st.sampled_from(["stab", "destab"])),
        st.tuples(st.sampled_from(["M4", "M5"])),
    ).map(list)


def is_square_move(a, b):
    """b is a with one adjacent equal pair deleted or inserted."""
    short, long = sorted((a.letters, b.letters), key=len)
    return a.strands == b.strands and len(long) == len(short) + 2 and any(
        long[p] == long[p + 1] and long[:p] + long[p + 2 :] == short
        for p in range(len(long) - 1)
    )


class TestCertificateFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_accepted_certificates_are_sound(self, data):
        n = data.draw(st.integers(1, 4))
        gen = st.tuples(st.sampled_from("sr"), st.integers(1, max(n - 1, 1)))
        toks = data.draw(st.lists(gen, max_size=8 if n > 1 else 0))
        left = w(" ".join(f"{k}{i}" for k, i in toks), n)
        cur, lines = left, []
        for _ in range(data.draw(st.integers(1, 6))):
            tag, *fields = data.draw(step_heads(cur.strands, len(cur)))
            try:
                nxt = apply_move(cur, tag, _parse_params(tag, fields))
            except DoodleError:
                continue  # steps that do not parse or apply are left out
            head = " ".join([tag] + fields)
            lines.append(f"step {head} -> {format_word(nxt)} @ n={nxt.strands}")
            cur = nxt
        cert = "\n".join([
            "doodlekit certificate",
            f"left n={left.strands} : {format_word(left)}",
            f"right n={cur.strands} : {format_word(cur)}",
            *lines,
        ]) + "\n"
        trace = verify_certificate(cert)
        assert closure_components(trace.end) == closure_components(left)
        for step in trace.steps:
            src, res = step.source, step.result
            assert closure_components(res) == closure_components(src), cert
            if step.tag == "M0":
                # a relation, square steps too: mu(s_i) is an involution
                assert pi(res) == pi(src) and mu(res) == mu(src), cert
            if free_reduce(src) != src:
                continue  # the fan takes free-reduced words only
            caps = Budget(max_len=len(src) + 4, max_n=src.strands + 1)
            assert res == src or is_square_move(src, res) or res in {
                r for _, r in neighbors(src, caps)
            }, cert


def small_words(n):
    if n < 2:
        return [""]
    return ["", "s1", "r1"]


def _shift_tokens(text, by=1):
    return " ".join(f"{t[0]}{int(t[1:]) + by}" for t in text.split())


def battery_pairs():
    """Search instances for every derived-move family at n = 2, 3."""
    pairs = []
    for n in (2, 3):
        N = n + 1
        for i in range(1, n + 1):
            # items 1: real stabilization tails, right- and left-handed
            tail = [f"s{j}" for j in range(n, i, -1)]
            tail = tail + [f"s{i}"] + tail[::-1]
            ltail = [f"s{j}" for j in range(1, i)] + [f"s{i}"] + [
                f"s{j}" for j in range(i - 1, 0, -1)
            ]
            for b in small_words(n):
                pairs.append((f"right-tail-real n={n} i={i} b={b!r}",
                              " ".join([b] + tail).strip(), N, b, n))
                pairs.append((f"left-tail-real n={n} i={i} b={b!r}",
                              " ".join([_shift_tokens(b)] + ltail).strip(), N, b, n))
            # items 2/3: exchanges with mixed kinds (all-s rows are item 2)
            m = n + 1 - i  # depth of the mirrored instance
            for ks in itertools.product("sr", repeat=n - i + 1):
                kinds = dict(zip(range(i, n + 1), ks))
                arm = [f"{kinds[j]}{j}" for j in range(n, i - 1, -1)]
                larm = [f"{ks[t]}{t + 1}" for t in range(m)]
                for b1 in small_words(i):
                    for b2 in small_words(n):
                        lhs = arm + [b1] + arm[::-1] + [b2]
                        rhs = [f"r{t[1:]}" for t in arm] + [b1] + [
                            f"r{t[1:]}" for t in arm[::-1]
                        ] + [b2]
                        pairs.append(
                            (f"right-exchange n={n} i={i} ks={ks} b1={b1!r} b2={b2!r}",
                             " ".join(" ".join(lhs).split()), N,
                             " ".join(" ".join(rhs).split()), N)
                        )
                        lb1 = _shift_tokens(b1, by=m)
                        lb2 = _shift_tokens(b2)
                        llhs = larm + [lb1] + larm[::-1] + [lb2]
                        lrhs = [f"r{t[1:]}" for t in larm] + [lb1] + [
                            f"r{t[1:]}" for t in larm[::-1]
                        ] + [lb2]
                        pairs.append(
                            (f"left-exchange n={n} i={m} ks={ks} b1={b1!r} b2={b2!r}",
                             " ".join(" ".join(llhs).split()), N,
                             " ".join(" ".join(lrhs).split()), N)
                        )
        # items 4: mixed-kind stabilization tails
        for c in range(1, n + 1):
            cp = n + 1 - c  # mirrored center
            for ks in itertools.product("sr", repeat=n - c + 1):
                kinds = dict(zip(range(c, n + 1), ks))
                down = [f"{kinds[j]}{j}" for j in range(n, c, -1)]
                pal = down + [f"{kinds[c]}{c}"] + down[::-1]
                lup = [f"{ks[t]}{t + 1}" for t in range(cp - 1)]
                lpal = lup + [f"{ks[cp - 1]}{cp}"] + lup[::-1]
                for b in small_words(n):
                    pairs.append((f"right-tail-mixed n={n} c={c} ks={ks} b={b!r}",
                                  " ".join([b] + pal).strip(), N, b, n))
                    pairs.append((f"left-tail-mixed n={n} c={cp} ks={ks} b={b!r}",
                                  " ".join([_shift_tokens(b)] + lpal).strip(), N, b, n))
    return pairs


_BATTERY = battery_pairs()


@pytest.mark.parametrize(
    "label,lhs,ln,rhs,rn", _BATTERY, ids=[p[0] for p in _BATTERY]
)
def test_derived_move_battery(label, lhs, ln, rhs, rn):
    u, v = w(lhs, ln), w(rhs, rn)
    verdict = equivalent_closures(u, v, tight_budget(u, v))
    assert isinstance(verdict, Equivalent), f"{label}: {verdict}"
    assert verdict.trace.replay()
