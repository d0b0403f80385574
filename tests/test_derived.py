"""Derived moves: shapes, batteries, pinned traces and their golden.

``tests/golden/derived.txt`` has one line per battery instance: the item,
its arguments, the trace's step count and the sha256 of its certificate.
Regenerate it, on code whose chains are known good, with

    PYTHONPATH=src python tests/test_derived.py
"""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GOLDEN
from doodlekit import derived
from doodlekit.derived import apply_derived
from doodlekit.errors import PatternMismatch
from doodlekit.markov import format_certificate, verify_certificate
from doodlekit.words import Letter, TwinWord, closure_components, free_reduce, parse_word


def w(text, n):
    return parse_word(text, n)


def betas(n):
    if n < 2:
        return [""]
    out = ["", "s1", "r1"]
    if n >= 3:
        out += ["r2", "r1 r2"]  # exercises boundary contact with the chains
    return out


class TestRightTailReal:
    def test_worked_example_trace(self):
        dm = apply_derived("right-tail-real", n=2, i=1, beta=w("r1", 2))
        assert dm.lhs == w("r1 s2 s1 s2", 3)
        assert dm.rhs == w("r1", 2)
        assert [s.tag for s in dm.trace.steps] == ["M4", "M0", "M1", "M2"]
        assert dm.trace.replay()

    def test_base_case_is_destabilization(self):
        dm = apply_derived("right-tail-real", n=3, i=3, beta=w("s1 r2", 3))
        assert len(dm.trace.steps) == 1
        assert dm.trace.steps[0].tag == "M2"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_battery(self, n):
        for i in range(1, n + 1):
            for b in betas(n):
                dm = apply_derived("right-tail-real", n=n, i=i, beta=w(b, n))
                assert dm.trace.replay()
                assert dm.lhs.strands == n + 1 and dm.rhs == w(b, n)


class TestRightExchangeRun:
    def test_shape(self):
        dm = apply_derived("right-exchange-run", n=3, i=2, beta1=w("r1", 2), beta2=w("s1", 3))
        assert dm.lhs == w("s3 s2 r1 s2 s3 s1", 4)
        assert dm.rhs == w("r3 r2 r1 r2 r3 s1", 4)
        assert dm.trace.replay()

    def test_empty_core_reduces(self):
        dm = apply_derived("right-exchange-run", n=2, i=1, beta1=w("", 1), beta2=w("r1", 2))
        assert dm.trace.replay()
        assert dm.lhs == w("s2 s1 s1 s2 r1", 3)
        assert dm.rhs == w("r2 r1 r1 r2 r1", 3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_battery(self, n):
        for i in range(1, n + 1):
            for b1 in betas(i):
                for b2 in betas(n):
                    dm = apply_derived(
                        "right-exchange-run", n=n, i=i, beta1=w(b1, i), beta2=w(b2, n)
                    )
                    assert dm.trace.replay()


class TestRightExchangeMixed:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_battery(self, n):
        for i in range(1, n + 1):
            for ks in itertools.product("sr", repeat=n - i + 1):
                for b1 in betas(i):
                    for b2 in betas(n):
                        dm = apply_derived(
                            "right-exchange-mixed", n=n, i=i,
                            beta1=w(b1, i), beta2=w(b2, n), kinds=list(ks),
                        )
                        assert dm.trace.replay()


class TestRightTailMixed:
    def test_all_virtual_tail(self):
        dm = apply_derived("right-tail-mixed", n=3, i=1, beta=w("s1", 3), kinds=["r", "r", "r"])
        assert dm.lhs == w("s1 r3 r2 r1 r2 r3", 4)
        assert dm.rhs == w("s1", 3)
        assert dm.trace.replay()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_battery(self, n):
        for c in range(1, n + 1):
            for ks in itertools.product("sr", repeat=n - c + 1):
                for b in betas(n):
                    dm = apply_derived("right-tail-mixed", n=n, i=c, beta=w(b, n), kinds=list(ks))
                    assert dm.trace.replay()


class TestLeftVirtualDestab:
    def test_example(self):
        dm = apply_derived("left-virtual-destab", n=2, beta=w("s1", 2))
        assert dm.lhs == w("s2 r1", 3)
        assert dm.rhs == w("s1", 2)
        assert dm.trace.replay()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_battery(self, n):
        for b in betas(n):
            dm = apply_derived("left-virtual-destab", n=n, beta=w(b, n))
            assert dm.trace.replay()


class TestMirrorItems:
    def test_left_tail_is_left_destabilization(self):
        dm = apply_derived("left-tail-real", n=2, i=1, beta=w("r1", 2))
        assert dm.lhs == w("r2 s1", 3)
        assert dm.rhs == w("r1", 2)
        assert dm.trace.replay()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_battery_left_tail(self, n):
        for i in range(1, n + 1):
            for b in betas(n):
                dm = apply_derived("left-tail-real", n=n, i=i, beta=w(b, n))
                assert dm.trace.replay()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_battery_left_exchange(self, n):
        for i in range(1, n + 1):
            m = n + 1 - i
            for b1 in betas(m):
                for b2 in betas(n):
                    dm = apply_derived("left-exchange-run", n=n, i=i, beta1=w(b1, m), beta2=w(b2, n))
                    assert dm.trace.replay()
            for ks in itertools.product("sr", repeat=i):
                dm = apply_derived(
                    "left-exchange-mixed", n=n, i=i,
                    beta1=w(betas(m)[-1], m), beta2=w("r1", n), kinds=list(ks),
                )
                assert dm.trace.replay()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_battery_left_tail_mixed(self, n):
        for c in range(1, n + 1):
            for ks in itertools.product("sr", repeat=c):
                for b in betas(n):
                    dm = apply_derived("left-tail-mixed", n=n, i=c, beta=w(b, n), kinds=list(ks))
                    assert dm.trace.replay()

    def test_center_one_virtual_matches_destab(self):
        dm = apply_derived("left-tail-mixed", n=2, i=1, beta=w("s1", 2), kinds=["r"])
        assert dm.lhs == w("s2 r1", 3)
        assert dm.rhs == w("s1", 2)


class TestSearchFreeInstances:
    """n = 4 instances with pinned traces.  The first two lie beyond a
    bounded search of 200,000 states; the tail-mixed one has only real
    levels, so it takes the real tail's trace."""

    def test_left_tail_mixed_n4(self):
        dm = apply_derived("left-tail-mixed", n=4, i=2, beta=w("s1", 4), kinds=["s", "r"])
        assert dm.lhs == w("s2 s1 r2 s1", 5) and dm.rhs == w("s1", 4)
        assert dm.trace.replay() and dm.trace.end == dm.rhs

    def test_right_exchange_run_n4(self):
        dm = apply_derived(
            "right-exchange-run", n=4, i=2, beta1=w("s1", 2), beta2=w("s2 r3", 4)
        )
        assert dm.lhs == w("s4 s3 s2 s1 s2 s3 s4 s2 r3", 5)
        assert dm.rhs == w("r4 r3 r2 s1 r2 r3 r4 s2 r3", 5)
        assert dm.trace.replay() and dm.trace.end == dm.rhs
        assert len(dm.trace.steps) == 59

    def test_right_tail_mixed_n4(self):
        dm = apply_derived("right-tail-mixed", n=4, i=1, beta=w("s1", 4), kinds=list("ssss"))
        assert dm.lhs == w("s1 s4 s3 s2 s1 s2 s3 s4", 5) and dm.rhs == w("s1", 4)
        assert dm.trace.replay() and dm.trace.end == dm.rhs
        assert dm.trace == apply_derived("right-tail-real", n=4, i=1, beta=w("s1", 4)).trace


def kinds_span(side, n, i):
    """How many kinds a side's mixed items take at (n, i)."""
    return n - i + 1 if side == "right" else i


class TestOneTailBuilder:
    """The real and mixed tails share one builder."""

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_all_real_tail_mixed_is_tail_real(self, side):
        for n in range(2, 6):
            for i in range(1, n + 1):
                for b in betas(n):
                    real = apply_derived(f"{side}-tail-real", n=n, i=i, beta=w(b, n))
                    mixed = apply_derived(
                        f"{side}-tail-mixed", n=n, i=i, beta=w(b, n),
                        kinds=["s"] * kinds_span(side, n, i),
                    )
                    assert mixed.trace == real.trace

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_every_tail_mixed_at_n5(self, side):
        n = 5
        for i in range(1, n + 1):
            for ks in itertools.product("sr", repeat=kinds_span(side, n, i)):
                for b in betas(n):
                    dm = apply_derived(
                        f"{side}-tail-mixed", n=n, i=i, beta=w(b, n), kinds=list(ks)
                    )
                    assert dm.trace.replay() and dm.trace.end == dm.rhs == w(b, n)
                    cert = format_certificate(dm.lhs, dm.rhs, dm.trace)
                    assert verify_certificate(cert).end == dm.rhs


def core_strands(side, n, i):
    """The strand count of a side's exchange core beta1 at (n, i)."""
    return i if side == "right" else n + 1 - i


class TestOneExchangeBuilder:
    """The run and mixed exchanges share one builder."""

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_all_real_exchange_mixed_is_exchange_run(self, side):
        for n in range(2, 6):
            for i in range(1, n + 1):
                m = core_strands(side, n, i)
                for b1, b2 in itertools.product(betas(m), betas(n)):
                    args = dict(n=n, i=i, beta1=w(b1, m), beta2=w(b2, n))
                    run = apply_derived(f"{side}-exchange-run", **args)
                    mixed = apply_derived(
                        f"{side}-exchange-mixed", **args, kinds=["s"] * kinds_span(side, n, i)
                    )
                    assert mixed.trace == run.trace

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_every_exchange_mixed_at_n5(self, side):
        n = 5
        for i in range(1, n + 1):
            m = core_strands(side, n, i)
            for ks in itertools.product("sr", repeat=kinds_span(side, n, i)):
                for b1, b2 in itertools.product(betas(m), betas(n)[::2]):
                    dm = apply_derived(
                        f"{side}-exchange-mixed", n=n, i=i,
                        beta1=w(b1, m), beta2=w(b2, n), kinds=list(ks),
                    )
                    assert dm.trace.replay() and dm.trace.end == dm.rhs
                    cert = format_certificate(dm.lhs, dm.rhs, dm.trace)
                    assert verify_certificate(cert).end == dm.rhs

    def test_virtual_top_takes_no_unwind(self):
        # the real level below a virtual top turns virtual in one chain,
        # with no level turned real on the way
        dm = apply_derived(
            "right-exchange-mixed", n=4, i=2,
            beta1=w("s1", 2), beta2=w("r1 r2", 4), kinds=list("srr"),
        )
        assert dm.lhs == w("r4 r3 s2 s1 s2 r3 r4 r1 r2", 5)
        assert dm.rhs == w("r4 r3 r2 s1 r2 r3 r4 r1 r2", 5)
        assert dm.trace.replay() and dm.trace.end == dm.rhs
        assert len(dm.trace.steps) == 51


@st.composite
def reduced_words(draw, n, max_len):
    if n < 2:
        return TwinWord(n, ())
    letters = draw(
        st.lists(st.tuples(st.sampled_from("sr"), st.integers(1, n - 1)), max_size=max_len)
    )
    return free_reduce(TwinWord(n, tuple(Letter(k, j) for k, j in letters)))


@st.composite
def derived_instances(draw):
    item = draw(st.sampled_from([
        "left-virtual-destab",
        "right-exchange-run", "left-exchange-run",
        "right-exchange-mixed", "left-exchange-mixed",
        "right-tail-mixed", "left-tail-mixed",
    ]))
    n = draw(st.integers(2, 6))
    if item == "left-virtual-destab":
        return item, {"n": n, "beta": draw(reduced_words(n, 8))}
    i = draw(st.integers(1, n))
    kw = {"n": n, "i": i}
    right = item.startswith("right-")
    if item.endswith("tail-mixed"):
        kw["beta"] = draw(reduced_words(n, 8))
    else:
        m = i if right else n + 1 - i
        kw["beta1"] = draw(reduced_words(m, 4))
        kw["beta2"] = draw(reduced_words(n, 6))
    if item.endswith("mixed"):
        span = n - i + 1 if right else i
        kw["kinds"] = draw(st.lists(st.sampled_from("sr"), min_size=span, max_size=span))
    return item, kw


@settings(max_examples=150, deadline=None)
@given(derived_instances())
def test_derived_traces_replay_and_verify(instance):
    item, kw = instance
    dm = apply_derived(item, **kw)
    assert dm.trace.start == dm.lhs and dm.trace.end == dm.rhs
    assert dm.trace.replay()
    cert = format_certificate(dm.lhs, dm.rhs, dm.trace)
    assert verify_certificate(cert).end == dm.rhs
    assert closure_components(dm.lhs) == closure_components(dm.rhs)


class TestValidation:
    def test_unknown_item(self):
        with pytest.raises(PatternMismatch):
            apply_derived("diagonal-tail", n=2, i=1)

    def test_bad_index(self):
        with pytest.raises(PatternMismatch):
            apply_derived("right-tail-real", n=2, i=3, beta=w("", 2))

    def test_wrong_beta_rank(self):
        with pytest.raises(PatternMismatch):
            apply_derived("right-tail-real", n=3, i=1, beta=w("s1", 2))

    def test_unreduced_beta(self):
        with pytest.raises(PatternMismatch):
            apply_derived("right-tail-real", n=2, i=1, beta=w("s1 s1", 2))

    def test_bad_kinds(self):
        with pytest.raises(PatternMismatch):
            apply_derived("right-tail-mixed", n=2, i=1, beta=w("", 2), kinds=["s"])

    def test_n_below_two(self):
        with pytest.raises(PatternMismatch):
            apply_derived("right-tail-real", n=1, i=1)

    @pytest.mark.parametrize(
        "item,kw,stray",
        [
            ("right-tail-real", dict(n=2, i=1, beta=w("r1", 2), kinds=["r", "r"]), "kinds"),
            ("right-tail-real", dict(n=2, i=1, beta1=w("", 1)), "beta1"),
            ("right-exchange-run", dict(n=2, i=1, beta2=w("r1", 2), kinds=["x"]), "kinds"),
            ("right-exchange-mixed", dict(n=2, i=1, beta=w("s1", 2)), "beta"),
            ("left-tail-mixed", dict(n=2, i=1, beta=w("s1", 2), kinds=["r"], beta2=w("", 2)), "beta2"),
            ("left-virtual-destab", dict(n=2, i=5, beta=w("s1", 2)), "i"),
            ("left-virtual-destab", dict(n=2, beta1=w("s1", 2)), "beta1"),
            ("left-virtual-destab", dict(n=2, kinds="zz"), "kinds"),
        ],
    )
    def test_stray_argument(self, item, kw, stray):
        with pytest.raises(PatternMismatch, match=f"^item {item} takes no {stray}$"):
            apply_derived(item, **kw)

    def test_defaults(self):
        # beta=None is the empty word, kinds=None is all real
        assert len(apply_derived("right-tail-real", n=3, i=1).trace.steps) == 13
        args = dict(n=3, i=2, beta1=w("s1", 2), beta2=w("r2", 3))
        plain = apply_derived("right-exchange-mixed", **args)
        assert plain.trace == apply_derived("right-exchange-mixed", **args, kinds=["s", "s"]).trace

    def test_unmirrored_move_is_internal(self):
        # right-handed chains take no M3 step, so the mirror has no rule for one
        src, dst = (3, (1,)), (2, ())
        with pytest.raises(RuntimeError, match="internal"):
            derived._mirror_edges([(src, "M3", ("destab",), dst)])


def test_traces_export_as_certificates():
    dm = apply_derived("right-tail-real", n=3, i=1, beta=w("r1", 3))
    cert = format_certificate(dm.lhs, dm.rhs, dm.trace)
    assert verify_certificate(cert).end == dm.rhs


DERIVED_GOLDEN = GOLDEN / "derived.txt"


def battery_instances():
    """(item, keyword arguments) of every battery case above, item by item."""
    ns = (2, 3, 4)
    for n in ns:
        for i in range(1, n + 1):
            for b in betas(n):
                yield "right-tail-real", dict(n=n, i=i, beta=b)
    for n in ns:
        for i in range(1, n + 1):
            for b1, b2 in itertools.product(betas(i), betas(n)):
                yield "right-exchange-run", dict(n=n, i=i, beta1=b1, beta2=b2)
    for n in ns:
        for i in range(1, n + 1):
            for ks in itertools.product("sr", repeat=n - i + 1):
                for b1, b2 in itertools.product(betas(i), betas(n)):
                    yield "right-exchange-mixed", dict(
                        n=n, i=i, beta1=b1, beta2=b2, kinds="".join(ks)
                    )
    for n in ns:
        for c in range(1, n + 1):
            for ks in itertools.product("sr", repeat=n - c + 1):
                for b in betas(n):
                    yield "right-tail-mixed", dict(n=n, i=c, beta=b, kinds="".join(ks))
    for n in ns:
        for b in betas(n):
            yield "left-virtual-destab", dict(n=n, beta=b)
    for n in ns:
        for i in range(1, n + 1):
            for b in betas(n):
                yield "left-tail-real", dict(n=n, i=i, beta=b)
    for n in ns:
        for i in range(1, n + 1):
            m = n + 1 - i
            for b1, b2 in itertools.product(betas(m), betas(n)):
                yield "left-exchange-run", dict(n=n, i=i, beta1=b1, beta2=b2)
            for ks in itertools.product("sr", repeat=i):
                yield "left-exchange-mixed", dict(
                    n=n, i=i, beta1=betas(m)[-1], beta2="r1", kinds="".join(ks)
                )
    for n in ns:
        for c in range(1, n + 1):
            for ks in itertools.product("sr", repeat=c):
                for b in betas(n):
                    yield "left-tail-mixed", dict(n=n, i=c, beta=b, kinds="".join(ks))


def battery_move(item, args):
    """apply_derived on one battery_instances() case."""
    n, i = args["n"], args.get("i")
    kw = dict(args)
    for k in ("beta", "beta2"):
        if k in kw:
            kw[k] = w(kw[k], n)
    if "beta1" in kw:
        kw["beta1"] = w(kw["beta1"], i if item.startswith("right-") else n + 1 - i)
    if "kinds" in kw:
        kw["kinds"] = list(kw["kinds"])
    return apply_derived(item, **kw)


def golden_line(item, args) -> str:
    """The instance's line: item, arguments, step count, certificate hash."""
    dm = battery_move(item, args)
    digest = hashlib.sha256(format_certificate(dm.lhs, dm.rhs, dm.trace).encode())
    fields = [item] + [f"{k}={v!r}" for k, v in args.items()]
    return " ".join(fields + [f"steps={len(dm.trace.steps)}", f"sha256={digest.hexdigest()}"])


def test_batteries_match_golden():
    want = DERIVED_GOLDEN.read_text().splitlines()
    got = [golden_line(item, args) for item, args in battery_instances()]
    assert len(got) == len(want)
    for line, expected in zip(got, want):
        assert line == expected


# each family's total steps= in the golden, as it was once no trace came
# back to a state it had passed; a regenerated golden may fall below it
FAMILY_STEP_BUDGET = {
    "right-tail-real": 408,
    "right-exchange-run": 1271,
    "right-exchange-mixed": 4274,
    "right-tail-mixed": 4114,
    "left-virtual-destab": 173,
    "left-tail-real": 477,
    "left-exchange-run": 1298,
    "left-exchange-mixed": 409,
    "left-tail-mixed": 6260,
}


def test_golden_step_totals_stay_within_budget():
    totals = {}
    for line in DERIVED_GOLDEN.read_text().splitlines():
        item, steps = line.split()[0], line.split(" steps=")[1].split()[0]
        totals[item] = totals.get(item, 0) + int(steps)
    assert totals.keys() == FAMILY_STEP_BUDGET.keys()
    for item, total in totals.items():
        assert total <= FAMILY_STEP_BUDGET[item], (item, total)


def test_no_battery_trace_repeats_a_state():
    for item, args in battery_instances():
        trace = battery_move(item, args).trace
        states = [(x.strands, x.code) for x in [trace.start, *(s.result for s in trace.steps)]]
        assert len(set(states)) == len(states), (item, args)


def test_each_step_is_computed_once(monkeypatch):
    # builders pass on the states they computed; only the builder's own
    # steps and the turn around a mirrored exchange apply a move, so the
    # moves applied in derived.py never outnumber the edges built.  The
    # trace may be shorter than its edge chain, which _edge_trace cuts
    # where the chain comes back to a state.
    apply, trace, calls, built = derived._apply_int, derived._edge_trace, 0, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return apply(*args)

    def handed(start, edges, end):
        nonlocal built
        built += len(edges)
        return trace(start, edges, end)

    monkeypatch.setattr(derived, "_apply_int", counted)
    monkeypatch.setattr(derived, "_edge_trace", handed)
    for item, args in battery_instances():
        if args["n"] <= 3:
            battery_move(item, args)
    assert 0 < calls <= built, (calls, built)


def test_exchange_is_all_squares_exactly_when_beta1_is_empty():
    # apply_derived decides a degenerate exchange by beta1 alone; with
    # beta1, an all-virtual arm takes no step, and any other a non-square one
    for item, args in battery_instances():
        if "exchange" in item:
            steps = battery_move(item, args).trace.steps
            squares = all(s.tag == "M0" and s.params[0].startswith("square-") for s in steps)
            assert squares == (args["beta1"] == "" or not steps), (item, args)


def test_mirrored_gap_is_caught():
    # the mirror reuses a mapped state only where the chain is unbroken,
    # so a gap in a right-handed chain stays a gap in its mirror
    a, b, c = (3, (1, 2)), (3, (2, 1)), (3, (1, -2))
    right = [(a, "M1", ("conj", 2), b), (c, "M1", ("conj", -2), (3, (-2, 1)))]
    left = derived._mirror_edges(right)
    assert left[1][0] == (3, derived._mirror(*c))
    with pytest.raises(RuntimeError, match="internal"):
        derived._edge_trace(left[0][0], left, left[-1][3])


def test_each_state_is_mirrored_once(monkeypatch):
    # a mirrored edge maps its result and at most its one letter parameter;
    # its source is the last edge's result, already mapped.  Each instance
    # maps at most five more tuples: its chain's first state and up to four
    # of its inputs (beta or beta1, beta2, its start and its right side).
    # Mapping both ends of every edge, about one call more per edge, fails
    mirror, calls = derived._mirror, 0
    mirror_edges, edges, letters = derived._mirror_edges, 0, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return mirror(*args)

    def counted_edges(chain):
        nonlocal edges, letters
        edges += len(chain)
        letters += sum(tag == "M1" or len(params) > 2 for _, tag, params, _ in chain)
        return mirror_edges(chain)

    monkeypatch.setattr(derived, "_mirror", counted)
    monkeypatch.setattr(derived, "_mirror_edges", counted_edges)
    cases = [
        (item, args) for item, args in battery_instances()
        if args["n"] <= 3 and item.startswith("left-")
    ]
    for item, args in cases:
        battery_move(item, args)
    assert edges > 0
    assert calls <= edges + letters + 5 * len(cases), (calls, edges, letters, len(cases))


if __name__ == "__main__":
    lines = [golden_line(item, args) for item, args in battery_instances()]
    DERIVED_GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {DERIVED_GOLDEN}")
