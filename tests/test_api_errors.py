"""Every public callable of markov and derived returns or raises a DoodleError.

The Python API's rule (README, "Command line"): a value of the documented
type ends in a result or a ``DoodleError``.  Each test draws arguments of
those types with bounded values (strand counts -2..6, words of at most 12
letters, budgets of at most 300 states, ints -3..8, grammar tokens and
random strs, real certificates with one line mutated) and lets any other
exception fail it.  No draw comes near a large strand count.
"""

from hypothesis import given, settings, strategies as st

from conftest import GOLDEN
from doodlekit.derived import apply_derived
from doodlekit.errors import DoodleError
from doodlekit.markov import (
    Budget,
    MoveInstance,
    MoveTrace,
    apply_move,
    equivalent_closures,
    format_certificate,
    neighbors,
    parse_certificate,
    verify_certificate,
)
from doodlekit.moves import _M0_RULES
from doodlekit.words import TwinWord, _reduce

INTS = st.integers(-3, 8)
TAGS = ("M0", "M1", "M2", "M3", "M4", "M5")
TOKENS = (*TAGS, *_M0_RULES, "conj", "stab", "destab", "s", "r", "s1", "r2", "step", "->", "@")
TEXT = st.text(max_size=12)
ITEMS = tuple(
    f"{side}-{family}"
    for side in ("right", "left")
    for family in ("tail-real", "exchange-run", "exchange-mixed", "tail-mixed")
) + ("left-virtual-destab",)
TAKES = {
    "tail-real": ("i", "beta"),
    "tail-mixed": ("i", "beta", "kinds"),
    "exchange-run": ("i", "beta1", "beta2"),
    "exchange-mixed": ("i", "beta1", "beta2", "kinds"),
    "virtual-destab": ("beta",),
}
CERTIFICATES = sorted(GOLDEN.glob("equiv_*.txt"))


def outcome(call, *args, **kwargs):
    """The call's result, or None if it raised a DoodleError; any other
    exception propagates and fails the test."""
    try:
        return call(*args, **kwargs)
    except DoodleError:
        return None


@st.composite
def words(draw, strands=None):
    n = draw(st.integers(1, 6)) if strands is None else max(strands, 1)
    letters = [a for j in range(1, n) for a in (j, -j)]
    code = tuple(draw(st.lists(st.sampled_from(letters), max_size=12))) if letters else ()
    return TwinWord(n, code if draw(st.integers(0, 3)) == 0 else _reduce(code))


params = st.lists(st.one_of(st.sampled_from(TOKENS), INTS, TEXT), max_size=3).map(tuple)
tags = st.one_of(st.sampled_from(TAGS), TEXT)
budgets = st.builds(
    Budget,
    st.integers(-3, 300),
    st.one_of(st.none(), INTS, st.integers(9, 16)),
    st.one_of(st.none(), INTS),
)


@st.composite
def moves(draw):
    return MoveInstance(draw(tags), draw(params), draw(words()), draw(words()))


@settings(max_examples=300, deadline=None)
@given(words(), tags, params)
def test_apply_move(w, tag, ps):
    res = outcome(apply_move, w, tag, ps)
    assert res is None or isinstance(res, TwinWord)


@settings(max_examples=150, deadline=None)
@given(words(), budgets)
def test_neighbors(w, caps):
    outcome(neighbors, w, caps)


@settings(max_examples=100, deadline=None)
@given(words(), words(), budgets)
def test_search_and_budget(u, v, budget):
    outcome(equivalent_closures, u, v, budget)
    outcome(budget.resolve, u, v)


@settings(max_examples=200, deadline=None)
@given(moves(), st.lists(moves(), max_size=3), words(), words())
def test_move_objects_and_formatting(move, steps, left, right):
    outcome(move.replay)
    outcome(move.describe)
    trace = MoveTrace(left, tuple(steps))
    outcome(trace.replay)
    outcome(format_certificate, left, right, trace)


@st.composite
def mutated_certificates(draw):
    lines = draw(st.sampled_from(CERTIFICATES)).read_text().splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    fields = lines[k].split(" ")
    how = draw(st.sampled_from(["field", "line", "drop", "repeat"]))
    if how == "field":
        f = draw(st.integers(0, len(fields) - 1))
        new = draw(st.one_of(st.sampled_from(TOKENS), INTS.map(str), TEXT))
        lines[k] = " ".join(fields[:f] + [new] + fields[f + 1 :])
    elif how == "line":
        lines[k] = draw(TEXT)
    elif how == "drop":
        del lines[k]
    else:
        lines.insert(k, lines[k])
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_certificates())
def test_certificate_files(text):
    outcome(parse_certificate, text)
    outcome(verify_certificate, text)


@st.composite
def derived_calls(draw):
    """An item and its keywords, drawn so that most calls build a chain:
    three times in four a known item, n >= 2, only the keywords the item
    takes, each sub-word on its strand count and the kinds of the arm's
    length; else any str, any n, every keyword or any strand count."""

    def rarely(strategy, usual):
        return draw(strategy) if draw(st.integers(0, 3)) == 0 else usual

    item = rarely(TEXT, draw(st.sampled_from(ITEMS)))
    n = rarely(st.integers(-2, 6), draw(st.integers(2, 6)))
    i = rarely(INTS, draw(st.integers(1, max(n, 1))))
    left = item.startswith("left")
    strands = {"beta": n, "beta1": n + 1 - i if left else i, "beta2": n}
    span = max(i if left else n + 1 - i, 0)  # the arm's length
    kinds = "".join(draw(st.lists(st.sampled_from("sr"), min_size=span, max_size=span)))
    values = {
        "i": i,
        "kinds": rarely(TEXT, kinds),
        **{name: draw(words(rarely(st.integers(1, 6), k))) for name, k in strands.items()},
    }
    takes = rarely(st.just(tuple(values)), TAKES.get(item.partition("-")[2], ()))
    return item, {"n": n, **{name: values[name] for name in takes}}


@settings(max_examples=400, deadline=None)
@given(derived_calls())
def test_apply_derived(call):
    item, kw = call
    dm = outcome(apply_derived, item, **kw)
    assert dm is None or dm.trace.replay()
