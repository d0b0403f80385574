"""Every public callable of words, freegroup, gauss, alexander, markov and
derived returns or raises a DoodleError.

The Python API's rule (README, "Command line"): a value of the documented
type ends in a result or a ``DoodleError``.  Each test draws arguments of
those types with bounded values (strand counts -2..8, words of at most 12
letters, budgets of at most 300 states, ints -3..8, grammar tokens and
random strs, real certificates with one line mutated) and lets any other
exception fail it.  No draw comes near a large strand count.  One more
property pins the one rule for a move's form: a one-step trace replays
exactly when its certificate verifies, and when apply_move gives its result.
"""

import random

from hypothesis import given, settings, strategies as st

from conftest import GOLDEN
from doodlekit.alexander import braid
from doodlekit.derived import apply_derived
from doodlekit.errors import DoodleError
from doodlekit.freegroup import (
    FreeEndomorphism,
    FreeWord,
    compose,
    generator,
    inverse_free,
    mu,
    reduce_free,
    relation_count,
    relation_instances,
    separates,
    separating_generator,
    verify_relations,
)
from doodlekit.gauss import (
    closure_gauss,
    format_gauss,
    isomorphic,
    make_gauss,
    parse_gauss,
    relabel,
    validate,
)
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
from doodlekit.moves import _M0_RULES, _moves_int
from doodlekit.words import (
    Letter,
    Permutation,
    TwinWord,
    _reduce,
    _word,
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

INTS = st.integers(-3, 8)
STRANDS = st.integers(-2, 8)
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
    text = outcome(format_certificate, left, right, trace)
    assert text is None or parse_certificate(text)[:2] == (left, right)


@st.composite
def perturbed_steps(draw):
    """A move of a fan as a one-step MoveInstance, its params kept, made a
    list, or with one int item made a bool or a Letter: a position, a
    letter, or neither.  The fan's caps leave room for M2 stabilizations,
    so it is never empty."""
    w = draw(words())
    state = (w.strands, _reduce(w.code))
    fan = list(_moves_int(state, len(state[1]) + 2, w.strands + 1))
    src, tag, params, dst = draw(st.sampled_from(fan))
    how = draw(st.sampled_from(["keep", "list", "bool", "letter"]))
    ints = [k for k, p in enumerate(params) if type(p) is int and (how == "bool" or p)]
    if how == "list":
        params = list(params)
    elif how != "keep" and ints:
        k = draw(st.sampled_from(ints))
        p = params[k]
        new = bool(p) if how == "bool" else Letter("s" if p > 0 else "r", abs(p))
        params = params[:k] + (new,) + params[k + 1 :]
    return MoveInstance(tag, params, _word(*src), _word(*dst))


@settings(max_examples=300, deadline=None)
@given(perturbed_steps())
def test_a_step_replays_exactly_when_its_certificate_verifies(step):
    trace = MoveTrace(step.source, (step,))
    text = outcome(format_certificate, step.source, step.result, trace)
    verifies = text is not None and outcome(verify_certificate, text) is not None
    applies = outcome(apply_move, step.source, step.tag, step.params) == step.result
    assert trace.replay() == step.replay() == verifies == applies


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


@st.composite
def any_words(draw):
    """A word on 1..8 strands: words() at a drawn strand count."""
    return draw(words(draw(st.integers(1, 8))))


CODES = st.lists(INTS, max_size=12).map(tuple)
KINDS = st.one_of(st.sampled_from(["s", "r"]), TEXT)
PERMUTATIONS = st.integers(0, 8).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)


@settings(max_examples=200, deadline=None)
@given(any_words(), any_words(), STRANDS, CODES, INTS, KINDS, TEXT, st.one_of(PERMUTATIONS, CODES))
def test_words_layer(w, v, n, code, k, kind, text, images):
    outcome(TwinWord, n, code)
    outcome(Letter, kind, k)
    outcome(parse_word, text, n)
    outcome(parse_word_file, text)
    assert parse_word(format_word(w), w.strands) == parse_word_file(format_word_file(w)) == w
    outcome(concat, w, v)
    for call in (free_reduce, inverse, closure_components):
        call(w)
    outcome(shift_left, k, w)
    outcome(random_word, random.Random(k), n, k)
    outcome(Permutation.identity, n)
    for p in (pi(w), outcome(Permutation, images)):
        if p is not None:
            outcome(p, k)
            outcome(p.then, pi(v))
            assert p.then(p.inverse()).is_identity() and p.cycle_string()


@settings(max_examples=200, deadline=None)
@given(any_words(), any_words(), STRANDS, CODES, st.lists(CODES, max_size=8), INTS)
def test_freegroup_layer(w, v, rank, letters, images, k):
    x = outcome(FreeWord, rank, letters)
    outcome(generator, rank, k)
    outcome(FreeEndomorphism.identity, rank)
    image_words = [y for y in (outcome(FreeWord, rank, c) for c in images) if y is not None]
    outcome(FreeEndomorphism, rank, tuple(image_words))
    f, g = mu(w), mu(v)
    outcome(f.image, k)
    outcome(compose, f, g)
    if x is not None:
        assert reduce_free(x) == reduce_free(inverse_free(inverse_free(x)))
        outcome(f.apply, x)
    outcome(separates, w, v)
    outcome(separating_generator, w, v)
    outcome(relation_instances, rank)
    outcome(verify_relations, rank)
    relation_count(rank)


END = st.tuples(INTS, INTS)


@settings(max_examples=200, deadline=None)
@given(
    any_words(),
    any_words(),
    INTS,
    st.lists(st.tuples(END, END), max_size=8),
    INTS,
    st.one_of(PERMUTATIONS, CODES),
    TEXT,
)
def test_gauss_and_alexander_layers(w, v, crossings, arcs, loops, sigma, text):
    g, h = closure_gauss(w), closure_gauss(v)
    outcome(make_gauss, crossings, arcs, loops)
    assert make_gauss(g.crossings, g.sorted_arcs, g.free_loops) == parse_gauss(format_gauss(g)) == g
    outcome(parse_gauss, text)
    validate(g)
    outcome(relabel, g, sigma)
    outcome(isomorphic, g, h)
    b = outcome(braid, g)
    assert b is None or closure_gauss(b) == g
