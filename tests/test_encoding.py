"""Words keep one encoding: exact signed ints in ``code``, Letters as their view.

Every way a word is made (parsing, braiding, single moves, the move fan,
search traces and derived traces) must store exact ints, so that search states hash and
compare on plain ints, and must show the same letters through ``letters``
as through its tokens.
"""

from hypothesis import given, settings, strategies as st

from test_derived import derived_instances
from doodlekit import apply_derived, braid, closure_gauss
from doodlekit.cli import run
from doodlekit.markov import Budget, Equivalent, apply_move, equivalent_closures, neighbors
from doodlekit.moves import _moves_int
from doodlekit.words import Letter, TwinWord, format_word, free_reduce, parse_word


def check_word(w: TwinWord) -> None:
    # braid, neighbors and search traces build words without the letter
    # checks; each must equal the word the checked constructor builds
    assert type(w.strands) is int and type(w.code) is tuple
    assert all(type(a) is int for a in w.code), w.code
    tokens = format_word(w).split()
    assert len(w.letters) == len(tokens)
    for let, tok in zip(w.letters, tokens):
        assert type(let) is Letter
        assert (let.kind, let.index, str(let)) == (tok[0], int(tok[1:]), tok)
    again = TwinWord(w.strands, w.letters)
    assert again == TwinWord(w.strands, w.code) == w
    assert hash(again) == hash(w)


@st.composite
def token_words(draw):
    n = draw(st.integers(1, 5))
    if n == 1:
        return parse_word("", 1)
    toks = draw(st.lists(
        st.builds("{}{}".format, st.sampled_from("sr"), st.integers(1, n - 1)),
        max_size=10,
    ))
    return parse_word(" ".join(toks), n)


@settings(max_examples=60, deadline=None)
@given(token_words(), st.data())
def test_words_from_parse_braid_and_moves(w, data):
    check_word(w)
    if w.code:
        check_word(braid(closure_gauss(w)))
    # the fan takes free-reduced words only
    reduced = free_reduce(w)
    caps = Budget(max_len=len(reduced) + 2, max_n=w.strands + 1)
    fan = neighbors(reduced, caps)
    for move, nb in fan:
        check_word(nb)
        assert move.source == reduced and move.result == nb
    if fan:
        move, nb = data.draw(st.sampled_from(fan))
        assert apply_move(reduced, move.tag, move.params) == nb
        verdict = equivalent_closures(w, nb, Budget(2_000))
        assert isinstance(verdict, Equivalent)
        for step in verdict.trace.steps:
            check_word(step.result)


@settings(max_examples=40, deadline=None)
@given(token_words())
def test_search_states_from_letters_are_exact_ints(w):
    # the search expands free-reduced states only
    built = free_reduce(TwinWord(w.strands, tuple(Letter(let.kind, let.index) for let in w.letters)))
    for *_, (_, t) in _moves_int((built.strands, built.code), len(built) + 2, w.strands + 1):
        assert all(type(a) is int for a in t), t


@settings(max_examples=30, deadline=None)
@given(derived_instances())
def test_derived_trace_words(instance):
    item, kw = instance
    dm = apply_derived(item, **kw)
    check_word(dm.lhs)
    check_word(dm.rhs)
    for step in dm.trace.steps:
        check_word(step.result)


def test_error_names_letter_as_token(capsys):
    assert run(["pi", "--n", "3", "s3"]) == 65
    err = capsys.readouterr().err
    assert "letter s3 " in err
    assert run(["pi", "--n", "3", "s1 r4"]) == 65
    err = capsys.readouterr().err
    assert "letter r4 " in err and "-4" not in err
