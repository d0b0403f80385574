"""What a move is and how moves chain: the M0-M5 rules, the fan of a
state's moves, the exact inverse of every edge, and the traces that
edge chains become.

Move inventory (on free-reduced words; every neighbor is reduced at its
splice seams only, see below):

- M0: one application of a defining relation.  Far commutativity is code,
  since it is a condition on indices: a b -> b a (comm) and its unbalanced
  splits h g h <-> g (comm-shrink, comm-grow).  The braid and mixed
  relations are the two relators

      r_i r_{i+1} r_i r_{i+1} r_i r_{i+1}      r_i r_{i+1} s_i r_{i+1} r_i s_{i+1}

  and their rules are generated by one splice rule: cut a rotation of a
  relator, or of its reversal, into a window of 2, 3 or 4 letters and the
  rest; the window rewrites to the rest reversed.  Width 3 keeps the
  length (braid, mix3), a 2-letter window grows and a 4-letter window
  shrinks (braid-, mixr-, mixs-grow/-shrink; a mixed rule is mixr when
  its 2-letter side is all virtual).  Both lookups are cached per level
  i = d + 1: _splice finds (window, rule) in _rules_at(d), and the fan
  finds 3- and 2-letter windows in _splices_at(d) by their first two letters.
  Inserting a bare square g g is a legal relation application but reduces
  straight back, so it is never emitted; deleting one never fires because
  states are already reduced.
- M1: conjugation by a single generator (w -> g w g).  Generator
  conjugations generate all conjugations because every letter is an
  involution.  A one-letter cyclic shift is the conjugation by the letter
  it moves (g w -> w g is g (g w) g reduced), so it is no separate move.
- M2: right stabilization w -> w s_n or w r_n (strand count grows by
  one); destabilization removes a trailing extreme-index letter that
  occurs nowhere else in the word.
- M3: the left analogue, real type only: w -> (1 (x) w) s_1.
- M4/M5: right/left exchange; applicable when the extreme index occurs
  exactly twice with equal kind in the stated pattern (second occurrence
  trailing for M4, first occurrence leading for M5); both kinds flip.

The fan takes free-reduced states only; the search reduces both roots and
every move keeps a reduced word reduced.  An M0 move rewrites one window
and an M1 move puts letters at the ends, so letters can cancel only where
the new letters meet the untouched prefix and suffix.  The fan leaves out
the M0 edges that provably repeat an earlier edge of the same fan:
shrinks (4-letter windows, comm-shrink); a splice, comm or comm-grow whose
new letters start with the letter before the window; a 2-letter window or
comm-grow whose new letters end with the letter after it.  Why: x x
cancels wherever it sits, so the width-3 splice or comm at that position,
or an edge one position left, reaches the word first.  So no seam of a
grow (2-letter window, comm-grow) cancels: it is the prefix, the new
letters and the suffix concatenated, two letters longer than the word,
and none is built where that passes the length cap; nor is a conjugation
by a letter at neither end, and over the cap only the one by the letter at
both ends.  comm and width-3 splices are joined by _join, which cancels
only at the seam after the new letters, so none is built whose seam
cannot cancel on a word over the cap.  On a word more than two letters
over it, nothing but these two can fit, and only by cancelling at least
two letter pairs: a comm needs g b g b at its position, a width-3 splice
its window and then the last two letters of its replacement reversed
(all three, a whole relator rotation, for three or more pairs).  A word
with none of these factors has an empty fan, so the fan returns before
its loop, after one set test and one scan for squares
(_seams_can_cancel).  The prefix and suffix are sliced only for an
edge that is built.  A tighter cap drops the edges whose results do not
fit and keeps the rest in order.
_splice, _apply_int and _inverse_edges keep every rule and take unreduced
words too, which certificates and derived chains hold.  The fan builds
every move inline and calls no _apply_int: an exchange only where its
index list holds the extreme index exactly twice, both times of one kind.
The step grammar alone judges a move's form: apply_move,
MoveInstance.replay and describe pass params from outside through the gate
_plain once, and every other caller writes that form, so _apply_int only
asks whether the move fits the word.

Every edge has one exact inverse, _inverse_edges, worked out from the
move itself: square insertions rebuild the letters the move cancelled (its
image before free reduction), then the paired move at the same position
restores the source.  M0 rules pair through _M0_RULES (grow with shrink),
M1 conjugations and M4/M5 are their own inverses, and M2/M3 stabilization
pairs with destabilization, taking the kind of the removed letter.  A
conjugation needs no insertions: conjugating again cancels the same
letters.  _invert_edges reverses a whole path by this rule: the backward
half of a stitched trace, and the derived chains that run backwards.

A search state is the plain tuple (w.strands, w.code), which hashes
faster than a word; _word turns it back into one.  An edge chain becomes
a public MoveTrace in _edge_trace alone.  It replays the raw chain once,
state against state, and checks where it ends; only then does it build
the steps, going on from each state after the chain's last arrival there,
so a loop in the chain (a step the next one undoes) leaves no step.

_Builder takes a chain one checked step at a time, and _push_sweep is the
push-and-sweep nest that the derived tails and exchanges share
(doodlekit.derived).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from itertools import compress
from operator import eq
from typing import Iterator, Optional

from .errors import CertificateError, DoodleError, PatternMismatch
from .words import TwinWord, _letter, _quoted, _quoted_line, _reduce, _shift, _tok, _word

State = tuple[int, tuple[int, ...]]  # (strand count, letters)
Edge = tuple[State, str, tuple, State]  # (source, tag, params, result)


# ---------------------------------------------------------------------------
# M0 rules
#
# The two relators of the module docstring, written at i = 1 in the int
# encoding: a letter is its sign times (1 + its offset from i).
_RELATORS = {"braid": (-1, -2, -1, -2, -1, -2), "mix": (-1, -2, 1, -2, -1, 2)}

# rules whose parameters carry the letter they insert
_LETTER_RULES = ("comm-grow", "square-ins")


def _m0_tables() -> tuple[dict, dict]:
    """The splice map and the rule table, generated from _RELATORS.

    A rotation of a relator, or of its reversal, split into a window of 2,
    3 or 4 letters and the rest gives the rewrite window -> rest reversed.
    The splice map sends (window, rule) at i = 1 to its replacement (24
    entries; repeated rotations give the same entry again); _rules_at moves
    it to other levels.  The rule table maps every M0 rule id to its window
    width and the rule that undoes it at the same position.
    """
    splices: dict[tuple[tuple, str], tuple] = {}
    rules = {
        "comm": (2, "comm"),
        "comm-shrink": (3, "comm-grow"),
        "comm-grow": (1, "comm-shrink"),
        "square-del": (2, "square-ins"),
        "square-ins": (0, "square-del"),
    }
    for name, relator in _RELATORS.items():
        for word in (relator, relator[::-1]):
            for k in range(len(word)):
                rot = word[k:] + word[:k]
                for width in (2, 3, 4):
                    win, rhs = rot[:width], rot[width:][::-1]
                    if width == 3:
                        rule = paired = "braid" if name == "braid" else "mix3"
                    else:
                        short = win if width == 2 else rhs
                        if name == "braid":
                            family = "braid"
                        else:
                            family = "mixr" if all(a < 0 for a in short) else "mixs"
                        rule, paired = family + "-grow", family + "-shrink"
                        if width == 4:
                            rule, paired = paired, rule
                    rules[rule] = (width, paired)
                    splices.setdefault((win, rule), rhs)
    return splices, rules


_SPLICES, _M0_RULES = _m0_tables()


def _far(a: int, b: int) -> bool:
    return abs(abs(a) - abs(b)) >= 2


@cache
def _rules_at(d: int) -> dict[tuple[tuple, str], tuple[int, ...]]:
    """_SPLICES moved up to i = d + 1."""
    return {(_shift(w, d), r): _shift(rhs, d) for (w, r), rhs in _SPLICES.items()}


@cache
def _splices_at(d: int) -> dict[tuple[int, int], tuple]:
    """The 3- and 2-letter windows of _rules_at(d), keyed by their raw first
    two letters (6 keys): entries (rest of the window, rule, replacement),
    in fan order within a key (width 3, then 2)."""
    table: dict[tuple[int, int], tuple] = {}
    for width in (3, 2):
        for (win, rule), rhs in _rules_at(d).items():
            if len(win) == width:
                table[win[:2]] = table.get(win[:2], ()) + ((win[2:], rule, rhs),)
    return table


def _splice(t: tuple[int, ...], rule: str, pos: int, extra: Optional[int] = None):
    """The word with one application of an M0 rule at pos, before free
    reduction; None if the rule does not match there."""
    width = _M0_RULES[rule][0]
    if not 0 <= pos <= len(t) - width:
        return None
    win = t[pos : pos + width]
    rhs = None
    if rule == "comm":
        if _far(*win):
            rhs = win[::-1]
    elif rule == "comm-grow":
        if _far(win[0], extra):
            rhs = (extra, *win, extra)
    elif rule == "comm-shrink":
        if win[0] == win[2] and _far(win[0], win[1]):
            rhs = win[1:2]
    elif rule == "square-ins":
        rhs = (extra, extra)
    elif rule == "square-del":
        if win[0] == win[1]:
            rhs = ()
    elif abs(abs(win[0]) - abs(win[1])) == 1:
        rhs = _rules_at(min(abs(win[0]), abs(win[1])) - 1).get((win, rule))
    return None if rhs is None else t[:pos] + rhs + t[pos + width :]

# ---------------------------------------------------------------------------
# full move application


def _apply_int(state: State, tag: str, params: tuple) -> Optional[State]:
    """Apply one move whose params are in the step grammar's form (_plain);
    None unless the move fits the word."""
    n, t = state
    if tag == "M0":
        if len(params) == 3 and not 1 <= abs(params[2]) < n:
            return None
        image = _splice(t, *params)
        if image is None:
            return None
        # the square rules are only used to normalize word boundaries in
        # traces, where the unreduced intermediate word is the point
        return (n, image if params[0].startswith("square-") else _reduce(image))
    if tag == "M1":
        g = params[1]
        return (n, _reduce((g,) + t + (g,))) if 1 <= abs(g) < n else None
    if tag == "M2":
        if params[0] == "stab":
            return (n + 1, t + (n if params[1] == "s" else -n,))
        if t and abs(t[-1]) == n - 1 and n - 1 not in map(abs, t[:-1]):
            return (n - 1, t[:-1])
        return None
    if tag == "M3":
        if params[0] == "stab":
            return (n + 1, _shift(t, 1) + (1,))
        if t and t[-1] == 1 and 1 not in map(abs, t[:-1]):
            return (n - 1, _shift(t[:-1], -1))
        return None
    # M4 and M5: the extreme index ends (M4) or starts (M5) the word and
    # occurs once more, with the same kind; both occurrences flip kind
    e, end = (n - 1, -1) if tag == "M4" else (1, 0)
    if not t or abs(t[end]) != e:
        return None
    ps = [p for p, a in enumerate(t) if abs(a) == e]
    if len(ps) == 2 and (t[ps[0]] > 0) == (t[ps[1]] > 0):
        out = list(t)
        for p in ps:
            out[p] = -out[p]
        return (n, tuple(out))
    return None


def _join(
    head: tuple[int, ...], mid: tuple[int, ...], tail: tuple[int, ...]
) -> tuple[int, ...]:
    """_reduce(head + mid + tail) for free-reduced head and tail, a
    non-empty, free-reduced mid, and head[-1] != mid[0].

    head + mid is then reduced, so letters can only cancel at the seam
    after the new letters; if it does not cancel, the parts are
    concatenated.  Else the start of tail cancels against the end of mid
    and, once mid is used up, against the end of head, stopping at the
    first letter of tail that does not cancel.
    """
    if not tail or tail[0] != mid[-1]:
        return head + mid + tail
    i, m, j = len(head), len(mid), 0
    for a in tail:
        if m:
            if mid[m - 1] != a:
                break
            m -= 1
        elif i and head[i - 1] == a:
            i -= 1
        else:
            break
        j += 1
    return head[:i] + mid[:m] + tail[j:]


@cache
def _seam_factors(n: int) -> tuple[frozenset, frozenset]:
    """The 5- and 6-letter factors at which a width-3 splice on n strands
    cancels 2 and 3 letter pairs at its seam: its window, then the last two
    letters of its replacement, or all three (a whole relator rotation),
    in reverse.  Built from the windows of _SPLICES shifted to every level
    0..n-3, not from _splices_at, so that no level's table is built."""
    level0 = [win + rhs[::-1] for (win, _), rhs in _SPLICES.items() if len(win) == 3]
    sixes = frozenset(_shift(f, d) for d in range(n - 2) for f in level0)
    return frozenset(f[:5] for f in sixes), sixes


def _seams_can_cancel(n: int, t: tuple[int, ...], need: int) -> bool:
    """Whether a comm or width-3 splice on (n, t) can cancel need >= 2 letter
    pairs at its seam: t has g b g b with g, b far, or one of the
    _seam_factors.  Kept out of _moves_int: inlined there, its generator
    expression would make t a cell of the fan and its generator object
    larger than the 512 bytes Python's small-object allocator serves."""
    fives, sixes = _seam_factors(n)
    if need == 2:
        if not fives.isdisjoint(zip(t, t[1:], t[2:], t[3:], t[4:])):
            return True
    elif not sixes.isdisjoint(zip(t, t[1:], t[2:], t[3:], t[4:], t[5:])):
        return True
    if n < 4:
        return False  # no two indices are far apart
    squares = compress(range(len(t) - 3), map(eq, t, t[2:]))
    return any(t[p + 1] == t[p + 3] and _far(t[p], t[p + 1]) for p in squares)


@cache
def _far_letters(n: int) -> tuple[tuple[int, ...], ...]:
    """Entry i: the letters h on n strands whose index is at least 2 away
    from i, in comm-grow fan order (index ascending, s before r)."""
    return tuple(tuple(h for j in range(1, n) if abs(j - i) >= 2 for h in (j, -j)) for i in range(n))


def _moves_int(state: State, max_len: int, max_n: int) -> Iterator[Edge]:
    """All single moves from a free-reduced state as edges from it,
    deterministic order, caps applied; results are free-reduced (module
    docstring).  Self-loops and the duplicate results the M0 skips leave are
    filtered by the caller.
    """
    n, t = state
    L = len(t)
    if L > max_len + 2 and not _seams_can_cancel(n, t, (L - max_len + 1) // 2):
        return  # only an edge whose seam cancels that many letter pairs fits
    ix = list(map(abs, t))  # the index of each letter
    grows = L + 2 <= max_len  # every grow has L + 2 letters
    fits = L <= max_len  # else a comm or width-3 splice fits only if its seam cancels

    # M0 and M1 keep the strand count, so its cap is checked once
    if 1 <= n <= max_n:
        left = 0  # the raw letter before pos; 0 is no letter
        far = _far_letters(n)
        for pos in range(L):
            # M0 at pos in fan order: length-preserving, then growing
            # rules, less the repeats of the module docstring.  Far
            # commutation needs index distance >= 2 at pos and pos + 1, the
            # relators need distance 1, so only one of the two groups matches.
            g = t[pos]
            b = t[pos + 1] if pos + 1 < L else 0
            i = ix[pos]
            if b:
                k = ix[pos + 1]
                gap = abs(i - k)
                if gap >= 2:
                    if b != left and (fits or t[pos + 2 : pos + 3] == (g,)):
                        res = _join(t[:pos], (b, g), t[pos + 2 :])
                        if len(res) <= max_len:
                            yield state, "M0", ("comm", pos), (n, res)
                elif gap == 1:
                    # relator letters alternate two adjacent indices
                    table = _splices_at((i if i < k else k) - 1)
                    # width 3 needs c as its third letter; a grow ending in c is skipped
                    c = t[pos + 2] if pos + 2 < L else 0
                    for rest, rule, rhs in table.get((g, b), ()):
                        if rhs[0] == left:
                            continue
                        if rest:
                            if rest[0] == c and (fits or t[pos + 3 : pos + 4] == rhs[-1:]):
                                res = _join(t[:pos], rhs, t[pos + 3 :])
                                if len(res) <= max_len:
                                    yield state, "M0", (rule, pos), (n, res)
                        elif grows and rhs[-1] != c:
                            yield state, "M0", (rule, pos), (n, t[:pos] + rhs + t[pos + 2 :])
            if grows and far[i]:
                # up to 2(n - 3) grows share one prefix and suffix
                head, tail = t[:pos], t[pos + 1 :]
                for h in far[i]:
                    if h != left and h != b:
                        yield state, "M0", ("comm-grow", pos, h), (n, head + (h, g, h) + tail)
            left = g

        # M1 conjugations (g w g: cancel at the front, then at the back);
        # each one built fits: L + 2 letters if grows, else L or L - 2
        if fits:
            for j in range(1, n):
                for g in (j, -j):
                    if not grows and t and g != t[0] and g != t[-1]:
                        continue  # L + 2 letters: g is at neither end
                    res = t[1:] if t and t[0] == g else (g,) + t
                    res = res[:-1] if res and res[-1] == g else res + (g,)
                    yield state, "M1", ("conj", g), (n, res)
        elif 2 <= L <= max_len + 2 and t[0] == t[-1]:
            # over the cap only the conjugation by a letter at both ends can
            # fit; a one-letter word is its own conjugate
            yield state, "M1", ("conj", t[0]), (n, t[1:-1])

    # M2 / M3 stabilizations if a strand and a letter fit; destabilizations
    # if the extreme index ends the word and occurs nowhere else
    stab = n < max_n and L < max_len
    destab = n <= max_n + 1 and L <= max_len + 1
    last = ix[-1] if t else 0
    if stab:
        yield state, "M2", ("stab", "s"), (n + 1, t + (n,))
        yield state, "M2", ("stab", "r"), (n + 1, t + (-n,))
    if destab and last == n - 1 and ix.count(last) == 1:
        yield state, "M2", ("destab",), (n - 1, t[:-1])
    if stab:
        yield state, "M3", ("stab",), (n + 1, _shift(t, 1) + (1,))
    if destab and t and t[-1] == 1 and ix.count(1) == 1:
        yield state, "M3", ("destab",), (n - 1, _shift(t[:-1], -1))
    # M4 / M5 exchanges if the extreme index ends (M4) or starts (M5) the
    # word and occurs exactly twice, both times with the same kind, that is
    # as the same letter; both occurrences flip kind
    if n <= max_n and L <= max_len:
        if last == n - 1 and ix.count(last) == 2:
            p = ix.index(last)
            if t[p] == t[-1]:
                yield state, "M4", (), (n, t[:p] + (-t[p],) + t[p + 1 : -1] + (-t[p],))
        if L and ix[0] == 1 and ix.count(1) == 2:
            p = ix.index(1, 1)
            if t[0] == t[p]:
                yield state, "M5", (), (n, (-t[p],) + t[1:p] + (-t[p],) + t[p + 1 :])


# ---------------------------------------------------------------------------
# public move objects


@dataclass(frozen=True)
class MoveInstance:
    tag: str
    params: tuple
    source: TwinWord
    result: TwinWord

    def replay(self) -> bool:
        form = _plain(self.tag, self.params)
        if form is None:
            return False
        src, res = self.source, self.result
        return _apply_int((src.strands, src.code), self.tag, form[0]) == (res.strands, res.code)

    def describe(self) -> str:
        """The move as a certificate step line shows it; PatternMismatch
        if its tag and params have no form in the step grammar (_plain)."""
        form = _plain(self.tag, self.params)
        if form is None:
            shown = f"{_quoted(self.tag)} {_quoted(self.params)}"
            raise PatternMismatch(f"move {shown} has no certificate form")
        return " ".join([self.tag] + form[1])


@dataclass(frozen=True)
class MoveTrace:
    start: TwinWord
    steps: tuple[MoveInstance, ...]

    @property
    def end(self) -> TwinWord:
        return self.steps[-1].result if self.steps else self.start

    def replay(self) -> bool:
        cur = self.start
        for step in self.steps:
            if step.source != cur or not step.replay():
                return False
            cur = step.result
        return True


_POSITION = re.compile(r"-?[0-9]+")

# the parameters each move without a position or letter takes
_FIXED = {
    "M2": (("stab", "s"), ("stab", "r"), ("destab",)),
    "M3": (("stab",), ("destab",)),
    "M4": ((),),
    "M5": ((),),
}


def _render_params(tag: str, params: tuple) -> list[str]:
    if tag == "M0":
        return [params[0], str(params[1]), *map(_tok, params[2:])]
    if tag == "M1":
        return ["conj", _tok(params[1])]
    return [str(p) for p in params]


def _parse_params(tag: str, fields: list[str]) -> tuple:
    if tag == "M0":
        if len(fields) >= 2 and fields[0] in _M0_RULES and _POSITION.fullmatch(fields[1]):
            if len(fields) == 2 + (fields[0] in _LETTER_RULES):
                return (fields[0], int(fields[1]), *map(_letter, fields[2:]))
    elif tag == "M1":
        if len(fields) == 2 and fields[0] == "conj":
            return ("conj", _letter(fields[1]))
    elif tag not in _FIXED:
        raise CertificateError(f"unknown move tag {_quoted_line(tag)}")
    elif tuple(fields) in _FIXED[tag]:
        return tuple(fields)
    raise CertificateError(f"bad parameters {_quoted_line(fields)} for move {tag}")


def _plain(tag: str, params: tuple) -> Optional[tuple[tuple, list[str]]]:
    """The gate of params from outside (module docstring): the params that
    _parse_params reads back from their own step-line fields, and those
    fields; None if params are not a tuple, hold a bool, or do not render,
    parse and read back equal."""
    if type(params) is not tuple or bool in map(type, params):
        return None
    try:
        fields = _render_params(tag, params)
        plain = _parse_params(tag, fields)
    except (DoodleError, IndexError, TypeError, ValueError):
        return None
    return (plain, fields) if plain == params else None


# ---------------------------------------------------------------------------
# trace reversal


def _square_edges(n: int, lhs: tuple[int, ...], rhs: tuple[int, ...]) -> list[Edge]:
    """Square deletions from lhs down to its free reduction, then square
    insertions up to rhs (leftmost squares first on both sides)."""

    def deletions(t):
        # the stack is reduced, so the square it meets is the word's leftmost
        chain, stack = [], []
        for i, a in enumerate(t):
            if stack and stack[-1] == a:
                chain.append((tuple(stack) + t[i:], len(stack) - 1))
                stack.pop()
            else:
                stack.append(a)
        return chain, tuple(stack)

    down, lred = deletions(lhs)
    up, rred = deletions(rhs)
    if lred != rred:
        # every caller passes sides that share one by construction
        raise RuntimeError("internal: sides do not share a free reduction")
    edges = [((n, t), "M0", ("square-del", p), (n, t[:p] + t[p + 2 :])) for t, p in down]
    for t, p in reversed(up):
        edges.append(((n, t[:p] + t[p + 2 :]), "M0", ("square-ins", p, t[p]), (n, t)))
    return edges


def _inverse_edges(src: State, tag: str, params: tuple, dst: State) -> list[Edge]:
    """The exact inverse of the edge src -> dst, as a chain dst -> ... -> src.

    Moves that free-reduce their result (the M0 splices and M1) are undone
    by square insertions that rebuild the move's image before reduction,
    the paired move at the same position, and, if src itself was not
    reduced, square insertions that restore it.  The other moves are undone
    by their paired move alone.
    """
    n, t = src
    image = None
    if tag == "M0":
        rule, pos = params[0], params[1]
        paired = _M0_RULES[rule][1]
        inv = (paired, pos) + ((t[pos],) if paired in _LETTER_RULES else ())
        if not rule.startswith("square-"):
            image = _splice(t, rule, pos, *params[2:])
    elif tag == "M1":
        # conjugating again cancels whatever the first conjugation cancelled
        inv = params
        image = dst[1]
    elif tag in ("M2", "M3"):
        if params[0] == "stab":
            inv = ("destab",)
        elif tag == "M2":
            inv = ("stab", "s" if t[-1] > 0 else "r")
        else:
            inv = ("stab",)
    else:  # M4 and M5 are their own inverses
        inv = params
    if image is None:
        return [(dst, tag, inv, src)]
    red = _reduce(t)
    # the square chains are empty unless letters cancelled; skip their scans
    edges = _square_edges(n, dst[1], image) if image != dst[1] else []
    edges.append(((n, image), tag, inv, (n, red)))
    if red != t:
        edges += _square_edges(n, red, t)
    return edges


def _invert_edges(edges: list[Edge]) -> list[Edge]:
    """The edge list of the reversed path, one inverse chain per edge."""
    return [e for edge in reversed(edges) for e in _inverse_edges(*edge)]


def _edge_trace(start: State, edges: list[Edge], end: State) -> MoveTrace:
    """The trace of a chain of edges from start.  Every search and derived
    trace is checked here alone: RuntimeError unless each edge of the raw
    chain, loops included, starts where the last ended, its move gives its
    result, and the chain runs from start to end.  The trace goes on from
    each state after the chain's last arrival there, so no state repeats."""
    cur = start
    for a, tag, params, b in edges:
        if a != cur or _apply_int(a, tag, params) != b:
            break
        cur = b
    else:
        if cur == end:
            last = {e[3]: k for k, e in enumerate(edges, 1)}
            k = last.get(start, 0)
            first = src = _word(*start)
            steps = []
            while k < len(edges):
                _, tag, params, b = edges[k]
                res = _word(*b)
                steps.append(MoveInstance(tag, params, src, res))
                src, k = res, last[b]
            return MoveTrace(first, tuple(steps))
    raise RuntimeError(f"internal: edge chain from {start} does not replay to {end}")


# ---------------------------------------------------------------------------
# chain building


@dataclass
class _Builder:
    state: State
    edges: list = field(default_factory=list)

    @property
    def word(self) -> tuple[int, ...]:
        return self.state[1]

    @property
    def n(self) -> int:
        return self.state[0]

    def apply(self, tag: str, params: tuple) -> None:
        res = _apply_int(self.state, tag, params)
        if res is None:
            raise RuntimeError(f"internal: step {tag} {params} does not apply to {self.state}")
        self.edges.append((self.state, tag, params, res))
        self.state = res

    def m0(self, rule: str, pos: int) -> None:
        self.apply("M0", (rule, pos))

    def comm(self, pos: int) -> None:
        self.m0("comm", pos)

    def conj(self, g: int) -> None:
        self.apply("M1", ("conj", g))

    def splice(self, edges: list[Edge]) -> None:
        """Append a chain built elsewhere; _edge_trace checks that it starts here."""
        self.edges += edges
        self.state = edges[-1][3]


def _push_sweep(step, start: int, letters: tuple[int, ...], core: int, centre: bool) -> None:
    """Push the virtual pair at start inward through a nest of push levels
    around core letters, then sweep the nested virtual letters out to
    flanking runs; a one-letter centre takes one more splice and one more
    sweep level.  letters are the letters of the push levels from the
    innermost out, the centre's first if there is one.  The pair passes a
    real letter by mixs-grow and mix3 and, at the same positions, a virtual
    one by braid-grow and braid.  step(rule, pos) takes one M0 step."""
    ofs = start
    levels = len(letters) - centre
    for k, a in zip(range(levels, 0, -1), letters[::-1]):
        step("braid-grow" if a < 0 else "mixs-grow", ofs)
        zlen = 2 * (k - 1) + core
        for j in range(zlen):
            step("comm", ofs + 3 + j)
        step("braid" if a < 0 else "mix3", ofs + 3 + zlen)
        ofs += 2
    if centre:
        step("braid" if letters[0] < 0 else "mix3", ofs)
    d = levels + centre
    for j in range(1, d):
        for k in range(j):
            step("comm", start + 2 * j - 1 - k)
    nest_end = start + 4 * levels + 1 + core
    for j in range(1, d):
        for k in range(j):
            step("comm", nest_end - 2 * j + k)
