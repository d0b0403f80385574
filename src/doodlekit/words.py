"""Words in the virtual twin group VT_n and their elementary invariants.

Conventions used throughout the package:

- A word is a sequence of letters ``s_i`` (real crossing) or ``r_i``
  (virtual crossing) with 1-based index ``1 <= i <= n-1``, read left to
  right, which on a diagram means top to bottom.  Every letter is an
  involution.
- A letter is stored as a signed int: ``+i`` for ``s_i`` and ``-i`` for
  ``r_i``.  ``TwinWord.code`` holds these exact ints and every algorithm
  computes on them; :class:`Letter` is the same int with a kind, an index
  and the token ``s<i>`` / ``r<i>`` as its string.
- Words carry their strand count ``n`` explicitly.  There is no implicit
  embedding of VT_n into VT_{n+1}; changing ``n`` is done by
  :func:`shift_left` or by stabilization moves in :mod:`doodlekit.markov`.
- ``n = 1`` is admitted and denotes the trivial group (empty words only),
  so destabilization out of VT_2 has a target.
- Tokens and ints convert through two bounded caches that are each
  other's inverse: ``_letter`` maps a token to its int, for ``parse_word``
  and the certificate grammar, and ``_tok`` maps an int to its token, for
  ``format_word``, certificates and messages.  A bad token is never cached,
  so it raises on every call.
- An error message quotes an outside value by ``_quoted``: a token, word,
  index or count whole up to ``_SHOWN`` characters or digits, else its
  first ``_SHOWN`` and its length (``_cut``, ``_digits``), and a tuple or
  list item by item, ``_DEPTH`` levels deep, cut at ``_LINE`` characters,
  so a message never formats an int too long for ``str``.  An input line
  or its fields are cut at ``_LINE`` too (``_quoted_line``).
- Permutations compose left to right: ``pi(uv) = pi(u) then pi(v)``, and
  ``pi(w)[k]`` is the bottom endpoint of the strand entering at top
  position ``k``.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import IndexOutOfRange, InvalidStrandCount, PatternMismatch, RankMismatch, UnknownToken

REAL = "s"
VIRTUAL = "r"


_SHOWN = 20  # the most characters or digits a message quotes of a token, index or count
_LINE = 80  # the most characters a message quotes of an input line, its fields or a container
_DEPTH = 8  # the most levels of nested tuples and lists a message quotes


def _cut(text: str, unit: str = "characters", shown: int = _SHOWN) -> str:
    """text as a message quotes it: whole up to shown characters, else its
    first shown and its length in units."""
    if len(text) <= shown:
        return text
    return f"{text[:shown]}... ({len(text)} {unit})"


def _digits(a: int) -> str:
    """An int as a message prints it: whole up to _SHOWN digits, else its
    sign, its first _SHOWN digits and its digit count.  These come from
    arithmetic, as str() refuses ints of more than 4,300 digits.  Any other
    value prints as str() prints it."""
    if not isinstance(a, int) or -(10**_SHOWN) < a < 10**_SHOWN:
        return f"{a}"
    m = abs(a)
    d = max(int(m.bit_length() * 0.30102999566398120) - 1, _SHOWN)  # below the count
    while 10**d <= m:
        d += 1
    return f"{'-' if a < 0 else ''}{m // 10 ** (d - _SHOWN)}... ({d} digits)"


def _quoted(x: object, depth: int = _DEPTH) -> str:
    """x as a message quotes an outside value: an int by _digits, a str by the
    repr of its _cut, a tuple or list item by item to depth levels (deeper as
    ...) cut at _LINE with its item count, else the _cut of its repr at _LINE."""
    if type(x) is int:
        return _digits(x)
    if type(x) is str:
        return repr(_cut(x))
    if type(x) not in (tuple, list):
        return _cut(repr(x), shown=_LINE)
    text, end = ("[", "]") if type(x) is list else ("(", ",)" if len(x) == 1 else ")")
    for k, item in enumerate(x):  # stops past _LINE: a wide or cyclic value is read no further
        text += (", " if k else "") + (_quoted(item, depth - 1) if depth > 1 else "...")
        if len(text) > _LINE:
            return f"{text[:_LINE]}... ({len(x)} items)"
    return text + end


def _quoted_line(x: object) -> str:
    """An input line, field or list of fields as a message quotes it: a str
    by the repr of its _cut, anything else by the _cut of its repr, at _LINE."""
    return repr(_cut(x, shown=_LINE)) if type(x) is str else _cut(repr(x), shown=_LINE)


@functools.lru_cache(maxsize=1024)  # every letter up to 512 strands
def _tok(a: int) -> str:
    """The token of a letter, the inverse of ``_letter``; ``:d`` keeps a
    Letter from printing its kind twice."""
    return f"s{a:d}" if a > 0 else f"r{-a:d}"


class Letter(int):
    """One generator as its signed int, with its kind, index and token."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "Letter":
        if kind not in (REAL, VIRTUAL):
            raise UnknownToken(f"bad letter kind {_quoted(kind)}")
        index = operator.index(index)
        if index < 1:
            raise IndexOutOfRange(f"letter index must be >= 1, got {_digits(index)}")
        return super().__new__(cls, index if kind == REAL else -index)

    def __getnewargs__(self) -> tuple[str, int]:
        return self.kind, self.index

    @property
    def kind(self) -> str:
        return REAL if self > 0 else VIRTUAL

    @property
    def index(self) -> int:
        return abs(self)

    def __str__(self) -> str:
        return _tok(self)

    def __repr__(self) -> str:
        return f"Letter(kind={self.kind!r}, index={self.index})"


@functools.lru_cache(maxsize=1024)
def _view(a: int) -> Letter:
    """The Letter of an int; letters are immutable, so one bounded cache serves all."""
    return Letter(REAL if a > 0 else VIRTUAL, abs(a))


_TOKEN = re.compile(r"([sr])([0-9]+)$")


@functools.lru_cache(maxsize=1024)  # every token up to 512 strands
def _letter(tok: str) -> int:
    """The int of one token ``s<i>`` or ``r<i>``."""
    m = _TOKEN.match(tok)
    if m is None:
        raise UnknownToken(f"bad token {_quoted(tok)}")
    try:
        i = int(m.group(2))
    except ValueError:  # more digits than int() converts
        raise UnknownToken(f"bad token {_quoted(tok)}: index too long") from None
    if i < 1:
        raise IndexOutOfRange(f"letter {tok[0]}{_cut(m.group(2), 'digits')} has index below 1")
    return i if m.group(1) == REAL else -i


def _count(text: str) -> int:
    """A count written in ASCII digits; int() alone would also take a sign,
    underscores and the digits of other scripts."""
    if not text.isascii() or not text.isdigit():
        raise ValueError(f"not a count: {_quoted(text)}")
    return int(text)


@dataclass(frozen=True)
class TwinWord:
    """A word in VT_n: its strand count and its letters as exact ints."""

    strands: int
    code: tuple[int, ...]

    def __post_init__(self) -> None:
        _check(self.strands, ())  # the strand count, before the letters are read
        code = tuple(map(operator.index, self.code))  # Letters become exact ints
        _check(self.strands, code)
        object.__setattr__(self, "code", code)

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(map(_view, self.code))

    def __len__(self) -> int:
        return len(self.code)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __str__(self) -> str:
        return format_word(self)


def _check(n: int, code: tuple[int, ...]) -> None:
    """Raise unless n is a strand count and every int a letter on n strands;
    the message names the first bad letter."""
    if n < 1:
        raise InvalidStrandCount(f"strand count must be >= 1, got {_digits(n)}")
    for a in code:
        if not 0 < abs(a) < n:
            tok = (REAL if a > 0 else VIRTUAL) + _digits(abs(a))  # _tok(a), cut
            raise IndexOutOfRange(f"letter {tok} invalid on {_digits(n)} strands")


def _word(n: int, code: tuple[int, ...]) -> TwinWord:
    """A word that library code built from checked letters; nothing is checked."""
    w = object.__new__(TwinWord)
    object.__setattr__(w, "strands", n)
    object.__setattr__(w, "code", code)
    return w


def parse_word(text: str, strands: int) -> TwinWord:
    """Parse whitespace-separated tokens ``s<i>`` / ``r<i>`` into a word."""
    code = tuple(map(_letter, text.split()))  # exact ints, checked once below
    _check(strands, code)
    return _word(strands, code)


def format_word(w: TwinWord) -> str:
    """Canonical token string: lowercase, single spaces, empty for identity."""
    return " ".join(map(_tok, w.code))


def parse_word_file(text: str) -> TwinWord:
    """Read the two-line word file format: ``n=<int>`` then the token line."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].strip().startswith("n="):
        raise UnknownToken("word file must start with an n=<int> header line")
    try:
        strands = _count(lines[0].strip()[2:])
    except ValueError as exc:
        raise UnknownToken(f"bad strand header {_quoted(lines[0])}") from exc
    if len(lines) > 2:
        raise UnknownToken(f"word file has a second token line {_quoted_line(lines[2])}")
    body = lines[1] if len(lines) > 1 else ""
    return parse_word(body, strands)


def format_word_file(w: TwinWord) -> str:
    return f"n={w.strands}\n{format_word(w)}\n"


def concat(u: TwinWord, v: TwinWord) -> TwinWord:
    """Concatenation u·v; both operands must share the strand count."""
    if u.strands != v.strands:
        raise InvalidStrandCount(
            f"cannot concatenate words on {_digits(u.strands)} and {_digits(v.strands)} strands"
        )
    return TwinWord(u.strands, u.code + v.code)


def _reduce(code: tuple[int, ...]) -> tuple[int, ...]:
    """Delete adjacent equal letters until none remain, in one pass."""
    out: list[int] = []
    for a in code:
        if out and out[-1] == a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def free_reduce(w: TwinWord) -> TwinWord:
    """Delete adjacent equal letters (g g = 1) until none remain.

    This single rule is confluent, so the result is a unique normal form.
    No commutation or braid rewriting is applied here; those are Markov
    M0 moves.
    """
    return TwinWord(w.strands, _reduce(w.code))


def inverse(w: TwinWord) -> TwinWord:
    """Reversal of the word; inverse because every letter is an involution."""
    return TwinWord(w.strands, w.code[::-1])


def shift_left(m: int, w: TwinWord) -> TwinWord:
    """Put m trivial strands on the left: every index grows by m."""
    if m < 0:
        raise InvalidStrandCount(f"shift amount must be >= 0, got {_digits(m)}")
    return TwinWord(w.strands + m, _shift(w.code, m))


def _shift(code: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Every index moved by d, kinds kept; no index may fall below 1."""
    if not d:
        return code
    return tuple([a + d if a > 0 else a - d for a in code])


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..n}; images[k-1] is the image of k."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise PatternMismatch(f"not a bijection of 1..{n}: {_quoted(self.images)}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise IndexOutOfRange(f"point {_digits(k)} outside 1..{self.n}")
        return self.images[k - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Left-to-right composition: apply self first, then other."""
        if self.n != other.n:
            raise RankMismatch("size mismatch")
        return Permutation(tuple(other.images[i - 1] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, img in enumerate(self.images, start=1):
            inv[img - 1] = k
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(img == k for k, img in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles plus fixed points, each starting at its minimum."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            k = self.images[start - 1]
            while k != start:
                cyc.append(k)
                seen[k - 1] = True
                k = self.images[k - 1]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """Cycle notation with fixed points omitted; identity prints ``()``."""
        parts = [c for c in self.cycles() if len(c) > 1]
        if not parts:
            return "()"
        return "".join("(" + " ".join(str(k) for k in c) + ")" for c in parts)


def _perm(images: tuple[int, ...]) -> Permutation:
    """A permutation that library code built as a bijection; nothing is checked."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def _at(n: int, code: tuple[int, ...]) -> list[int]:
    """at[p] = the 0-based top position of the strand at 0-based bottom position p."""
    at = list(range(n))
    for i in map(abs, code):
        at[i - 1], at[i] = at[i], at[i - 1]
    return at


def pi(w: TwinWord) -> Permutation:
    """Image of w under the natural surjection VT_n -> S_n.

    Both letter kinds at index i act as the adjacent transposition
    (i, i+1); letters act leftmost first.
    """
    images = [0] * w.strands
    for p, k in enumerate(_at(w.strands, w.code), 1):
        images[k] = p
    return _perm(tuple(images))


def closure_components(w: TwinWord) -> int:
    """Number of components of the closure doodle: cycles of pi(w)."""
    at, count = _at(w.strands, w.code), 0
    for k in range(w.strands):
        count += at[k] >= 0
        while at[k] >= 0:  # walked positions get -1
            at[k], k = -1, at[k]
    return count


def random_word(rng, strands: int, length: int) -> TwinWord:
    """Uniform random word of exactly the given length (length 0 if n = 1)."""
    if strands < 2:
        return TwinWord(strands, ())
    letters = [
        Letter(rng.choice((REAL, VIRTUAL)), rng.randint(1, strands - 1))
        for _ in range(length)
    ]
    return TwinWord(strands, letters)
