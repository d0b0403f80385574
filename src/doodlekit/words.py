"""Words in the virtual twin group VT_n and their elementary invariants.

Conventions used throughout the package:

- A word is a sequence of letters ``s_i`` (real crossing) or ``r_i``
  (virtual crossing) with 1-based index ``1 <= i <= n-1``, read left to
  right, which on a diagram means top to bottom.  Every letter is an
  involution.
- Words carry their strand count ``n`` explicitly.  There is no implicit
  embedding of VT_n into VT_{n+1}; changing ``n`` is done by
  :func:`shift_left` or by stabilization moves in :mod:`doodlekit.markov`.
- ``n = 1`` is admitted and denotes the trivial group (empty words only),
  so destabilization out of VT_2 has a target.
- Permutations compose left to right: ``pi(uv) = pi(u) then pi(v)``, and
  ``pi(w)[k]`` is the bottom endpoint of the strand entering at top
  position ``k``.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import IndexOutOfRange, InvalidStrandCount, UnknownToken

REAL = "s"
VIRTUAL = "r"


class Letter(NamedTuple):
    kind: str  # REAL or VIRTUAL
    index: int  # 1-based, valid range 1..strands-1

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


_TOKEN = re.compile(r"([sr])([0-9]+)$")


def _count(text: str) -> int:
    """A count written in ASCII digits; int() alone would also take a sign,
    underscores and the digits of other scripts."""
    if not text.isascii() or not text.isdigit():
        raise ValueError(f"not a count: {text!r}")
    return int(text)


@dataclass(frozen=True)
class TwinWord:
    """A word in VT_n, stored with its ambient strand count."""

    strands: int
    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise InvalidStrandCount(f"strand count must be >= 1, got {self.strands}")
        for let in self.letters:
            if not 1 <= let.index <= self.strands - 1:
                raise IndexOutOfRange(
                    f"letter {let} invalid on {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __str__(self) -> str:
        return format_word(self)


def parse_word(text: str, strands: int) -> TwinWord:
    """Parse whitespace-separated tokens ``s<i>`` / ``r<i>`` into a word."""
    if strands < 1:
        raise InvalidStrandCount(f"strand count must be >= 1, got {strands}")
    letters = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if m is None:
            raise UnknownToken(f"bad token {tok!r}")
        kind, idx = m.group(1), int(m.group(2))
        if not 1 <= idx <= strands - 1:
            raise IndexOutOfRange(f"index {idx} out of range for n={strands}")
        letters.append(Letter(kind, idx))
    return TwinWord(strands, tuple(letters))


def format_word(w: TwinWord) -> str:
    """Canonical token string: lowercase, single spaces, empty for identity."""
    return " ".join(str(let) for let in w.letters)


def parse_word_file(text: str) -> TwinWord:
    """Read the two-line word file format: ``n=<int>`` then the token line."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].strip().startswith("n="):
        raise UnknownToken("word file must start with an n=<int> header line")
    try:
        strands = _count(lines[0].strip()[2:])
    except ValueError as exc:
        raise UnknownToken(f"bad strand header {lines[0]!r}") from exc
    if len(lines) > 2:
        raise UnknownToken(f"word file has a second token line {lines[2]!r}")
    body = lines[1] if len(lines) > 1 else ""
    return parse_word(body, strands)


def format_word_file(w: TwinWord) -> str:
    return f"n={w.strands}\n{format_word(w)}\n"


def concat(u: TwinWord, v: TwinWord) -> TwinWord:
    """Concatenation u·v; both operands must share the strand count."""
    if u.strands != v.strands:
        raise InvalidStrandCount(
            f"cannot concatenate words on {u.strands} and {v.strands} strands"
        )
    return TwinWord(u.strands, u.letters + v.letters)


def _reduce(letters: tuple) -> tuple:
    """Delete adjacent equal items until none remain, in one pass.

    Works on any letter encoding: Letter tuples here, signed ints in
    :mod:`doodlekit.markov`.
    """
    out: list = []
    for a in letters:
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
    return TwinWord(w.strands, _reduce(w.letters))


def inverse(w: TwinWord) -> TwinWord:
    """Reversal of the word; inverse because every letter is an involution."""
    return TwinWord(w.strands, tuple(reversed(w.letters)))


def shift_left(m: int, w: TwinWord) -> TwinWord:
    """Put m trivial strands on the left: every index grows by m."""
    if m < 0:
        raise InvalidStrandCount(f"shift amount must be >= 0, got {m}")
    return TwinWord(
        w.strands + m, tuple(Letter(let.kind, let.index + m) for let in w.letters)
    )


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..n}; images[k-1] is the image of k."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Left-to-right composition: apply self first, then other."""
        if self.n != other.n:
            raise ValueError("size mismatch")
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
            k = self(start)
            while k != start:
                cyc.append(k)
                seen[k - 1] = True
                k = self(k)
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """Cycle notation with fixed points omitted; identity prints ``()``."""
        parts = [c for c in self.cycles() if len(c) > 1]
        if not parts:
            return "()"
        return "".join("(" + " ".join(str(k) for k in c) + ")" for c in parts)


def pi(w: TwinWord) -> Permutation:
    """Image of w under the natural surjection VT_n -> S_n.

    Both letter kinds at index i act as the adjacent transposition
    (i, i+1); letters act leftmost first.
    """
    images = list(range(1, w.strands + 1))
    for let in w.letters:
        i = let.index
        for k in range(w.strands):
            if images[k] == i:
                images[k] = i + 1
            elif images[k] == i + 1:
                images[k] = i
    return Permutation(tuple(images))


def closure_components(w: TwinWord) -> int:
    """Number of components of the closure doodle: cycles of pi(w)."""
    return len(pi(w).cycles())


def random_word(rng, strands: int, length: int) -> TwinWord:
    """Uniform random word of exactly the given length (length 0 if n = 1)."""
    if strands < 2:
        return TwinWord(max(strands, 1), ())
    letters = tuple(
        Letter(rng.choice((REAL, VIRTUAL)), rng.randint(1, strands - 1))
        for _ in range(length)
    )
    return TwinWord(strands, letters)
