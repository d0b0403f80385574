"""Free group words, substitution endomorphisms, and the representation mu.

The representation mu_n : VT_n -> Aut(F_n) acts on generators by

    mu(s_i): x_i -> x_i x_{i+1},  x_{i+1} -> x_{i+1}^{-1}
    mu(r_i): x_i <-> x_{i+1}

with all other generators fixed.  For a word the rightmost letter's
substitution is applied first, i.e. mu(uv) = mu(u) o mu(v) where the right
operand acts first.  So appending a letter rewrites two images of the map
f computed so far, both from f's old images: s_i sets f(x_i) to the reduced
f(x_i) f(x_{i+1}) and f(x_{i+1}) to f(x_{i+1})^{-1}; r_i swaps the two.
The relation set of VT_n is closed under word reversal, so this convention
is consistent; verify_relations() checks it instance by instance.

mu folds over plain int tuples and keeps each image next to its inverse.
For s_i with images h, t and inverses hi, ti, both images are reduced, so
their product can only cancel where h meets t: the last letters of h
against the first of t.  The last k letters of h are the first k of hi
negated, so k is the length of the common prefix of hi and t.  Then image
i is h[:len(h)-k] + t[k:] with inverse ti[:len(ti)-k] + hi[k:], and image
i+1 is ti with inverse t.  Only the k cancelled letters cost a Python step;
the slicing runs in C.

Separation by mu is sound: if the images differ the words differ in
VT_n.  Each mu(letter) is an involutive automorphism, so for u = P X S and
v = P Y S, mu(u) = mu(P) o mu(X) o mu(S) equals mu(v) exactly when mu(X)
equals mu(Y).  separating_generator folds only the middles X and Y of two
words that share a prefix or suffix, such as a word and a local rewrite of
it, and folds the whole words only when the middles separate, because the
least index where the middles differ need not be the whole words' (s1 r2
s1 r1 against r1 s2 r2 r1 on 3 strands: x1 for the middles, x2 for the
words).

mu is not faithful, so a separation failure proves nothing.  On 3 strands
s2 r2 s1 r2 r1 s1 s2 s1 and r1 s1 s2 s1 s2 r2 s1 r2 have equal images and
pi is the identity on both, yet they differ in VT_3: both are pure, and
their words in the generators lambda(a, b) (s_i with strand a at position
i and strand b at i+1) reduce to different words of the pure virtual twin
group, which is free of rank 3 for n = 3 (Naik, Nanda and Singh, cited
from memory).

Free words are stored flat as tuples of signed generator indices
(+i for x_i, -i for x_i^{-1}); the display format is ``x1 x2^-1 ...``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import IndexOutOfRange, PatternMismatch, RankMismatch
from .words import TwinWord, _cut, _digits

# ---------------------------------------------------------------------------
# free words


@dataclass(frozen=True)
class FreeWord:
    rank: int
    letters: tuple[int, ...]  # signed indices, never 0, abs value <= rank

    def __post_init__(self) -> None:
        for a in self.letters:
            if a == 0 or abs(a) > self.rank:
                rank = _digits(self.rank)
                raise IndexOutOfRange(f"letter {_digits(a)} out of range for rank {rank}")

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"x{a}" if a > 0 else f"x{-a}^-1" for a in self.letters)


def _free(rank: int, letters: tuple[int, ...]) -> FreeWord:
    """A free word that library code built from checked letters; nothing is checked."""
    w = object.__new__(FreeWord)
    object.__setattr__(w, "rank", rank)
    object.__setattr__(w, "letters", letters)
    return w


def reduce_free(w: FreeWord) -> FreeWord:
    """Cancel adjacent x x^-1 pairs; the normal form is unique."""
    out: list[int] = []
    for a in w.letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return FreeWord(w.rank, tuple(out))


def inverse_free(w: FreeWord) -> FreeWord:
    return FreeWord(w.rank, tuple(-a for a in reversed(w.letters)))


def generator(rank: int, i: int) -> FreeWord:
    return FreeWord(rank, (i,))


# ---------------------------------------------------------------------------
# endomorphisms


@dataclass(frozen=True)
class FreeEndomorphism:
    """Substitution on free generators; images are kept reduced.

    Equality is syllable-wise equality of the reduced images, which is the
    right notion because reduced forms are unique.
    """

    rank: int
    images: tuple[FreeWord, ...]  # images[k-1] = image of x_k, reduced

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise RankMismatch("one image required per generator")
        for img in self.images:
            if img.rank != self.rank:
                raise RankMismatch("image rank mismatch")
            x = img.letters
            if any(map(operator.eq, x, map(operator.neg, x[1:]))):
                raise PatternMismatch(f"image {_cut(str(img))} is not reduced")

    @classmethod
    def identity(cls, rank: int) -> "FreeEndomorphism":
        return cls(rank, tuple(generator(rank, i) for i in range(1, rank + 1)))

    def image(self, i: int) -> FreeWord:
        if not 1 <= i <= self.rank:
            raise IndexOutOfRange(f"generator {_digits(i)} out of range for rank {self.rank}")
        return self.images[i - 1]

    def apply(self, w: FreeWord) -> FreeWord:
        if w.rank != self.rank:
            raise RankMismatch(f"rank {_digits(w.rank)} word under rank {_digits(self.rank)} map")
        out: list[int] = []
        for a in w.letters:
            img = self.images[abs(a) - 1]
            out.extend((img if a > 0 else inverse_free(img)).letters)
        return reduce_free(FreeWord(self.rank, tuple(out)))


def compose(f: FreeEndomorphism, g: FreeEndomorphism) -> FreeEndomorphism:
    """f o g, the map applying g first: x_k -> f(g(x_k)), reduced."""
    if f.rank != g.rank:
        raise RankMismatch(f"cannot compose ranks {_digits(f.rank)} and {_digits(g.rank)}")
    return FreeEndomorphism(f.rank, tuple(f.apply(img) for img in g.images))


def _images(rank: int, code: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The reduced images of x_1..x_rank under mu(code), as int tuples."""
    images = [(k,) for k in range(1, rank + 1)]
    inverses = [(-k,) for k in range(1, rank + 1)]
    for a in code:
        i = abs(a)
        if a > 0:
            h, t = images[i - 1], images[i]
            hi, ti = inverses[i - 1], inverses[i]
            k, m = 0, min(len(h), len(t))
            while k < m and hi[k] == t[k]:
                k += 1
            images[i - 1] = h[: len(h) - k] + t[k:]
            inverses[i - 1] = ti[: len(ti) - k] + hi[k:]
            images[i], inverses[i] = ti, t
        else:
            images[i - 1], images[i] = images[i], images[i - 1]
            inverses[i - 1], inverses[i] = inverses[i], inverses[i - 1]
    return images


def mu(w: TwinWord) -> FreeEndomorphism:
    """mu(w) at rank = strand count; rightmost letter acts first."""
    rank = w.strands
    # the images are reduced words on 1..rank by construction: skip the checks
    f = object.__new__(FreeEndomorphism)
    object.__setattr__(f, "rank", rank)
    object.__setattr__(f, "images", tuple(_free(rank, x) for x in _images(rank, w.code)))
    return f


# ---------------------------------------------------------------------------
# defining relations


@dataclass(frozen=True)
class RelationInstance:
    family: str
    lhs: TwinWord
    rhs: TwinWord
    holds: bool


def relation_instances(n: int) -> list[tuple[str, TwinWord, TwinWord]]:
    """Every instance of the seven defining relation families at rank n.

    Commutation families use unordered index pairs for the s-s and r-r
    relations and ordered pairs for the mixed r-s relation, matching how
    the relation list is written.
    """
    if n < 2:
        raise RankMismatch(f"relations need n >= 2, got {_digits(n)}")

    def w(*code: int) -> TwinWord:
        return TwinWord(n, code)

    s = lambda i: i
    r = lambda i: -i
    empty = TwinWord(n, ())

    out: list[tuple[str, TwinWord, TwinWord]] = []
    for i in range(1, n):
        out.append((f"s{i}^2=1", w(s(i), s(i)), empty))
    for i in range(1, n):
        for j in range(i + 2, n):
            out.append((f"s{i}s{j}=s{j}s{i}", w(s(i), s(j)), w(s(j), s(i))))
    for i in range(1, n):
        out.append((f"r{i}^2=1", w(r(i), r(i)), empty))
    for i in range(1, n):
        for j in range(i + 2, n):
            out.append((f"r{i}r{j}=r{j}r{i}", w(r(i), r(j)), w(r(j), r(i))))
    for i in range(1, n - 1):
        out.append(
            (
                f"r{i}r{i+1}r{i}=r{i+1}r{i}r{i+1}",
                w(r(i), r(i + 1), r(i)),
                w(r(i + 1), r(i), r(i + 1)),
            )
        )
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) >= 2:
                out.append((f"r{i}s{j}=s{j}r{i}", w(r(i), s(j)), w(s(j), r(i))))
    for i in range(1, n - 1):
        out.append(
            (
                f"r{i}r{i+1}s{i}=s{i+1}r{i}r{i+1}",
                w(r(i), r(i + 1), s(i)),
                w(s(i + 1), r(i), r(i + 1)),
            )
        )
    return out


def relation_count(n: int) -> int:
    """Closed-form instance count, kept independent of the enumeration."""
    if n < 2:
        raise RankMismatch(f"relations need n >= 2, got {_digits(n)}")
    gap_unordered = (n - 2) * (n - 3) // 2
    return 2 * (n - 1) + 2 * gap_unordered + 2 * (n - 2) + 2 * gap_unordered


def verify_relations(n: int) -> list[RelationInstance]:
    """Evaluate both sides of every relation instance under mu."""
    report = []
    for family, lhs, rhs in relation_instances(n):
        report.append(RelationInstance(family, lhs, rhs, mu(lhs) == mu(rhs)))
    return report


# ---------------------------------------------------------------------------
# sound separation


def separating_generator(u: TwinWord, v: TwinWord) -> int | None:
    """Least generator index where mu(u) and mu(v) disagree, if any.

    A witness proves u != v in VT_n; None proves nothing on its own.
    """
    if u.strands != v.strands:
        raise RankMismatch(f"strand counts differ: {_digits(u.strands)} vs {_digits(v.strands)}")
    rank, a, b = u.strands, u.code, v.code
    # u = P X S and v = P Y S with the longest P, then the longest S
    m = min(len(a), len(b))
    p = 0
    while p < m and a[p] == b[p]:
        p += 1
    s = 0
    while s < m - p and a[-1 - s] == b[-1 - s]:
        s += 1
    if (p or s) and _images(rank, a[p : len(a) - s]) == _images(rank, b[p : len(b) - s]):
        return None
    # the least index where the middles differ need not be the words'
    for i, (x, y) in enumerate(zip(_images(rank, a), _images(rank, b)), 1):
        if x != y:
            return i
    return None


def separates(u: TwinWord, v: TwinWord) -> bool:
    return separating_generator(u, v) is not None
