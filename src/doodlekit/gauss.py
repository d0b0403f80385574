"""Gauss data: the combinatorial model of virtual doodle diagrams.

Only real crossings are recorded.  Each crossing has four labeled boundary
ends; the fixed slot convention, shared by every module, is

        1   2          slots 1, 2: entries (upper-left, upper-right)
         \\ /           slots 3, 4: exits  (lower-left, lower-right)
          X            internal continuation: 1 -> 4 and 2 -> 3
         / \\
        3   4

for a crossing drawn with both strands oriented downward.  Arcs run from
an exit end to an entry end through the diagram complement; virtual
crossings are not recorded, which is exactly why this is a complete
diagram model: diagrams with the same real crossings and the same Gauss
data differ only by detour moves.

Closed components that meet no real crossing cannot be expressed as arcs,
so a ``free_loops`` count extends the arc relation; isomorphism requires
equal counts.

End (c, slot) is stored as e = 4(c - 1) + slot - 1: e % 4 is 0 or 1 at an
entry and 2 or 3 at an exit, and e ^ 3 continues e through its crossing.
A diagram is one tuple ``link``, link[e] the other end of e's arc: an
involution on the 4n ends pairing exits with entries.  The constructor
checks its arcs and keeps only ``link``, so invalid Gauss data cannot be
built; ``arcs`` and ``End`` are a view, computed on each read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from typing import NamedTuple, Optional

from .errors import MatchingViolation, NegativeCount, SlotMisuse, UnknownToken
from .words import TwinWord, _count, _cycles, _digits, _quoted_line

ENTRY_SLOTS = (1, 2)
EXIT_SLOTS = (3, 4)
CONTINUATION = {1: 4, 2: 3}  # entry slot -> exit slot inside the crossing


class End(NamedTuple):
    crossing: int
    slot: int

    def __str__(self) -> str:
        return f"{self.crossing}.{self.slot}"


Arc = tuple[End, End]


@dataclass(frozen=True, slots=True, init=False)
class GaussData:
    crossings: int
    link: tuple[int, ...]
    free_loops: int

    def __init__(self, crossings: int, arcs, free_loops: int) -> None:
        _gauss(crossings, _link(crossings, arcs, free_loops), free_loops, self)

    @property
    def sorted_arcs(self) -> list[Arc]:
        # tuple.__new__ skips the namedtuple's Python-level __new__, one call per end
        ends = list(map(tuple.__new__, repeat(End), product(range(1, self.crossings + 1), (1, 2, 3, 4))))
        return [(ends[x], ends[y]) for x, y in enumerate(self.link) if x & 2]

    @property
    def arcs(self) -> frozenset[Arc]:
        return frozenset(self.sorted_arcs)

    def __str__(self) -> str:
        return format_gauss(self)


def _gauss(crossings: int, link: tuple[int, ...], free_loops: int, g=None) -> GaussData:
    """Gauss data around a link that library code built; nothing is checked."""
    g = object.__new__(GaussData) if g is None else g
    for name, value in zip(("crossings", "link", "free_loops"), (crossings, link, free_loops)):
        object.__setattr__(g, name, value)
    return g


def make_gauss(crossings: int, arcs, free_loops: int = 0) -> GaussData:
    """Build and validate Gauss data from (from, to) pairs of (id, slot)."""
    return GaussData(crossings, frozenset((End(*a), End(*b)) for a, b in arcs), free_loops)


def _link(n: int, arcs, free_loops: int) -> tuple[int, ...]:
    """The link of n crossings and (from, to) arcs; raises a GaussDataError subclass."""
    if n < 0 or free_loops < 0:
        raise NegativeCount("crossing and free-loop counts must be >= 0")
    if len(arcs) != 2 * n:
        raise MatchingViolation(f"expected {_digits(2 * n)} arcs, found {len(arcs)}")
    link = [0] * (4 * n)
    for (fc, fs), (tc, ts) in arcs:  # the first bad end is named
        if fs not in EXIT_SLOTS:
            raise SlotMisuse(f"arc source {_digits(fc)}.{_digits(fs)} is not an exit end")
        if ts not in ENTRY_SLOTS:
            raise SlotMisuse(f"arc target {_digits(tc)}.{_digits(ts)} is not an entry end")
        for c, s in ((fc, fs), (tc, ts)):
            if not 1 <= c <= n:
                raise MatchingViolation(f"end {_digits(c)}.{_digits(s)} names no crossing")
        link[4 * fc + fs - 5], link[4 * tc + ts - 5] = 4 * tc + ts - 5, 4 * fc + fs - 5
    # with 2n arcs on valid ends, a repeated end leaves a set short of 2n
    if len({frm for frm, _ in arcs}) != 2 * n:
        raise MatchingViolation("exit ends must each occur exactly once as a source")
    if len({to for _, to in arcs}) != 2 * n:
        raise MatchingViolation("entry ends must each occur exactly once as a target")
    return tuple(link)


def validate(g: GaussData) -> None:
    """Re-check g.link: an involution on the 4n ends pairing exits with entries."""
    n, link = g.crossings, g.link
    if n < 0 or g.free_loops < 0:
        raise NegativeCount("crossing and free-loop counts must be >= 0")
    ends = list(range(4 * n))
    if set(link) != set(ends) or list(map(link.__getitem__, link)) != ends:
        raise MatchingViolation("the link must pair off the 4n ends")
    if [e & 2 for e in link] != [2, 2, 0, 0] * n:
        raise SlotMisuse("the link must pair each exit end with an entry end")


def relabel(g: GaussData, sigma: tuple[int, ...]) -> GaussData:
    """Relabel crossings by the bijection sigma (1-based), slots fixed."""
    n = g.crossings
    if sorted(sigma) != list(range(1, n + 1)):
        raise MatchingViolation(f"sigma must be a permutation of 1..{n}")
    new = [4 * sigma[e >> 2] - 4 + (e & 3) for e in range(4 * n)]  # each end's new name
    link = [0] * (4 * n)
    for e, f in zip(new, g.link):
        link[e] = new[f]
    return _gauss(n, tuple(link), g.free_loops)


# ---------------------------------------------------------------------------
# isomorphism


def _force(link1: tuple[int, ...], link2: tuple[int, ...], sigma: list[int], piece: list[int]):
    """Extend sigma over the connected piece of piece[0] as its image forces.

    Each arc is checked once, at its entry end; strands are closed, so the
    walk back along them meets the whole piece.  piece grows to the
    crossings mapped; False when the two ends of an arc land on different
    slots or arcs, or the map is not injective.
    """
    for c in piece:  # the list grows while it is walked
        i, j = 4 * c, 4 * sigma[c]
        for k in (0, 1):
            x, y = link1[i + k], link2[j + k]
            a, b = x >> 2, y >> 2
            if sigma[a] < 0:
                sigma[a] = b
                piece.append(a)
            if (x ^ y) & 3 or sigma[a] != b:
                return False
    return len(set(map(sigma.__getitem__, piece))) == len(piece)


def isomorphic(g1: GaussData, g2: GaussData) -> Optional[tuple[int, ...]]:
    """Crossing bijection carrying the arcs of g1 onto g2, or None.

    Deterministic: returns the lexicographically least witness.  Slots are
    fixed, so the image of one crossing forces the map of its connected
    piece, found by a walk over a growing list; nothing recurses.  The
    least unmapped crossing roots the next piece, and its unused images
    are tried in ascending order; the first whose piece closes is kept.
    That is exact, because pieces that map onto one another are
    interchangeable.  Free-loop counts must agree.  Equal links return the
    identity at once: the least of all bijections is then a witness.
    """
    if g1.crossings != g2.crossings or g1.free_loops != g2.free_loops:
        return None
    n = g1.crossings
    if g1.link == g2.link:  # the identity is a witness, and no bijection is less
        return tuple(range(1, n + 1))
    sigma = [-1] * n  # 0-based images
    used = [False] * n  # whole pieces of g2: a walk from an unused d never enters them
    for root in range(n):
        if sigma[root] >= 0:
            continue
        for d in (d for d in range(n) if not used[d]):
            sigma[root], piece = d, [root]
            if _force(g1.link, g2.link, sigma, piece):
                break
            for c in piece:
                sigma[c] = -1
        else:
            return None
        for c in piece:
            used[sigma[c]] = True
    return tuple(s + 1 for s in sigma)


# ---------------------------------------------------------------------------
# closure of a twin word


def closure_gauss(w: TwinWord) -> GaussData:
    """Gauss data of the annular closure of a twin word.

    The k-th real letter becomes crossing k; virtual letters only permute
    strand positions.  No free reduction is applied first: the diagram of
    s1 s1 genuinely has two crossings.
    """
    n = w.strands
    at = list(range(n))  # at[p] = the 0-based strand at 0-based position p
    entries: list[list[int]] = [[] for _ in range(n)]  # entry ends along each strand
    e = 0  # slot-1 end of the next crossing
    for a in w.code:  # a letter at index i swaps 0-based positions i - 1 and i
        if a > 0:  # real
            left, right = at[a - 1], at[a]
            entries[left].append(e)
            entries[right].append(e + 1)
            e += 4
            at[a - 1], at[a] = right, left
        else:
            at[-a - 1], at[-a] = at[-a], at[-a - 1]

    # the closure joins bottom position p to top position p, so the strand
    # at[p] runs on as strand p: a cycle of at, reversed, is one component's
    # strands in order.  Each entry x leaves at exit x ^ 3
    link, free_loops = [0] * e, 0
    for cyc in _cycles(at):
        run: list[int] = []
        for s in reversed(cyc):
            run += entries[s]
        free_loops += not run
        prev = run[-1] ^ 3 if run else 0  # the exit that leads into run[0]
        for x in run:
            link[prev], link[x] = x, prev
            prev = x ^ 3
    return _gauss(e // 4, tuple(link), free_loops)


# ---------------------------------------------------------------------------
# file format


def format_gauss(g: GaussData) -> str:
    lines = [f"crossings {g.crossings}", f"freeloops {g.free_loops}"]
    for frm, to in g.sorted_arcs:
        lines.append(f"arc {frm} {to}")
    return "\n".join(lines) + "\n"


def parse_gauss(text: str) -> GaussData:
    """Parse the line-oriented format; '#' starts a comment."""
    counts: dict[str, int] = {}
    arcs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] in counts:
            raise UnknownToken(f"repeated {fields[0]!r} line")
        try:
            if fields[0] in ("crossings", "freeloops") and len(fields) == 2:
                counts[fields[0]] = _count(fields[1])
            elif fields[0] == "arc" and len(fields) == 3:
                ends = []
                for f in fields[1:]:
                    c, s = f.split(".")
                    ends.append(End(_count(c), _count(s)))
                arcs.append((ends[0], ends[1]))
            else:
                raise ValueError
        except (ValueError, IndexError) as exc:
            raise UnknownToken(f"bad gauss line {_quoted_line(raw)}") from exc
    if "crossings" not in counts:
        raise UnknownToken("missing 'crossings <n>' line")
    unique = frozenset(arcs)
    if len(arcs) != len(unique):
        raise MatchingViolation("duplicate arc line")
    return GaussData(counts["crossings"], unique, counts.get("freeloops", 0))
