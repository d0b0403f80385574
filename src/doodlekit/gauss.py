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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import MatchingViolation, NegativeCount, SlotMisuse, UnknownToken
from .words import Permutation, TwinWord, _count

ENTRY_SLOTS = (1, 2)
EXIT_SLOTS = (3, 4)
CONTINUATION = {1: 4, 2: 3}  # entry slot -> exit slot inside the crossing


class End(NamedTuple):
    crossing: int
    slot: int

    def __str__(self) -> str:
        return f"{self.crossing}.{self.slot}"


Arc = tuple[End, End]


@dataclass(frozen=True)
class GaussData:
    crossings: int
    arcs: frozenset[Arc]
    free_loops: int

    @property
    def sorted_arcs(self) -> list[Arc]:
        return sorted(self.arcs)

    def __str__(self) -> str:
        return format_gauss(self)


def make_gauss(crossings: int, arcs, free_loops: int = 0) -> GaussData:
    """Build and validate Gauss data from (from, to) pairs of (id, slot)."""
    g = GaussData(
        crossings,
        frozenset((End(*a), End(*b)) for a, b in arcs),
        free_loops,
    )
    validate(g)
    return g


def validate(g: GaussData) -> None:
    """Check the structural invariants; raises a GaussDataError subclass."""
    if g.crossings < 0 or g.free_loops < 0:
        raise NegativeCount("crossing and free-loop counts must be >= 0")
    if len(g.arcs) != 2 * g.crossings:
        raise MatchingViolation(f"expected {2 * g.crossings} arcs, found {len(g.arcs)}")
    n = g.crossings
    sources = {frm for frm, _ in g.arcs}
    targets = {to for _, to in g.arcs}
    want_sources = {(c, s) for c in range(1, n + 1) for s in EXIT_SLOTS}
    want_targets = {(c, s) for c in range(1, n + 1) for s in ENTRY_SLOTS}
    if sources == want_sources and targets == want_targets:
        return  # 2n arcs onto all 2n exit and 2n entry ends: each occurs once
    for frm, to in g.arcs:  # only to name the first bad end
        if frm.slot not in EXIT_SLOTS:
            raise SlotMisuse(f"arc source {frm} is not an exit end")
        if to.slot not in ENTRY_SLOTS:
            raise SlotMisuse(f"arc target {to} is not an entry end")
        for end in (frm, to):
            if not 1 <= end.crossing <= n:
                raise MatchingViolation(f"end {end} names no crossing")
    # with 2n arcs, a repeated end leaves a set short of the 2n wanted
    if sources != want_sources:
        raise MatchingViolation("exit ends must each occur exactly once as a source")
    raise MatchingViolation("entry ends must each occur exactly once as a target")


def relabel(g: GaussData, sigma: tuple[int, ...]) -> GaussData:
    """Relabel crossings by the bijection sigma (1-based), slots fixed."""
    arcs = frozenset(
        (End(sigma[f.crossing - 1], f.slot), End(sigma[t.crossing - 1], t.slot))
        for f, t in g.arcs
    )
    return GaussData(g.crossings, arcs, g.free_loops)


# ---------------------------------------------------------------------------
# isomorphism


def _partners(g: GaussData) -> dict[End, End]:
    """Each end mapped to the other end of its arc."""
    return dict(g.arcs) | {to: frm for frm, to in g.arcs}


def _force(link1: dict[End, End], link2: dict[End, End], root: int, d: int):
    """The map of root's connected piece forced by root -> d, or None."""
    # End is a plain tuple subclass, so (crossing, slot) hashes and compares
    # equal to the End key and finds it without building an End per lookup
    piece = {root: d}
    stack = [root]
    while stack:
        c = stack.pop()
        e = piece[c]
        for slot in (1, 2, 3, 4):
            a, s1 = link1[c, slot]
            b, s2 = link2[e, slot]
            if a not in piece:
                piece[a] = b
                stack.append(a)
            if s1 != s2 or piece[a] != b:
                return None
    return piece if len(set(piece.values())) == len(piece) else None


def isomorphic(g1: GaussData, g2: GaussData) -> Optional[tuple[int, ...]]:
    """Crossing bijection carrying the arcs of g1 onto g2, or None.

    Deterministic: returns the lexicographically least witness.  Slots are
    fixed, so the image of one crossing forces the map of its connected
    piece, found by a walk with an explicit stack; nothing recurses.  The
    least unmapped crossing roots the next piece, and its unused images
    are tried in ascending order; the first whose piece closes is kept.
    That is exact, because pieces that map onto one another are
    interchangeable.  Free-loop counts must agree.
    """
    validate(g1)
    validate(g2)
    if g1.crossings != g2.crossings or g1.free_loops != g2.free_loops:
        return None
    n = g1.crossings
    link1, link2 = _partners(g1), _partners(g2)
    sigma = [0] * (n + 1)
    used: set[int] = set()  # whole pieces of g2: a walk from an unused d never enters them
    for root in range(1, n + 1):
        if sigma[root]:
            continue
        for d in range(1, n + 1):
            if d not in used and (piece := _force(link1, link2, root, d)):
                break
        else:
            return None
        for c, e in piece.items():
            sigma[c] = e
        used.update(piece.values())
    return tuple(sigma[1:])


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
    events: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    crossing = 0
    for a in w.code:
        i = abs(a) - 1  # 0-based position of the left strand
        left, right = at[i], at[i + 1]
        if a > 0:  # real
            crossing += 1
            events[left].append((crossing, 1, CONTINUATION[1]))
            events[right].append((crossing, 2, CONTINUATION[2]))
        at[i], at[i + 1] = right, left

    perm = Permutation(tuple(s + 1 for s in at)).inverse()  # pi(w)
    arcs: set[Arc] = set()
    free_loops = 0
    for cyc in perm.cycles():
        run: list[tuple[int, int, int]] = []
        for strand in cyc:
            run.extend(events[strand - 1])
        if not run:
            free_loops += 1
            continue
        for k, (c, _entry, exit_slot) in enumerate(run):
            nc, nentry, _ = run[(k + 1) % len(run)]
            arcs.add((End(c, exit_slot), End(nc, nentry)))
    return GaussData(crossing, frozenset(arcs), free_loops)


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
            raise UnknownToken(f"bad gauss line {raw!r}") from exc
    if "crossings" not in counts:
        raise UnknownToken("missing 'crossings <n>' line")
    g = GaussData(counts["crossings"], frozenset(arcs), counts.get("freeloops", 0))
    if len(arcs) != len(g.arcs):
        raise MatchingViolation("duplicate arc line")
    validate(g)
    return g
