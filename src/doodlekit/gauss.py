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
from .words import REAL, TwinWord, _count, pi

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
    for frm, to in g.arcs:
        if frm.slot not in EXIT_SLOTS:
            raise SlotMisuse(f"arc source {frm} is not an exit end")
        if to.slot not in ENTRY_SLOTS:
            raise SlotMisuse(f"arc target {to} is not an entry end")
        for end in (frm, to):
            if not 1 <= end.crossing <= g.crossings:
                raise MatchingViolation(f"end {end} names no crossing")
    sources = [frm for frm, _ in g.arcs]
    targets = [to for _, to in g.arcs]
    want_sources = {End(c, s) for c in range(1, g.crossings + 1) for s in EXIT_SLOTS}
    want_targets = {End(c, s) for c in range(1, g.crossings + 1) for s in ENTRY_SLOTS}
    if len(sources) != len(set(sources)) or set(sources) != want_sources:
        raise MatchingViolation("exit ends must each occur exactly once as a source")
    if len(targets) != len(set(targets)) or set(targets) != want_targets:
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


def _profile(g: GaussData, c: int):
    """Relabeling-invariant fingerprint of one crossing.

    For each of the four ends: its own slot, the partner slot along its
    arc, and whether the arc returns to the same crossing.
    """
    prof = []
    for frm, to in g.arcs:
        if frm.crossing == c:
            prof.append((frm.slot, to.slot, to.crossing == c))
        if to.crossing == c:
            prof.append((100 + to.slot, frm.slot, frm.crossing == c))
    return tuple(sorted(prof))


def isomorphic(g1: GaussData, g2: GaussData) -> Optional[tuple[int, ...]]:
    """Crossing bijection carrying the arcs of g1 onto g2, or None.

    Deterministic: returns the lexicographically least witness, found by
    backtracking with degree-profile pruning.  Free-loop counts must agree.
    """
    validate(g1)
    validate(g2)
    if g1.crossings != g2.crossings or g1.free_loops != g2.free_loops:
        return None
    n = g1.crossings
    if n == 0:
        return ()

    prof1 = {c: _profile(g1, c) for c in range(1, n + 1)}
    prof2 = {c: _profile(g2, c) for c in range(1, n + 1)}
    candidates = {
        c: [d for d in range(1, n + 1) if prof2[d] == prof1[c]]
        for c in range(1, n + 1)
    }
    arcs2 = g2.arcs
    by_source = {frm: to for frm, to in g1.arcs}

    sigma: dict[int, int] = {}
    used = [False] * (n + 1)

    def consistent(c: int) -> bool:
        # check every arc with both endpoints assigned that involves c
        for frm, to in g1.arcs:
            if frm.crossing in sigma and to.crossing in sigma and (
                frm.crossing == c or to.crossing == c
            ):
                mapped = (
                    End(sigma[frm.crossing], frm.slot),
                    End(sigma[to.crossing], to.slot),
                )
                if mapped not in arcs2:
                    return False
        return True

    def backtrack(c: int) -> bool:
        if c > n:
            return True
        for d in candidates[c]:
            if used[d]:
                continue
            sigma[c] = d
            used[d] = True
            if consistent(c) and backtrack(c + 1):
                return True
            del sigma[c]
            used[d] = False
        return False

    if backtrack(1):
        return tuple(sigma[c] for c in range(1, n + 1))
    return None


# ---------------------------------------------------------------------------
# closure of a twin word


def closure_gauss(w: TwinWord) -> GaussData:
    """Gauss data of the annular closure of a twin word.

    The k-th real letter becomes crossing k; virtual letters only permute
    strand positions.  No free reduction is applied first: the diagram of
    s1 s1 genuinely has two crossings.
    """
    n = w.strands
    pos = list(range(n))  # pos[k] = current 0-based position of strand k
    events: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    crossing = 0
    for let in w.letters:
        i = let.index - 1  # 0-based position of the left strand
        left = pos.index(i)
        right = pos.index(i + 1)
        if let.kind == REAL:
            crossing += 1
            events[left].append((crossing, 1, CONTINUATION[1]))
            events[right].append((crossing, 2, CONTINUATION[2]))
        pos[left], pos[right] = pos[right], pos[left]

    perm = pi(w)
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
    crossings = None
    free_loops = 0
    arcs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "crossings" and len(fields) == 2:
                crossings = _count(fields[1])
            elif fields[0] == "freeloops" and len(fields) == 2:
                free_loops = _count(fields[1])
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
    if crossings is None:
        raise UnknownToken("missing 'crossings <n>' line")
    g = GaussData(crossings, frozenset(arcs), free_loops)
    if len(arcs) != len(g.arcs):
        raise MatchingViolation("duplicate arc line")
    validate(g)
    return g
