"""Braiding: convert Gauss data into a twin word with the same closure.

The construction realizes the annular picture combinatorially.  Crossing i
lives in sector i of an annulus, the cut sits between sector n and sector
1, and every arc travels counterclockwise from its source sector to its
destination sector, crossing the cut once iff destination id <= source id
(a loop at one crossing winds fully around) and zero times otherwise.
Minimal winding keeps the strand count small; correctness is the
round-trip contract

    isomorphic(closure_gauss(braid(G)), G) is not None,

which tests enforce, with the identity bijection arising by construction:
the k-th emitted real letter is crossing k and each in-transit radial slot
carries exactly one arc of G.

Strands of the output are the cut-crossing arcs plus one trivial strand
per free loop; the radial order at the cut is free loops innermost, then
cut-crossing arcs sorted by (source id, source slot).  The final virtual
letters restore that order so the closure joins each bottom position to
its own top position.
"""

from __future__ import annotations

from .errors import InvalidGaussData
from .gauss import GaussData, validate
from .words import TwinWord


def braid(g: GaussData) -> TwinWord:
    """Deterministic braiding of valid Gauss data."""
    validate(g)
    n = g.crossings
    if n == 0:
        if g.free_loops == 0:
            raise InvalidGaussData("empty diagram: nothing to braid")
        return TwinWord(g.free_loops, ())

    arcs = sorted(g.arcs)
    ends_at: dict[tuple[int, int], int] = {}  # (crossing, entry slot) -> arc id
    starts_at: dict[tuple[int, int], int] = {}  # (crossing, exit slot) -> arc id
    for a, (frm, to) in enumerate(arcs):
        starts_at[(frm.crossing, frm.slot)] = a
        ends_at[(to.crossing, to.slot)] = a

    # free loops sit innermost and no arc passes them, so they are only a
    # count: order holds the cut arcs, and each letter is offset past them
    loops = g.free_loops
    order = [a for a, (frm, to) in enumerate(arcs) if to.crossing <= frm.crossing]
    order.sort(key=lambda a: (arcs[a][0].crossing, arcs[a][0].slot))
    initial = tuple(order)
    m = len(order)

    code: list[int] = []

    def swap(p: int) -> None:
        """Exchange arc slots p and p+1 (1-based) with a virtual letter."""
        code.append(-(loops + p))
        order[p - 1], order[p] = order[p], order[p - 1]

    for c in range(1, n + 1):
        a = order.index(ends_at[(c, 1)]) + 1
        b = order.index(ends_at[(c, 2)]) + 1
        if a < b:
            for p in range(b - 1, a, -1):
                swap(p)
            pair = a
        else:
            for p in range(a - 1, b - 1, -1):
                swap(p)
            pair = b
        code.append(loops + pair)
        order[pair - 1] = starts_at[(c, 3)]
        order[pair] = starts_at[(c, 4)]

    # sort the surviving in-transit arcs back into the cut order
    for target in range(m):
        p = order.index(initial[target], target)
        while p > target:
            swap(p)
            p -= 1

    return TwinWord(loops + m, tuple(code))
