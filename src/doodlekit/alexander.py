"""Braiding: convert Gauss data into a twin word with the same closure.

The construction realizes the annular picture combinatorially.  Crossing i
lives in sector i of an annulus, the cut sits between sector n and sector
1, and every arc travels counterclockwise from its source sector to its
destination sector, crossing the cut once iff destination id <= source id
(a loop at one crossing winds fully around) and zero times otherwise.
Minimal winding keeps the strand count small; correctness is the
round-trip contract

    closure_gauss(braid(G)) == G,

which tests enforce: the Gauss data are equal, not only isomorphic, because
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
from .gauss import GaussData
from .words import TwinWord, _word


def braid(g: GaussData) -> TwinWord:
    """Deterministic braiding of valid Gauss data."""
    n, link, loops = g.crossings, g.link, g.free_loops
    if n == 0:
        if loops == 0:
            raise InvalidGaussData("empty diagram: nothing to braid")
        return _word(loops, ())

    # arcs are named by their exit ends (see gauss); order lists the arcs in
    # transit by 0-based radial slot, the cut arcs first, and an arc's slot is
    # its index there; free loops sit innermost and no arc passes them: only
    # an offset
    order = [x for x in range(4 * n) if x & 2 and link[x] >> 2 <= x >> 2]
    code: list[int] = []

    def move(src: int, dst: int) -> None:
        """Carry the arc in slot src down to slot dst, one virtual letter a slot."""
        if src > dst:
            code.extend(range(-(loops + src), -(loops + dst)))
            order.insert(dst, order.pop(src))

    for c in range(0, 4 * n, 4):  # the arcs entering slots 1 and 2 are in slots i and j
        i, j = order.index(link[c]), order.index(link[c + 1])
        if i < j:
            move(j, i + 1)
        else:
            move(i, j)
            i = j
        code.append(loops + i + 1)
        order[i], order[i + 1] = c + 2, c + 3

    # sort the surviving in-transit arcs back into the cut order
    for target, x in enumerate(sorted(order)):  # the cut arcs again
        move(order.index(x), target)
    return _word(loops + len(order), tuple(code))
