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
    """Deterministic braiding of valid Gauss data.

    Crossings are placed in id order.  An arc is found with list.index and
    carried down inline, one virtual letter a slot, by one pop and insert.
    """
    n, link, loops = g.crossings, g.link, g.free_loops
    if n == 0:
        if loops == 0:
            raise InvalidGaussData("empty diagram: nothing to braid")
        return _word(loops, ())

    # arcs are named by their exit ends (see gauss); order lists the arcs in
    # transit by 0-based radial slot, the cut arcs first, and an arc's slot is
    # its index there; free loops sit innermost and no arc passes them: only
    # an offset.  Carrying the arc in slot src down to slot dst < src writes
    # the virtual letters -(loops + src), ..., -(loops + dst + 1)
    order = [x for x in range(4 * n) if x & 2 and link[x] >> 2 <= x >> 2]
    code: list[int] = []
    for c in range(0, 4 * n, 4):  # the arcs entering slots 1 and 2 are in slots i and j
        i, j = order.index(link[c]), order.index(link[c + 1])
        if i < j:  # carry j down next to i
            if j > i + 1:
                code.extend(range(-(loops + j), -(loops + i + 1)))
                order.insert(i + 1, order.pop(j))
        else:  # carry i down to j, and the crossing sits at j
            code.extend(range(-(loops + i), -(loops + j)))
            order.insert(j, order.pop(i))
            i = j
        code.append(loops + i + 1)
        order[i], order[i + 1] = c + 2, c + 3

    # sort the surviving in-transit arcs back into the cut order; the slots
    # before target already hold their arcs, so each arc is carried down
    for target, x in enumerate(sorted(order)):  # the cut arcs again
        src = order.index(x)
        if src > target:
            code.extend(range(-(loops + src), -(loops + target)))
            order.insert(target, order.pop(src))
    return _word(loops + len(order), tuple(code))
