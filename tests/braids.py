"""Closed-braid PD codes: diagrams the twist-box templates never produce.

A word is a list of nonzero integers; ``i`` is the generator sigma_i, in
which the strand at position i crosses over the strand at position i + 1
(a positive crossing), and ``-i`` is its inverse.  Strands run upward and
are closed around the braid axis without further crossings.
"""

from knotct.diagram import PlanarDiagram


def closed_braid(word, strands) -> PlanarDiagram:
    """The PD code of the closure of a braid word on `strands` strands."""
    at = list(range(strands))  # arc currently at each position
    next_arc = strands
    crossings, over_entry = [], []
    for g in word:
        i = abs(g) - 1
        if not 0 <= i < strands - 1:
            raise ValueError(f"generator {g} outside a {strands}-strand braid")
        bl, br = at[i], at[i + 1]
        tl, tr = next_arc, next_arc + 1
        next_arc += 2
        # counterclockwise around the crossing: BL, BR, TR, TL
        if g > 0:  # over strand BL -> TR enters at slot 3
            crossings.append([br, tr, tl, bl])
            over_entry.append(3)
        else:  # over strand BR -> TL enters at slot 1
            crossings.append([bl, br, tr, tl])
            over_entry.append(1)
        at[i], at[i + 1] = tl, tr
    # closing: the arc leaving the top of each position is the one entering
    # its bottom; a position no generator touches is a free loop
    close = {a: p for p, a in enumerate(at) if a != p}
    free = sum(1 for p, a in enumerate(at) if a == p)
    crossings = [[close.get(a, a) for a in c] for c in crossings]
    return PlanarDiagram(crossings, over_entry, free_loops=free)
