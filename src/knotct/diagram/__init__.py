"""Planar diagrams: PD representation, invariant-ready queries, and
template-based construction of the knot families the package handles."""

from .core import _DSU, PlanarDiagram, signature_alternating
from .construct import (
    Builder,
    TwistLayout,
    additive_cf,
    double_twist_diagram,
    fig1_left_diagram,
    fig1_right_diagram,
    montesinos_diagram,
    pretzel_diagram,
    rational_tangle,
)

from ..errors import MissingProvenance

__all__ = [
    "PlanarDiagram",
    "signature_alternating",
    "Builder",
    "TwistLayout",
    "rational_tangle",
    "montesinos_diagram",
    "pretzel_diagram",
    "double_twist_diagram",
    "fig1_left_diagram",
    "fig1_right_diagram",
    "additive_cf",
    "twist_number",
]


def twist_number(d: PlanarDiagram) -> int:
    """Number of twist regions: crossings grouped by chains of bigon faces.

    Two crossings belong to the same region when they bound a common
    two-sided face; regions are the transitive closure of that relation,
    and an isolated crossing is a region of its own.  Requires the diagram
    to carry twist-box construction provenance, which pins down the framing
    in which the count is meaningful.
    """
    if not isinstance(d.provenance, TwistLayout):
        raise MissingProvenance("diagram was not built from twist-box templates")
    dsu = _DSU(range(d.n))
    pos = d.positions()
    for face in d.faces():
        if len(face) != 2:
            continue
        arcs = {arc for arc, _ in face}
        if len(arcs) != 2:
            continue  # degenerate bigon from a kink
        a, b = arcs
        cs = {ci for ci, _ in pos[a]} & {ci for ci, _ in pos[b]}
        cs = sorted(cs)
        for other in cs[1:]:
            dsu.union(cs[0], other)
    return len({dsu.find(i) for i in range(d.n)})
