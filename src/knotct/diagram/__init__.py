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
    faces, _, face_of_corner = d.face_table()
    dsu = _DSU(range(d.n))
    bigon_crossing = {}  # bigon face -> the first crossing seen at one of its corners
    for ci, corners in enumerate(face_of_corner):
        for fi in corners:
            face = faces[fi]
            if len(face) == 2 and face[0][0] != face[1][0]:  # not a kink's degenerate bigon
                dsu.union(bigon_crossing.setdefault(fi, ci), ci)
    return len({dsu.find(i) for i in range(d.n)})
