"""Planar diagrams: PD representation, invariant-ready queries, and
template-based construction of the knot families the package handles."""

from .core import PlanarDiagram, signature_alternating
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
    """Number of twist regions (`PlanarDiagram.twist_regions`): crossings
    grouped by the bigon faces they bound.  Requires the diagram to carry
    twist-box construction provenance, which pins down the framing in which
    the count is meaningful.
    """
    if not isinstance(d.provenance, TwistLayout):
        raise MissingProvenance("diagram was not built from twist-box templates")
    return len(d.twist_regions())
