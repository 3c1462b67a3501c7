"""Planar diagrams: PD representation, invariant-ready queries, and
template-based construction of the knot families the package handles."""

from .core import PlanarDiagram, signature_alternating
from .construct import (
    additive_cf,
    double_twist_diagram,
    fig1_left_diagram,
    fig1_right_diagram,
    montesinos_diagram,
    pretzel_diagram,
)

__all__ = [
    "PlanarDiagram",
    "signature_alternating",
    "montesinos_diagram",
    "pretzel_diagram",
    "double_twist_diagram",
    "fig1_left_diagram",
    "fig1_right_diagram",
    "additive_cf",
]
