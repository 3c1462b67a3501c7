"""The crossing budget shared by the skein engine and the Kauffman state sum."""

from __future__ import annotations

import os

from .errors import ValidationError

BUDGET_ENV = "KNOTCT_CROSSING_BUDGET"


def crossing_budget(default: int) -> int:
    """The budget set by KNOTCT_CROSSING_BUDGET, or `default` when it is unset
    or empty.  A value that is not an integer of at least 1 raises
    ValidationError."""
    v = os.environ.get(BUDGET_ENV)
    if not v:
        return default
    try:
        budget = int(v)
    except ValueError:
        raise ValidationError(f"{BUDGET_ENV} must be an integer, got {v!r}") from None
    if budget < 1:
        raise ValidationError(f"{BUDGET_ENV} must be at least 1, got {budget}")
    return budget
