"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence (0 if empty)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]
