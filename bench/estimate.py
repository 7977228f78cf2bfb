"""Estimators that survive a noisy host.

The box this was sized on alternates, per core and every few seconds,
between a quiet state and one about 1.28x slower (see README, "Noise
study").  A median over repetitions mixes both states, so every timing
here is a *minimum*.  A repetition is a chain of serial segments, each
holding the same work in every repetition of one seed; the steady time
of a run is the sum over segments of the quietest repetition, which
needs no single repetition to have been quiet throughout.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def quietest(repetitions: Sequence[Sequence[float]]) -> List[float]:
    """Per segment, the shortest time any repetition took.

    Raises ``ValueError`` when the repetitions disagree on how many
    segments there are.
    """
    if len({len(rep) for rep in repetitions}) != 1:
        raise ValueError("repetitions disagree on their segments")
    return [min(column) for column in zip(*repetitions)]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """min, q1, median, q3, max of ``values`` (n >= 1)."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {"min": ordered[0], "q1": q1, "median": median, "q3": q3,
            "max": ordered[-1], "n": len(ordered)}
