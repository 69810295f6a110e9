"""Candidate direct-fraction generation for hub-routed connections.

For a (branch, origin port) pair that routes part of its volume via a hub,
the approximated cost is piecewise linear in the direct share, with kinks
and jumps only where one of the three touched land arcs (branch-to-port,
branch-to-hub, hub-to-port) crosses a piece boundary of its cost curve.
The continuous optimum is therefore searched over the finite set of
fractions that place an arc volume exactly on such a boundary, plus the
extremes 0 and 1, plus the per-destination subset sums that alternating
per-destination methods can produce.  The oracle and the local search
both take their candidates from ``pair_fraction_candidates``, the one
builder, and pass the routed arcs whose boundaries count as (curve, base)
pairs.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .cost_model import ApproxLandCurve, approx_breakpoint_volumes

MAX_SUBSET_DESTINATIONS = 6


def subset_sums(volumes: list[float]) -> list[float]:
    """All non-empty, non-total subset sums of a small volume list."""
    if not 1 < len(volumes) <= MAX_SUBSET_DESTINATIONS:
        return []
    out = set()
    for k in range(1, len(volumes)):
        for combo in combinations(volumes, k):
            out.add(sum(combo))
    return sorted(out)


def pair_fraction_candidates(
    curve_direct: ApproxLandCurve,
    routed: Iterable[tuple[ApproxLandCurve, float]],
    volume: float,
    dest_volumes: list[float] | None = None,
) -> list[float]:
    """Sorted candidate direct fractions in [0, 1] for one routed pair.

    `routed` holds one (curve, base) pair per arc the routed remainder
    (1 - y) * volume rides (branch-to-hub, hub-to-port); base is the volume
    already on that arc from other connections, and the remainder stacks
    on top of it.  The fractions are clamped to [0, 1] and sorted, and any
    within 1e-12 of the previous one kept is dropped.  The largest is never
    dropped: it replaces the last one kept when it lies that close to it,
    so the list always ends with 1.
    """
    cands = {0.0, 1.0}
    if volume > 0.0:
        for w in approx_breakpoint_volumes(curve_direct, 0.0, volume):
            cands.add(w / volume)
        for curve, base in routed:
            for w in approx_breakpoint_volumes(curve, base, base + volume):
                cands.add(1.0 - (w - base) / volume)
        if dest_volumes:
            for ss in subset_sums(dest_volumes):
                if 0.0 < ss < volume:
                    cands.add(ss / volume)
    out = sorted(min(1.0, max(0.0, y)) for y in cands)
    dedup = [out[0]]
    for y in out[1:]:
        if y - dedup[-1] > 1e-12:
            dedup.append(y)
    dedup[-1] = out[-1]
    return dedup
