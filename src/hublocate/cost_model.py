"""Stepwise transport cost functions.

Land transport is priced from a distance-band x volume-band tariff matrix:
a load of v m3 is split into n full containers plus a rest volume u
(n maximal), and costs n * C(full) + C(u).  For use inside a linear model
the first constant pieces (below one tenth of a container) are replaced by
a linear ramp, giving the approximated curve handled by ApproxLandCurve.

Sea transport is priced per relation from an FCL (per container) and/or an
NVOCC (per m3) rate; the rest volume that travels NVOCC is capped by the
relation's limit, the minimum of the global cap and the volume at which
NVOCC pricing matches one full container.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import DistanceOutOfRangeError

# Relative tolerance for cost comparisons; matches the precision kept in
# emitted LP/MPS files.
COST_RTOL = 1e-6

DEFAULT_PENALTY = 1e8


def container_split(v: float, u_cont: float) -> tuple[int, float]:
    """Split a volume into (full containers, rest), with n maximal.

    Exact positive multiples of ``u_cont`` give a zero rest volume, so a
    full container is never charged as a container plus a full rest.
    """
    if v <= 0.0:
        return 0, 0.0
    n = int(math.floor(v / u_cont))
    u = v - n * u_cont
    if u >= u_cont:  # float guard for v barely above a multiple
        n += 1
        u -= u_cont
    if u < 0.0:
        u = 0.0
    return n, u


@dataclass(frozen=True)
class LandCostTable:
    """Distance-band x volume-band tariff matrix.

    distance_breaks are ascending upper band edges in km; band k covers
    [break_{k-1}, break_k) with break_{-1} = 0, and the last band is closed
    at its upper edge.  volume_breaks are ascending upper band edges in m3;
    band i covers (break_{i-1}, break_i], the last break equals the land
    container volume, and C(0) = 0.
    """

    distance_breaks: tuple[float, ...]
    volume_breaks: tuple[float, ...]
    cost: tuple[tuple[float, ...], ...]  # cost[distance band][volume band]

    @property
    def container_volume(self) -> float:
        return self.volume_breaks[-1]

    def distance_band(self, dist_km: float) -> int:
        if dist_km < 0.0:
            raise DistanceOutOfRangeError(f"negative distance {dist_km}")
        idx = bisect_right(self.distance_breaks, dist_km)
        if idx == len(self.distance_breaks):
            if dist_km == self.distance_breaks[-1]:
                return idx - 1
            raise DistanceOutOfRangeError(
                f"distance {dist_km} km beyond table range "
                f"(max {self.distance_breaks[-1]} km)"
            )
        return idx


def land_cost_exact(table: LandCostTable, dist_km: float, v: float) -> float:
    """Exact stepwise land cost: n * C(full) + C(rest), n maximal."""
    if v < 0.0:
        raise ValueError(f"negative volume {v}")
    if v == 0.0:
        return 0.0
    return land_cost_row(table.cost[table.distance_band(dist_km)], table.volume_breaks, v)


def land_cost_row(row: tuple, volume_breaks: tuple, v: float) -> float:
    """Exact stepwise land cost from the tariff row of one distance band."""
    if v < 0.0:
        raise ValueError(f"negative volume {v}")
    if v == 0.0:
        return 0.0
    n, u = container_split(v, volume_breaks[-1])
    return n * row[-1] + (row[bisect_left(volume_breaks, u)] if u > 0.0 else 0.0)


@dataclass(frozen=True)
class ApproxLandCurve:
    """Approximated land cost curve for one distance band.

    breakpoints[0] is exactly one tenth of the container volume and
    breakpoints[-1] is the container volume; values[i] is the exact table
    cost at breakpoints[i].  Below breakpoints[0] the curve is the linear
    ramp from (0, 0) to (breakpoints[0], values[0]); between consecutive
    breakpoints it is the constant values[i] on (breakpoints[i-1],
    breakpoints[i]].  The pattern repeats every full container.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    @property
    def container_volume(self) -> float:
        return self.breakpoints[-1]

    @property
    def step_count(self) -> int:
        """j, the index of the last breakpoint."""
        return len(self.breakpoints) - 1


def land_breakpoints(table: LandCostTable, dist_km: float) -> ApproxLandCurve:
    """Build the approximated curve for the band containing dist_km.

    The breakpoints are the volume breaks at or above one tenth of the
    container volume, with that head volume prepended when it is not
    itself a break.
    """
    u_cont = table.container_volume
    head = u_cont / 10.0
    pts = [w for w in table.volume_breaks if w >= head]
    if not math.isclose(pts[0], head, rel_tol=1e-12):
        pts.insert(0, head)
    row = table.cost[table.distance_band(dist_km)]
    values = tuple(land_cost_row(row, table.volume_breaks, w) for w in pts)
    return ApproxLandCurve(breakpoints=tuple(pts), values=values)


def land_cost_approx(curve: ApproxLandCurve, v: float) -> float:
    """Approximated land cost: linear below the head volume, exact steps above."""
    if v < 0.0:
        raise ValueError(f"negative volume {v}")
    if v == 0.0:
        return 0.0
    pts = curve.breakpoints
    values = curve.values
    n, u = container_split(v, pts[-1])
    base = n * values[-1]
    if u <= 0.0:
        return base
    head = pts[0]
    if u <= head:
        return base + (u / head) * values[0]
    return base + values[bisect_left(pts, u)]


def approx_breakpoint_volumes(curve: ApproxLandCurve, lo: float, hi: float) -> list[float]:
    """All piece boundaries of the extended curve strictly inside (lo, hi).

    These are the volumes n * u_cont + breakpoint for n >= 0; the places
    where the approximated cost jumps or kinks.  Used to build candidate
    split fractions for the oracle and the local search.
    """
    if hi <= lo:
        return []
    u_cont = curve.container_volume
    out = []
    n = max(0, int(math.floor(lo / u_cont)) - 1)
    while n * u_cont < hi:
        for w in curve.breakpoints:
            x = n * u_cont + w
            if lo < x < hi:
                out.append(x)
        n += 1
    return out


@dataclass(frozen=True)
class SeaRate:
    """FCL and/or NVOCC rate for one (origin port, destination port) relation."""

    fcl_per_container: float | None = None
    nvocc_per_m3: float | None = None

    def __post_init__(self):
        if self.fcl_per_container is None and self.nvocc_per_m3 is None:
            raise ValueError("sea rate needs at least one of FCL and NVOCC")
        if self.fcl_per_container is not None and self.fcl_per_container <= 0.0:
            raise ValueError(f"FCL rate must be > 0, got {self.fcl_per_container}")
        if self.nvocc_per_m3 is not None and self.nvocc_per_m3 <= 0.0:
            raise ValueError(f"NVOCC rate must be > 0, got {self.nvocc_per_m3}")

    def nvocc_limit(self, nvocc_cap: float) -> float:
        """Upper bound for the NVOCC rest volume on this relation."""
        if self.nvocc_per_m3 is None:
            return 0.0
        if self.fcl_per_container is None:
            return nvocc_cap
        return min(nvocc_cap, self.fcl_per_container / self.nvocc_per_m3)


def sea_cost(
    rate: SeaRate,
    v: float,
    u_cont: float,
    nvocc_cap: float,
    penalty: float = DEFAULT_PENALTY,
) -> tuple[float, int, float]:
    """Cheapest (cost, containers, NVOCC volume) covering v m3.

    Minimizes n * container_price + u * nvocc over integer n >= 0 and
    0 <= u <= rate.nvocc_limit(nvocc_cap) with n * u_cont + u >= v.
    Relations without an FCL rate price each container at ``penalty``
    instead, so volumes beyond the NVOCC cap stay representable at
    prohibitive cost.  Cost ties are broken toward more containers.
    """
    if v < 0.0:
        raise ValueError(f"negative volume {v}")
    if v == 0.0:
        return 0.0, 0, 0.0
    u_lim = rate.nvocc_limit(nvocc_cap)
    per_container = rate.fcl_per_container if rate.fcl_per_container is not None else penalty
    nvocc = rate.nvocc_per_m3 or 0.0
    # Small slack keeps knife-edge volumes (v - u_lim an exact container
    # multiple) from being pushed to an extra container by float noise.
    n_min = max(0, math.ceil((v - u_lim) / u_cont - 1e-12))
    n_max = math.ceil(v / u_cont)
    options = []
    for n in range(n_min, n_max + 1):
        u = v - n * u_cont
        if u < 0.0:
            u = 0.0
        c = n * per_container + (u * nvocc if u > 0.0 else 0.0)
        options.append((c, n, u))
    cmin = min(c for c, _, _ in options)
    tie = 1e-12 * max(1.0, abs(cmin))
    return max((o for o in options if o[0] <= cmin + tie), key=lambda o: o[1])

