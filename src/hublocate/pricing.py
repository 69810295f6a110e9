"""One arc price table per instance, and the evaluator's flow accounting.

``price_table(instance)`` returns the instance's ``ArcPrices``: per land
arc the tariff row of its distance band (whose last entry is the
full-container price) and the band's shared approximated curve, each
resolved once, plus memos of exact and of approximated land prices per
(arc, load), of sea prices per (relation, volume), and of each arc's
least approximated price per m3 up to a load (``rate``, the unit price of
the oracle's and the local search's lower bounds).  The table is cached
on the instance object, so every solver working on one instance shares it
and nothing outlives the instance.

``solution_flows`` turns a solution's decisions into the loads the six
cost terms are priced from, and ``cost_terms`` prices them; together they
are ``evaluate_cost`` without the feasibility check.

Exactness rules.  The solvers that price through this module (the
evaluator, the two-stage heuristic, the local search and the oracle
kernel) return answers bit-identical to pricing every candidate with a
full evaluation, because they keep three rules:

1. Same arithmetic.  A price is the float result of the cost_model
   function it stands for: exact land prices come from
   ``land_cost_row`` on the band's row, approximated ones from
   ``land_cost_approx`` on the band's curve, sea prices from
   ``sea_cost``.  The table only saves the band lookup and the curve
   construction, and repeats a land price (exact or approximated) or a
   sea price it has computed before for the same arc or relation and the
   same load: the same function on the same inputs gives the same float.
2. Loads are re-summed, never patched.  A load a move changes is summed
   again from its members, in the order the full evaluator adds them.
   Adding or subtracting the moved volume instead drifts by about 1e-15,
   and at a volume break that moves a step price by a whole step.
3. Deltas decide only clear cases.  A move's delta (the sum of the price
   changes of the arcs, sea relations and hub terms it touches) may rank
   candidates only when it lies more than ``TIE_RTOL`` times the total
   away from a tie or from an acceptance threshold.  Closer cases, and
   the cost of every accepted state, use the full-order sum, ``cost_terms``,
   in the evaluator, two-stage and the local search alike.

The oracle and the local search decide with the same two rules.  A
candidate replaces the current best only below ``acceptance_limit(best)``,
1e-12 relative under it, so a float tie keeps the earlier candidate.  A
candidate is rejected unpriced when a lower bound on its cost lies
clearly above the limit it must beat (``bound_excludes``): so the oracle
cuts configurations and the local search cuts hub openings.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .cost_model import (
    ApproxLandCurve,
    land_breakpoints,
    land_cost_approx,
    land_cost_row,
    sea_cost,
)

# Relative distance from a tie or threshold below which a delta does not
# decide; summation error of the totals is below 1e-13 relative.
TIE_RTOL = 1e-9


def acceptance_limit(current: float) -> float:
    """The cost a candidate must get below to replace ``current``."""
    return current - 1e-12 * max(1.0, abs(current))


def bound_excludes(bound: float, limit: float) -> bool:
    """Whether a lower bound proves that every state it covers misses
    ``limit``: it must exceed the limit by more than ``TIE_RTOL`` times the
    limit (at least 1), a margin far above the bound's rounding."""
    return bound - limit > TIE_RTOL * max(1.0, abs(limit))


class ArcPrices:
    """Land and sea prices of one instance with the per-arc work done once.

    Arcs are resolved on first use, so an instance with an unusable
    distance fails where a full evaluation would, not when the table is
    built.
    """

    def __init__(self, instance):
        # No reference back to the instance: the instance holds the table,
        # and a cycle would keep both alive until a full garbage collection.
        self._distance = instance.distance
        self._land = instance.land_costs
        self._sea_rates = instance.sea_rates
        self._sea_params = (
            instance.sea_container_volume, instance.nvocc_cap, instance.nvocc_penalty
        )
        self._rows: dict = {}  # (a, r) -> tariff row of the arc's distance band
        self._curves: dict = {}  # (a, r) -> ApproxLandCurve shared per band
        self._band_curves: dict = {}  # band -> ApproxLandCurve
        self._exact: dict = {}  # (a, r, volume) -> exact land price
        self._approx: dict = {}  # (a, r, volume) -> approximated land price
        self._sea: dict = {}  # (s, t, volume) -> sea price
        self._rate_tables: dict = {}  # (a, r) -> (breakpoints, running minima per m3)
        self._rates: dict = {}  # (a, r, X) -> least price per m3 over (0, X]

    def _row(self, a: str, r: str) -> tuple:
        row = self._rows.get((a, r))
        if row is None:
            band = self._land.distance_band(self._distance[(a, r)])
            row = self._rows[(a, r)] = self._land.cost[band]
        return row

    def curve(self, a: str, r: str) -> ApproxLandCurve:
        curve = self._curves.get((a, r))
        if curve is None:
            dist = self._distance[(a, r)]
            band = self._land.distance_band(dist)
            curve = self._band_curves.get(band)
            if curve is None:
                curve = self._band_curves[band] = land_breakpoints(self._land, dist)
            self._curves[(a, r)] = curve
        return curve

    def land_exact(self, a: str, r: str, v: float) -> float:
        key = (a, r, v)
        price = self._exact.get(key)
        if price is None:
            if v <= 0.0:
                return 0.0
            row = self._row(a, r)
            price = self._exact[key] = land_cost_row(row, self._land.volume_breaks, v)
        return price

    def land_approx(self, a: str, r: str, v: float) -> float:
        key = (a, r, v)
        price = self._approx.get(key)
        if price is None:
            if v <= 0.0:
                return 0.0
            price = self._approx[key] = land_cost_approx(self.curve(a, r), v)
        return price

    def rate(self, a: str, r: str, X: float) -> float:
        """Least approximated price per m3 of arc (a, r) over loads in (0, X], X > 0.

        Within a constant piece the price per m3 falls toward the piece's
        right end, on the ramp it is constant, and a load of n containers
        plus a rest is priced at a weighted mean of the full-container rate
        and the rest's rate.  So the minimum lies at a breakpoint of the
        first container at or below X, or at X itself: the rate is the
        running minimum of ``values[i] / breakpoints[i]`` up to X, or the
        price at X over X if lower.  So ``land_approx(a, r, x) >= x *
        rate(a, r, X)`` for every 0 < x <= X, which the lower bounds of the
        oracle and the local search rest on.
        """
        key = (a, r, X)
        rate = self._rates.get(key)
        if rate is None:
            table = self._rate_tables.get((a, r))
            if table is None:
                curve = self.curve(a, r)
                mins = []
                low = math.inf
                for w, value in zip(curve.breakpoints, curve.values):
                    low = min(low, value / w)
                    mins.append(low)
                table = self._rate_tables[(a, r)] = (curve.breakpoints, mins)
            breakpoints, mins = table
            at_x = self.land_approx(a, r, X) / X
            i = bisect_right(breakpoints, X)
            rate = self._rates[key] = min(mins[i - 1], at_x) if i else at_x
        return rate

    def land(self, mode: str):
        """The land price function for "exact" or "approx" mode."""
        if mode == "exact":
            return self.land_exact
        if mode == "approx":
            return self.land_approx
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")

    def sea(self, s: str, t: str, w: float) -> float:
        key = (s, t, w)
        price = self._sea.get(key)
        if price is None:
            price = self._sea[key] = sea_cost(self._sea_rates[(s, t)], w, *self._sea_params)[0]
        return price


def price_table(instance) -> ArcPrices:
    """The instance's arc price table, built on first use."""
    table = instance.__dict__.get("_arc_prices")
    if table is None:
        table = ArcPrices(instance)
        # Instances are frozen dataclasses; the table is a cache, not a field.
        object.__setattr__(instance, "_arc_prices", table)
    return table


@dataclass
class Flows:
    """The loads one solution puts on the network.

    Every map holds positive entries only, each summed in the order of
    ``solution_flows``; an incremental owner that re-sums an entry must
    add its members in that same order (exactness rule 2).
    """

    vols: dict  # (b, s) -> demand of b shipped via port s
    port_arc: dict  # (b or hub, s) -> load of the land leg into port s
    hub_arc: dict  # (b, h) -> load of the feeder leg into hub h
    hub_inflow: dict  # h -> volume consolidated at hub h
    port_totals: dict  # s -> volume consolidated at port s
    sea_vol: dict  # (s, t) -> volume shipped on the sea relation


def demand_volumes(instance, port_choice: dict) -> tuple:
    """``(vols, sea_vol)`` of a port choice: the demand each (branch, port)
    pair and each sea relation carries, positive entries only, accumulated
    in the instance's demand order, which is sorted pair order."""
    vols: dict = {}
    sea_vol: dict = {}
    for (b, t), v in instance.demand.items():
        if v <= 0.0:
            continue
        s = port_choice.get((b, t))
        if s is not None:
            vols[(b, s)] = vols.get((b, s), 0.0) + v
            sea_vol[(s, t)] = sea_vol.get((s, t), 0.0) + v
    return vols, sea_vol


def solution_flows(instance, port_choice: dict, fraction, hub_choice: dict) -> Flows:
    """Loads of a solution given as its decisions.

    ``fraction(b, s)`` is the direct share of a (branch, port) pair.
    Demand is accumulated as in ``demand_volumes``, pair terms in sorted
    pair order.
    """
    vols, sea_vol = demand_volumes(instance, port_choice)
    port_totals: dict = {}
    port_arc: dict = {}
    hub_arc: dict = {}
    hub_inflow: dict = {}
    for (b, s), v in sorted(vols.items()):
        port_totals[s] = port_totals.get(s, 0.0) + v
        y = fraction(b, s)
        direct = y * v
        if direct > 0.0:
            port_arc[(b, s)] = port_arc.get((b, s), 0.0) + direct
        routed = (1.0 - y) * v
        if routed > 0.0:
            h = hub_choice[(b, s)]
            hub_arc[(b, h)] = hub_arc.get((b, h), 0.0) + routed
            port_arc[(h, s)] = port_arc.get((h, s), 0.0) + routed
            hub_inflow[h] = hub_inflow.get(h, 0.0) + routed
    return Flows(vols, port_arc, hub_arc, hub_inflow, port_totals, sea_vol)


def cost_terms(instance, flows: Flows, hubs, mode: str) -> tuple:
    """The six cost terms of a solution's flows, each summed in sorted key
    order: set-up, hub consolidation, port consolidation, branch-to-port
    land, branch-to-hub land and sea."""
    table = price_table(instance)
    land = table.land(mode)
    setup = sum(instance.setup_cost[h] for h in sorted(hubs))
    hub_consol = 0.0
    for h in sorted(flows.hub_inflow):
        hub_consol += instance.hub_consol_cost[h] * flows.hub_inflow[h]
    port_consol = 0.0
    for s in sorted(flows.port_totals):
        port_consol += instance.port_consol_cost[s] * flows.port_totals[s]
    land_port = sum(land(a, s, v) for (a, s), v in sorted(flows.port_arc.items()))
    land_hub = sum(land(b, h, v) for (b, h), v in sorted(flows.hub_arc.items()))
    sea = 0.0
    for (s, t), w in sorted(flows.sea_vol.items()):
        sea += table.sea(s, t, w)
    return setup, hub_consol, port_consol, land_port, land_hub, sea
