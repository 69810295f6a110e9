"""Two-stage per-destination heuristic and local search.

The no-hub baseline is exact and lives in ``hublocate.exact_oracle``;
``solve_no_hubs`` is re-exported here.

The two-stage method mirrors the alternating per-destination procedure:
for one destination it loops between an exhaustive search over hub sets
(up to the hub budget) and a per-branch best-port step, evaluating every
candidate with the exact cost model restricted to that destination's
shipments.  It stops after the first iteration whose port step accepts
no move, which is where looping until an iteration brings no strict
improvement stops too: the next iteration would start from the same
ports, routes and cost, its hub-set trials would give the same floats
(rule 4 below), none of them below a cost that is already their
minimum, and its port step would make the same decisions.  Shipments
are routed whole: each one goes fully direct or fully via one hub, chosen
by per-shipment best response under the joint cost (a standalone
comparison would never see consolidation gains).

Merging the per-destination results can assign different hubs to the same
(branch, origin port) pair; those conflicts are reported as C8 violations
and repaired by keeping the hub that carries the most volume.  Branches
that are themselves upgraded to hubs are forced to ship direct so the
merged solution always satisfies the hub constraints.

Both searches price a candidate from what its move touches instead of
re-evaluating the whole destination or solution, and still return exactly
the answers a full evaluation of every candidate gives, by three rules
(detailed in ``hublocate.pricing``):

1. every price comes from the instance's arc price table, with the
   arithmetic of the cost_model functions;
2. a load a move changes is re-summed from its members in evaluator
   order, never patched with += or -=;
3. a delta decides only when it is more than ``TIE_RTOL`` times the total
   away from a tie or acceptance threshold; nearer cases, and every
   accepted state, are costed with the full-order sum (``cost_terms``).

Two-stage also caches prices and routings, and skips routings it already
knows, by two more rules:

4. a cached price or routing is reused only for an identical state (same
   ports, routes, loads and tie scale), so it is the float, or the
   routing, that computing it again would give.  The all-direct cost, the
   trials and the clearly inert hubs are kept for one hub-set sweep
   (step 1 at one port vector);
5. a hub-set trial is read off smaller trials of the same hub-set sweep
   when they decide it.  A single-hub trial ``{h}`` in which no route
   changed marks h inert; if the least delta of moving a branch from the
   all-direct routing onto h also exceeds ``CLEAR_MARGIN`` times the
   all-direct cost, h is clearly inert.  A set with a clearly inert
   member h routes as the set without h, provided branch h never moved
   in that trial.  Moving a branch from direct onto h then changes the
   same terms by the same amounts in every state of that trial: its own
   direct arc and feeder leg, h's set-up, and h's port arc, which
   carries only h's own direct shipment.  So h's option
   lies at least the margin (1e-6 relative) above the direct option, a
   thousand times the ``TIE_RTOL`` band, and is never taken or tied.

Local search also rejects hub openings without pricing them, by a
sixth rule:

6. a hub opening is cut when a lower bound on the cost of every state its
   greedy can reach (``_opening_bound``) exceeds the acceptance limit by
   more than ``TIE_RTOL`` times the limit (at least 1;
   ``pricing.bound_excludes``, the oracle's cut rule too).  A load x that
   an arc carries at most X of costs at least x * rate(X), the arc's
   least price per m3 over (0, X] (``ArcPrices.rate``, on which the
   oracle's routing bound rests too), and a saving is counted at the most
   the arc's price can fall.  The bound rests on ``validate_instance``: it
   refuses negative costs and tariff rows that fall with volume
   (``NEGATIVE_COST``, ``NONMONOTONE_COST_TABLE``), so no cost term falls
   when its load grows.  It starts from the delta-based cost of the state
   after the hub opens and adds its terms in another order than the full
   sum; those roundings stay below 1e-13 of the total, far inside the
   ``TIE_RTOL`` margin.  So every state a cut opening could reach costs
   more than the limit, its full evaluation would have rejected it, and
   the search takes the same path.  Every other move is priced.

Feasibility is checked once per accepted local-search move, not per
candidate; every move keeps the constraints by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Not called here since pricing goes through hublocate.pricing; kept as
# attributes of this module because perfbench's tracer hooks them here.
from .cost_model import land_breakpoints, land_cost_exact, sea_cost  # noqa: F401
from .errors import InfeasibleSolutionError, InvalidInstanceError, check_deadline
from .exact_oracle import DEFAULT_HUB_BUDGET, hub_subsets

# The no-hub baseline is an exact enumeration and lives in exact_oracle;
# re-exported because callers (perfbench's workloads among them) import
# it from here.
from .exact_oracle import solve_no_hubs  # noqa: F401
from .network_model import Instance, validate_instance
from .pricing import (
    TIE_RTOL,
    Flows,
    acceptance_limit,
    bound_excludes,
    cost_terms,
    price_table,
    solution_flows,
)
from .solution import ConstraintViolation, Solution, check_feasibility
from .solution import evaluate_cost  # noqa: F401  (tracer hook, as above)
from .splits import pair_fraction_candidates

MAX_ROUTE_SWEEPS = 10
MAX_SEARCH_ROUNDS = 50
# Relative margin above which a hub's all-direct deltas make it clearly
# inert (rule 5); far outside TIE_RTOL and the deltas' rounding.
CLEAR_MARGIN = 1e-6


@dataclass(frozen=True)
class DestinationPlan:
    """Result of the per-destination subproblem."""

    destination: str
    ports: dict  # branch -> origin port (branches with demand toward t)
    hubs: tuple  # hubs actually used, sorted
    routes: dict  # branch -> hub or None
    cost: float
    iterations: int


@dataclass
class TwoStageResult:
    per_destination: dict  # t -> DestinationPlan
    merged: Solution
    violations: list  # pre-repair C8 conflicts from the merge

    @property
    def iterations(self) -> dict:
        return {t: plan.iterations for t, plan in self.per_destination.items()}


@dataclass
class SearchStats:
    """Deterministic work counters of the two-stage and local searches.

    ``full_evaluations`` counts costs summed over a whole destination
    (two-stage) or a whole solution (local search); ``delta_evaluations``
    counts candidates priced from the terms their move touches;
    ``near_tie_fallbacks`` counts deltas too close to a tie or threshold
    to decide, settled by a full evaluation instead; ``accepted_moves``
    counts the moves that changed the incumbent.  Two-stage only:
    ``inert_hub_hits`` counts hub-set trials read off smaller trials
    (rule 5), without adding to the two counts of evaluations, which
    count only work done.  Local search only:
    ``moves_tried`` and ``moves_accepted`` count candidate moves per move
    type, and ``bound_cuts`` the hub openings rejected by a lower bound
    (rule 6) without pricing the states they could reach; they count in
    ``moves_tried`` but not in the evaluations.
    """

    full_evaluations: int = 0
    delta_evaluations: int = 0
    near_tie_fallbacks: int = 0
    accepted_moves: int = 0
    inert_hub_hits: int = 0
    moves_tried: dict = field(default_factory=dict)  # move type -> count
    moves_accepted: dict = field(default_factory=dict)
    bound_cuts: int = 0


class _DestinationContext:
    """Exact-cost evaluator for one destination's shipments.

    ``cost`` is the evaluator's sum for a (ports, routes) configuration;
    ``delta`` prices the move of one branch from the terms it touches: its feeder
    leg and hub consolidation, at most two port arcs and two sea
    relations, and the set-up of a hub it starts or stops using.

    Its caches follow exactness rules 4 and 5: ``hub_set_trials`` keeps,
    for the one sweep over hub sets at one port vector, the all-direct
    cost, the sweep's trials and the clearly inert single hubs that rule
    5 reads.
    """

    def __init__(self, instance: Instance, t: str, stats: SearchStats):
        self.instance = instance
        self.prices = price_table(instance)
        self.stats = stats
        self.t = t
        self.ship = {
            b: v for (b, tt), v in instance.demand.items() if tt == t and v > 0.0
        }
        self.branches = sorted(self.ship)
        self.ports = instance.usable_ports(t)

    def cost(self, ports: dict, routes: dict) -> float:
        """``cost_terms`` summed over a configuration's flows.  Loads are
        summed in branch order, ``solution_flows``'s order for one destination."""
        self.stats.full_evaluations += 1
        port_arc, port_vol, uses = self.loads(ports, routes)
        vols: dict = {}
        hub_arc: dict = {}
        hub_inflow: dict = {}
        for b in self.branches:
            v = self.ship[b]
            vols[(b, ports[b])] = v
            h = routes[b]
            if h is not None:
                hub_arc[(b, h)] = v
                hub_inflow[h] = hub_inflow.get(h, 0.0) + v
        sea_vol = {(s, self.t): v for s, v in port_vol.items()}
        flows = Flows(vols, port_arc, hub_arc, hub_inflow, port_vol, sea_vol)
        return sum(cost_terms(self.instance, flows, uses, "exact"))

    def loads(self, ports: dict, routes: dict) -> tuple:
        """(port arc loads, port volumes, branches per used hub) of a
        configuration, summed in branch order."""
        port_arc: dict = {}
        port_vol: dict = {}
        uses: dict = {}
        for b in self.branches:
            v = self.ship[b]
            s = ports[b]
            h = routes[b]
            port_vol[s] = port_vol.get(s, 0.0) + v
            a = b if h is None else h
            port_arc[(a, s)] = port_arc.get((a, s), 0.0) + v
            if h is not None:
                uses[h] = uses.get(h, 0) + 1
        return port_arc, port_vol, uses

    def delta(self, ports: dict, routes: dict, loads: tuple, b: str, s_new: str, h_new) -> float:
        """cost() with branch b moved to (s_new, h_new), minus cost() now.

        ``loads`` is ``self.loads(ports, routes)``.  The loads b's move
        changes are re-summed with b in its new place (exactness rule 2).
        """
        self.stats.delta_evaluations += 1
        s_old, h_old = ports[b], routes[b]
        if s_old == s_new and h_old == h_new:
            return 0.0
        inst = self.instance
        land = self.prices.land_exact
        port_arc, port_vol, uses = loads
        d = 0.0
        if h_old != h_new:
            v = self.ship[b]
            if h_old is not None:
                d -= inst.hub_consol_cost[h_old] * v + land(b, h_old, v)
                if uses[h_old] == 1:
                    d -= inst.setup_cost[h_old]
            if h_new is not None:
                d += inst.hub_consol_cost[h_new] * v + land(b, h_new, v)
                if h_new not in uses:
                    d += inst.setup_cost[h_new]
        arc_old = (b if h_old is None else h_old, s_old)
        arc_new = (b if h_new is None else h_new, s_new)
        if arc_old != arc_new:
            for a, s in (arc_old, arc_new):
                load = 0.0
                for x in self.branches:
                    if x == b:
                        px, hx = s_new, h_new
                    else:
                        px, hx = ports[x], routes[x]
                    if px == s and (hx == a or (hx is None and x == a)):
                        load += self.ship[x]
                d += land(a, s, load) - land(a, s, port_arc.get((a, s), 0.0))
        if s_old != s_new:
            sea = self.prices.sea
            for s in (s_old, s_new):
                vol = 0.0
                for x in self.branches:
                    if (s_new if x == b else ports[x]) == s:
                        vol += self.ship[x]
                before = port_vol.get(s, 0.0)
                d += inst.port_consol_cost[s] * (vol - before)
                d += sea(s, self.t, vol) - sea(s, self.t, before)
        return d

    def initial_ports(self) -> dict:
        """Per-branch cheapest standalone direct cost, ties to the first port."""
        inst = self.instance
        out = {}
        for b in self.branches:
            v = self.ship[b]
            best = None
            for s in self.ports:
                c = (
                    self.prices.land_exact(b, s, v)
                    + inst.port_consol_cost[s] * v
                    + self.prices.sea(s, self.t, v)
                )
                if best is None or c < best[0]:
                    best = (c, s)
            out[b] = best[1]
        return out

    def route_shipments(self, ports: dict, hub_set: tuple, direct_cost: float) -> tuple:
        """Best-response routing sweeps: direct or one hub per shipment.

        Returns ``(routes, movers, least)``: movers are the branches whose
        route changed at some point, and least is the least delta of moving
        a branch onto a hub, taken only while no branch has moved (so from
        the all-direct routing; inf if none was priced).  Branches inside
        the hub set always ship direct.  Ties prefer direct, then the
        lexicographically first hub.  Options are ranked by their deltas;
        deltas closer than TIE_RTOL times the cost are settled by full
        costs, so the choice is the one full costs make.  ``direct_cost``
        is the all-direct cost at ``ports``.
        """
        routes = dict.fromkeys(self.branches)
        movers: set = set()
        least = math.inf
        if not hub_set:
            return routes, movers, least
        scale = direct_cost  # running estimate, never compared
        loads = self.loads(ports, routes)
        for _ in range(MAX_ROUTE_SWEEPS):
            changed = False
            for b in self.branches:
                if b in hub_set:
                    continue
                best_h = None
                # Staying direct changes nothing; only a routed branch is priced.
                best_d = 0.0 if routes[b] is None else self.delta(
                    ports, routes, loads, b, ports[b], None
                )
                best_c = None  # full cost of best_h, once a near tie needed it
                for h in hub_set:
                    d = self.delta(ports, routes, loads, b, ports[b], h)
                    if not movers:
                        least = min(least, d)
                    tol = TIE_RTOL * max(1.0, abs(scale) + abs(best_d) + abs(d))
                    if d < best_d - tol:
                        best_h, best_d, best_c = h, d, None
                    elif d <= best_d + tol:
                        self.stats.near_tie_fallbacks += 1
                        if best_c is None:
                            best_c = self.cost(ports, {**routes, b: best_h})
                        c = self.cost(ports, {**routes, b: h})
                        if c < best_c:
                            best_h, best_d, best_c = h, d, c
                if best_h != routes[b]:
                    scale += best_d
                    routes[b] = best_h
                    loads = self.loads(ports, routes)
                    movers.add(b)
                    changed = True
            if not changed:
                break
        return routes, movers, least

    def hub_set_trials(self, ports: dict, hub_budget: int, deadline: float | None):
        """Yield ``(routes, cost)`` of ``route_shipments`` at ``ports`` for
        each hub set of ``hub_subsets(branches, hub_budget)``, in order.

        The sweep keeps the all-direct cost, its trials so far and its
        clearly inert hubs; a trial that smaller ones decide (rule 5) is
        read off them without routing, and one whose routes never left all
        direct is costed at the all-direct cost.  ``deadline`` is checked
        before every trial.
        """
        direct_cost = self.cost(ports, dict.fromkeys(self.branches))
        trials: dict = {}  # hub set -> (routes, cost, movers)
        clearly_inert: set = set()  # single hubs that are clearly inert
        # Smallest sets first, so the trials rule 5 reads come before it.
        for hub_set in hub_subsets(self.instance.nodes.branches, hub_budget):
            check_deadline(deadline, "two-stage solve")
            trial = None
            if len(hub_set) > 1:
                for h in hub_set:
                    if h in clearly_inert:
                        smaller = trials[tuple(x for x in hub_set if x != h)]
                        if h not in smaller[2]:
                            trial = smaller
                            break
            if trial is not None:
                self.stats.inert_hub_hits += 1
            else:
                routes, movers, least = self.route_shipments(ports, hub_set, direct_cost)
                cost = self.cost(ports, routes) if movers else direct_cost
                trial = (routes, cost, movers)
                # A single hub that moved no branch is inert, and clearly
                # so if its least all-direct delta exceeds the margin.
                if len(hub_set) == 1 and not movers:
                    if least > CLEAR_MARGIN * max(1.0, abs(direct_cost)):
                        clearly_inert.add(hub_set[0])
            trials[hub_set] = trial
            yield trial[0], trial[1]


def solve_single_destination(
    instance: Instance,
    t: str,
    hub_budget: int = DEFAULT_HUB_BUDGET,
    stats: SearchStats | None = None,
    deadline: float | None = None,
) -> DestinationPlan:
    """Alternating hub-set / port search for one destination, until a port
    step accepts no move.

    Port moves are screened by their deltas like the routing options in
    ``route_shipments``; every accepted configuration is costed in full.
    ``deadline`` (a ``time.monotonic()`` value) is checked before every
    hub-set trial and every port-step branch.
    """
    stats = stats if stats is not None else SearchStats()
    ctx = _DestinationContext(instance, t, stats)
    if not ctx.branches:
        return DestinationPlan(t, {}, (), {}, 0.0, 0)

    ports = ctx.initial_ports()
    routes = dict.fromkeys(ctx.branches)
    cost = ctx.cost(ports, routes)
    iterations = 0
    while True:
        iterations += 1

        # Step 1: ports fixed, exhaustive search over hub sets.
        for trial_routes, c in ctx.hub_set_trials(ports, hub_budget, deadline):
            if c < cost:
                cost, routes = c, trial_routes
                stats.accepted_moves += 1

        # Step 2: hubs fixed, per-branch best port under the same routing rule.
        used = tuple(sorted({h for h in routes.values() if h is not None}))
        loads = ctx.loads(ports, routes)
        moved = False
        for b in ctx.branches:
            check_deadline(deadline, "two-stage solve")
            for s in ctx.ports:
                if s == ports[b]:
                    continue
                options = [None] if b in used else [None, *used]
                for h in options:
                    d = ctx.delta(ports, routes, loads, b, s, h)
                    tol = TIE_RTOL * max(1.0, abs(cost) + abs(d))
                    if d > tol:
                        continue
                    if d >= -tol:
                        stats.near_tie_fallbacks += 1
                    trial_ports = {**ports, b: s}
                    trial_routes = {**routes, b: h}
                    c = ctx.cost(trial_ports, trial_routes)
                    if c < cost:
                        cost, ports, routes = c, trial_ports, trial_routes
                        loads = ctx.loads(ports, routes)
                        stats.accepted_moves += 1
                        moved = True

        # Another iteration would repeat this one (module docstring).
        if not moved:
            return DestinationPlan(t, ports, used, routes, cost, iterations)


def solve_two_stage(
    instance: Instance,
    hub_budget: int = DEFAULT_HUB_BUDGET,
    deadline: float | None = None,
    stats: SearchStats | None = None,
) -> TwoStageResult:
    """Per-destination solves, merge, conflict report, and repair.

    ``stats``, when given, accumulates the search counters.
    """
    violations_in = validate_instance(instance)
    if violations_in:
        raise InvalidInstanceError(violations_in)

    stats = stats if stats is not None else SearchStats()
    plans = []
    for t in instance.nodes.destination_ports:
        check_deadline(deadline, "two-stage solve")
        plans.append(solve_single_destination(instance, t, hub_budget, stats, deadline))
    per_destination = {plan.destination: plan for plan in plans}

    hubs = frozenset(h for plan in plans for h in plan.hubs)
    port_choice = {}
    per_pair: dict = {}  # (b, s) -> list of (hub or None, volume)
    for plan in plans:
        for b, s in sorted(plan.ports.items()):
            port_choice[(b, plan.destination)] = s
            v = instance.demand[(b, plan.destination)]
            per_pair.setdefault((b, s), []).append((plan.routes[b], v))

    violations = []
    hub_choice = {}
    fractions = {}
    for (b, s), entries in sorted(per_pair.items()):
        chosen = sorted({h for h, _ in entries if h is not None})
        if len(chosen) > 1:
            violations.append(ConstraintViolation(
                "C8", (b, s),
                f"merge assigns hubs {', '.join(chosen)} to connection ({b}, {s})",
            ))
        if b in hubs or not chosen:
            continue  # hubs ship direct; pure-direct pairs need no entry
        by_hub: dict = {}
        for h, v in entries:
            if h is not None:
                by_hub[h] = by_hub.get(h, 0.0) + v
        winner = max(sorted(by_hub), key=lambda h: by_hub[h])
        total = sum(v for _, v in entries)
        direct = sum(v for h, v in entries if h is None)
        hub_choice[(b, s)] = winner
        fractions[(b, s)] = direct / total if total > 0.0 else 1.0

    merged = Solution(
        port_choice=port_choice,
        hubs=hubs,
        direct_fraction=fractions,
        hub_choice=hub_choice,
    )
    return TwoStageResult(
        per_destination=per_destination,
        merged=merged,
        violations=violations,
    )


class _SearchState:
    """Mutable working copy of a solution for the local search.

    Besides the decisions it keeps the solution's ``Flows`` and ``via``,
    each hub's sorted tuple of the pairs routed via it.  Moves change
    decisions through ``set_port``, ``set_route``, ``set_fraction``,
    ``open_hub`` and ``close_hub``, which mark what they touch;
    ``refresh`` re-sums just those loads from their members (in the order
    ``solution_flows`` uses, so the flows stay equal to a fresh build) and
    returns the change of the approximated cost they cause.  A hub's port
    arcs, feeder arcs and inflow are re-summed from its ``via`` members,
    so nothing scans every branch or sorts every choice.  ``save`` and
    ``restore`` roll a rejected move back through a copy of the whole
    state; ``via``'s tuples are shared, since ``set_route`` replaces them.
    """

    def __init__(self, instance: Instance, solution: Solution, stats: SearchStats):
        self.instance = instance
        self.prices = price_table(instance)
        self.stats = stats
        self.ports = dict(solution.port_choice)
        self.hubs = set(solution.hubs)
        self.choices = dict(solution.hub_choice)
        self.fracs = {k: solution.fraction(*k) for k in self.choices}
        self.via: dict = {}  # hub -> sorted tuple of the pairs routed via it
        for pair, h in sorted(self.choices.items()):
            self.via[h] = self.via.get(h, ()) + (pair,)
        self.flows = solution_flows(instance, self.ports, self.fraction, self.choices)
        self.branches = instance.nodes.branches
        self.demand_of: dict = {}  # b -> [(t, v)] in demand order
        self.shippers_to: dict = {}  # t -> [(b, v)] in demand order
        for (b, t), v in instance.demand.items():
            if v > 0.0:
                self.demand_of.setdefault(b, []).append((t, v))
                self.shippers_to.setdefault(t, []).append((b, v))
        # Touched since the last refresh; dicts keep the order deterministic.
        self._pairs: dict = {}  # pair -> its hub before the first touch
        self._vol_pairs: dict = {}
        self._relations: dict = {}
        self._setups: dict = {}  # hub -> whether it was open before the first touch

    def fraction(self, b: str, s: str) -> float:
        return self.fracs.get((b, s), 1.0)

    def as_solution(self) -> Solution:
        return Solution(
            port_choice=dict(self.ports),
            hubs=frozenset(self.hubs),
            direct_fraction=dict(self.fracs),
            hub_choice=dict(self.choices),
        )

    def total(self) -> float:
        """Approximated cost in full-order summation (== evaluate_cost total)."""
        self.stats.full_evaluations += 1
        return sum(cost_terms(self.instance, self.flows, self.hubs, "approx"))

    # -- moves ------------------------------------------------------------

    def set_port(self, b: str, t: str, s: str) -> None:
        old = self.ports[(b, t)]
        self.ports[(b, t)] = s
        for port in (old, s):
            self._vol_pairs[(b, port)] = None
            self._relations[(port, t)] = None

    def set_route(self, pair, hub, y: float | None = None) -> None:
        """Route pair via hub (None: all direct); y, if given, is its direct share."""
        old = self.choices.get(pair)
        self._pairs.setdefault(pair, old)
        if old != hub:
            if old is not None:
                self.via[old] = tuple(p for p in self.via[old] if p != pair)
            if hub is not None:
                self.via[hub] = tuple(sorted((*self.via.get(hub, ()), pair)))
        if hub is None:
            self.choices.pop(pair, None)
            self.fracs.pop(pair, None)
        else:
            self.choices[pair] = hub
            if y is not None:
                self.fracs[pair] = y

    def set_fraction(self, pair, y: float) -> None:
        self._pairs.setdefault(pair, self.choices.get(pair))
        self.fracs[pair] = y

    def open_hub(self, h: str) -> None:
        self._setups.setdefault(h, h in self.hubs)
        self.hubs.add(h)

    def close_hub(self, h: str) -> None:
        self._setups.setdefault(h, h in self.hubs)
        self.hubs.discard(h)

    # -- incremental flows ------------------------------------------------

    def _set(self, table: dict, key, value: float) -> float:
        """Store a re-summed load (dropping zeros); returns the previous one."""
        if value > 0.0:
            old = table.get(key, 0.0)
            table[key] = value
            return old
        return table.pop(key, 0.0)

    def refresh(self) -> float:
        """Re-sum what the moves since the last refresh touched; returns
        the resulting change of the approximated cost."""
        inst = self.instance
        prices = self.prices
        fl = self.flows
        d = 0.0
        for h, was_open in self._setups.items():
            if (h in self.hubs) != was_open:
                d += -inst.setup_cost[h] if was_open else inst.setup_cost[h]
        port_totals: dict = {}
        for (b, s) in self._vol_pairs:
            vol = 0.0
            for t, v in self.demand_of[b]:
                if self.ports.get((b, t)) == s:
                    vol += v
            if vol != fl.vols.get((b, s), 0.0):
                self._set(fl.vols, (b, s), vol)
                port_totals[s] = None
                self._pairs.setdefault((b, s), self.choices.get((b, s)))
        for (s, t) in self._relations:
            w = 0.0
            for b, v in self.shippers_to[t]:
                if self.ports.get((b, t)) == s:
                    w += v
            old = self._set(fl.sea_vol, (s, t), w)
            d += prices.sea(s, t, w) - prices.sea(s, t, old)
        for s in port_totals:
            vol = 0.0
            for b in self.branches:
                vol += fl.vols.get((b, s), 0.0)
            old = self._set(fl.port_totals, s, vol)
            d += inst.port_consol_cost[s] * vol - inst.port_consol_cost[s] * old

        port_arcs: dict = {}
        hub_arcs: dict = {}
        inflows: dict = {}
        for (b, s), old_hub in self._pairs.items():
            port_arcs[(b, s)] = None
            for h in (old_hub, self.choices.get((b, s))):
                if h is not None:
                    hub_arcs[(b, h)] = None
                    port_arcs[(h, s)] = None
                    inflows[h] = None
        fracs = self.fracs
        vols = fl.vols
        via = self.via
        for (a, s) in port_arcs:
            # a's own direct share and the shares routed via a, in branch order.
            load = 0.0
            own = vols.get((a, s))
            for pair in via.get(a, ()):
                if pair[1] != s:
                    continue
                if own is not None and pair[0] > a:
                    direct = fracs.get((a, s), 1.0) * own
                    if direct > 0.0:
                        load += direct
                    own = None
                v = vols.get(pair)
                if v is not None:
                    routed = (1.0 - fracs.get(pair, 1.0)) * v
                    if routed > 0.0:
                        load += routed
            if own is not None:
                direct = fracs.get((a, s), 1.0) * own
                if direct > 0.0:
                    load += direct
            old = self._set(fl.port_arc, (a, s), load)
            d += prices.land_approx(a, s, load) - prices.land_approx(a, s, old)
        for (b, h) in hub_arcs:
            load = 0.0
            for pair in via.get(h, ()):
                if pair[0] == b:
                    routed = (1.0 - fracs.get(pair, 1.0)) * vols.get(pair, 0.0)
                    if routed > 0.0:
                        load += routed
            old = self._set(fl.hub_arc, (b, h), load)
            d += prices.land_approx(b, h, load) - prices.land_approx(b, h, old)
        for h in inflows:
            load = 0.0
            for pair in via.get(h, ()):
                routed = (1.0 - fracs.get(pair, 1.0)) * vols.get(pair, 0.0)
                if routed > 0.0:
                    load += routed
            old = self._set(fl.hub_inflow, h, load)
            d += inst.hub_consol_cost[h] * load - inst.hub_consol_cost[h] * old

        self._clear_touched()
        return d

    def _clear_touched(self) -> None:
        self._pairs.clear()
        self._vol_pairs.clear()
        self._relations.clear()
        self._setups.clear()

    def save(self):
        fl = self.flows
        return (
            dict(self.ports), set(self.hubs), dict(self.choices), dict(self.fracs), dict(self.via),
            dict(fl.vols), dict(fl.port_arc), dict(fl.hub_arc), dict(fl.hub_inflow),
            dict(fl.port_totals), dict(fl.sea_vol),
        )

    def restore(self, token) -> None:
        """Return to the state of ``token``, taking over its maps (so restore a token once)."""
        fl = self.flows
        (self.ports, self.hubs, self.choices, self.fracs, self.via, fl.vols,
         fl.port_arc, fl.hub_arc, fl.hub_inflow, fl.port_totals, fl.sea_vol) = token
        self._clear_touched()

    def below(self, estimate: float, limit: float) -> float | None:
        """The exact cost of the current state if it is below ``limit``.

        ``estimate`` is the delta-based cost.  Clearly above the limit it
        rejects without a full sum; otherwise the full-order sum decides
        (exactness rule 3), and is the cost of the state if accepted.
        """
        self.stats.delta_evaluations += 1
        tol = TIE_RTOL * max(1.0, abs(estimate))
        if estimate > limit + tol:
            return None
        if estimate >= limit - tol:
            self.stats.near_tie_fallbacks += 1
        c = self.total()
        return c if c < limit else None


def _try(
    state: _SearchState, kind: str, mutate, current: float, deadline: float | None
) -> float | None:
    """Apply mutate(), a move of type ``kind``; return the new cost if
    strictly better, else roll back.

    mutate returns the exact cost of the state it leaves, or None to have
    it judged from its delta.  ``deadline`` is checked first.
    """
    check_deadline(deadline, "local search")
    tried = state.stats.moves_tried
    tried[kind] = tried.get(kind, 0) + 1
    limit = acceptance_limit(current)
    token = state.save()
    exact = mutate()
    if exact is None:
        c = state.below(current + state.refresh(), limit)
    else:
        c = exact if exact < limit else None
    if c is None:
        state.restore(token)
        return None
    report = check_feasibility(state.instance, state.as_solution())
    if report:
        raise InfeasibleSolutionError(report)
    state.stats.accepted_moves += 1
    accepted = state.stats.moves_accepted
    accepted[kind] = accepted.get(kind, 0) + 1
    return c


def _open_hub(state: _SearchState, h: str, current: float) -> float:
    """Open hub h and greedily route pairs through it; returns the exact
    cost, or inf when ``_opening_bound`` shows that no state the greedy can
    reach gets below the acceptance limit from ``current``."""
    state.open_hub(h)
    for key in [k for k in state.choices if k[0] == h]:
        state.set_route(key, None)
    estimate = current + state.refresh()
    if bound_excludes(_opening_bound(state, h, estimate), acceptance_limit(current)):
        state.stats.bound_cuts += 1
        return math.inf
    base = state.total()
    for (b, s) in sorted(state.flows.vols):
        if b in state.hubs or b == h or state.flows.vols[(b, s)] <= 0.0:
            continue
        token = state.save()
        state.set_route((b, s), h, 0.0)
        c = state.below(base + state.refresh(), base)
        if c is not None:
            base = c
        else:
            state.restore(token)
    return base


def _opening_bound(state: _SearchState, h: str, estimate: float) -> float:
    """Lower bound on the cost of every state ``_open_hub``'s greedy can
    reach: the state now (h open, its own routes detached, costing
    ``estimate``) with some eligible pairs p = (b, s) routed whole via h.

    Routing p via h adds at least coef_p = v_p * (f[h] + rate((b, h), F_b)
    + rate((h, s), base_s + P_s)), where F_b and P_s are the volumes of
    every eligible pair of b and to s and base_s is h's own load on (h, s);
    it saves the whole price of p's direct share, the only load on the port
    arc of a branch that is not a hub, and at most r_p * (f[h'] +
    rate((b, h'), L) + rate((h', s), L)) of the share r_p it routed via
    hub h' until now, at each arc's load L.  Each arc's slack, price(L) -
    L * rate, bounds the rest, so the cost is at least the estimate plus
    the negative coefficients minus the slacks (rule 6).
    """
    prices = state.prices
    fl = state.flows
    f = state.instance.hub_consol_cost
    eligible = [(p, v) for p, v in sorted(fl.vols.items()) if p[0] not in state.hubs]
    feeder: dict = {}  # b -> volume of b's eligible pairs
    port: dict = {}  # s -> volume of the eligible pairs to s
    for (b, s), v in eligible:
        feeder[b] = feeder.get(b, 0.0) + v
        port[s] = port.get(s, 0.0) + v
    bound = estimate
    feeder_rate = {b: prices.rate(b, h, F) for b, F in feeder.items()}
    port_rate = {}
    for s, P in port.items():
        base = fl.port_arc.get((h, s), 0.0)
        port_rate[s] = r = prices.rate(h, s, base + P)
        if base > 0.0:
            bound -= prices.land_approx(h, s, base) - base * r
    old_rates: dict = {}  # old hub arc -> (its load, its rate there)

    def old_rate(a, r, table):
        entry = old_rates.get((a, r))
        if entry is None:
            load = table[(a, r)]
            entry = old_rates[(a, r)] = (load, prices.rate(a, r, load))
        return entry[1]

    for p, v in eligible:
        b, s = p
        coef = v * (f[h] + feeder_rate[b] + port_rate[s])
        direct = fl.port_arc.get(p, 0.0)
        if direct > 0.0:
            coef -= prices.land_approx(b, s, direct)
        h2 = state.choices.get(p)
        if h2 is not None:
            routed = (1.0 - state.fracs.get(p, 1.0)) * v
            if routed > 0.0:
                coef -= routed * (
                    f[h2] + old_rate(b, h2, fl.hub_arc) + old_rate(h2, s, fl.port_arc)
                )
        if coef < 0.0:
            bound += coef
    for (a, r), (load, rate) in old_rates.items():
        bound -= prices.land_approx(a, r, load) - load * rate
    return bound


def _repoint(state: _SearchState, b: str, t: str, s2: str) -> None:
    """Move shipment (b, t) to origin port s2; the pair (b, old port) loses
    its route when no other shipment of b leaves from that port."""
    old = state.ports[(b, t)]
    state.set_port(b, t, s2)
    ports = state.ports
    if (b, old) in state.choices and all(ports.get((b, u)) != old for u, _ in state.demand_of[b]):
        state.set_route((b, old), None)


def _fraction_candidates(state: _SearchState, pair) -> list:
    """Piece-boundary fractions for one routed pair in the current state."""
    b, s = pair
    h = state.choices[pair]
    vols = state.flows.vols
    v = vols.get(pair, 0.0)
    feeder_base = 0.0
    port_base = vols.get((h, s), 0.0)
    for other, oh in state.choices.items():
        if other == pair:
            continue
        routed = (1.0 - state.fracs.get(other, 0.0)) * vols.get(other, 0.0)
        if oh == h and other[0] == b:
            feeder_base += routed
        if oh == h and other[1] == s:
            port_base += routed
    curve = state.prices.curve
    return pair_fraction_candidates(
        curve(b, s), ((curve(b, h), feeder_base), (curve(h, s), port_base)), v
    )


def local_search_improve(
    instance: Instance,
    start: Solution,
    deadline: float | None = None,
    stats: SearchStats | None = None,
) -> Solution:
    """First-improvement local search over hub, port, and split moves.

    Every round tries the four move types in turn: toggle a hub
    (``"hub_toggle"`` in the move counters), reassign a shipment's origin
    port (``"port"``), reassign a pair's hub (``"hub_choice"``), adjust a
    pair's direct share (``"fraction"``).  Never increases the
    approximated cost and keeps every intermediate solution feasible;
    stops after a full round without improvement or after
    ``MAX_SEARCH_ROUNDS`` rounds.  Candidates are priced by move-local
    deltas (exactness rules in ``hublocate.pricing``), and hub openings
    that a lower bound proves lose are rejected unpriced (rule 6 in the
    module docstring), so the result is the one full re-evaluation of
    every candidate gives.
    ``deadline`` (a ``time.monotonic()`` value) is checked before every
    round and every candidate move.  ``stats``, when given, accumulates
    the search counters.  An instance that fails validation raises
    ``InvalidInstanceError`` first, since rule 6's bound relies on it.
    """
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError(violations)
    report = check_feasibility(instance, start)
    if report:
        raise InfeasibleSolutionError(report)

    stats = stats if stats is not None else SearchStats()
    state = _SearchState(instance, start, stats)
    start_cost = current = state.total()
    branches = list(instance.nodes.branches)

    for _ in range(MAX_SEARCH_ROUNDS):
        check_deadline(deadline, "local search")
        improved = False

        for h in branches:
            if h in state.hubs:
                def close(h=h):
                    state.close_hub(h)
                    for key in [k for k, v in state.choices.items() if v == h]:
                        state.set_route(key, None)
                c = _try(state, "hub_toggle", close, current, deadline)
            else:
                c = _try(
                    state, "hub_toggle", lambda h=h: _open_hub(state, h, current),
                    current, deadline,
                )
            if c is not None:
                current, improved = c, True

        for (b, t) in instance.positive_pairs():
            for s2 in instance.usable_ports(t):
                if s2 == state.ports[(b, t)]:
                    continue

                c = _try(
                    state, "port", lambda b=b, t=t, s2=s2: _repoint(state, b, t, s2),
                    current, deadline,
                )
                if c is not None:
                    current, improved = c, True

        for pair in sorted(state.flows.vols):
            b, s = pair
            if b in state.hubs:
                continue
            had = pair in state.choices
            targets = [h for h in sorted(state.hubs) if h != b]
            options = ([None] if had else []) + [
                h for h in targets if h != state.choices.get(pair)
            ]
            for h2 in options:

                def rechoose(pair=pair, h2=h2, had=had):
                    state.set_route(pair, h2, None if had else 0.0)

                c = _try(state, "hub_choice", rechoose, current, deadline)
                if c is not None:
                    current, improved = c, True
                    break

        for pair in sorted(state.choices):
            if state.flows.vols.get(pair, 0.0) <= 0.0:
                continue
            for y in _fraction_candidates(state, pair):
                if abs(y - state.fracs.get(pair, 0.0)) <= 1e-15:
                    continue

                def refrac(pair=pair, y=y):
                    state.set_fraction(pair, y)

                c = _try(state, "fraction", refrac, current, deadline)
                if c is not None:
                    current, improved = c, True

        if not improved:
            break

    # No accepted move means the start is locally optimal; hand it back as is.
    return state.as_solution() if current < start_cost else start
