"""Two-stage per-destination heuristic and local search.

The no-hub baseline is exact and lives in ``hublocate.exact_oracle``;
``solve_no_hubs`` is re-exported here.

The two-stage method mirrors the alternating per-destination procedure:
for one destination it loops between an exhaustive search over hub sets
(up to the hub budget) and a per-branch best-port step, evaluating every
candidate with the exact cost model restricted to that destination's
shipments, until an iteration brings no strict improvement.  Shipments
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
   accepted state, are costed with the full-order sum.

Feasibility is checked once per accepted local-search move, not per
candidate; every move keeps the constraints by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

# Not called here since pricing goes through hublocate.pricing; kept as
# attributes of this module because perfbench's tracer hooks them here.
from .cost_model import land_breakpoints, land_cost_exact, sea_cost  # noqa: F401
from .errors import InfeasibleSolutionError, InvalidInstanceError, check_deadline
from .exact_oracle import hub_subsets

# The no-hub baseline is an exact enumeration and lives in exact_oracle;
# re-exported because callers (perfbench's workloads among them) import
# it from here.
from .exact_oracle import solve_no_hubs  # noqa: F401
from .network_model import Instance, validate_instance
from .pricing import TIE_RTOL, cost_terms, price_table, solution_flows
from .solution import (
    ConstraintViolation,
    CostBreakdown,
    Solution,
    check_feasibility,
    evaluate_cost,
)
from .splits import pair_fraction_candidates

DEFAULT_HUB_BUDGET = 2
MAX_ROUTE_SWEEPS = 10
MAX_SEARCH_ROUNDS = 50


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
    cost: CostBreakdown  # merged solution, exact mode

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
    counts the moves that changed the incumbent.
    """

    full_evaluations: int = 0
    delta_evaluations: int = 0
    near_tie_fallbacks: int = 0
    accepted_moves: int = 0


class _DestinationContext:
    """Exact-cost evaluator for one destination's shipments.

    ``cost`` sums every term of a (ports, routes) configuration; ``delta``
    prices the move of one branch from the terms it touches: its feeder
    leg and hub consolidation, at most two port arcs and two sea
    relations, and the set-up of a hub it starts or stops using.
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
        self._direct_costs: dict = {}  # ports per branch -> all-direct cost

    def cost(self, ports: dict, routes: dict) -> float:
        """Set-up over the sorted hubs, then each branch's hub terms in
        branch order, the sorted port arcs and the sorted ports."""
        self.stats.full_evaluations += 1
        inst = self.instance
        land = self.prices.land_exact
        port_arc, port_vol, uses = self.loads(ports, routes)
        total = sum(inst.setup_cost[h] for h in sorted(uses))
        for b in self.branches:
            h = routes[b]
            if h is not None:
                v = self.ship[b]
                total += inst.hub_consol_cost[h] * v
                total += land(b, h, v)
        for (a, s), v in sorted(port_arc.items()):
            total += land(a, s, v)
        for s, v in sorted(port_vol.items()):
            total += inst.port_consol_cost[s] * v
            total += self.prices.sea(s, self.t, v)
        return total

    def direct_cost(self, ports: dict) -> float:
        """Cost with every shipment direct; the magnitude deltas are judged at."""
        key = tuple(ports[b] for b in self.branches)
        cost = self._direct_costs.get(key)
        if cost is None:
            cost = self._direct_costs[key] = self.cost(ports, dict.fromkeys(self.branches))
        return cost

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
        v = self.ship[b]
        d = 0.0
        if h_old != h_new:
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

    def route_shipments(self, ports: dict, hub_set: tuple) -> dict:
        """Best-response routing sweeps: direct or one hub per shipment.

        Branches inside the hub set always ship direct.  Ties prefer
        direct, then the lexicographically first hub.  Options are ranked
        by their deltas; deltas closer than TIE_RTOL times the cost are
        settled by full costs, so the choice is the one full costs make.
        """
        routes = dict.fromkeys(self.branches)
        if not hub_set:
            return routes
        scale = self.direct_cost(ports)  # running estimate, never compared
        loads = self.loads(ports, routes)
        for _ in range(MAX_ROUTE_SWEEPS):
            changed = False
            for b in self.branches:
                if b in hub_set:
                    continue
                best_h = None
                best_d = self.delta(ports, routes, loads, b, ports[b], None)
                best_c = None  # full cost of best_h, once a near tie needed it
                for h in hub_set:
                    if h == b:
                        continue
                    d = self.delta(ports, routes, loads, b, ports[b], h)
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
                    changed = True
            if not changed:
                break
        return routes


def solve_single_destination(
    instance: Instance,
    t: str,
    hub_budget: int = DEFAULT_HUB_BUDGET,
    stats: SearchStats | None = None,
    deadline: float | None = None,
) -> DestinationPlan:
    """Alternating hub-set / port search for one destination.

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
    cost = ctx.direct_cost(ports)
    iterations = 0
    while True:
        iterations += 1
        before = cost

        # Step 1: ports fixed, exhaustive search over hub sets.
        for hub_set in hub_subsets(instance.nodes.branches, hub_budget):
            check_deadline(deadline, "two-stage solve")
            trial_routes = ctx.route_shipments(ports, hub_set)
            c = ctx.cost(ports, trial_routes)
            if c < cost:
                cost, routes = c, trial_routes
                stats.accepted_moves += 1

        # Step 2: hubs fixed, per-branch best port under the same routing rule.
        used = tuple(sorted({h for h in routes.values() if h is not None}))
        loads = ctx.loads(ports, routes)
        for b in ctx.branches:
            check_deadline(deadline, "two-stage solve")
            for s in ctx.ports:
                if s == ports[b]:
                    continue
                options = [None] if b in used else [None] + [h for h in used if h != b]
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

        if cost >= before:
            break

    used = tuple(sorted({h for h in routes.values() if h is not None}))
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
    per_pair: dict = {}  # (b, s) -> list of (hub or None, volume, t)
    for plan in plans:
        for b, s in sorted(plan.ports.items()):
            port_choice[(b, plan.destination)] = s
            v = instance.demand[(b, plan.destination)]
            per_pair.setdefault((b, s), []).append((plan.routes[b], v, plan.destination))

    violations = []
    hub_choice = {}
    fractions = {}
    for (b, s), entries in sorted(per_pair.items()):
        chosen = sorted({h for h, _, _ in entries if h is not None})
        if len(chosen) > 1:
            violations.append(ConstraintViolation(
                "C8", (b, s),
                f"merge assigns hubs {', '.join(chosen)} to connection ({b}, {s})",
            ))
        if b in hubs or not chosen:
            continue  # hubs ship direct; pure-direct pairs need no entry
        by_hub: dict = {}
        for h, v, _ in entries:
            if h is not None:
                by_hub[h] = by_hub.get(h, 0.0) + v
        winner = max(sorted(by_hub), key=lambda h: by_hub[h])
        total = sum(v for _, v, _ in entries)
        direct = sum(v for h, v, _ in entries if h is None)
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
        cost=evaluate_cost(instance, merged, "exact"),
    )


_MISSING = object()


class _SearchState:
    """Mutable working copy of a solution for the local search.

    Besides the decisions it keeps the solution's ``Flows``.  Moves change
    decisions through ``set_port``, ``set_route``, ``set_fraction``,
    ``open_hub`` and ``close_hub``, which mark what they touch;
    ``refresh`` re-sums just those loads from their members (in the order
    ``solution_flows`` uses, so the flows stay equal to a fresh build) and
    returns the change of the approximated cost they cause.  ``save`` and
    ``restore`` roll a rejected move back through an undo log.
    """

    def __init__(self, instance: Instance, solution: Solution, stats: SearchStats):
        self.instance = instance
        self.prices = price_table(instance)
        self.stats = stats
        self.ports = dict(solution.port_choice)
        self.hubs = set(solution.hubs)
        self.choices = dict(solution.hub_choice)
        self.fracs = {k: solution.fraction(*k) for k in self.choices}
        self.flows = solution_flows(instance, self.ports, self.fraction, self.choices)
        self.branches = instance.nodes.branches
        self.origin_ports = instance.nodes.origin_ports
        self.demand_of: dict = {}  # b -> [(t, v)] in demand order
        self.shippers_to: dict = {}  # t -> [(b, v)] in demand order
        for (b, t), v in instance.demand.items():
            if v > 0.0:
                self.demand_of.setdefault(b, []).append((t, v))
                self.shippers_to.setdefault(t, []).append((b, v))
        self.delta = 0.0  # cost change since the log was last cleared
        self._log: list = []  # (map, key, previous value or _MISSING)
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
        self._pairs.setdefault(pair, self.choices.get(pair))
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
        old = table.get(key, _MISSING)
        self._log.append((table, key, old))
        if value > 0.0:
            table[key] = value
        else:
            table.pop(key, None)
        return 0.0 if old is _MISSING else old

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
        choices = self.choices
        fracs = self.fracs
        for (a, s) in port_arcs:
            load = 0.0
            for b in self.branches:
                v = fl.vols.get((b, s))
                if v is None:
                    continue
                if b == a:
                    direct = fracs.get((b, s), 1.0) * v
                    if direct > 0.0:
                        load += direct
                elif choices.get((b, s)) == a:
                    routed = (1.0 - fracs.get((b, s), 1.0)) * v
                    if routed > 0.0:
                        load += routed
            old = self._set(fl.port_arc, (a, s), load)
            d += prices.land_approx(a, s, load) - prices.land_approx(a, s, old)
        for (b, h) in hub_arcs:
            load = 0.0
            for s in self.origin_ports:
                if choices.get((b, s)) == h:
                    routed = (1.0 - fracs.get((b, s), 1.0)) * fl.vols.get((b, s), 0.0)
                    if routed > 0.0:
                        load += routed
            old = self._set(fl.hub_arc, (b, h), load)
            d += prices.land_approx(b, h, load) - prices.land_approx(b, h, old)
        for h in inflows:
            load = 0.0
            for pair in sorted(p for p, hub in choices.items() if hub == h):
                routed = (1.0 - fracs.get(pair, 1.0)) * fl.vols.get(pair, 0.0)
                if routed > 0.0:
                    load += routed
            old = self._set(fl.hub_inflow, h, load)
            d += inst.hub_consol_cost[h] * load - inst.hub_consol_cost[h] * old

        self._clear_touched()
        self.delta += d
        return d

    def _clear_touched(self) -> None:
        self._pairs.clear()
        self._vol_pairs.clear()
        self._relations.clear()
        self._setups.clear()

    def save(self):
        return (
            len(self._log), self.delta,
            dict(self.ports), set(self.hubs), dict(self.choices), dict(self.fracs),
        )

    def restore(self, token) -> None:
        mark, self.delta, self.ports, self.hubs, self.choices, self.fracs = token
        while len(self._log) > mark:
            table, key, old = self._log.pop()
            if old is _MISSING:
                table.pop(key, None)
            else:
                table[key] = old
        self._clear_touched()

    def commit(self) -> None:
        self._log.clear()
        self.delta = 0.0

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


def _try(state: _SearchState, mutate, current: float, deadline: float | None) -> float | None:
    """Apply mutate(); return the new cost if strictly better, else roll back.

    mutate returns the exact cost of the state it leaves, or None to have
    it judged from its delta.  ``deadline`` is checked first.
    """
    check_deadline(deadline, "local search")
    token = state.save()
    exact = mutate()
    limit = current - 1e-12 * max(1.0, abs(current))
    if exact is None:
        state.refresh()
        c = state.below(current + state.delta, limit)
    else:
        c = exact if exact < limit else None
    if c is None:
        state.restore(token)
        return None
    state.commit()
    report = check_feasibility(state.instance, state.as_solution())
    if report:
        raise InfeasibleSolutionError(report)
    state.stats.accepted_moves += 1
    return c


def _open_hub(state: _SearchState, h: str) -> float:
    """Open hub h and greedily route pairs through it; returns the exact cost."""
    state.open_hub(h)
    for key in [k for k in state.choices if k[0] == h]:
        state.set_route(key, None)
    state.refresh()
    vols = state.flows.vols
    base = state.total()
    for (b, s) in sorted(vols):
        if b in state.hubs or b == h or vols[(b, s)] <= 0.0:
            continue
        token = state.save()
        state.set_route((b, s), h, 0.0)
        c = state.below(base + state.refresh(), base)
        if c is not None:
            base = c
        else:
            state.restore(token)
    return base


def _fraction_candidates(state: _SearchState, pair) -> list:
    """Piece-boundary fractions for one routed pair in the current state."""
    inst = state.instance
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
    dest_volumes = [
        inst.demand[(b, t)]
        for (bb, t), ss in sorted(state.ports.items())
        if bb == b and ss == s and inst.demand.get((bb, t), 0.0) > 0.0
    ]
    return pair_fraction_candidates(
        curve(b, s), ((curve(b, h), feeder_base), (curve(h, s), port_base)), v, dest_volumes
    )


def local_search_improve(
    instance: Instance,
    start: Solution,
    deadline: float | None = None,
    stats: SearchStats | None = None,
) -> Solution:
    """First-improvement local search over hub, port, and split moves.

    Every round tries the four move types in turn: toggle a hub, reassign
    a shipment's origin port, reassign a pair's hub, adjust a pair's
    direct share.  Never increases the approximated cost and keeps every
    intermediate solution feasible; stops after a full round without
    improvement or after ``MAX_SEARCH_ROUNDS`` rounds.  Candidates are
    priced by move-local deltas (exactness rules in ``hublocate.pricing``),
    so the result is the one full re-evaluation of every candidate gives.
    ``deadline`` (a ``time.monotonic()`` value) is checked before every
    round and every candidate move.  ``stats``, when given, accumulates
    the search counters.
    """
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
                c = _try(state, close, current, deadline)
            else:
                c = _try(state, lambda h=h: _open_hub(state, h), current, deadline)
            if c is not None:
                current, improved = c, True

        for (b, t) in instance.positive_pairs():
            for s2 in instance.usable_ports(t):
                if s2 == state.ports[(b, t)]:
                    continue

                def repoint(b=b, t=t, s2=s2):
                    old = state.ports[(b, t)]
                    state.set_port(b, t, s2)
                    state.refresh()
                    vols = state.flows.vols
                    for key in ((b, old), (b, s2)):
                        if key in state.choices and vols.get(key, 0.0) <= 0.0:
                            state.set_route(key, None)

                c = _try(state, repoint, current, deadline)
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

                c = _try(state, rechoose, current, deadline)
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

                c = _try(state, refrac, current, deadline)
                if c is not None:
                    current, improved = c, True

        if not improved:
            break

    # No accepted move means the start is locally optimal; hand it back as is.
    return state.as_solution() if current < start_cost else start
