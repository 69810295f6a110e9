"""Brute-force exact solvers for desk-scale instances.

Both solvers enumerate port assignments on one kernel of pre-resolved
instance data.  ``solve_no_hubs`` is the exact reference for the
simplified model (pure port assignment, every shipment direct): it keeps
the cheapest all-direct assignment.  ``enumerate_optimal`` is the exact
reference for the integrated model.  It runs the same all-direct pass
first, whose optimum bounds every configuration, then enumerates every
port assignment, every hub set within the size limit, and every hub
choice consistent with the constraints; hub sets with an unused member
are skipped because the same routing is already covered by the smaller
set.  For each discrete configuration the continuous direct shares are
optimized over the finite fractions that place an arc volume exactly on
a piece boundary of its approximated cost curve, plus 0 and 1, as
``splits.pair_fraction_candidates`` generates them.  Between two
consecutive boundaries a share's cost is affine, and at a boundary each
arc whose load sits on a break is priced at the lower step, since
``land_cost_approx`` closes each piece on the right; so the least cost
over [0, 1] is at a boundary (up to a candidate whose load rounds a few
ulps past its break, see ``splits``):

  * shares whose three arcs are not shared with another routed pair are
    separable and minimized independently (exact);
  * two shares coupled through one common arc are solved by enumerating
    one share's own boundaries and exactly minimizing the other
    conditionally, in both orders (exact, since a pair can share at most
    one arc and optima sit on intersections of two boundaries);
  * larger coupled groups combine conditional coordinate descent with an
    exact pairwise polish over every coupled pair.

The objective is the approximated cost, the same one the linearized model
minimizes; callers price the answer with ``solution.evaluate_cost``.
Ties are broken toward the first configuration in enumeration order.
Each share's routing terms are priced per coupled component
(``_SplitProblem.component_cost``, straight from each share's arcs)
rather than through ``pricing.cost_terms``, which would price whole
solutions in the innermost loop.

Two cuts leave every answer bit-identical:

  * a configuration is cut when its constant part (port and sea cost,
    set-up, direct arcs no routed share touches) exceeds the all-direct
    threshold or the best total found so far, whichever is lower.  Every
    validated cost is nonnegative and adding a nonnegative float never
    lowers a sum, so such a configuration's total exceeds the incumbent
    and could not have replaced it.  The port-vector and set-up cuts use
    the threshold alone, so the count of evaluated configurations does
    not depend on the incumbent;
  * a configuration is also cut when its constant part plus a lower bound
    on its routing terms (``_SplitProblem.routing_bound``) exceeds that
    limit by more than ``TIE_RTOL`` times the limit (at least 1;
    ``pricing.bound_excludes``).  The bound prices each routed m3 of pair
    p via hub h at the cheaper of rate(p, v_p) and f[h] + rate((b, h), F)
    + rate((h, s), P), and the
    hub's own direct volume on (h, s) at rate((h, s), P), where F and P
    are the arcs' loads with every rider routed and rate(arc, X) is the
    least approximated price per m3 over loads in (0, X]
    (``pricing.ArcPrices.rate``).  On the curve approx(x) >= x * rate(X)
    for every 0 < x <= X, and no load of the configuration exceeds its
    all-routed value, so the routing cost is at least the bound.  The
    margin covers float rounding, which is far below it, so a cut
    configuration's total lies strictly above the incumbent or the
    threshold: it could neither replace the incumbent nor tie it.

The cuts leave few configurations to solve (343 of 30,854 on the 2x3x2
generator instances at density 1.0, seeds 1-50, every profile), so each
solved configuration's components are solved and priced afresh.  Only the
hub choices are memoized, per set of active pairs and hub set within one
call; about half the lookups hit on those instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .cost_model import land_cost_approx

# Not called here since pricing goes through hublocate.pricing and the
# candidates through hublocate.splits; kept as attributes of this module
# because perfbench's tracer hooks them here.
from .cost_model import approx_breakpoint_volumes, land_breakpoints, sea_cost  # noqa: F401
from .errors import InvalidInstanceError, OracleLimitError, check_deadline
from .network_model import Instance, validate_instance
from .pricing import acceptance_limit, bound_excludes, price_table
from .solution import Solution
from .solution import evaluate_cost  # noqa: F401  (tracer hook, as above)
from .splits import pair_fraction_candidates
from .splits import subset_sums  # noqa: F401  (tracer hook, as above)

DESCENT_ROUNDS = 25
POLISH_ROUNDS = 5

# Instance dimensions beyond which the oracle refuses outright.
MAX_BRANCHES = 6
MAX_PORTS = 4
MAX_DESTINATIONS = 4


@dataclass
class OracleStats:
    """Deterministic work counters of one ``enumerate_optimal`` call.

    ``port_vectors_cut`` counts the port assignments whose port and sea
    cost alone exceed the all-direct threshold, and ``hub_sets_cut`` the
    hub sets whose set-up cost takes a surviving assignment over it.
    Every evaluated configuration is either cut by its lower bound
    (``threshold_cuts`` above the all-direct threshold, ``incumbent_cuts``
    above the best total found so far but not the threshold) or solved
    (``solved_configurations``).  ``bound_cuts`` counts the cut
    configurations whose constant part alone did not reach the limit, so
    only the routing bound cut them; it is a part of the two cut counts.
    ``component_solves`` counts the coupled components of the solved
    configurations, each of which is optimized.
    """

    port_vectors_cut: int = 0
    hub_sets_cut: int = 0
    threshold_cuts: int = 0
    incumbent_cuts: int = 0
    solved_configurations: int = 0
    component_solves: int = 0
    bound_cuts: int = 0


@dataclass
class OracleResult:
    solution: Solution
    evaluated: int  # discrete configurations evaluated
    stats: OracleStats


class _Kernel:
    """Pre-resolved instance data for fast repeated configuration costing."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.B = list(instance.nodes.branches)
        self.e = instance.setup_cost
        self.f = instance.hub_consol_cost
        self.g = instance.port_consol_cost
        self.prices = price_table(instance)
        self.pairs = instance.positive_pairs()
        self.options = [instance.usable_ports(t) for (_, t) in self.pairs]

    def fixed_cost(self, zvec) -> tuple[float, dict]:
        """Port consolidation plus sea cost of one port assignment, and the
        volume it puts on each (branch, origin port) pair."""
        demand = self.instance.demand
        vols: dict = {}
        seas: dict = {}
        total = 0.0
        for (b, t), s in zip(self.pairs, zvec):
            v = demand[(b, t)]
            vols[(b, s)] = vols.get((b, s), 0.0) + v
            seas[(s, t)] = seas.get((s, t), 0.0) + v
            total += self.g[s] * v
        for (s, t), w in seas.items():
            total += self.prices.sea(s, t, w)
        return total, vols

    def best_all_direct(
        self, deadline: float | None, what: str, kept: list | None = None
    ) -> tuple[float, tuple]:
        """Cheapest port assignment with every volume shipped direct, as
        (cost, port vector); the first minimum wins ties.  The deadline is
        checked every 256 vectors; `what` names the solver in the error.

        With a `kept` list, appends ``(port vector, fixed cost, vols, direct
        land prices)`` of each vector whose fixed cost is at most the
        minimum found before it.  Every vector whose fixed cost is at most
        the final minimum is among them, and no other vector is stored."""
        land_approx = self.prices.land_approx
        best = None
        for i, zvec in enumerate(itertools.product(*self.options)):
            if i % 256 == 0:
                check_deadline(deadline, what)
            fixed, vols = self.fixed_cost(zvec)
            direct_land = {arc: land_approx(*arc, v) for arc, v in vols.items()}
            if kept is not None and (best is None or fixed <= best[0]):
                kept.append((zvec, fixed, vols, direct_land))
            total = fixed + sum(direct_land.values())
            if best is None or total < best[0]:
                best = (total, zvec)
        return best


class _SplitProblem:
    """Continuous share optimization for one discrete configuration.

    Variables are the routed pairs; the cost decomposes into a constant,
    a per-variable part (direct arc plus consolidation), and per-arc terms
    for feeder and hub-to-port arcs, each depending on the subset of
    variables riding that arc.  The constructor computes only what the
    bound needs (the constant); ``solve`` fills ``arcs_of`` (each
    variable's two arcs with their riders and base) and solves the
    components, which price and build candidates from it.
    """

    def __init__(self, kernel: _Kernel, vols, setup, assign, direct_land):
        self.kernel = kernel
        self.vols = vols
        self.vars = sorted(assign)
        self.hub_of = assign

        const = setup
        feeder_groups: dict = {}
        port_groups: dict = {}
        for p in self.vars:
            b, s = p
            h = self.hub_of[p]
            feeder_groups.setdefault((b, h), []).append(p)
            port_groups.setdefault((h, s), []).append(p)
        for arc, land in direct_land.items():
            if arc not in assign and arc not in port_groups:
                const += land
        self.const = const
        self.feeder_groups = feeder_groups
        self.port_groups = port_groups

    def routing_bound(self) -> float:
        """Lower bound on the routing cost beyond ``const``: each routed m3
        at the cheapest per-m3 price its arcs offer over the loads they can
        carry in this configuration (at most all routed), and each hub's own
        direct volume on a hub-to-port arc at that arc's rate."""
        kernel = self.kernel
        rate = kernel.prices.rate
        vols = self.vols
        feeder_rate = {
            arc: rate(*arc, sum(vols[q] for q in riders))
            for arc, riders in self.feeder_groups.items()
        }
        port_rate = {}
        bound = 0.0
        for arc, riders in self.port_groups.items():
            base = vols.get(arc, 0.0)
            port_rate[arc] = r = rate(*arc, base + sum(vols[q] for q in riders))
            bound += base * r
        for p in self.vars:
            b, s = p
            h = self.hub_of[p]
            v = vols[p]
            bound += v * min(rate(b, s, v), kernel.f[h] + feeder_rate[(b, h)] + port_rate[(h, s)])
        return bound

    def _component_members(self) -> list[tuple]:
        """Coupled components: variables sharing a feeder or port arc."""
        parent = {p: p for p in self.vars}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for group in list(self.feeder_groups.values()) + list(self.port_groups.values()):
            for other in group[1:]:
                parent[find(other)] = find(group[0])
        comps: dict = {}
        for p in self.vars:
            comps.setdefault(find(p), []).append(p)
        return [tuple(sorted(c)) for c in sorted(comps.values())]

    def component_cost(self, members: tuple, fracs) -> float:
        """Cost of the terms touched by one component's shares, summed in
        member order: each member's direct arc and hub consolidation, then
        its feeder and hub-to-port arcs not priced for an earlier member."""
        curve = self.kernel.prices.curve
        f = self.kernel.f
        vols = self.vols
        seen = set()
        total = 0.0
        for p in members:
            v = vols[p]
            direct = fracs[p] * v
            if direct > 0.0:
                total += land_cost_approx(curve(*p), direct)
            total += f[self.hub_of[p]] * (v - direct)
            for arc, riders, base in self.arcs_of[p]:
                if arc in seen:
                    continue
                seen.add(arc)
                routed = 0.0
                for q in riders:
                    routed += (1.0 - fracs[q]) * vols[q]
                load = base + routed
                if load > 0.0:
                    total += land_cost_approx(curve(*arc), load)
        return total

    def _base(self, p, entry, fracs) -> float:
        """Volume the other riders of one of p's arcs put on it at `fracs`
        (a share missing from `fracs` counts as 0)."""
        _, riders, base = entry
        for q in riders:
            if q != p:
                base += (1.0 - fracs.get(q, 0.0)) * self.vols[q]
        return base

    def candidates(self, p, fracs, skip_arc=None) -> list:
        """Candidate shares for p, other variables at `fracs`; `skip_arc`,
        when given, contributes no boundaries."""
        curve = self.kernel.prices.curve
        routed = [
            (curve(*entry[0]), self._base(p, entry, fracs))
            for entry in self.arcs_of[p]
            if entry[0] != skip_arc
        ]
        return pair_fraction_candidates(curve(*p), routed, self.vols[p])

    def shared_arc(self, p, q):
        """The one arc two routed pairs of one component can share, or None."""
        if p[0] == q[0]:
            return (p[0], self.hub_of[p])
        if p[1] == q[1]:
            return (self.hub_of[p], p[1])
        return None

    def _minimize_one(self, members, fracs, p) -> bool:
        """Exact conditional minimization of one share; True on improvement."""
        y0 = fracs[p]
        best = self.component_cost(members, fracs)
        best_y = y0
        for y in self.candidates(p, fracs):
            if abs(y - y0) <= 1e-15:
                continue
            fracs[p] = y
            c = self.component_cost(members, fracs)
            if c < acceptance_limit(best):
                best, best_y = c, y
        fracs[p] = best_y
        return best_y != y0

    def _solve_pair(self, pair, members, context=None) -> dict:
        """Exact two-variable solve: a pair shares at most one arc, so every
        boundary intersection has one variable on its own boundary.

        With `context` the pair is re-optimized inside a larger component
        whose other shares stay at their context values.
        """
        p, q = pair
        arc = self.shared_arc(p, q)
        fracs = dict(context) if context else {}
        best = None  # (cost, outer, y_out, inner, y_in)
        for outer, inner in ((p, q), (q, p)):
            for y_out in self.candidates(outer, fracs, skip_arc=arc):
                fracs[outer] = y_out
                for y_in in self.candidates(inner, fracs):
                    fracs[inner] = y_in
                    c = self.component_cost(members, fracs)
                    if best is None or c < acceptance_limit(best[0]):
                        best = (c, outer, y_out, inner, y_in)
        _, outer, y_out, inner, y_in = best
        out = dict(context) if context else {}
        out[outer] = y_out
        out[inner] = y_in
        return out

    def _solve_group(self, members) -> dict:
        """Conditional descent plus pairwise polish for 3+ coupled shares.

        The descent handles each share exactly given the others; the
        polish re-solves every coupled pair exactly inside the group, so
        only optima needing three simultaneously off-boundary shares on
        three interlocking arcs could be missed.
        """
        fracs = {p: 0.0 for p in members}
        for _ in range(DESCENT_ROUNDS):
            improved = False
            for p in members:
                improved |= self._minimize_one(members, fracs, p)
            if not improved:
                break
        for _ in range(POLISH_ROUNDS):
            improved = False
            for p, q in itertools.combinations(members, 2):
                if self.shared_arc(p, q) is None:
                    continue
                trial = self._solve_pair((p, q), members, context=fracs)
                cur = self.component_cost(members, fracs)
                c = self.component_cost(members, trial)
                if c < acceptance_limit(cur):
                    fracs, improved = trial, True
            if not improved:
                break
        return fracs

    def _solve_component(self, members) -> tuple[dict, float]:
        """Optimal shares of one component from all routed (share 0), and
        their cost: exact for one and two members, descent and polish for
        more."""
        if len(members) == 1:
            sub = {members[0]: 0.0}
            self._minimize_one(members, sub, members[0])
        elif len(members) == 2:
            sub = self._solve_pair(members, members)
        else:
            sub = self._solve_group(members)
        return sub, self.component_cost(members, sub)

    def solve(self, stats: OracleStats) -> tuple[dict, float]:
        """Optimal shares and routing cost, solving each component."""
        vols = self.vols
        # Each share's feeder and hub-to-port arcs as (arc, riders, base);
        # hub-to-port arcs carry the hub's own direct volume as a base.
        self.arcs_of = {}
        for p in self.vars:
            b, s = p
            h = self.hub_of[p]
            self.arcs_of[p] = (
                ((b, h), self.feeder_groups[(b, h)], 0.0),
                ((h, s), self.port_groups[(h, s)], vols.get((h, s), 0.0)),
            )
        fracs = {}
        total = self.const
        for members in self._component_members():
            stats.component_solves += 1
            sub, cost = self._solve_component(members)
            fracs.update(sub)
            total += cost
        return fracs, total


def _valid_assignment_count(k: int, p: int) -> float:
    """Assignments of p pairs to 1 + k options using all k hubs."""
    return sum((-1) ** i * math.comb(k, i) * (1 + k - i) ** p for i in range(k + 1))


def _port_vector_count(instance: Instance) -> float:
    """Port assignments of the positive-demand pairs (as a float)."""
    z_space = 1.0
    for (_, t) in instance.positive_pairs():
        z_space *= max(1, len(instance.usable_ports(t)))
    return z_space


# Default hub-set size limit of every solver, and the oracle's default
# evaluation budget (it refuses above it).
DEFAULT_HUB_BUDGET = 2
MAX_EVALUATIONS = 1e8


def hub_subsets(branches, max_size: int):
    """Yield every hub set of at most ``max_size`` branches, smallest
    first, each size in ``itertools.combinations`` order.  A generator, so
    a caller that checks a deadline per set never waits for the whole
    list."""
    for k in range(0, min(max_size, len(branches)) + 1):
        yield from itertools.combinations(branches, k)


def estimate_configurations(instance: Instance, hub_budget: int) -> float:
    """Upper bound on the discrete configurations the oracle would visit."""
    z_space = _port_vector_count(instance)
    n_b = len(instance.nodes.branches)
    active = {b for (b, _) in instance.positive_pairs()}
    p = min(len(active) * len(instance.nodes.origin_ports), len(instance.positive_pairs()))
    y_space = 0.0
    for k in range(0, min(hub_budget, n_b) + 1):
        y_space += math.comb(n_b, k) * max(0.0, _valid_assignment_count(k, p))
    return z_space * max(1.0, y_space)


def _check_limits(instance: Instance, hub_budget: int, max_evaluations: float) -> None:
    n_b = len(instance.nodes.branches)
    n_s = len(instance.nodes.origin_ports)
    n_t = len(instance.nodes.destination_ports)
    if n_b > MAX_BRANCHES or n_s > MAX_PORTS or n_t > MAX_DESTINATIONS:
        raise OracleLimitError(
            f"instance size {n_b} branches / {n_s} ports / {n_t} destinations exceeds "
            f"oracle limits ({MAX_BRANCHES}/{MAX_PORTS}/{MAX_DESTINATIONS})"
        )
    est = estimate_configurations(instance, hub_budget)
    if est > max_evaluations:
        raise OracleLimitError(
            f"estimated {est:.3g} configurations exceed the budget of {max_evaluations:.3g}",
            estimate=est,
        )


def _hub_assignments(active, hubs):
    """Hub choices for the active pairs using every hub in `hubs`, as maps
    from each routed pair to its hub, in ``itertools.product`` order over
    the pairs' options: direct (None) first, then the hubs in `hubs` order.
    Pairs of branches inside the hub set are forced direct."""
    options = [(None,) if b in hubs else (None, *hubs) for b, _ in active]
    needed = set(hubs)
    for choice in itertools.product(*options):
        if needed.issubset(choice):
            yield {p: h for p, h in zip(active, choice) if h is not None}


def enumerate_optimal(
    instance: Instance,
    hub_budget: int = DEFAULT_HUB_BUDGET,
    max_evaluations: float = MAX_EVALUATIONS,
    deadline: float | None = None,
) -> OracleResult:
    """Globally minimize the approximated cost by exhaustive enumeration.

    Hub sets hold at most ``hub_budget`` branches.  Refuses instances
    larger than ``MAX_BRANCHES``/``MAX_PORTS``/``MAX_DESTINATIONS`` or whose
    enumeration estimate exceeds ``max_evaluations``.  Ties go to the first
    configuration in enumeration order.  ``deadline`` (a
    ``time.monotonic()`` value) is checked every 256 vectors of the
    all-direct pass, then before every port vector that survives its fixed
    cost and every configuration.
    """
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError(violations)
    _check_limits(instance, hub_budget, max_evaluations)

    kernel = _Kernel(instance)
    hub_sets = list(hub_subsets(kernel.B, hub_budget))
    setup_of = {hubs: sum(kernel.e[h] for h in hubs) for hubs in hub_sets}

    # All-direct optimum over every port assignment.  Configurations whose
    # lower bound strictly exceeds it cannot be optimal.
    kept: list = []
    threshold, _ = kernel.best_all_direct(deadline, "oracle", kept)
    survivors = [entry for entry in kept if entry[1] <= threshold]

    stats = OracleStats(port_vectors_cut=math.prod(map(len, kernel.options)) - len(survivors))
    best = None  # (cost, payload)
    limit = threshold  # min(threshold, best total): a larger lower bound cuts
    evaluated = 0
    assignments: dict = {}  # (active pairs, hubs) -> hub choices
    for zvec, fixed, vols, direct_land in survivors:
        check_deadline(deadline, "oracle")
        active = tuple(sorted(vols))
        for hubs in hub_sets:
            setup = setup_of[hubs]
            if fixed + setup > threshold:
                stats.hub_sets_cut += 1
                continue
            choices = assignments.get((active, hubs))
            if choices is None:
                choices = assignments[(active, hubs)] = list(_hub_assignments(active, hubs))
            for assign in choices:
                check_deadline(deadline, "oracle")
                evaluated += 1
                problem = _SplitProblem(kernel, vols, setup, assign, direct_land)
                # Cut when the constant part alone, or with the routing
                # bound, exceeds the limit; otherwise solve.
                lower = fixed + problem.const
                if lower <= limit:
                    lower += problem.routing_bound()
                    if not bound_excludes(lower, limit):
                        stats.solved_configurations += 1
                        fracs, routing = problem.solve(stats)
                        total = fixed + routing
                        if best is None or total < best[0]:
                            best = (total, (zvec, hubs, assign, fracs))
                            limit = min(threshold, total)
                        continue
                    stats.bound_cuts += 1
                if lower > threshold:
                    stats.threshold_cuts += 1
                else:
                    stats.incumbent_cuts += 1

    if best is None:
        raise OracleLimitError("nothing to enumerate")

    _, (zvec, hubs, assign, fracs) = best
    port_choice = dict(zip(kernel.pairs, zvec))
    hub_choice = {p: h for p, h in assign.items() if h is not None}
    solution = Solution(
        port_choice=port_choice,
        hubs=frozenset(hubs),
        direct_fraction={p: fracs.get(p, 0.0) for p in hub_choice},
        hub_choice=hub_choice,
    )
    return OracleResult(solution=solution, evaluated=evaluated, stats=stats)


def solve_no_hubs(
    instance: Instance,
    max_evaluations: float = MAX_EVALUATIONS,
    deadline: float | None = None,
) -> Solution:
    """Optimal pure port assignment with direct transport everywhere.

    Solved exactly by enumerating port assignments against the
    approximated objective (the same restricted problem the linearized
    model solves when all hub variables are fixed to zero); refuses when
    the assignment space exceeds the evaluation budget.
    """
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError(violations)

    z_space = _port_vector_count(instance)
    if z_space > max_evaluations:
        raise OracleLimitError(
            f"{z_space:.3g} port assignments exceed the budget of "
            f"{max_evaluations:.3g}; emit the restricted model instead",
            estimate=z_space,
        )
    kernel = _Kernel(instance)
    _, zvec = kernel.best_all_direct(deadline, "no-hub solve")
    return Solution(port_choice=dict(zip(kernel.pairs, zvec)))
