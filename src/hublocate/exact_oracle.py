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
a piece boundary of its approximated cost curve (plus 0, 1, and the
per-destination subset sums that merging heuristics produce), as
``splits.pair_fraction_candidates`` generates them:

  * shares whose three arcs are not shared with another routed pair are
    separable and minimized independently (exact);
  * two shares coupled through one common arc are solved by enumerating
    one share's own boundaries and exactly minimizing the other
    conditionally, in both orders (exact, since a pair can share at most
    one arc and optima sit on intersections of two boundaries);
  * larger coupled groups combine conditional coordinate descent with an
    exact pairwise polish over every coupled pair.

The objective is the approximated cost, the same one the linearized model
minimizes; the exact re-evaluation of the optimum is reported alongside.
Ties are broken toward the first configuration in enumeration order.
Each share's routing terms are priced per coupled component
(``_SplitProblem.component_cost``) rather than through
``pricing.cost_terms``, which would price whole solutions in the
innermost loop.

Three shortcuts leave every answer bit-identical:

  * a configuration is cut when its constant part (port and sea cost,
    set-up, direct arcs no routed share touches) exceeds the all-direct
    threshold or the best total found so far, whichever is lower.  Every
    validated cost is nonnegative and adding a nonnegative float never
    lowers a sum, so such a configuration's total exceeds the incumbent
    and could not have replaced it.  The port-vector and set-up cuts use
    the threshold alone, so the count of evaluated configurations does
    not depend on the incumbent;
  * a component's cost is memoized per tuple of its members' shares
    within one configuration.  The cost is a function of those shares
    alone, and it is summed term by term in one fixed order (member
    order, each member's direct arc, consolidation, then its feeder and
    port arcs not already summed), so a recomputation would give the same
    float;
  * whole component solves are cached per port assignment by their
    members and hubs, and hub choices per set of active pairs and hub set,
    within one call.
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
from .pricing import price_table
from .solution import CostBreakdown, Solution, evaluate_cost
from .splits import finish_fraction_candidates, fraction_candidate_set, routed_fraction_set
from .splits import subset_sums  # noqa: F401

DESCENT_ROUNDS = 25
POLISH_ROUNDS = 5

# Instance dimensions beyond which the oracle refuses outright.
MAX_BRANCHES = 6
MAX_PORTS = 4
MAX_DESTINATIONS = 4


@dataclass(frozen=True)
class OracleLimits:
    max_hub_set_size: int = 2
    max_evaluations: float = 1e8


@dataclass
class OracleStats:
    """Deterministic work counters of one ``enumerate_optimal`` call.

    ``port_vectors_cut`` counts the port assignments whose port and sea
    cost alone exceed the all-direct threshold, and ``hub_sets_cut`` the
    hub sets whose set-up cost takes a surviving assignment over it.
    Every evaluated configuration is either cut by its lower bound
    (``threshold_cuts`` above the all-direct threshold, ``incumbent_cuts``
    above the best total found so far but not the threshold) or solved
    (``solved_configurations``).  ``component_solves`` counts the coupled
    components whose shares were optimized rather than taken from the
    per-port-assignment cache, and ``cost_memo_hits`` the component costs
    answered from the memo of share vectors already priced.
    """

    port_vectors_cut: int = 0
    hub_sets_cut: int = 0
    threshold_cuts: int = 0
    incumbent_cuts: int = 0
    solved_configurations: int = 0
    component_solves: int = 0
    cost_memo_hits: int = 0


@dataclass
class OracleResult:
    solution: Solution
    cost: CostBreakdown  # approximated objective, the enumeration target
    exact_cost: CostBreakdown
    evaluated: int  # discrete configurations evaluated
    stats: OracleStats


class _Kernel:
    """Pre-resolved instance data for fast repeated configuration costing."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.B = list(instance.nodes.branches)
        self.S = list(instance.nodes.origin_ports)
        self.e = instance.setup_cost
        self.f = instance.hub_consol_cost
        self.g = instance.port_consol_cost
        self.prices = price_table(instance)
        self.curves = {(b, r): self.prices.curve(b, r) for b in self.B for r in self.B + self.S}
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

    def direct_land(self, vols: dict) -> dict:
        """Approximated land price of each arc in ``vols`` shipped all direct."""
        return {arc: land_cost_approx(self.curves[arc], v) for arc, v in vols.items()}

    def best_all_direct(self, deadline: float | None, what: str) -> tuple[float, tuple]:
        """Cheapest port assignment with every volume shipped direct, as
        (cost, port vector); the first minimum wins ties.  The deadline is
        checked every 256 vectors; `what` names the solver in the error."""
        best = None
        for i, zvec in enumerate(itertools.product(*self.options)):
            if i % 256 == 0:
                check_deadline(deadline, what)
            fixed, vols = self.fixed_cost(zvec)
            total = fixed + sum(self.direct_land(vols).values())
            if best is None or total < best[0]:
                best = (total, zvec)
        return best


class _Component:
    """One coupled group of routed pairs.

    ``plan`` prices the terms its members touch: one entry per member,
    ``(index, direct curve, volume, f[hub], arcs)``, where ``arcs`` holds
    the member's feeder and port arcs not already listed by an earlier
    member, each as ``(curve, base, ((rider index, rider volume), ...))``.
    ``memo`` maps a tuple of member shares to the cost already priced.
    """

    __slots__ = ("members", "plan", "memo")

    def __init__(self, members: tuple, plan: tuple):
        self.members = members
        self.plan = plan
        self.memo: dict = {}


class _SplitProblem:
    """Continuous share optimization for one discrete configuration.

    Variables are the routed pairs; the cost decomposes into a constant,
    a per-variable part (direct arc plus consolidation), and per-arc terms
    for feeder and hub-to-port arcs, each depending on the subset of
    variables riding that arc.  The constructor computes only what the
    bound needs (the constant); ``solve`` builds the components.
    """

    def __init__(self, kernel: _Kernel, vols, setup, assign, dests_via, direct_land):
        self.kernel = kernel
        self.vols = vols
        self.dests_via = dests_via
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

    def _component(self, members: tuple) -> _Component:
        """The pricing plan of one component; records each member's two
        arcs as (arc, riders, base) in ``arcs_of`` for the candidates."""
        kernel = self.kernel
        curves = kernel.curves
        vols = self.vols
        index = {p: i for i, p in enumerate(members)}
        seen_arcs = set()
        plan = []
        for i, p in enumerate(members):
            b, s = p
            h = self.hub_of[p]
            # Hub-to-port arcs carry the hub's own direct volume as a base.
            port_base = vols.get((h, s), 0.0) if (h, s) not in self.hub_of else 0.0
            self.arcs_of[p] = entries = (
                ((b, h), self.feeder_groups[(b, h)], 0.0),
                ((h, s), self.port_groups[(h, s)], port_base),
            )
            arcs = []
            for arc, riders, base in entries:
                if arc in seen_arcs:
                    continue
                seen_arcs.add(arc)
                arcs.append((curves[arc], base, tuple((index[q], vols[q]) for q in riders)))
            plan.append((i, curves[p], vols[p], kernel.f[h], tuple(arcs)))
        return _Component(members, tuple(plan))

    def component_cost(self, comp: _Component, fracs) -> float:
        """Cost of the terms touched by one component's variables, summed
        in member order; each share vector is priced once."""
        ys = tuple([fracs[p] for p in comp.members])
        total = comp.memo.get(ys)
        if total is not None:
            self.stats.cost_memo_hits += 1
            return total
        total = 0.0
        for i, curve, v, f_h, arcs in comp.plan:
            direct = ys[i] * v
            if direct > 0.0:
                total += land_cost_approx(curve, direct)
            total += f_h * (v - direct)
            for arc_curve, base, riders in arcs:
                routed = 0.0
                for j, vol in riders:
                    routed += (1.0 - ys[j]) * vol
                load = base + routed
                if load > 0.0:
                    total += land_cost_approx(arc_curve, load)
        comp.memo[ys] = total
        return total

    def _base(self, p, entry, fracs) -> float:
        """Volume the other riders of one of p's arcs put on it at `fracs`
        (a share missing from `fracs` counts as 0)."""
        _, riders, base = entry
        for q in riders:
            if q != p:
                base += (1.0 - fracs.get(q, 0.0)) * self.vols[q]
        return base

    def candidate_set(self, p, fracs, skip_arc=None) -> set:
        """Unfinished candidate shares for p, other variables at `fracs`;
        `skip_arc`, when given, contributes no boundaries."""
        curves = self.kernel.curves
        routed = [
            (curves[entry[0]], self._base(p, entry, fracs))
            for entry in self.arcs_of[p]
            if entry[0] != skip_arc
        ]
        return fraction_candidate_set(curves[p], routed, self.vols[p], self.dests_via.get(p))

    def shared_arc(self, p, q):
        """The one arc two routed pairs can share, or None."""
        if self.hub_of[p] != self.hub_of[q]:
            return None
        if p[0] == q[0]:
            return (p[0], self.hub_of[p])
        if p[1] == q[1]:
            return (self.hub_of[p], p[1])
        return None

    def _minimize_one(self, comp, fracs, p) -> bool:
        """Exact conditional minimization of one share; True on improvement."""
        y0 = fracs[p]
        best = self.component_cost(comp, fracs)
        best_y = y0
        for y in finish_fraction_candidates(self.candidate_set(p, fracs)):
            if abs(y - y0) <= 1e-15:
                continue
            fracs[p] = y
            c = self.component_cost(comp, fracs)
            if c < best - 1e-12 * max(1.0, abs(best)):
                best, best_y = c, y
        fracs[p] = best_y
        return best_y != y0

    def _solve_pair(self, pair, comp, context=None) -> dict:
        """Exact two-variable solve: a pair shares at most one arc, so every
        boundary intersection has one variable on its own boundary.

        With `context` the pair is re-optimized inside a larger component
        whose other shares stay at their context values.  The inner
        share's candidates from everything but the shared arc do not
        depend on the outer share, so they are built once per order.
        """
        p, q = pair
        arc = self.shared_arc(p, q)
        arc_curve = self.kernel.curves[arc]
        fracs = dict(context) if context else {}
        best = None  # (cost, outer, y_out, inner, y_in)
        for outer, inner in ((p, q), (q, p)):
            outer_cands = finish_fraction_candidates(
                self.candidate_set(outer, fracs, skip_arc=arc)
            )
            fixed = self.candidate_set(inner, fracs, skip_arc=arc)
            shared = next(entry for entry in self.arcs_of[inner] if entry[0] == arc)
            volume = self.vols[inner]
            for y_out in outer_cands:
                fracs[outer] = y_out
                base = self._base(inner, shared, fracs)
                inner_cands = finish_fraction_candidates(
                    fixed | routed_fraction_set(((arc_curve, base),), volume)
                )
                for y_in in inner_cands:
                    fracs[inner] = y_in
                    c = self.component_cost(comp, fracs)
                    if best is None or c < best[0] - 1e-12 * max(1.0, abs(best[0])):
                        best = (c, outer, y_out, inner, y_in)
        _, outer, y_out, inner, y_in = best
        out = dict(context) if context else {}
        out[outer] = y_out
        out[inner] = y_in
        return out

    def _solve_group(self, comp) -> dict:
        """Conditional descent plus pairwise polish for 3+ coupled shares.

        The descent handles each share exactly given the others; the
        polish re-solves every coupled pair exactly inside the group, so
        only optima needing three simultaneously off-boundary shares on
        three interlocking arcs could be missed.
        """
        fracs = {p: 0.0 for p in comp.members}
        for _ in range(DESCENT_ROUNDS):
            improved = False
            for p in comp.members:
                improved |= self._minimize_one(comp, fracs, p)
            if not improved:
                break
        for _ in range(POLISH_ROUNDS):
            improved = False
            for p, q in itertools.combinations(comp.members, 2):
                if self.shared_arc(p, q) is None:
                    continue
                trial = self._solve_pair((p, q), comp, context=fracs)
                cur = self.component_cost(comp, fracs)
                c = self.component_cost(comp, trial)
                if c < cur - 1e-12 * max(1.0, abs(cur)):
                    fracs, improved = trial, True
            if not improved:
                break
        return fracs

    def _solve_component(self, comp) -> tuple[dict, float]:
        """Optimal shares of one component from all routed (share 0), and
        their cost: exact for one and two members, descent and polish for
        more."""
        members = comp.members
        if len(members) == 1:
            sub = {members[0]: 0.0}
            self._minimize_one(comp, sub, members[0])
        elif len(members) == 2:
            sub = self._solve_pair(members, comp)
        else:
            sub = self._solve_group(comp)
        return sub, self.component_cost(comp, sub)

    def solve(self, cache: dict, stats: OracleStats) -> tuple[dict, float]:
        """Optimal shares and routing cost; component results are memoized
        in `cache` per port assignment (they do not depend on the rest of
        the configuration)."""
        self.stats = stats
        self.arcs_of: dict = {}
        fracs = {}
        total = self.const
        for members in self._component_members():
            key = tuple((p, self.hub_of[p]) for p in members)
            hit = cache.get(key)
            if hit is None:
                stats.component_solves += 1
                hit = cache[key] = self._solve_component(self._component(members))
            sub, cost = hit
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


def hub_subsets(branches, max_size: int):
    """Yield every hub set of at most ``max_size`` branches, smallest
    first, each size in ``itertools.combinations`` order.  A generator, so
    a caller that checks a deadline per set never waits for the whole
    list."""
    for k in range(0, min(max_size, len(branches)) + 1):
        yield from itertools.combinations(branches, k)


def estimate_configurations(instance: Instance, limits: OracleLimits) -> float:
    """Upper bound on the discrete configurations the oracle would visit."""
    z_space = _port_vector_count(instance)
    n_b = len(instance.nodes.branches)
    active = {b for (b, _) in instance.positive_pairs()}
    p = min(len(active) * len(instance.nodes.origin_ports), len(instance.positive_pairs()))
    y_space = 0.0
    for k in range(0, min(limits.max_hub_set_size, n_b) + 1):
        y_space += math.comb(n_b, k) * max(0.0, _valid_assignment_count(k, p))
    return z_space * max(1.0, y_space)


def _check_limits(instance: Instance, limits: OracleLimits) -> None:
    n_b = len(instance.nodes.branches)
    n_s = len(instance.nodes.origin_ports)
    n_t = len(instance.nodes.destination_ports)
    if n_b > MAX_BRANCHES or n_s > MAX_PORTS or n_t > MAX_DESTINATIONS:
        raise OracleLimitError(
            f"instance size {n_b} branches / {n_s} ports / {n_t} destinations exceeds "
            f"oracle limits ({MAX_BRANCHES}/{MAX_PORTS}/{MAX_DESTINATIONS})"
        )
    est = estimate_configurations(instance, limits)
    if est > limits.max_evaluations:
        raise OracleLimitError(
            f"estimated {est:.3g} configurations exceed the budget of "
            f"{limits.max_evaluations:.3g}",
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
    limits: OracleLimits | None = None,
    deadline: float | None = None,
) -> OracleResult:
    """Globally minimize the approximated cost by exhaustive enumeration.

    Refuses instances larger than ``MAX_BRANCHES``/``MAX_PORTS``/
    ``MAX_DESTINATIONS`` or whose enumeration estimate exceeds the
    configured budget.  Ties go to the first configuration in enumeration
    order.  ``deadline`` (a ``time.monotonic()`` value) is checked every
    256 vectors of the all-direct pass, then before every port vector and
    every configuration.
    """
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError(violations)
    limits = limits or OracleLimits()
    _check_limits(instance, limits)

    kernel = _Kernel(instance)
    hub_sets = list(hub_subsets(kernel.B, limits.max_hub_set_size))
    setup_of = {hubs: sum(kernel.e[h] for h in hubs) for hubs in hub_sets}

    # All-direct optimum over every port assignment.  Configurations whose
    # lower bound strictly exceeds it cannot be optimal.
    threshold, _ = kernel.best_all_direct(deadline, "oracle")

    stats = OracleStats()
    best = None  # (cost, payload)
    limit = threshold  # min(threshold, best total): a larger lower bound cuts
    evaluated = 0
    assignments: dict = {}  # (active pairs, hubs) -> hub choices
    for zvec in itertools.product(*kernel.options):
        check_deadline(deadline, "oracle")
        fixed, vols = kernel.fixed_cost(zvec)
        if fixed > threshold:
            stats.port_vectors_cut += 1
            continue
        active = tuple(sorted(vols))
        direct_land = kernel.direct_land(vols)
        dests_via: dict = {}
        for (b, t), s in zip(kernel.pairs, zvec):
            dests_via.setdefault((b, s), []).append(instance.demand[(b, t)])
        comp_cache: dict = {}
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
                problem = _SplitProblem(kernel, vols, setup, assign, dests_via, direct_land)
                lower = fixed + problem.const
                if lower > limit:
                    if lower > threshold:
                        stats.threshold_cuts += 1
                    else:
                        stats.incumbent_cuts += 1
                    continue
                stats.solved_configurations += 1
                fracs, routing = problem.solve(comp_cache, stats)
                total = fixed + routing
                if best is None or total < best[0]:
                    best = (total, (zvec, hubs, assign, fracs))
                    limit = min(threshold, total)

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
    return OracleResult(
        solution=solution,
        cost=evaluate_cost(instance, solution, "approx"),
        exact_cost=evaluate_cost(instance, solution, "exact"),
        evaluated=evaluated,
        stats=stats,
    )


def solve_no_hubs(
    instance: Instance,
    limits: OracleLimits | None = None,
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
    limits = limits or OracleLimits()

    z_space = _port_vector_count(instance)
    if z_space > limits.max_evaluations:
        raise OracleLimitError(
            f"{z_space:.3g} port assignments exceed the budget of "
            f"{limits.max_evaluations:.3g}; emit the restricted model instead",
            estimate=z_space,
        )
    kernel = _Kernel(instance)
    _, zvec = kernel.best_all_direct(deadline, "no-hub solve")
    return Solution(port_choice=dict(zip(kernel.pairs, zvec)))
