"""Arc price table and move-local re-pricing against the full evaluator."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from solgen import random_feasible_solution

from hublocate import (
    Instance,
    LandCostTable,
    NodeSets,
    SeaRate,
    evaluate_cost,
    generate,
    land_breakpoints,
    land_cost_approx,
    land_cost_exact,
    sea_cost,
)
from hublocate.heuristics import SearchStats, _SearchState
from hublocate.network_model import validate_instance
from hublocate.pricing import price_table, solution_flows
from hublocate.solution import Solution

BRANCHES = ("B1", "B2", "B3", "B4")
PAIRS = [(b, t) for b in BRANCHES for t in ("T1", "T2")]
# Sums of these land exactly on the volume breaks 10, 40 and 80 and on the
# head volume 8 of the approximated curve; 3.3 + 6.7 is exactly 10.0, but
# adding and then subtracting 6.1 leaves 10.000000000000002.
VOLUMES = (0.0, 2.5, 4.0, 5.0, 7.5, 10.0, 20.0, 30.0, 40.0, 3.3, 6.7, 6.1)


def break_instance(volumes) -> Instance:
    branches = BRANCHES
    distance = {}
    for i, a in enumerate(branches):
        distance[(a, "S1")] = 300.0 + 40.0 * i
        distance[(a, "S2")] = 90.0 + 15.0 * i
        for j, b in enumerate(branches):
            distance[(a, b)] = 0.0 if a == b else 20.0 + 70.0 * abs(i - j)
    return Instance(
        nodes=NodeSets(branches, ("S1", "S2"), ("T1", "T2")),
        demand=dict(zip(PAIRS, volumes)),
        land_costs=LandCostTable(
            distance_breaks=(100.0, 1000.0),
            volume_breaks=(10.0, 40.0, 80.0),
            cost=((20.0, 48.0, 80.0), (60.0, 144.0, 240.0)),
        ),
        sea_rates={
            ("S1", "T1"): SeaRate(fcl_per_container=500.0, nvocc_per_m3=20.0),
            ("S2", "T1"): SeaRate(fcl_per_container=450.0, nvocc_per_m3=25.0),
            ("S1", "T2"): SeaRate(nvocc_per_m3=30.0),
            ("S2", "T2"): SeaRate(fcl_per_container=700.0),
        },
        setup_cost={"B1": 50.0, "B2": 70.0, "B3": 40.0, "B4": 90.0},
        hub_consol_cost={"B1": 1.0, "B2": 1.2, "B3": 0.5, "B4": 2.0},
        port_consol_cost={"S1": 2.0, "S2": 1.5},
        distance=distance,
        land_container_volume=80.0,
        sea_container_volume=55.0,
        nvocc_cap=40.0,
        name="breaks",
    )


def apply_random_move(state: _SearchState, rng: random.Random) -> None:
    """One local-search move through the state's primitives."""
    inst = state.instance
    kind = rng.choice(("port", "route", "fraction", "toggle"))
    if kind == "port":
        b, t = rng.choice(inst.positive_pairs())
        state.set_port(b, t, rng.choice(inst.usable_ports(t)))
    elif kind == "route":
        pairs = sorted(p for p in state.flows.vols if p[0] not in state.hubs)
        if not pairs:
            return
        pair = rng.choice(pairs)
        hubs = sorted(state.hubs - {pair[0]})
        hub = rng.choice([None] + hubs)
        state.set_route(pair, hub, None if hub is None else rng.choice((0.0, 0.25, 0.5)))
    elif kind == "fraction":
        if state.choices:
            pair = rng.choice(sorted(state.choices))
            state.set_fraction(pair, rng.choice((0.0, 0.25, 0.5, 0.75, 1.0, 0.3)))
    else:
        h = rng.choice(inst.nodes.branches)
        if h in state.hubs:
            state.close_hub(h)
            for key in [k for k, v in state.choices.items() if v == h]:
                state.set_route(key, None)
        else:
            state.open_hub(h)
            for key in [k for k in state.choices if k[0] == h]:
                state.set_route(key, None)


@settings(max_examples=150, deadline=None)
@given(
    volumes=st.lists(st.sampled_from(VOLUMES), min_size=len(PAIRS), max_size=len(PAIRS)),
    seed=st.integers(0, 2**16),
)
@example(volumes=[3.3, 0.0, 6.7, 0.0, 0.0, 10.0, 6.1, 7.5], seed=7)
def test_move_delta_matches_full_evaluation(volumes, seed):
    inst = break_instance(volumes)
    if not inst.positive_pairs():
        return
    rng = random.Random(seed)
    state = _SearchState(inst, random_feasible_solution(inst, rng), SearchStats())
    for _ in range(3):
        before = evaluate_cost(inst, state.as_solution(), "approx").total
        assert state.total() == before
        apply_random_move(state, rng)
        delta = state.refresh()
        after_solution = state.as_solution()
        after = evaluate_cost(inst, after_solution, "approx").total
        scale = max(1.0, abs(before), abs(after))
        assert delta == pytest.approx(after - before, rel=0.0, abs=1e-9 * scale)
        assert state.total() == after
        assert state.flows == solution_flows(
            inst, after_solution.port_choice, after_solution.fraction,
            after_solution.hub_choice,
        )


def _via_from_choices(state) -> dict:
    via: dict = {}
    for pair, h in sorted(state.choices.items()):
        via.setdefault(h, []).append(pair)
    return via


@settings(max_examples=60, deadline=None)
@given(
    volumes=st.lists(st.sampled_from(VOLUMES), min_size=len(PAIRS), max_size=len(PAIRS)),
    seed=st.integers(0, 2**16),
)
def test_member_lists_follow_the_routes(volumes, seed):
    # refresh re-sums hub loads from state.via, so it must list the pairs
    # routed via each hub, in sorted order, after moves and rollbacks.
    inst = break_instance(volumes)
    if not inst.positive_pairs():
        return
    rng = random.Random(seed)
    state = _SearchState(inst, random_feasible_solution(inst, rng), SearchStats())
    for _ in range(6):
        token = state.save()
        apply_random_move(state, rng)
        state.refresh()
        if rng.random() < 0.5:
            state.restore(token)
        kept = {h: list(pairs) for h, pairs in state.via.items() if pairs}
        assert kept == _via_from_choices(state)
        assert all(list(pairs) == sorted(pairs) for pairs in state.via.values())


def test_load_back_on_a_break_is_resummed():
    inst = break_instance([3.3, 0.0, 6.7, 0.0, 0.0, 0.0, 6.1, 0.0])
    start = Solution(
        port_choice={("B1", "T1"): "S2", ("B2", "T1"): "S2", ("B4", "T1"): "S2"},
        hubs=frozenset({"B3"}),
        direct_fraction={("B1", "S2"): 0.0, ("B2", "S2"): 0.0},
        hub_choice={("B1", "S2"): "B3", ("B2", "S2"): "B3"},
    )
    state = _SearchState(inst, start, SearchStats())
    assert state.flows.port_arc[("B3", "S2")] == 10.0
    state.set_route(("B4", "S2"), "B3", 0.0)
    there = state.refresh()
    state.set_route(("B4", "S2"), None)
    back = state.refresh()
    # 10.0 + 6.1 - 6.1 would be 10.000000000000002, one price step up.
    assert state.flows.port_arc[("B3", "S2")] == 10.0
    assert state.total() == evaluate_cost(inst, start, "approx").total
    assert there + back == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    volumes=st.lists(st.sampled_from(VOLUMES), min_size=len(PAIRS), max_size=len(PAIRS)),
    seed=st.integers(0, 2**16),
)
def test_nested_rollback_restores_each_token(volumes, seed):
    # Token A, a move, token B, a second move, then B and A restored: the
    # pattern of _open_hub's inner trials inside a local-search candidate.
    inst = break_instance(volumes)
    if not inst.positive_pairs():
        return
    rng = random.Random(seed)
    state = _SearchState(inst, random_feasible_solution(inst, rng), SearchStats())

    def at_token():
        decisions = (dict(state.ports), set(state.hubs), dict(state.choices), dict(state.fracs))
        return state.save(), decisions, state.total()

    outer = at_token()
    apply_random_move(state, rng)
    state.refresh()
    inner = at_token()
    apply_random_move(state, rng)
    state.refresh()
    for token, decisions, total in (inner, outer):
        state.restore(token)
        assert (state.ports, state.hubs, state.choices, state.fracs) == decisions
        assert state.flows == solution_flows(inst, state.ports, state.fraction, state.choices)
        assert state.total() == total
    # The restored state prices further moves like a fresh one.
    apply_random_move(state, rng)
    state.refresh()
    assert state.flows == solution_flows(inst, state.ports, state.fraction, state.choices)


def test_rollback_restores_flows():
    inst = break_instance([5.0, 0.0, 5.0, 0.0, 30.0, 10.0, 2.5, 7.5])
    rng = random.Random(3)
    state = _SearchState(inst, random_feasible_solution(inst, rng), SearchStats())
    flows = solution_flows(inst, state.ports, state.fraction, state.choices)
    for _ in range(20):
        token = state.save()
        apply_random_move(state, rng)
        state.refresh()
        state.restore(token)
        assert state.flows == flows


def test_table_prices_equal_cost_model():
    inst = generate(4, 6, 3, 3, 0.6, "uniform")
    table = price_table(inst)
    assert price_table(inst) is table  # one table per instance
    land = inst.land_costs
    for (a, r), dist in sorted(inst.distance.items()):
        curve = land_breakpoints(land, dist)
        loads = (0.0, 0.3, 7.0, curve.breakpoints[0], *land.volume_breaks,
                 land.container_volume, 2.5 * land.container_volume)
        for v in loads:
            for _ in range(2):  # priced, then read from the memo
                assert table.land_exact(a, r, v) == land_cost_exact(land, dist, v)
                assert table.land_approx(a, r, v) == land_cost_approx(curve, v)
    for (s, t), rate in sorted(inst.sea_rates.items()):
        for w in (0.0, 3.0, 41.0, 120.0):
            price = sea_cost(rate, w, inst.sea_container_volume, inst.nvocc_cap,
                             inst.nvocc_penalty)[0]
            assert table.sea(s, t, w) == price
            assert table.sea(s, t, w) == price  # memoized value


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rate_is_the_least_price_per_m3_up_to_the_load(data):
    container = data.draw(st.floats(1.0, 100.0))
    inner = data.draw(st.lists(st.floats(0.01, 0.99), max_size=4, unique=True))
    breaks = tuple(sorted({round(container * u, 6) for u in inner})) + (container,)
    rows = tuple(
        tuple(sorted(data.draw(st.floats(0.5, 500.0)) for _ in breaks)) for _ in range(2)
    )
    inst = dataclasses.replace(
        break_instance([5.0] * len(PAIRS)),
        land_costs=LandCostTable((100.0, 1000.0), breaks, rows),
        land_container_volume=container,
    )
    assert not validate_instance(inst)  # non-negative, monotone rows
    table = price_table(inst)
    a, r = data.draw(st.sampled_from(sorted(inst.distance)))
    X = data.draw(st.floats(1e-3, 3.0 * container))
    rate = table.rate(a, r, X)
    assert table.rate(a, r, X) == rate  # read from the memo

    curve = table.curve(a, r)
    xs = data.draw(st.lists(st.floats(1e-6, 1.0), max_size=10))
    loads = [
        n * container + w for n in range(3) for w in curve.breakpoints
        if n * container + w <= X
    ]
    for x in loads + [X] + [X * u for u in xs]:
        assert rate <= table.land_approx(a, r, x) / x * (1.0 + 1e-12)
