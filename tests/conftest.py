"""Shared fixtures: hand-built toy instances with hand-checkable costs."""

from __future__ import annotations

import dataclasses

import pytest

from hublocate import Instance, LandCostTable, NodeSets, SeaRate, Solution, generate


def make_toy_instance() -> Instance:
    """2 branches, 1 port, 1 destination; all numbers chosen for hand math.

    Land bands: volumes (0,10], (10,40], (40,80]; near row [20, 48, 80],
    far row [60, 144, 240].  Head volume is 8, so the approximated curve
    has breakpoints (8, 10, 40, 80).
    """
    return Instance(
        nodes=NodeSets(("B1", "B2"), ("S1",), ("T1",)),
        demand={("B1", "T1"): 6.0, ("B2", "T1"): 10.0},
        land_costs=LandCostTable(
            distance_breaks=(100.0, 1000.0),
            volume_breaks=(10.0, 40.0, 80.0),
            cost=((20.0, 48.0, 80.0), (60.0, 144.0, 240.0)),
        ),
        sea_rates={("S1", "T1"): SeaRate(fcl_per_container=500.0, nvocc_per_m3=20.0)},
        setup_cost={"B1": 50.0, "B2": 70.0},
        hub_consol_cost={"B1": 1.0, "B2": 1.2},
        port_consol_cost={"S1": 2.0},
        distance={
            ("B1", "B1"): 0.0, ("B1", "B2"): 30.0, ("B2", "B1"): 30.0,
            ("B2", "B2"): 0.0, ("B1", "S1"): 400.0, ("B2", "S1"): 420.0,
        },
        land_container_volume=80.0,
        name="toy",
    )


def doubled_costs(inst: Instance) -> Instance:
    """The instance with every cost parameter multiplied by 2."""
    land = inst.land_costs
    return dataclasses.replace(
        inst,
        land_costs=dataclasses.replace(
            land, cost=tuple(tuple(2.0 * c for c in row) for row in land.cost)
        ),
        sea_rates={
            rel: SeaRate(
                None if r.fcl_per_container is None else 2.0 * r.fcl_per_container,
                None if r.nvocc_per_m3 is None else 2.0 * r.nvocc_per_m3,
            )
            for rel, r in inst.sea_rates.items()
        },
        setup_cost={b: 2.0 * c for b, c in inst.setup_cost.items()},
        hub_consol_cost={b: 2.0 * c for b, c in inst.hub_consol_cost.items()},
        port_consol_cost={s: 2.0 * c for s, c in inst.port_consol_cost.items()},
        nvocc_penalty=2.0 * inst.nvocc_penalty,
    )


def make_merge_conflict_instance() -> Instance:
    """Three branches, one port, two destinations, tuned so the per-
    destination stage picks hub H1 for T1 and hub H2 for T2 while branch
    B1 ships to both; merging then assigns two hubs to (B1, S1)."""
    w = (1.0, 1.2, 1.4, 1.55, 1.7, 1.85)
    vol_breaks = (4.0, 8.0, 16.0, 28.0, 45.0, 80.0)
    near = tuple(round(30.0 * x, 2) for x in w)
    far = tuple(round(300.0 * x, 2) for x in w)
    branches = ("B1", "H1", "H2")
    distance = {}
    for b in branches:
        distance[(b, b)] = 0.0
        distance[(b, "S1")] = 500.0
    distance[("B1", "H1")] = distance[("H1", "B1")] = 10.0
    distance[("B1", "H2")] = distance[("H2", "B1")] = 12.0
    distance[("H1", "H2")] = distance[("H2", "H1")] = 15.0
    return Instance(
        nodes=NodeSets(branches, ("S1",), ("T1", "T2")),
        demand={
            ("B1", "T1"): 4.0, ("H1", "T1"): 20.0,
            ("B1", "T2"): 4.0, ("H2", "T2"): 20.0,
        },
        land_costs=LandCostTable(
            distance_breaks=(50.0, 600.0),
            volume_breaks=vol_breaks,
            cost=(near, far),
        ),
        sea_rates={
            ("S1", "T1"): SeaRate(fcl_per_container=1000.0, nvocc_per_m3=40.0),
            ("S1", "T2"): SeaRate(fcl_per_container=1000.0, nvocc_per_m3=40.0),
        },
        setup_cost={b: 40.0 for b in branches},
        hub_consol_cost={b: 0.5 for b in branches},
        port_consol_cost={"S1": 1.0},
        distance=distance,
        land_container_volume=80.0,
        name="merge-conflict",
    )


def feeder_load_on_a_break() -> tuple:
    """A generator instance and a solution whose feeder leg B01 -> B02 carries
    exactly the 8.123 land breakpoint: 9.34 of demand, direct share ``y``
    chosen so that ``(1.0 - y) * 9.34 == 8.123`` in floating point."""
    instance = generate(10, 3, 2, 1, 1.0, "consolidation_favorable")
    solution = Solution(
        port_choice={("B01", "T1"): "S1", ("B02", "T1"): "S1", ("B03", "T1"): "S1"},
        hubs=frozenset({"B02"}),
        direct_fraction={("B01", "S1"): 0.13029978586723762},
        hub_choice={("B01", "S1"): "B02"},
    )
    return instance, solution


@pytest.fixture
def toy_instance() -> Instance:
    return make_toy_instance()


@pytest.fixture
def merge_conflict_instance() -> Instance:
    return make_merge_conflict_instance()
