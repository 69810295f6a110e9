"""Seeded synthetic solutions and solver-values files for the model workload.

A synthetic solution stands in for MILP solver output: the benchmark
encodes it with the public model API, writes the values in the plain
``name value`` form that ``hublocate decode`` reads, and checks that the
decoded solution is the one it started from.
"""

from __future__ import annotations

import random

from hublocate import Solution, build_linearized_model, encode_solution
from hublocate.milp import format_values_text, parse_values_text
from hublocate.solution import port_volumes


def synthetic_solution(instance, rng: random.Random) -> Solution:
    """Feasible solution with open hubs and partial hub routing.

    Each shipment takes a random usable origin port with an FCL rate.
    Shipments to destinations without one are packed into the NVOCC cap
    of their relations, so that the solution rarely pays the NVOCC
    overflow penalty where it could avoid it.  One or two hubs open; about half of the other
    branches' (branch, port) connections route via a random open hub with
    a direct fraction strictly between 0 and 1, and at least one does.
    """
    port_choice = {}
    nvocc_only = []
    for (b, t) in instance.positive_pairs():
        usable = instance.usable_ports(t)
        with_fcl = [s for s in usable if instance.sea_rates[(s, t)].fcl_per_container is not None]
        if with_fcl:
            port_choice[(b, t)] = rng.choice(with_fcl)
        else:
            nvocc_only.append((b, t))
    # Best fit, largest shipments first, into the NVOCC cap of each relation.
    load: dict = {}
    for (b, t) in sorted(nvocc_only, key=lambda pair: -instance.demand[pair]):
        v = instance.demand[(b, t)]
        usable = instance.usable_ports(t)
        room = {s: instance.nvocc_cap - load.get((s, t), 0.0) for s in usable}
        fits = [s for s in usable if room[s] >= v]
        s = min(fits, key=room.get) if fits else max(usable, key=room.get)
        load[(s, t)] = load.get((s, t), 0.0) + v
        port_choice[(b, t)] = s

    branches = list(instance.nodes.branches)
    hubs = sorted(rng.sample(branches, k=min(len(branches) - 1, rng.randint(1, 2))))
    eligible = [
        pair for pair, v in sorted(port_volumes(instance, port_choice).items())
        if pair[0] not in hubs and v > 0.0
    ]
    if not hubs or not eligible:
        raise ValueError(f"{instance.name}: too small for a hub-routed solution")
    routed = [pair for pair in eligible if rng.random() < 0.5] or [eligible[0]]
    hub_choice = {pair: rng.choice(hubs) for pair in routed}
    fractions = {pair: round(rng.uniform(0.05, 0.95), 4) for pair in routed}
    return Solution(
        port_choice=port_choice,
        hubs=frozenset(hubs),
        direct_fraction=fractions,
        hub_choice=hub_choice,
    )


def write_values(instance, solution: Solution, path) -> float:
    """Build the instance's model, encode the solution, write the values file.

    Returns the model objective at the values as ``hublocate decode`` will
    read them back, for checking the cost of the decoded solution.
    """
    model = build_linearized_model(instance)
    text = format_values_text(encode_solution(model, solution))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return model.objective_value(parse_values_text(text))
