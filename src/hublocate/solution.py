"""Decision encoding, feasibility checking, and the six-term cost evaluator.

A solution fixes the origin port per (branch, destination) pair, the set
of hub branches, and per (branch, origin port) pair the share of volume
going direct plus the hub carrying the remainder.  Feasibility mirrors
the model constraints:

  C7   every positive-demand pair picks exactly one usable origin port
  C8   at most one hub per (branch, origin port) pair
  C9   a direct share below 1 requires a hub choice
  C10  chosen hubs must be open
  C11  open hubs ship their own volume direct (and carry no hub choice;
       the linearized model's onehub_ rows state C8 and C11 together)

The evaluator reproduces the six objective terms: hub set-up, hub
consolidation, port consolidation, branch-to-port land legs (which also
carry hub-to-port flow), branch-to-hub land legs, and sea transport.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# Not called here since pricing goes through hublocate.pricing; kept as
# attributes of this module because perfbench's tracer hooks them here.
from .cost_model import (  # noqa: F401
    land_breakpoints,
    land_cost_approx,
    land_cost_exact,
    sea_cost,
)
from .errors import InfeasibleSolutionError, InstanceFormatError, UnknownNodeError
from .network_model import Instance, put_record, read_json, record_key
from .pricing import cost_terms, demand_volumes, solution_flows

SOLUTION_SCHEMA = "hublocate-solution-1"


@dataclass(frozen=True)
class Solution:
    """One full set of decisions.

    port_choice maps positive-demand (branch, destination) pairs to the
    chosen origin port.  direct_fraction holds the direct share per
    (branch, origin port); missing entries default to 1 (all direct).
    hub_choice holds the consolidating hub per (branch, origin port);
    canonical solutions carry fraction entries exactly for the pairs with
    a hub choice.
    """

    port_choice: dict  # (b, t) -> s
    hubs: frozenset = frozenset()
    direct_fraction: dict = field(default_factory=dict)  # (b, s) -> y in [0, 1]
    hub_choice: dict = field(default_factory=dict)  # (b, s) -> h

    def fraction(self, b: str, s: str) -> float:
        return self.direct_fraction.get((b, s), 1.0)

    def approx_equal(self, other: "Solution") -> bool:
        """Equality up to 1e-9 on each direct fraction."""
        if (
            self.port_choice != other.port_choice
            or self.hubs != other.hubs
            or set(self.hub_choice) != set(other.hub_choice)
            or any(self.hub_choice[k] != other.hub_choice[k] for k in self.hub_choice)
            or set(self.direct_fraction) != set(other.direct_fraction)
        ):
            return False
        return all(
            abs(v - other.direct_fraction[k]) <= 1e-9 for k, v in self.direct_fraction.items()
        )


@dataclass(frozen=True)
class ConstraintViolation:
    constraint: str  # C7 .. C11
    subject: tuple
    message: str


@dataclass(frozen=True)
class CostBreakdown:
    """The six objective terms plus their exact floating sum."""

    setup: float
    hub_consolidation: float
    port_consolidation: float
    land_branch_to_port: float
    land_branch_to_hub: float
    sea: float
    total: float

    TERMS = (
        "setup",
        "hub_consolidation",
        "port_consolidation",
        "land_branch_to_port",
        "land_branch_to_hub",
        "sea",
    )


def port_volumes(instance: Instance, port_choice: dict) -> dict:
    """(b, s) -> total demand routed from b via s, positive entries only."""
    return demand_volumes(instance, port_choice)[0]


def check_feasibility(instance: Instance, solution: Solution) -> list[ConstraintViolation]:
    """Every violated constraint with its indices; feasible iff empty.

    Unknown node references are structural errors (UnknownNodeError), not
    constraint violations.
    """
    branches = set(instance.nodes.branches)
    ports = set(instance.nodes.origin_ports)
    dests = set(instance.nodes.destination_ports)

    for (b, t), s in solution.port_choice.items():
        if b not in branches or t not in dests or s not in ports:
            raise UnknownNodeError(f"port choice ({b}, {t}) -> {s} references unknown nodes")
    for (b, s), y in solution.direct_fraction.items():
        if b not in branches or s not in ports:
            raise UnknownNodeError(f"direct fraction references unknown pair ({b}, {s})")
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"direct fraction ({b}, {s}) = {y} outside [0, 1]")
    for (b, s), h in solution.hub_choice.items():
        if b not in branches or s not in ports or h not in branches:
            raise UnknownNodeError(f"hub choice ({b}, {s}) -> {h} references unknown nodes")
    for h in solution.hubs:
        if h not in branches:
            raise UnknownNodeError(f"hub {h} is not a branch")

    out: list[ConstraintViolation] = []
    for (b, t) in instance.positive_pairs():
        s = solution.port_choice.get((b, t))
        if s is None:
            out.append(ConstraintViolation(
                "C7", (b, t), f"no origin port chosen for shipment ({b}, {t})"
            ))
        elif (s, t) not in instance.sea_rates:
            out.append(ConstraintViolation(
                "C7", (b, t), f"origin port {s} has no sea rate toward {t}"
            ))

    for (b, s), y in sorted(solution.direct_fraction.items()):
        if y < 1.0 and (b, s) not in solution.hub_choice:
            out.append(ConstraintViolation(
                "C9", (b, s), f"direct share {y} < 1 but no hub chosen for ({b}, {s})"
            ))

    for (b, s), h in sorted(solution.hub_choice.items()):
        if h == b:
            out.append(ConstraintViolation(
                "C10", (b, s, h), f"branch {b} cannot use itself as hub"
            ))
        elif h not in solution.hubs:
            out.append(ConstraintViolation(
                "C10", (b, s, h), f"chosen hub {h} for ({b}, {s}) is not open"
            ))

    for h in sorted(solution.hubs):
        for s in instance.nodes.origin_ports:
            if solution.fraction(h, s) < 1.0:
                out.append(ConstraintViolation(
                    "C11", (h, s), f"hub {h} must ship direct to {s}"
                ))
            if (h, s) in solution.hub_choice:
                out.append(ConstraintViolation(
                    "C11", (h, s), f"hub {h} cannot route via another hub toward {s}"
                ))

    return sorted(out, key=lambda v: (v.constraint, v.subject))


def evaluate_cost(instance: Instance, solution: Solution, mode: str = "exact") -> CostBreakdown:
    """Compute the six cost terms for a feasible solution.

    mode="exact" prices land legs from the raw tariff table; mode="approx"
    uses the linearized curves and therefore matches the MILP objective at
    the encoded assignment.  Sea legs always use the exact sea cost.
    """
    if mode not in ("exact", "approx"):
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    report = check_feasibility(instance, solution)
    if report:
        raise InfeasibleSolutionError(report)

    flows = solution_flows(
        instance, solution.port_choice, solution.fraction, solution.hub_choice
    )
    terms = cost_terms(instance, flows, solution.hubs, mode)
    return CostBreakdown(*terms, total=sum(terms))


def hub_volume_share(instance: Instance, solution: Solution) -> float:
    """Share of total shipment volume that is routed via a hub, in [0, 1]."""
    total = instance.total_demand()
    if total <= 0.0:
        return 0.0
    routed = sum(
        (1.0 - solution.fraction(b, s)) * v
        for (b, s), v in port_volumes(instance, solution.port_choice).items()
    )
    return routed / total


# ---------------------------------------------------------------------------
# Solution file format (JSON, canonical ordering)


def solution_to_json(solution: Solution) -> str:
    doc = {
        "schema": SOLUTION_SCHEMA,
        "port_choice": [
            {"branch": b, "destination": t, "origin": s}
            for (b, t), s in sorted(solution.port_choice.items())
        ],
        "hubs": sorted(solution.hubs),
        "direct_fraction": [
            {"branch": b, "origin": s, "fraction": y}
            for (b, s), y in sorted(solution.direct_fraction.items())
        ],
        "hub_choice": [
            {"branch": b, "origin": s, "hub": h}
            for (b, s), h in sorted(solution.hub_choice.items())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_solution(solution: Solution, path) -> None:
    Path(path).write_text(solution_to_json(solution), encoding="utf-8")


def _records(doc: dict, section: str, ids: tuple, number: str | None = None) -> dict:
    """One section's records as a map from their key, the first two
    ``ids`` fields (strings), to the third one or, when given, to the
    ``number`` field (a direct share in [0, 1]); a key may occur once."""
    recs = doc.get(section, [])
    if not isinstance(recs, list):
        raise InstanceFormatError(
            f"section {section!r} must be a list", code="BAD_TYPE", section=section
        )
    out: dict = {}
    for rec in recs:
        row = record_key(rec, ids, section)
        if number is not None:
            y = rec.get(number)
            if isinstance(y, bool) or not isinstance(y, (int, float)) or not 0.0 <= y <= 1.0:
                raise InstanceFormatError(
                    f"{section} record {row} needs a {number!r} in [0, 1], got {y!r}",
                    code="BAD_RECORD", section=section,
                )
            row += (float(y),)
        put_record(out, row[:2], row[2], section)
    return out


def load_solution(path) -> Solution:
    """Read a solution file; every defect of the file is an InstanceFormatError."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InstanceFormatError("a solution file must hold a JSON object", code="BAD_TYPE")
    if doc.get("schema") != SOLUTION_SCHEMA:
        raise InstanceFormatError(
            f"unsupported solution schema {doc.get('schema')!r}", code="SCHEMA_VERSION"
        )
    hubs = doc.get("hubs", [])
    if not isinstance(hubs, list) or not all(isinstance(h, str) for h in hubs):
        raise InstanceFormatError(
            "hubs must be a list of strings", code="BAD_TYPE", section="hubs"
        )
    listed: dict = {}
    for h in hubs:
        put_record(listed, h, None, "hubs")
    return Solution(
        port_choice=_records(doc, "port_choice", ("branch", "destination", "origin")),
        hubs=frozenset(listed),
        direct_fraction=_records(doc, "direct_fraction", ("branch", "origin"), "fraction"),
        hub_choice=_records(doc, "hub_choice", ("branch", "origin", "hub")),
    )
