"""Problem instance, validation rules, and the on-disk interchange format.

An instance bundles the node sets (branches, origin ports, destination
ports), the demand matrix, the land tariff table, the per-relation sea
rates, consolidation and set-up costs, the container parameters, and the
branch-to-node distance map.  Volumes are the primary demand unit (m3);
weight is derived via the dimensional factor and never stored.

The interchange format is a single JSON document with top-level sections
nodes, demand, distances, land_cost_table, sea_rates, setup_costs,
consolidation_costs and parameters; the schema version string lives in
parameters.schema_version.  Canonical files sort node lists and all keyed
records, so save -> load -> save is byte stable.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .cost_model import DEFAULT_PENALTY, LandCostTable, SeaRate
from .errors import DistanceOutOfRangeError, InstanceFormatError

SCHEMA_VERSION = "hublocate-1"

# Node ids must stay safe for LP/MPS variable names (no spaces, signs, ...).
_ID_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.]*$")


@dataclass(frozen=True)
class NodeSets:
    """The three node sets; stored sorted for deterministic iteration."""

    branches: tuple[str, ...]
    origin_ports: tuple[str, ...]
    destination_ports: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(sorted(self.branches)))
        object.__setattr__(self, "origin_ports", tuple(sorted(self.origin_ports)))
        object.__setattr__(self, "destination_ports", tuple(sorted(self.destination_ports)))


@dataclass(frozen=True)
class Instance:
    """One full problem datum.  Treat as immutable after validation."""

    nodes: NodeSets
    demand: dict  # (branch, destination port) -> volume m3; missing = 0
    land_costs: LandCostTable
    sea_rates: dict  # (origin port, destination port) -> SeaRate
    setup_cost: dict  # branch -> currency
    hub_consol_cost: dict  # branch -> currency per m3
    port_consol_cost: dict  # origin port -> currency per m3
    distance: dict  # (branch, branch or origin port) -> km
    land_container_volume: float
    sea_container_volume: float = 55.0
    nvocc_cap: float = 40.0
    dimensional_factor: float = 300.0
    nvocc_penalty: float = DEFAULT_PENALTY
    name: str = "instance"

    def __post_init__(self):
        # Demand in sorted pair order, as NodeSets sorts its node lists, so
        # every sum over demand adds in one order whatever the listing.
        object.__setattr__(self, "demand", dict(sorted(self.demand.items())))

    def positive_pairs(self) -> list[tuple[str, str]]:
        """Sorted (branch, destination) pairs with positive demand."""
        return sorted(k for k, v in self.demand.items() if v > 0.0)

    def usable_ports(self, t: str) -> list[str]:
        """Origin ports with a sea rate toward destination t, sorted."""
        return sorted(s for (s, tt) in self.sea_rates if tt == t)

    def total_demand(self) -> float:
        return sum(v for v in self.demand.values() if v > 0.0)


@dataclass(frozen=True)
class Violation:
    """One validation finding: machine-readable code plus human message."""

    code: str
    subject: tuple
    message: str


def _check_table(instance: Instance, out: list) -> bool:
    """Structural table checks; returns False when lookups cannot be trusted."""
    t = instance.land_costs
    ok = True
    if not t.distance_breaks or any(
        b <= a for a, b in zip(t.distance_breaks, t.distance_breaks[1:])
    ) or t.distance_breaks[0] <= 0.0:
        out.append(Violation("BAD_TABLE", (), "distance breaks must be ascending and positive"))
        ok = False
    if not t.volume_breaks or any(
        b <= a for a, b in zip(t.volume_breaks, t.volume_breaks[1:])
    ) or t.volume_breaks[0] <= 0.0:
        out.append(Violation("BAD_TABLE", (), "volume breaks must be ascending and positive"))
        ok = False
    elif t.volume_breaks[-1] != instance.land_container_volume:
        out.append(Violation(
            "BAD_TABLE", (),
            f"last volume break {t.volume_breaks[-1]} must equal the land "
            f"container volume {instance.land_container_volume}",
        ))
        ok = False
    if len(t.cost) != len(t.distance_breaks) or any(
        len(row) != len(t.volume_breaks) for row in t.cost
    ):
        out.append(Violation("BAD_TABLE", (), "cost matrix shape does not match the breaks"))
        return False
    for k, row in enumerate(t.cost):
        for i, c in enumerate(row):
            if c < 0.0:
                out.append(Violation("NEGATIVE_COST", (k, i), f"land cost [{k}][{i}] = {c} < 0"))
        for i in range(1, len(row)):
            if row[i] < row[i - 1]:
                out.append(Violation(
                    "NONMONOTONE_COST_TABLE", (k, i),
                    f"land cost row {k} decreases from band {i - 1} to {i}",
                ))
    return ok


def validate_instance(instance: Instance) -> list[Violation]:
    """Every invariant violation, empty when the instance is valid."""
    out: list[Violation] = []
    nodes = instance.nodes
    all_lists = [
        ("branches", nodes.branches),
        ("origin_ports", nodes.origin_ports),
        ("destination_ports", nodes.destination_ports),
    ]
    seen: dict[str, str] = {}
    for set_name, ids in all_lists:
        if not ids:
            out.append(Violation("EMPTY_NODE_SET", (set_name,), f"{set_name} must not be empty"))
        for i in ids:
            if not _ID_RE.match(i):
                out.append(Violation(
                    "INVALID_NODE_ID", (i,),
                    f"id {i!r} is not a letter followed by letters, digits, '_' or '.'",
                ))
            if i in seen:
                out.append(Violation(
                    "DUPLICATE_NODE", (i,), f"id {i!r} appears in {seen[i]} and {set_name}"
                ))
            else:
                seen[i] = set_name

    branches = set(nodes.branches)
    ports = set(nodes.origin_ports)
    dests = set(nodes.destination_ports)

    for (b, t), v in sorted(instance.demand.items()):
        if b not in branches or t not in dests:
            out.append(Violation("UNKNOWN_NODE", (b, t), f"demand references unknown pair ({b}, {t})"))
        if v < 0.0:
            out.append(Violation("NEGATIVE_DEMAND", (b, t), f"demand ({b}, {t}) = {v} < 0"))

    for (s, t) in sorted(instance.sea_rates):
        if s not in ports or t not in dests:
            out.append(Violation("UNKNOWN_NODE", (s, t), f"sea rate references unknown pair ({s}, {t})"))

    for label, costs, universe in (
        ("setup cost", instance.setup_cost, nodes.branches),
        ("hub consolidation cost", instance.hub_consol_cost, nodes.branches),
        ("port consolidation cost", instance.port_consol_cost, nodes.origin_ports),
    ):
        for n in universe:
            if n not in costs:
                out.append(Violation("MISSING_COST", (n,), f"no {label} for {n}"))
            elif costs[n] < 0.0:
                out.append(Violation("NEGATIVE_COST", (n,), f"{label} for {n} is {costs[n]} < 0"))
        for n in sorted(costs):
            if n not in universe:
                out.append(Violation("UNKNOWN_NODE", (n,), f"{label} references unknown node {n}"))

    if instance.land_container_volume <= 0.0:
        out.append(Violation("BAD_CONTAINER_PARAMS", (), "land container volume must be > 0"))
    if not 0.0 < instance.nvocc_cap <= instance.sea_container_volume:
        out.append(Violation(
            "BAD_CONTAINER_PARAMS", (),
            f"need 0 < nvocc_cap ({instance.nvocc_cap}) <= sea container volume "
            f"({instance.sea_container_volume})",
        ))
    if instance.dimensional_factor <= 0.0:
        out.append(Violation("BAD_CONTAINER_PARAMS", (), "dimensional factor must be > 0"))

    table_ok = _check_table(instance, out)

    # Reachability: every destination with demand needs a rated origin port.
    demanded = {t for (_, t), v in instance.demand.items() if v > 0.0 and t in dests}
    rated = {t for (_, t) in instance.sea_rates}
    for t in sorted(demanded - rated):
        out.append(Violation(
            "UNREACHABLE_DESTINATION", (t,),
            f"destination {t} has demand but no origin port offers a sea rate to it",
        ))

    for b in nodes.branches:
        for r in list(nodes.branches) + list(nodes.origin_ports):
            d = instance.distance.get((b, r))
            if d is None:
                out.append(Violation("MISSING_DISTANCE", (b, r), f"no distance for ({b}, {r})"))
            elif d < 0.0:
                out.append(Violation("NEGATIVE_DISTANCE", (b, r), f"distance ({b}, {r}) = {d} < 0"))
            elif table_ok:
                try:
                    instance.land_costs.distance_band(d)
                except DistanceOutOfRangeError:
                    out.append(Violation(
                        "DISTANCE_OUT_OF_RANGE", (b, r),
                        f"distance ({b}, {r}) = {d} km exceeds the tariff table range",
                    ))
    for (a, r) in sorted(instance.distance):
        if a not in branches or (r not in branches and r not in ports):
            out.append(Violation("UNKNOWN_NODE", (a, r), f"distance references unknown pair ({a}, {r})"))

    return sorted(out, key=lambda v: (v.code, v.subject))


# ---------------------------------------------------------------------------
# Interchange format


def _instance_to_doc(instance: Instance) -> dict:
    t = instance.land_costs
    return {
        "nodes": {
            "branches": sorted(instance.nodes.branches),
            "origin_ports": sorted(instance.nodes.origin_ports),
            "destination_ports": sorted(instance.nodes.destination_ports),
        },
        "demand": [
            {"branch": b, "destination": d, "volume": v}
            for (b, d), v in sorted(instance.demand.items())
        ],
        "distances": [
            {"from": a, "to": r, "km": d} for (a, r), d in sorted(instance.distance.items())
        ],
        "land_cost_table": {
            "distance_breaks": list(t.distance_breaks),
            "volume_breaks": list(t.volume_breaks),
            "cost": [list(row) for row in t.cost],
        },
        "sea_rates": [
            {
                "origin": s,
                "destination": d,
                "fcl_per_container": r.fcl_per_container,
                "nvocc_per_m3": r.nvocc_per_m3,
            }
            for (s, d), r in sorted(instance.sea_rates.items())
        ],
        "setup_costs": dict(sorted(instance.setup_cost.items())),
        "consolidation_costs": {
            "hub": dict(sorted(instance.hub_consol_cost.items())),
            "port": dict(sorted(instance.port_consol_cost.items())),
        },
        "parameters": {
            "schema_version": SCHEMA_VERSION,
            "name": instance.name,
            "land_container_volume": instance.land_container_volume,
            "sea_container_volume": instance.sea_container_volume,
            "nvocc_cap": instance.nvocc_cap,
            "dimensional_factor": instance.dimensional_factor,
            "nvocc_penalty": instance.nvocc_penalty,
        },
    }


def instance_to_json(instance: Instance) -> str:
    """Canonical JSON text for an instance (sorted keys, trailing newline)."""
    return json.dumps(_instance_to_doc(instance), indent=2, sort_keys=True) + "\n"


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(instance_to_json(instance), encoding="utf-8")


def _need(doc: dict, section: str, typ, where: str = "document"):
    if section not in doc:
        raise InstanceFormatError(
            f"missing required section {section!r}", code="MISSING_SECTION", section=where
        )
    val = doc[section]
    if not isinstance(val, typ):
        raise InstanceFormatError(
            f"section {section!r} must be a {typ.__name__}", code="BAD_TYPE", section=section
        )
    return val


def _number(value, where: str, field_name: str, allow_none: bool = False):
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(
            f"field {field_name!r} must be a number, got {value!r}",
            code="BAD_TYPE", section=where,
        )
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise InstanceFormatError(
            f"field {field_name!r} must be finite, got {value!r}",
            code="NON_FINITE", section=where,
        )
    return number


def _instance_name(value) -> str:
    """The name goes into the header line of the LP and MPS texts, so it
    must be a string without control characters or line breaks."""
    if not isinstance(value, str):
        raise InstanceFormatError(
            f"field 'name' must be a string, got {value!r}", code="BAD_TYPE", section="parameters"
        )
    if not value.isprintable():
        raise InstanceFormatError(
            f"field 'name' must be printable text, got {value!r}",
            code="CONTROL_CHARACTER", section="parameters",
        )
    return value


def _id_list(raw, set_name: str) -> list[str]:
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise InstanceFormatError(
            f"{set_name} must be a list of strings", code="BAD_TYPE", section="nodes"
        )
    dupes = sorted({x for x in raw if raw.count(x) > 1})
    if dupes:
        raise InstanceFormatError(
            f"duplicate node id(s) in {set_name}: {', '.join(dupes)}",
            code="DUPLICATE_NODE", section="nodes",
        )
    return raw


def put_record(table: dict, key: tuple, value, section: str) -> None:
    """Store one keyed record of a file section; a second record with the
    same key is an InstanceFormatError, not a silent overwrite."""
    if key in table:
        raise InstanceFormatError(
            f"duplicate record for {key}", code="DUPLICATE_RECORD", section=section
        )
    table[key] = value


def record_key(rec, fields: tuple, section: str) -> tuple:
    """The values of ``fields`` in one record of a file section, which
    must be strings of an object; anything else is an InstanceFormatError."""
    if isinstance(rec, dict):
        key = []
        for k in fields:
            v = rec.get(k)
            if not isinstance(v, str):
                break
            key.append(v)
        else:
            return tuple(key)
    raise InstanceFormatError(
        f"each {section} record needs string fields {', '.join(fields)}",
        code="BAD_RECORD", section=section,
    )


def instance_from_doc(doc: dict, name: str = "instance") -> Instance:
    """Build an Instance from a parsed document, with precise schema errors."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level must be an object", code="BAD_TYPE")
    params = _need(doc, "parameters", dict)
    version = params.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InstanceFormatError(
            f"schema version {version!r} is not supported (expected {SCHEMA_VERSION!r})",
            code="SCHEMA_VERSION", section="parameters",
        )

    nodes_doc = _need(doc, "nodes", dict)
    nodes = NodeSets(
        branches=tuple(_id_list(_need(nodes_doc, "branches", list, "nodes"), "branches")),
        origin_ports=tuple(_id_list(_need(nodes_doc, "origin_ports", list, "nodes"), "origin_ports")),
        destination_ports=tuple(
            _id_list(_need(nodes_doc, "destination_ports", list, "nodes"), "destination_ports")
        ),
    )

    demand = {}
    for rec in _need(doc, "demand", list):
        key = record_key(rec, ("branch", "destination"), "demand")
        put_record(demand, key, _number(rec.get("volume"), "demand", "volume"), "demand")

    distance = {}
    for rec in _need(doc, "distances", list):
        key = record_key(rec, ("from", "to"), "distances")
        put_record(distance, key, _number(rec.get("km"), "distances", "km"), "distances")

    table_doc = _need(doc, "land_cost_table", dict)
    try:
        table = LandCostTable(
            distance_breaks=tuple(
                _number(x, "land_cost_table", "distance_breaks")
                for x in _need(table_doc, "distance_breaks", list, "land_cost_table")
            ),
            volume_breaks=tuple(
                _number(x, "land_cost_table", "volume_breaks")
                for x in _need(table_doc, "volume_breaks", list, "land_cost_table")
            ),
            cost=tuple(
                tuple(_number(x, "land_cost_table", "cost") for x in row)
                for row in _need(table_doc, "cost", list, "land_cost_table")
            ),
        )
    except TypeError as exc:
        raise InstanceFormatError(str(exc), code="BAD_TYPE", section="land_cost_table")

    sea_rates = {}
    for rec in _need(doc, "sea_rates", list):
        key = record_key(rec, ("origin", "destination"), "sea_rates")
        try:
            rate = SeaRate(
                fcl_per_container=_number(
                    rec.get("fcl_per_container"), "sea_rates", "fcl_per_container", allow_none=True
                ),
                nvocc_per_m3=_number(
                    rec.get("nvocc_per_m3"), "sea_rates", "nvocc_per_m3", allow_none=True
                ),
            )
        except ValueError as exc:
            raise InstanceFormatError(
                f"invalid sea rate for {key}: {exc}", code="BAD_SEA_RATE", section="sea_rates"
            )
        put_record(sea_rates, key, rate, "sea_rates")

    setup = {
        str(k): _number(v, "setup_costs", k) for k, v in _need(doc, "setup_costs", dict).items()
    }
    consol = _need(doc, "consolidation_costs", dict)
    hub_consol = {
        str(k): _number(v, "consolidation_costs", k)
        for k, v in _need(consol, "hub", dict, "consolidation_costs").items()
    }
    port_consol = {
        str(k): _number(v, "consolidation_costs", k)
        for k, v in _need(consol, "port", dict, "consolidation_costs").items()
    }

    optional = ("sea_container_volume", "nvocc_cap", "dimensional_factor", "nvocc_penalty")
    return Instance(
        nodes=nodes,
        demand=demand,
        land_costs=table,
        sea_rates=sea_rates,
        setup_cost=setup,
        hub_consol_cost=hub_consol,
        port_consol_cost=port_consol,
        distance=distance,
        land_container_volume=_number(
            params.get("land_container_volume"), "parameters", "land_container_volume"
        ),
        name=_instance_name(params.get("name", name)),
        # An optional parameter the file leaves out takes the field default.
        **{key: _number(params[key], "parameters", key) for key in optional if key in params},
    )


def read_text(path) -> str:
    """A UTF-8 text file's content; other bytes are an InstanceFormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(
            f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})", code="PARSE"
        )


def read_json(path):
    """A JSON file's parsed content; every defect of the text is an
    InstanceFormatError with code PARSE."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc.msg}", code="PARSE", line=exc.lineno)
    except RecursionError:
        raise InstanceFormatError("JSON nested too deeply to parse", code="PARSE")


def load_instance(path) -> Instance:
    return instance_from_doc(read_json(path), name=Path(path).stem)
