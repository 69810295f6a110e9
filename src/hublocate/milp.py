"""Linearized mixed-integer model: construction, LP/MPS emission, decoding.

Variable families (names are the external contract, solver output is
matched against them):

  z_<b>_<t>_<s>   binary   origin port s chosen for shipment (b, t);
                           created only for positive demand and rated
                           (s, t) relations
  x_<b>           binary   branch b is opened as hub
  y_<b>_<s>_<h>   binary   hub h consolidates the (b, s) connection
  vd_<b>_<s>      cont.    volume sent direct on (b, s)
  vh_<b>_<s>_<h>  cont.    volume sent via hub h on (b, s)
  nL_<b>_<r>      integer  full land containers on arc (b, r), r in B u S
  uL<i>_<b>_<r>   step i of the approximated land curve on arc (b, r);
                           uL0 is the continuous head ramp in [0, 1],
                           uL1..uL<j-1> are binary
  nS_<s>_<t>      integer  full sea containers on relation (s, t)
  uS_<s>_<t>      cont.    NVOCC volume on (s, t), bounded by the relation
                           limit; omitted for FCL-only relations

Constraint families: port_ (one origin port per shipment), onehub_,
act_ (hub activation), norelay_ (hubs never relay via hubs), split_
(volume split, kept as an equation so encoding and decoding are inverse),
bigm_ (per-branch big-M linking), cap_ (land capacity per arc), step_
(at most one active land step), sea_ (sea capacity per relation).

Model size closed forms, with nB/nS branches/ports, P positive-demand
pairs, A the total number of (pair, usable port) combinations, U rated
relations, Un rated relations with an NVOCC rate, R = nB * (nB + nS)
land arcs, and j the land step count:

  variables   A + nB + 2 * nB^2 * nS + nB * nS + R * (j + 1) + U + Un
  constraints P + 3 * nB^2 * nS + 2 * nB * nS + 2 * R + U

Records.  ``Variable`` and ``Constraint`` are ``typing.NamedTuple``
records: immutable, with named fields, and built as one tuple each (no
per-field attribute assignment), which matters at tens of thousands of
records per model.  ``MilpModel.variables`` and ``.constraints`` are
plain lists in model order.  Every variable has lower bound 0 and the
objective is minimized.

Emission contract.  ``emit_lp`` and ``emit_mps`` are pure functions of
the model: the same model gives the same bytes on every run and every
release, numerals are ``_num`` (at most 12 significant digits), and rows
list their terms in sorted variable-name order.  ``decode`` compares a
model file on disk with a fresh emission byte for byte, so any change to
the emitted text is a format change.  The text is pinned by the toy
goldens (``tests/golden/toy_model.*``) and by the sha256 hashes of
generator models in ``tests/golden/milp_hashes.json``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .cost_model import COST_RTOL, container_split, sea_cost

# Not called here since the curves come from hublocate.pricing; kept as an
# attribute of this module because perfbench's tracer hooks it here.
from .cost_model import land_breakpoints  # noqa: F401
from .errors import InfeasibleSolutionError, InvalidInstanceError, ModelDecodeError
from .network_model import Instance, validate_instance
from .pricing import price_table, solution_flows
from .solution import Solution, check_feasibility, evaluate_cost, port_volumes

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

LE = "<="
EQ = "="
GE = ">="

BINARY_TOL = 1e-5
RESIDUAL_TOL = 1e-4


class Variable(NamedTuple):
    name: str
    kind: str
    obj: float = 0.0
    upper: float | None = None  # None = kind default (1 for binary, +inf else)


class Constraint(NamedTuple):
    name: str
    coeffs: dict  # variable name -> coefficient
    sense: str
    rhs: float


@dataclass
class ModelMeta:
    """Build context kept alongside the model: what ``encode_solution``
    and ``decode_solution`` read besides the records."""

    instance: Instance
    breakpoints: tuple  # v(0) .. v(j), shared by every distance band
    step_count: int  # j
    land_arcs: list  # (b, r) pairs in model order


@dataclass
class MilpModel:
    name: str
    variables: list
    constraints: list
    meta: ModelMeta

    def validate(self) -> None:
        names = set()
        for v in self.variables:
            if v.name in names:
                raise ValueError(f"duplicate variable name {v.name}")
            names.add(v.name)
        for c in self.constraints:
            if not names.issuperset(c.coeffs):
                n = next(n for n in c.coeffs if n not in names)
                raise ValueError(f"constraint {c.name} references unknown variable {n}")

    def objective_value(self, values: dict) -> float:
        return sum(v.obj * values[v.name] for v in self.variables if v.obj != 0.0)


def _zn(b, t, s):
    return f"z_{b}_{t}_{s}"


def _xn(b):
    return f"x_{b}"


def _yn(b, s, h):
    return f"y_{b}_{s}_{h}"


def _vdn(b, s):
    return f"vd_{b}_{s}"


def _vhn(b, s, h):
    return f"vh_{b}_{s}_{h}"


def _nln(b, r):
    return f"nL_{b}_{r}"


def _uln(i, b, r):
    return f"uL{i}_{b}_{r}"


def _nsn(s, t):
    return f"nS_{s}_{t}"


def _usn(s, t):
    return f"uS_{s}_{t}"


def build_linearized_model(instance: Instance, fix_no_hubs: bool = False) -> MilpModel:
    """Build the full linearized model for a valid instance.

    With fix_no_hubs=True all hub variables (x, y, vh) get upper bound 0,
    which restricts the model to pure port assignment with direct
    transport.
    """
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError(violations)

    B = list(instance.nodes.branches)
    S = list(instance.nodes.origin_ports)
    arcs = [(b, r) for b in B for r in B + S]
    pairs = instance.positive_pairs()
    usable = {t: instance.usable_ports(t) for t in instance.nodes.destination_ports}
    relations = sorted(instance.sea_rates)

    # The breakpoint volumes are shared by all distance bands; the cost
    # values differ per band.
    curve = price_table(instance).curve
    first_curve = curve(B[0], B[0])
    v_pts = first_curve.breakpoints
    j = first_curve.step_count

    hub_ub = 0.0 if fix_no_hubs else None
    variables: list[Variable] = []
    add = variables.append

    for (b, t) in pairs:
        v = instance.demand[(b, t)]
        for s in usable[t]:
            add(Variable(_zn(b, t, s), BINARY, obj=instance.port_consol_cost[s] * v))
    for b in B:
        add(Variable(_xn(b), BINARY, obj=instance.setup_cost[b], upper=hub_ub))
    for b in B:
        for s in S:
            for h in B:
                add(Variable(_yn(b, s, h), BINARY, upper=hub_ub))
    for b in B:
        for s in S:
            add(Variable(_vdn(b, s), CONTINUOUS))
    for b in B:
        for s in S:
            for h in B:
                add(Variable(_vhn(b, s, h), CONTINUOUS, obj=instance.hub_consol_cost[h], upper=hub_ub))

    # Step variable names uL0..uL<j-1> per arc, shared by the variable,
    # cap_ and step_ loops.
    step_names = {(b, r): [_uln(i, b, r) for i in range(j)] for (b, r) in arcs}
    for (b, r) in arcs:
        values = curve(b, r).values
        steps = step_names[(b, r)]
        add(Variable(_nln(b, r), INTEGER, obj=values[j]))
        add(Variable(steps[0], CONTINUOUS, obj=values[0], upper=1.0))
        for i in range(1, j):
            add(Variable(steps[i], BINARY, obj=values[i]))
    for (s, t) in relations:
        rate = instance.sea_rates[(s, t)]
        fcl = rate.fcl_per_container
        add(Variable(_nsn(s, t), INTEGER, obj=fcl if fcl is not None else instance.nvocc_penalty))
        if rate.nvocc_per_m3 is not None:
            u_lim = rate.nvocc_limit(instance.nvocc_cap)
            add(Variable(_usn(s, t), CONTINUOUS, obj=rate.nvocc_per_m3, upper=u_lim))

    constraints: list[Constraint] = []
    radd = constraints.append

    for (b, t) in pairs:
        radd(Constraint(f"port_{b}_{t}", {_zn(b, t, s): 1.0 for s in usable[t]}, EQ, 1.0))
    for b in B:
        for s in S:
            radd(Constraint(f"onehub_{b}_{s}", {_yn(b, s, h): 1.0 for h in B}, LE, 1.0))
    for b in B:
        for s in S:
            for h in B:
                radd(Constraint(f"act_{b}_{s}_{h}", {_yn(b, s, h): 1.0, _xn(h): -1.0}, LE, 0.0))
    for h in B:
        for s in S:
            for c in B:
                radd(Constraint(f"norelay_{h}_{s}_{c}", {_yn(h, s, c): 1.0, _xn(h): 1.0}, LE, 1.0))

    by_branch = {}
    for (b, t) in pairs:
        by_branch.setdefault(b, []).append(t)
    for b in B:
        m_b = sum(instance.demand[(b, t)] for t in by_branch.get(b, []))
        for s in S:
            coeffs = {_vdn(b, s): -1.0}
            for h in B:
                coeffs[_vhn(b, s, h)] = -1.0
            for t in by_branch.get(b, []):
                if s in usable[t]:
                    coeffs[_zn(b, t, s)] = instance.demand[(b, t)]
            radd(Constraint(f"split_{b}_{s}", coeffs, EQ, 0.0))
            for h in B:
                radd(Constraint(
                    f"bigm_{b}_{s}_{h}",
                    {_vhn(b, s, h): 1.0, _yn(b, s, h): -m_b},
                    LE, 0.0,
                ))

    for (b, r) in arcs:
        if r in instance.nodes.origin_ports:
            # Arc into a port: direct volume of b plus everything hubbed via b.
            coeffs = {_vdn(b, r): 1.0}
            for c in B:
                coeffs[_vhn(c, r, b)] = 1.0
        else:
            # Arc into hub r: the feeder flow from b over every port.
            coeffs = {_vhn(b, s, r): 1.0 for s in S}
        steps = step_names[(b, r)]
        coeffs[_nln(b, r)] = -v_pts[j]
        for i in range(j):
            coeffs[steps[i]] = -v_pts[i]
        radd(Constraint(f"cap_{b}_{r}", coeffs, LE, 0.0))
        radd(Constraint(f"step_{b}_{r}", dict.fromkeys(steps, 1.0), LE, 1.0))

    for (s, t) in relations:
        coeffs = {}
        for (b, t2) in pairs:
            if t2 == t and s in usable[t]:
                coeffs[_zn(b, t, s)] = instance.demand[(b, t)]
        coeffs[_nsn(s, t)] = -instance.sea_container_volume
        if instance.sea_rates[(s, t)].nvocc_per_m3 is not None:
            coeffs[_usn(s, t)] = -1.0
        radd(Constraint(f"sea_{s}_{t}", coeffs, LE, 0.0))

    model = MilpModel(
        name=instance.name,
        variables=variables,
        constraints=constraints,
        meta=ModelMeta(
            instance=instance,
            breakpoints=v_pts,
            step_count=j,
            land_arcs=arcs,
        ),
    )
    model.validate()
    return model


def variable_counts(model: MilpModel) -> dict:
    """Variable count per family prefix (z, x, y, vd, vh, nL, uL0, uLi, nS, uS)."""
    out: dict = {}
    for v in model.variables:
        head = v.name.split("_", 1)[0]
        if head.startswith("uL"):
            head = "uL0" if head == "uL0" else "uLi"
        out[head] = out.get(head, 0) + 1
    return out


def constraint_counts(model: MilpModel) -> dict:
    out: dict = {}
    for c in model.constraints:
        head = c.name.split("_", 1)[0]
        out[head] = out.get(head, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Encoding and decoding


def encode_solution(model: MilpModel, solution: Solution) -> dict:
    """Variable assignment realizing a feasible solution.

    The land step variables are chosen minimally (smallest feasible
    container count, the unique active step), so the model objective at
    the assignment equals the approximated cost of the solution.  Loads
    come from ``pricing.solution_flows``, the evaluator's own accounting.
    """
    meta = model.meta
    instance = meta.instance
    report = check_feasibility(instance, solution)
    if report:
        raise InfeasibleSolutionError(report)
    flows = solution_flows(
        instance, solution.port_choice, solution.fraction, solution.hub_choice
    )

    values = {v.name: 0.0 for v in model.variables}

    for (b, t) in instance.positive_pairs():
        values[_zn(b, t, solution.port_choice[(b, t)])] = 1.0
    for h in solution.hubs:
        values[_xn(h)] = 1.0

    vols = flows.vols
    for b in instance.nodes.branches:
        for s in instance.nodes.origin_ports:
            v = vols.get((b, s), 0.0)
            h = solution.hub_choice.get((b, s))
            if h is not None:
                values[_yn(b, s, h)] = 1.0
                y = solution.fraction(b, s)
                values[_vdn(b, s)] = y * v
                values[_vhn(b, s, h)] = (1.0 - y) * v
            else:
                values[_vdn(b, s)] = v

    v_pts = meta.breakpoints
    j = meta.step_count
    u_cont = v_pts[-1]
    arc_vol = {**flows.port_arc, **flows.hub_arc}  # keys differ: r is a port or a branch
    for (b, r) in meta.land_arcs:
        load = arc_vol.get((b, r), 0.0)
        if load <= 0.0:
            continue
        n, u = container_split(load, u_cont)
        if u == 0.0:
            values[_nln(b, r)] = float(n)
        elif u <= v_pts[0]:
            values[_nln(b, r)] = float(n)
            values[_uln(0, b, r)] = u / v_pts[0]
        else:
            i = bisect_left(v_pts, u)
            if i >= j:
                # Rest volume in the last band costs a full container.
                values[_nln(b, r)] = float(n + 1)
            else:
                values[_nln(b, r)] = float(n)
                values[_uln(i, b, r)] = 1.0

    for (s, t), w in sorted(flows.sea_vol.items()):
        _, n, u = sea_cost(
            instance.sea_rates[(s, t)], w, instance.sea_container_volume,
            instance.nvocc_cap, instance.nvocc_penalty,
        )
        values[_nsn(s, t)] = float(n)
        if u > 0.0:
            values[_usn(s, t)] = u
    return values


def constraint_residual(constraint: Constraint, values: dict) -> float:
    lhs = sum(coef * values[name] for name, coef in constraint.coeffs.items())
    if constraint.sense == LE:
        return max(0.0, lhs - constraint.rhs)
    if constraint.sense == GE:
        return max(0.0, constraint.rhs - lhs)
    return abs(lhs - constraint.rhs)


def max_residual(model: MilpModel, values: dict) -> float:
    return max(constraint_residual(c, values) for c in model.constraints)


def decode_solution(model: MilpModel, values: dict):
    """Reconstruct a Solution from solver output values.

    Values must cover every model variable and be finite; binaries and
    integers must be within 1e-5 of integral and constraint residuals
    within 1e-4.  The
    decoded solution's approximated cost must not exceed the model
    objective at the (integer-rounded) values by more than ``COST_RTOL``:
    a load a residual tolerance above a land volume break is priced one
    step up by the evaluator although the model's step variables price it
    below.  A cost below the objective is accepted, since the ``cap_`` and
    ``sea_`` rows let a feasible answer (say, a time-limited solver's
    incumbent) carry more containers than its loads need; the evaluator
    prices the minimum.  Returns ``(solution, breakdown)``, the breakdown
    being the approximated ``CostBreakdown`` of the decoded solution.
    """
    meta = model.meta
    instance = meta.instance

    missing = [v.name for v in model.variables if v.name not in values]
    if missing:
        raise ModelDecodeError(
            f"values missing for {len(missing)} variable(s), first: {missing[0]}"
        )

    clean = {}
    for var in model.variables:
        val = float(values[var.name])
        if not math.isfinite(val):
            raise ModelDecodeError(f"{var.name} = {val} is not a finite number")
        if var.kind in (BINARY, INTEGER):
            rounded = round(val)
            if abs(val - rounded) > BINARY_TOL:
                raise ModelDecodeError(f"{var.name} = {val} is not integral within {BINARY_TOL}")
            if var.kind == BINARY and rounded not in (0, 1):
                raise ModelDecodeError(f"{var.name} = {val} is not in {{0, 1}}")
            val = float(rounded)
        hi = var.upper if var.upper is not None else (1.0 if var.kind == BINARY else None)
        if val < -RESIDUAL_TOL or (hi is not None and val > hi + RESIDUAL_TOL):
            raise ModelDecodeError(f"{var.name} = {val} violates bounds [0.0, {hi}]")
        clean[var.name] = val

    for c in model.constraints:
        res = constraint_residual(c, clean)
        if res > RESIDUAL_TOL:
            raise ModelDecodeError(f"constraint {c.name} violated by {res}")

    port_choice = {}
    for (b, t) in instance.positive_pairs():
        chosen = [s for s in instance.usable_ports(t) if clean[_zn(b, t, s)] > 0.5]
        if len(chosen) != 1:
            raise ModelDecodeError(f"shipment ({b}, {t}) selects {len(chosen)} origin ports")
        port_choice[(b, t)] = chosen[0]

    hubs = frozenset(b for b in instance.nodes.branches if clean[_xn(b)] > 0.5)
    hub_choice = {}
    direct_fraction = {}
    vols = port_volumes(instance, port_choice)
    for b in instance.nodes.branches:
        for s in instance.nodes.origin_ports:
            picked = [h for h in instance.nodes.branches if clean[_yn(b, s, h)] > 0.5]
            if not picked:
                continue
            hub_choice[(b, s)] = picked[0]
            v = vols.get((b, s), 0.0)
            if v > 0.0:
                direct_fraction[(b, s)] = min(1.0, max(0.0, clean[_vdn(b, s)] / v))
            else:
                direct_fraction[(b, s)] = 1.0

    solution = Solution(
        port_choice=port_choice,
        hubs=hubs,
        direct_fraction=direct_fraction,
        hub_choice=hub_choice,
    )
    breakdown = evaluate_cost(instance, solution, "approx")
    objective = model.objective_value(clean)
    if breakdown.total - objective > COST_RTOL * max(1.0, abs(objective)):
        raise ModelDecodeError(
            f"decoded solution costs {breakdown.total!r} (approximated), "
            f"more than the model objective {objective!r} at the values"
        )
    return solution, breakdown


def parse_values_text(text: str) -> dict:
    """Parse solver output in plain `name value` per-line form."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ModelDecodeError(f"line {lineno}: expected 'name value', got {raw!r}")
        try:
            out[parts[0]] = float(parts[1])
        except ValueError:
            raise ModelDecodeError(f"line {lineno}: {parts[1]!r} is not a number")
    return out


def format_values_text(values: dict) -> str:
    return "".join(f"{name} {_num(val)}\n" for name, val in sorted(values.items()))


# ---------------------------------------------------------------------------
# LP / MPS emission


def _num(x: float) -> str:
    """Numeral with at most 12 significant digits, no exponent surprises."""
    s = f"{x:.12g}"
    return "0" if s == "-0" else s


class _Numerals(dict):
    """value -> ``_num(value)``, rendered on first use.

    One table per emission: a model has tens of thousands of coefficients
    but only a few hundred distinct values.  Values that compare equal
    (0.0 and -0.0, 1 and 1.0) have the same numeral, so sharing an entry
    changes no byte.
    """

    def __missing__(self, x):
        s = self[x] = _num(x)
        return s


def _lp_terms(coeffs: list, num: _Numerals) -> list:
    """Signed `+ c name` terms wrapped into lines of at most six terms."""
    terms = [
        f"- {num[-coef]} {name}" if coef < 0 else f"+ {num[coef]} {name}"
        for name, coef in coeffs
    ]
    return [" ".join(terms[i:i + 6]) for i in range(0, max(len(terms), 1), 6)]


def emit_lp(model: MilpModel) -> str:
    """CPLEX-style LP text, canonical order, byte-stable across runs."""
    num = _Numerals()
    out = [f"\\ hublocate model {model.name}", "Minimize"]
    obj = [(v.name, v.obj) for v in model.variables if v.obj != 0.0]
    lines = _lp_terms(obj, num)
    out.append(" obj: " + lines[0])
    out.extend("      " + ln for ln in lines[1:])
    out.append("Subject To")
    for c in model.constraints:
        lines = _lp_terms(sorted(c.coeffs.items()), num)
        lines[-1] += f" {c.sense} {num[c.rhs]}"
        out.append(f" {c.name}: {lines[0]}")
        if len(lines) > 1:
            out.extend("      " + ln for ln in lines[1:])
    bounds = []
    for v in model.variables:
        if v.upper is None:
            continue
        if v.kind == BINARY and v.upper >= 1.0:
            continue
        if v.upper == 0.0:
            bounds.append(f" {v.name} = 0")
        else:
            bounds.append(f" {v.name} <= {num[v.upper]}")
    if bounds:
        out.append("Bounds")
        out.extend(bounds)
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        out.append("Binaries")
        for i in range(0, len(binaries), 8):
            out.append(" " + " ".join(binaries[i:i + 8]))
    generals = [v.name for v in model.variables if v.kind == INTEGER]
    if generals:
        out.append("Generals")
        for i in range(0, len(generals), 8):
            out.append(" " + " ".join(generals[i:i + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


def emit_mps(model: MilpModel) -> str:
    """Free-format MPS text; one column entry per line, integers marked."""
    num = _Numerals()
    out = [f"NAME {model.name}", "ROWS", " N obj"]
    sense_tag = {LE: "L", GE: "G", EQ: "E"}
    for c in model.constraints:
        out.append(f" {sense_tag[c.sense]} {c.name}")

    # Each column's entry lines, rendered once, objective row first and
    # then the constraint rows in model order.
    entries: dict = {
        v.name: [f"    {v.name} obj {num[v.obj]}"] if v.obj != 0.0 else []
        for v in model.variables
    }
    for c in model.constraints:
        row = c.name
        for name, coef in sorted(c.coeffs.items()):
            entries[name].append(f"    {name} {row} {num[coef]}")

    out.append("COLUMNS")
    continuous = [v for v in model.variables if v.kind == CONTINUOUS]
    integral = [v for v in model.variables if v.kind != CONTINUOUS]
    for v in continuous:
        out.extend(entries[v.name])
    if integral:
        out.append("    MARKER_INT_BEGIN 'MARKER' 'INTORG'")
        for v in integral:
            out.extend(entries[v.name])
        out.append("    MARKER_INT_END 'MARKER' 'INTEND'")

    out.append("RHS")
    for c in model.constraints:
        if c.rhs != 0.0:
            out.append(f"    RHS {c.name} {num[c.rhs]}")

    out.append("BOUNDS")
    for v in model.variables:
        if v.kind == BINARY:
            if v.upper == 0.0:
                out.append(f" FX BND {v.name} 0")
            else:
                out.append(f" BV BND {v.name}")
        elif v.kind == INTEGER:
            if v.upper is None:
                out.append(f" PL BND {v.name}")
            else:
                out.append(f" UP BND {v.name} {num[v.upper]}")
        elif v.upper is not None:
            if v.upper == 0.0:
                out.append(f" FX BND {v.name} 0")
            else:
                out.append(f" UP BND {v.name} {num[v.upper]}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"
