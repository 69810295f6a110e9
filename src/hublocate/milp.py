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
records: immutable, with named fields, four each.  The builder makes
them with ``tuple.__new__`` from all four fields, which costs about a
third of the generated keyword constructor at thousands of records per
model; so it must pass every field, defaults included.
``MilpModel.variables`` and ``.constraints`` are plain lists in model
order.  Every variable has lower bound 0 and the objective is minimized.
The builder formats each variable name once, into per-family name tables
that the variable and constraint loops share.  Names join node ids with
"_", and ids may hold "_", so ``MilpModel.validate`` refuses a variable
or row name made twice (``ModelNameError``).  A loop that loads three
or more fields of each record unpacks it; one that loads fewer reads the
fields by name, which is faster on CPython 3.11, where unpacking is
specialized only for exact tuples.

Emission contract.  ``emit_lp`` and ``emit_mps`` are pure functions of
the model: the same model gives the same bytes on every run and every
release, and numerals are ``_num`` (at most 12 significant digits).  LP
rows list their terms in sorted variable-name order.  MPS columns come
in variable order, each with its objective entry and then its row
entries in model row order; a row holds at most one entry per column,
so ``emit_mps`` sorts nothing and the order of a row's coefficient dict
never reaches either text.  ``decode`` compares a
model file on disk with a fresh emission byte for byte, so any change to
the emitted text is a format change.  The text is pinned by the toy
goldens (``tests/golden/toy_model.*``) and by the sha256 hashes of
generator models in ``tests/golden/milp_hashes.json``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .cost_model import COST_RTOL, container_split, sea_cost

# Not called here since the curves come from hublocate.pricing; kept as an
# attribute of this module because perfbench's tracer hooks it here.
from .cost_model import land_breakpoints  # noqa: F401
from .errors import (
    InfeasibleSolutionError,
    InvalidInstanceError,
    ModelDecodeError,
    ModelNameError,
)
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
        """Refuse a variable or row name given twice (``ModelNameError``)
        and a row that names no variable of the model (``ValueError``)."""
        names = {v.name for v in self.variables}
        if len(names) != len(self.variables):
            raise _clash("variable", [v.name for v in self.variables])
        if len({c.name for c in self.constraints}) != len(self.constraints):
            raise _clash("row", [c.name for c in self.constraints])
        for c in self.constraints:
            if not names.issuperset(c.coeffs):
                n = next(n for n in c.coeffs if n not in names)
                raise ValueError(f"constraint {c.name} references unknown variable {n}")

    def objective_value(self, values: dict) -> float:
        return sum([obj * values[name] for name, _, obj, _ in self.variables if obj != 0.0])


def _clash(what: str, names: list) -> ModelNameError:
    """The error for a list of names that holds one name twice."""
    name = next(n for n, count in Counter(names).items() if count > 1)
    return ModelNameError(
        f"duplicate {what} name {name}: node ids that hold '_' join into "
        "the same name; rename them"
    )


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

    # Every name is formatted once, into the per-family tables that the
    # variable and constraint loops share.  y_names[b, s] and
    # vh_names[b, s] list the names over the hubs h in B order.
    z_names = {(b, t): {s: _zn(b, t, s) for s in usable[t]} for (b, t) in pairs}
    x_names = {b: _xn(b) for b in B}
    y_names = {(b, s): [_yn(b, s, h) for h in B] for b in B for s in S}
    vd_names = {(b, s): _vdn(b, s) for b in B for s in S}
    vh_names = {(b, s): [_vhn(b, s, h) for h in B] for b in B for s in S}
    # Per arc, in arcs order: nL and the step names uL0..uL<j-1>, formatted
    # here as _nln and _uln format them (the largest family).
    land_names = [(f"nL_{b}_{r}", [f"uL{i}_{b}_{r}" for i in range(j)]) for (b, r) in arcs]
    # Per relation: nS, and uS where the relation has an NVOCC rate.
    sea_names = {}
    for (s, t) in relations:
        nvocc = instance.sea_rates[(s, t)].nvocc_per_m3 is not None
        sea_names[(s, t)] = (_nsn(s, t), _usn(s, t) if nvocc else None)

    # Records are made by tuple.__new__ from all four fields, which skips
    # the keyword handling of the generated NamedTuple constructor.
    new = tuple.__new__
    variables: list[Variable] = []
    add = variables.append

    for (b, t) in pairs:
        v = instance.demand[(b, t)]
        for s, name in z_names[(b, t)].items():
            add(new(Variable, (name, BINARY, instance.port_consol_cost[s] * v, None)))
    for b in B:
        add(new(Variable, (x_names[b], BINARY, instance.setup_cost[b], hub_ub)))
    for ys in y_names.values():
        for name in ys:
            add(new(Variable, (name, BINARY, 0.0, hub_ub)))
    for name in vd_names.values():
        add(new(Variable, (name, CONTINUOUS, 0.0, None)))
    for vhs in vh_names.values():
        for h, name in zip(B, vhs):
            add(new(Variable, (name, CONTINUOUS, instance.hub_consol_cost[h], hub_ub)))

    for (b, r), (nl, steps) in zip(arcs, land_names):
        values = curve(b, r).values
        add(new(Variable, (nl, INTEGER, values[j], None)))
        add(new(Variable, (steps[0], CONTINUOUS, values[0], 1.0)))
        for i in range(1, j):
            add(new(Variable, (steps[i], BINARY, values[i], None)))
    for (s, t), (ns, us) in sea_names.items():
        rate = instance.sea_rates[(s, t)]
        fcl = rate.fcl_per_container
        obj = fcl if fcl is not None else instance.nvocc_penalty
        add(new(Variable, (ns, INTEGER, obj, None)))
        if us is not None:
            u_lim = rate.nvocc_limit(instance.nvocc_cap)
            add(new(Variable, (us, CONTINUOUS, rate.nvocc_per_m3, u_lim)))

    constraints: list[Constraint] = []
    radd = constraints.append

    for (b, t) in pairs:
        coeffs = dict.fromkeys(z_names[(b, t)].values(), 1.0)
        radd(new(Constraint, (f"port_{b}_{t}", coeffs, EQ, 1.0)))
    for (b, s), ys in y_names.items():
        radd(new(Constraint, (f"onehub_{b}_{s}", dict.fromkeys(ys, 1.0), LE, 1.0)))
    for (b, s), ys in y_names.items():
        for h, y in zip(B, ys):
            radd(new(Constraint, (f"act_{b}_{s}_{h}", {y: 1.0, x_names[h]: -1.0}, LE, 0.0)))
    for (h, s), ys in y_names.items():
        x = x_names[h]
        for c, y in zip(B, ys):
            radd(new(Constraint, (f"norelay_{h}_{s}_{c}", {y: 1.0, x: 1.0}, LE, 1.0)))

    by_branch = {}
    for (b, t) in pairs:
        by_branch.setdefault(b, []).append(t)
    for b in B:
        m_b = sum(instance.demand[(b, t)] for t in by_branch.get(b, []))
        for s in S:
            vhs = vh_names[(b, s)]
            coeffs = {vd_names[(b, s)]: -1.0}
            coeffs.update(dict.fromkeys(vhs, -1.0))
            for t in by_branch.get(b, []):
                zs = z_names[(b, t)]
                if s in zs:
                    coeffs[zs[s]] = instance.demand[(b, t)]
            radd(new(Constraint, (f"split_{b}_{s}", coeffs, EQ, 0.0)))
            for h, vh, y in zip(B, vhs, y_names[(b, s)]):
                radd(new(Constraint, (f"bigm_{b}_{s}_{h}", {vh: 1.0, y: -m_b}, LE, 0.0)))

    position = {b: i for i, b in enumerate(B)}
    minus_v = [-v for v in v_pts]
    for (b, r), (nl, steps) in zip(arcs, land_names):
        if r in instance.nodes.origin_ports:
            # Arc into a port: direct volume of b plus everything hubbed via b.
            hub = position[b]
            coeffs = {vd_names[(b, r)]: 1.0}
            coeffs.update(dict.fromkeys([vh_names[(c, r)][hub] for c in B], 1.0))
        else:
            # Arc into hub r: the feeder flow from b over every port.
            hub = position[r]
            coeffs = {vh_names[(b, s)][hub]: 1.0 for s in S}
        coeffs[nl] = minus_v[j]
        coeffs.update(zip(steps, minus_v))
        radd(new(Constraint, (f"cap_{b}_{r}", coeffs, LE, 0.0)))
        radd(new(Constraint, (f"step_{b}_{r}", dict.fromkeys(steps, 1.0), LE, 1.0)))

    for (s, t), (ns, us) in sea_names.items():
        coeffs = {}
        for (b, t2) in pairs:
            if t2 == t:
                zs = z_names[(b, t)]
                if s in zs:
                    coeffs[zs[s]] = instance.demand[(b, t)]
        coeffs[ns] = -instance.sea_container_volume
        if us is not None:
            coeffs[us] = -1.0
        radd(new(Constraint, (f"sea_{s}_{t}", coeffs, LE, 0.0)))

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
    # A plain loop, not sum() over a generator: decode checks every row.
    lhs = 0.0
    for name, coef in constraint.coeffs.items():
        lhs += coef * values[name]
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
    for name, kind, _, upper in model.variables:
        val = float(values[name])
        if not math.isfinite(val):
            raise ModelDecodeError(f"{name} = {val} is not a finite number")
        if kind != CONTINUOUS:
            rounded = round(val)
            if abs(val - rounded) > BINARY_TOL:
                raise ModelDecodeError(f"{name} = {val} is not integral within {BINARY_TOL}")
            if kind == BINARY and rounded not in (0, 1):
                raise ModelDecodeError(f"{name} = {val} is not in {{0, 1}}")
            val = float(rounded)
        hi = upper if upper is not None else (1.0 if kind == BINARY else None)
        if val < -RESIDUAL_TOL or (hi is not None and val > hi + RESIDUAL_TOL):
            raise ModelDecodeError(f"{name} = {val} violates bounds [0.0, {hi}]")
        clean[name] = val

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
        # One split per line: a blank line has no token, and a comment's
        # first token starts with "#".
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise ModelDecodeError(f"line {lineno}: expected 'name value', got {raw!r}")
        name, value = parts
        try:
            out[name] = float(value)
        except ValueError:
            raise ModelDecodeError(f"line {lineno}: {value!r} is not a number")
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


class _TermHeads(dict):
    """coefficient -> ``"+ c "`` or ``"- c "``, the head of an LP term,
    rendered on first use; one table per emission, as ``_Numerals``."""

    def __missing__(self, x):
        s = self[x] = f"- {_num(-x)} " if x < 0 else f"+ {_num(x)} "
        return s


def _lp_terms(names, coeffs: dict, heads: _TermHeads) -> list:
    """Signed `+ c name` terms in the order of ``names``, wrapped into
    lines of at most six terms."""
    terms = [heads[coeffs[name]] + name for name in names]
    return [" ".join(terms[i:i + 6]) for i in range(0, len(terms), 6)]


def emit_lp(model: MilpModel) -> str:
    """CPLEX-style LP text, canonical order, byte-stable across runs."""
    num = _Numerals()
    heads = _TermHeads()
    out = [f"\\ hublocate model {model.name}", "Minimize"]
    obj = {name: c for name, _, c, _ in model.variables if c != 0.0}
    lines = _lp_terms(obj, obj, heads)
    out.append(" obj: " + lines[0])
    out.extend("      " + ln for ln in lines[1:])
    out.append("Subject To")
    add = out.append
    for row, coeffs, sense, rhs in model.constraints:
        # Names are unique, so sorting the names alone gives the order that
        # sorting (name, coefficient) pairs gives, without building pairs.
        if len(coeffs) == 2:  # most rows: act_, norelay_, bigm_
            a, b = coeffs
            if b < a:
                a, b = b, a
            add(f" {row}: {heads[coeffs[a]]}{a} {heads[coeffs[b]]}{b} {sense} {num[rhs]}")
            continue
        names = sorted(coeffs)
        if len(names) <= 6:  # one line
            add(f" {row}: {' '.join([heads[coeffs[n]] + n for n in names])} {sense} {num[rhs]}")
        else:
            lines = _lp_terms(names, coeffs, heads)
            add(f" {row}: {lines[0]}")
            out.extend(["      " + ln for ln in lines[1:-1]])
            add(f"      {lines[-1]} {sense} {num[rhs]}")
    bounds = []
    for name, kind, _, upper in model.variables:
        if upper is None:
            continue
        if kind == BINARY and upper >= 1.0:
            continue
        if upper == 0.0:
            bounds.append(f" {name} = 0")
        else:
            bounds.append(f" {name} <= {num[upper]}")
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
    out.extend([f" {sense_tag[c.sense]} {c.name}" for c in model.constraints])

    # Each column's entry lines, rendered once, objective row first and
    # then the constraint rows in model order.  A row holds at most one
    # entry per column, so the order of a row's coefficients never shows.
    entries: dict = {
        name: [f"    {name} obj {num[c]}"] if c != 0.0 else []
        for name, _, c, _ in model.variables
    }
    for c in model.constraints:
        row = c.name
        for name, coef in c.coeffs.items():
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
    out.extend([f"    RHS {c.name} {num[c.rhs]}" for c in model.constraints if c.rhs != 0.0])

    out.append("BOUNDS")
    add = out.append
    for name, kind, _, upper in model.variables:
        if kind == BINARY:
            if upper == 0.0:
                add(f" FX BND {name} 0")
            else:
                add(f" BV BND {name}")
        elif kind == INTEGER:
            if upper is None:
                add(f" PL BND {name}")
            else:
                add(f" UP BND {name} {num[upper]}")
        elif upper is not None:
            if upper == 0.0:
                add(f" FX BND {name} 0")
            else:
                add(f" UP BND {name} {num[upper]}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"
