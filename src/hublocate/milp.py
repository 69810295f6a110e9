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

Constraint families: port_ (one origin port per shipment), onehub_ (at
most one hub per connection, none for a hub's own connections), act_
(hub activation), split_ (volume split, kept as an equation so encoding
and decoding are inverse), bigm_ (per-branch big-M linking), cap_ (land
capacity per arc), step_ (at most one active land step), sea_ (sea
capacity per relation).

Model size closed forms, with nB/nS branches/ports, P positive-demand
pairs, A the total number of (pair, usable port) combinations, U rated
relations, Un rated relations with an NVOCC rate, R = nB * (nB + nS)
land arcs, and j the land step count:

  variables   A + nB + 2 * nB^2 * nS + nB * nS + R * (j + 1) + U + Un
  constraints P + 2 * nB^2 * nS + 2 * nB * nS + 2 * R + U

Store and column layout.  ``MilpModel`` keeps its columns as parallel
lists ``names``, ``kinds``, ``obj`` and ``upper`` (``None`` for the
kind's default bound: 1 for a binary, +inf else), and its rows as
parallel lists ``row_names``, ``senses`` and ``rhs``.  The matrix is kept
once, in CSR form: row ``i`` holds the entries ``row_start[i]:row_start[i
+ 1]`` of ``col`` (column indices) and ``coef``, at most one per column,
so ``scipy.sparse.csr_array((coef, col, row_start))`` is the matrix.
Every variable has lower bound 0 and the objective is minimized.
``build_linearized_model`` formats every name once; after it, code
addresses a variable by its column, through ``ModelMeta``'s tables per
family: ``z_cols[b, t][s]``, ``x_cols[b]``, ``y_cols[b, s][h]``,
``vd_cols[b, s]``, ``vh_cols[b, s][h]``, ``land_cols[b, r] = (nL,
uL0..uL<j-1>)`` and ``sea_cols[s, t] = (nS, uS or None)``.  Encoding,
decoding and ``MilpModel.fix_no_hubs`` read these tables.  Names join
node ids with "_", and ids may hold "_", so ``MilpModel.validate``
refuses a variable or row name made twice (``ModelNameError``).  A row's
entries stay in the order the builder appends them, the order
``row_residuals`` sums its activity in, so residuals and decode's answers
depend on it; the emitted texts do not.  Code reads the model only
through these arrays and ``meta``; ``model.variables`` and
``model.constraints`` return ``names`` and ``row_names``, for the
benchmark's tracer alone.

Emission contract.  ``emit_lp`` and ``emit_mps`` are pure functions of
the model: the same model gives the same bytes on every run and every
release, and numerals are ``_num`` (at most 12 significant digits).  LP
rows list their terms in sorted variable-name order.  MPS columns come
in variable order, each with its objective entry and then its row
entries in model row order; a row holds at most one entry per column,
so ``emit_mps`` sorts nothing and the entry order of a row never
reaches either text.  ``decode`` compares a
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
from itertools import chain, islice

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


@dataclass
class ModelMeta:
    """Build context kept alongside the model: the column index of every
    variable, per family, in model order (see "column layout" in the
    module docstring).  ``encode_solution``, ``decode_solution`` and
    ``MilpModel.fix_no_hubs`` address the columns through these tables."""

    instance: Instance
    breakpoints: tuple  # v(0) .. v(j), shared by every distance band
    step_count: int  # j
    z_cols: dict  # (b, t) -> {usable port s: column}
    x_cols: dict  # b -> column
    y_cols: dict  # (b, s) -> {hub h: column}, h in branch order
    vd_cols: dict  # (b, s) -> column
    vh_cols: dict  # (b, s) -> {hub h: column}, h in branch order
    land_cols: dict  # land arc (b, r) -> (nL column, range of uL0..uL<j-1>)
    sea_cols: dict  # (s, t) -> (nS column, uS column or None)


@dataclass
class MilpModel:
    """The linearized model as flat arrays (see "Store" in the module
    docstring)."""

    name: str
    names: list  # column j: names[j], kinds[j], obj[j], upper[j]
    kinds: list
    obj: list
    upper: list  # None = kind default (1 for binary, +inf else)
    row_names: list  # row i: row_names[i], senses[i], rhs[i]
    senses: list
    rhs: list
    row_start: list  # row i's entries are row_start[i]:row_start[i + 1]
    col: list  # column index of each entry
    coef: list  # coefficient of each entry
    meta: ModelMeta

    # Not read here; kept because perfbench/tracer.py::_model_size reads
    # their lengths (ROADMAP item 8 deletes both once it reads names).
    @property
    def variables(self) -> list:
        return self.names

    @property
    def constraints(self) -> list:
        return self.row_names

    def validate(self) -> None:
        """Refuse a variable or row name given twice (``ModelNameError``)."""
        if len(set(self.names)) != len(self.names):
            raise _clash("variable", self.names)
        if len(set(self.row_names)) != len(self.row_names):
            raise _clash("row", self.row_names)

    def fix_no_hubs(self) -> None:
        """Restrict the model to pure port assignment with direct
        transport: set the upper bound of every hub column (x, y, vh) to 0."""
        meta, upper = self.meta, self.upper
        for j in meta.x_cols.values():
            upper[j] = 0.0
        for cols in chain(meta.y_cols.values(), meta.vh_cols.values()):
            for j in cols.values():
                upper[j] = 0.0

    def objective_value(self, values: dict) -> float:
        return _objective(self, [values[name] for name in self.names])


def _clash(what: str, names: list) -> ModelNameError:
    """The error for a list of names that holds one name twice."""
    name = next(n for n, count in Counter(names).items() if count > 1)
    return ModelNameError(
        f"duplicate {what} name {name}: node ids that hold '_' join into "
        "the same name; rename them"
    )


def build_linearized_model(instance: Instance) -> MilpModel:
    """Build the full linearized model for a valid instance.

    ``MilpModel.fix_no_hubs`` restricts it to pure port assignment with
    direct transport.
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
    connections = [(b, s) for b in B for s in S]

    # The breakpoint volumes are shared by all distance bands; the cost
    # values differ per band.
    curve = price_table(instance).curve
    first_curve = curve(B[0], B[0])
    v_pts = first_curve.breakpoints
    j = first_curve.step_count

    names: list[str] = []
    kinds: list[str] = []
    obj: list[float] = []
    upper: list = []

    def columns(new_names: list, kind: str, costs: list, bound=None) -> range:
        """Append one column per name, all of one kind and bound; their indices."""
        start = len(names)
        names.extend(new_names)
        kinds.extend([kind] * len(new_names))
        obj.extend(costs)
        upper.extend([bound] * len(new_names))
        return range(start, len(names))

    # Every name is formatted once, here, and the tables of ModelMeta give
    # each column's index.
    z_cols = {}
    for (b, t) in pairs:
        v = instance.demand[(b, t)]
        ports = usable[t]
        z_cols[(b, t)] = dict(zip(ports, columns(
            [f"z_{b}_{t}_{s}" for s in ports], BINARY,
            [instance.port_consol_cost[s] * v for s in ports],
        )))
    x_block = columns([f"x_{b}" for b in B], BINARY, [instance.setup_cost[b] for b in B])
    x_cols = dict(zip(B, x_block))
    n_bs = len(connections)
    y_block = columns(
        [f"y_{b}_{s}_{h}" for (b, s) in connections for h in B], BINARY, [0.0] * (n_bs * len(B))
    )
    y_cols = {bs: dict(zip(B, y_block[k * len(B):])) for k, bs in enumerate(connections)}
    vd_cols = dict(zip(connections, columns(
        [f"vd_{b}_{s}" for (b, s) in connections], CONTINUOUS, [0.0] * n_bs
    )))
    vh_block = columns(
        [f"vh_{b}_{s}_{h}" for (b, s) in connections for h in B], CONTINUOUS,
        [instance.hub_consol_cost[h] for _ in connections for h in B],
    )
    vh_cols = {bs: dict(zip(B, vh_block[k * len(B):])) for k, bs in enumerate(connections)}

    # Per arc, in arcs order: nL and the steps uL0..uL<j-1>, the largest
    # family, whose kinds and bounds repeat from arc to arc.
    start = len(names)
    prefixes = ["nL", *[f"uL{i}" for i in range(j)]]
    names.extend([f"{prefix}_{b}_{r}" for (b, r) in arcs for prefix in prefixes])
    kinds.extend([INTEGER, CONTINUOUS, *[BINARY] * (j - 1)] * len(arcs))
    upper.extend([None, 1.0, *[None] * (j - 1)] * len(arcs))
    for (b, r) in arcs:
        values = curve(b, r).values
        obj.append(values[j])
        obj.extend(values[:j])
    land_cols = {
        arc: (nl, range(nl + 1, nl + 1 + j))
        for arc, nl in zip(arcs, range(start, len(names), j + 1))
    }
    # Per relation: nS, and uS where the relation has an NVOCC rate.
    sea_cols = {}
    for (s, t) in relations:
        rate = instance.sea_rates[(s, t)]
        fcl = rate.fcl_per_container
        ns = columns(
            [f"nS_{s}_{t}"], INTEGER, [fcl if fcl is not None else instance.nvocc_penalty]
        )[0]
        us = None
        if rate.nvocc_per_m3 is not None:
            u_lim = rate.nvocc_limit(instance.nvocc_cap)
            us = columns([f"uS_{s}_{t}"], CONTINUOUS, [rate.nvocc_per_m3], u_lim)[0]
        sea_cols[(s, t)] = (ns, us)

    row_names: list[str] = []
    senses: list[str] = []
    rhs: list[float] = []
    row_start = [0]
    col: list[int] = []
    coef: list[float] = []

    def row(name: str, sense: str, bound: float, cols, coefs) -> None:
        """Append one row; its entries in the order of ``cols``."""
        row_names.append(name)
        senses.append(sense)
        rhs.append(bound)
        col.extend(cols)
        coef.extend(coefs)
        row_start.append(len(col))

    def pair_rows(new_names: list, sense: str, bound: float, firsts, seconds, coefs) -> None:
        """Append one row per name, row k with the two entries firsts[k]
        and seconds[k] at the coefficients ``coefs``; most rows have two."""
        n = len(new_names)
        row_names.extend(new_names)
        senses.extend([sense] * n)
        rhs.extend([bound] * n)
        start = len(col)
        col.extend(chain.from_iterable(zip(firsts, seconds)))
        coef.extend(coefs * n)
        row_start.extend(range(start + 2, start + 2 * n + 1, 2))

    for (b, t) in pairs:
        zs = z_cols[(b, t)]
        row(f"port_{b}_{t}", EQ, 1.0, zs.values(), [1.0] * len(zs))
    # At most one hub per connection, and none if b is itself a hub.
    ones = [1.0] * (len(B) + 1)
    for (b, s), ys in y_cols.items():
        row(f"onehub_{b}_{s}", LE, 1.0, [*ys.values(), x_cols[b]], ones)
    # y_block runs over (b, s) and then h: act_ pairs y[b, s, h] with x[h].
    pair_rows(
        [f"act_{b}_{s}_{h}" for (b, s) in connections for h in B], LE, 0.0,
        y_block, [*x_block] * n_bs, (1.0, -1.0),
    )

    by_branch = {}
    for (b, t) in pairs:
        by_branch.setdefault(b, []).append(t)
    minus_ones = [-1.0] * (1 + len(B))
    for b in B:
        m_b = sum(instance.demand[(b, t)] for t in by_branch.get(b, []))
        for s in S:
            vhs = vh_cols[(b, s)].values()
            cols = [vd_cols[(b, s)], *vhs]
            coefs = minus_ones.copy()
            for t in by_branch.get(b, []):
                zs = z_cols[(b, t)]
                if s in zs:
                    cols.append(zs[s])
                    coefs.append(instance.demand[(b, t)])
            row(f"split_{b}_{s}", EQ, 0.0, cols, coefs)
            ys = y_cols[(b, s)].values()
            pair_rows([f"bigm_{b}_{s}_{h}" for h in B], LE, 0.0, vhs, ys, (1.0, -m_b))

    minus_v = [-v for v in v_pts]
    land_coefs = [minus_v[j], *minus_v[:j]]
    step_ones = [1.0] * j
    for (b, r), (nl, steps) in land_cols.items():
        if r in instance.nodes.origin_ports:
            # Arc into a port: direct volume of b plus everything hubbed via b.
            cols = [vd_cols[(b, r)], *[vh_cols[(c, r)][b] for c in B]]
        else:
            # Arc into hub r: the feeder flow from b over every port.
            cols = [vh_cols[(b, s)][r] for s in S]
        coefs = [1.0] * len(cols)
        cols.append(nl)
        cols.extend(steps)
        coefs.extend(land_coefs)
        row(f"cap_{b}_{r}", LE, 0.0, cols, coefs)
        row(f"step_{b}_{r}", LE, 1.0, steps, step_ones)

    for (s, t), (ns, us) in sea_cols.items():
        cols, coefs = [], []
        for (b, t2) in pairs:
            if t2 == t:
                zs = z_cols[(b, t)]
                if s in zs:
                    cols.append(zs[s])
                    coefs.append(instance.demand[(b, t)])
        cols.append(ns)
        coefs.append(-instance.sea_container_volume)
        if us is not None:
            cols.append(us)
            coefs.append(-1.0)
        row(f"sea_{s}_{t}", LE, 0.0, cols, coefs)

    model = MilpModel(
        name=instance.name,
        names=names,
        kinds=kinds,
        obj=obj,
        upper=upper,
        row_names=row_names,
        senses=senses,
        rhs=rhs,
        row_start=row_start,
        col=col,
        coef=coef,
        meta=ModelMeta(
            instance, v_pts, j, z_cols, x_cols, y_cols, vd_cols, vh_cols, land_cols, sea_cols
        ),
    )
    model.validate()
    return model


def variable_counts(model: MilpModel) -> dict:
    """Variable count per family prefix (z, x, y, vd, vh, nL, uL0, uLi, nS, uS)."""
    out: dict = {}
    for name in model.names:
        head = name.split("_", 1)[0]
        if head.startswith("uL"):
            head = "uL0" if head == "uL0" else "uLi"
        out[head] = out.get(head, 0) + 1
    return out


def constraint_counts(model: MilpModel) -> dict:
    out: dict = {}
    for name in model.row_names:
        head = name.split("_", 1)[0]
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

    x = [0.0] * len(model.names)
    for bt, zs in meta.z_cols.items():
        x[zs[solution.port_choice[bt]]] = 1.0
    for h in solution.hubs:
        x[meta.x_cols[h]] = 1.0

    vols = flows.vols
    for bs, vd in meta.vd_cols.items():
        v = vols.get(bs, 0.0)
        h = solution.hub_choice.get(bs)
        if h is not None:
            x[meta.y_cols[bs][h]] = 1.0
            y = solution.fraction(*bs)
            x[vd] = y * v
            x[meta.vh_cols[bs][h]] = (1.0 - y) * v
        else:
            x[vd] = v

    v_pts = meta.breakpoints
    j = meta.step_count
    u_cont = v_pts[-1]
    arc_vol = {**flows.port_arc, **flows.hub_arc}  # keys differ: r is a port or a branch
    for arc, (nl, steps) in meta.land_cols.items():
        load = arc_vol.get(arc, 0.0)
        if load <= 0.0:
            continue
        n, u = container_split(load, u_cont)
        if u == 0.0:
            x[nl] = float(n)
        elif u <= v_pts[0]:
            x[nl] = float(n)
            x[steps[0]] = u / v_pts[0]
        else:
            i = bisect_left(v_pts, u)
            if i >= j:
                # Rest volume in the last band costs a full container.
                x[nl] = float(n + 1)
            else:
                x[nl] = float(n)
                x[steps[i]] = 1.0

    for (s, t), w in sorted(flows.sea_vol.items()):
        _, n, u = sea_cost(
            instance.sea_rates[(s, t)], w, instance.sea_container_volume,
            instance.nvocc_cap, instance.nvocc_penalty,
        )
        ns, us = meta.sea_cols[(s, t)]
        x[ns] = float(n)
        if u > 0.0:
            x[us] = u
    return dict(zip(model.names, x))


def _objective(model: MilpModel, x: list) -> float:
    """The objective at the column values ``x``, summed in column order."""
    return sum([c * v for c, v in zip(model.obj, x) if c != 0.0])


def row_residuals(model: MilpModel, x: list) -> list:
    """Each row's violation at the column values ``x`` (in column order),
    in row order: how far a ``<=`` row's activity is above its right-hand
    side, a ``>=`` row's below it, and an ``=`` row's off it.  A row's
    activity is summed entry by entry, in the row's entry order."""
    terms = [c * x[j] for c, j in zip(model.coef, model.col)]
    out = []
    lo = 0
    for hi, sense, bound in zip(islice(model.row_start, 1, None), model.senses, model.rhs):
        # A plain loop: faster than reduce() on rows this short, and the
        # same bits on every Python (sum() of floats is compensated from 3.12).
        lhs = 0.0
        for term in terms[lo:hi]:
            lhs += term
        lo = hi
        if sense == EQ:
            out.append(abs(lhs - bound))
        else:
            gap = lhs - bound if sense == LE else bound - lhs
            out.append(gap if gap > 0.0 else 0.0)  # as max(0.0, gap), NaN included
    return out


def max_residual(model: MilpModel, values: dict) -> float:
    return max(row_residuals(model, [values[name] for name in model.names]))


def decode_solution(model: MilpModel, values: dict):
    """Reconstruct a Solution from solver output values.

    Values must name every model variable and no other, and be finite;
    binaries and integers must be within 1e-5 of integral and constraint
    residuals within 1e-4.  The decoded solution's approximated cost
    must not exceed the model objective at the (integer-rounded) values
    by more than ``COST_RTOL``: a load a residual tolerance above a land
    volume break is priced one step up by the evaluator although the
    model's step variables price it below.  A cost below the objective is accepted, since the ``cap_`` and
    ``sea_`` rows let a feasible answer (say, a time-limited solver's
    incumbent) carry more containers than its loads need; the evaluator
    prices the minimum.  Returns ``(solution, breakdown)``, the breakdown
    being the approximated ``CostBreakdown`` of the decoded solution.
    """
    meta = model.meta
    instance = meta.instance

    names = model.names
    missing = [name for name in names if name not in values]
    if missing:
        raise ModelDecodeError(
            f"values missing for {len(missing)} variable(s), first: {missing[0]}"
        )
    if len(values) > len(names):  # no name is missing, so some are extra
        known = set(names)
        extra = [name for name in values if name not in known]
        raise ModelDecodeError(
            f"values name {len(extra)} variable(s) the model lacks, first: {extra[0]}"
        )

    x = []
    for name, kind, upper in zip(names, model.kinds, model.upper):
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
        x.append(val)

    for row, res in zip(model.row_names, row_residuals(model, x)):
        if res > RESIDUAL_TOL:
            raise ModelDecodeError(f"constraint {row} violated by {res}")

    port_choice = {}
    for (b, t), zs in meta.z_cols.items():
        chosen = [s for s, j in zs.items() if x[j] > 0.5]
        if len(chosen) != 1:
            raise ModelDecodeError(f"shipment ({b}, {t}) selects {len(chosen)} origin ports")
        port_choice[(b, t)] = chosen[0]

    hubs = frozenset(b for b, j in meta.x_cols.items() if x[j] > 0.5)
    hub_choice = {}
    direct_fraction = {}
    vols = port_volumes(instance, port_choice)
    for bs, ys in meta.y_cols.items():
        picked = [h for h, j in ys.items() if x[j] > 0.5]
        if not picked:
            continue
        hub_choice[bs] = picked[0]
        v = vols.get(bs, 0.0)
        if v > 0.0:
            direct_fraction[bs] = min(1.0, max(0.0, x[meta.vd_cols[bs]] / v))
        else:
            direct_fraction[bs] = 1.0

    solution = Solution(
        port_choice=port_choice,
        hubs=hubs,
        direct_fraction=direct_fraction,
        hub_choice=hub_choice,
    )
    breakdown = evaluate_cost(instance, solution, "approx")
    objective = _objective(model, x)
    if breakdown.total - objective > COST_RTOL * max(1.0, abs(objective)):
        raise ModelDecodeError(
            f"decoded solution costs {breakdown.total!r} (approximated), "
            f"more than the model objective {objective!r} at the values"
        )
    return solution, breakdown


def _value_lines(text: str):
    """(line number, line, tokens) of each line that is neither blank nor
    a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # One split per line: a blank line has no token, and a comment's
        # first token starts with "#".
        parts = raw.split()
        if parts and parts[0][0] != "#":
            yield lineno, raw, parts


def parse_values_text(text: str) -> dict:
    """Parse solver output in plain `name value` per-line form; a name
    given on two lines is refused."""
    out = {}
    count = 0
    for lineno, raw, parts in _value_lines(text):
        if len(parts) != 2:
            raise ModelDecodeError(f"line {lineno}: expected 'name value', got {raw!r}")
        name, value = parts
        try:
            out[name] = float(value)
        except ValueError:
            raise ModelDecodeError(f"line {lineno}: {value!r} is not a number")
        count += 1
    if count != len(out):  # some name was given twice: find the first repeat
        first = {}
        for lineno, _, (name, _) in _value_lines(text):
            if name in first:
                raise ModelDecodeError(
                    f"line {lineno}: {name} given twice (first on line {first[name]})"
                )
            first[name] = lineno
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


def _lp_lines(terms: list) -> list:
    """LP terms wrapped into lines of at most six terms."""
    return [" ".join(terms[i:i + 6]) for i in range(0, len(terms), 6)]


def emit_lp(model: MilpModel) -> str:
    """CPLEX-style LP text, canonical order, byte-stable across runs."""
    num = _Numerals()
    heads = _TermHeads()
    names = model.names
    out = [f"\\ hublocate model {model.name}", "Minimize"]
    lines = _lp_lines([heads[c] + name for name, c in zip(names, model.obj) if c != 0.0])
    out.append(" obj: " + lines[0])
    out.extend("      " + ln for ln in lines[1:])
    out.append("Subject To")
    add = out.append
    coef = model.coef
    # Each entry's variable name; a row's names are unique, so sorting its
    # entries by name alone gives the canonical term order.
    entry_names = [names[j] for j in model.col]
    by_name = entry_names.__getitem__
    lo = 0
    for row, hi, sense, rhs in zip(
        model.row_names, islice(model.row_start, 1, None), model.senses, model.rhs
    ):
        if hi - lo == 2:  # most rows: act_, bigm_
            a, b = lo, lo + 1
            if entry_names[b] < entry_names[a]:
                a, b = b, a
            add(
                f" {row}: {heads[coef[a]]}{entry_names[a]} {heads[coef[b]]}{entry_names[b]}"
                f" {sense} {num[rhs]}"
            )
            lo = hi
            continue
        terms = [heads[coef[k]] + entry_names[k] for k in sorted(range(lo, hi), key=by_name)]
        lo = hi
        if len(terms) <= 6:  # one line
            add(f" {row}: {' '.join(terms)} {sense} {num[rhs]}")
        else:
            lines = _lp_lines(terms)
            add(f" {row}: {lines[0]}")
            out.extend(["      " + ln for ln in lines[1:-1]])
            add(f"      {lines[-1]} {sense} {num[rhs]}")
    bounds = []
    for name, kind, upper in zip(names, model.kinds, model.upper):
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
    binaries = [name for name, kind in zip(names, model.kinds) if kind == BINARY]
    if binaries:
        out.append("Binaries")
        for i in range(0, len(binaries), 8):
            out.append(" " + " ".join(binaries[i:i + 8]))
    generals = [name for name, kind in zip(names, model.kinds) if kind == INTEGER]
    if generals:
        out.append("Generals")
        for i in range(0, len(generals), 8):
            out.append(" " + " ".join(generals[i:i + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


def emit_mps(model: MilpModel) -> str:
    """Free-format MPS text; one column entry per line, integers marked."""
    num = _Numerals()
    names, kinds = model.names, model.kinds
    out = [f"NAME {model.name}", "ROWS", " N obj"]
    sense_tag = {LE: "L", GE: "G", EQ: "E"}
    out.extend([f" {sense_tag[sense]} {row}" for row, sense in zip(model.row_names, model.senses)])

    # The rows transposed once into each column's text: its entry lines,
    # each after a newline, objective row first and then the constraint
    # rows in model order.  A row holds at most one entry per column, so
    # the entry order of a row never shows.  Strings, not one list per
    # column: thousands of lists alive at once wake the cyclic collector.
    columns = [
        f"\n    {name} obj {num[c]}" if c != 0.0 else "" for name, c in zip(names, model.obj)
    ]
    entry_rows = []
    for row, lo, hi in zip(model.row_names, model.row_start, islice(model.row_start, 1, None)):
        entry_rows.extend([row] * (hi - lo))
    for j, row, c in zip(model.col, entry_rows, model.coef):
        columns[j] += f"\n    {names[j]} {row} {num[c]}"

    continuous = [text for text, kind in zip(columns, kinds) if kind == CONTINUOUS]
    integral = [text for text, kind in zip(columns, kinds) if kind != CONTINUOUS]
    out.append("COLUMNS" + "".join(continuous))
    if integral:
        out.append("    MARKER_INT_BEGIN 'MARKER' 'INTORG'" + "".join(integral))
        out.append("    MARKER_INT_END 'MARKER' 'INTEND'")

    out.append("RHS")
    out.extend([
        f"    RHS {row} {num[b]}" for row, b in zip(model.row_names, model.rhs) if b != 0.0
    ])

    out.append("BOUNDS")
    add = out.append
    for name, kind, upper in zip(names, kinds, model.upper):
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
