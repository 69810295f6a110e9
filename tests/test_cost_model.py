"""Land and sea cost function behavior, anchored by hand-computed values."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hublocate import (
    LandCostTable,
    SeaRate,
    generate,
    land_breakpoints,
    land_cost_approx,
    land_cost_exact,
    sea_cost,
)
from hublocate.cost_model import approx_breakpoint_volumes, container_split, land_cost_row
from hublocate.errors import DistanceOutOfRangeError
from hublocate.gen import PROFILES


def near_curve(toy_instance):
    return land_breakpoints(toy_instance.land_costs, 50.0)


class TestContainerSplit:
    def test_zero(self):
        assert container_split(0.0, 80.0) == (0, 0.0)

    def test_exact_multiple_has_zero_rest(self):
        n, u = container_split(160.0, 80.0)
        assert (n, u) == (2, 0.0)

    def test_fractional(self):
        n, u = container_split(95.0, 80.0)
        assert n == 1 and u == pytest.approx(15.0)


class TestLandExact:
    def test_zero_volume_free(self, toy_instance):
        assert land_cost_exact(toy_instance.land_costs, 50.0, 0.0) == 0.0

    def test_full_container_is_single_container_price(self, toy_instance):
        assert land_cost_exact(toy_instance.land_costs, 50.0, 80.0) == 80.0

    def test_one_and_a_half_containers(self, toy_instance):
        # 120 = 80 + 40; the 40 m3 rest falls in the (10, 40] band: 80 + 48.
        assert land_cost_exact(toy_instance.land_costs, 50.0, 120.0) == pytest.approx(128.0)

    def test_band_edges_are_upper_inclusive(self, toy_instance):
        table = toy_instance.land_costs
        assert land_cost_exact(table, 50.0, 10.0) == 20.0
        assert land_cost_exact(table, 50.0, 10.000001) == 48.0

    def test_distance_bands_half_open(self, toy_instance):
        table = toy_instance.land_costs
        assert land_cost_exact(table, 99.999, 5.0) == 20.0
        assert land_cost_exact(table, 100.0, 5.0) == 60.0  # second band starts
        assert land_cost_exact(table, 1000.0, 5.0) == 60.0  # last band closed

    def test_distance_out_of_range(self, toy_instance):
        with pytest.raises(DistanceOutOfRangeError):
            land_cost_exact(toy_instance.land_costs, 1000.5, 5.0)

    def test_negative_volume_rejected(self, toy_instance):
        with pytest.raises(ValueError):
            land_cost_exact(toy_instance.land_costs, 50.0, -1.0)


class TestLandBreakpoints:
    def test_head_prepended(self, toy_instance):
        curve = near_curve(toy_instance)
        assert curve.breakpoints == (8.0, 10.0, 40.0, 80.0)
        assert curve.values == (20.0, 20.0, 48.0, 80.0)

    def test_no_duplicate_when_head_is_a_break(self):
        table = LandCostTable(
            distance_breaks=(100.0,),
            volume_breaks=(8.0, 40.0, 80.0),
            cost=((10.0, 30.0, 60.0),),
        )
        curve = land_breakpoints(table, 10.0)
        assert curve.breakpoints == (8.0, 40.0, 80.0)

    def test_two_band_toy_table_hand_computed(self):
        table = LandCostTable(
            distance_breaks=(100.0,),
            volume_breaks=(40.0, 80.0),
            cost=((30.0, 50.0),),
        )
        curve = land_breakpoints(table, 10.0)
        # head 8 sits inside the (0, 40] band, so its value is that band's.
        assert curve.breakpoints == (8.0, 40.0, 80.0)
        assert curve.values == (30.0, 30.0, 50.0)
        assert curve.step_count == 2

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("n_volume_bands", range(1, 9))
    def test_values_are_exact_costs_on_generated_tables(self, profile, n_volume_bands):
        table = generate(3, 2, 2, 1, 1.0, profile, n_volume_bands=n_volume_bands).land_costs
        # The lower edge of each distance band lies inside it.
        for dist in (0.0, *table.distance_breaks[:-1]):
            curve = land_breakpoints(table, dist)
            assert curve.values == tuple(
                land_cost_exact(table, dist, w) for w in curve.breakpoints
            )


class TestLandApprox:
    def test_linear_head_midpoint(self, toy_instance):
        curve = near_curve(toy_instance)
        assert land_cost_approx(curve, 4.0) == pytest.approx(10.0)

    def test_full_container(self, toy_instance):
        assert land_cost_approx(near_curve(toy_instance), 80.0) == pytest.approx(80.0)

    def test_step_lookup_between_breaks(self, toy_instance):
        # 25 lies in (10, 40]: the scalar piecewise definition gives 48.
        assert land_cost_approx(near_curve(toy_instance), 25.0) == pytest.approx(48.0)

    def test_pattern_repeats_per_container(self, toy_instance):
        curve = near_curve(toy_instance)
        assert land_cost_approx(curve, 84.0) == pytest.approx(80.0 + 10.0)
        assert land_cost_approx(curve, 105.0) == pytest.approx(80.0 + 48.0)

    def test_agrees_with_exact_at_and_above_head(self, toy_instance):
        table = toy_instance.land_costs
        curve = near_curve(toy_instance)
        rng = random.Random(1)
        for _ in range(500):
            v = rng.uniform(8.0, 80.0)
            assert land_cost_approx(curve, v) == pytest.approx(
                land_cost_exact(table, 50.0, v), rel=1e-12
            )
        for w in curve.breakpoints:
            assert land_cost_approx(curve, w) == pytest.approx(
                land_cost_exact(table, 50.0, w), rel=1e-12
            )

    def test_equals_tariff_price_above_the_ramp(self):
        # Above the ramp the approximated curve is the tariff, to the bit,
        # so both must split a load into containers alike: 7 * 73.6 rounds
        # to 515.1999999999999, which is 7 containers and no rest, not 6
        # plus a full rest (6 * 188.66 + 188.66 == 1320.6200000000001).
        table = LandCostTable((100.0,), (7.36, 36.8, 73.6), ((60.0, 120.0, 188.66),))
        assert land_cost_approx(land_breakpoints(table, 10.0), 7 * 73.6) == 1320.62
        rng = random.Random(3)
        for _ in range(300):
            u_cont = round(rng.uniform(10.0, 100.0), rng.choice((1, 2, 3)))
            fracs = sorted(rng.sample(range(1, 100), rng.randint(0, 4)))
            breaks = tuple(round(f * u_cont / 100.0, 6) for f in fracs) + (u_cont,)
            row = tuple(sorted(round(rng.uniform(1.0, 500.0), 2) for _ in breaks))
            table = LandCostTable((100.0,), breaks, (row,))
            curve = land_breakpoints(table, 10.0)
            for n in range(1, 21):
                for v in (n * u_cont, n * u_cont + rng.uniform(0.0, u_cont)):
                    if 0.0 < container_split(v, u_cont)[1] <= curve.breakpoints[0]:
                        continue  # on the ramp
                    assert land_cost_approx(curve, v) == land_cost_row(row, breaks, v)

    def test_breakpoint_volume_enumeration(self, toy_instance):
        curve = near_curve(toy_instance)
        assert approx_breakpoint_volumes(curve, 0.0, 80.0) == [8.0, 10.0, 40.0]
        assert approx_breakpoint_volumes(curve, 75.0, 95.0) == [80.0, 88.0, 90.0]


@st.composite
def monotone_tables(draw):
    n_vol = draw(st.integers(min_value=1, max_value=6))
    n_dist = draw(st.integers(min_value=1, max_value=3))
    u_cont = draw(st.floats(min_value=10.0, max_value=100.0))
    fracs = sorted(draw(st.lists(
        st.floats(min_value=0.01, max_value=0.99), min_size=n_vol - 1,
        max_size=n_vol - 1, unique=True,
    )))
    vol_breaks = tuple(round(f * u_cont, 6) for f in fracs) + (u_cont,)
    dist_breaks = tuple(100.0 * (k + 1) for k in range(n_dist))
    rows = []
    for _ in range(n_dist):
        steps = draw(st.lists(
            st.floats(min_value=0.0, max_value=50.0), min_size=n_vol, max_size=n_vol
        ))
        acc, row = 0.0, []
        for s in steps:
            acc += s
            row.append(acc)
        rows.append(tuple(row))
    return LandCostTable(dist_breaks, vol_breaks, tuple(rows))


@settings(max_examples=150, deadline=None)
@given(table=monotone_tables(), data=st.data())
def test_exact_land_cost_non_decreasing(table, data):
    u_cont = table.container_volume
    dist = data.draw(st.floats(min_value=0.0, max_value=table.distance_breaks[-1]))
    v1 = data.draw(st.floats(min_value=0.0, max_value=3.0 * u_cont))
    v2 = data.draw(st.floats(min_value=0.0, max_value=3.0 * u_cont))
    lo, hi = sorted((v1, v2))
    assert land_cost_exact(table, dist, lo) <= land_cost_exact(table, dist, hi) + 1e-9


@settings(max_examples=150, deadline=None)
@given(table=monotone_tables(), data=st.data())
def test_approx_equals_exact_from_head_to_container(table, data):
    dist = data.draw(st.floats(min_value=0.0, max_value=table.distance_breaks[-1]))
    curve = land_breakpoints(table, dist)
    v = data.draw(st.floats(
        min_value=table.container_volume / 10.0, max_value=table.container_volume
    ))
    assert land_cost_approx(curve, v) == pytest.approx(
        land_cost_exact(table, dist, v), rel=1e-9, abs=1e-9
    )


def brute_force_sea(rate, v, u_cont, cap, penalty, grid=20000, limit=None):
    """Independent minimizer: scan n and a fine u grid up to the relation's
    NVOCC limit, or up to ``limit`` when given."""
    if v <= 0.0:
        return 0.0
    u_lim = rate.nvocc_limit(cap) if limit is None else limit
    per_n = rate.fcl_per_container if rate.fcl_per_container is not None else penalty
    nvocc = rate.nvocc_per_m3 or 0.0
    best = math.inf
    for n in range(0, int(math.ceil(v / u_cont)) + 2):
        for k in range(grid + 1):
            u = u_lim * k / grid
            if n * u_cont + u >= v - 1e-12:
                best = min(best, n * per_n + u * nvocc)
    return best


class TestSeaCost:
    FIG_RATE = SeaRate(fcl_per_container=26.282, nvocc_per_m3=26.282 / 22.4)

    def test_zero_volume(self):
        assert sea_cost(self.FIG_RATE, 0.0, 55.0, 40.0) == (0.0, 0, 0.0)

    def test_limit_volume_costs_one_container_price(self):
        cost, _, _ = sea_cost(self.FIG_RATE, 22.4, 55.0, 40.0)
        assert cost == pytest.approx(26.282, abs=1e-9)

    def test_full_container(self):
        cost, n, u = sea_cost(self.FIG_RATE, 55.0, 55.0, 40.0)
        assert (n, u) == (1, 0.0)
        assert cost == pytest.approx(26.282, abs=1e-9)

    def test_container_plus_rest_matches_brute_force(self):
        # One container plus 5 m3 NVOCC; frozen from the grid minimizer.
        cost, n, u = sea_cost(self.FIG_RATE, 60.0, 55.0, 40.0)
        assert (n, u) == (1, pytest.approx(5.0))
        expected = 26.282 + 5.0 * (26.282 / 22.4)
        assert cost == pytest.approx(expected, rel=1e-12)
        assert cost == pytest.approx(
            brute_force_sea(self.FIG_RATE, 60.0, 55.0, 40.0, 1e8), rel=1e-4
        )

    def test_fcl_only_forces_whole_containers(self):
        rate = SeaRate(fcl_per_container=100.0)
        cost, n, u = sea_cost(rate, 56.0, 55.0, 40.0)
        assert (n, u) == (2, 0.0)
        assert cost == 200.0

    def test_nvocc_only_below_cap_is_pure_nvocc(self):
        rate = SeaRate(nvocc_per_m3=10.0)
        cost, n, u = sea_cost(rate, 30.0, 55.0, 40.0, penalty=1e8)
        assert n == 0
        assert cost == pytest.approx(300.0)

    def test_nvocc_only_above_cap_incurs_penalty(self):
        rate = SeaRate(nvocc_per_m3=10.0)
        cost, n, _ = sea_cost(rate, 41.0, 55.0, 40.0, penalty=1e8)
        assert n == 1
        assert cost >= 1e8

    def test_limit_equivalence_randomized(self):
        # The derived limit min(cap, fcl / nvocc) loses nothing against the
        # plain cap.  Volumes and the container volume 55 are multiples of
        # the grid step 40 / 400, so every rest volume lies on the grid and
        # the brute force is exact.
        rng = random.Random(7)
        for _ in range(500):
            fcl = rng.uniform(50.0, 3000.0)
            nvocc = rng.uniform(1.0, 120.0)
            rate = SeaRate(fcl_per_container=fcl, nvocc_per_m3=nvocc)
            v = rng.randint(0, 2000) / 10.0
            cost, _, _ = sea_cost(rate, v, 55.0, 40.0)
            brute = brute_force_sea(rate, v, 55.0, 40.0, 1e8, grid=400, limit=40.0)
            assert cost == pytest.approx(brute, rel=1e-9, abs=1e-9)

    def test_never_above_all_containers(self):
        rng = random.Random(8)
        for _ in range(2000):
            fcl = rng.uniform(50.0, 3000.0)
            rate = SeaRate(fcl_per_container=fcl, nvocc_per_m3=rng.uniform(1.0, 120.0))
            v = rng.uniform(0.001, 200.0)
            cost, _, _ = sea_cost(rate, v, 55.0, 40.0)
            assert cost <= fcl * math.ceil(v / 55.0) + 1e-9

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            SeaRate()
        with pytest.raises(ValueError):
            SeaRate(fcl_per_container=-1.0)
        assert SeaRate(fcl_per_container=100.0).nvocc_limit(40.0) == 0.0
        assert SeaRate(nvocc_per_m3=5.0).nvocc_limit(40.0) == 40.0
        assert SeaRate(
            fcl_per_container=100.0, nvocc_per_m3=5.0
        ).nvocc_limit(40.0) == pytest.approx(20.0)

