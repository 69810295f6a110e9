"""Candidate direct fractions: the piece boundaries, and only they, are candidates."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hublocate import generate
from hublocate.cost_model import approx_breakpoint_volumes
from hublocate.gen import PROFILES
from hublocate.pricing import price_table
from hublocate.splits import pair_fraction_candidates


def _generator_curves() -> list:
    curves = []
    for seed, profile in enumerate(PROFILES):
        inst = generate(seed, 3, 2, 2, 0.8, profile)
        prices = price_table(inst)
        branches = inst.nodes.branches
        for b in branches:
            for r in branches + inst.nodes.origin_ports:
                curves.append(prices.curve(b, r))
    return curves


CURVES = _generator_curves()
curve = st.sampled_from(CURVES)
volume = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=250.0))
base = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=250.0))
routed_arcs = st.lists(st.tuples(curve, base), max_size=4)


def _boundary_fractions(direct, routed, vol) -> list:
    """The fractions that put the direct arc or a routed arc on a piece
    boundary."""
    if vol <= 0.0:
        return []
    out = [w / vol for w in approx_breakpoint_volumes(direct, 0.0, vol)]
    for c, b in routed:
        out += [1.0 - (w - b) / vol for w in approx_breakpoint_volumes(c, b, b + vol)]
    return out


@settings(max_examples=300, deadline=None)
@given(curve, routed_arcs, volume)
def test_every_boundary_is_a_candidate(direct, routed, vol):
    cands = pair_fraction_candidates(direct, routed, vol)
    assert cands[0] == 0.0 and cands[-1] == 1.0
    assert all(b - a > 1e-12 for a, b in zip(cands, cands[1:]))
    boundaries = [min(1.0, max(0.0, y)) for y in _boundary_fractions(direct, routed, vol)]
    for y in boundaries:
        assert any(abs(y - c) <= 1e-12 for c in cands), y
    # And nothing else: every inner candidate is a boundary fraction.
    for c in cands[1:-1]:
        assert any(abs(y - c) <= 1e-12 for y in boundaries), c


def test_one_stays_a_candidate_next_to_a_near_one_fraction():
    # The direct curve's first breakpoint over a volume one ulp above it
    # gives a fraction just below 1, within 1e-12 of it.
    head = CURVES[0].breakpoints[0]
    vol = math.nextafter(head, math.inf)
    assert head / vol < 1.0
    cands = pair_fraction_candidates(CURVES[0], [], vol)
    assert cands == [0.0, 1.0]
