"""Candidate direct fractions: the set builder and finisher against their composition."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from hublocate import generate
from hublocate.gen import PROFILES
from hublocate.pricing import price_table
from hublocate.splits import (
    finish_fraction_candidates,
    fraction_candidate_set,
    pair_fraction_candidates,
    routed_fraction_set,
)


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
# Each routed arc with whether it varies (left out of the fixed set).
routed_arcs = st.lists(st.tuples(curve, base, st.booleans()), max_size=4)
dest_volumes = st.one_of(
    st.none(), st.lists(st.floats(min_value=0.1, max_value=60.0), min_size=1, max_size=4)
)


@settings(max_examples=300, deadline=None)
@given(curve, routed_arcs, volume, dest_volumes)
def test_split_candidates_match_the_composition(direct, arcs, vol, dests):
    routed = [(c, b) for c, b, _ in arcs]
    fixed = [(c, b) for c, b, varies in arcs if not varies]
    varying = [(c, b) for c, b, varies in arcs if varies]
    split = finish_fraction_candidates(
        fraction_candidate_set(direct, fixed, vol, dests) | routed_fraction_set(varying, vol)
    )
    whole = pair_fraction_candidates(direct, routed, vol, dests)
    assert len(split) == len(whole)
    assert all(a == b for a, b in zip(split, whole))
    assert whole[0] == 0.0 and whole[-1] == 1.0


def test_one_stays_a_candidate_next_to_a_near_one_fraction():
    # The subset sum 0.1 over a volume one ulp above it gives the fraction
    # 0.9999999999999999, within 1e-12 of 1.
    cands = pair_fraction_candidates(CURVES[0], [], 0.10000000000000002, [1.0, 0.1])
    assert cands == [0.0, 1.0]
