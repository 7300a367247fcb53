"""Target-unit slots: the batch's cropped local index and the observation's
global slot correspond one to one."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from gridleague.env import Game, constants as C
from gridleague.net import ObsBatch

OBS = Game(0, "triton_toy").observe(0)


def _with_units(counts, types=None, **factors):
    """OBS with ``counts[g]`` shown units in group g, of type 0 unless
    ``types`` (per group) says otherwise."""
    types = types or [[0] * k for k in counts]
    return dataclasses.replace(
        OBS, types=tuple(types),
        feats=tuple([(0.0,) * C.UNIT_FEATS] * k for k in counts),
        uids=tuple(list(range(k)) for k in counts), **factors)


def _batch(counts) -> ObsBatch:
    return ObsBatch([_with_units(counts)])


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(0, C.MAX_UNITS)] * 3))
def test_local_and_global_target_slots_round_trip(counts):
    batch = _batch(counts)
    assert batch.group_n == tuple(max(1, k) for k in counts)
    valid = [g * C.MAX_UNITS + i for g, k in enumerate(batch.group_n) for i in range(k)]
    local = [batch.global_to_local_target(slot) for slot in valid]
    assert local == list(range(sum(batch.group_n)))
    assert [batch.local_to_global_target(i) for i in local] == valid


def _with_random_factors(counts, rng):
    """OBS with the first ``counts[g]`` slots of group g valid, and random
    legality factors for them: legal actions, unit types, which of my units
    are complete, and free cells."""
    return _with_units(
        counts, types=[rng.integers(0, C.N_CONSTRUCTIBLE, k).tolist() for k in counts],
        action_mask=rng.random(C.N_ACTIONS) < 0.5,
        complete=tuple((rng.random(counts[0]) < 0.7).tolist()),
        free=rng.random(C.GRID * C.GRID) < 0.5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, C.MAX_UNITS)] * 3), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_legal_rows_are_the_chosen_actions_masks_cropped(counts, seed):
    """``legal_rows`` gives each row its action's masks, cropped like the groups."""
    rng = np.random.default_rng(seed)
    observations = [_with_random_factors(c, rng) for c in counts]
    batch = ObsBatch(observations)
    ids = rng.integers(0, C.N_ACTIONS, size=len(observations))   # legal or not
    select, target, position = batch.legal_rows(ids)
    n0 = batch.group_n[0]
    assert select.shape == (len(observations), n0)
    assert target.shape == (len(observations), sum(batch.group_n))
    for i, (o, a) in enumerate(zip(observations, ids)):
        np.testing.assert_array_equal(select[i], o.select_mask[a, :n0])
        expected = np.zeros(sum(batch.group_n), dtype=bool)
        for slot in np.flatnonzero(o.target_mask[a]):
            expected[batch.global_to_local_target(slot)] = True
        np.testing.assert_array_equal(target[i], expected)
        np.testing.assert_array_equal(position[i], o.position_mask[a])
