"""Target-unit slots: the batch's cropped local index and the observation's
global slot correspond one to one."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from gridleague.env import Game, constants as C
from gridleague.net import ObsBatch

OBS = Game(0, "triton_toy").observe(0)


def _batch(counts) -> ObsBatch:
    mask = np.zeros_like(OBS.unit_mask)
    for g, k in enumerate(counts):
        mask[g, :k] = 1.0
    return ObsBatch([dataclasses.replace(OBS, unit_mask=mask)])


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(0, C.MAX_UNITS)] * 3))
def test_local_and_global_target_slots_round_trip(counts):
    batch = _batch(counts)
    assert batch.group_n == tuple(max(1, k) for k in counts)
    valid = [g * C.MAX_UNITS + i for g, k in enumerate(batch.group_n) for i in range(k)]
    local = [batch.global_to_local_target(slot) for slot in valid]
    assert local == list(range(sum(batch.group_n)))
    assert [batch.local_to_global_target(i) for i in local] == valid
