"""Shared test utilities: a tiny gradcheck config and random legal play."""

import numpy as np

from gridleague.env import StructuredAction, constants as C
from gridleague.net import NetConfig

# a few parameters per tensor: fast in float64, as in the golden network test
TINY_NET = NetConfig(d_model=6, attn_heads=2, head_size=3, transformer_layers=1,
                     ff_width=8, pool_queries=2, lstm_width=8, type_emb=3,
                     owner_emb=3, action_emb=6, pos_hidden=2,
                     conv1_channels=2, conv2_channels=2)


def random_legal_action(obs, rng):
    """A uniformly drawn action whose every used head obeys the masks."""
    legal = np.flatnonzero(obs.action_mask)
    a = int(rng.choice(legal))
    act = StructuredAction(a, delay=int(rng.integers(1, 5)),
                           queued=int(rng.integers(0, 2)))
    used = C.HEAD_USAGE[a]
    if C.HEAD_SELECTED_UNITS in used:
        sel = np.flatnonzero(obs.select_mask[a])
        k = int(rng.integers(1, min(len(sel), C.MAX_SELECTED) + 1))
        act.selected_units = [int(s) for s in rng.choice(sel, size=k, replace=False)]
    if C.HEAD_TARGET_UNIT in used:
        act.target_unit = int(rng.choice(np.flatnonzero(obs.target_mask[a])))
    if C.HEAD_TARGET_POSITION in used:
        act.target_position = int(rng.choice(np.flatnonzero(obs.position_mask[a])))
    return act
