"""Batched observation arrays, with per-group slot cropping.

Groups are cropped to the largest valid count in the batch (masks make the
padded tail inert, so cropping is invisible semantically and buys a large
speedup at desk scale where most slots are empty).

The legality masks are stacked on first access: only the decoder reads them,
and a batch that is only encoded (the BC loader's per-trajectory batches,
up to MAX_STEPS rows) never pays for them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..env import constants as C
from ..env.types import Observation, StatisticZ
from .config import Z_DIM, Z_SLOT_VOCAB


def encode_z(z: StatisticZ | None) -> np.ndarray:
    """Fixed-width z block: zero everywhere means unconditioned play."""
    out = np.zeros(Z_DIM, dtype=np.float32)
    if z is None:
        return out
    for k in range(C.BUILD_ORDER_K):
        cat = z.build_order[k] if k < len(z.build_order) else C.N_CONSTRUCTIBLE
        out[k * Z_SLOT_VOCAB + cat] = 1.0
    base = C.BUILD_ORDER_K * Z_SLOT_VOCAB
    for t, present in enumerate(z.built_units):
        if present:
            out[base + t] = 1.0
    return out


class ObsBatch:
    """Stacked observations plus conditioning z, ready for the network."""

    def __init__(self, observations: list[Observation],
                 zs: list[StatisticZ | None] | None = None,
                 dtype=np.float32):
        n = len(observations)
        if n == 0:
            raise ValueError("empty observation batch")
        if zs is None:
            zs = [None] * n
        if len(zs) != n:
            raise ValueError("zs length must match observations")
        self.size = n
        self._observations = observations
        counts = np.array([[int(o.unit_mask[g].sum()) for g in range(3)]
                           for o in observations])
        self.group_n = tuple(max(1, int(counts[:, g].max())) for g in range(3))

        self.scalar = np.stack([
            np.concatenate([o.scalar.astype(dtype), encode_z(z).astype(dtype)])
            for o, z in zip(observations, zs)
        ])
        self.spatial = np.stack([o.spatial for o in observations]).astype(dtype)
        self.unit_type = [np.stack([o.unit_type[g, : self.group_n[g]] for o in observations])
                          for g in range(3)]
        self.unit_cont = [np.stack([o.unit_cont[g, : self.group_n[g]] for o in observations]).astype(dtype)
                          for g in range(3)]
        self.unit_mask = [np.stack([o.unit_mask[g, : self.group_n[g]] for o in observations]).astype(dtype)
                          for g in range(3)]

    @cached_property
    def action_mask(self) -> np.ndarray:
        return np.stack([o.action_mask for o in self._observations])

    @cached_property
    def select_mask(self) -> np.ndarray:
        return np.stack([o.select_mask[:, : self.group_n[0]] for o in self._observations])

    @cached_property
    def target_mask(self) -> np.ndarray:
        tm = np.stack([o.target_mask for o in self._observations])   # (B, A, 3*MAX)
        n0, n1, n2 = self.group_n
        return np.concatenate([
            tm[:, :, 0:n0],
            tm[:, :, C.MAX_UNITS : C.MAX_UNITS + n1],
            tm[:, :, 2 * C.MAX_UNITS : 2 * C.MAX_UNITS + n2],
        ], axis=2)                                             # (B, A, n0+n1+n2)

    @cached_property
    def position_mask(self) -> np.ndarray:
        return np.stack([o.position_mask for o in self._observations])

    def local_to_global_target(self, local: int) -> int:
        n0, n1, n2 = self.group_n
        if local < n0:
            return local
        if local < n0 + n1:
            return C.MAX_UNITS + (local - n0)
        return 2 * C.MAX_UNITS + (local - n0 - n1)

    def global_to_local_target(self, global_slot: int) -> int:
        n0, n1, _ = self.group_n
        g, i = divmod(global_slot, C.MAX_UNITS)
        if g == 0:
            return i
        if g == 1:
            return n0 + i
        return n0 + n1 + i
