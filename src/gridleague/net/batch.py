"""Batched observation arrays, with per-group slot cropping.

Groups are cropped to the largest valid count in the batch (masks make the
padded tail inert, so cropping is invisible semantically and buys a large
speedup at desk scale where most slots are empty). The rows in which a
cropped group holds no unit at all are left to the group transformer, which
skips them (see ``net/modules.py``).

Arrays keep the observations' dtypes; the network converts each input once.
The per-group unit arrays are filled straight from the observations' factors
(each group's shown types and feature tuples), not stacked from each
observation's own padded arrays, which batching never builds. Stacking reads
each observation's ``spatial``, which the observation derives on first read.
Of the per-action legality masks the decoder reads only the rows of the
actions it chose (``legal_rows``), each built from the observation's
factors; a batch that is only encoded builds none.
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
    """Stacked observations plus conditioning z, in the observations' dtypes."""

    def __init__(self, observations: list[Observation],
                 zs: list[StatisticZ | None] | None = None):
        n = len(observations)
        if n == 0:
            raise ValueError("empty observation batch")
        if zs is None:
            zs = [None] * n
        if len(zs) != n:
            raise ValueError("zs length must match observations")
        self.size = n
        self._observations = observations
        counts = np.array([[len(t) for t in o.types] for o in observations])   # (B, 3)
        self.group_n = tuple(max(1, int(k)) for k in counts.max(axis=0))

        self.scalar = np.stack([np.concatenate([o.scalar, encode_z(z)])
                                for o, z in zip(observations, zs)])
        self.spatial = np.stack([o.spatial for o in observations])
        self.unit_type, self.unit_cont, self.unit_mask = [], [], []
        for g, k in enumerate(self.group_n):
            shown = np.arange(k) < counts[:, g, None]           # (B, k): leading slots
            unit_type = np.zeros((n, k), dtype=np.int32)
            unit_cont = np.zeros((n, k, C.UNIT_FEATS), dtype=np.float32)
            if shown.any():
                # row-major boolean indexing visits rows, then slots, in order
                unit_type[shown] = [t for o in observations for t in o.types[g]]
                unit_cont[shown] = [f for o in observations for f in o.feats[g]]
            self.unit_type.append(unit_type)
            self.unit_cont.append(unit_cont)
            self.unit_mask.append(shown.astype(np.float32))

    @cached_property
    def action_mask(self) -> np.ndarray:
        return np.stack([o.action_mask for o in self._observations])

    @cached_property
    def target_slots(self) -> np.ndarray:
        """The global slot of each local target index, groups in order."""
        return np.concatenate([g * C.MAX_UNITS + np.arange(n) for g, n in enumerate(self.group_n)])

    def legal_rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's select (B, n0), target (B, n0+n1+n2) and position (B, G*G)
        mask for its action ``ids[i]``, cropped like the unit groups."""
        rows = list(zip(self._observations, ids.tolist()))
        return (np.stack([o.select_row(a)[: self.group_n[0]] for o, a in rows]),
                np.stack([o.target_row(a) for o, a in rows])[:, self.target_slots],
                np.stack([o.position_row(a) for o, a in rows]))

    def local_to_global_target(self, local: int) -> int:
        return int(self.target_slots[local])

    def global_to_local_target(self, global_slot: int) -> int:
        return int(np.searchsorted(self.target_slots, global_slot))
