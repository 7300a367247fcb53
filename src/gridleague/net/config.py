"""Network hyperparameters and the architecture hash."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from ..env import constants as C

# z conditioning block appended to the env scalars: one-hot build-order prefix
# (K slots over constructible types + an "empty" category) plus presence bits
Z_SLOT_VOCAB = C.N_CONSTRUCTIBLE + 1
Z_DIM = C.BUILD_ORDER_K * Z_SLOT_VOCAB + C.N_CONSTRUCTIBLE

# The game's sizes that fix the network's shapes and decoding. The net reads
# them from the game's constants; the architecture hash covers them under
# these names, so a change to the game changes the hash.
_GAME_SIZES = {
    "grid": C.GRID,
    "spatial_channels": C.SPATIAL_CHANNELS,
    "max_units": C.MAX_UNITS,
    "n_actions": C.N_ACTIONS,
    "delay_vocab": C.DELAY_CHOICES,
    "max_select": C.MAX_SELECTED,
    "type_vocab": len(C.TYPE_NAMES),
    "cont_feats": C.UNIT_FEATS,
    "scalar_dim": C.SCALAR_FEATS + Z_DIM,
    "head_usage": [[a, sorted(C.HEAD_USAGE[a])] for a in range(C.N_ACTIONS)],
}


@dataclass(frozen=True)
class NetConfig:
    d_model: int = 64
    attn_heads: int = 2
    head_size: int = 32
    transformer_layers: int = 3
    ff_width: int = 128            # 2 * d_model; no layer norm anywhere
    pool_queries: int = 4
    lstm_width: int = 128
    value_channels: int = 3        # win/loss + build-order z + built-units z
    type_emb: int = 16
    owner_emb: int = 8
    action_emb: int = 64
    pos_hidden: int = 256
    conv1_channels: int = 8
    conv2_channels: int = 16

    @property
    def attn_width(self) -> int:
        return self.attn_heads * self.head_size

    @property
    def spatial_skip_dim(self) -> int:
        g1 = (C.GRID - 3) // 2 + 1
        g2 = (g1 - 3) // 2 + 1
        return g2 * g2 * self.conv2_channels

    @property
    def core_input_dim(self) -> int:
        pooled = self.pool_queries * self.attn_width
        return 2 * self.d_model + 3 * pooled

    def arch_hash(self) -> int:
        blob = json.dumps(asdict(self) | _GAME_SIZES, sort_keys=True).encode()
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "little")
