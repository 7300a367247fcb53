"""Game-state, action, observation, and statistic containers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constants as C


@dataclass
class Order:
    kind: str                       # idle|move|attack|harvest|build|train
    target_uid: int = -1
    x: int = -1
    y: int = -1
    build_type: int = -1


@dataclass
class Unit:
    uid: int
    type: int
    player: int                     # 0/1, -1 for neutral mineral patches
    x: int
    y: int
    hp: int
    build_progress: float = 1.0     # < 1 while under construction
    carrying: int = 0
    remaining: int = 0              # minerals left (patches only)
    attack_cd: int = 0
    move_cd: int = 0
    orders: list[Order] = field(default_factory=list)
    train_queue: list[int] = field(default_factory=list)
    train_progress: int = 0

    @property
    def complete(self) -> bool:
        return self.build_progress >= 1.0

    def current_order(self) -> Order | None:
        return self.orders[0] if self.orders else None


@dataclass
class PlayerState:
    minerals: int = C.INITIAL_MINERALS
    harvested: int = 0
    spent: int = 0


@dataclass
class MatchOutcome:
    winner: int | None              # 0, 1, or None for a draw
    end_step: int
    stats: dict

    def reward(self, player: int) -> float:
        if self.winner is None:
            return 0.0
        return 1.0 if self.winner == player else -1.0


@dataclass
class StatisticZ:
    """Build-order prefix plus constructed-type presence for one game side."""

    build_order: list[int]
    built_units: list[bool]

    def __post_init__(self):
        if len(self.build_order) > C.BUILD_ORDER_K:
            raise ValueError(f"build_order longer than K={C.BUILD_ORDER_K}")
        if len(self.built_units) != C.N_CONSTRUCTIBLE:
            raise ValueError("built_units must cover every constructible type")
        for t in self.build_order:
            if not self.built_units[t]:
                raise ValueError(f"type {t} in build_order but absent from built_units")


@dataclass
class StructuredAction:
    """Six-head action; unused heads (per the action table) hold defaults."""

    action_id: int
    delay: int = 1                          # env steps until the next decision
    queued: int = 0
    selected_units: list[int] = field(default_factory=list)   # my-group slots
    target_unit: int | None = None          # slot into [mine|enemy|neutral] concat
    target_position: int | None = None      # cell index into the G*G grid

    def to_dict(self) -> dict:
        return {
            "action_id": self.action_id,
            "delay": self.delay,
            "queued": self.queued,
            "selected_units": list(self.selected_units),
            "target_unit": self.target_unit,
            "target_position": self.target_position,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StructuredAction":
        return cls(
            action_id=int(d["action_id"]),
            delay=int(d.get("delay", 1)),
            queued=int(d.get("queued", 0)),
            selected_units=[int(s) for s in d.get("selected_units", [])],
            target_unit=None if d.get("target_unit") is None else int(d["target_unit"]),
            target_position=None if d.get("target_position") is None else int(d["target_position"]),
        )

    @classmethod
    def noop(cls, delay: int = 1) -> "StructuredAction":
        return cls(action_id=C.NOOP, delay=delay)


@dataclass
class Observation:
    """Per-player view: scalars, spatial planes, padded entity groups, masks.

    Groups are ordered (mine, enemy, neutral), each padded to MAX_UNITS.
    ``slot_uid`` maps observation slots back to engine unit ids (-1 = pad).
    Legality masks are per-action rows; see the action table for head usage.
    """

    player: int
    step: int
    scalar: np.ndarray              # (SCALAR_FEATS,) f32
    spatial: np.ndarray             # (G, G, C) f32
    unit_type: np.ndarray           # (3, MAX_UNITS) int32
    unit_cont: np.ndarray           # (3, MAX_UNITS, UNIT_FEATS) f32
    unit_mask: np.ndarray           # (3, MAX_UNITS) f32 {0,1}
    slot_uid: np.ndarray            # (3, MAX_UNITS) int32
    action_mask: np.ndarray         # (N_ACTIONS,) bool
    select_mask: np.ndarray         # (N_ACTIONS, MAX_UNITS) bool
    target_mask: np.ndarray         # (N_ACTIONS, 3*MAX_UNITS) bool
    position_mask: np.ndarray       # (N_ACTIONS, G*G) bool
