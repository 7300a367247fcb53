"""Game-state, action, observation, and statistic containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import constants as C

# SELECTABLE_BY_TYPE[action, type]: the pointer head may pick a complete unit of that type
SELECTABLE_BY_TYPE = np.array([[t in C.SELECTABLE.get(a, ()) for t in range(len(C.TYPE_NAMES))]
                               for a in range(C.N_ACTIONS)], dtype=bool)


def cell_grid(cells: int) -> np.ndarray:
    """A cell set (an int with bit ``x * GRID + y`` set for each cell (x, y) in
    it) as a (GRID, GRID) bool array."""
    raw = np.frombuffer(cells.to_bytes(C.GRID * C.GRID // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").view(bool).reshape(C.GRID, C.GRID)


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


@dataclass
class PlayerState:
    minerals: int = C.INITIAL_MINERALS
    harvested: int = 0
    spent: int = 0
    # kept whether or not the game records events
    illegal_actions: int = 0       # "illegal_action" events that failed validation
    stale_targets: int = 0         # "illegal_action" events whose target was gone
    builds_dropped: int = 0        # "build_dropped" events


@dataclass
class MatchOutcome:
    winner: int | None              # 0, 1, or None for a draw
    end_step: int


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


def _padded(groups, dtype, fill=0, trailing: tuple = ()) -> np.ndarray:
    """Per-group values in each group's leading slots, ``fill`` in the rest:
    (3, MAX_UNITS) + ``trailing``."""
    out = np.full((3, C.MAX_UNITS) + trailing, fill, dtype=dtype)
    for g, values in enumerate(groups):
        if values:
            out[g, :len(values)] = values
    return out


@dataclass
class Observation:
    """Per-player view: scalars, padded entity groups, and the factors that
    determine the spatial planes and the legality masks.

    Groups are ordered (mine, enemy, neutral), each padded to MAX_UNITS; a
    group's shown units fill its leading slots in uid order.

    Stored are ``scalar``, ``action_mask`` and the few values that fully
    determine the rest: per group, the shown units' types, feature tuples
    and uids (``types``, ``feats``, ``uids``), plus the legality and plane
    factors below. Derived from them on first read and cached are the unit
    arrays ``unit_type``, ``unit_cont``, ``unit_mask`` and ``slot_uid``
    (``slot_uid`` maps observation slots back to engine unit ids, -1 = pad),
    ``spatial``, and the per-action legality masks ``select_mask``,
    ``target_mask`` and ``position_mask``; see the action table for head
    usage. Scripted play, ``Game._validate`` and slot resolution read the
    factors, so they build none of these; ``ObsBatch`` stacks its unit
    arrays straight from the factors and reads ``spatial``, and the decoder
    builds only the rows (``select_row``, ``target_row``, ``position_row``)
    of the actions it chose.

    ``complete`` is stored, not read from the progress feature: build
    progress rises by 1/BUILD_TIME per step, so a BARRACKS reaches
    0.9999999999999999, which rounds to 1.0 in float32 ``unit_cont`` while
    the engine still counts the building as incomplete.

    Every factor is a value captured at ``observe`` (ints, tuples, lists and
    arrays that nothing writes afterwards), so a derived array is the same
    whenever it is first read.
    """

    player: int
    step: int
    scalar: np.ndarray              # (SCALAR_FEATS,) f32
    types: tuple[list[int], ...]    # per group: the shown units' types
    feats: tuple[list[tuple], ...]  # per group: the shown units' UNIT_FEATS features
    uids: tuple[list[int], ...]     # per group: the shown units' engine ids
    action_mask: np.ndarray         # (N_ACTIONS,) bool
    complete: tuple[bool, ...]      # per shown my-slot: the engine counts the unit complete
    free: np.ndarray                # (G*G,) bool, read-only: no building or patch on the cell
    height: np.ndarray              # (G, G) f32, read-only: the map's height plane
    seen: int                       # the cells in vision, as a cell set
    relation: tuple[tuple[int, int, float], ...]   # per unit; a later cell overwrites

    @property
    def n_enemy(self) -> int:
        """Shown enemy slots (the leading slots of group 1)."""
        return len(self.types[1])

    @property
    def n_neutral(self) -> int:
        """Shown patch slots (the leading slots of group 2)."""
        return len(self.types[2])

    @cached_property
    def unit_type(self) -> np.ndarray:
        """(3, MAX_UNITS) int32."""
        return _padded(self.types, np.int32)

    @cached_property
    def unit_cont(self) -> np.ndarray:
        """(3, MAX_UNITS, UNIT_FEATS) f32."""
        return _padded(self.feats, np.float32, trailing=(C.UNIT_FEATS,))

    @cached_property
    def unit_mask(self) -> np.ndarray:
        """(3, MAX_UNITS) f32 {0,1}."""
        shown = np.array([len(t) for t in self.types])
        return (np.arange(C.MAX_UNITS) < shown[:, None]).astype(np.float32)

    @cached_property
    def slot_uid(self) -> np.ndarray:
        """(3, MAX_UNITS) int32."""
        return _padded(self.uids, np.int32, fill=-1)

    def select_row(self, a: int) -> np.ndarray:
        """Row ``a`` of ``select_mask``: my complete units of a type ``a`` may pick."""
        row = np.zeros(C.MAX_UNITS, dtype=bool)
        if self.action_mask[a]:
            k = len(self.complete)
            complete = np.array(self.complete, dtype=bool)
            row[:k] = SELECTABLE_BY_TYPE[a, self.types[0]] & complete
        return row

    def target_row(self, a: int) -> np.ndarray:
        """Row ``a`` of ``target_mask``: the shown enemies for ATTACK, the shown
        patches for HARVEST."""
        row = np.zeros(3 * C.MAX_UNITS, dtype=bool)
        if self.action_mask[a]:
            if a == C.ATTACK:
                row[C.MAX_UNITS:C.MAX_UNITS + self.n_enemy] = True
            elif a == C.HARVEST:
                row[2 * C.MAX_UNITS:2 * C.MAX_UNITS + self.n_neutral] = True
        return row

    def position_row(self, a: int) -> np.ndarray:
        """Row ``a`` of ``position_mask``: every cell for MOVE, the free cells for builds."""
        if self.action_mask[a]:
            if a == C.MOVE:
                return np.ones(C.GRID * C.GRID, dtype=bool)
            if a in C.BUILD_ACTION_TYPE:
                return self.free
        return np.zeros(C.GRID * C.GRID, dtype=bool)

    @cached_property
    def select_mask(self) -> np.ndarray:
        """(N_ACTIONS, MAX_UNITS) bool."""
        return np.stack([self.select_row(a) for a in range(C.N_ACTIONS)])

    @cached_property
    def target_mask(self) -> np.ndarray:
        """(N_ACTIONS, 3*MAX_UNITS) bool."""
        return np.stack([self.target_row(a) for a in range(C.N_ACTIONS)])

    @cached_property
    def position_mask(self) -> np.ndarray:
        """(N_ACTIONS, G*G) bool."""
        return np.stack([self.position_row(a) for a in range(C.N_ACTIONS)])

    @cached_property
    def spatial(self) -> np.ndarray:
        """(G, G, SPATIAL_CHANNELS) f32: height, vision, player relation
        (neutral 0.25, enemy 0.5, mine 1.0) and free cells."""
        out = np.zeros((C.GRID, C.GRID, C.SPATIAL_CHANNELS), dtype=np.float32)
        out[:, :, 0] = self.height
        out[:, :, 1] = cell_grid(self.seen)
        rel = out[:, :, 2]
        for x, y, value in self.relation:
            rel[x, y] = value
        out[:, :, 3] = self.free.reshape(C.GRID, C.GRID)
        return out
