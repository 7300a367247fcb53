"""Unit stats, costs, the action table, and map layouts.

Combat forms a counter triangle (damage doubled): Raider beats Siege beats
LightInfantry beats Raider. Numbers here are tuned so the scripted archetypes
cycle (RUSH > ECON > BALANCED > RUSH); change with care and re-run the
archetype payoff tests.
"""

from __future__ import annotations

# entity type ids (shared vocabulary for observations and build statistics)
WORKER = 0
LIGHT = 1
RAIDER = 2
SIEGE = 3
BASE = 4
BARRACKS = 5
FACTORY = 6
MINERAL = 7

N_CONSTRUCTIBLE = 7          # mineral patches are never constructed
TYPE_NAMES = ["worker", "light", "raider", "siege", "base", "barracks", "factory", "mineral"]

GRID = 16
SPATIAL_CHANNELS = 4         # height-analog, visibility, player-relative, buildable
MAX_UNITS = 32               # per-group observation padding (and per-player entity cap)
MAX_STEPS = 1500
DELAY_CHOICES = 16           # delay head picks 1..16 env steps
MAX_SELECTED = 8             # selected-units head emits at most 8 picks
BUILD_ORDER_K = 8            # z statistic keeps the first K constructions
SCALAR_FEATS = 12            # observation scalars: economy, supply, time, counts
UNIT_FEATS = 8               # x, y, hp, build progress, carrying, attack cd, idle, queue

MOBILE_TYPES = (WORKER, LIGHT, RAIDER, SIEGE)
BUILDING_TYPES = (BASE, BARRACKS, FACTORY)
MILITARY_TYPES = (LIGHT, RAIDER, SIEGE)

# hp, damage, attack range, attack cooldown, move cooldown, vision
UNIT_HP = {WORKER: 20, LIGHT: 60, RAIDER: 50, SIEGE: 70, BASE: 350, BARRACKS: 250, FACTORY: 250}
UNIT_DMG = {WORKER: 2, LIGHT: 6, RAIDER: 8, SIEGE: 12}
UNIT_RANGE = {WORKER: 1, LIGHT: 1, RAIDER: 1, SIEGE: 3}
ATTACK_COOLDOWN = {WORKER: 4, LIGHT: 3, RAIDER: 3, SIEGE: 4}
MOVE_COOLDOWN = {WORKER: 2, LIGHT: 2, RAIDER: 1, SIEGE: 3}
VISION = {WORKER: 4, LIGHT: 4, RAIDER: 4, SIEGE: 4, BASE: 5, BARRACKS: 5, FACTORY: 5}

# attacker type -> victim type with doubled damage
COUNTERS = {RAIDER: SIEGE, SIEGE: LIGHT, LIGHT: RAIDER}

MINERAL_COST = {WORKER: 50, LIGHT: 75, RAIDER: 100, SIEGE: 150,
                BASE: 300, BARRACKS: 150, FACTORY: 200}
SUPPLY_COST = {WORKER: 1, LIGHT: 1, RAIDER: 1, SIEGE: 2}
SUPPLY_PER_BASE = 10
TRAIN_TIME = {WORKER: 15, LIGHT: 20, RAIDER: 20, SIEGE: 30}
BUILD_TIME = {BASE: 60, BARRACKS: 30, FACTORY: 40}
# buildings a worker may place, and their tech requirement (must own one, completed)
TECH_REQUIREMENT = {BASE: None, BARRACKS: BASE, FACTORY: BARRACKS}

CARRY_AMOUNT = 8             # minerals per harvest trip
MINERAL_PATCH_AMOUNT = 800
INITIAL_MINERALS = 50
INITIAL_WORKERS = 4

# ---------------------------------------------------------------- action table

NOOP = 0
MOVE = 1
ATTACK = 2
HARVEST = 3
STOP = 4
BUILD_BASE = 5
BUILD_BARRACKS = 6
BUILD_FACTORY = 7
TRAIN_WORKER = 8
TRAIN_LIGHT = 9
TRAIN_RAIDER = 10
TRAIN_SIEGE = 11

N_ACTIONS = 12
ACTION_NAMES = ["noop", "move", "attack", "harvest", "stop", "build_base",
                "build_barracks", "build_factory", "train_worker", "train_light",
                "train_raider", "train_siege"]

HEAD_DELAY = "delay"
HEAD_QUEUED = "queued"
HEAD_SELECTED_UNITS = "selected_units"
HEAD_TARGET_UNIT = "target_unit"
HEAD_TARGET_POSITION = "target_position"
HEAD_NAMES = (HEAD_DELAY, HEAD_QUEUED, HEAD_SELECTED_UNITS, HEAD_TARGET_UNIT, HEAD_TARGET_POSITION)

# which heads each action uses (selected_action itself is always used)
HEAD_USAGE: dict[int, frozenset[str]] = {
    NOOP: frozenset({HEAD_DELAY}),
    MOVE: frozenset({HEAD_DELAY, HEAD_QUEUED, HEAD_SELECTED_UNITS, HEAD_TARGET_POSITION}),
    ATTACK: frozenset({HEAD_DELAY, HEAD_QUEUED, HEAD_SELECTED_UNITS, HEAD_TARGET_UNIT}),
    HARVEST: frozenset({HEAD_DELAY, HEAD_QUEUED, HEAD_SELECTED_UNITS, HEAD_TARGET_UNIT}),
    STOP: frozenset({HEAD_DELAY, HEAD_SELECTED_UNITS}),
    BUILD_BASE: frozenset({HEAD_DELAY, HEAD_QUEUED, HEAD_SELECTED_UNITS, HEAD_TARGET_POSITION}),
    BUILD_BARRACKS: frozenset({HEAD_DELAY, HEAD_QUEUED, HEAD_SELECTED_UNITS, HEAD_TARGET_POSITION}),
    BUILD_FACTORY: frozenset({HEAD_DELAY, HEAD_QUEUED, HEAD_SELECTED_UNITS, HEAD_TARGET_POSITION}),
    TRAIN_WORKER: frozenset({HEAD_DELAY, HEAD_QUEUED, HEAD_SELECTED_UNITS}),
    TRAIN_LIGHT: frozenset({HEAD_DELAY, HEAD_QUEUED, HEAD_SELECTED_UNITS}),
    TRAIN_RAIDER: frozenset({HEAD_DELAY, HEAD_QUEUED, HEAD_SELECTED_UNITS}),
    TRAIN_SIEGE: frozenset({HEAD_DELAY, HEAD_QUEUED, HEAD_SELECTED_UNITS}),
}

BUILD_ACTION_TYPE = {BUILD_BASE: BASE, BUILD_BARRACKS: BARRACKS, BUILD_FACTORY: FACTORY}
TRAIN_ACTION_TYPE = {TRAIN_WORKER: WORKER, TRAIN_LIGHT: LIGHT,
                     TRAIN_RAIDER: RAIDER, TRAIN_SIEGE: SIEGE}

# selectable-unit category per action: which of my entities the pointer head may pick
SELECTABLE = {
    MOVE: MOBILE_TYPES,
    ATTACK: MOBILE_TYPES,
    HARVEST: (WORKER,),
    STOP: MOBILE_TYPES,
    BUILD_BASE: (WORKER,),
    BUILD_BARRACKS: (WORKER,),
    BUILD_FACTORY: (WORKER,),
    TRAIN_WORKER: (BASE,),
    TRAIN_LIGHT: (BARRACKS,),
    TRAIN_RAIDER: (BARRACKS,),
    TRAIN_SIEGE: (FACTORY,),
}

# ---------------------------------------------------------------- map variants
# All variants are symmetric under 180-degree rotation; they differ in base
# distance and resource layout. Coordinates are (x, y).


def _rot(pos):
    return (GRID - 1 - pos[0], GRID - 1 - pos[1])


def _symmetric(base, minerals):
    return {
        "bases": [base, _rot(base)],
        "minerals": [minerals, [_rot(p) for p in minerals]],
    }


MAP_VARIANTS = {
    # long diagonal, two patches per side
    "triton_toy": _symmetric((2, 2), [(0, 3), (3, 0)]),
    # straight across, shorter rush distance, three patches
    "kairos_toy": _symmetric((2, 8), [(0, 7), (0, 9), (2, 6)]),
    # opposite diagonal, patches pulled away from the base
    "catalyst_toy": _symmetric((2, 13), [(0, 15), (4, 15)]),
}

HELD_OUT_VARIANT = "catalyst_toy"    # reserved for generalization evaluation
TRAIN_VARIANTS = ("triton_toy", "kairos_toy")
