"""The engine's lookups against plain scans of every unit.

Auto-targeting (per-player occupied-cell sets, and a cell map with
Chebyshev rings built only for a player whose set some unit's range
square meets) and vision (a union of cell sets) are checked on random
layouts, several units to a cell and the grid's edges included, against
the scans they replaced. The index kept across steps (complete bases,
patches with minerals, free cells and whether any is free, players with a
base, building cells, and each player's units and the mobile, worker and
producer lists) is checked against a scan after every step of random legal
and scripted games on every map, and of a game set up to deplete a patch,
complete a base and kill a base. The memoized action mask is checked against the list-building rule it
replaced on observations of scripted and random legal games on every map,
and the shared height plane against its per-cell formula.
"""

import functools

import numpy as np
import pytest
from _helpers import random_legal_action
from hypothesis import given, settings, strategies as st

from gridleague.env import ARCHETYPES, Game, ScriptedPolicy, constants as C
from gridleague.env.engine import _square, cheby
from gridleague.env.types import Order, cell_grid

cells = st.integers(0, C.GRID - 1)
units = st.lists(st.tuples(st.sampled_from(range(C.N_CONSTRUCTIBLE)), st.integers(0, 1),
                           cells, cells), min_size=1, max_size=40)


def _game(layout) -> Game:
    g = Game(0, "triton_toy")
    g.units = {}
    for t, player, x, y in layout:
        g._spawn(t, player, x, y)
    return g


def _closest_enemy_in_range(g: Game, u):
    """The scan auto-targeting replaced: nearest enemy in range, lowest uid first."""
    reach = C.UNIT_RANGE[u.type]
    in_range = [v for v in g.units.values() if v.player == 1 - u.player
                and cheby(u.x, u.y, v.x, v.y) <= reach]
    return min(in_range, key=lambda v: (cheby(u.x, u.y, v.x, v.y), v.uid), default=None)


@settings(max_examples=300, deadline=None)
@given(units)
def test_auto_target_is_the_closest_enemy_in_range_lowest_uid_first(layout):
    g = _game(layout)
    occupied = g._occupied(g._index())
    for p in (0, 1):
        assert occupied[p] == sum({1 << (v.x * C.GRID + v.y)
                                   for v in g.units.values() if v.player == p})
    hits, needed = {}, set()
    for u in g.units.values():
        if u.type not in C.MILITARY_TYPES:
            continue
        foe, closest = 1 - u.player, _closest_enemy_in_range(g, u)
        if occupied[foe] & _square(C.UNIT_RANGE[u.type], u.x, u.y):
            needed.add(foe)
            assert g._in_range(u, g._cell_map(foe)) is closest
        else:
            assert closest is None
        if closest is not None:
            dmg = C.UNIT_DMG[u.type] * (2 if C.COUNTERS.get(u.type) == closest.type else 1)
            hits[closest.uid] = hits.get(closest.uid, 0) + dmg
    hp = {uid: v.hp - hits.get(uid, 0) for uid, v in g.units.items()}

    # the attack sub-step: every idle military unit hits that target, and a
    # player's cell map is built once, and only if some unit's square meets its set
    built, cell_map = [], g._cell_map
    g._cell_map = lambda player: built.append(player) or cell_map(player)
    g._substep_attack()
    assert sorted(built) == sorted(needed)
    assert {uid: v.hp for uid, v in g.units.items()} == \
        {uid: left for uid, left in hp.items() if left > 0}


@settings(max_examples=300, deadline=None)
@given(units)
def test_vision_is_the_union_of_unit_squares(layout):
    g = _game(layout)
    for player in (0, 1):
        vis = np.zeros((C.GRID, C.GRID), dtype=bool)
        for u in g.units.values():
            if u.player == player:
                r = C.VISION[u.type]
                vis[max(0, u.x - r):u.x + r + 1, max(0, u.y - r):u.y + r + 1] = True
        got = cell_grid(g._seen(player))
        assert got.dtype == bool and np.array_equal(got, vis)



def _assert_index_is_a_scan(game: Game) -> None:
    kept = game._index()
    units = list(game.units.values())
    for p in (0, 1):
        bases = [u for u in units if u.type == C.BASE and u.player == p and u.complete]
        assert [u.uid for u in kept.bases[p]] == [u.uid for u in bases]
    patches = [u for u in units if u.type == C.MINERAL and u.remaining > 0]
    assert [u.uid for u in kept.patches] == [u.uid for u in patches]
    assert all(game.units.get(u.uid) is u for u in kept.bases[0] + kept.bases[1] + kept.patches)
    free = np.ones((C.GRID, C.GRID), dtype=bool)
    for u in units:
        if u.type in C.BUILDING_TYPES or u.type == C.MINERAL:
            free[u.x, u.y] = False
    assert not kept.free.flags.writeable
    assert np.array_equal(kept.free, free.reshape(-1))
    assert kept.any_free is bool(free.any())
    assert kept.based == {u.player for u in units if u.type == C.BASE}
    for p in (0, 1):
        assert kept.built[p] == sum(1 << (u.x * C.GRID + u.y) for u in units
                                    if u.type in C.BUILDING_TYPES and u.player == p)
    for name, kinds in (("mobile", C.MOBILE_TYPES), ("workers", (C.WORKER,)),
                        ("producers", C.BUILDING_TYPES + (C.WORKER,))):
        listed = getattr(kept, name)
        assert [u.uid for u in listed] == [u.uid for u in units if u.type in kinds], name
        assert all(game.units.get(u.uid) is u for u in listed), name
    for p in (0, 1):
        assert [u.uid for u in kept.owned[p]] == [u.uid for u in units if u.player == p]
        assert all(game.units.get(u.uid) is u for u in kept.owned[p])
        # the relation plane shows each player's units only while the cap holds
        assert len(kept.owned[p]) <= C.MAX_UNITS


@pytest.mark.parametrize("variant", sorted(C.MAP_VARIANTS))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), scripted=st.booleans(),
       archetypes=st.tuples(*[st.sampled_from(ARCHETYPES)] * 2))
def test_the_kept_index_equals_a_scan_after_every_step(variant, seed, scripted, archetypes):
    g = Game(seed, variant, max_steps=800, record_events=False)
    if scripted:
        pick = [ScriptedPolicy(a, np.random.default_rng([seed, p])).act
                for p, a in enumerate(archetypes)]
    else:
        rng = np.random.default_rng(seed)
        pick = [lambda obs: random_legal_action(obs, rng)] * 2
    due = [0, 0]
    while not g.done:
        acts = {}
        for p in (0, 1):
            if g.step_count >= due[p]:
                acts[p] = pick[p](g.observe(p))
                due[p] = g.step_count + acts[p].delay
        g.step_env(acts)
        _assert_index_is_a_scan(g)


def _step_until(g: Game, done, limit: int = 100) -> None:
    for _ in range(limit):
        g.step_env()
        _assert_index_is_a_scan(g)
        if done():
            return
    raise AssertionError("the awaited event did not happen")


def test_the_kept_index_follows_a_depletion_a_completion_and_a_kill():
    """Each event happens in a step of its own, so only its own reset can
    bring the index up to date."""
    g = Game(0, "triton_toy")
    g.units.clear()
    g._spawn(C.BASE, 0, 1, 1)
    g._spawn(C.BASE, 1, 14, 14)
    # a patch one trip from empty, next to a worker ordered to mine it
    patch = g._spawn(C.MINERAL, -1, 4, 4, remaining=C.CARRY_AMOUNT)
    worker = g._spawn(C.WORKER, 0, 4, 3)
    worker.orders = [Order("harvest", target_uid=patch.uid)]
    _step_until(g, lambda: patch.remaining == 0)
    assert g.observe(0).free is g.observe(1).free is g._index().free
    # a base one step from complete
    base = g._spawn(C.BASE, 0, 8, 2, progress=1.0 - 1.0 / C.BUILD_TIME[C.BASE])
    _step_until(g, lambda: base.complete)
    assert base in g._index().bases[0]
    # a second enemy base, one hit from dead, next to a light unit ordered to attack it
    doomed = g._spawn(C.BASE, 1, 10, 10)
    doomed.hp = 1
    light = g._spawn(C.LIGHT, 0, 10, 9)
    light.orders = [Order("attack", target_uid=doomed.uid)]
    _step_until(g, lambda: doomed.uid not in g.units)
    assert doomed not in g._index().bases[1] and not g.done


def _old_action_mask(game: Game, player: int) -> np.ndarray:
    """The list-building rule the memoized mask replaced, read from the game's
    units at the moment of observation."""
    n = C.MAX_UNITS
    mine, enemy, neutral = game._groups(player, game._seen(player))
    minerals = game.players[player].minerals
    complete = tuple(u.complete for u in mine[:n])
    pickable = {u.type for u, done in zip(mine, complete) if done}
    cap_room = len(mine) < C.MAX_UNITS
    owned_complete = {u.type for u in mine if u.complete}
    free = np.ones((C.GRID, C.GRID), dtype=bool)
    for u in game.units.values():
        if u.type in C.BUILDING_TYPES or u.type == C.MINERAL:
            free[u.x, u.y] = False
    any_free = bool(free.any())
    supply_used = sum(C.SUPPLY_COST.get(u.type, 0) for u in mine)
    bases = sum(1 for u in mine if u.type == C.BASE and u.complete)
    supply_room = min(bases * C.SUPPLY_PER_BASE, C.MAX_UNITS) - supply_used

    legal = [not pickable.isdisjoint(C.SELECTABLE.get(a, ())) for a in range(C.N_ACTIONS)]
    legal[C.NOOP] = True
    legal[C.ATTACK] = legal[C.ATTACK] and bool(enemy)
    legal[C.HARVEST] = legal[C.HARVEST] and bool(neutral)
    for a, btype in C.BUILD_ACTION_TYPE.items():
        req = C.TECH_REQUIREMENT[btype]
        legal[a] = (legal[a] and cap_room and minerals >= C.MINERAL_COST[btype]
                    and (req is None or req in owned_complete) and any_free)
    for a, ttype in C.TRAIN_ACTION_TYPE.items():
        legal[a] = (legal[a] and cap_room and C.SUPPLY_COST[ttype] <= supply_room
                    and minerals >= C.MINERAL_COST[ttype])
    return np.array(legal)


@functools.cache
def _mask_pool(source: str) -> tuple:
    """(observation, old rule's mask) for both sides at every step of one
    game per map, played by the scripts or by random legal actions."""
    pool = []
    for i, variant in enumerate(sorted(C.MAP_VARIANTS)):
        g = Game(60 + i, variant, max_steps=600, record_events=False)
        if source == "random":
            rng = np.random.default_rng(i)
            pick = [lambda obs: random_legal_action(obs, rng)] * 2
        else:
            pick = [ScriptedPolicy(ARCHETYPES[(i + p) % len(ARCHETYPES)],
                                   np.random.default_rng([i, p])).act for p in (0, 1)]
        while not g.done:
            observations = [g.observe(p) for p in (0, 1)]
            pool += [(o, _old_action_mask(g, o.player)) for o in observations]
            g.step_env({p: pick[p](observations[p]) for p in (0, 1)})
    return tuple(pool)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_memoized_action_mask_is_the_old_rule(data):
    pool = _mask_pool(data.draw(st.sampled_from(["random", "scripted"])))
    for i in data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8)):
        obs, expected = pool[i]
        got = obs.action_mask
        assert got.dtype == bool and got.shape == (C.N_ACTIONS,)
        assert [bool(got[a]) for a in range(C.N_ACTIONS)] == expected.tolist()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[C.NOOP] = False


@pytest.mark.parametrize("variant", sorted(C.MAP_VARIANTS))
def test_games_of_one_map_share_one_height_plane(variant):
    height = Game(1, variant)._height
    assert Game(2, variant)._height is height and not height.flags.writeable
    layout = C.MAP_VARIANTS[variant]
    patches = layout["minerals"][0] + layout["minerals"][1]
    expected = np.zeros((C.GRID, C.GRID), dtype=np.float32)
    for x in range(C.GRID):
        for y in range(C.GRID):
            expected[x, y] = min(cheby(x, y, px, py) for px, py in patches) / C.GRID
    assert height.dtype == np.float32 and height.tobytes() == expected.tobytes()


def test_a_full_board_has_no_free_cell_and_no_legal_build():
    g = Game(0, "triton_toy")
    g.units.clear()
    g.players[0].minerals = 1000
    g._spawn(C.BASE, 0, 0, 0)
    g._spawn(C.WORKER, 0, 0, 0)
    for cell in range(1, C.GRID * C.GRID):
        g._spawn(C.MINERAL, -1, *divmod(cell, C.GRID), remaining=C.CARRY_AMOUNT)
    _assert_index_is_a_scan(g)
    assert not g._index().any_free
    obs = g.observe(0)
    assert obs.action_mask.tolist() == _old_action_mask(g, 0).tolist()
    assert obs.action_mask[C.HARVEST] and obs.action_mask[C.TRAIN_WORKER]
    assert not any(obs.action_mask[a] for a in C.BUILD_ACTION_TYPE)
