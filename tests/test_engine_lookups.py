"""The engine's lookups against plain scans of every unit.

Auto-targeting (a cell map with Chebyshev rings behind an occupied-cell
set) and vision (a union of cell sets) are checked on random layouts,
several units to a cell and the grid's edges included, against the scans
they replaced. The index kept across steps (complete bases, patches with
minerals, free cells, players with a base) is checked against a scan after
every step of random legal and scripted games on every map, and of a game
set up to deplete a patch, complete a base and kill a base.
"""

import numpy as np
import pytest
from _helpers import random_legal_action
from hypothesis import given, settings, strategies as st

from gridleague.env import ARCHETYPES, Game, ScriptedPolicy, constants as C
from gridleague.env.engine import cheby
from gridleague.env.types import Order

cells = st.integers(0, C.GRID - 1)
units = st.lists(st.tuples(st.sampled_from(range(C.N_CONSTRUCTIBLE)), st.integers(0, 1),
                           cells, cells), min_size=1, max_size=40)


def _game(layout) -> Game:
    g = Game(0, "triton_toy")
    g.units = {}
    for t, player, x, y in layout:
        g._spawn(t, player, x, y)
    return g


@settings(max_examples=300, deadline=None)
@given(units)
def test_auto_target_is_the_closest_enemy_in_range_lowest_uid_first(layout):
    g = _game(layout)
    maps = g._cell_maps()
    for u in g.units.values():
        if u.type not in C.MILITARY_TYPES:
            continue
        reach = C.UNIT_RANGE[u.type]
        in_range = [v for v in g.units.values() if v.player == 1 - u.player
                    and cheby(u.x, u.y, v.x, v.y) <= reach]
        closest = min(in_range, key=lambda v: (cheby(u.x, u.y, v.x, v.y), v.uid),
                      default=None)
        assert g._in_range(u, *maps[1 - u.player]) is closest


@settings(max_examples=300, deadline=None)
@given(units)
def test_vision_is_the_union_of_unit_squares(layout):
    g = _game(layout)
    for player in (0, 1):
        vis = np.zeros((C.GRID, C.GRID), dtype=bool)
        for u in g.player_units(player):
            r = C.VISION[u.type]
            vis[max(0, u.x - r):u.x + r + 1, max(0, u.y - r):u.y + r + 1] = True
        got = g.visibility(player)
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
    assert kept.based == {u.player for u in units if u.type == C.BASE}


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
