"""The masks and planes an observation derives from its factors equal the
dense arrays the engine used to build in ``observe``.

``dense_arrays`` below is that construction, kept as the reference: it reads
the game's units at the moment of observation, not the observation's
factors. Hypothesis draws observations from scripted and from random legal
games on every map, and checks the derived ``select_mask``, ``target_mask``,
``position_mask`` and ``spatial`` byte for byte, and ``ObsBatch.legal_rows``
row for row, for every action id, legal or not.
"""

import functools

import numpy as np
from _helpers import random_legal_action
from hypothesis import given, settings, strategies as st

from gridleague.env import ARCHETYPES, Game, ScriptedPolicy, StructuredAction, constants as C
from gridleague.env.types import cell_grid
from gridleague.net import ObsBatch

# _SELECTABLE[action, type]: the pointer head may pick a complete unit of that type
_SELECTABLE = np.array([[t in C.SELECTABLE.get(a, ()) for t in range(len(C.TYPE_NAMES))]
                        for a in range(C.N_ACTIONS)], dtype=bool)


def dense_arrays(game: Game, player: int, action_mask: np.ndarray) -> dict:
    """Spatial planes and the three per-action masks, built densely from the
    game's units and cleared for the illegal actions of ``action_mask``."""
    n = C.MAX_UNITS
    seen = game._seen(player)
    mine, enemy, neutral = game._groups(player, seen)
    free = game._static_free()

    spatial = np.zeros((C.GRID, C.GRID, C.SPATIAL_CHANNELS), dtype=np.float32)
    spatial[:, :, 0] = game._height
    spatial[:, :, 1] = cell_grid(seen)
    rel = spatial[:, :, 2]
    for members, value in ((neutral, 0.25), (enemy, 0.5), (mine, 1.0)):
        for u in members:
            rel[u.x, u.y] = value
    spatial[:, :, 3] = free

    select_mask = np.zeros((C.N_ACTIONS, n), dtype=bool)
    target_mask = np.zeros((C.N_ACTIONS, 3 * n), dtype=bool)
    position_mask = np.zeros((C.N_ACTIONS, C.GRID * C.GRID), dtype=bool)
    slots = mine[:n]
    select_mask[:, :len(slots)] = (_SELECTABLE[:, [u.type for u in slots]]
                                   & np.array([u.complete for u in slots], dtype=bool))
    position_mask[C.MOVE] = True
    target_mask[C.ATTACK, n:n + len(enemy[:n])] = True
    target_mask[C.HARVEST, 2 * n:2 * n + len(neutral[:n])] = True
    position_mask[list(C.BUILD_ACTION_TYPE)] = free.reshape(-1)
    illegal = ~action_mask
    select_mask[illegal] = False
    target_mask[illegal] = False
    position_mask[illegal] = False
    return {"spatial": spatial, "select_mask": select_mask,
            "target_mask": target_mask, "position_mask": position_mask}


@functools.cache
def _pool(source: str) -> tuple:
    """(observation, reference arrays) every third step of both sides of one
    game per map, played by the scripts or by random legal actions."""
    pool = []
    for i, variant in enumerate(sorted(C.MAP_VARIANTS)):
        g = Game(40 + i, variant, max_steps=450)
        if source == "random":
            rng = np.random.default_rng(i)
            pick = [lambda obs: random_legal_action(obs, rng)] * 2
        else:
            pols = [ScriptedPolicy(ARCHETYPES[(i + p) % len(ARCHETYPES)],
                                   np.random.default_rng([i, p])) for p in (0, 1)]
            pick = [pol.act for pol in pols]
        while not g.done:
            observations = [g.observe(p) for p in (0, 1)]
            if g.step_count % 3 == 0:
                pool += [(o, dense_arrays(g, o.player, o.action_mask)) for o in observations]
            g.step_env({p: pick[p](observations[p]) for p in (0, 1)})
    return tuple(pool)


def _draw_batch(data) -> list:
    pool = _pool(data.draw(st.sampled_from(["random", "scripted"])))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return [pool[i] for i in picks]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_derived_arrays_equal_the_dense_construction(data):
    for obs, ref in _draw_batch(data):
        for name, expected in ref.items():
            got = getattr(obs, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_legal_rows_are_the_dense_rows_cropped(data):
    drawn = _draw_batch(data)
    batch = ObsBatch([obs for obs, _ in drawn])
    n0 = batch.group_n[0]
    mixed = np.array(data.draw(st.lists(st.integers(0, C.N_ACTIONS - 1),
                                        min_size=len(drawn), max_size=len(drawn))))
    for ids in [np.full(len(drawn), a) for a in range(C.N_ACTIONS)] + [mixed]:
        select, target, position = batch.legal_rows(ids)
        for i, ((_, ref), a) in enumerate(zip(drawn, ids)):
            np.testing.assert_array_equal(select[i], ref["select_mask"][a, :n0])
            np.testing.assert_array_equal(target[i], ref["target_mask"][a, batch.target_slots])
            np.testing.assert_array_equal(position[i], ref["position_mask"][a])


def test_a_barracks_one_step_from_complete_is_not_selectable():
    """Build progress 29/30 reads 1.0 in float32 features, but the engine
    still counts the barracks incomplete, and so must the select mask."""
    g = Game(0, "triton_toy")
    g.players[0].minerals = 500
    done = g._spawn(C.BARRACKS, 0, 5, 5)
    almost = g._spawn(C.BARRACKS, 0, 7, 5, progress=1.0 / C.BUILD_TIME[C.BARRACKS])
    while g.units[almost.uid].build_progress + 1.0 / C.BUILD_TIME[C.BARRACKS] < 1.0:
        g.step_env({0: StructuredAction.noop()})
    assert not almost.complete
    obs = g.observe(0)
    slots = {int(uid): s for s, uid in enumerate(obs.slot_uid[0])}
    s_done, s_almost = slots[done.uid], slots[almost.uid]
    assert obs.unit_cont[0, s_almost, 3] == np.float32(1.0)
    assert obs.action_mask[C.TRAIN_LIGHT]
    assert obs.select_mask[C.TRAIN_LIGHT, s_done]
    assert not obs.select_mask[C.TRAIN_LIGHT, s_almost]
    ref = dense_arrays(g, 0, obs.action_mask)
    for name, expected in ref.items():
        assert getattr(obs, name).tobytes() == expected.tobytes(), name
    act = StructuredAction(C.TRAIN_LIGHT, selected_units=[s_almost])
    assert not g._validate(obs, act)
    assert g._validate(obs, StructuredAction(C.TRAIN_LIGHT, selected_units=[s_done]))
