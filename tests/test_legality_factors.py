"""The arrays an observation derives from its factors equal the dense
arrays the engine used to build in ``observe``, and the scripts read the
factors as they read those arrays.

``dense_arrays`` and ``packed_units`` below are that construction, kept as
the reference: they read the game's units at the moment of observation, not
the observation's factors. Hypothesis draws observations from scripted and
from random legal games on every map, and checks the derived
``select_mask``, ``target_mask``, ``position_mask``, ``spatial``,
``unit_type``, ``unit_cont``, ``unit_mask`` and ``slot_uid`` byte for byte,
``ObsBatch.legal_rows`` row for row, for every action id, legal or not, and
every script read of ``_View`` against a view of the float32 arrays.
"""

import functools

import numpy as np
from _helpers import random_legal_action
from hypothesis import given, settings, strategies as st

from gridleague.env import ARCHETYPES, Game, ScriptedPolicy, StructuredAction, constants as C
from gridleague.env.engine import _features
from gridleague.env.script import _View
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
    free = np.ones((C.GRID, C.GRID), dtype=bool)
    for u in game.units.values():
        if u.type in C.BUILDING_TYPES or u.type == C.MINERAL:
            free[u.x, u.y] = False

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


def packed_units(game: Game, player: int) -> dict:
    """The four padded unit arrays, packed from the game's units."""
    n = C.MAX_UNITS
    unit_type = np.zeros((3, n), dtype=np.int32)
    unit_cont = np.zeros((3, n, C.UNIT_FEATS), dtype=np.float32)
    unit_mask = np.zeros((3, n), dtype=np.float32)
    slot_uid = np.full((3, n), -1, dtype=np.int32)
    for g, members in enumerate(game._groups(player, game._seen(player))):
        shown = members[:n]
        if shown:
            k = len(shown)
            unit_type[g, :k] = [u.type for u in shown]
            unit_cont[g, :k] = [_features(u) for u in shown]
            unit_mask[g, :k] = 1.0
            slot_uid[g, :k] = [u.uid for u in shown]
    return {"unit_type": unit_type, "unit_cont": unit_cont,
            "unit_mask": unit_mask, "slot_uid": slot_uid}


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
                pool += [(o, {**dense_arrays(g, o.player, o.action_mask),
                              **packed_units(g, o.player)}) for o in observations]
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


class _ArrayView(_View):
    """A script view read from the observation's float32 unit arrays."""

    def __init__(self, obs):
        self.legal = obs.action_mask.tolist()
        self.complete = obs.complete
        self.types, self.cont, slots = [], [], []
        for g, k in enumerate((len(obs.complete), obs.n_enemy, obs.n_neutral)):
            slots.append(list(range(k)))
            self.types.append(obs.unit_type[g, :k].tolist())
            self.cont.append(obs.unit_cont[g, :k].tolist())
        self.my_slots, self.enemy_slots, self.neutral_slots = slots

    def my_of_type(self, *types, complete=True):
        mine, cont = self.types[0], self.cont[0]
        return [s for s in self.my_slots
                if mine[s] in types and not (complete and cont[s][3] < 1.0)]


def _assert_views_agree(obs) -> None:
    """Every read the scripts make of ``_View`` gives the float32 arrays' answer."""
    got, ref = _View(obs), _ArrayView(obs)
    assert [list(t) for t in got.types] == ref.types
    assert (got.my_slots, got.enemy_slots, got.neutral_slots) == \
        (ref.my_slots, ref.enemy_slots, ref.neutral_slots)
    kinds = [(t,) for t in range(C.N_CONSTRUCTIBLE)] + [C.MILITARY_TYPES, C.BUILDING_TYPES]
    for types in kinds:
        for complete in (True, False):
            assert got.my_of_type(*types, complete=complete) == \
                ref.my_of_type(*types, complete=complete), (types, complete)
    for g, slots in enumerate((ref.my_slots, ref.enemy_slots, ref.neutral_slots)):
        for s in slots:
            assert got.pos(g, s) == ref.pos(g, s)
            assert got.idle(g, s) == ref.idle(g, s)
    for s in ref.my_slots:
        # the scripts compare the queue length with 1 and 2
        assert [got.queue_len(s) < k for k in (1, 2)] == [ref.queue_len(s) < k for k in (1, 2)]
        for a in C.SELECTABLE:
            assert got.selects(a, s) == ref.selects(a, s)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_script_view_of_the_factors_equals_the_view_of_the_arrays(data):
    for obs, _ in _draw_batch(data):
        _assert_views_agree(obs)


def _almost_complete_barracks():
    """A game whose player 0 has a complete barracks and one at 29/30."""
    g = Game(0, "triton_toy")
    g.players[0].minerals = 500
    done = g._spawn(C.BARRACKS, 0, 5, 5)
    almost = g._spawn(C.BARRACKS, 0, 7, 5, progress=1.0 / C.BUILD_TIME[C.BARRACKS])
    while g.units[almost.uid].build_progress + 1.0 / C.BUILD_TIME[C.BARRACKS] < 1.0:
        g.step_env({0: StructuredAction.noop()})
    return g, done, almost


def test_a_barracks_one_step_from_complete_is_not_selectable():
    """Build progress 29/30 reads 1.0 in float32 features, but the engine
    still counts the barracks incomplete, and so must the select mask."""
    g, done, almost = _almost_complete_barracks()
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


def test_the_scripts_count_a_barracks_at_29_of_30_complete_as_float32_does():
    """The scripts' own completeness test reads the progress feature as the
    float32 array holds it: 29/30 counts complete there, unlike in the
    engine's ``complete``."""
    g, done, almost = _almost_complete_barracks()
    obs = g.observe(0)
    s_almost = obs.uids[0].index(almost.uid)
    assert obs.feats[0][s_almost][3] < 1.0 and not obs.complete[s_almost]
    assert s_almost in _View(obs).my_of_type(C.BARRACKS)
    _assert_views_agree(obs)
