import functools

import numpy as np
import pytest
from _helpers import random_legal_action
from hypothesis import given, settings, strategies as st

from gridleague.env import (
    Game,
    ScriptedPolicy,
    StructuredAction,
    constants as C,
    extract_statistic,
    play_scripted_match,
    verify_replay,
    write_replay,
)
from gridleague.env.types import cell_grid


def _obs_bytes(obs):
    parts = [obs.scalar, obs.spatial, obs.unit_type, obs.unit_cont,
             obs.unit_mask, obs.slot_uid, obs.action_mask, obs.select_mask,
             obs.target_mask, obs.position_mask]
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


def test_reset_determinism_identical_observation_bytes():
    a = Game(42, "triton_toy")
    b = Game(42, "triton_toy")
    for p in (0, 1):
        assert _obs_bytes(a.observe(p)) == _obs_bytes(b.observe(p))


def test_initial_economy():
    g = Game(0, "kairos_toy")
    for p in (0, 1):
        units = [u for u in g.units.values() if u.player == p]
        assert sum(1 for u in units if u.type == C.BASE) == 1
        assert sum(1 for u in units if u.type == C.WORKER) == C.INITIAL_WORKERS
        assert g.players[p].minerals == C.INITIAL_MINERALS


@pytest.mark.parametrize("variant", sorted(C.MAP_VARIANTS))
def test_initial_observations_mirror_symmetric(variant):
    g = Game(7, variant)
    o0, o1 = g.observe(0), g.observe(1)
    # spatial planes of P1 are the 180-degree rotation of P0's
    np.testing.assert_array_equal(o1.spatial, o0.spatial[::-1, ::-1, :])
    # my-group positions mirror cell-for-cell
    def cells(obs):
        out = set()
        for s in np.flatnonzero(obs.unit_mask[0]):
            x = round(obs.unit_cont[0, s, 0] * C.GRID)
            y = round(obs.unit_cont[0, s, 1] * C.GRID)
            out.add((int(obs.unit_type[0, s]), x, y))
        return out
    mirrored = {(t, C.GRID - 1 - x, C.GRID - 1 - y) for t, x, y in cells(o0)}
    assert cells(o1) == mirrored
    np.testing.assert_array_equal(o0.scalar, o1.scalar)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        Game(0, "atlantis")


def test_noop_forever_is_a_draw_with_zero_rewards():
    g = Game(3, "triton_toy", max_steps=60)
    while not g.done:
        g.step_env({0: StructuredAction.noop(), 1: StructuredAction.noop()})
    assert g.outcome.winner is None
    assert g.outcome.end_step == 60
    with pytest.raises(RuntimeError):
        g.step_env({})


def test_counter_triangle_light_kills_raider_first():
    g = Game(0, "triton_toy")
    g.units.clear()
    g._spawn(C.BASE, 0, 0, 0)
    g._spawn(C.BASE, 1, 15, 15)
    light = g._spawn(C.LIGHT, 0, 7, 7)
    raider = g._spawn(C.RAIDER, 1, 7, 8)
    from gridleague.env.types import Order
    light.orders = [Order("attack", target_uid=raider.uid)]
    raider.orders = [Order("attack", target_uid=light.uid)]
    for _ in range(60):
        g.step_env({})
        if raider.uid not in g.units:
            break
    assert raider.uid not in g.units, "raider should die first (2x counter damage)"
    assert light.uid in g.units
    # hand-resolved: both hit at steps 0,3,6,9,12; raider takes 5x12 >= 50
    assert g.units[light.uid].hp == C.UNIT_HP[C.LIGHT] - 5 * C.UNIT_DMG[C.RAIDER]


@pytest.mark.parametrize("variant", sorted(C.MAP_VARIANTS))
def test_mineral_conservation_and_zero_sum_after_random_play(variant):
    rng = np.random.default_rng(99)
    g = Game(5, variant, max_steps=1000)
    initial_patch_total = sum(u.remaining for u in g.units.values() if u.type == C.MINERAL)
    due = [0, 0]
    while not g.done:
        acts = {}
        for p in (0, 1):
            if g.step_count >= due[p]:
                act = random_legal_action(g.observe(p), rng)
                acts[p] = act
                due[p] = g.step_count + act.delay
        g.step_env(acts)
    illegal = [e for e in g.events if e["kind"] == "illegal_action"]
    assert not illegal, f"legal-masked random actions flagged: {illegal[:3]}"
    for p in (0, 1):
        ps = g.players[p]
        assert ps.minerals == C.INITIAL_MINERALS + ps.harvested - ps.spent
    remaining = sum(u.remaining for u in g.units.values() if u.type == C.MINERAL)
    carried = sum(u.carrying for u in g.units.values())
    deposited = sum(g.players[p].harvested for p in (0, 1))
    assert remaining + carried + deposited + g.attrition == initial_patch_total


def test_fog_of_war_hides_distant_enemies():
    g = Game(1, "triton_toy")
    obs = g.observe(0)
    # bases are across the map; nothing of the enemy is in vision yet
    assert obs.unit_mask[1].sum() == 0
    # plant a scout next to the enemy base and the enemy appears
    g._spawn(C.RAIDER, 0, 13, 12)
    obs = g.observe(0)
    assert obs.unit_mask[1].sum() > 0
    # every visible enemy really is within some friendly unit's vision
    vis = cell_grid(g._seen(0))
    for s in np.flatnonzero(obs.unit_mask[1]):
        x = round(obs.unit_cont[1, s, 0] * C.GRID)
        y = round(obs.unit_cont[1, s, 1] * C.GRID)
        assert vis[int(x), int(y)]


def test_legality_masks_track_resources_and_tech():
    g = Game(2, "triton_toy")
    obs = g.observe(0)
    assert obs.action_mask[C.NOOP]
    assert obs.action_mask[C.TRAIN_WORKER]          # 50 minerals buys a worker
    assert not obs.action_mask[C.TRAIN_SIEGE]       # no factory
    assert not obs.action_mask[C.TRAIN_LIGHT]       # no barracks
    assert not obs.action_mask[C.BUILD_FACTORY]     # barracks prerequisite missing
    g.players[0].minerals = 0
    obs = g.observe(0)
    for a in list(C.TRAIN_ACTION_TYPE) + list(C.BUILD_ACTION_TYPE):
        assert not obs.action_mask[a], f"{C.ACTION_NAMES[a]} should be masked at 0 minerals"
    assert obs.action_mask[C.NOOP]


_JUDGE = Game(0)   # _validate reads only the observation and the action


@functools.cache
def _observation_pool():
    """Observations seen in random legal play and in a teching scripted game."""
    pool = []
    for variant in sorted(C.MAP_VARIANTS):
        rng = np.random.default_rng(3)
        g = Game(4, variant, max_steps=200)
        while not g.done:
            acts = {p: random_legal_action(g.observe(p), rng) for p in (0, 1)
                    if g.step_count % 5 == 0}
            pool += [g.observe(p) for p in acts]
            g.step_env(acts)
    g = Game(6, "kairos_toy", max_steps=400)
    pols = [ScriptedPolicy(a, np.random.default_rng(p)) for p, a in enumerate(("ECON", "TURTLE"))]
    while not g.done:
        if g.step_count % 20 == 0:
            pool += [g.observe(p) for p in (0, 1)]
        g.step_env({p: pols[p].act(g.observe(p)) for p in (0, 1)})
    return pool


def _index(data, row, limit):
    """A cell the mask row allows, or any integer at or just past the bounds."""
    anywhere = st.integers(-1, limit)
    allowed = np.flatnonzero(row).tolist()
    return data.draw(st.sampled_from(allowed) | anywhere if allowed else anywhere)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_validate_is_exactly_the_masks_of_the_used_heads(data):
    pool = _observation_pool()
    obs = pool[data.draw(st.integers(0, len(pool) - 1))]

    def index(row, limit):
        return _index(data, row, limit) if data.draw(st.booleans()) else None

    a = _index(data, obs.action_mask, C.N_ACTIONS)
    row = a if 0 <= a < C.N_ACTIONS else C.NOOP
    n_sel = data.draw(st.integers(0, C.MAX_SELECTED + 1))
    act = StructuredAction(
        a, delay=data.draw(st.integers(0, C.DELAY_CHOICES + 1)),
        queued=data.draw(st.integers(0, 1)),
        selected_units=[_index(data, obs.select_mask[row], C.MAX_UNITS) for _ in range(n_sel)],
        target_unit=index(obs.target_mask[row], 3 * C.MAX_UNITS),
        target_position=index(obs.position_mask[row], C.GRID * C.GRID))

    def allows(mask, i):
        return i is not None and 0 <= i < len(mask) and bool(mask[i])

    used = C.HEAD_USAGE.get(a, frozenset())
    sel = act.selected_units
    expected = (allows(obs.action_mask, a) and 1 <= act.delay <= C.DELAY_CHOICES
                and (C.HEAD_SELECTED_UNITS not in used
                     or (0 < len(sel) <= C.MAX_SELECTED and len(set(sel)) == len(sel)
                         and all(allows(obs.select_mask[a], s) for s in sel)))
                and (C.HEAD_TARGET_UNIT not in used
                     or allows(obs.target_mask[a], act.target_unit))
                and (C.HEAD_TARGET_POSITION not in used
                     or allows(obs.position_mask[a], act.target_position)))
    assert _JUDGE._validate(obs, act) == expected


def test_extract_statistic_cases():
    z = extract_statistic([], player=0)
    assert z.build_order == [] and not any(z.built_units)

    events = [
        {"step": 10, "player": 0, "kind": "construct", "payload": {"type": C.BARRACKS}},
        {"step": 20, "player": 0, "kind": "construct", "payload": {"type": C.RAIDER}},
        {"step": 25, "player": 1, "kind": "construct", "payload": {"type": C.FACTORY}},
        {"step": 30, "player": 0, "kind": "construct", "payload": {"type": C.RAIDER}},
        {"step": 40, "player": 0, "kind": "construct", "payload": {"type": C.FACTORY}},
    ]
    z = extract_statistic(events, player=0)
    assert z.build_order == [C.BARRACKS, C.RAIDER, C.RAIDER, C.FACTORY]
    assert z.built_units[C.BARRACKS] and z.built_units[C.RAIDER] and z.built_units[C.FACTORY]
    assert not z.built_units[C.WORKER]

    # presence is invariant to duplicate events
    z2 = extract_statistic(events + events[-1:] * 3, player=0)
    assert z2.built_units == z.built_units


def test_rush_queues_barracks_before_second_worker():
    g = play_scripted_match("RUSH", "ECON", seed=11, max_steps=200)
    p0_actions = [e["payload"]["action"]["action_id"] for e in g.events
                  if e["kind"] == "action" and e["player"] == 0]
    assert C.BUILD_BARRACKS in p0_actions
    first_build = p0_actions.index(C.BUILD_BARRACKS)
    assert C.TRAIN_WORKER not in p0_actions[:first_build]


def test_scripted_actions_all_pass_legality_masks():
    total_steps = 0
    for seed in range(3):
        g = play_scripted_match("BALANCED", "TURTLE", seed=seed, max_steps=1200)
        illegal = [e for e in g.events if e["kind"] == "illegal_action"]
        assert not illegal, illegal[:2]
        total_steps += g.outcome.end_step
    assert total_steps >= 2000


def test_replay_roundtrip_reproduces_bit_exactly(tmp_path):
    g = play_scripted_match("RUSH", "BALANCED", seed=8, max_steps=800)
    path = tmp_path / "match.jsonl"
    write_replay(path, g, meta={"note": "test"})
    assert verify_replay(path)


def test_archetype_cycle_quick_check():
    def winrate(a, b, n=20):
        pts = 0.0
        for s in range(n):
            g = play_scripted_match(a, b, seed=5000 + s, record_events=False)
            w = g.outcome.winner
            pts += 1.0 if w == 0 else 0.5 if w is None else 0.0
        return pts / n

    assert winrate("RUSH", "ECON") >= 0.6
    assert winrate("ECON", "BALANCED") >= 0.6
    assert winrate("BALANCED", "RUSH") >= 0.6


@pytest.mark.parametrize("record", [True, False])
def test_refused_actions_are_counted_with_events_on_or_off(record):
    """An illegal action, a stale target and a dropped build each add one to
    the player's counters, whether or not the game records events."""
    g = Game(3, "triton_toy", record_events=record)
    # illegal: an attack that selects no unit
    g.step_env({0: StructuredAction(C.ATTACK, delay=1)})
    # stale target: the shown patch is gone by the time the action applies
    obs = g.observe(0)
    worker = int(np.flatnonzero(obs.select_mask[C.HARVEST])[0])
    target = int(np.flatnonzero(obs.target_mask[C.HARVEST])[0])
    del g.units[int(obs.slot_uid[2, target - 2 * C.MAX_UNITS])]
    g.step_env({0: StructuredAction(C.HARVEST, selected_units=[worker], target_unit=target)})
    # dropped build: ordered with the minerals shown, which are gone when the
    # worker reaches the site
    g.players[0].minerals = 500
    obs = g.observe(0)
    worker = int(np.flatnonzero(obs.select_mask[C.BUILD_BARRACKS])[0])
    pos = int(np.flatnonzero(obs.position_mask[C.BUILD_BARRACKS])[0])
    g.players[0].minerals = 0
    g.step_env({0: StructuredAction(C.BUILD_BARRACKS, selected_units=[worker],
                                    target_position=pos)})
    while g.players[0].builds_dropped == 0 and g.step_count < 60:
        g.step_env()
    ps = g.players[0]
    assert (ps.illegal_actions, ps.stale_targets, ps.builds_dropped) == (1, 1, 1)
    other = g.players[1]
    assert (other.illegal_actions, other.stale_targets, other.builds_dropped) == (0, 0, 0)
    if record:
        kinds = [(e["kind"], e["payload"].get("reason")) for e in g.events if e["player"] == 0]
        assert kinds.count(("illegal_action", None)) == 1
        assert kinds.count(("illegal_action", "stale_target")) == 1
        assert kinds.count(("build_dropped", "resources")) == 1
    else:
        assert not g.events
