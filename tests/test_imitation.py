import collections
import json
from pathlib import Path

import numpy as np
import pytest
from test_engine_golden import OBS_FIELDS

from gridleague import tensor as T
from gridleague.env import constants as C
from gridleague.imitation import (
    BCConfig,
    BCTrainer,
    Window,
    WindowLoader,
    bc_loss,
    cut_windows,
    dataset,
    generate_dataset,
    load_trajectory,
    window_forward,
)
from gridleague.match import ScriptedAgent, evaluate_match, wilson_interval
from gridleague.net import NetConfig, ObsBatch, PolicyNet


def _tiny_dataset(tmp_path, n=4, tier="full", seed=3):
    d = tmp_path / f"ds_{tier}_{seed}"
    generate_dataset(d, n_games=n, seed=seed, tier=tier, max_steps=600)
    return d


def _dataset_bytes(d: Path) -> bytes:
    return b"".join(p.read_bytes() for p in sorted(d.iterdir()))


def test_dataset_generation_deterministic_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_dataset(a, n_games=1, seed=11, tier="full", max_steps=400)
    generate_dataset(b, n_games=1, seed=11, tier="full", max_steps=400)
    assert _dataset_bytes(a) == _dataset_bytes(b)


def test_winners_tier_keeps_at_most_half(tmp_path):
    d = tmp_path / "w"
    idx = generate_dataset(d, n_games=6, seed=5, tier="winners", max_steps=600)
    kept = sum(len(g["kept_sides"]) for g in idx["games"])
    full = 2 * len(idx["games"])
    assert kept <= full / 2
    for g in idx["games"]:
        if g["winner"] is None:
            assert g["kept_sides"] == []
        else:
            assert g["kept_sides"] == [g["winner"]]


def test_stored_actions_pass_legality(tmp_path):
    d = _tiny_dataset(tmp_path, n=2)
    idx = json.loads((d / "index.json").read_text())
    for entry in idx["games"]:
        traj = load_trajectory(d, entry, (0,))[0]
        assert len(traj.observations) == len(traj.actions) > 0
        # replays regenerate with no illegal-action events (checked in rerun)
        from gridleague.env.replay import read_replay
        _, events = read_replay(d / entry["file"])
        assert not [e for e in events if e["kind"] == "illegal_action"]


def test_zero_weight_network_uniform_head_loss_is_log_v(tmp_path):
    d = _tiny_dataset(tmp_path, n=2)
    idx = json.loads((d / "index.json").read_text())
    traj = load_trajectory(d, idx["games"][0], (0,))[0]
    windows = cut_windows(traj, 16)[:2]
    net = PolicyNet(NetConfig(), np.random.default_rng(0))
    for p in net.parameters().values():
        p.data[:] = 0
    _, _, per_head, _ = bc_loss(net, windows)
    assert per_head["delay"] == pytest.approx(np.log(16), abs=1e-5)
    assert per_head["queued"] == pytest.approx(np.log(2), abs=1e-5)


def test_per_head_ce_is_the_mean_over_rows_that_use_the_head(tmp_path):
    d = _tiny_dataset(tmp_path, n=1)
    idx = json.loads((d / "index.json").read_text())
    traj = load_trajectory(d, idx["games"][0], (0,))[0]
    windows = cut_windows(traj, 16)[:2]
    net = PolicyNet(NetConfig(), np.random.default_rng(6))
    _, _, per_head, _ = bc_loss(net, windows)
    out, step_mask = window_forward(net, windows)
    forced = [w.actions[step] for step in range(16) for w in windows]
    zero_rows = 0
    for name, lp in out.head_logprobs.items():
        used = (step_mask > 0) & np.array(
            [name == "action" or name in C.HEAD_USAGE[a.action_id] for a in forced])
        assert per_head[name] == pytest.approx(float(-lp.data[used].mean()), rel=1e-5), name
        zero_rows += int((lp.data[used] == 0).sum())
    # rows with a single legal choice score exactly 0 and still count
    assert zero_rows > 0


def test_bc_loss_decreases_on_identical_pairs(tmp_path):
    d = _tiny_dataset(tmp_path, n=1)
    idx = json.loads((d / "index.json").read_text())
    traj = load_trajectory(d, idx["games"][0], (0,))[0]
    # a batch of identical (obs, action) pairs; pick a decision that uses
    # several heads so the loss cannot saturate within 100 steps
    k = next(i for i, a in enumerate(traj.actions) if len(a.selected_units) >= 2)
    obs, act = traj.observations[k], traj.actions[k]
    win = Window(observations=[obs], actions=[act], z=traj.z,
                 step_mask=np.ones(1, dtype=np.float32))
    windows = [win] * 4
    net = PolicyNet(NetConfig(), np.random.default_rng(1))
    trainer = BCTrainer(net, BCConfig(lr=3e-4, lr_decay_step=10**9))
    losses = [trainer.train_step(windows)["loss"] for _ in range(100)]
    decreases = sum(b < a for a, b in zip(losses, losses[1:]))
    assert decreases >= 95, f"only {decreases}/99 decreasing steps"
    assert losses[-1] < losses[0] * 0.5


def test_finetune_lr_zero_leaves_parameters_bitwise(tmp_path):
    d = _tiny_dataset(tmp_path, n=1)
    idx = json.loads((d / "index.json").read_text())
    traj = load_trajectory(d, idx["games"][0], (0,))[0]
    windows = cut_windows(traj, 16)[:2]
    net = PolicyNet(NetConfig(), np.random.default_rng(2))
    before = {k: p.data.tobytes() for k, p in net.parameters().items()}
    trainer = BCTrainer(net, BCConfig(lr=0.0))
    trainer.train_step(windows)
    after = {k: p.data.tobytes() for k, p in net.parameters().items()}
    assert before == after


def test_teacher_forcing_consistency_unroll_vs_stepwise(tmp_path):
    """BC loss (sum form) equals -sum of decode step logprobs within 1e-6."""
    d = _tiny_dataset(tmp_path, n=1)
    idx = json.loads((d / "index.json").read_text())
    traj = load_trajectory(d, idx["games"][0], (0,))[0]
    n = min(16, len(traj.observations))
    win = Window(observations=traj.observations[:n], actions=traj.actions[:n],
                 z=traj.z, step_mask=np.ones(n, dtype=np.float32))
    net = PolicyNet(NetConfig(), np.random.default_rng(3))
    _, total, _, _ = bc_loss(net, [win])

    state = net.initial_state(1)
    acc = 0.0
    for i in range(n):
        batch = ObsBatch([traj.observations[i]], [traj.z])
        with T.no_grad():
            out = net.step(batch, state, mode="teacher", forced=[traj.actions[i]])
        acc += float(out.joint_logprob.data[0])
        state = (out.state[0].data, out.state[1].data)
    assert float(total.data) == pytest.approx(-acc, abs=1e-4 * max(1, abs(acc)))


def test_window_loader_splits_and_batches(tmp_path):
    d = _tiny_dataset(tmp_path, n=4)
    net = PolicyNet(NetConfig(), np.random.default_rng(4))
    loader = WindowLoader(d, window=16, batch_windows=4,
                          games_per_macrobatch=2, seed=0, holdout_fraction=0.25)
    assert loader.holdout_sides and loader.train_sides
    train_games = {g for g, _ in loader.train_sides}
    hold_games = {g for g, _ in loader.holdout_sides}
    assert not (train_games & hold_games)
    batches = next(loader.macrobatches(net))
    assert all(len(b) == 4 for b in batches)
    w = batches[0][0]
    assert w.h0 is not None and w.h0.shape == (net.cfg.lstm_width,)


def test_window_loader_refuses_a_split_with_nothing_to_train_on(tmp_path):
    d = _tiny_dataset(tmp_path, n=1)
    with pytest.raises(ValueError, match="none to train on") as err:
        WindowLoader(d)           # the default holdout takes the only game
    assert str(d) in str(err.value)
    loader = WindowLoader(d, holdout_fraction=0)
    assert loader.train_sides and not loader.holdout_sides
    with pytest.raises(ValueError, match="no game sides"):
        loader.sample_trajectories(2, loader.holdout_sides)


def test_window_loader_refuses_sizes_that_can_never_fill_a_batch(tmp_path):
    """A side decides at most once per step, so a pick of a game that ended at
    step e cuts at most ceil(e / window) windows."""
    d = tmp_path / "short"
    generate_dataset(d, 3, seed=0, max_steps=40)
    longest = max(g["end_step"] for g in dataset.load_index(d)["games"])
    most = 2 * -(-longest // 16)
    with pytest.raises(ValueError, match=f"fewer than batch_windows {most + 1}") as err:
        WindowLoader(d, window=16, batch_windows=most + 1, games_per_macrobatch=2,
                     holdout_fraction=0)
    assert str(d) in str(err.value)
    with pytest.raises(ValueError, match="batch_windows 16"):
        WindowLoader(d, window=16, batch_windows=16, games_per_macrobatch=2,
                     holdout_fraction=0)
    WindowLoader(d, window=16, batch_windows=most, games_per_macrobatch=2, holdout_fraction=0)


def test_both_sides_from_one_resimulation_equal_single_side_loads(tmp_path):
    d = _tiny_dataset(tmp_path, n=1)
    entry = json.loads((d / "index.json").read_text())["games"][0]
    both = load_trajectory(d, entry, (0, 1))
    assert [t.side for t in both] == [0, 1]
    for side, shared in enumerate(both):
        alone = load_trajectory(d, entry, (side,))[0]
        assert len(shared.observations) == len(alone.observations) > 0
        for a, b in zip(shared.observations, alone.observations):
            for name in OBS_FIELDS:
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert shared.actions == alone.actions
        assert shared.z == alone.z
        assert shared.archetype == alone.archetype == entry["archetypes"][side]
        assert (shared.game_file, shared.side) == (alone.game_file, alone.side)


def test_macrobatch_resimulates_each_picked_game_once(tmp_path, monkeypatch):
    d = _tiny_dataset(tmp_path, n=2)
    reruns = collections.Counter()
    rerun = dataset.rerun

    def counting_rerun(header, events, on_decision=None, record_events=True):
        reruns[header["seed"]] += 1
        assert not record_events, "the loader never reads the re-simulation's events"
        return rerun(header, events, on_decision, record_events)

    monkeypatch.setattr(dataset, "rerun", counting_rerun)
    loader = WindowLoader(d, seed=2, holdout_fraction=0)
    rng = np.random.default_rng(2)
    pool = loader.train_sides
    picks = [pool[int(rng.integers(0, len(pool)))] for _ in range(5)]
    trajs = loader.sample_trajectories(5)
    # five picks from two games: some game is picked at least twice
    games = loader.index["games"]
    assert [(t.game_file, t.side) for t in trajs] == \
        [(games[gi]["file"], side) for gi, side in picks]
    assert reruns == collections.Counter({games[gi]["seed"]: 1 for gi, _ in picks})


def test_evaluate_match_self_play_exact_half_and_errors():
    a = ScriptedAgent("RUSH")
    res = evaluate_match(a, ScriptedAgent("RUSH"), n_games=6, seed=3,
                         max_steps=500, parallel=6)
    assert res["win_rate"] == 0.5
    with pytest.raises(ValueError):
        evaluate_match(a, a, n_games=0)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


@pytest.mark.parametrize("n_games", [1, 3])
def test_evaluate_match_rejects_an_odd_game_count(n_games):
    """An odd count would play its last seed one way round only, so a policy
    against itself could score other than one half."""
    rush = ScriptedAgent("RUSH")
    with pytest.raises(ValueError, match=f"got {n_games}"):
        evaluate_match(rush, rush, n_games=n_games, seed=1, max_steps=300)


def test_evaluate_match_rush_beats_econ():
    res = evaluate_match(ScriptedAgent("RUSH"), ScriptedAgent("ECON"),
                         n_games=20, seed=9, parallel=10)
    assert res["win_rate"] >= 0.6
