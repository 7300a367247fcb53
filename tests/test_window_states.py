"""Window-start states from the loader's encode-once annotation equal the
states of a step-by-step teacher-forced pass, and a side picked twice is
encoded once with the states of encoding it once per pick."""

import copy

import numpy as np

from gridleague import tensor as T
from gridleague.imitation import WindowLoader, cut_windows, generate_dataset
from gridleague.net import NetConfig, ObsBatch, PolicyNet


class _RecordingLoader(WindowLoader):
    def sample_trajectories(self, k, sides=None):
        self.sampled = super().sample_trajectories(k, sides)
        return self.sampled


def _stepwise_states(net, traj, window):
    """(h, c) before every window-th decision, from teacher-mode net.step."""
    state = net.initial_state(1)
    starts = {}
    for t, (obs, act) in enumerate(zip(traj.observations, traj.actions)):
        if t % window == 0:
            starts[t] = (state[0][0].copy(), state[1][0].copy())
        with T.no_grad():
            out = net.step(ObsBatch([obs], [traj.z]), state,
                           mode="teacher", forced=[act])
        state = (out.state[0].data, out.state[1].data)
    return starts


def test_window_start_states_match_stepwise_float64(tmp_path):
    generate_dataset(tmp_path, n_games=2, seed=4, max_steps=250)
    net = PolicyNet(NetConfig(), np.random.default_rng(5), dtype=np.float64)
    window = 8
    loader = _RecordingLoader(tmp_path, window=window, batch_windows=2,
                              games_per_macrobatch=3, seed=1, holdout_fraction=0)
    batches = next(loader.macrobatches(net))
    # a window is found by the identity of its first observation
    expected = {}
    for traj in loader.sampled:
        for t, hc in _stepwise_states(net, traj, window).items():
            expected[id(traj.observations[t])] = hc
    windows = [w for batch in batches for w in batch]
    assert len({len(tr.observations) for tr in loader.sampled}) > 1
    assert any(np.abs(w.h0).max() > 0 for w in windows)
    for w in windows:
        h, c = expected[id(w.observations[0])]
        assert w.h0.dtype == np.float64 and w.c0.dtype == np.float64
        np.testing.assert_allclose(w.h0, h, rtol=0, atol=1e-10)
        np.testing.assert_allclose(w.c0, c, rtol=0, atol=1e-10)



def test_a_repeated_pick_is_encoded_once_with_unchanged_states(tmp_path):
    generate_dataset(tmp_path, n_games=2, seed=4, max_steps=250)
    net = PolicyNet(NetConfig(), np.random.default_rng(5))
    window = 8
    loader = WindowLoader(tmp_path, window=window, batch_windows=2,
                          games_per_macrobatch=5, seed=1, holdout_fraction=0)
    trajs = loader.sample_trajectories(5)       # five picks of four sides
    distinct = {id(tr): tr for tr in trajs}
    assert len(distinct) < len(trajs)
    assert all(len(tr.observations) > window for tr in trajs)
    encode, encoded = net.encode, []
    net.encode = lambda batch: encoded.append(batch) or encode(batch)

    shared = [cut_windows(tr, window) for tr in trajs]
    loader._annotate_states(net, trajs, shared)
    assert len(encoded) == len(distinct)
    # each pick its own object: encoded once per pick
    encoded.clear()
    apart = [cut_windows(tr, window) for tr in trajs]
    loader._annotate_states(net, [copy.copy(tr) for tr in trajs], apart)
    assert len(encoded) == len(trajs)
    for ws, vs in zip(shared, apart):
        for w, v in zip(ws, vs):
            assert w.h0.tobytes() == v.h0.tobytes() and w.c0.tobytes() == v.c0.tobytes()
