"""Golden network values: float64 loss, gradients and decoder outputs on fixed
weights.

Both configurations (``TINY_NET`` and the default ``NetConfig``) run on the
same teacher-forced windows, cut from one seeded game in which side 0 mixes
scripted decisions with random legal actions, so every head is used on some
row and the selected-units pointer fills more than one slot. The test pins
the BC loss, one fingerprint per parameter gradient (its dot product with a
fixed random probe, or "no grad"), the joint, per-head and value outputs of
``step`` in sample mode (fixed uniforms) and argmax mode, a SHA-256 of the
chosen actions, and ``teacher_agreement``.

A network change that means to compute the same function must reproduce
every float at rtol 1e-10 and every digest and count exactly. A change that
means to alter the function re-records the values (``PYTHONPATH=src python
tests/test_net_golden.py`` rewrites ``net_golden.json``) and says why.
"""

import hashlib
import json
import math
import sys
import zlib
from pathlib import Path

import numpy as np
from _helpers import TINY_NET, random_legal_action

from gridleague import tensor as T
from gridleague.env import Game, ScriptedPolicy, constants as C
from gridleague.env.stats import extract_statistic
from gridleague.env.types import StructuredAction
from gridleague.imitation import Window, bc_loss, teacher_agreement
from gridleague.net import NetConfig, ObsBatch, PolicyNet
from gridleague.net.policy import N_DECISION_DRAWS

GOLDEN_FILE = Path(__file__).with_name("net_golden.json")
CONFIGS = {"tiny": TINY_NET, "default": NetConfig()}
RTOL = 1e-10
WINDOW = 6
N_WINDOWS = 3
PADDED = 2          # noop-padded steps at the end of the last window


def _decisions():
    """Side 0's (observation, action) pairs: every third one random legal."""
    game = Game(11, "kairos_toy", max_steps=400)
    rngs = [np.random.default_rng(np.random.SeedSequence([11, side])) for side in (0, 1)]
    scripts = [ScriptedPolicy("BALANCED", rngs[0]), ScriptedPolicy("RUSH", rngs[1])]
    pairs, due = [], [0, 0]
    while not game.done and len(pairs) < 40:
        acts = {}
        for p in (0, 1):
            if game.step_count >= due[p]:
                obs = game.observe(p)
                if p == 0 and len(pairs) % 3 == 2:
                    acts[p] = random_legal_action(obs, rngs[0])
                else:
                    acts[p] = scripts[p].act(obs)
                due[p] = game.step_count + acts[p].delay
                if p == 0:
                    pairs.append((obs, acts[p]))
        game.step_env(acts)
    return pairs, extract_statistic(game.events, 0)


def _windows(lstm_width: int):
    pairs, z = _decisions()
    n_real = N_WINDOWS * WINDOW - PADDED
    pairs = pairs[len(pairs) - n_real:]
    rng = np.random.default_rng(23)
    windows = []
    for k in range(N_WINDOWS):
        chunk = pairs[k * WINDOW:(k + 1) * WINDOW]
        mask = np.ones(WINDOW)
        if len(chunk) < WINDOW:
            mask[len(chunk):] = 0.0
            chunk = chunk + [(chunk[-1][0], StructuredAction.noop())] * (WINDOW - len(chunk))
        w = Window(observations=[o for o, _ in chunk], actions=[a for _, a in chunk],
                   z=z, step_mask=mask)
        if k > 0:
            w.h0 = 0.5 * rng.standard_normal(lstm_width)
            w.c0 = 0.5 * rng.standard_normal(lstm_width)
        windows.append(w)
    return windows


def _fixed_net(cfg: NetConfig) -> PolicyNet:
    """Weights drawn per parameter name, independent of initialisation order."""
    net = PolicyNet(cfg, np.random.default_rng(0), dtype=np.float64)
    for name, p in net.parameters().items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        fan_in = int(np.prod(p.data.shape[:-1])) if p.data.ndim > 1 else 100
        p.data = rng.uniform(-1.0, 1.0, p.data.shape) / math.sqrt(fan_in)
    return net


def _action_digest(actions) -> str:
    rows = [[a.action_id, a.delay, a.queued, [int(s) for s in a.selected_units],
             a.target_unit, a.target_position] for a in actions]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _outputs(out) -> dict:
    return {"joint": out.joint_logprob.data.tolist(),
            "values": out.values.data.ravel().tolist(),
            "heads": {k: v.data.tolist() for k, v in out.head_logprobs.items()},
            "actions": _action_digest(out.actions)}


def _measure(cfg: NetConfig) -> dict:
    windows = _windows(cfg.lstm_width)
    net = _fixed_net(cfg)
    loss = bc_loss(net, windows)[0]
    loss.backward()
    grads = {}
    for name, p in net.parameters().items():
        if p.grad is None:
            grads[name] = "no grad"
        else:
            probe = np.random.default_rng(zlib.crc32(name.encode()) + 1).standard_normal(p.grad.shape)
            grads[name] = math.fsum((p.grad * probe).ravel().tolist())

    obs = [o for w in windows for o in w.observations]
    batch = ObsBatch(obs, [w.z for w in windows for _ in w.observations], dtype=np.float64)
    rng = np.random.default_rng(31)
    state = tuple(0.5 * rng.standard_normal((len(obs), cfg.lstm_width)) for _ in range(2))
    uniforms = rng.random((len(obs), N_DECISION_DRAWS))
    with T.no_grad():
        sample = net.step(batch, state, mode="sample", uniforms=uniforms)
        argmax = net.step(batch, state, mode="argmax")
    return {"loss": float(loss.data), "grads": grads,
            "sample": _outputs(sample), "argmax": _outputs(argmax),
            "agreement": {k: list(v) for k, v in teacher_agreement(net, windows).items()}}


def _assert_close(actual, expected, where: str) -> None:
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for k in expected:
            _assert_close(actual[k], expected[k], f"{where}.{k}")
    elif isinstance(expected, str):
        assert actual == expected, (where, actual, expected)
    else:
        np.testing.assert_allclose(np.asarray(actual, dtype=float), np.asarray(expected),
                                   rtol=RTOL, atol=0, err_msg=where)


def test_windows_use_every_head_and_several_slots():
    real = [a for w in _windows(8) for a, m in zip(w.actions, w.step_mask) if m > 0]
    for head in C.HEAD_NAMES:
        assert any(head in C.HEAD_USAGE[a.action_id] for a in real), head
    assert any(len(a.selected_units) > 1 for a in real)


def test_network_reproduces_golden_values():
    golden = json.loads(GOLDEN_FILE.read_text())
    for name, cfg in CONFIGS.items():
        _assert_close(_measure(cfg), golden[name], name)


if __name__ == "__main__":
    values = {name: _measure(cfg) for name, cfg in CONFIGS.items()}
    GOLDEN_FILE.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {GOLDEN_FILE}", file=sys.stderr)
