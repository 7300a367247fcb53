"""Every action the network decodes passes the engine's own legality check.

The masks the decoder applies and ``Game._validate`` are two readings of one
observation. This property test draws random weights (scaled up for peaky
logits), both dtypes, sample mode at the extreme uniforms and argmax mode, on
observations from scripted and from random legal play, and judges each
decoded action against the observation it was decoded from.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from gridleague.env import ARCHETYPES, Game, ScriptedPolicy, constants as C
from gridleague.net import NetConfig, ObsBatch, PolicyNet
from gridleague.net.policy import N_DECISION_DRAWS

from _helpers import TINY_NET, random_legal_action

U_TOP = float(np.nextafter(1.0, 0.0))
_JUDGE = Game(0)   # _validate reads only the observation and the action


@functools.cache
def _observations(source: str) -> tuple:
    """Observations every few steps of random legal or scripted games."""
    pool = []
    for i, variant in enumerate(sorted(C.MAP_VARIANTS)):
        g = Game(20 + i, variant, max_steps=240)
        if source == "random":
            rng = np.random.default_rng(i)
            pick = [lambda obs: random_legal_action(obs, rng)] * 2
        else:
            pols = [ScriptedPolicy(ARCHETYPES[(i + p) % len(ARCHETYPES)],
                                   np.random.default_rng([i, p])) for p in (0, 1)]
            pick = [pol.act for pol in pols]
        while not g.done:
            if g.step_count % 8 == 0:
                pool += [g.observe(p) for p in (0, 1)]
            g.step_env({p: pick[p](g.observe(p)) for p in (0, 1)})
    return tuple(pool)


@functools.cache
def _net(cfg: NetConfig, dtype, seed: int, scale: float) -> PolicyNet:
    net = PolicyNet(cfg, np.random.default_rng(seed), dtype=dtype)
    net.load_state({k: v * dtype(scale) for k, v in net.state_arrays().items()})
    return net


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decoded_actions_pass_validate(data):
    cfg, dtype = data.draw(st.sampled_from([(TINY_NET, np.float64), (TINY_NET, np.float32),
                                            (NetConfig(), np.float32)]))
    net = _net(cfg, dtype, data.draw(st.integers(0, 2)), data.draw(st.sampled_from([1.0, 3.0, 8.0])))
    pool = _observations(data.draw(st.sampled_from(["random", "scripted"])))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=16))
    observations = [pool[i] for i in picks]
    b = len(observations)
    mode = data.draw(st.sampled_from(["sample", "argmax"]))
    uniforms = None
    if mode == "sample":
        u = data.draw(st.sampled_from([0.0, U_TOP, None]))
        uniforms = (np.random.default_rng(picks).random((b, N_DECISION_DRAWS)) if u is None
                    else np.full((b, N_DECISION_DRAWS), u))
    out = net.step(ObsBatch(observations), net.initial_state(b), mode=mode, uniforms=uniforms)
    for obs, act in zip(observations, out.actions):
        assert _JUDGE._validate(obs, act), (mode, act)
