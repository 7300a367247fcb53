"""A replay written and read back re-drives the engine to the same game.

Property over seeded games in which each side plays a scripted archetype or
random legal actions: ``read_replay`` returns the header and events that
``write_replay`` was given, and ``rerun`` reproduces the event stream, the
outcome, and the bytes of the observation each decision saw.
"""

import hashlib
import pickle
import tempfile
from pathlib import Path

import numpy as np
from _helpers import random_legal_action
from hypothesis import given, settings, strategies as st

from gridleague.env import ARCHETYPES, Game, ScriptedPolicy, constants as C
from gridleague.env.replay import read_replay, rerun, verify_replay, write_replay

OBS_FIELDS = ("scalar", "spatial", "unit_type", "unit_cont", "unit_mask", "slot_uid",
              "action_mask", "select_mask", "target_mask", "position_mask")


def _obs_digest(obs) -> str:
    h = hashlib.sha256()
    for name in OBS_FIELDS:
        arr = np.ascontiguousarray(getattr(obs, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _play(seed: int, variant: str, players, max_steps: int):
    """The finished game and, per decision, (step, player, obs digest, action)."""
    game = Game(seed, variant, max_steps=max_steps)
    rngs = [np.random.default_rng([seed, side]) for side in (0, 1)]
    deciders = [(lambda obs, rng=rng: random_legal_action(obs, rng)) if who == "random"
                else ScriptedPolicy(who, rng).act for who, rng in zip(players, rngs)]
    seen, due = [], [0, 0]
    while not game.done:
        acts = {}
        for p in (0, 1):
            if game.step_count >= due[p]:
                obs = game.observe(p)
                acts[p] = deciders[p](obs)
                seen.append((game.step_count, p, _obs_digest(obs), acts[p].to_dict()))
                due[p] = game.step_count + acts[p].delay
        game.step_env(acts)
    return game, seen


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       variant=st.sampled_from(sorted(C.MAP_VARIANTS)),
       players=st.tuples(*[st.sampled_from(ARCHETYPES + ("random",))] * 2),
       max_steps=st.integers(1, 300))
def test_replay_round_trip_reproduces_game_and_observations(seed, variant, players,
                                                            max_steps):
    game, seen = _play(seed, variant, players, max_steps)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "game.jsonl"
        write_replay(path, game, meta={"players": list(players)})
        header, events = read_replay(path)
    assert header == {"format": "gridleague-replay-v1", "seed": seed, "variant": variant,
                      "max_steps": max_steps, "winner": game.outcome.winner,
                      "end_step": game.outcome.end_step,
                      "meta": {"players": list(players)}}
    assert events == game.events

    reseen = []
    again = rerun(header, events, on_decision=lambda step, p, obs, act: reseen.append(
        (step, p, _obs_digest(obs), act.to_dict())))
    assert again.events == game.events
    assert (again.outcome.winner, again.outcome.end_step) == \
        (game.outcome.winner, game.outcome.end_step)
    assert reseen == seen


def test_pickled_game_writes_a_replay_that_verifies(tmp_path):
    """A finished game sent between processes keeps what its replay needs and
    shares its map's read-only height plane again."""
    game, _ = _play(11, "kairos_toy", ("RUSH", "random"), max_steps=150)
    copy = pickle.loads(pickle.dumps(game))
    write_replay(tmp_path / "game.jsonl", copy)
    assert verify_replay(tmp_path / "game.jsonl")
    assert copy._height is game._height and not copy._height.flags.writeable
