"""Scripted games play through ``run_matches``, and nothing they record changed.

``reference_match`` is the lockstep loop that played every scripted game
before ``play_scripted_match`` became one ``run_matches`` job: it observes
and steps every game step and seeds side s from (game seed, s, 977). It is
kept here as the reference the one match loop must reproduce.
"""

import hashlib
import json

import numpy as np
import pytest

from gridleague import match
from gridleague.env import ARCHETYPES, Game, ScriptedPolicy, constants as C, play_scripted_match
from gridleague.imitation import generate_dataset
from gridleague.net import PolicyNet

from _helpers import TINY_NET


def reference_match(arch0, arch1, seed, variant, max_steps=C.MAX_STEPS) -> Game:
    game = Game(seed, variant, max_steps=max_steps, record_events=True)
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, side, 977])) for side in (0, 1)]
    policies = [ScriptedPolicy(arch0, rngs[0]), ScriptedPolicy(arch1, rngs[1])]
    due = [0, 0]
    while not game.done:
        acts = {}
        for p in (0, 1):
            if game.step_count >= due[p]:
                action = policies[p].act(game.observe(p))
                acts[p] = action
                due[p] = game.step_count + action.delay
        game.step_env(acts)
    return game


def _assert_same_game(a: Game, b: Game) -> None:
    assert a.events == b.events
    assert (a.outcome.winner, a.outcome.end_step) == (b.outcome.winner, b.outcome.end_step)


@pytest.mark.parametrize("variant", sorted(C.MAP_VARIANTS))
def test_every_ordered_pair_plays_as_the_reference_loop(variant):
    for i, a0 in enumerate(ARCHETYPES):
        for j, a1 in enumerate(ARCHETYPES):
            seed = 100 + 4 * i + j
            _assert_same_game(play_scripted_match(a0, a1, seed, variant, max_steps=300),
                              reference_match(a0, a1, seed, variant, max_steps=300))


def test_a_full_length_game_plays_as_the_reference_loop():
    game = play_scripted_match("BALANCED", "RUSH", 21, "kairos_toy")
    _assert_same_game(game, reference_match("BALANCED", "RUSH", 21, "kairos_toy"))
    assert game.outcome.end_step > 300


def test_every_side_decides_at_exactly_its_due_steps():
    """Network and scripted sides in one game: each side acts at step 0 and
    then exactly ``delay`` steps after its previous action, until the end."""
    net = match.NetAgent(PolicyNet(TINY_NET, np.random.default_rng(0), dtype=np.float64))
    jobs = [match.MatchJob(seed, "triton_toy", agents, max_steps=150, record_events=True)
            for seed in (1, 2)
            for agents in ((net, match.ScriptedAgent("RUSH")), (match.ScriptedAgent("ECON"), net),
                           (net, net))]
    for r in match.run_matches(jobs, parallel=3):
        for side in (0, 1):
            acts = [(e["step"], e["payload"]["action"]["delay"]) for e in r.game.events
                    if e["kind"] == "action" and e["player"] == side]
            steps = [0] + [t + delay for t, delay in acts]
            assert [t for t, _ in acts] == steps[:-1]
            assert steps[-1] >= r.end_step
            assert r.counts[side]["decisions"] == len(acts)


def _dataset_digest(d) -> str:
    """Replay names and bytes, then the index without its decision counts,
    re-serialised as ``generate_dataset`` writes it."""
    h = hashlib.sha256()
    for p in sorted(d.glob("game_*.jsonl")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    index = json.loads((d / "index.json").read_text())
    for g in index["games"]:
        g.pop("decisions")
    h.update((json.dumps(index, indent=1) + "\n").encode())
    return h.hexdigest()[:16]


# the digest of generate_dataset(d, 4, seed=3, max_steps=300) when every game
# was played by the reference loop above, one game after the other
REFERENCE_DATASET = "63e94322d19d7e40"


def test_dataset_files_do_not_depend_on_the_cores_that_played_them(tmp_path, monkeypatch):
    files = {}
    for cpus in (1, 2):
        monkeypatch.setattr(match, "_usable_cpus", lambda: cpus)
        d = tmp_path / f"cpus{cpus}"
        generate_dataset(d, 4, seed=3, max_steps=300)
        files[cpus] = {p.name: p.read_bytes() for p in d.iterdir()}
        assert _dataset_digest(d) == REFERENCE_DATASET
    assert files[1] == files[2]
