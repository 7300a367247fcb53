"""Match outcomes do not depend on which games share a batch, and an argmax
net's outcomes do not depend on its side's random stream."""

import hashlib
import json

import numpy as np
import pytest
from _helpers import TINY_NET

from gridleague import match
from gridleague.match import MatchJob, NetAgent, ScriptedAgent, evaluate_match, run_matches
from gridleague.net import PolicyNet


def _stream_hashes(results) -> list[str]:
    return [hashlib.sha256(json.dumps(r.game.events, sort_keys=True).encode()).hexdigest()
            for r in results]


def test_event_streams_independent_of_parallelism():
    net = NetAgent(PolicyNet(TINY_NET, np.random.default_rng(7)), mode="sample")
    rush = ScriptedAgent("RUSH")
    jobs = []
    for i in range(4):
        variant = ("triton_toy", "kairos_toy")[i % 2]
        jobs.append(MatchJob(100 + i, variant, (net, rush), max_steps=250,
                             record_events=True))
        jobs.append(MatchJob(200 + i, variant, (net, net), max_steps=250,
                             record_events=True))
    serial = _stream_hashes(run_matches(jobs, parallel=1))
    batched = _stream_hashes(run_matches(jobs, parallel=8))
    assert serial == batched
    assert len(set(serial)) == len(jobs)


def test_argmax_sides_draw_nothing_and_ignore_their_rng(monkeypatch):
    net = NetAgent(PolicyNet(TINY_NET, np.random.default_rng(7)), mode="argmax")
    jobs = [MatchJob(300, "triton_toy", (net, ScriptedAgent("RUSH")), max_steps=150,
                     record_events=True),
            MatchJob(301, "kairos_toy", (net, net), max_steps=150, record_events=True)]
    side_rng = match.side_rng

    def play(salt: int) -> list[str]:
        """Event-stream hashes with the net sides' streams salted by ``salt``."""
        made = []

        def spy(game_seed, side, base_salt=0):
            is_net = next(j for j in jobs if j.seed == game_seed).agents[side] is net
            rng = side_rng(game_seed, side, base_salt + (salt if is_net else 0))
            made.append((is_net, rng, rng.bit_generator.state))
            return rng

        monkeypatch.setattr(match, "side_rng", spy)
        # one shard: the spy records only the calls made in this process
        monkeypatch.setattr(match, "_usable_cpus", lambda: 1)
        hashes = _stream_hashes(run_matches(jobs))
        assert sum(is_net for is_net, _, _ in made) == 3
        for is_net, rng, state in made:
            if is_net:
                assert rng.bit_generator.state == state
        return hashes

    assert play(0) == play(1)


@pytest.mark.parametrize("parallel", [0, -1])
def test_parallel_below_one_is_refused(parallel):
    """A runner that may hold no game at a time would loop forever."""
    rush, econ = ScriptedAgent("RUSH"), ScriptedAgent("ECON")
    with pytest.raises(ValueError, match="parallel must be >= 1"):
        run_matches([MatchJob(1, "triton_toy", (rush, econ), max_steps=5)], parallel=parallel)
    with pytest.raises(ValueError, match="parallel must be >= 1"):
        evaluate_match(rush, econ, n_games=2, parallel=parallel, max_steps=5)
