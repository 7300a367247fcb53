"""Match outcomes do not depend on which games share a batch."""

import hashlib
import json

import numpy as np
from _helpers import TINY_NET

from gridleague.match import MatchJob, NetAgent, ScriptedAgent, run_matches
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
