"""The match runner's schedule and counters.

Hypothesis draws job lists (a net against itself, a net against a script,
two different nets, and one net under two decode modes), a ``parallel``, a
count of usable CPUs (so of shards) and a job order; every job must play the
event stream, counters, winner and end step it plays alone. While k games of
one shard in which one net plays both sides are live, each forward of that
net in that shard holds at least k rows. A match's counters equal the event
counts of the same games, and events off leaves them unchanged.
"""

import hashlib
import json

import numpy as np
import pytest
from _helpers import TINY_NET
from hypothesis import given, settings, strategies as st

from gridleague import match
from gridleague.env import ARCHETYPES, ScriptedPolicy, StructuredAction, constants as C
from gridleague.match import MatchJob, NetAgent, ScriptedAgent, evaluate_match, run_matches
from gridleague.net import PolicyNet

NET_A = PolicyNet(TINY_NET, np.random.default_rng(7))
NET_B = PolicyNet(TINY_NET, np.random.default_rng(8))
A, A_ARGMAX, B = NetAgent(NET_A), NetAgent(NET_A, mode="argmax"), NetAgent(NET_B)
PAIRINGS = {
    "self": (A, A),
    "script": (A, ScriptedAgent("RUSH")),
    "nets": (A, B),
    "modes": (A_ARGMAX, A),
}


def _stream(result) -> str:
    return hashlib.sha256(json.dumps(result.game.events, sort_keys=True).encode()).hexdigest()


def _played(result) -> tuple:
    return _stream(result), result.counts, result.winner, result.end_step


@st.composite
def job_lists(draw):
    jobs = []
    for _ in range(draw(st.integers(1, 4))):
        agents = PAIRINGS[draw(st.sampled_from(sorted(PAIRINGS)))]
        if draw(st.booleans()):
            agents = agents[::-1]
        jobs.append(MatchJob(draw(st.integers(0, 2**31 - 1)),
                             draw(st.sampled_from(["triton_toy", "kairos_toy"])), agents,
                             max_steps=draw(st.integers(20, 80)), record_events=True))
    return jobs


@settings(max_examples=15, deadline=None)
@given(jobs=job_lists(), data=st.data())
def test_each_job_plays_as_it_plays_alone(jobs, data):
    parallel = data.draw(st.integers(1, len(jobs)), label="parallel")
    cpus = data.draw(st.integers(1, 3), label="usable CPUs")
    order = data.draw(st.permutations(range(len(jobs))), label="order")
    alone = [_played(run_matches([job])[0]) for job in jobs]

    live = []

    class Spied(match._LiveMatch):
        def __init__(self, job):
            super().__init__(job)
            live.append(self)

    step = PolicyNet.step

    def spy(net, batch, state, mode="sample", **kwargs):
        # live games of this shard in which this (net, mode) plays both
        # sides: each has a due decision, so each brings a row to this
        # forward; raised in a child shard, the failure reaches the caller
        k = sum(not m.game.done and all(getattr(a, "net", None) is net
                                        and a.mode == mode for a in m.job.agents)
                for m in live)
        assert batch.size >= k, f"a forward of {batch.size} rows while {k} self-play games are live"
        return step(net, batch, state, mode=mode, **kwargs)

    ordered = [jobs[i] for i in order]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(match, "_usable_cpus", lambda: cpus)
        mp.setattr(match, "_LiveMatch", Spied)
        mp.setattr(PolicyNet, "step", spy)
        results = run_matches(ordered, parallel=parallel)
    assert all(r.job is job for r, job in zip(results, ordered, strict=True))
    assert [_played(r) for r in results] == [alone[i] for i in order]


def _event_counts(game) -> tuple[dict, dict]:
    counts = tuple({"decisions": 0, "illegal_actions": 0, "stale_targets": 0,
                    "builds_dropped": 0} for _ in range(2))
    for e in game.events:
        if e["kind"] == "action":
            counts[e["player"]]["decisions"] += 1
        elif e["kind"] == "illegal_action":
            stale = e["payload"].get("reason") == "stale_target"
            counts[e["player"]]["stale_targets" if stale else "illegal_actions"] += 1
        elif e["kind"] == "build_dropped":
            counts[e["player"]]["builds_dropped"] += 1
    return counts


class _Clumsy(ScriptedPolicy):
    """A script whose every third decision is an attack that selects no unit."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0

    def act(self, obs):
        action = super().act(obs)
        self.calls += 1
        return StructuredAction(C.ATTACK, delay=2) if self.calls % 3 == 0 else action


def test_counters_equal_event_counts_with_events_on_or_off(monkeypatch):
    monkeypatch.setattr(match, "ScriptedPolicy", _Clumsy)
    pairings = [(A, ScriptedAgent("ECON"))] + [(ScriptedAgent(a), ScriptedAgent("TURTLE"))
                                               for a in ARCHETYPES]
    jobs = [MatchJob(40 + i, "triton_toy", agents, max_steps=200, record_events=True)
            for i, agents in enumerate(pairings)]
    on = run_matches(jobs)
    for job in jobs:
        job.record_events = False
    off = run_matches(jobs)
    for r_on, r_off in zip(on, off):
        assert r_on.counts == _event_counts(r_on.game)
        assert r_off.counts == r_on.counts
        assert not r_off.game.events
    assert all(r.counts[1]["illegal_actions"] > 0 for r in on)


def test_evaluate_match_totals_each_agents_counts():
    rush, econ = ScriptedAgent("RUSH"), ScriptedAgent("ECON")
    forward = evaluate_match(rush, econ, n_games=4, seed=5, max_steps=200)["counts"]
    backward = evaluate_match(econ, rush, n_games=4, seed=5, max_steps=200)["counts"]
    assert forward["a"] == backward["b"] and forward["b"] == backward["a"]
    assert forward["a"]["decisions"] > 0 and forward["b"]["decisions"] > 0
    mirror = evaluate_match(A, A, n_games=2, seed=5, max_steps=60)["counts"]
    assert mirror["a"] == mirror["b"]
