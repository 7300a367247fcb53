"""Parallel match execution with batched network inference.

Many games advance in lockstep; all decisions due on a tick that belong to
the same network are batched into one forward pass. Scripted opponents act
inline. Policy randomness is seeded from (game seed, side), so swapping which
policy sits on which side replays identical games when the policies are the
same (the mirrored-seed evaluation trick).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .env import Game, ScriptedPolicy, constants as C
from .env.types import StatisticZ, StructuredAction
from .net import ObsBatch, PolicyNet
from .net.policy import N_DECISION_DRAWS


def side_rng(game_seed: int, side: int, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(game_seed) & (2**63 - 1), side, salt]))


class NetAgent:
    """A policy network plus its sampling/z configuration, shared across games."""

    def __init__(self, net: PolicyNet, mode: str = "sample",
                 z_pool: list[StatisticZ] | None = None,
                 fixed_z: StatisticZ | None = None, name: str = "net"):
        self.net = net
        self.mode = mode
        self.z_pool = z_pool
        self.fixed_z = fixed_z
        self.name = name

    def pick_z(self, rng: np.random.Generator) -> StatisticZ | None:
        if self.fixed_z is not None:
            return self.fixed_z
        if self.z_pool:
            return self.z_pool[int(rng.integers(0, len(self.z_pool)))]
        return None


class ScriptedAgent:
    def __init__(self, archetype: str):
        self.archetype = archetype
        self.name = archetype


@dataclass
class _SideState:
    agent: object
    rng: np.random.Generator
    z: StatisticZ | None = None
    scripted: ScriptedPolicy | None = None
    h: np.ndarray | None = None
    c: np.ndarray | None = None
    due: int = 0
    decisions: int = 0


@dataclass
class MatchJob:
    seed: int
    variant: str
    agents: tuple                     # (side0 agent, side1 agent)
    max_steps: int = C.MAX_STEPS
    record_events: bool = False
    tag: object = None


@dataclass
class MatchResult:
    job: MatchJob
    winner: int | None
    end_step: int
    game: Game = field(repr=False, default=None)

    def points(self, side: int) -> float:
        if self.winner is None:
            return 0.5
        return 1.0 if self.winner == side else 0.0


class _LiveMatch:
    def __init__(self, job: MatchJob):
        self.job = job
        self.game = Game(job.seed, job.variant, max_steps=job.max_steps,
                         record_events=job.record_events)
        self.sides = []
        for side, agent in enumerate(job.agents):
            st = _SideState(agent=agent, rng=side_rng(job.seed, side))
            if isinstance(agent, ScriptedAgent):
                st.scripted = ScriptedPolicy(agent.archetype, st.rng)
            else:
                st.z = agent.pick_z(st.rng)
                h, c = agent.net.initial_state(1)
                st.h, st.c = h[0], c[0]
            self.sides.append(st)


def run_matches(jobs: list[MatchJob], parallel: int = 32) -> list[MatchResult]:
    """Play every job to completion; returns results in job order."""
    results: list[MatchResult | None] = [None] * len(jobs)
    queue = list(enumerate(jobs))
    live: list[tuple[int, _LiveMatch]] = []
    while queue or live:
        while queue and len(live) < parallel:
            idx, job = queue.pop(0)
            live.append((idx, _LiveMatch(job)))
        # gather decisions due on this tick, grouped by shared network
        net_groups: dict[int, list] = {}
        scripted_acts: dict[int, dict[int, StructuredAction]] = {}
        for li, (idx, m) in enumerate(live):
            for side, st in enumerate(m.sides):
                if m.game.step_count < st.due:
                    continue
                obs = m.game.observe(side)
                if st.scripted is not None:
                    act = st.scripted.act(obs)
                    scripted_acts.setdefault(li, {})[side] = act
                    st.due = m.game.step_count + act.delay
                    st.decisions += 1
                else:
                    net_groups.setdefault(id(st.agent.net), []).append(
                        (li, side, st, obs))
        for group in net_groups.values():
            agent: NetAgent = group[0][2].agent
            batch = ObsBatch([g[3] for g in group], [g[2].z for g in group],
                             dtype=agent.net.dtype)
            h = np.stack([g[2].h for g in group])
            c = np.stack([g[2].c for g in group])
            # each side consumes its own fixed-size draw, so outcomes do not
            # depend on which games happen to be batched together; only
            # sampling reads them
            uniforms = (np.stack([g[2].rng.random(N_DECISION_DRAWS) for g in group])
                        if agent.mode == "sample" else None)
            with T.no_grad():
                out = agent.net.step(batch, (h, c), mode=agent.mode,
                                     uniforms=uniforms)
            hs, cs = out.state[0].data, out.state[1].data
            for k, (li, side, st, _obs) in enumerate(group):
                act = out.actions[k]
                st.h, st.c = hs[k], cs[k]
                st.due = live[li][1].game.step_count + act.delay
                st.decisions += 1
                scripted_acts.setdefault(li, {})[side] = act
        # advance every live game one env step
        still = []
        for li, (idx, m) in enumerate(live):
            m.game.step_env(scripted_acts.get(li))
            if m.game.done:
                results[idx] = MatchResult(job=m.job, winner=m.game.outcome.winner,
                                           end_step=m.game.outcome.end_step, game=m.game)
            else:
                still.append((idx, m))
        live = still
    return results


def wilson_interval(wins: float, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        raise ValueError("wilson interval of an empty sample")
    p = wins / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def evaluate_match(agent_a, agent_b, n_games: int, seed: int = 0,
                   variant: str = "triton_toy", parallel: int = 32,
                   max_steps: int = C.MAX_STEPS) -> dict:
    """Win rate of A vs B with a 95% Wilson interval; draws count one half.

    Mirrored: each seed is played twice with the sides swapped, so a policy
    against itself scores exactly 0.5.
    """
    if n_games < 1:
        raise ValueError("n_games must be >= 1")
    jobs = []
    for i in range(n_games):
        game_seed = seed + i // 2
        if i % 2 == 1:
            jobs.append(MatchJob(game_seed, variant, (agent_b, agent_a),
                                 max_steps=max_steps, tag="swapped"))
        else:
            jobs.append(MatchJob(game_seed, variant, (agent_a, agent_b),
                                 max_steps=max_steps, tag="direct"))
    results = run_matches(jobs, parallel=parallel)
    points = 0.0
    draws = 0
    for r in results:
        a_side = 1 if r.job.tag == "swapped" else 0
        points += r.points(a_side)
        draws += r.winner is None
    lo, hi = wilson_interval(points, n_games)
    return {"win_rate": points / n_games, "points": points, "n": n_games,
            "draws": draws, "ci95": (lo, hi)}
