"""Parallel match execution with batched network inference.

The schedule: at the start of each round every live game has a due decision.
The due decisions of each shared network and decode mode go into one forward
pass, so every live game in which a network plays both sides brings a row to
its forward; scripted sides act inline. Each live game then takes one step
with its round's actions and advances with no-op steps until one of its sides
is due again. A game that ends on the way is retired there, and a new job
takes its place, due at once.

A game's trajectory does not depend on when the runner steps it, so outcomes
do not depend on which games share a forward, on ``parallel`` or on the job
order: games share no state, each row of a forward reads only its own
observation and recurrent state, and each side draws its randomness only
from its own stream, seeded from (game seed, side). The same seeding makes
swapping which policy sits on which side replay identical games when the
policies are the same (the mirrored-seed evaluation trick).

Shards: with k = min(usable CPUs, jobs, ``parallel``) above 1, the caller
plays the first of k contiguous shards of the job list and k - 1 forked
children the others, each through the one loop above with at most
``parallel // k`` live games, and the results equal those of one process.
Meanwhile OpenBLAS runs one thread per process: at two threads each, shards
on a 2-core machine ran ten times slower than one process. With one usable
CPU, or no OpenBLAS whose thread count can be set, the caller plays every job.
"""

from __future__ import annotations

import ctypes
import os
import pickle
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .env import Game, ScriptedPolicy, constants as C
from .env.types import StructuredAction
from .net import ObsBatch, PolicyNet
from .net.policy import N_DECISION_DRAWS


def side_rng(game_seed: int, side: int, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(game_seed) & (2**63 - 1), side, salt]))


class NetAgent:
    """A network and its decode mode, shared across games; it plays unconditioned (zero z)."""

    def __init__(self, net: PolicyNet, mode: str = "sample"):
        self.net = net
        self.mode = mode


class ScriptedAgent:
    def __init__(self, archetype: str):
        self.archetype = archetype


@dataclass
class _SideState:
    agent: object
    rng: np.random.Generator
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
    # per side: decisions, illegal actions, stale-target actions and dropped
    # builds, counted whether or not the job records events
    counts: tuple[dict, dict] = ()

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
                h, c = agent.net.initial_state(1)
                st.h, st.c = h[0], c[0]
            self.sides.append(st)

    def result(self) -> MatchResult:
        g = self.game
        counts = tuple({"decisions": st.decisions, "illegal_actions": ps.illegal_actions,
                        "stale_targets": ps.stale_targets, "builds_dropped": ps.builds_dropped}
                       for st, ps in zip(self.sides, g.players))
        return MatchResult(job=self.job, winner=g.outcome.winner,
                           end_step=g.outcome.end_step, game=g, counts=counts)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _openblas_threads():
    """(get, set, stop) of the OpenBLAS this process loaded, or None: get and
    set its thread count, and stop its thread pool (None where not exported)."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            if hasattr(dll, name.format("get")) and hasattr(dll, name.format("set")):
                get, set_ = getattr(dll, name.format("get")), getattr(dll, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                stop = getattr(dll, "blas_thread_shutdown_", None)
                if stop is not None:
                    stop.argtypes, stop.restype = [], ctypes.c_int
                return get, set_, stop
    return None


def run_matches(jobs: list[MatchJob], parallel: int = 32) -> list[MatchResult]:
    """Play every job to completion, at most ``parallel`` at a time; returns
    results in job order. On more than one usable CPU the jobs are played in
    shards, one process each at one OpenBLAS thread, with the same results;
    with one, or no settable OpenBLAS, all here (see the module docstring)."""
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    k = min(_usable_cpus(), len(jobs), parallel)
    blas = _openblas_threads() if k > 1 else None
    return _run_shard(jobs, parallel) if blas is None else _run_shards(jobs, parallel // k, k, blas)


def _run_shards(jobs: list[MatchJob], parallel: int, k: int, blas) -> list[MatchResult]:
    """Play the first shard here and the others in forked children, which
    share the nets and jobs without pickling them; OpenBLAS's thread count
    is restored and every child reaped before this returns or raises."""
    import signal

    cut = [len(jobs) * i // k for i in range(k + 1)]
    shards = [jobs[lo:hi] for lo, hi in zip(cut, cut[1:])]
    get_threads, set_threads, stop_pool = blas
    threads = get_threads()
    set_threads(1)
    children = {}                   # shard -> (pid, read end of its pipe), until reaped
    try:
        for i in range(1, k):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _play_child(shards[i], parallel, w)
            os.close(w)
            children[i] = (pid, open(r, "rb"))
        results = _run_shard(shards[0], parallel)
        for i in range(1, k):
            pid, pipe = children[i]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[i]
            if not payload:
                raise RuntimeError(f"match shard {i} of {k} died with exit status "
                                   f"{os.waitstatus_to_exitcode(status)}")
            out = pickle.loads(payload)
            if isinstance(out, tuple):      # the exception the child raised, its traceback
                raise out[0] from RuntimeError(f"match shard {i} of {k} raised:\n{out[1]}")
            results += [MatchResult(job, *played) for job, played in zip(shards[i], out)]
        return results
    finally:
        # after a fork the restore restarts the pool, whose workers then spin
        # for about 0.1 s; stopped, it restarts on the next threaded call
        set_threads(threads)
        if stop_pool is not None:
            stop_pool()
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _play_child(jobs: list[MatchJob], parallel: int, w: int) -> None:
    """In a forked child: play one shard, write its results, or the exception
    it raised, pickled to ``w``, and exit without returning."""
    code = 1
    try:
        try:
            out = [(r.winner, r.end_step, r.game, r.counts) for r in _run_shard(jobs, parallel)]
        except Exception as exc:
            import traceback
            out = (exc, traceback.format_exc())
        with open(w, "wb") as f:
            f.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _run_shard(jobs: list[MatchJob], parallel: int) -> list[MatchResult]:
    """The lockstep loop: every job played to completion in this process."""
    results: list[MatchResult | None] = [None] * len(jobs)
    queue = list(enumerate(jobs))
    live: list[tuple[int, _LiveMatch]] = []
    while queue or live:
        while queue and len(live) < parallel:
            idx, job = queue.pop(0)
            live.append((idx, _LiveMatch(job)))
        # every live game has a due decision: gather them, grouped by shared
        # network and decode mode
        net_groups: dict[tuple, list] = {}
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
                    key = (id(st.agent.net), st.agent.mode)
                    net_groups.setdefault(key, []).append((li, side, st, obs))
        for group in net_groups.values():
            agent: NetAgent = group[0][2].agent
            batch = ObsBatch([g[3] for g in group])
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
        # step every live game with its actions, then on to its next due decision
        still = []
        for li, (idx, m) in enumerate(live):
            m.game.step_env(scripted_acts.get(li))
            due = min(st.due for st in m.sides)
            while m.game.step_count < due and not m.game.done:
                m.game.step_env(None)
            if m.game.done:
                results[idx] = m.result()
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
    against itself scores exactly 0.5; ``n_games`` must therefore be a
    positive even count. ``counts`` sums each agent's ``MatchResult.counts``
    over its games.
    """
    if n_games < 1 or n_games % 2:
        raise ValueError(f"n_games must be a positive even count (mirrored pairs), "
                         f"got {n_games}")
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
    counts = {"a": Counter(), "b": Counter()}
    for r in results:
        a_side = 1 if r.job.tag == "swapped" else 0
        points += r.points(a_side)
        draws += r.winner is None
        counts["a"].update(r.counts[a_side])
        counts["b"].update(r.counts[1 - a_side])
    lo, hi = wilson_interval(points, n_games)
    return {"win_rate": points / n_games, "points": points, "n": n_games,
            "draws": draws, "ci95": (lo, hi),
            "counts": {agent: dict(c) for agent, c in counts.items()}}
