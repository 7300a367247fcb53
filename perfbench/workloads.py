"""The benchmark's three workloads, all closed loops in one process.

A workload has a set-up step and a unit of work. A run repeats the same unit,
on the same generated inputs, until its time is up. Every repeat must give
identical outputs, and rates are medians over the repeats.

- scripted: a round-robin of the four scripted archetypes over the three map
  variants. The engine and the scripts do all the work; the net is idle.
- selfplay: one network plays itself through the batched match runner.
  No-grad inference at about 8 rows per step does most of the work.
- bc: behaviour cloning on a small scripted dataset. The only workload with
  replay re-simulation, recurrent-state annotation, backward and Adam, and
  it runs the net at 256 rows with grad.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gridleague import match
from gridleague import tensor as T
from gridleague.env import (ARCHETYPES, ReplayError, constants as C, play_scripted_match,
                            verify_replay, write_replay)
from gridleague.imitation import BCConfig, BCTrainer, WindowLoader, bc_loss, generate_dataset
from gridleague.net import NetConfig, PolicyNet
from gridleague.tensor import NumericError

WINDOW = 16
NET_SEED = 0          # fixed init: a workload's seed changes its inputs, not the net
# The bc dataset is TURTLE mirror matches: one archetype keeps the batches per
# macro-batch fixed, and TURTLE rarely meets the enemy within 600 steps, so
# the cropped batch sizes, and with them the cost of a step, vary little
# from seed to seed.
DATASET_ARCHETYPE = "TURTLE"

SIZES = {
    "full": {
        "scripted": {"pairs": 6, "variants": 3, "max_steps": C.MAX_STEPS},
        "selfplay": {"games": 32, "max_steps": 300},
        "bc": {"games": 6, "max_steps": 600, "games_per_macrobatch": 4,
               "macrobatches": 2, "batch_windows": 16},
    },
    # smallest inputs on which every check still means something
    "quick": {
        "scripted": {"pairs": 1, "variants": 2, "max_steps": 150},
        "selfplay": {"games": 4, "max_steps": 40},
        "bc": {"games": 2, "max_steps": 250, "games_per_macrobatch": 2,
               "macrobatches": 1, "batch_windows": 4},
    },
}


@dataclass
class Unit:
    """One unit of work: its timed seconds, its output digest and its counts."""
    seconds: float
    digest: str
    env_steps: int
    decisions: int
    windows: int
    attempted: int
    failed: int
    counts: dict = field(default_factory=dict)


def digest_events(games) -> str:
    h = hashlib.sha256()
    for g in games:
        h.update(json.dumps(g.events, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def event_counts(games) -> tuple[int, int, int]:
    """Actions, illegal actions, and the 16-decision windows that the BC
    loader would cut from every side of these games."""
    per_side: dict = {}
    fails = 0
    for gi, g in enumerate(games):
        for ev in g.events:
            if ev["kind"] == "action":
                key = (gi, ev["player"])
                per_side[key] = per_side.get(key, 0) + 1
            fails += ev["kind"] == "illegal_action"
    windows = sum(math.ceil(n / WINDOW) for n in per_side.values())
    return sum(per_side.values()), fails, windows


def default_net() -> PolicyNet:
    return PolicyNet(NetConfig(), np.random.default_rng(NET_SEED), dtype=np.float32)


def replay_problems(game, work_dir: Path) -> list[str]:
    """The game's replay must re-simulate to the identical event stream."""
    path = work_dir / "check.jsonl"
    write_replay(path, game)
    try:
        verify_replay(path)
    except ReplayError as exc:
        return [f"replay does not re-simulate: {exc}"]
    return []


class Scripted:
    name = "scripted"

    def __init__(self, seed: int, size: dict, work_dir: Path):
        self.seed, self.size, self.work_dir = seed, size, work_dir

    def setup(self) -> None:
        s = self.size
        pairs = [(a, b) for i, a in enumerate(ARCHETYPES) for b in ARCHETYPES[i + 1:]]
        variants = sorted(C.MAP_VARIANTS)[: s["variants"]]
        self.schedule = []
        for k, (a, b) in enumerate(pairs[: s["pairs"]]):
            for v, variant in enumerate(variants):
                game_seed = int(np.random.default_rng([self.seed, k, v]).integers(0, 2**31))
                sides = (a, b) if (k + v) % 2 == 0 else (b, a)
                self.schedule.append((sides, game_seed, variant))

    def unit(self) -> Unit:
        t0 = time.perf_counter()
        games = [play_scripted_match(a0, a1, game_seed, variant,
                                     max_steps=self.size["max_steps"])
                 for (a0, a1), game_seed, variant in self.schedule]
        seconds = time.perf_counter() - t0
        self.last = games
        acts, fails, windows = event_counts(games)
        return Unit(seconds=seconds, digest=digest_events(games),
                    env_steps=sum(g.step_count for g in games), decisions=acts,
                    windows=windows, attempted=acts, failed=fails)

    def finish(self, units: list[Unit]) -> tuple[dict, list[str]]:
        problems = [f"game {i} did not end" for i, g in enumerate(self.last)
                    if not g.done or g.outcome is None]
        return {}, problems + replay_problems(self.last[0], self.work_dir)


class SelfPlay:
    name = "selfplay"

    def __init__(self, seed: int, size: dict, work_dir: Path):
        self.seed, self.size, self.work_dir = seed, size, work_dir

    def setup(self) -> None:
        agent = match.NetAgent(default_net(), mode="sample")
        variants = sorted(C.MAP_VARIANTS)
        rng = np.random.default_rng([self.seed, 1])
        self.jobs = []
        for i in range(self.size["games"] // 2):
            game_seed = int(rng.integers(0, 2**31))
            for tag in ("direct", "swapped"):
                self.jobs.append(match.MatchJob(
                    game_seed, variants[i % len(variants)], (agent, agent),
                    max_steps=self.size["max_steps"], record_events=True, tag=tag))

    def unit(self) -> Unit:
        t0 = time.perf_counter()
        results = match.run_matches(self.jobs, parallel=len(self.jobs))
        seconds = time.perf_counter() - t0
        self.last = results
        games = [r.game for r in results]
        acts, fails, windows = event_counts(games)
        return Unit(seconds=seconds, digest=digest_events(games),
                    env_steps=sum(r.end_step for r in results), decisions=acts,
                    windows=windows, attempted=acts, failed=fails)

    def finish(self, units: list[Unit]) -> tuple[dict, list[str]]:
        results = self.last
        points = sum(r.points(1 if r.job.tag == "swapped" else 0) for r in results)
        problems = []
        if points != len(results) / 2:
            problems.append(f"mirrored self-play scored {points} of {len(results)}")
        if any(u.failed for u in units):
            problems.append(f"{sum(u.failed for u in units)} illegal actions")
        return {}, problems + replay_problems(results[0].game, self.work_dir)


class _CountingLoader(WindowLoader):
    """WindowLoader that tallies what each macro-batch re-simulated and cut."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.end_steps = {g["file"]: g["end_step"] for g in self.index["games"]}
        self.tally = {"env_steps": 0, "dataset.decisions": 0, "windows.cut": 0}

    def sample_trajectories(self, k, sides=None):
        trajs = super().sample_trajectories(k, sides)
        for t in trajs:
            self.tally["env_steps"] += self.end_steps[t.game_file]
            self.tally["dataset.decisions"] += len(t.observations)
            self.tally["windows.cut"] += math.ceil(len(t.observations) / self.window)
        return trajs


class BehaviourCloning:
    name = "bc"

    def __init__(self, seed: int, size: dict, work_dir: Path):
        self.seed, self.size, self.work_dir = seed, size, work_dir

    def setup(self) -> None:
        s = self.size
        self.data_dir = Path(tempfile.mkdtemp(prefix="bc-", dir=self.work_dir))
        generate_dataset(self.data_dir, s["games"], seed=self.seed,
                         mix=(DATASET_ARCHETYPE,), max_steps=s["max_steps"])
        self.net = default_net()
        self.init_state = self.net.state_arrays()

    def loader(self, cls=WindowLoader) -> WindowLoader:
        s = self.size
        return cls(self.data_dir, window=WINDOW, batch_windows=s["batch_windows"],
                   games_per_macrobatch=s["games_per_macrobatch"], seed=self.seed)

    def unit(self) -> Unit:
        s = self.size
        self.net.load_state(self.init_state)
        trainer = BCTrainer(self.net, BCConfig(window=WINDOW, batch_windows=s["batch_windows"]))
        loader = self.loader(_CountingLoader)
        losses, norms = [], []
        attempted = failed = windows = decisions = 0
        self.first_batch = None
        t0 = time.perf_counter()
        stream = loader.macrobatches(self.net)
        for _ in range(s["macrobatches"]):
            for batch in next(stream):
                if self.first_batch is None:
                    self.first_batch = batch
                attempted += 1
                try:
                    m = trainer.train_step(batch)
                except NumericError:
                    failed += 1
                    continue
                losses.append(m["loss"])
                norms.append(m["grad_norm"])
                failed += not math.isfinite(m["grad_norm"])
                windows += len(batch)
                decisions += int(sum(w.step_mask.sum() for w in batch))
        seconds = time.perf_counter() - t0
        # a set-up after this unit replaces self.net; finish checks this one
        self.last, self.last_net = losses, self.net
        counts = dict(loader.tally)
        counts["windows.trained"] = windows
        digest = hashlib.sha256(np.array(losses + norms).tobytes()).hexdigest()
        return Unit(seconds=seconds, digest=digest, env_steps=counts.pop("env_steps"),
                    decisions=decisions, windows=windows,
                    attempted=attempted, failed=failed, counts=counts)

    def finish(self, units: list[Unit]) -> tuple[dict, list[str]]:
        losses = self.last
        problems = []
        if any(u.failed for u in units):
            problems.append("a train step had a non-finite loss or grad norm")
        if not losses or not all(math.isfinite(x) for x in losses):
            return {}, problems + [f"losses not finite: {losses}"]
        # One batch's loss swings with its content, so training must lower
        # the loss on the batch it started from.
        with T.no_grad():
            trained = float(bc_loss(self.last_net, self.first_batch)[0].data)
        if not trained < losses[0]:
            problems.append(f"loss on the first batch did not fall: {losses[0]} -> {trained}")
        return {"bc_loss_first": losses[0], "bc_loss_last": losses[-1],
                "bc_loss_first_batch_trained": trained}, problems

    def graph_nodes(self) -> int:
        """Nodes reachable from one BC loss on the first trained batch."""
        batch = next(self.loader().macrobatches(self.net))[0]
        loss = bc_loss(self.net, batch)[0]
        seen, todo = {id(loss)}, [loss]
        while todo:
            for p in todo.pop()._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    todo.append(p)
        return len(seen)


WORKLOADS = {w.name: w for w in (Scripted, SelfPlay, BehaviourCloning)}
