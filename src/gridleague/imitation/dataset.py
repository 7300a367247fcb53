"""Teacher datasets: scripted self-play replays on disk, plus the loader that
re-simulates them into training windows.

A dataset directory holds one replay JSONL per game and an index.json with
tier/outcome metadata. Trajectories are regenerated from the action stream
(the engine is bit-deterministic), so the on-disk size stays tiny.

The loader stores the recurrent state at every window start. It encodes each
sampled trajectory once, as one observation batch, and then runs only the
LSTM core over the encodings; no decoder head runs. One batch holds at most
MAX_STEPS decisions of at most MAX_UNITS slots per group, which bounds the
memory that encoding one trajectory takes.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import tensor as T
from ..env import constants as C
from ..env.replay import read_replay, rerun, write_replay
from ..env.script import ARCHETYPES, play_scripted_match
from ..env.stats import extract_statistic
from ..env.types import Observation, StatisticZ, StructuredAction
from ..net import ObsBatch

INDEX_NAME = "index.json"
TIERS = ("full", "winners")


def _one_game(out_dir: Path, seed: int, i: int, mix, variants, max_steps: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
    a0 = mix[int(rng.integers(0, len(mix)))]
    a1 = mix[int(rng.integers(0, len(mix)))]
    variant = variants[int(rng.integers(0, len(variants)))]
    game_seed = int(rng.integers(0, 2**31))
    game = play_scripted_match(a0, a1, game_seed, variant, max_steps=max_steps)
    fname = f"game_{i:05d}.jsonl"
    write_replay(out_dir / fname, game, meta={"archetypes": [a0, a1]})
    return {
        "file": fname,
        "seed": game_seed,
        "variant": variant,
        "archetypes": [a0, a1],
        "winner": game.outcome.winner,
        "end_step": game.outcome.end_step,
    }


def generate_dataset(out_dir, n_games: int, seed: int, tier: str = "full",
                     mix: tuple[str, ...] = ARCHETYPES,
                     variants: tuple[str, ...] = C.TRAIN_VARIANTS,
                     max_steps: int = C.MAX_STEPS) -> dict:
    """Self-play among archetypes; the winners tier keeps only winning sides."""
    if n_games < 1:
        raise ValueError("n_games must be >= 1")
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}")
    for a in mix:
        if a not in ARCHETYPES:
            raise ValueError(f"unknown archetype {a!r} in mix")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    games = [_one_game(out_dir, seed, i, mix, variants, max_steps) for i in range(n_games)]
    for g in games:
        if tier == "winners":
            g["kept_sides"] = [] if g["winner"] is None else [g["winner"]]
        else:
            g["kept_sides"] = [0, 1]
    index = {
        "format": "gridleague-dataset-v1",
        "seed": seed,
        "tier": tier,
        "mix": list(mix),
        "variants": list(variants),
        "n_games": n_games,
        "games": games,
    }
    (out_dir / INDEX_NAME).write_text(json.dumps(index, indent=1) + "\n")
    return index


def load_index(dataset_dir) -> dict:
    path = Path(dataset_dir) / INDEX_NAME
    try:
        index = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: broken dataset index ({exc})") from exc
    if not isinstance(index, dict) or index.get("format") != "gridleague-dataset-v1":
        raise ValueError(f"{path}: not a dataset index")
    games = index.get("games")
    if not isinstance(games, list):
        raise ValueError(f"{path}: 'games' is not a list")
    for i, entry in enumerate(games):
        problem = _entry_problem(entry)
        if problem:
            raise ValueError(f"{path}: games[{i}]: {problem}")
    return index


def _entry_problem(entry) -> str | None:
    """What the loader cannot read in one index entry, or None."""
    if not isinstance(entry, dict):
        return "not an object"
    if not isinstance(entry.get("file"), str):
        return "'file' is not a string"
    sides = entry.get("kept_sides")
    if not isinstance(sides, list) or not all(type(s) is int and s in (0, 1) for s in sides):
        return "'kept_sides' is not a list of sides 0 and 1"
    names = entry.get("archetypes")
    if not isinstance(names, list) or len(names) != 2 or not all(isinstance(a, str) for a in names):
        return "'archetypes' is not two strings"
    return None


@dataclass
class Trajectory:
    observations: list[Observation]
    actions: list[StructuredAction]
    z: StatisticZ
    archetype: str
    game_file: str
    side: int


def load_trajectory(dataset_dir, entry: dict, sides: Sequence[int]) -> list[Trajectory]:
    """Re-simulate one game once and capture each given side's decisions.

    Returns one Trajectory per side, in the order of ``sides``; the replay is
    read once and ``rerun`` observes every acting player anyway, so a second
    side costs only its list appends.
    """
    header, events = read_replay(Path(dataset_dir) / entry["file"])
    captured = {side: ([], []) for side in sides}

    def hook(step, player, obs, action):
        if player in captured:
            obs_list, act_list = captured[player]
            obs_list.append(obs)
            act_list.append(action)

    rerun(header, events, on_decision=hook, record_events=False)
    return [Trajectory(observations=captured[side][0], actions=captured[side][1],
                       z=extract_statistic(events, side),
                       archetype=entry["archetypes"][side],
                       game_file=entry["file"], side=side)
            for side in sides]


@dataclass
class Window:
    observations: list[Observation]
    actions: list[StructuredAction]
    z: StatisticZ
    step_mask: np.ndarray       # 0 on padding past the episode end
    h0: np.ndarray | None = None
    c0: np.ndarray | None = None


def cut_windows(traj: Trajectory, window: int) -> list[Window]:
    """Fixed-length windows; the terminal-truncated tail is noop-padded and
    masked out of the loss."""
    out = []
    n = len(traj.observations)
    for start in range(0, n, window):
        obs = traj.observations[start : start + window]
        acts = traj.actions[start : start + window]
        mask = np.ones(window, dtype=np.float32)
        if len(obs) < window:
            pad = window - len(obs)
            mask[len(obs):] = 0.0
            obs = obs + [obs[-1]] * pad
            acts = acts + [StructuredAction.noop()] * pad
        out.append(Window(observations=obs, actions=acts, z=traj.z, step_mask=mask))
    return out


class WindowLoader:
    """Streams shuffled teacher-forced windows with stored recurrent states.

    Per macro-batch: sample game sides, re-simulate each sampled game once for
    all its sampled sides, record the current net's state at every window
    start, then shuffle windows into training batches.
    States come from encode-once annotation (no grad): each trajectory's
    observations are encoded as one batch, and only the LSTM core recurs over
    the padded time-major block of all trajectories. Encoding one trajectory
    holds at most MAX_STEPS rows of at most MAX_UNITS slots per group, and the
    block holds MAX_STEPS x games_per_macrobatch encoder rows.
    """

    def __init__(self, dataset_dir, window: int = 16, batch_windows: int = 16,
                 games_per_macrobatch: int = 8, seed: int = 0,
                 holdout_fraction: float = 0.05):
        self.dir = Path(dataset_dir)
        self.index = load_index(dataset_dir)
        self.window = window
        self.batch_windows = batch_windows
        self.games_per_macrobatch = games_per_macrobatch
        self.rng = np.random.default_rng(seed)
        sides = []
        for gi, entry in enumerate(self.index["games"]):
            for side in entry["kept_sides"]:
                sides.append((gi, side))
        if not sides:
            raise ValueError(f"{dataset_dir}: dataset has no kept trajectories")
        games = sorted({gi for gi, _ in sides})
        n_hold = max(1, int(len(games) * holdout_fraction)) if holdout_fraction else 0
        hold_games = set(games[-n_hold:]) if n_hold else set()
        self.train_sides = [s for s in sides if s[0] not in hold_games]
        self.holdout_sides = [s for s in sides if s[0] in hold_games]
        if not self.train_sides:
            raise ValueError(f"{dataset_dir}: holding out {n_hold} of {len(games)} games "
                             f"leaves none to train on")

    def sample_trajectories(self, k: int, sides=None) -> list[Trajectory]:
        """k picked game sides, re-simulating each picked game once.

        A side picked twice yields the same Trajectory object twice; the
        result is in pick order.
        """
        pool = sides if sides is not None else self.train_sides
        if not pool:
            raise ValueError(f"{self.dir}: no game sides to sample from")
        picks = [pool[int(self.rng.integers(0, len(pool)))] for _ in range(k)]
        by_game: dict[int, list[int]] = {}
        for gi, side in dict.fromkeys(picks):
            by_game.setdefault(gi, []).append(side)
        loaded = {}
        for gi, game_sides in by_game.items():
            for tr in load_trajectory(self.dir, self.index["games"][gi], game_sides):
                loaded[gi, tr.side] = tr
        return [loaded[pick] for pick in picks]

    def _annotate_states(self, net, trajs: list[Trajectory],
                         windows_per_traj: list[list[Window]]) -> None:
        """No-grad pass that stores h/c at every window start.

        A window start's state depends only on earlier steps, so the last
        window of a trajectory is never encoded, and the zero padding past a
        shorter trajectory's end never reaches a stored state.
        """
        b, w = len(trajs), self.window
        lengths = [(len(ws) - 1) * w for ws in windows_per_traj]
        t = max(lengths, default=0)
        starts = [net.initial_state(b)]
        if t:
            block = np.zeros((t, b, net.cfg.core_input_dim), dtype=net.dtype)
            with T.no_grad():
                for i, (tr, n) in enumerate(zip(trajs, lengths)):
                    if n:
                        batch = ObsBatch(tr.observations[:n], [tr.z] * n)
                        block[:n, i] = net.encode(batch)[0].data
                _, states = net.recur(T.Tensor(block.reshape(t * b, -1)), b, t, starts[0])
            starts += [(h.data, c.data) for h, c in states]
        for i, ws in enumerate(windows_per_traj):
            for k, win in enumerate(ws):
                h, c = starts[k * w]
                win.h0, win.c0 = h[i].copy(), c[i].copy()

    def macrobatches(self, net):
        """Endless stream of batch lists; each inner list is ready to train on."""
        while True:
            trajs = self.sample_trajectories(self.games_per_macrobatch)
            windows_per_traj = [cut_windows(tr, self.window) for tr in trajs]
            self._annotate_states(net, trajs, windows_per_traj)
            wins = [w for ws in windows_per_traj for w in ws]
            order = self.rng.permutation(len(wins))
            batches = []
            for i in range(0, len(wins) - self.batch_windows + 1, self.batch_windows):
                batches.append([wins[j] for j in order[i : i + self.batch_windows]])
            if batches:
                yield batches
