"""JSON-lines replay logs: one event per line, plus a header line.

A replay holds every event the engine emitted; "action" events are enough to
re-drive the simulation, and the replayer verifies the regenerated event
stream matches the recorded one bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

from .engine import Game
from .types import StructuredAction


class ReplayError(ValueError):
    pass


def write_replay(path, game: Game, meta: dict | None = None) -> None:
    if not game.done:
        raise ReplayError("refusing to write a replay for an unfinished game")
    if not game.record_events:
        raise ReplayError("refusing to write a replay for a game played without "
                          "recording events")
    header = {
        "format": "gridleague-replay-v1",
        "seed": game.seed,
        "variant": game.variant,
        "max_steps": game.max_steps,
        "winner": game.outcome.winner,
        "end_step": game.outcome.end_step,
    }
    if meta:
        header["meta"] = meta
    path = Path(path)
    with path.open("w") as f:
        f.write(json.dumps(header) + "\n")
        for ev in game.events:
            f.write(json.dumps(ev) + "\n")


def _json_line(path, lineno: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReplayError(f"{path}: line {lineno}: broken JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ReplayError(f"{path}: line {lineno}: not a JSON object")
    return obj


def read_replay(path):
    """Returns (header dict, list of event dicts).

    A line that is not a JSON object raises ReplayError naming the file and
    the 1-based line; so does a replay whose last event is not the ``end``
    event at the header's ``end_step`` (a file cut at a line boundary).
    """
    path = Path(path)
    with path.open() as f:
        lines = f.read().splitlines()
    if not lines:
        raise ReplayError(f"{path}: empty replay")
    header = _json_line(path, 1, lines[0])
    if header.get("format") != "gridleague-replay-v1":
        raise ReplayError(f"{path}: not a replay file")
    events = [_json_line(path, i, ln) for i, ln in enumerate(lines[1:], start=2)
              if ln.strip()]
    last = events[-1] if events else {}
    if last.get("kind") != "end" or last.get("step") != header.get("end_step"):
        raise ReplayError(f"{path}: line {len(lines)}: truncated replay (last event is "
                          f"not 'end' at step {header.get('end_step')})")
    return header, events


def replay_actions(events) -> dict[int, dict[int, StructuredAction]]:
    """Step -> player -> action, reconstructed from the event stream."""
    schedule: dict[int, dict[int, StructuredAction]] = {}
    for ev in events:
        if ev["kind"] != "action":
            continue
        step = ev["step"]
        schedule.setdefault(step, {})[ev["player"]] = \
            StructuredAction.from_dict(ev["payload"]["action"])
    return schedule


def rerun(header: dict, events, on_decision=None) -> Game:
    """Re-drive a fresh engine with the recorded action stream.

    ``on_decision(step, player, obs, action)`` fires for every recorded
    action with the observation the actor saw.
    """
    game = Game(header["seed"], header["variant"], max_steps=header["max_steps"])
    schedule = replay_actions(events)
    while not game.done:
        acts = schedule.get(game.step_count)
        if acts:
            # resolve slots against fresh observations, as the original did
            for p in sorted(acts):
                obs = game.observe(p)
                if on_decision is not None:
                    on_decision(game.step_count, p, obs, acts[p])
        game.step_env(acts)
    return game


def verify_replay(path) -> bool:
    """Re-simulate and compare the full event stream; raises on divergence."""
    header, events = read_replay(path)
    game = rerun(header, events)
    if game.events != events:
        for i, (a, b) in enumerate(zip(game.events, events)):
            if a != b:
                raise ReplayError(f"{path}: divergence at event {i}: {a} != {b}")
        raise ReplayError(f"{path}: event count mismatch "
                          f"({len(game.events)} regenerated vs {len(events)} recorded)")
    if game.outcome.winner != header["winner"] or game.outcome.end_step != header["end_step"]:
        raise ReplayError(f"{path}: outcome mismatch")
    return True
