"""JSON-lines replay logs: one event per line, plus a header line.

A replay holds every event the engine emitted; "action" events are enough to
re-drive the simulation, and the replayer verifies the regenerated event
stream matches the recorded one bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import constants as C
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


def _is_int(v) -> bool:
    return type(v) is int       # JSON true/false load as bool, an int subclass


def _header_problem(header: dict) -> str | None:
    if header.get("format") != "gridleague-replay-v1":
        return "not a replay file"
    for key in ("seed", "max_steps", "end_step"):
        if not _is_int(header.get(key)):
            return f"header '{key}' is not an int"
    variant = header.get("variant")
    if not isinstance(variant, str) or variant not in C.MAP_VARIANTS:
        return f"header 'variant' {variant!r} is not a known map"
    return None


# the fields StructuredAction.from_dict reads and the JSON types it accepts;
# only action_id is required
_ACTION_FIELDS = {"action_id": (int,), "delay": (int,), "queued": (int,),
                  "target_unit": (int, type(None)), "target_position": (int, type(None))}


def _action_problem(action) -> str | None:
    """Types only: the engine records illegal actions too."""
    if not isinstance(action, dict):
        return "action payload has no 'action' object"
    if "action_id" not in action:
        return "action has no 'action_id'"
    for key, types in _ACTION_FIELDS.items():
        if key in action and type(action[key]) not in types:
            return f"action '{key}' is {action[key]!r}"
    units = action.get("selected_units", [])
    if not isinstance(units, list) or not all(_is_int(s) for s in units):
        return "action 'selected_units' is not a list of ints"
    return None


def _event_problem(ev: dict) -> str | None:
    step, player, kind, payload = (ev.get(k) for k in ("step", "player", "kind", "payload"))
    if not _is_int(step) or step < 0:
        return f"event 'step' {step!r} is not an int >= 0"
    if not isinstance(kind, str):
        return f"event 'kind' {kind!r} is not a string"
    if not _is_int(player) or player not in ((0, 1) if kind == "action" else (-1, 0, 1)):
        return f"{kind} event 'player' {player!r} is not a player"
    if not isinstance(payload, dict):
        return f"{kind} event 'payload' is not an object"
    if kind == "action":
        return _action_problem(payload.get("action"))
    if kind == "construct":
        t = payload.get("type")
        if not _is_int(t) or not 0 <= t < C.N_CONSTRUCTIBLE:
            return f"construct 'type' {t!r} is not a constructible type"
    return None


def _parse_line(path, lineno: int, line: str, problem) -> dict:
    """One line as a JSON object that ``problem`` (dict -> str | None) accepts."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReplayError(f"{path}: line {lineno}: broken JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ReplayError(f"{path}: line {lineno}: not a JSON object")
    why = problem(obj)
    if why:
        raise ReplayError(f"{path}: line {lineno}: {why}")
    return obj


def read_replay(path):
    """Returns (header dict, list of event dicts).

    Content the loader cannot re-simulate raises ReplayError naming the file
    and the 1-based line: a line that is not a JSON object, a header without
    int ``seed``/``max_steps``/``end_step`` or a known ``variant``, an event
    whose fields have the wrong types, and a replay whose last event is not
    the ``end`` event at the header's ``end_step`` (a file cut at a line
    boundary). A file that is not UTF-8 raises ReplayError naming the byte.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ReplayError(f"{path}: not UTF-8 text (byte {exc.start} is "
                          f"{exc.object[exc.start]:#04x})") from exc
    if not lines:
        raise ReplayError(f"{path}: empty replay")
    header = _parse_line(path, 1, lines[0], _header_problem)
    events = [_parse_line(path, i, ln, _event_problem)
              for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
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


def rerun(header: dict, events, on_decision=None, record_events: bool = True) -> Game:
    """Re-drive a fresh engine with the recorded action stream.

    ``on_decision(step, player, obs, action)`` fires for every recorded
    action with the observation the actor saw. ``record_events`` is passed
    to the fresh ``Game``; the counters count either way.
    """
    game = Game(header["seed"], header["variant"], max_steps=header["max_steps"],
                record_events=record_events)
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
