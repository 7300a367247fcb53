"""Broken replays and dataset indexes fail with the loader's own errors."""

import json

import pytest

from gridleague.env import constants as C
from gridleague.env.replay import ReplayError, read_replay, write_replay
from gridleague.env.script import play_scripted_match
from gridleague.imitation import WindowLoader, generate_dataset
from gridleague.imitation.dataset import load_index, load_trajectory


@pytest.fixture
def replay(tmp_path):
    path = tmp_path / "game.jsonl"
    write_replay(path, play_scripted_match("RUSH", "ECON", 3, max_steps=30))
    return path


def test_truncation_at_every_line_boundary(replay, tmp_path):
    lines = replay.read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    for k in range(len(lines)):
        cut.write_text("".join(lines[:k]))
        if k == 0:
            with pytest.raises(ReplayError, match="empty replay"):
                read_replay(cut)
            continue
        with pytest.raises(ReplayError, match=f"{cut}: line {k}: truncated replay"):
            read_replay(cut)
    assert read_replay(replay)[1][-1]["kind"] == "end"


def test_replay_of_unrecorded_game_refused(tmp_path):
    game = play_scripted_match("RUSH", "ECON", 3, max_steps=30, record_events=False)
    with pytest.raises(ReplayError, match="without recording events"):
        write_replay(tmp_path / "game.jsonl", game)


@pytest.mark.parametrize("line", [1, 5])
def test_truncation_mid_line_names_file_and_line(replay, tmp_path, line):
    lines = replay.read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[: line - 1]) + lines[line - 1][: len(lines[line - 1]) // 2])
    with pytest.raises(ReplayError, match=f"{cut}: line {line}: broken JSON") as info:
        read_replay(cut)
    assert not isinstance(info.value, json.JSONDecodeError)


def test_event_line_must_be_an_object(replay):
    replay.write_text(replay.read_text() + "[1, 2]\n")
    with pytest.raises(ReplayError, match="not a JSON object"):
        read_replay(replay)


def test_broken_index_names_path(tmp_path):
    generate_dataset(tmp_path, n_games=1, seed=1, max_steps=30)
    path = tmp_path / "index.json"
    path.write_text(path.read_text()[:40])
    for load in (load_index, WindowLoader):
        with pytest.raises(ValueError, match="index.json: broken dataset index") as info:
            load(tmp_path)
        assert type(info.value) is ValueError
    path.write_text("[]")
    with pytest.raises(ValueError, match="not a dataset index"):
        load_index(tmp_path)



GOOD = {"file": "game.jsonl", "kept_sides": [0, 1], "archetypes": ["RUSH", "ECON"],
        "end_step": 40}


def _without(key):
    return {k: v for k, v in GOOD.items() if k != key}


@pytest.mark.parametrize("games,problem", [
    (5, "'games' is not a list"),
    ([GOOD, "game.jsonl"], "not an object"),
    ([GOOD, _without("file")], "'file'"),
    ([GOOD, {**GOOD, "file": 3}], "'file'"),
    ([GOOD, _without("kept_sides")], "'kept_sides'"),
    ([GOOD, {**GOOD, "kept_sides": [2]}], "'kept_sides'"),
    ([GOOD, {**GOOD, "kept_sides": 0}], "'kept_sides'"),
    ([GOOD, {**GOOD, "archetypes": ["RUSH"]}], "'archetypes'"),
    ([GOOD, _without("end_step")], "'end_step'"),
    ([GOOD, {**GOOD, "end_step": 40.0}], "'end_step'"),
    ([GOOD, {**GOOD, "end_step": -1}], "'end_step'"),
], ids=["games_not_list", "entry_not_object", "no_file", "file_not_str", "no_kept_sides",
        "side_2", "sides_not_list", "one_archetype", "no_end_step", "float_end_step",
        "negative_end_step"])
def test_malformed_index_entry_names_path_and_entry(tmp_path, games, problem):
    path = tmp_path / "index.json"
    path.write_text(json.dumps({"format": "gridleague-dataset-v1", "games": games}))
    where = "" if problem.startswith("'games'") else r"games\[1\]: "
    for load in (load_index, WindowLoader):
        with pytest.raises(ValueError, match=f"index.json: {where}{problem}") as info:
            load(tmp_path)
        assert type(info.value) is ValueError


def _action(e) -> dict:
    return e["payload"]["action"]


# (line to edit: "header" or the first event of this kind, edit, message)
BAD_REPLAYS = {
    "header_no_seed": ("header", lambda h: h.pop("seed"), "header 'seed' is not an int"),
    "header_str_max_steps": ("header", lambda h: h.update(max_steps="60"), "header 'max_steps'"),
    "header_float_end_step": ("header", lambda h: h.update(end_step=float(h["end_step"])),
                              "header 'end_step'"),
    "header_unknown_map": ("header", lambda h: h.update(variant="atlantis"),
                           "header 'variant' 'atlantis' is not a known map"),
    "no_payload": ("action", lambda e: e.pop("payload"), "action event 'payload' is not an object"),
    "no_action": ("action", lambda e: e["payload"].pop("action"), "no 'action' object"),
    "str_action_id": ("action", lambda e: _action(e).update(action_id="x"), "'action_id' is 'x'"),
    "player_9": ("action", lambda e: e.update(player=9), "'player' 9 is not a player"),
    "neutral_actor": ("action", lambda e: e.update(player=-1), "'player' -1 is not a player"),
    "int_selected_units": ("action", lambda e: _action(e).update(selected_units=5),
                           "'selected_units' is not a list of ints"),
    "null_delay": ("action", lambda e: _action(e).update(delay=None), "'delay' is None"),
    "str_target_unit": ("action", lambda e: _action(e).update(target_unit="x"),
                        "'target_unit' is 'x'"),
    "str_step": ("action", lambda e: e.update(step="0"), "'step' '0' is not an int >= 0"),
    "int_kind": ("action", lambda e: e.update(kind=5), "'kind' 5 is not a string"),
    "negative_step": ("deposit", lambda e: e.update(step=-1), "'step' -1 is not an int >= 0"),
    "construct_mineral": ("construct", lambda e: e["payload"].update(type=C.MINERAL),
                          "construct 'type' 7 is not a constructible type"),
    "construct_str_type": ("construct", lambda e: e["payload"].update(type="0"),
                           "construct 'type' '0'"),
    "list_payload": ("end", lambda e: e.update(payload=[]), "end event 'payload' is not an object"),
    "player_2": ("end", lambda e: e.update(player=2), "'player' 2 is not a player"),
}


@pytest.mark.parametrize("where,edit,message", BAD_REPLAYS.values(), ids=BAD_REPLAYS.keys())
def test_malformed_replay_names_file_and_line(tmp_path, where, edit, message):
    path = tmp_path / "game.jsonl"
    write_replay(path, play_scripted_match("RUSH", "ECON", 3, max_steps=60))
    lines = path.read_text().splitlines()
    k = 0 if where == "header" else next(
        i for i, ln in enumerate(lines) if i and json.loads(ln)["kind"] == where)
    obj = json.loads(lines[k])
    edit(obj)
    lines[k] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    entry = {"file": path.name, "archetypes": ["RUSH", "ECON"]}
    with pytest.raises(ReplayError, match=f"{path}: line {k + 1}: .*{message}"):
        load_trajectory(tmp_path, entry, (0,))
