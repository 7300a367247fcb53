"""NetConfig holds only the network's own hyperparameters; its architecture
hash also covers the game sizes the network's shapes and decoding read."""

import dataclasses

from gridleague.net import NetConfig, config

from _helpers import TINY_NET


def test_arch_hash_values_are_pinned():
    assert NetConfig().arch_hash() == 17660169055595715126
    assert TINY_NET.arch_hash() == 6005345125434732143


def test_net_config_has_only_network_fields():
    names = [f.name for f in dataclasses.fields(NetConfig)]
    assert len(names) == 14
    assert not set(names) & set(config._GAME_SIZES)


def test_arch_hash_covers_the_game_sizes(monkeypatch):
    before = NetConfig().arch_hash()
    monkeypatch.setitem(config._GAME_SIZES, "grid", config._GAME_SIZES["grid"] + 1)
    assert NetConfig().arch_hash() != before
