"""Golden corpus: SHA-256 digests of the engine's event streams and observations.

The corpus is every unordered pair of distinct archetypes on every map
variant, plus one game of seeded random legal actions per variant (these
reach masks the scripts never use, such as STOP and MOVE by workers), all cut
at STEPS. FULL_GOLDEN adds the six archetype pairs on FULL_VARIANT played to
the end (at most MAX_STEPS): the late game of sieges, expansions, patches
running dry and bases falling. A rewrite of the engine that means to play the
same game must reproduce every digest bit for bit; a change that means to
alter the game updates GOLDEN and says why. Python's ``hash`` is salted per
process, hence SHA-256.

Print every digest of the current source (to record a new corpus):

    PYTHONPATH=src python tests/test_engine_golden.py
"""

import hashlib
import itertools
import json

import numpy as np
from _helpers import random_legal_action

from gridleague.env import ARCHETYPES, Game, ScriptedPolicy, constants as C

STEPS = 300
OBS_FIELDS = ("scalar", "spatial", "unit_type", "unit_cont", "unit_mask", "slot_uid",
              "action_mask", "select_mask", "target_mask", "position_mask")

# name -> (event-stream digest, observation digest)
GOLDEN = {
    "catalyst_toy/RUSH-ECON": (
        "4a439a7499904c86b062ebab47a77a59e5c4a9f6c808a7b07d8de88a94d5e727",
        "00f7a90452293479fb5120dbedaa8f37e5530c1baa3e4b9a8f7bc2cbc836568c"),
    "catalyst_toy/RUSH-BALANCED": (
        "dc479bbac2704c1222ab733cfc10bc7f03492c7bd777d37b8b8979c0527570fc",
        "11ee44b535a99e76df31ed51071c48568a544644cd5ada2527900835ec5336d0"),
    "catalyst_toy/RUSH-TURTLE": (
        "f834dfb9ae4e52b3acee97c927f21a2429887fe6ce4ca6f20d9d80f90acb7eb3",
        "0b40d066ffb7d2c96935533a0eb75e6dbfd1018366af31a0bfaf6be06f0dc250"),
    "catalyst_toy/ECON-BALANCED": (
        "f5fa28fc404ffc66a3a29c15a6884704c6b75f058d575e81dff363e1bb4ccf99",
        "9a2f9e5416f94e6bdb812a1df1bfe965cebbe4ba6bba4a586c9507b50a60d3ac"),
    "catalyst_toy/ECON-TURTLE": (
        "3ba6afb22ce70c942e9696f62f5da505af421531bc527d2824695c1b4f061c72",
        "b64b1ae47649bd49a8c736e1c271f24df353c3bfbd3057efd3a665948a16f0cd"),
    "catalyst_toy/BALANCED-TURTLE": (
        "156113a3d8ec32793f8b6c48d11266b6a17490d254cb893c8d2cb5a2837f2a25",
        "eaf522d4d0cf4911819e21a399a5abf467ff38248a17fd8d791d9a0498f9172f"),
    "catalyst_toy/random": (
        "1cfd0e4affdecb06f80415ed549dafd71670a61a092ab4269ad476ad6bc156d2",
        "c8351ce6b7787c0856724d39b747bad4a85e45462a9d94f0a3b6469a38b95916"),
    "kairos_toy/RUSH-ECON": (
        "4e1d5f8dc16cb8b49a56c570858f580cc35054ef2c39409b09dde0295668fb6d",
        "964ea73a1edfa62dfa73b9ebd6ced32f6f5389e2158d841b63ec2d0d2d41be3e"),
    "kairos_toy/RUSH-BALANCED": (
        "6cc88c5f9b8b8cda49e9fe8e80215b8c20214c8ae9472df022a3f412ae51e3f6",
        "28df3cedd6449e2f99d2f43722f07492c7196e7f7c9691fd7e7fe695c18f9b83"),
    "kairos_toy/RUSH-TURTLE": (
        "9fce49e5515de6aa9dc7b16d82c8a411ecab2e2bfa610b33b177c09794e5825a",
        "4b0f890b8542e3fb885f5f6e5c53d5b3c03c87fd44e942659029fac84f1dce38"),
    "kairos_toy/ECON-BALANCED": (
        "f95fd9c0f9ee88ea601fcbc1b0f24fd344e653e48f11b20c299110a9fa800961",
        "8ab71631acc9e98b9518794d1b24aac291ca9a5c2cbe0570a2d0cd43f0d8b351"),
    "kairos_toy/ECON-TURTLE": (
        "e301809e9196a054a6243ba082b92ac176be5e1358139e9f65831d595bf5cf12",
        "1bd103239dd341a977f02f986005bec99bb294bb5de775f192177febba28e629"),
    "kairos_toy/BALANCED-TURTLE": (
        "ea0e8e089478321ab031aeea9d4dfcf007b030c1dfedb5d9ccfa699f62e484a0",
        "b5bd0850b2679d9503ee737b8b38ca980a18b8ca86fe9860c82efdab631049c3"),
    "kairos_toy/random": (
        "1bb53fb0340842e2d26465a5733dc057b037303a010ad94a220ebb87ae513036",
        "16e3060551aa4535d8af29cdf100bd3e7cae167516fde6b16f4151325471311e"),
    "triton_toy/RUSH-ECON": (
        "9b85ced5a21e17cb7ad214d2c325bdc589ad4c38e6a5044e09dd6a568419e98d",
        "5bade6c3b9563960ee86d071a190a43dd7e0a9c5f3e9ab2f3bcfa3d811b9bdbc"),
    "triton_toy/RUSH-BALANCED": (
        "000b0a7dac8fae3a0846540402c3d6a69dac3e121be4a29a8f967fa7be600831",
        "6410db2bfa1a03591a1ea78b4adf5cb1ec407758fceed9e9565fb06fdde684c5"),
    "triton_toy/RUSH-TURTLE": (
        "8e3f17f332c9d894f5d9f3973e241edb14e10955e190205208c72be83226e063",
        "5fe3b8d263dddaf375f3aee6c6fe817ed6f916057da6f0c5e2a8dec19eede998"),
    "triton_toy/ECON-BALANCED": (
        "c80a9f946142e3cbe7d738fa122483c96e273aaebaa3f428f5aa35b44921b770",
        "b4147d75c134d29441c308ad4bb90f6b92f5aca3c30da62250f561f27794ef08"),
    "triton_toy/ECON-TURTLE": (
        "39b08f57fccf6d458c9365a17e5373f9c5e1978dcac6dbb3401b3084e0ea0d06",
        "75558c2fa6d5de34c8c6c38d6e32a7997e1915cd7e27eadb062de451a361489e"),
    "triton_toy/BALANCED-TURTLE": (
        "b922f7befad4ade1e2e7d0cf304cc43e0ae31e6a42c21040e427e4a18efff308",
        "30c882a5adf96af767608e3bc37db385abc53a9e22cee6f39dfef94135022d5a"),
    "triton_toy/random": (
        "6fa63a4e6ee113829dcf794c7ac30ac2e4cc1e0bcd9b10a8304e73ad15cee76d",
        "d533079c9db15032e688014673f53f8d04698f06f65ece05d82d5727bcbb5189"),
}


FULL_VARIANT = "triton_toy"
FULL_SEED0 = 100

# full-length games: name -> (event-stream digest, observation digest)
FULL_GOLDEN = {
    "triton_toy/RUSH-ECON/full": (
        "65293e5b0c1a494c932ce0db82566df5802fd591c360e6a21139a327ae2ba101",
        "88d3eaf49db9b2f0be615f79b3ece41f1be212398d45563035d4ec7f17ef3026"),
    "triton_toy/RUSH-BALANCED/full": (
        "170773aa9b5c2773096427f275aca7375e907c57fda85156338941d854f774a4",
        "75fc25ed409443fa82d56b11b1ddc0a651eabf9fbd8d5bbc40e642482963d9a2"),
    "triton_toy/RUSH-TURTLE/full": (
        "e3f98a7b17fd7f855349064e6f955b405be6ad65a6aa1d4831493b0c71c28f67",
        "16447c4b30e71bbff8b749d79238c4678534efe4df64ab1d4843d2d5bcdd4945"),
    "triton_toy/ECON-BALANCED/full": (
        "2fdb4e0d274dff21f3f3497cf4bbba3cd831491eeec1b97e596162dfa374f40c",
        "fbc19aeaf34cf960921ee5643c7b98877158056f58d448926858f5b8f1e36f3d"),
    "triton_toy/ECON-TURTLE/full": (
        "38c8cc47c24ac429d2d7f72ecf81ab3640568a2139f867dbde27dc54952fe55a",
        "4c3df47f26fb457c8d1fe35fd10c5e70d3dc7faef27cb39f2cfc804867f333b7"),
    "triton_toy/BALANCED-TURTLE/full": (
        "d955e6e421572560fdb0fb5f1c5aa533226a64c4a5fd3285d72661ae15542692",
        "1c86b6dad293ddd337c6f7ecdee68fd3ea7f2909627c6c7c3465c88461a7b70e"),
}


def _corpus():
    for variant in sorted(C.MAP_VARIANTS):
        for a0, a1 in itertools.combinations(ARCHETYPES, 2):
            yield f"{variant}/{a0}-{a1}", variant, (a0, a1)
        yield f"{variant}/random", variant, None


def _update(digest, obs) -> None:
    digest.update(np.array([obs.player, obs.step], dtype="<i8").tobytes())
    for name in OBS_FIELDS:
        arr = np.ascontiguousarray(getattr(obs, name))
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        digest.update(arr.tobytes())


def _full_corpus():
    for k, (a0, a1) in enumerate(itertools.combinations(ARCHETYPES, 2)):
        yield f"{FULL_VARIANT}/{a0}-{a1}/full", FULL_SEED0 + k, (a0, a1)


def _play(seed: int, variant: str, archetypes, steps: int = STEPS):
    """One game to ``steps``; returns (game, event digest, observation digest)."""
    game = Game(seed, variant, max_steps=steps)
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, side])) for side in (0, 1)]
    if archetypes is None:
        deciders = [lambda obs, rng=rng: random_legal_action(obs, rng) for rng in rngs]
    else:
        deciders = [ScriptedPolicy(a, rng).act for a, rng in zip(archetypes, rngs)]
    seen = hashlib.sha256()
    due = [0, 0]
    while not game.done:
        acts = {}
        for p in (0, 1):
            if game.step_count >= due[p]:
                obs = game.observe(p)
                _update(seen, obs)
                acts[p] = deciders[p](obs)
                due[p] = game.step_count + acts[p].delay
        game.step_env(acts)
        # the engine iterates units in dict order and relies on it being uid order
        assert list(game.units) == sorted(game.units)
    events = hashlib.sha256(json.dumps(game.events, sort_keys=True).encode()).hexdigest()
    return game, events, seen.hexdigest()


def test_engine_reproduces_golden_corpus():
    digests, kinds = {}, set()
    for seed, (name, variant, archetypes) in enumerate(_corpus()):
        game, events, seen = _play(seed, variant, archetypes)
        digests[name] = (events, seen)
        kinds.update(e["kind"] for e in game.events)
    assert {"kill", "deposit", "build_start", "construct", "end"} <= kinds
    changed = sorted(name for name in digests if digests[name] != GOLDEN.get(name))
    assert not changed, {name: digests[name] for name in changed}


def test_engine_reproduces_full_length_games():
    digests, dry, last = {}, True, 0
    for name, seed, archetypes in _full_corpus():
        game, events, seen = _play(seed, FULL_VARIANT, archetypes, C.MAX_STEPS)
        digests[name] = (events, seen)
        dry &= all(u.remaining == 0 for u in game.units.values() if u.type == C.MINERAL)
        last = max(last, game.step_count)
    # well past STEPS, and harvesting meets patches that run dry
    assert dry and last > 1000
    changed = sorted(name for name in digests if digests[name] != FULL_GOLDEN.get(name))
    assert not changed, {name: digests[name] for name in changed}


if __name__ == "__main__":
    tables = {"GOLDEN": [(name, seed, variant, archetypes, STEPS)
                         for seed, (name, variant, archetypes) in enumerate(_corpus())],
              "FULL_GOLDEN": [(name, seed, FULL_VARIANT, archetypes, C.MAX_STEPS)
                              for name, seed, archetypes in _full_corpus()]}
    for table, games in tables.items():
        print(f"{table} = {{")
        for name, *game in games:
            _, events, seen = _play(*game)
            print(f'    "{name}": (\n        "{events}",\n        "{seen}"),')
        print("}")
