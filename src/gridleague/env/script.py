"""Scripted teacher archetypes.

Four strategies tuned to cycle at desk scale: RUSH (early raider aggression)
beats ECON (expand, late siege), ECON beats BALANCED (light-infantry mix),
BALANCED beats RUSH. TURTLE sits out the cycle as a defensive foil.

A script is deterministic given (observation stream, rng): per-game parameter
jitter and a small alternative-choice rate give behavior-cloning data its
diversity while keeping each head's modal choice dominant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import constants as C
from .engine import Game, cheby
from .types import Observation, StructuredAction

ARCHETYPES = ("RUSH", "ECON", "BALANCED", "TURTLE")

_BUILD_ACTION = {t: a for a, t in C.BUILD_ACTION_TYPE.items()}
_TRAIN_ACTION = {t: a for a, t in C.TRAIN_ACTION_TYPE.items()}


@dataclass
class _Profile:
    worker_target: int
    build_sequence: tuple[int, ...]
    army_mix: dict[int, float]
    push_size: int
    push_step: int
    peace_delay: int
    war_delay: int = 2
    defend_radius: int = 6
    tech_worker_gate: int = 0      # defer tech until this many workers exist
    prefer_worker_targets: bool = False


_PROFILES = {
    "RUSH": _Profile(worker_target=4, build_sequence=(C.BARRACKS,),
                     army_mix={C.RAIDER: 1.0}, push_size=2, push_step=150,
                     peace_delay=3, prefer_worker_targets=True),
    "ECON": _Profile(worker_target=9, build_sequence=(C.BARRACKS, C.BASE, C.FACTORY),
                     army_mix={C.SIEGE: 1.0}, push_size=6, push_step=950,
                     peace_delay=4, tech_worker_gate=7),
    "BALANCED": _Profile(worker_target=6, build_sequence=(C.BARRACKS,),
                         army_mix={C.LIGHT: 0.8, C.RAIDER: 0.2}, push_size=8,
                         push_step=700, peace_delay=4),
    "TURTLE": _Profile(worker_target=7, build_sequence=(C.BARRACKS, C.FACTORY),
                       army_mix={C.LIGHT: 0.5, C.SIEGE: 0.5}, push_size=10,
                       push_step=1050, peace_delay=4),
}


# A building counts complete for the scripts once its progress feature reads
# 1.0 in float32, the network's view: that is from 1 - 2**-25 up, where
# float32 rounds to 1.0 (a BARRACKS at 29/30 is 0.9999999999999999).
_F32_ONE = 1.0 - 2.0 ** -25


class _View:
    """Convenience indexing of one observation's my/enemy/neutral groups.

    The scripts read the types and features of each group's shown units,
    which fill its leading slots, from the observation's factors: Python
    lists they look up single slots in many times per decision. Whether an
    action may pick a unit is read from the observation's legality factors
    the same way.
    """

    def __init__(self, obs: Observation):
        self.legal = obs.action_mask.tolist()
        self.complete = obs.complete
        self.types, self.cont = obs.types, obs.feats
        self.my_slots, self.enemy_slots, self.neutral_slots = (
            list(range(len(t))) for t in obs.types)

    def selects(self, action: int, slot: int) -> bool:
        """``select_mask[action, slot]``: ``action`` may pick my unit in ``slot``."""
        return (self.legal[action] and self.complete[slot]
                and self.types[0][slot] in C.SELECTABLE[action])

    def my_of_type(self, *types, complete=True):
        mine, cont = self.types[0], self.cont[0]
        return [s for s in self.my_slots
                if mine[s] in types and not (complete and cont[s][3] < _F32_ONE)]

    def pos(self, group: int, slot: int) -> tuple[int, int]:
        f = self.cont[group][slot]
        return int(round(f[0] * C.GRID)), int(round(f[1] * C.GRID))

    def idle(self, group: int, slot: int) -> bool:
        return self.cont[group][slot][6] > 0.5

    def queue_len(self, slot: int) -> float:
        return self.cont[0][slot][7] * 3.0


class ScriptedPolicy:
    """One archetype playing one game; holds per-game jitter, nothing else."""

    def __init__(self, archetype: str, rng: np.random.Generator):
        if archetype not in _PROFILES:
            raise ValueError(f"unknown archetype {archetype!r}")
        self.archetype = archetype
        base = _PROFILES[archetype]
        # draw order: worker extra (RUSH draws it too, and never takes extra
        # workers), push size, push step
        self.p = replace(
            base,
            worker_target=base.worker_target + int(rng.integers(0, 2)) * (archetype != "RUSH"),
            push_size=max(1, base.push_size + int(rng.integers(-1, 2))),
            push_step=int(base.push_step * (1.0 + 0.1 * (rng.random() - 0.5))),
        )
        self.rng = rng
        self.explore = 0.06        # alternative-choice rate per decision
        self._home: tuple[int, int] | None = None

    # ---------------------------------------------------------------- helpers

    def _delay(self, war: bool) -> int:
        return self.p.war_delay if war else self.p.peace_delay

    def _nearest_slot(self, view: _View, group: int, slots, ref: tuple[int, int]):
        return min(slots, key=lambda s: (cheby(*view.pos(group, s), *ref), s))

    def _free_cell_near(self, obs: Observation, ref: tuple[int, int],
                        min_d=1, max_d=5) -> int | None:
        candidates = []
        for cell in np.flatnonzero(obs.free):
            x, y = divmod(int(cell), C.GRID)
            d = cheby(x, y, ref[0], ref[1])
            if min_d <= d <= max_d:
                candidates.append((d, int(cell)))
        if not candidates:
            return None
        # deterministic pick keeps the teacher's position head imitable
        return min(candidates)[1]

    # ---------------------------------------------------------------- decision

    def act(self, obs: Observation) -> StructuredAction:
        view = _View(obs)
        mask = obs.action_mask
        bases = view.my_of_type(C.BASE)
        if self._home is None and bases:
            self._home = view.pos(0, bases[0])
        home = self._home or (C.GRID // 2, C.GRID // 2)
        enemy_home = (C.GRID - 1 - home[0], C.GRID - 1 - home[1])

        action = self._decide(obs, view, mask, home, enemy_home)
        if action is None:
            action = StructuredAction.noop(delay=self._delay(False))
        if self.rng.random() < self.explore:
            alt = self._alternative(obs, view, mask)
            if alt is not None:
                action = alt
        return action

    def _decide(self, obs, view, mask, home, enemy_home) -> StructuredAction | None:
        p = self.p
        military = view.my_of_type(*C.MILITARY_TYPES)
        workers = view.my_of_type(C.WORKER)
        step = obs.step

        # defense: enemies close to any of my buildings
        threats = []
        buildings = [view.pos(0, b) for b in view.my_of_type(*C.BUILDING_TYPES, complete=False)]
        for s in view.enemy_slots:
            ex, ey = view.pos(1, s)
            if any(cheby(ex, ey, bx, by) <= p.defend_radius for bx, by in buildings):
                threats.append(s)
        if threats and military and mask[C.ATTACK]:
            target = self._nearest_slot(view, 1, threats, home)
            sel = [s for s in military if view.selects(C.ATTACK, s)][: C.MAX_SELECTED]
            if sel:
                return StructuredAction(C.ATTACK, delay=self._delay(True), queued=0,
                                        selected_units=sel,
                                        target_unit=C.MAX_UNITS + target)

        # economy: put idle workers on the nearest patch
        # the unit types some legal action may pick
        pickable = {t for a, legal in enumerate(view.legal) if legal
                    for t in C.SELECTABLE.get(a, ())}
        idle_workers = [s for s in workers if view.idle(0, s) and view.complete[s]
                        and view.types[0][s] in pickable]
        if idle_workers and mask[C.HARVEST] and view.neutral_slots:
            patch = self._nearest_slot(view, 2, view.neutral_slots, home)
            sel = [s for s in idle_workers if view.selects(C.HARVEST, s)][: C.MAX_SELECTED]
            if sel:
                return StructuredAction(C.HARVEST, delay=self._delay(False), queued=0,
                                        selected_units=sel,
                                        target_unit=2 * C.MAX_UNITS + patch)

        # worker production up to target
        if len(workers) < p.worker_target and mask[C.TRAIN_WORKER]:
            producers = [s for s in view.my_of_type(C.BASE)
                         if view.selects(C.TRAIN_WORKER, s) and view.queue_len(s) < 1]
            if producers:
                return StructuredAction(C.TRAIN_WORKER, delay=self._delay(False),
                                        queued=1, selected_units=producers[:1])

        # build sequence (greedy-econ archetypes tech only once saturated)
        owned = [view.types[0][s] for s in view.my_slots]
        if len(workers) < p.tech_worker_gate:
            owned = owned + list(p.build_sequence)
        for btype in p.build_sequence:
            have = owned.count(btype) - (1 if btype == C.BASE else 0)
            if have > 0:
                continue
            action = _BUILD_ACTION[btype]
            if not mask[action]:
                break  # wait for resources/tech before later entries
            builder = [s for s in workers if view.selects(action, s)]
            cell = self._free_cell_near(obs, home, 1, 5)
            if builder and cell is not None:
                return StructuredAction(action, delay=self._delay(False), queued=0,
                                        selected_units=[builder[0]],
                                        target_position=cell)
            break

        # army production toward the mix
        army_counts = {t: len(view.my_of_type(t)) for t in C.MILITARY_TYPES}
        total = max(1, sum(army_counts.values()))
        best_action, best_deficit = None, -1e9
        for t, share in p.army_mix.items():
            act = _TRAIN_ACTION[t]
            if not mask[act]:
                continue
            deficit = share - army_counts[t] / total
            if deficit > best_deficit:
                best_action, best_deficit = act, deficit
        if best_action is not None:
            producers = [s for s in view.my_slots
                         if view.selects(best_action, s) and view.queue_len(s) < 2]
            if producers:
                return StructuredAction(best_action, delay=self._delay(False),
                                        queued=1, selected_units=[producers[0]])

        # push when the army is ready or the deadline passed
        army_size = sum(army_counts.values())
        if military and (army_size >= p.push_size or step >= p.push_step):
            xs = [view.pos(0, s) for s in military]
            centroid = (sum(x for x, _ in xs) // len(xs), sum(y for _, y in xs) // len(xs))
            if view.enemy_slots and mask[C.ATTACK]:
                pool = view.enemy_slots
                if p.prefer_worker_targets:
                    workers_only = [s for s in pool if view.types[1][s] == C.WORKER]
                    pool = workers_only or pool
                target = self._nearest_slot(view, 1, pool, centroid)
                sel = [s for s in military if view.selects(C.ATTACK, s)][: C.MAX_SELECTED]
                if sel:
                    return StructuredAction(C.ATTACK, delay=self._delay(True), queued=0,
                                            selected_units=sel,
                                            target_unit=C.MAX_UNITS + target)
            if mask[C.MOVE]:
                sel = [s for s in military if view.selects(C.MOVE, s)][: C.MAX_SELECTED]
                idle_mil = [s for s in sel if view.idle(0, s)]
                if idle_mil:
                    cell = enemy_home[0] * C.GRID + enemy_home[1]
                    return StructuredAction(C.MOVE, delay=self._delay(True), queued=0,
                                            selected_units=idle_mil,
                                            target_position=cell)
        return None

    def _alternative(self, obs, view, mask) -> StructuredAction | None:
        """Occasional second-best choice; keeps teacher data off the razor's edge."""
        choices = []
        if mask[C.NOOP]:
            choices.append(StructuredAction.noop(delay=int(self.rng.integers(1, 6))))
        workers = [s for s in view.my_of_type(C.WORKER) if view.selects(C.HARVEST, s)]
        if workers and mask[C.HARVEST] and view.neutral_slots:
            patch = int(self.rng.choice(view.neutral_slots))
            k = min(len(workers), 1 + int(self.rng.integers(0, 3)))
            choices.append(StructuredAction(
                C.HARVEST, delay=int(self.rng.integers(2, 6)), queued=0,
                selected_units=workers[:k], target_unit=2 * C.MAX_UNITS + patch))
        if not choices:
            return None
        return choices[int(self.rng.integers(0, len(choices)))]


def play_scripted_match(arch0: str, arch1: str, seed: int,
                        variant: str = "triton_toy",
                        max_steps: int = C.MAX_STEPS,
                        record_events: bool = True) -> Game:
    """Run one archetype-vs-archetype game to completion, as one job of
    ``match.run_matches``."""
    from ..match import MatchJob, ScriptedAgent, run_matches   # match imports env

    job = MatchJob(seed, variant, (ScriptedAgent(arch0), ScriptedAgent(arch1)),
                   max_steps=max_steps, record_events=record_events)
    return run_matches([job])[0].game
