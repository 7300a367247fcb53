"""Deterministic two-player grid RTS.

Both players act simultaneously; each env step resolves sub-steps in a fixed
order (move -> attack -> harvest -> produce), so there is no turn-order
asymmetry. Everything iterates in unit-id order: (seed, action sequence)
fully determines a trajectory, bit for bit.

``Game.units`` is always in ascending uid order without sorting: uids only
grow, ``_spawn`` appends, and ``del`` keeps the order of the rest. Code that
spawns while it iterates walks a list fixed before it started, so new units
wait for the next step.

Lookups over units use indexes instead of a scan of every unit per query.

The kept index (``_index``) holds what changes only when a unit appears or
disappears or a building or patch changes state: the complete bases of each
player, the patches with minerals left, the flat free-cell grid (no building
or patch on the cell) and whether any cell is free, the players that own a
base, complete or not, each player's building cells, and, in uid order, the
mobile units, the workers and the producers (both players' buildings and the
workers). ``_spawn``, a death in attack, a building completing in produce and
a patch depleting in harvest drop it, and the next read rebuilds it. So the
index lives across steps, and every observation between two rebuilds shares
one read-only ``free`` array. Each sub-step walks only the list of the units
it acts on: cooldowns, move and attack the mobile units (no other unit has a
cooldown, an order or an attack), harvest the workers, produce the producers
as they were at the start of the sub-step (a spawn drops the index, not the
list, so new units wait for the next step). Harvesters look up where to
deposit and which patch to mine next in it, ``_check_end`` reads who still
owns a base, and producers and ``observe`` read the free grid. Code that
edits ``units`` or a unit's state directly leaves the index stale until its
next rebuild.

Idle military units auto-target from per-player occupied-cell sets, built at
the first such unit of an attack sub-step from the index's building cells and
one pass over the mobile units (units move every step). A unit's range square
rules out most enemies at once; only when it meets the enemy's set is that
player's map from cell to lowest-uid unit built (at most once per sub-step)
and its Chebyshev rings 0..range scanned. Units die only at the end of
attack, after every target is chosen.

A cell set is an int with bit ``x * GRID + y`` set for each cell (x, y) in
it. A player's vision is the union of its units' ``_square``s, and whether
an enemy is seen is one bit of it.

``observe`` stores the factors that determine an observation's unit arrays,
spatial planes and per-action legality masks, not the dense arrays (see
``Observation``). ``_validate``, slot resolution and the scripts read the
factors, so scripted play builds none of them. The action mask depends on a
few facts only (``_action_mask``), so observations with the same facts share
one read-only mask, and the games of one map share one height plane.
"""

from __future__ import annotations

import bisect
import functools
from typing import NamedTuple

import numpy as np

from . import constants as C
from .types import (SELECTABLE_BY_TYPE, MatchOutcome, Observation, Order, PlayerState,
                    StructuredAction, Unit, cell_grid)


def cheby(ax, ay, bx, by) -> int:
    return max(abs(ax - bx), abs(ay - by))


# deterministic spawn ring around a producing building
_RING = sorted(
    [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)]
    + [(dx, dy) for dx in (-2, -1, 0, 1, 2) for dy in (-2, -1, 0, 1, 2) if max(abs(dx), abs(dy)) == 2],
    key=lambda d: (max(abs(d[0]), abs(d[1])), d[1], d[0]),
)

# the offsets at Chebyshev distance r, r = 0..longest attack range
_RINGS = [[(dx, dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)
           if max(abs(dx), abs(dy)) == r] for r in range(max(C.UNIT_RANGE.values()) + 1)]


@functools.lru_cache(maxsize=None)     # at most GRID * GRID entries per radius in use
def _square(r: int, x: int, y: int) -> int:
    """The cells within Chebyshev distance r of (x, y), as a cell set."""
    x0, x1 = max(0, x - r), min(C.GRID, x + r + 1)
    y0, y1 = max(0, y - r), min(C.GRID, y + r + 1)
    row = ((1 << (y1 - y0)) - 1) << y0
    return sum(row << (c * C.GRID) for c in range(x0, x1))


@functools.cache        # one per map variant
def _height_plane(variant: str) -> np.ndarray:
    """Each cell's Chebyshev distance to the nearest patch, over GRID; read-only."""
    layout = C.MAP_VARIANTS[variant]
    xs = np.arange(C.GRID)
    d = np.min([np.maximum(abs(xs[:, None] - px), abs(xs[None, :] - py))
                for px, py in layout["minerals"][0] + layout["minerals"][1]], axis=0)
    h = (d / C.GRID).astype(np.float32)
    h.flags.writeable = False       # every observation of every such game shares it
    return h


_MINERAL_COSTS = sorted(set(C.MINERAL_COST.values()))
_SUPPLY_COSTS = sorted(set(C.SUPPLY_COST.values()))


def _covered(costs: list[int], amount: int) -> int:
    """The largest of the ascending ``costs`` that ``amount`` covers, or 0."""
    i = bisect.bisect_right(costs, amount)
    return costs[i - 1] if i else 0


@functools.lru_cache(maxsize=4096)
def _action_mask(pickable: int, owned: int, enemy: bool, patch: bool, cap_room: bool,
                 any_free: bool, afford: int, fits: int) -> np.ndarray:
    """The action mask of one legality state, read-only and shared.

    ``pickable`` and ``owned`` are type bitmasks (bit t for type t) of the
    complete shown units and the complete owned units; ``afford`` and
    ``fits`` are the largest mineral and supply costs (see ``_covered``) that
    the minerals and the supply room cover.
    """
    # an action needs a unit that may carry it out, and then its own conditions
    legal = [any(pickable >> t & 1 for t in C.SELECTABLE.get(a, ())) for a in range(C.N_ACTIONS)]
    legal[C.NOOP] = True
    legal[C.ATTACK] = legal[C.ATTACK] and enemy
    legal[C.HARVEST] = legal[C.HARVEST] and patch
    for a, btype in C.BUILD_ACTION_TYPE.items():
        req = C.TECH_REQUIREMENT[btype]
        legal[a] = (legal[a] and cap_room and C.MINERAL_COST[btype] <= afford
                    and (req is None or owned >> req & 1) and any_free)
    for a, ttype in C.TRAIN_ACTION_TYPE.items():
        legal[a] = (legal[a] and cap_room and C.SUPPLY_COST[ttype] <= fits
                    and C.MINERAL_COST[ttype] <= afford)
    mask = np.array(legal, dtype=bool)
    mask.flags.writeable = False    # observations share it
    return mask


def _features(u: Unit) -> tuple:
    """One unit's UNIT_FEATS continuous features."""
    hp_frac = u.remaining / C.MINERAL_PATCH_AMOUNT if u.type == C.MINERAL \
        else u.hp / C.UNIT_HP.get(u.type, 1)
    idle = 1.0 if (not u.orders and not u.train_queue) else 0.0
    return (u.x / C.GRID, u.y / C.GRID, hp_frac, u.build_progress,
            u.carrying / C.CARRY_AMOUNT, min(u.attack_cd, 5) / 5.0, idle,
            len(u.train_queue) / 3.0)


class _Index(NamedTuple):
    """What changes only on a spawn, a death, a completion or a depletion."""
    bases: tuple[list[Unit], list[Unit]]    # each player's complete bases, uid order
    patches: list[Unit]                     # the patches with minerals left, uid order
    free: np.ndarray                        # (G*G,) bool, read-only: no building or patch
    any_free: bool                          # some cell is free
    based: frozenset[int]                   # the players that own a base, complete or not
    built: tuple[int, int]                  # each player's building cells, as a cell set
    mobile: list[Unit]                      # the units of MOBILE_TYPES, uid order
    workers: list[Unit]                     # uid order
    producers: list[Unit]                   # both players' buildings and the workers, uid order


class Game:
    def __init__(self, seed: int, variant: str = "triton_toy",
                 max_steps: int = C.MAX_STEPS, record_events: bool = True):
        if variant not in C.MAP_VARIANTS:
            raise ValueError(f"unknown map variant {variant!r}; "
                             f"choose from {sorted(C.MAP_VARIANTS)}")
        self.seed = int(seed)
        self.variant = variant
        self.max_steps = max_steps
        self.record_events = record_events
        self.step_count = 0
        self.done = False
        self.outcome: MatchOutcome | None = None
        self.units: dict[int, Unit] = {}
        self.players = (PlayerState(), PlayerState())
        self.events: list[dict] = []
        self.attrition = 0            # minerals carried by workers that died
        self._next_uid = 0
        self._given: list[Observation | None] = [None, None]   # last observe() per player
        self._kept: _Index | None = None        # see _index; None once stale
        self._height = _height_plane(variant)
        self._setup(variant)

    # ------------------------------------------------------------ construction

    def _spawn(self, type_id: int, player: int, x: int, y: int, *,
               progress: float = 1.0, remaining: int = 0) -> Unit:
        u = Unit(uid=self._next_uid, type=type_id, player=player, x=x, y=y,
                 hp=C.UNIT_HP.get(type_id, 1), build_progress=progress,
                 remaining=remaining)
        self._next_uid += 1
        self.units[u.uid] = u
        self._kept = None
        return u

    def _setup(self, variant: str) -> None:
        layout = C.MAP_VARIANTS[variant]
        for patches in layout["minerals"]:
            for px, py in patches:
                self._spawn(C.MINERAL, -1, px, py, remaining=C.MINERAL_PATCH_AMOUNT)
        for p, (bx, by) in enumerate(layout["bases"]):
            self._spawn(C.BASE, p, bx, by)
            sign = 1 if p == 0 else -1   # mirrored spawns keep 180-degree symmetry
            for k in range(C.INITIAL_WORKERS):
                dx, dy = _RING[k]
                self._spawn(C.WORKER, p, min(max(bx + sign * dx, 0), C.GRID - 1),
                            min(max(by + sign * dy, 0), C.GRID - 1))

    # ------------------------------------------------------------ bookkeeping

    def _event(self, player: int, kind: str, payload: dict) -> None:
        if kind == "illegal_action":
            ps = self.players[player]
            if payload.get("reason") == "stale_target":
                ps.stale_targets += 1
            else:
                ps.illegal_actions += 1
        elif kind == "build_dropped":
            self.players[player].builds_dropped += 1
        if self.record_events:
            self.events.append({"step": self.step_count, "player": player,
                                "kind": kind, "payload": payload})

    def player_units(self, player: int) -> list[Unit]:
        return [u for u in self.units.values() if u.player == player]

    def entity_count(self, player: int) -> int:
        return sum(1 for u in self.units.values() if u.player == player)

    def _index(self) -> _Index:
        """The kept index, rebuilt first if it is stale."""
        if self._kept is None:
            bases, patches, based, built = ([], []), [], set(), [0, 0]
            mobile, workers, producers = [], [], []
            free = np.ones(C.GRID * C.GRID, dtype=bool)
            for u in self.units.values():
                if u.type in C.MOBILE_TYPES:
                    mobile.append(u)
                    if u.type == C.WORKER:
                        workers.append(u)
                        producers.append(u)
                    continue
                cell = u.x * C.GRID + u.y
                free[cell] = False
                if u.type == C.MINERAL:
                    if u.remaining > 0:
                        patches.append(u)
                    continue
                producers.append(u)
                built[u.player] |= 1 << cell
                if u.type == C.BASE:
                    based.add(u.player)
                    if u.complete:
                        bases[u.player].append(u)
            free.flags.writeable = False    # observations share it
            self._kept = _Index(bases, patches, free, bool(free.any()), frozenset(based),
                                tuple(built), mobile, workers, producers)
        return self._kept

    def _seen(self, player: int) -> int:
        """The cells in ``player``'s vision, as a cell set."""
        seen = 0
        for u in self.units.values():
            if u.player == player:
                seen |= _square(C.VISION[u.type], u.x, u.y)
        return seen

    def visibility(self, player: int) -> np.ndarray:
        return cell_grid(self._seen(player))

    def _groups(self, player: int, seen: int):
        mine, enemy, neutral = [], [], []
        for u in self.units.values():
            if u.player == player:
                mine.append(u)
            elif u.player == -1:
                if u.remaining > 0:
                    neutral.append(u)
            elif seen >> (u.x * C.GRID + u.y) & 1:
                enemy.append(u)
        return mine, enemy, neutral

    # ------------------------------------------------------------ observation

    def observe(self, player: int) -> Observation:
        seen = self._seen(player)
        mine, enemy, neutral = self._groups(player, seen)
        index = self._index()

        n = C.MAX_UNITS
        types, feats, uids = [], [], []
        for members in (mine, enemy, neutral):
            shown = members[:n]
            types.append([u.type for u in shown])
            feats.append([_features(u) for u in shown])
            uids.append([u.uid for u in shown])

        # neutral < enemy < mine: a later cell overwrites, so each keeps the largest
        relation = tuple((u.x, u.y, value)
                         for members, value in ((neutral, 0.25), (enemy, 0.5), (mine, 1.0))
                         for u in members)

        ps = self.players[player]
        counts = [0] * C.N_CONSTRUCTIBLE
        for u in mine:
            counts[u.type] += 1
        supply_used = sum(cost * counts[t] for t, cost in C.SUPPLY_COST.items())
        supply_cap = min(len(index.bases[player]) * C.SUPPLY_PER_BASE, C.MAX_UNITS)
        scalar = np.array([
            min(ps.minerals / 200.0, 2.0),
            supply_used / C.MAX_UNITS,
            supply_cap / C.MAX_UNITS,
            self.step_count / self.max_steps,
            counts[C.WORKER] / 16.0,
            counts[C.LIGHT] / 16.0,
            counts[C.RAIDER] / 16.0,
            counts[C.SIEGE] / 16.0,
            counts[C.BASE] / 4.0,
            counts[C.BARRACKS] / 4.0,
            counts[C.FACTORY] / 4.0,
            len(enemy) / 16.0,
        ], dtype=np.float32)

        obs = Observation(
            player=player, step=self.step_count, scalar=scalar,
            types=tuple(types), feats=tuple(feats), uids=tuple(uids),
            **self._legality(player, mine, enemy, neutral, index.any_free,
                             supply_cap - supply_used),
            free=index.free, height=self._height, seen=seen, relation=relation,
        )
        self._given[player] = obs
        return obs

    def _legality(self, player: int, mine, enemy, neutral, any_free: bool,
                  supply_room: int) -> dict:
        """``action_mask`` and ``complete`` (see ``Observation``). ``any_free``
        and ``supply_room`` come from ``observe``."""
        n = C.MAX_UNITS
        complete = tuple(u.complete for u in mine[:n])
        pickable = 0
        for u, done in zip(mine, complete):
            if done:
                pickable |= 1 << u.type
        owned = pickable
        for u in mine[n:]:
            if u.complete:
                owned |= 1 << u.type
        minerals = self.players[player].minerals
        mask = _action_mask(pickable, owned, bool(enemy), bool(neutral), len(mine) < C.MAX_UNITS,
                            any_free, _covered(_MINERAL_COSTS, minerals),
                            _covered(_SUPPLY_COSTS, supply_room))
        return {"action_mask": mask, "complete": complete}

    # ------------------------------------------------------------ acting

    def _resolve_slot(self, obs: Observation, group: int, slot: int) -> Unit | None:
        uids = obs.uids[group]
        return self.units.get(uids[slot]) if slot < len(uids) else None

    def _validate(self, obs: Observation, act: StructuredAction) -> bool:
        a = act.action_id
        if not (0 <= a < C.N_ACTIONS) or not obs.action_mask[a]:
            return False
        if not (1 <= act.delay <= C.DELAY_CHOICES):
            return False
        used = C.HEAD_USAGE[a]
        if C.HEAD_SELECTED_UNITS in used:
            sel = act.selected_units
            if not sel or len(sel) > C.MAX_SELECTED or len(set(sel)) != len(sel):
                return False
            complete, types = obs.complete, obs.types[0]
            if not all(0 <= s < len(complete) and complete[s] and SELECTABLE_BY_TYPE[a, types[s]]
                       for s in sel):
                return False
        if C.HEAD_TARGET_UNIT in used:
            # ATTACK and HARVEST: a shown enemy or a shown patch
            group, shown = (1, obs.n_enemy) if a == C.ATTACK else (2, obs.n_neutral)
            t = act.target_unit
            if t is None or not (0 <= t - group * C.MAX_UNITS < shown):
                return False
        if C.HEAD_TARGET_POSITION in used:
            # MOVE goes anywhere, a building needs a free cell
            pos = act.target_position
            if pos is None or not (0 <= pos < C.GRID * C.GRID):
                return False
            if not (a == C.MOVE or obs.free[pos]):
                return False
        return True

    def _apply_action(self, player: int, act: StructuredAction) -> None:
        # slots refer to what the player was shown this step, not to the
        # state after the other player's action
        obs = self._given[player]
        if obs is None or obs.step != self.step_count:
            obs = self.observe(player)
        self._event(player, "action", {"action": act.to_dict()})
        if not self._validate(obs, act):
            self._event(player, "illegal_action", {"action": act.to_dict()})
            return
        a = act.action_id
        if a == C.NOOP:
            return
        ps = self.players[player]
        units = [self._resolve_slot(obs, 0, s) for s in act.selected_units]
        units = [u for u in units if u is not None and u.player == player]

        if a in C.TRAIN_ACTION_TYPE:
            ttype = C.TRAIN_ACTION_TYPE[a]
            cost = C.MINERAL_COST[ttype]
            for u in units:
                if ps.minerals < cost or len(u.train_queue) >= 3:
                    continue
                ps.minerals -= cost
                ps.spent += cost
                if act.queued or not u.train_queue:
                    u.train_queue.append(ttype)
                else:
                    u.train_queue = [ttype]
                    u.train_progress = 0
            return

        if a in C.BUILD_ACTION_TYPE:
            btype = C.BUILD_ACTION_TYPE[a]
            x, y = divmod(act.target_position, C.GRID)
            order = Order("build", x=x, y=y, build_type=btype)
            worker = units[0]
            self._assign(worker, order, act.queued)
            return

        if a == C.STOP:
            for u in units:
                u.orders = []
            return

        if a == C.MOVE:
            x, y = divmod(act.target_position, C.GRID)
            for u in units:
                self._assign(u, Order("move", x=x, y=y), act.queued)
            return

        if a in (C.ATTACK, C.HARVEST):
            group = 1 if a == C.ATTACK else 2
            target = self._resolve_slot(obs, group, act.target_unit - group * C.MAX_UNITS)
            if target is None:
                self._event(player, "illegal_action", {"action": act.to_dict(),
                                                       "reason": "stale_target"})
                return
            kind = "attack" if a == C.ATTACK else "harvest"
            for u in units:
                self._assign(u, Order(kind, target_uid=target.uid), act.queued)

    @staticmethod
    def _assign(unit: Unit, order: Order, queued: int) -> None:
        if queued and unit.orders:
            unit.orders.append(order)
        else:
            unit.orders = [order]

    # ------------------------------------------------------------ simulation

    def step_env(self, actions: dict[int, StructuredAction] | None = None) -> None:
        """Apply this step's decisions (if any) and advance one env step."""
        if self.done:
            raise RuntimeError("step_env called after the match ended")
        if actions:
            for player in sorted(actions):
                act = actions[player]
                if act is not None:
                    self._apply_action(player, act)
        self._tick_cooldowns()
        self._substep_move()
        self._substep_attack()
        self._substep_harvest()
        self._substep_produce()
        self.step_count += 1
        self._check_end()

    def _tick_cooldowns(self) -> None:
        for u in self._index().mobile:
            if u.attack_cd > 0:
                u.attack_cd -= 1
            if u.move_cd > 0:
                u.move_cd -= 1

    def _order_destination(self, u: Unit, order: Order, bases, patches):
        if order.kind == "move":
            return order.x, order.y, 0
        if order.kind == "attack":
            t = self.units.get(order.target_uid)
            if t is None:
                return None
            return t.x, t.y, C.UNIT_RANGE[u.type]
        if order.kind == "harvest":
            if u.carrying > 0:
                base = self._nearest(u, bases[u.player])
                return None if base is None else (base.x, base.y, 1)
            t = self.units.get(order.target_uid)
            if t is None or t.remaining <= 0:
                t = self._nearest(u, patches)
                if t is None:
                    return None
                order.target_uid = t.uid
            return t.x, t.y, 1
        if order.kind == "build":
            return order.x, order.y, 1
        return None

    def _nearest(self, u: Unit, candidates: list[Unit]) -> Unit | None:
        """The closest of ``candidates`` (in uid order); ties go to the lowest uid."""
        best, best_d = None, None
        for v in candidates:
            d = cheby(u.x, u.y, v.x, v.y)
            if best is None or d < best_d:
                best, best_d = v, d
        return best

    @staticmethod
    def _occupied(index: _Index) -> list[int]:
        """Per player, the cells its units stand on, as a cell set."""
        occupied = list(index.built)
        for v in index.mobile:
            occupied[v.player] |= 1 << (v.x * C.GRID + v.y)
        return occupied

    def _cell_map(self, player: int) -> dict:
        """Each cell that ``player``'s units stand on, mapped to its lowest-uid unit there."""
        cells = {}
        for v in self.units.values():
            if v.player == player:
                cells.setdefault((v.x, v.y), v)
        return cells

    @staticmethod
    def _in_range(u: Unit, cells: dict) -> Unit | None:
        """The closest unit of ``cells`` within ``u``'s range; ties go to the lowest uid."""
        for ring in _RINGS[:C.UNIT_RANGE[u.type] + 1]:
            best = None
            for dx, dy in ring:
                v = cells.get((u.x + dx, u.y + dy))
                if v is not None and (best is None or v.uid < best.uid):
                    best = v
            if best is not None:
                return best
        return None

    def _substep_move(self) -> None:
        index = self._index()
        bases, patches = index.bases, index.patches
        for u in index.mobile:
            if not u.orders:
                continue
            order = u.orders[0]
            dest = self._order_destination(u, order, bases, patches)
            if dest is None:
                u.orders.pop(0)
                continue
            tx, ty, reach = dest
            if cheby(u.x, u.y, tx, ty) <= reach:
                continue
            if u.move_cd > 0:
                continue
            dx, dy = tx - u.x, ty - u.y
            if abs(dx) >= abs(dy) and dx != 0:
                u.x += 1 if dx > 0 else -1
            elif dy != 0:
                u.y += 1 if dy > 0 else -1
            u.move_cd = C.MOVE_COOLDOWN[u.type]

    def _substep_attack(self) -> None:
        damage: dict[int, int] = {}
        index = self._index()
        occupied = cells = None
        for u in index.mobile:
            if u.attack_cd > 0:
                continue
            order = u.orders[0] if u.orders else None
            target = None
            if order is not None and order.kind == "attack":
                t = self.units.get(order.target_uid)
                if t is not None and cheby(u.x, u.y, t.x, t.y) <= C.UNIT_RANGE[u.type]:
                    target = t
            elif order is None and u.type in C.MILITARY_TYPES:
                # idle military units fight back on their own
                if occupied is None:
                    occupied, cells = self._occupied(index), [None, None]
                foe = 1 - u.player
                if occupied[foe] & _square(C.UNIT_RANGE[u.type], u.x, u.y):
                    if cells[foe] is None:
                        cells[foe] = self._cell_map(foe)
                    target = self._in_range(u, cells[foe])
            if target is None:
                continue
            dmg = C.UNIT_DMG[u.type]
            if C.COUNTERS.get(u.type) == target.type:
                dmg *= 2
            damage[target.uid] = damage.get(target.uid, 0) + dmg
            u.attack_cd = C.ATTACK_COOLDOWN[u.type]
        for tid, dmg in sorted(damage.items()):
            t = self.units.get(tid)
            if t is None:
                continue
            t.hp -= dmg
            if t.hp <= 0:
                self.attrition += t.carrying
                self._event(t.player, "kill",
                            {"uid": tid, "type": t.type, "by": 1 - t.player})
                del self.units[tid]
                self._kept = None

    def _substep_harvest(self) -> None:
        index = self._index()
        bases = index.bases
        for u in index.workers:
            if not u.orders:
                continue
            order = u.orders[0]
            if order.kind != "harvest":
                continue
            if u.carrying == 0:
                t = self.units.get(order.target_uid)
                if t is not None and t.remaining > 0 and cheby(u.x, u.y, t.x, t.y) <= 1:
                    take = min(C.CARRY_AMOUNT, t.remaining)
                    t.remaining -= take
                    u.carrying = take
                    if t.remaining == 0:
                        self._kept = None
            else:
                base = self._nearest(u, bases[u.player])
                if base is not None and cheby(u.x, u.y, base.x, base.y) <= 1:
                    ps = self.players[u.player]
                    ps.minerals += u.carrying
                    ps.harvested += u.carrying
                    self._event(u.player, "deposit", {"amount": u.carrying})
                    u.carrying = 0

    def _substep_produce(self) -> None:
        for u in self._index().producers:    # a spawn drops the index, not this list
            building = u.type in C.BUILDING_TYPES
            if building and not u.complete:
                u.build_progress = min(1.0, u.build_progress + 1.0 / C.BUILD_TIME[u.type])
                if u.complete:
                    self._kept = None
                    self._event(u.player, "construct", {"type": u.type, "uid": u.uid})
                continue
            if building and u.train_queue:
                u.train_progress += 1
                ttype = u.train_queue[0]
                if u.train_progress >= C.TRAIN_TIME[ttype]:
                    if self.entity_count(u.player) >= C.MAX_UNITS:
                        continue  # hold until there is room
                    free = self._index().free
                    sx, sy = u.x, u.y
                    sign = 1 if u.player == 0 else -1
                    for dx, dy in _RING:
                        nx, ny = u.x + sign * dx, u.y + sign * dy
                        if 0 <= nx < C.GRID and 0 <= ny < C.GRID and free[nx * C.GRID + ny]:
                            sx, sy = nx, ny
                            break
                    unit = self._spawn(ttype, u.player, sx, sy)
                    self._event(u.player, "construct", {"type": ttype, "uid": unit.uid})
                    u.train_queue.pop(0)
                    u.train_progress = 0
                continue
            if u.type == C.WORKER:
                order = u.orders[0] if u.orders else None
                if order is None or order.kind != "build":
                    continue
                if cheby(u.x, u.y, order.x, order.y) > 1:
                    continue
                ps = self.players[u.player]
                cost = C.MINERAL_COST[order.build_type]
                blocked = not self._index().free[order.x * C.GRID + order.y]
                if blocked or ps.minerals < cost or self.entity_count(u.player) >= C.MAX_UNITS:
                    self._event(u.player, "build_dropped",
                                {"type": order.build_type,
                                 "reason": "blocked" if blocked else "resources"})
                    u.orders.pop(0)
                    continue
                ps.minerals -= cost
                ps.spent += cost
                b = self._spawn(order.build_type, u.player, order.x, order.y,
                                progress=1.0 / C.BUILD_TIME[order.build_type])
                self._event(u.player, "build_start", {"type": order.build_type, "uid": b.uid})
                u.orders.pop(0)

    def _check_end(self) -> None:
        based = self._index().based
        if based != {0, 1} or self.step_count >= self.max_steps:
            # the one player left with a base wins; otherwise a draw
            winner = next(iter(based)) if len(based) == 1 else None
            self.done = True
            self.outcome = MatchOutcome(winner=winner, end_step=self.step_count)
            self._event(-1, "end", {"winner": winner, "step": self.step_count})
