"""The engine's per-sub-step lookups against plain scans of every unit.

Auto-targeting (a cell map with Chebyshev rings behind an occupied-cell
set) and vision (a union of cell sets) are checked on random layouts,
several units to a cell and the grid's edges included, against the scans
they replaced.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gridleague.env import Game, constants as C
from gridleague.env.engine import cheby

cells = st.integers(0, C.GRID - 1)
units = st.lists(st.tuples(st.sampled_from(range(C.N_CONSTRUCTIBLE)), st.integers(0, 1),
                           cells, cells), min_size=1, max_size=40)


def _game(layout) -> Game:
    g = Game(0, "triton_toy")
    g.units = {}
    for t, player, x, y in layout:
        g._spawn(t, player, x, y)
    return g


@settings(max_examples=300, deadline=None)
@given(units)
def test_auto_target_is_the_closest_enemy_in_range_lowest_uid_first(layout):
    g = _game(layout)
    maps = g._cell_maps()
    for u in g.units.values():
        if u.type not in C.MILITARY_TYPES:
            continue
        reach = C.UNIT_RANGE[u.type]
        in_range = [v for v in g.units.values() if v.player == 1 - u.player
                    and cheby(u.x, u.y, v.x, v.y) <= reach]
        closest = min(in_range, key=lambda v: (cheby(u.x, u.y, v.x, v.y), v.uid),
                      default=None)
        assert g._in_range(u, *maps[1 - u.player]) is closest


@settings(max_examples=300, deadline=None)
@given(units)
def test_vision_is_the_union_of_unit_squares(layout):
    g = _game(layout)
    for player in (0, 1):
        vis = np.zeros((C.GRID, C.GRID), dtype=bool)
        for u in g.player_units(player):
            r = C.VISION[u.type]
            vis[max(0, u.x - r):u.x + r + 1, max(0, u.y - r):u.y + r + 1] = True
        got = g.visibility(player)
        assert got.dtype == bool and np.array_equal(got, vis)

