"""Build statistics extracted from game event logs."""

from __future__ import annotations

from . import constants as C
from .types import StatisticZ


def extract_statistic(events, player: int) -> StatisticZ:
    """First-K build order and constructed-type presence for one player.

    Only "construct" events count (completed units and buildings); the
    starting base and workers were never constructed during the game.
    """
    build_order: list[int] = []
    present = [False] * C.N_CONSTRUCTIBLE
    for ev in events:
        if ev["kind"] != "construct" or ev["player"] != player:
            continue
        t = int(ev["payload"]["type"])
        present[t] = True
        if len(build_order) < C.BUILD_ORDER_K:
            build_order.append(t)
    return StatisticZ(build_order, present)
