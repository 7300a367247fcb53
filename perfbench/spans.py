"""Span tracer for the traced benchmark run.

The tracer wraps functions of the program where the program looks them up:
class attributes, and module-level names in the module that calls them. Each
call records one span `[name, start, end, parent]` in memory; figures are
computed once the run is over. Nothing is wrapped before `install` and
`uninstall` puts every original back, so an untraced run executes the
program's own functions.

A span's self time is its duration minus the durations of its direct child
spans. The program is single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

MARK = "__perfbench_span__"

# Layer boundaries as (module, class or None for a module-level name,
# attribute, span name). A span's name is its metric prefix. A module-level
# name is wrapped in the module that calls it, because that is where the
# call looks it up.
TARGETS = [
    ("gridleague.env.engine", "Game", "observe", "engine.observe"),
    ("gridleague.env.engine", "Game", "_legality", "engine.legality"),
    ("gridleague.env.engine", "Game", "_nearest", "engine.nearest"),
    ("gridleague.env.engine", "Game", "step_env", "engine.step_env"),
    ("gridleague.env.engine", "Game", "_substep_move", "engine.move"),
    ("gridleague.env.engine", "Game", "_substep_attack", "engine.attack"),
    ("gridleague.env.engine", "Game", "_substep_harvest", "engine.harvest"),
    ("gridleague.env.engine", "Game", "_substep_produce", "engine.produce"),
    ("gridleague.env.script", "ScriptedPolicy", "act", "script.act"),
    ("gridleague.imitation.dataset", None, "read_replay", "replay.read"),
    ("gridleague.imitation.dataset", None, "rerun", "replay.rerun"),
    ("gridleague.imitation.dataset", None, "load_trajectory", "dataset.load_trajectory"),
    ("gridleague.imitation.dataset", "WindowLoader", "_annotate_states", "dataset.annotate"),
    ("gridleague.net.batch", "ObsBatch", "__init__", "batch.build"),
    ("gridleague.net.policy", "PolicyNet", "step", "policy.step"),
    ("gridleague.net.policy", "PolicyNet", "encode", "policy.encode"),
    ("gridleague.net.policy", "PolicyNet", "decode", "policy.decode"),
    ("gridleague.net.policy", "PolicyNet", "unroll", "policy.unroll"),
    ("gridleague.tensor.lstm", "ResidualLSTM", "step", "lstm.step"),
    ("gridleague.net.modules", "GroupTransformer", "__call__", "modules.transformer"),
    ("gridleague.net.modules", "AttentionPool", "__call__", "modules.pool"),
    ("gridleague.net.policy", None, "conditioned_concat_scores", "modules.pointer"),
    ("gridleague.tensor.core", "Tensor", "backward", "tensor.backward"),
    ("gridleague.tensor.optim", "Adam", "step", "optim.adam"),
    ("gridleague.imitation.bc", None, "window_forward", "bc.forward"),
    ("gridleague.imitation.bc", "BCTrainer", "train_step", "bc.train_step"),
    ("gridleague.match", None, "run_matches", "match.run_matches"),
]

# Spans reported by latency percentiles instead of self time.
LATENCY = ("policy.step", "bc.train_step")
SELF_TIME = [t[3] for t in TARGETS if t[3] not in LATENCY]
# Stages whose work sits in child spans also report their inclusive time.
TOTAL_TIME = ["dataset.annotate", "replay.rerun", "bc.forward", "policy.step",
              "match.run_matches"]
CALLS = ["engine.observe", "engine.nearest", "script.act", "policy.step"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._last_obs: dict = {}

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace `owner.attr` by a function that records a span per call.

        `after(args, result)` runs outside the span, so counting costs the
        caller's self time, not this span's.
        """
        original = vars(owner)[attr]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(traced, MARK, name)
        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary in TARGETS."""
        after = {"engine.observe": self._observe_done, "batch.build": self._batch_built}
        for module, cls, attr, name in TARGETS:
            self.wrap(_owner(module, cls), attr, name, after=after.get(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._last_obs.clear()

    def _observe_done(self, args, obs) -> None:
        # a hit hands back the very object returned last for this game and side
        key = (id(args[0]), args[1])
        if self._last_obs.get(key) is obs:
            self.count("observe.hits")
        self._last_obs[key] = obs

    def _batch_built(self, args, _result) -> None:
        b = args[0]
        self.count("batch.builds")
        self.count("batch.rows", b.size)
        self.count("batch.valid_slots", float(sum(m.sum() for m in b.unit_mask)))
        self.count("batch.slots", b.size * sum(b.group_n))

    def begin_unit(self) -> int:
        self.counts = {}
        self._last_obs.clear()
        return len(self.spans)


UNITS = {"self_s": "s", "total_s": "s", "share": "ratio", "calls": "count", "p50_ms": "ms",
         "p90_ms": "ms", "p50_s": "s", "p90_s": "s", "hit_ratio": "ratio",
         "rows_mean": "rows", "slot_fill": "ratio", "decisions": "count",
         "window_use_ratio": "ratio", "graph_nodes": "count", "overhead_pct": "%"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def wrapped_targets() -> list[str]:
    """The TARGETS that are wrapped right now, as `owner.attr`."""
    return [f"{cls or module}.{attr}" for module, cls, attr, _ in TARGETS
            if hasattr(vars(_owner(module, cls))[attr], MARK)]


def unit_summary(spans: list[list], lo: int, hi: int) -> dict[str, list]:
    """Per span name over spans[lo:hi]: [calls, self seconds, durations]."""
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        _, start, end, parent = spans[i]
        if parent >= lo:
            child[parent - lo] += end - start
    out: dict[str, list] = {}
    for i in range(lo, hi):
        name, start, end, _ = spans[i]
        agg = out.setdefault(name, [0, 0.0, []])
        agg[0] += 1
        agg[1] += (end - start) - child[i - lo]
        agg[2].append(end - start)
    return out


def setup_metrics(summary: dict[str, list]) -> dict[str, float]:
    """Figures of the one traced set-up. Generating the bc dataset plays
    scripted games there, so the engine and the scripts run in set-up too."""
    def self_s(prefix):
        return sum(agg[1] for name, agg in summary.items() if name.startswith(prefix))

    return {"setup.script.act.calls": float(summary.get("script.act", [0])[0]),
            "setup.script.act.self_s": self_s("script.act"),
            "setup.engine.self_s": self_s("engine.")}


def layer_metrics(units: list[tuple[dict, float, dict]]) -> dict[str, float]:
    """Per-layer figures from traced units of work.

    `units` holds (span summary, unit wall seconds, counts) per unit. Self
    times, shares and call counts are medians over units; latency
    percentiles pool the spans of every unit.
    """
    def med(values):
        return float(np.median(values)) if values else 0.0

    def total(summary, name):
        return sum(summary.get(name, [0, 0.0, []])[2])

    def pooled(name):
        return [d for summary, _, _ in units for d in summary.get(name, [0, 0, []])[2]]

    m: dict[str, float] = {}
    for name in SELF_TIME:
        selfs = [s.get(name, [0, 0.0])[1] for s, _, _ in units]
        m[f"{name}.self_s"] = med(selfs)
        m[f"{name}.share"] = med([x / wall for x, (_, wall, _) in zip(selfs, units)])
    for name in TOTAL_TIME:
        m[f"{name}.total_s"] = med([total(s, name) for s, _, _ in units])
    for name in CALLS:
        m[f"{name}.calls"] = med([s.get(name, [0])[0] for s, _, _ in units])

    def ratio(num, den):
        return med([c.get(num, 0) / c[den] if c.get(den) else 0.0 for _, _, c in units])

    m["engine.observe.hit_ratio"] = med(
        [c.get("observe.hits", 0) / s["engine.observe"][0] if "engine.observe" in s else 0.0
         for s, _, c in units])
    m["batch.rows_mean"] = ratio("batch.rows", "batch.builds")
    m["batch.slot_fill"] = ratio("batch.valid_slots", "batch.slots")
    m["dataset.decisions"] = med([c.get("dataset.decisions", 0) for _, _, c in units])
    m["dataset.window_use_ratio"] = ratio("windows.trained", "windows.cut")

    steps = pooled("policy.step")
    m["policy.step.p50_ms"] = 1e3 * float(np.percentile(steps, 50)) if steps else 0.0
    m["policy.step.p90_ms"] = 1e3 * float(np.percentile(steps, 90)) if steps else 0.0
    train = pooled("bc.train_step")
    m["bc.train_step.p50_s"] = float(np.percentile(train, 50)) if train else 0.0
    m["bc.train_step.p90_s"] = float(np.percentile(train, 90)) if train else 0.0
    return m
