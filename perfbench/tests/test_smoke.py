"""Smoke test: every workload at minimal size, untraced and traced.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run_module()


def _run(workload: str, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                          "--seconds", "1", "--trace", str(trace), "--quick"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _check_spans_file(lines: list[str]) -> None:
    """A traced run writes every span, [name, start, end, parent], to one file."""
    written = [line.split() for line in lines if line.startswith("spans ")]
    assert len(written) == 1, lines
    count, path = int(written[0][1]), Path(written[0][-1])
    try:
        spans = [json.loads(line) for line in path.read_text().splitlines()]
    finally:
        path.unlink(missing_ok=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass
    assert len(spans) == count > 0
    for i, (name, start, end, parent) in enumerate(spans):
        assert isinstance(name, str) and start <= end and -1 <= parent < i


def test_benchmark_names_every_workload():
    assert WORKLOAD_NAMES == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_reports_every_declared_metric(workload, trace):
    result, lines = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        _check_spans_file(lines)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_wraps_nothing(workload, tmp_path):
    work = run.WORKLOADS[workload](1, run.SIZES["quick"][workload], tmp_path)
    unit = work.unit
    seen = []

    def checked_unit():
        seen.append(run.spans.wrapped_targets())
        return unit()

    work.unit = checked_unit
    run.measure(work, 0.0, 2, 1)
    assert seen == [[], []]

    tracer = run.spans.Tracer()
    tracer.install()
    try:
        assert len(run.spans.wrapped_targets()) == len(run.spans.TARGETS)
    finally:
        tracer.uninstall()
    assert run.spans.wrapped_targets() == []


def test_self_time_subtracts_direct_children():
    spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
             ["leaf", 2.0, 3.0, 1], ["inner", 5.0, 6.0, 0]]
    summary = run.spans.unit_summary(spans, 0, len(spans))
    assert summary["outer"][:2] == [1, 6.0]
    assert summary["inner"][:2] == [2, 3.0]
    assert summary["leaf"][:2] == [1, 1.0]
