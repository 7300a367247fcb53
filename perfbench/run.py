"""Benchmark entry point.

    python3 perfbench/run.py --workload scripted --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. `--trace 0` measures the end-to-end
metrics; `--trace 1` gives the per-layer metrics from a traced run. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--workload all` runs every workload,
each in a fresh process, and prints a table. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
MIN_UNITS = 3           # repeats of the unit of work in an untraced run
MIN_SETUPS = 3          # set-up tries in an untraced run
# Set-up tries are spread between the units, taking this much time for each
# second of units. The machine's speed moves in waves of seconds to minutes,
# and one import takes ~0.15 s, so tries made back to back land in one wave.
SETUP_SHARE = 0.15
IMPORTS = "import gridleague.match, gridleague.imitation"

if not (SRC / "gridleague").is_dir():
    sys.exit(f"perfbench: no program source at {SRC / 'gridleague'}; "
             "run from the root of a gridleague checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def setup_try(work) -> float:
    """One set-up as a user pays it: the time to import the program in a fresh
    interpreter plus the workload's own set-up in this process."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    t0 = time.perf_counter()
    work.setup()
    return float(out.stdout.split()[-1]) + time.perf_counter() - t0


def openblas_facts() -> dict:
    import ctypes

    facts = {}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                facts["blas_threads"] = fn()
                return facts
    facts["blas_threads"] = None
    return facts


def run_facts(workload: str, seed: int) -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except OSError:
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, **openblas_facts(), "git": rev,
            "src_lines": src_lines}


def traced_setup(work, tracer) -> dict:
    """Set up once under the tracer; the span summary of that set-up."""
    tracer.install()
    try:
        lo = tracer.begin_unit()
        work.setup()
    finally:
        tracer.uninstall()
    return spans.unit_summary(tracer.spans, lo, len(tracer.spans))


def write_spans(tracer, path: Path) -> None:
    """Every span of the run as a JSON line: [name, start, end, parent index]."""
    with open(path, "w") as f:
        f.writelines(json.dumps(s) + "\n" for s in tracer.spans)
    print(f"spans {len(tracer.spans)} written to {path}")


def measure(work, seconds: float, min_units: int, min_setups: int) -> tuple[list, list]:
    """Set up, then repeat the unit of work until `seconds` of units would be
    exceeded.

    Set-up tries are spread between the units, so their median sees the same
    machine as the units do; their time is not part of `seconds`. Returns the
    units and the set-up times.
    """
    start = time.perf_counter()
    setups, units = [setup_try(work)], []

    def busy():
        return time.perf_counter() - start - sum(setups)

    while len(units) < min_units or (
            busy() + statistics.median(u.seconds for u in units) <= seconds):
        units.append(work.unit())
        while sum(setups) < SETUP_SHARE * busy():
            setups.append(setup_try(work))
    while len(setups) < min_setups:
        setups.append(setup_try(work))
    return units, setups


def end_to_end(units, setup_s: float) -> dict:
    def rate(attr):
        return statistics.median(getattr(u, attr) / u.seconds for u in units)

    return {
        "env_steps_per_s": (rate("env_steps"), "1/s"),
        "decisions_per_s": (rate("decisions"), "1/s"),
        "windows_per_s": (rate("windows"), "1/s"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(work, seconds: float, spans_path: Path):
    """Per-layer figures, with traced and untraced units taking turns.

    The one set-up is traced too. One warm-up unit runs first. Taking turns
    keeps drift on a shared machine out of the tracing overhead, which
    compares the two kinds of unit. Every span is written to `spans_path`
    when the run ends.
    """
    tracer = spans.Tracer()
    setup = traced_setup(work, tracer)
    units, plain, traced = [work.unit()], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + plain[-1].seconds + traced[-1][1] <= seconds):
        plain.append(work.unit())
        tracer.install()
        try:
            lo = tracer.begin_unit()
            u = work.unit()
        finally:
            tracer.uninstall()
        traced.append((spans.unit_summary(tracer.spans, lo, len(tracer.spans)), u.seconds,
                       {**tracer.counts, **u.counts}))
        units += [plain[-1], u]
    metrics = spans.layer_metrics(traced)
    metrics.update(spans.setup_metrics(setup))
    metrics["tensor.graph_nodes"] = work.graph_nodes() if hasattr(work, "graph_nodes") else 0
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(t[1] for t in traced) / statistics.median(u.seconds for u in plain) - 1)
    write_spans(tracer, spans_path)
    return units, metrics


def run_one(args) -> int:
    size = SIZES["quick" if args.quick else "full"][args.workload]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        work = WORKLOADS[args.workload](args.seed, size, work_dir)
        if args.trace:
            spans_path = work_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
            units, layer = per_layer(work, args.seconds, spans_path)
        else:
            units, setups = measure(work, args.seconds, MIN_UNITS, MIN_SETUPS)
            if spans.wrapped_targets():
                raise RuntimeError("untraced run found wrapped functions")
        info, problems = work.finish(units)
        if len({u.digest for u in units}) != 1:
            problems.append("repeats of one seed gave different outputs")
        if args.trace:
            metrics = {k: (v, spans.unit_of(k)) for k, v in layer.items()}
        else:
            metrics = end_to_end(units, statistics.median(setups))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    print("facts " + json.dumps(run_facts(args.workload, args.seed)))
    print(f"units {len(units)}: " + ", ".join(f"{u.seconds:.3f}s" for u in units))
    if not args.trace:
        print(f"set-ups {len(setups)}: " + ", ".join(f"{t:.3f}s" for t in setups))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:34s} {value:14.6g} {unit}")
    info["fail_rate"] = failed / max(attempted, 1)
    info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name, value in info.items():
        print(f"{args.workload:9s} {name:34s} {value:14.6g} (not a bounded metric)")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, so peak memory is per workload."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            status = 1
        results[name] = json.loads(lines[-1]) if lines else None
    ok = all(r and r["correct"] for r in results.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in results.values() if r),
                      "failed": sum(r["failed"] for r in results.values() if r),
                      "metrics": {k: r and r["metrics"] for k, r in results.items()}}))
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="minimal inputs, for the smoke test")
    args = ap.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
