"""tridephase benchmark: one workload per call, oracle-checked, optionally traced.

    python3 bench/run.py --workload measure_zero_t --seed 1 --seconds 25 --trace 0

Run from the repository root (or any checkout holding `src/tridephase`).
`--workload all` runs every workload in turn.  Each workload runs in a
fresh single-threaded interpreter (bench/child.py); set-up time is the
median of several more fresh interpreters that only import
`tridephase.cli`.  Times are scaled to a reference CPU speed measured by
probe.py.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys

import numpy
import scipy

import oracles
import probe
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_IMPORTS = 5
SETUP_PROBE_INTERVAL_S = 0.01
CHILD_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_MODULES = (
    "tridephase", "tridephase.exceptions", "tridephase.linalg", "tridephase.states",
    "tridephase.reservoir", "tridephase.evolution", "tridephase.measures",
    "tridephase.analysis", "tridephase.cli",
)
# Spans reported as <span>.calls and <span>.self_s; the cli.cmd span is reported as cli.self_s.
SPAN_METRICS = (
    "reservoir.quad", "reservoir.gamma", "evolution.dephasing_factors", "evolution.evolve",
    "states.assert_density_matrix", "linalg.hermitian_eigenvalues", "linalg.partial_transpose",
    "measures.gmc_x_state", "measures.negativity", "measures.tripartite_negativity",
    "measures.l1_coherence", "analysis.preservation_time_numeric", "analysis.characteristic_time",
    "analysis.freezing_intervals", "analysis.run_sweep", "cli.main",
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def run_child(spec: dict, trace: bool) -> tuple[dict, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [os.path.join(HERE, "child.py")]
    proc = subprocess.run(
        cmd, input=json.dumps(spec), capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"benchmark child failed with exit code {proc.returncode}")
    return json.loads(proc.stdout), proc.stderr


def setup_times(count: int) -> list[tuple[float, float]]:
    """(wall time of `import tridephase.cli` minus probe time, mean probe kernel
    time during it) in `count` fresh interpreters."""
    code = (
        "import time, probe\n"
        f"with probe.SpeedProbe({SETUP_PROBE_INTERVAL_S}) as p:\n"
        "    t = time.perf_counter(); import tridephase.cli; t = time.perf_counter() - t\n"
        "print(t - sum(p.samples), sum(p.samples) / len(p.samples))\n"
    )
    env = child_env()
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, cwd=ROOT, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit("importing tridephase.cli failed")
        wall, kernel = map(float, proc.stdout.split())
        out.append((wall, kernel))
    return out


def import_times(stderr: str) -> dict:
    """Cumulative import time in seconds per tridephase module, from -X importtime."""
    found = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$", line)
        if m and m.group(3) in IMPORT_MODULES:
            found[m.group(3)] = int(m.group(2)) * 1e-6
    return found


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (
        f"n={len(values)} median={med:.6g} min={min(values):.6g} max={max(values):.6g} "
        f"q1={q1:.6g} q3={q3:.6g} iqr/median={(q3 - q1) / med if med else math.nan:.3g}"
    )


def git_rev() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> str:
    pinned = " ".join(f"{name}=1" for name in THREAD_VARS)
    return (
        f"git_rev={git_rev()} python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} nproc={os.cpu_count()} threads: {pinned}"
    )


def layer_metrics(result: dict, import_s: dict, untraced_median: float) -> dict:
    traced = [wall for wall, _ in result["traced_samples"]]
    n = len(traced)
    totals = {}
    for name, _parent, calls, total, self_s in result["spans"]:
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += self_s
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for span in SPAN_METRICS:
        calls, _total, self_s = totals.get(span, (0, 0.0, 0.0))
        put(f"{span}.calls", calls / n, "count")
        put(f"{span}.self_s", self_s / n, "s")
    cmd_self = totals.get("cli.cmd", (0, 0.0, 0.0))[2]
    put("cli.self_s", cmd_self / n, "s")
    counters = result["counters"]
    put("reservoir.quad.neval", counters.get("reservoir.quad.neval", 0.0) / n, "count")
    put("reservoir.quad.max_abserr", counters.get("reservoir.quad.max_abserr", 0.0), "1")
    put("reservoir.gamma.distinct_ratio", statistics.mean(result["gamma_distinct_ratio"]), "ratio")
    for name in ("preservation_time_numeric", "characteristic_time"):
        key = f"analysis.{name}.curve_evals"
        put(key, counters.get(key, 0.0) / n, "count")
    evolves = totals.get("evolution.evolve", (0,))[0]
    validations = totals.get("states.assert_density_matrix", (0,))[0]
    put("states.validations_per_matrix", validations / evolves if evolves else 0.0, "ratio")
    output = result["output"]
    put("cli.rows", output.count("\n") - 1, "count")
    put("cli.bytes_out", result["bytes_out"], "B")
    for module in IMPORT_MODULES:
        put(f"import.{module}.cumulative_s", import_s.get(module, 0.0), "s")
    wall = statistics.mean(traced)
    attributed = sum(entry[2] for entry in totals.values()) / n
    put("trace.wall_s", wall, "s")
    put("trace.untraced_s", untraced_median, "s")
    put("trace.overhead_s", wall - untraced_median, "s")
    put("trace.attributed_share", attributed / wall, "ratio")
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    config = workload.config(seed)
    argv = workload.argv(config)
    print(f"== workload {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("argv: tridephase " + " ".join(f"'{a}'" if " " in a or '"' in a else a for a in argv))
    print(f"env: {environment()}")
    spec = {"argv": argv, "seconds": seconds, "trace": trace, "src": SRC}
    result, stderr = run_child(spec, trace)

    check = oracles.check_output(workload.command, config, result["output"])
    if not result["identical"]:
        check.gross.append("repeated calls printed different bytes")
    calls = len(result["samples"]) + len(result.get("traced_samples", []))
    rows = check.rows
    failed_rows = len(check.failed_rows)
    correct = not check.gross and rows > 0
    print(f"oracle: {rows} rows per call, {failed_rows} failed "
          f"({len(check.errors)} with an error, {len(check.misses)} values off their oracle), "
          f"identical across {calls} calls: {result['identical']}, "
          f"sha256 {hashlib.sha256(result['output'].encode()).hexdigest()}")
    for row_no, column, got, want in check.misses[:40]:
        rel = abs(got - want) / abs(want) if want and math.isfinite(want) else math.inf
        print(f"  miss row {row_no} {column}: got {got!r} oracle {want!r} (rel {rel:.3g})")
    for row_no, text in check.errors[:20]:
        print(f"  error row {row_no}: {text}")
    for reason in check.gross[:20]:
        print(f"  NOT CORRECT: {reason}")
    print(f"failed_share: {failed_rows / rows if rows else 1.0!r} fraction")

    if not trace:
        curves = workload.curves_per_call
        samples = result["samples"]
        pooled = [tick for _, ticks in samples for tick in ticks]
        rates = [curves / wall for wall, _ in samples]
        ref_rates = [
            curves / wall * statistics.fmean(ticks or pooled) / probe.REF_S for wall, ticks in samples
        ]
        setup = setup_times(SETUP_IMPORTS)
        setup_raw = [wall for wall, _ in setup]
        setup_ref = [wall * probe.REF_S / kernel for wall, kernel in setup]
        metrics = {
            "ref_curves_per_s": {"value": statistics.median(ref_rates), "unit": "curves/s"},
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
        print(f"curves_per_s: {statistics.median(rates)!r} curves/s  "
              f"[{curves} curves per call, wall time; {spread(rates)}]")
        print(f"ref_curves_per_s: {metrics['ref_curves_per_s']['value']!r} curves/s  "
              f"[at the reference speed; {spread(ref_rates)}; probe kernel {spread(pooled)}]")
        print(f"setup_s: {metrics['setup_s']['value']!r} s  "
              f"[at the reference speed; {spread(setup_ref)}; wall time {spread(setup_raw)}]")
        print(f"peak_rss_mib: {metrics['peak_rss_mib']['value']!r} MiB  [one child process]")
    else:
        missing = [p for p in workload.expected_hits if result["hits"].get(p, 0) == 0]
        if missing:
            raise SystemExit(
                f"traced run of {name}: wrapped names recorded zero calls: {', '.join(missing)}; "
                "the program no longer calls these layers where the tracer wraps them"
            )
        untraced = statistics.median(wall for wall, _ in result["samples"])
        metrics = layer_metrics(result, import_times(stderr), untraced)
        print(f"traced calls: {len(result['traced_samples'])}, untraced calls: {len(result['samples'])}")
        for metric, entry in metrics.items():
            print(f"{metric}: {entry['value']!r} {entry['unit']}")
        print("spans (name <- parent: calls, total s, self s per CLI call):")
        n = len(result["traced_samples"])
        for span, parent, span_calls, total, self_s in sorted(result["spans"], key=lambda s: -s[4]):
            print(f"  {span} <- {parent}: {span_calls / n:.6g}, {total / n:.6g}, {self_s / n:.6g}")
    outcome = {"correct": correct, "attempted": rows * calls, "failed": failed_rows * calls}
    return outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "tridephase", "cli.py")):
        print(f"error: no tridephase package under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        outcome, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        summary["correct"] &= outcome["correct"]
        summary["attempted"] += outcome["attempted"]
        summary["failed"] += outcome["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
