"""Runs one workload inside a fresh interpreter and reports timings as JSON.

Started by run.py with the package's `src` directory on PYTHONPATH and
BLAS/OpenMP threads pinned to 1.  Reads a JSON spec on stdin:
{"argv", "seconds", "trace", "src"}.  Imports `tridephase.cli` before
anything outside the standard library, so that `-X importtime` charges
numpy and scipy to the tridephase modules that pull them in, as in a CLI
call.

Untraced, it calls `cli.main` until `seconds` have passed (at least three
times).  Traced, it spends half the time on untraced calls and the rest on
calls with every layer wrapped by `Tracer`.  Every call's output must be
byte-identical to the first call's, which is returned for checking.
"""

from __future__ import annotations

import tridephase.cli as cli  # isort: skip  (first, see above)

import contextlib
import hashlib
import json
import os
import sys
import time
from collections import defaultdict

from probe import SpeedProbe

MIN_UNTRACED_CALLS = 3
PROBE_INTERVAL_S = 0.025


class Sink:
    """A stdout stand-in that hashes what it is given; keeps the text only if asked."""

    def __init__(self, keep: bool = False):
        self.digest = hashlib.sha256()
        self.bytes = 0
        self.chunks = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode()
        self.digest.update(data)
        self.bytes += len(data)
        if self.chunks is not None:
            self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class Tracer:
    """Span aggregation by (name, parent) with self time, plus counters.

    A span's self time is its duration minus the durations of the spans it
    directly contains, so self times over all spans add up to the root spans.
    """

    def __init__(self):
        self.stack: list[list] = []           # [name, time spent in child spans]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # (name, parent) -> calls, total, self
        self.hits = defaultdict(int)          # placement -> calls
        self.counters = defaultdict(float)
        self.gamma_keys: set = set()          # distinct Gamma arguments in the current call

    def wrap(self, name, placement, fn, before=None, after=None):
        stack, spans, hits, clock = self.stack, self.spans, self.hits, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                span = spans[(name, parent)]
                span[0] += 1
                span[1] += duration
                span[2] += duration - frame[1]
                hits[placement] += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every layer at the place the program looks it up."""
        from tridephase import analysis, evolution, measures, reservoir, states

        counters, gamma_keys = self.counters, self.gamma_keys

        def quad_after(args, result):
            counters["reservoir.quad.neval"] += result[2]["neval"]
            counters["reservoir.quad.max_abserr"] = max(counters["reservoir.quad.max_abserr"], result[1])

        def gamma_after(args, result):
            res, t, method = args[:3]
            gamma_keys.add((res, t, method))

        def counting(metric):
            def before(args):
                curve = args[0]

                def counted(t):
                    counters[metric] += 1
                    return curve(t)

                return (counted,) + tuple(args[1:])
            return before

        integrate = reservoir.integrate
        integrate.quad = self.wrap("reservoir.quad", "reservoir.integrate.quad", integrate.quad, after=quad_after)
        evolution.gamma = self.wrap("reservoir.gamma", "evolution.gamma", evolution.gamma, after=gamma_after)
        analysis.dephasing_factors = self.wrap(
            "evolution.dephasing_factors", "analysis.dephasing_factors", analysis.dephasing_factors)
        analysis.evolve = self.wrap("evolution.evolve", "analysis.evolve", analysis.evolve)
        for module, label in ((evolution, "evolution"), (measures, "measures")):
            module.assert_density_matrix = self.wrap(
                "states.assert_density_matrix", f"{label}.assert_density_matrix",
                module.assert_density_matrix)
        for module, label in ((states, "states"), (measures, "measures")):
            module.hermitian_eigenvalues = self.wrap(
                "linalg.hermitian_eigenvalues", f"{label}.hermitian_eigenvalues",
                module.hermitian_eigenvalues)
        measures.partial_transpose = self.wrap(
            "linalg.partial_transpose", "measures.partial_transpose", measures.partial_transpose)
        negativity = measures.negativity
        analysis.negativity = self.wrap("measures.negativity", "analysis.negativity", negativity)
        measures.negativity = self.wrap("measures.negativity", "measures.negativity", negativity)
        for key, name in (
            ("gmc", "gmc_x_state"),
            ("tripartite_negativity", "tripartite_negativity"),
            ("l1_coherence", "l1_coherence"),
        ):
            analysis.MEASURES[key] = self.wrap(f"measures.{name}", f"MEASURES.{key}", analysis.MEASURES[key])
        for name in ("preservation_time_numeric", "characteristic_time"):
            setattr(analysis, name, self.wrap(
                f"analysis.{name}", f"analysis.{name}", getattr(analysis, name),
                before=counting(f"analysis.{name}.curve_evals")))
        analysis.freezing_intervals = self.wrap(
            "analysis.freezing_intervals", "analysis.freezing_intervals", analysis.freezing_intervals)
        analysis.run_sweep = self.wrap("analysis.run_sweep", "analysis.run_sweep", analysis.run_sweep)
        for name in ("cmd_evolve", "cmd_measure", "cmd_timescales", "cmd_sweep"):
            setattr(cli, name, self.wrap("cli.cmd", f"cli.{name}", getattr(cli, name)))
        return self.wrap("cli.main", "cli.main", cli.main)


def call(main, argv, sink, probe=None):
    """Wall time of one `main(argv)` call, minus probe time, and the probe's samples."""
    with contextlib.redirect_stdout(sink), (probe or contextlib.nullcontext()):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"tridephase {argv[0]} exited with code {code}")
    ticks = probe.samples if probe else []
    return [elapsed - sum(ticks), ticks]


def run(spec: dict) -> dict:
    argv, seconds = spec["argv"], spec["seconds"]
    start = time.perf_counter()
    probe = None if spec["trace"] else SpeedProbe(PROBE_INTERVAL_S)
    reference = Sink(keep=True)
    samples = [call(cli.main, argv, reference, probe)]
    identical = True

    def timed_calls(main, samples, until, minimum, after_each=None):
        nonlocal identical
        while len(samples) < minimum or time.perf_counter() < until:
            sink = Sink()
            samples.append(call(main, argv, sink, probe))
            identical &= sink.digest.digest() == reference.digest.digest()
            if after_each is not None:
                after_each()
        return samples

    result = {
        "output": "".join(reference.chunks),
        "bytes_out": reference.bytes,
    }
    if not spec["trace"]:
        result["samples"] = timed_calls(cli.main, samples, start + seconds, MIN_UNTRACED_CALLS)
    else:
        result["samples"] = timed_calls(cli.main, samples, start + seconds / 2, 1)
        tracer = Tracer()
        distinct: list[float] = []
        gamma_calls_seen = 0

        def after_each():
            # distinct (reservoir, t, method) keys over Gamma calls, per CLI call
            nonlocal gamma_calls_seen
            calls = tracer.hits["evolution.gamma"] - gamma_calls_seen
            gamma_calls_seen += calls
            distinct.append(len(tracer.gamma_keys) / calls if calls else 0.0)
            tracer.gamma_keys.clear()

        result["traced_samples"] = timed_calls(tracer.install(), [], start + seconds, 1, after_each)
        result["spans"] = [[name, parent, *v] for (name, parent), v in tracer.spans.items()]
        result["hits"] = dict(tracer.hits)
        result["counters"] = dict(tracer.counters)
        result["gamma_distinct_ratio"] = distinct
    result["identical"] = identical
    result["peak_rss_kib"] = peak_rss_kib()
    return result


def peak_rss_kib() -> int:
    """This process's own peak resident set (VmHWM).

    ru_maxrss would also count the parent's resident set at the time of the
    fork, which Linux carries across exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise SystemExit("no VmHWM in /proc/self/status")


def main() -> None:
    spec = json.load(sys.stdin)
    loaded = os.path.realpath(cli.__file__)
    if not loaded.startswith(os.path.realpath(spec["src"]) + os.sep):
        raise SystemExit(f"tridephase was imported from {loaded}, not from {spec['src']}")
    json.dump(run(spec), sys.stdout)


if __name__ == "__main__":
    main()
