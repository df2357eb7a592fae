"""Benchmark of zariskivol: one closed-loop caller, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain_sweep --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` beside this directory; without it
the run exits with code 2 and prints no result.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced pass with ``--trace 1``.  See README.md here.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 7
# The host-speed reference: a fixed Fraction loop that skips zariskivol,
# run for REF_ITERATIONS after every REF_EVERY_S of op time.
REF_ITERATIONS = 100
REF_EVERY_S = 0.02
# An op is calibrated by this many chunks on either side of it (~0.1 s).
REF_WINDOW = 5
# Reference iterations per second on an idle core of the 2-CPU Xeon VM the
# benchmark was defined on; timings are reported at this host speed.
NOMINAL_REF_RATE = 175_000.0


def reference_chunk() -> float:
    """Seconds taken by REF_ITERATIONS of the reference loop.

    The collector is off so that the heap the workload built does not
    make the reference slower.
    """
    gc.disable()
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        a = Fraction(i % 97 + 1, i % 89 + 2)
        b = Fraction(i % 13 + 1, i % 11 + 3)
        total += (a * b - a / b).numerator
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def slowdown(chunks: list[float]) -> float:
    """How much slower than NOMINAL_REF_RATE the host ran the reference."""
    return statistics.fmean(chunks) * NOMINAL_REF_RATE / REF_ITERATIONS


def import_library():
    """Import zariskivol from this checkout's src/ and nowhere else."""
    package = importlib.import_module("zariskivol")
    where = os.path.dirname(os.path.abspath(package.__file__))
    if where != os.path.join(SRC, "zariskivol"):
        raise ImportError(f"zariskivol was imported from {where}, not {SRC}")
    return workloads.library_namespace(package)


def set_up(name: str, seed: int, scale: float, workdir: str):
    """Import the library and build the workload, SETUP_REPEATS times.

    Every repeat but the last drops the modules the import added, so each
    one pays the import again.  REF_WINDOW reference chunks run between
    the repeats; each repeat is calibrated by the chunks on either side of
    it.  Returns the last build and the median calibrated time.
    """
    times = []
    chunks = [reference_chunk() for _ in range(REF_WINDOW)]
    for rep in range(SETUP_REPEATS):
        before = set(sys.modules)
        start = time.perf_counter()
        zv = import_library()
        workload = workloads.build(name, zv, seed, scale, workdir)
        elapsed = time.perf_counter() - start
        if rep + 1 < SETUP_REPEATS:
            for mod in set(sys.modules) - before:
                del sys.modules[mod]
        chunks += [reference_chunk() for _ in range(REF_WINDOW)]
        times.append(elapsed / slowdown(chunks[-2 * REF_WINDOW :]))
    return zv, workload, statistics.median(times)


class Tally:
    """Latencies, host-speed samples, failures and the output digest of a run."""

    def __init__(self):
        # Typed arrays: the run's peak RSS should hardly depend on how many
        # passes the host speed let it make.
        self.latencies = array.array("d")
        self.ref_chunks = array.array("d")  # reference_chunk() samples
        self.ref_at = array.array("q")  # per latency: len(ref_chunks) when it ended
        self.failed = 0
        self.messages: list[str] = []
        self.digest = hashlib.sha256()
        self.renders: dict = {}

    def record(self, op, index: int, first_pass: bool, elapsed: float, out, error) -> None:
        self.latencies.append(elapsed)
        self.ref_at.append(len(self.ref_chunks))
        if error is not None:
            self._fail(f"{op.stratum}: {type(error).__name__}: {error}")
            return
        message = op.check(out)
        if message is None:
            text = op.render(out)
            seen = self.renders.setdefault(op.key, text)
            if seen != text:
                message = f"output of {op.key!r} differs between repeats"
            elif first_pass:
                self.digest.update(f"{index}\0{text}\0".encode())
        if message is not None:
            self._fail(f"{op.stratum}: {message}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def run_pass(workload, tally: Tally, first_pass: bool, tracer=None, keep=None) -> float:
    """Run every op once in order; returns the summed op latency.

    A reference chunk runs after every REF_EVERY_S of op time, so the
    host's speed is sampled all through the pass.
    """
    busy = 0.0
    since_ref = 0.0
    clock = time.perf_counter
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op_id = index
        out = error = None
        start = clock()
        try:
            out = op.call()
        except Exception as exc:  # an unexpected library error is a failed op
            error = exc
        elapsed = clock() - start
        busy += elapsed
        tally.record(op, index, first_pass, elapsed, out, error)
        since_ref += elapsed
        if since_ref >= REF_EVERY_S:
            tally.ref_chunks.append(reference_chunk())
            since_ref = 0.0
        if keep is not None:
            keep.append(out)
    return busy


def run_passes(workload, tally: Tally, seconds: float) -> tuple[int, float]:
    """Whole passes while another one fits into ``seconds`` (at least one)."""
    passes = 0
    busy = 0.0
    start = time.perf_counter()
    while True:
        busy += run_pass(workload, tally, first_pass=passes == 0)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return passes, busy


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def calibrated(tally: Tally) -> list[float]:
    """Every op latency at the nominal host speed.

    A shared host runs the same code up to ~2x slower, in spells from
    seconds to minutes long.  Each latency is divided by the slowdown of
    the REF_WINDOW reference chunks run just before and just after the op.
    """
    chunks = tally.ref_chunks
    return [
        elapsed / slowdown(chunks[max(0, at - REF_WINDOW) : at + REF_WINDOW])
        for elapsed, at in zip(tally.latencies, tally.ref_at)
    ]


def end_to_end(tally: Tally, setup_s: float) -> dict:
    lat = sorted(calibrated(tally))
    return {
        "ops_per_s": (len(lat) / math.fsum(lat), "1/s"),
        "op_p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
        "op_p99_ms": (percentile(lat, 0.99) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LAYER_UNITS = {"calls": "count", "self_s": "s", "mean_n": "rows", "bytes_read": "bytes"}


def per_layer(zv, workload, tally: Tally, seconds: float, spans_path: str) -> dict:
    """Untraced passes for the baseline, then exactly one traced pass.

    Only the traced pass feeds the layer metrics, so two runs with the same
    seed give the same call counts whatever the host speed.
    """
    passes, busy = run_passes(workload, tally, seconds / 2)
    untraced = passes * len(workload.ops) / busy
    tracer = tracing.Tracer()
    tracer.install([zv.package] + [getattr(zv, name) for name in tracing.MODULES])
    outputs: list = []
    try:
        traced_busy = run_pass(workload, tally, False, tracer, outputs)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    traced = len(workload.ops) / traced_busy

    metrics = {
        key: (value, LAYER_UNITS.get(key.rpartition(".")[2], "count"))
        for key, value in tracing.layer_metrics(tracer.spans).items()
    }
    codes = [0] * 4
    stdout_bytes = 0
    if workload.name == "cli_mix":
        for out in outputs:
            if out is not None:
                codes[out[0]] += 1
                stdout_bytes += len(out[1].encode())
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    for code, count in enumerate(codes):
        metrics[f"cli.exit_code.{code}"] = (count, "count")
    metrics["trace.ops_per_s"] = (traced, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.overhead_pct"] = ((untraced / traced - 1) * 100, "%")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale: float = 1.0) -> int:
    """Run one workload and print the result line; ``scale`` shrinks a pass."""
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zariskivol", "__init__.py")):
        print(f"error: no zariskivol sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, scale: float, workdir: str) -> int:
    try:
        zv, workload, setup_s = set_up(args.workload, args.seed, scale, workdir)
    except ImportError as exc:
        print(f"error: cannot import zariskivol: {exc}", file=sys.stderr)
        return 2
    gc.collect()
    tally = Tally()
    tally.ref_chunks.append(reference_chunk())  # tiny passes may take no other
    if args.trace:
        spans_path = os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.tsv")
        metrics = per_layer(zv, workload, tally, args.seconds, spans_path)
    else:
        _, busy = run_passes(workload, tally, args.seconds)
        metrics = end_to_end(tally, setup_s)
    ref_rate = REF_ITERATIONS / statistics.fmean(tally.ref_chunks)
    if args.trace:
        metrics["host.ref_ops_per_s"] = (ref_rate, "1/s")

    attempted = len(tally.latencies)
    strata = " ".join(f"{k}={v}" for k, v in workload.strata.items())
    print(f"workload {workload.name} seed {args.seed} inputs {workload.fingerprint} ops/pass {len(workload.ops)}")
    print(f"strata {strata}")
    print(f"ops_attempted {attempted} fail_ratio {tally.failed / attempted:.6f} passes {attempted // len(workload.ops)}")
    print(f"host.ref_ops_per_s {ref_rate:.0f} over {len(tally.ref_chunks)} chunks, slowdown {slowdown(tally.ref_chunks):.4f}")
    if not args.trace:
        lat = sorted(tally.latencies)
        print(f"uncalibrated ops_per_s {len(lat) / busy:.6g} op_p50_ms {percentile(lat, 0.5) * 1e3:.6g} op_p99_ms {percentile(lat, 0.99) * 1e3:.6g}")
    print(f"digest {workload.name} {tally.digest.hexdigest()}")
    for message in tally.messages:
        print(f"FAIL {message}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
