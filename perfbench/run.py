"""The repository's benchmark: one command, three closed-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve_ingress --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
rounds untraced and then traced, and prints every per-layer metric.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it,
each starting with ``#``, describe the host and the run.  The exit code is
0 only when every check passed and no operation failed.  A run whose
process was kept off the CPU for much of its timed rounds (another busy
process on the host) prints no result and exits 3.

``--steadiness N`` instead runs every workload N times in each of two sets
(one seed per run, alternating workloads), prints the median and quartiles
of each end-to-end metric, and compares the two sets against the bounds in
``BENCHMARK.json``.

See README.md in this directory for the workloads, the metrics and the
reference figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups per run; set-up time is reported as their median
SETUPS = 5
#: modules every workload needs before its first operation; each set-up
#: times their import in a fresh interpreter
PRELOAD = ("numpy", "scipy.optimize", "repro.serving.server",
           "repro.experiments.harness", "repro.workloads.generator", "workloads")
#: the least share of the timed rounds' wall time the process must spend on
#: a CPU; the benchmark alone reads 0.97 to 0.99 on the reference host
CONTENDED_SHARE = 0.9
#: rounds per second of the traced run's two passes (untraced and traced),
#: so that both together take about ``--seconds`` on the reference host
TRACE_ROUNDS_PER_S = {"serve_ingress": 1.1, "serve_churn": 1.3, "paper_campaign": 0.8}
#: the speed probe's median on the reference host (README, "Host noise");
#: times are reported in that host's units
PROBE_REFERENCE_MS = 6.0

_PROBE_DOC = json.dumps(
    [{"id": f"n{i}", "capacity": float(i % 7), "children": [i, i + 1]} for i in range(300)]
)


def _probe_once() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    table = {("k", i): [i, str(i)] for i in range(3_000)}
    sorted(table.items(), key=lambda kv: kv[1][1])
    for _ in range(4):
        json.dumps(json.loads(_PROBE_DOC))
    return time.perf_counter() - start


def probe_ms() -> float:
    """Milliseconds of a fixed stdlib-only mix: how fast the host is now.

    The host's speed drifts by a third over minutes, and the drift slows
    this mix about as much as it slows the workloads.  Dividing each
    measured time by the probe run beside it, in units of
    :data:`PROBE_REFERENCE_MS`, removes most of that drift.
    """
    return statistics.median(_probe_once() for _ in range(5)) * 1e3


def host_facts() -> Dict[str, Any]:
    import numpy
    import scipy

    from repro.algorithms.common import get_default_engine

    head = ROOT / ".git" / "HEAD"
    revision = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                revision = ref_file.read_text().strip()
    return {
        "revision": revision,
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "engine": get_default_engine(),
        "native_kernels_compiled": any((ROOT / "build" / "native").glob("_repro_native-*")),
    }


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (1..99) as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Contended(Exception):
    """The process was off the CPU for too much of its timed rounds."""


def timed_rounds(workload: Any, tally: Any, *, rounds: Optional[int] = None,
                 seconds: float = 0.0) -> Tuple[List[float], List[float]]:
    """Run whole rounds: ``rounds`` of them, or until ``seconds`` have passed.

    Returns each operation's latency scaled to the reference host, using
    the probes run before and after its round, and the probe times.  Raises
    :class:`Contended` when the rounds' CPU time falls below
    :data:`CONTENDED_SHARE` of their wall time: the probe then no longer
    slows as the workload does, and the scaled figures are not the
    program's.
    """
    probes = [probe_ms()]
    scaled: List[float] = []
    start = time.perf_counter()
    cpu = wall = 0.0
    done = 0
    while True:
        first = tally.attempted
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        workload.run_round(tally)
        cpu += time.process_time() - cpu_start
        wall += time.perf_counter() - wall_start
        probes.append(probe_ms())
        scale = 2 * PROBE_REFERENCE_MS / (probes[-2] + probes[-1])
        scaled += [latency * scale for latency in tally.latencies[first:]]
        done += 1
        if done == rounds or (rounds is None and time.perf_counter() - start >= seconds):
            break
    print(f"# cpu share of the timed rounds: {cpu / wall:.3f}")
    if cpu < CONTENDED_SHARE * wall:
        raise Contended(f"the process ran on a CPU for {cpu:.2f} s of the rounds' "
                        f"{wall:.2f} s; another busy process shares the host")
    return scaled, probes


def import_s() -> float:
    """Seconds a fresh interpreter takes to import :data:`PRELOAD`."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
            + "; ".join(f"import {name}" for name in PRELOAD)
            + "; print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def run_plain(cls: Any, seed: int, seconds: float,
              rounds: Optional[int] = None) -> Tuple[Any, Dict[str, Tuple[float, str]], List[str]]:
    """The end-to-end run: tracing off, whole rounds for ``seconds``.

    Each of the :data:`SETUPS` set-ups is the import of :data:`PRELOAD` in
    a fresh interpreter plus the workload's own set-up in this one, scaled
    by the probes before and after it; ``setup_s`` is their median.  With
    ``rounds`` the run does exactly that many rounds instead of
    ``seconds``, so its ``cost_over_bound`` does not depend on the host's
    speed.
    """
    from workloads import Tally

    imports: List[float] = []
    builds: List[float] = []
    scaled_setups: List[float] = []
    notes: List[str] = []
    before = probe_ms()
    for _ in range(SETUPS):
        imports.append(import_s())
        workload = None  # drop the previous set-up before building the next
        begin = time.perf_counter()
        workload = cls(seed)
        builds.append(time.perf_counter() - begin)
        notes += workload.setup_errors
        after = probe_ms()
        scaled_setups.append((imports[-1] + builds[-1]) * 2 * PROBE_REFERENCE_MS
                             / (before + after))
        before = after
    tally = Tally()
    lat, probes = timed_rounds(workload, tally, rounds=rounds, seconds=seconds)
    raw = tally.latencies
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "throughput_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p95_ms": (quantile(lat, 95) * 1e3, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "cost_over_bound": (tally.cost / tally.bound if tally.bound else float("nan"),
                            "ratio"),
    }
    print("# unscaled: set-ups " + ", ".join(
              f"{i:.3f} + {b:.3f} s" for i, b in zip(imports, builds))
          + f" (imports + build), {len(raw) / sum(raw):.2f} ops/s, "
          f"p50 {statistics.median(raw) * 1e3:.3f} ms, p95 {quantile(raw, 95) * 1e3:.3f} ms, "
          f"p99 {quantile(raw, 99) * 1e3:.3f} ms")
    print(f"# probe: median {statistics.median(probes):.3f} ms, "
          f"min {min(probes):.3f}, max {max(probes):.3f} over {len(probes)} probes; "
          f"scaled p99 {quantile(lat, 99) * 1e3:.3f} ms")
    return tally, metrics, notes


def run_traced(cls: Any, seed: int, seconds: float) -> Tuple[Any, Dict[str, Tuple[float, str]], List[str]]:
    """The per-layer run: the same rounds untraced, then traced."""
    from tracing import Tracer
    from workloads import Tally

    rounds = max(1, round(seconds * TRACE_ROUNDS_PER_S[cls.name]))
    notes: List[str] = []
    passes = []
    tracer = Tracer()
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            workload = None
            workload = cls(seed)
            notes += workload.setup_errors
            generator_s = tracer.self_s["generator"]
            tracer.reset()
            hits, lookups = workload.pool_counts()
            tally = Tally()
            scaled, _ = timed_rounds(workload, tally, rounds=rounds)
            end_hits, end_lookups = workload.pool_counts()
        finally:
            tracer.uninstall()
        passes.append((tally, sum(scaled)))
    (untraced, untraced_s), (tally, traced_s) = passes
    metrics = tracer.metrics({
        "envelopes": tally.envelopes,
        "bytes_in": tally.bytes_in,
        "bytes_out": tally.bytes_out,
        "pool_hits": end_hits - hits,
        "pool_lookups": end_lookups - lookups,
    })
    metrics["generator.s"] = (generator_s, "s")
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
    print(f"# traced {rounds} rounds, {tally.attempted} operations per pass")
    tally.latencies += untraced.latencies
    tally.failed += untraced.failed
    tally.errors += untraced.errors
    return tally, metrics, notes


def run_once(args: argparse.Namespace) -> int:
    start_probe = probe_ms()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for name in PRELOAD:
        importlib.import_module(name)
    from workloads import WORKLOADS

    print("# host: " + json.dumps(host_facts(), sort_keys=True))
    cls = WORKLOADS[args.workload]
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    try:
        if args.trace:
            tally, metrics, notes = run_traced(cls, args.seed, args.seconds)
        else:
            tally, metrics, notes = run_plain(cls, args.seed, args.seconds, args.rounds)
    except Contended as contended:
        print(f"# contended, no result: {contended}")
        print(f"error: contended run: {contended}", file=sys.stderr)
        return 3
    end_probe = probe_ms()
    print(f"# host.calibration_ms: start {start_probe:.3f}, end {end_probe:.3f}")
    if args.trace:
        metrics["host.calibration_ms"] = ((start_probe + end_probe) / 2, "ms")
    for note in notes:
        print(f"# set-up check failed: {note}")
    for error in tally.errors:
        print(f"# operation failed: {error}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# {args.workload}: attempted {tally.attempted}, failed {tally.failed}")
    correct = not notes
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if correct and tally.failed == 0 else 1


# --------------------------------------------------------------------------- #
# steadiness mode
# --------------------------------------------------------------------------- #
def _one_run(workload: str, seed: int, seconds: float) -> Optional[Dict[str, Any]]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"# run {workload} seed {seed} exited {done.returncode}: "
              f"{(lines or [done.stderr.strip()])[-1][:300]}")
        return None
    return json.loads(lines[-1])


def steadiness(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds
    medians: List[Dict[Tuple[str, str], float]] = []
    ok = True
    for set_no in range(2):
        values: Dict[Tuple[str, str], List[float]] = {}
        shares: Dict[str, set] = {}
        for run in range(args.steadiness):
            seed = 1000 * set_no + run + 1
            for workload in names:
                result = _one_run(workload, seed, seconds)
                if result is None:
                    ok = False
                    continue
                shares.setdefault(workload, set()).add(
                    result["failed"] / result["attempted"])
                print(f"# {workload} seed {seed}: " + ", ".join(
                    f"{name} {entry['value']:.6g}" for name, entry in result["metrics"].items()),
                    flush=True)
                for metric, entry in result["metrics"].items():
                    values.setdefault((workload, metric), []).append(entry["value"])
        print(f"# set {set_no + 1}: {args.steadiness} runs per workload, "
              f"seeds {1000 * set_no + 1}..{1000 * set_no + args.steadiness}")
        current = {}
        for (workload, metric), series in sorted(values.items()):
            q1, median, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                              else (series[0],) * 3)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds[metric]["bound"]
            steady = spread <= bound
            ok &= steady
            current[(workload, metric)] = median
            print(f"{workload:15s} {metric:17s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%} of bound {bound:.0%} "
                  f"{'ok' if steady else 'TOO WIDE'}")
        for workload, share in sorted(shares.items()):
            if len(share) != 1:
                ok = False
                print(f"{workload}: the failed share differs between runs: {sorted(share)}")
        medians.append(current)
    print("# set 2 against set 1")
    for key, first in sorted(medians[0].items()):
        second = medians[1].get(key)
        if second is None:
            continue
        metric = bounds[key[1]]
        change = (second - first) / first
        worse = change if metric["better"] == "lower" else -change
        within = worse <= metric["bound"]
        ok &= within
        print(f"{key[0]:15s} {key[1]:17s} {first:12.6g} -> {second:12.6g} "
              f"({change:+.2%}) {'ok' if within else 'WORSE THAN BOUND'}")
    print(json.dumps({"steady": ok}))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("serve_ingress", "serve_churn", "paper_campaign"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead of --seconds (trace 0)")
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="runs per workload in each of two sets (steadiness mode)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required outside steadiness mode")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
