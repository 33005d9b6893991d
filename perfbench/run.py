"""Benchmark of the fermitree pipeline, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; fermitree is imported from ``src/``.  With
``--trace 0`` the workload's passes run back to back for S seconds with
tracing off and the end-to-end metrics are reported.  With ``--trace 1``
half the time runs untraced passes, half runs traced passes with a span
around every call into fermitree, and one more pass runs under
``tracemalloc``; the per-layer metrics come from those spans.

Pass times are reported as multiples of a gauge: a fixed computation
(building and scanning a dict of tuples, and numpy sorts; no fermitree)
timed right after every pass.  On a shared machine the host speed drifts
by tens of percent within seconds; the ratio of each pass to the gauge
that follows it cancels most of that drift, while a change to fermitree
moves it as much as it moves the pass.  The raw seconds are printed and
kept in the provenance.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it name every
metric with its unit and give the run's provenance.  ``--workload all``
runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

# One BLAS thread, so that the only extra threads are qubit-tomography's
# sampling workers.  Idle OpenBLAS threads spin; on a shared 2-CPU host they
# made numpy's import take 70 ms or 140 ms depending on whether the other
# CPU was busy.  Set before numpy is imported; set-up children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from tracing import NullTracer, Tracer, layer_metric  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Set-up samples of a timed run, spread evenly over it.
SETUP_REPEATS = 15
# The tail is one fixed percentile, so that runs with different pass counts
# report the same one; MIN_PASSES keeps at least ten passes beyond it.
TAIL_PERCENTILE = 75
MIN_PASSES = 41
# Each half of a traced run (untraced, then traced) makes at least this many.
TRACE_MIN_PASSES = 3
# A run keeps going past --seconds until it has enough passes, up to this
# multiple of --seconds.
MAX_OVERRUN = 3.0

# The gauge: about 22 ms of interpreter and allocator work and 28 ms of
# numpy sorting on a 2-CPU x86_64 host.
GAUGE_ITEMS = 40_000
GAUGE_SORTS = 3
GAUGE_ARRAY = np.random.default_rng(0).random(1 << 20)
# The gauge's time on that host.  setup_s is reported in seconds at this
# gauge speed: each set-up sample is divided by the gauge timed just before
# it and multiplied by GAUGE_REF_S.
GAUGE_REF_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "pass_rel.p50": "gauge",
    "pass_rel.tail": "gauge",
    "items_per_gauge": "1/gauge",
    "peak_rss_mb": "MB",
    "ok_fraction": "fraction",
}

# Per-layer metric names are "<span name>.<statistic>"; see tracing.layer_metric.
PER_LAYER_STATS = {
    "ternary.verify_mapping": ("s", "pairs"),
    "ternary.verify_table.bk": ("s",),
    "ternary.verify_table.jw": ("s",),
    "ternary.build_mapping": ("s",),
    "ternary.mapping_to_dict": ("s",),
    "ternary.mapping_from_dict": ("s",),
    "baselines.bravyi_kitaev": ("s",),
    "baselines.jordan_wigner": ("s",),
    "baselines.weight_stats": ("s",),
    "statesim.attach_ancillas": ("s", "amplitudes", "peak_mb"),
    "statesim.bell_outcome_distribution": ("s", "bytes_computed"),
    "statesim.sample_bell_shots": ("s", "cpu_s", "peak_mb", "shots"),
    "statesim.sample_bell_shots_w1": ("s",),
    "tomography.estimate_all_k_rdms": ("s", "elements", "gathers", "peak_mb"),
    "statesim.expectation": ("s", "calls"),
    "tomography.estimates_to_rows": ("s",),
    "fermion.estimate_monomial": ("s", "calls", "gathers"),
    "fermion.encode_fock_state": ("s",),
    "fermion.encode_monomial": ("s",),
    "fermion.exact_fermionic_rdm": ("s",),
    "statesim.to_jsonl": ("s", "bytes"),
    "statesim.from_jsonl": ("s",),
    "tomography.merge_streams": ("s",),
    "qudit.estimate_hw_correlator": ("s", "calls", "gathers"),
    "qudit.exact_hw_correlator": ("s",),
}
STAT_UNITS = {"s": "s", "cpu_s": "s", "peak_mb": "MB", "bytes": "bytes",
              "bytes_computed": "bytes"}
PER_LAYER = {
    f"{span}.{stat}": STAT_UNITS.get(stat, "count")
    for span, stats in PER_LAYER_STATS.items()
    for stat in stats
}
PER_LAYER["trace.overhead_s"] = "s"

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fermitree; print(time.perf_counter() - t)"
)


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_fermitree():
    """Import fermitree from this checkout's src/, never from site-packages."""
    if not (SRC / "fermitree" / "__init__.py").is_file():
        raise SystemExit(f"error: no fermitree sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fermitree

    if not Path(fermitree.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: fermitree imported from {fermitree.__file__}, not {SRC}")
    return fermitree


def child_import_seconds() -> float:
    """Time to import fermitree (and numpy) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip())


def gauge() -> float:
    """Seconds taken by the gauge computation."""
    t0 = time.perf_counter()
    table = {(i, i ^ 0x5555): (i & 3, str(i)) for i in range(GAUGE_ITEMS)}
    total = 0
    for key, value in table.items():
        total += key[1] + value[0] + len(value[1])
    for _ in range(GAUGE_SORTS):
        np.sort(GAUGE_ARRAY)
    return time.perf_counter() - t0


def tail(values: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile (nearest rank at or above it)."""
    ordered = sorted(values)
    return ordered[math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1]


def git(*args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def sha256_of(directory: Path) -> str:
    """One SHA-256 over the names and contents of the directory's *.py files."""
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(fermitree, wl, args) -> dict:
    in_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes,
        "items_per_pass": wl.items,
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if in_repo else None,
        "source_sha256": sha256_of(SRC / "fermitree"),
        "bench_sha256": sha256_of(ROOT / "perfbench"),
        "fermitree": fermitree.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Counter:
    """Attempted and failed operations; failures are logged to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, wl, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for line in failures[:5]:
                print(f"{wl.name}: check failed: {line}", file=sys.stderr)


def run_one(wl, inputs, tr, counter: Counter, traced: bool, expected=None):
    """One pass plus its untimed check; returns (seconds, output) or None."""
    try:
        if traced:
            with tr.span("pass") as sp:
                out = wl.run_traced_pass(inputs, tr)
            seconds = sp.end - sp.start
            wl.probe(inputs, out, tr)
        else:
            t0 = time.perf_counter()
            out = wl.run_pass(inputs, tr)
            seconds = time.perf_counter() - t0
        failures = wl.check(inputs, out)
        if expected is not None and wl.fingerprint(out) != expected:
            failures.append("traced pass output differs from the timed pass")
    except Exception:
        traceback.print_exc()
        counter.record(wl, ["pass raised"])
        return None
    counter.record(wl, failures)
    return seconds, out


def loop(wl, inputs, tr, counter, seconds, min_passes, traced=False, expected=None,
         after=None):
    """Closed loop: passes back to back for ``seconds`` and ``min_passes``.

    ``after(elapsed)``, when given, runs after every pass, and each pass
    time is paired with its result.
    """
    times, last = [], None
    start = time.perf_counter()
    while True:
        if traced:
            tr.pass_id += 1
        result = run_one(wl, inputs, tr, counter, traced, expected)
        extra = after(time.perf_counter() - start) if after else None
        if result is not None:
            times.append(result[0] if after is None else (result[0], extra))
            last = result[1]
        elapsed = time.perf_counter() - start
        if elapsed >= seconds * MAX_OVERRUN or (
            elapsed >= seconds and len(times) >= min_passes
        ):
            return times, last


def setup_once(wl, seed: int, workdir: str):
    """Seconds to import fermitree afresh and generate the inputs, and the inputs."""
    imported = child_import_seconds()
    t0 = time.perf_counter()
    inputs = wl.setup(seed, workdir)
    return imported + time.perf_counter() - t0, inputs


def timed_run(wl, inputs, args, counter, workdir: str) -> tuple[dict, dict]:
    """Closed-loop passes, each followed by the gauge; set-ups spread among them."""
    setups = []

    def after(elapsed):
        gauge_s = gauge()
        if len(setups) < SETUP_REPEATS * min(1.0, elapsed / args.seconds):
            setups.append((setup_once(wl, args.seed, workdir)[0], gauge_s))
        return gauge_s

    paired, _ = loop(wl, inputs, NullTracer(), counter, args.seconds, MIN_PASSES,
                     after=after)
    if not paired:
        raise RuntimeError("no pass completed")
    times = [t for t, _ in paired]
    ratios = [t / g for t, g in paired]
    p50 = statistics.median(ratios)
    metrics = {
        "setup_s": statistics.median(s / g for s, g in setups) * GAUGE_REF_S,
        "pass_rel.p50": p50,
        "pass_rel.tail": tail(ratios),
        "items_per_gauge": wl.items / p50,
    }
    info = {"passes": len(times), "setups": len(setups),
            "setup_s": statistics.median(s for s, _ in setups),
            "pass_s.p50": statistics.median(times), "pass_s.tail": tail(times),
            "items_per_s": wl.items / statistics.median(times),
            "gauge_s": statistics.median(g for _, g in paired)}
    return metrics, info


def traced_run(wl, inputs, args, counter, trace_path: Path, header: dict) -> tuple[dict, dict]:
    base_times, base_out = loop(wl, inputs, NullTracer(), counter, args.seconds / 2,
                                TRACE_MIN_PASSES)
    if not base_times:
        raise RuntimeError("no untraced pass completed")
    expected = wl.fingerprint(base_out)
    tracer = Tracer()
    traced_times, _ = loop(wl, inputs, tracer, counter, args.seconds / 2,
                           TRACE_MIN_PASSES, traced=True, expected=expected)
    if not traced_times:
        raise RuntimeError("no traced pass completed")
    pass_ids = sorted({sp.pass_id for sp in tracer.spans
                       if sp.name == "pass" and sp.parent is None})

    tracemalloc.start()
    try:
        tracer.memory = True
        tracer.pass_id = -1
        run_one(wl, inputs, tracer, counter, traced=True, expected=expected)
    finally:
        tracer.memory = False
        tracemalloc.stop()

    metrics = {
        name: layer_metric(tracer, *name.rsplit(".", 1), pass_ids)
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(base_times)
    )
    tracer.write_jsonl(str(trace_path), header)
    info = {"untraced_passes": len(base_times), "traced_passes": len(traced_times),
            "spans": len(tracer.spans), "spans_file": str(trace_path.relative_to(ROOT))}
    return metrics, info


def run_workload(wl, args, fermitree) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    counter = Counter()
    header = provenance(fermitree, wl, args)
    try:
        _, inputs = setup_once(wl, args.seed, str(workdir))
        if args.trace:
            trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
            metrics, info = traced_run(wl, inputs, args, counter, trace_path, header)
        else:
            metrics, info = timed_run(wl, inputs, args, counter, str(workdir))
        try:
            extra = wl.run_extra_check(inputs)
        except Exception:
            traceback.print_exc()
            extra = ["extra check raised"]
        if extra is not None:
            counter.record(wl, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_fraction"] = 1 - counter.failed / counter.attempted
    units = PER_LAYER if args.trace else END_TO_END
    error_rate = counter.failed / counter.attempted
    print(json.dumps({"provenance": {**header, **info, "attempted": counter.attempted,
                                     "failed": counter.failed, "error_rate": error_rate}}))
    for name, unit in units.items():
        print(f"{wl.name}  {name:<44} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"{wl.name}  as measured over {info['passes']} passes: set-up "
              f"{info['setup_s']:.6g} s, gauge "
              f"{info['gauge_s']:.6g} s, pass p50 {info['pass_s.p50']:.6g} s, "
              f"pass p{TAIL_PERCENTILE} {info['pass_s.tail']:.6g} s, "
              f"{info['items_per_s']:.6g} items/s")
    print(f"{wl.name}  {'error_rate':<44} {error_rate:.6g} fraction "
          f"({counter.failed} of {counter.attempted} operations failed)")
    return {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None, workloads=None) -> int:
    fermitree = import_fermitree()
    import workloads as registry

    workloads = registry.WORKLOADS if workloads is None else workloads
    args = parse_args(argv, list(workloads))
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in workloads
        ]
        return max(codes)
    result = run_workload(workloads[args.workload], args, fermitree)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
