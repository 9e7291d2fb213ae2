"""nodalcheck benchmark: Monte Carlo trials through the public harness.

    python3 perfbench/run.py --workload {hom2d,hom1d,zeros} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
Each workload is a closed loop with one client: a trial is one call of
``homology_experiment(..., trials=1, seed=s)`` or
``zero_stats(N, trials=1, seed=s)``, and the next starts when it returns.
The trial seeds ``s`` are a pool ``0..pool-1`` with golden records
(``golden.json``); ``--seed`` fixes the order in which the pool is
walked.  A run walks whole passes over the pool until ``--seconds`` have
passed.  Every pass does the same work, so throughput and counts compare
across seeds.

``--trace 0`` prints the end-to-end metrics, with the trial times of hom1d
and zeros and every set-up time taken to a reference host speed
(``hostspeed.py``).  ``--trace 1`` runs every
trial twice, once traced and once not, and prints per-layer metrics as
totals per pass together with the tracing overhead.  The last line of
standard output is the result object; the line before it holds the run
metadata.  README.md maps each metric to its layer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import Capture, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACE_DIR = ROOT / ".perfbench"

DEPTH = 6
SETUP_REPEATS = 3
REFERENCE_GAP_S = 0.04  # trial time between two reference samples


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    N: int
    M_list: tuple  # empty for the zero statistics
    pool: int      # trial seeds 0..pool-1, each with a golden record
    tail: int      # percentile reported as trial_tail_ms
    corrected: bool  # trial times taken to the reference host speed

    def trial(self, experiments, seed: int):
        if self.M_list:
            return experiments.homology_experiment(
                self.dim, self.N, self.M_list, trials=1, D=DEPTH, seed=seed)
        return experiments.zero_stats(self.N, trials=1, seed=seed)


# A pass over hom2d's pool takes 30-40 s at the commit that defined the
# benchmark (2-core Xeon); hom1d and zeros pass in 0.35-0.75 s, so a 30 s
# run repeats each of their trials 40-80 times.  21 of the 60 hom2d trials
# certify M=32 after the full sweep, at 2-3x the cost of the others, and
# its p80 falls among them.  The host's slow state moves hom1d and zeros
# trials by up to 1.7x and hom2d trials barely, so only the 1D workloads'
# trial times are corrected by the host-speed reference (hostspeed.py).
WORKLOADS = {w.name: w for w in (
    # criterion-6 2D suite: fine-grid evaluation at 4097^2, stencil sweep,
    # component labelling; bimodal (early NotCertified vs full sweep)
    Workload("hom2d", 2, 3, (8, 16, 32), pool=60, tail=80, corrected=False),
    # 1D evaluator with few large calls; runs no 2D code
    Workload("hom1d", 1, 10, (50, 75, 105), pool=50, tail=80,
             corrected=True),
    # 1D evaluator with many small bisection calls
    Workload("zeros", 1, 50, (), pool=50, tail=80, corrected=True),
)}

END_TO_END = {
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYERS = (
    "experiments.homology_experiment",
    "experiments.zero_stats",
    "fields.draw_realization",
    "fields.evaluate",
    "fields.evaluate_grid_2d",
    "cubical.sign_grid",
    "homology.reference_betti",
    "homology.betti_pair",
    "homology.connected_components",
    "admissibility.validate_1d",
    "admissibility.validate_2d",
)

# counts summed per pass, reported as whole numbers
COUNTS = (
    "fields.evaluate.calls",
    "fields.evaluate.points",
    "fields.evaluate_grid_2d.calls",
    "fields.evaluate_grid_2d.points",
    "cubical.sign_grid.calls",
    "cubical.sign_grid.zero_flags",
    "homology.reference_betti.calls",
    "homology.betti_pair.calls",
    "homology.connected_components.calls",
    "admissibility.validate_1d.calls",
    "admissibility.validate_2d.calls",
    "admissibility.certified",
    "admissibility.not_certified",
    "admissibility.degenerate",
    "admissibility.violations",
)

PER_LAYER = {
    **{layer + ".self_s": "s" for layer in LAYERS},
    **{name: "count" for name in COUNTS},
    "homology.reference_betti.resolved_ratio": "ratio",
    "tracing_overhead_frac": "ratio",
    "self_time_share": "ratio",
    "error_rate": "ratio",
}

# experiments-level calls whose results the output check reads
CAPTURED = ("reference_betti", "betti_pair", "validate_1d", "validate_2d")


# ---------------------------------------------------------------------------
# Layer counters: count(counts, span_name, args, result)


def _points_1d(counts, name, args, result):
    counts[name + ".points"] += getattr(args[1], "size", 1)


def _points_2d(counts, name, args, result):
    counts[name + ".points"] += len(args[1]) * len(args[2])


def _zero_flags(counts, name, args, result):
    counts[name + ".zero_flags"] += result.zero_count


def _resolved(counts, name, args, result):
    counts[name + ".resolved"] += result is not None


_VERDICTS = {"Certified": "certified", "NotCertified": "not_certified",
             "Degenerate": "degenerate"}


def _verdict(counts, name, args, result):
    counts["admissibility." + _VERDICTS[result.status]] += 1
    counts["admissibility.violations"] += len(result.violations)


COUNTERS = {
    "fields.evaluate": _points_1d,
    "fields.evaluate_grid_2d": _points_2d,
    "cubical.sign_grid": _zero_flags,
    "homology.reference_betti": _resolved,
    "admissibility.validate_1d": _verdict,
    "admissibility.validate_2d": _verdict,
}


# ---------------------------------------------------------------------------
# Library, output check


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_library():
    """Import ``nodalcheck`` from this checkout with BLAS threads capped at nproc.

    Call before anything imports numpy.  Exits when the checkout holds
    no library sources, so the benchmark cannot time an installed copy.
    """
    if not (SRC / "nodalcheck" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nodalcheck sources under {SRC}")
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc())
    sys.path.insert(0, str(SRC))
    import nodalcheck
    from nodalcheck import experiments
    if not Path(nodalcheck.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported nodalcheck from "
                         f"{nodalcheck.__file__}, not from {SRC}")
    return experiments


def load_golden(workload: Workload) -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        records = json.load(fh)[workload.name]
    if len(records) < workload.pool:
        raise SystemExit(f"perfbench: {GOLDEN.name} holds {len(records)} "
                         f"{workload.name} records, the pool needs "
                         f"{workload.pool}")
    return records


def _betti(pair):
    return None if pair is None else [pair[0].as_list(), pair[1].as_list()]


def observe(workload: Workload, summary, captured: dict) -> dict:
    """The outputs of one trial that the golden record fixes."""
    if not workload.M_list:
        return {"zeros": int(summary.extra["mean_zero_count"])}
    per_M = summary.extra["records"][0].per_M
    outcomes = captured["validate_2d" if workload.dim == 2 else "validate_1d"]
    pairs = captured["betti_pair"]  # empty when the reference is unresolved
    return {
        "ref": _betti(captured["reference_betti"][0]),
        "M": {str(M): {"betti": _betti(pairs[i]) if pairs else None,
                       "status": outcomes[i].status,
                       "match": per_M[M]["match"]}
              for i, M in enumerate(workload.M_list)},
    }


def sound(workload: Workload, summary) -> bool:
    """Invariants every trial keeps, golden record or not."""
    if workload.M_list:
        return not summary.extra["soundness_exceptions"]
    return (summary.extra["all_counts_even"]
            and summary.extra["mean_zero_count"] % 2 == 0)


def run_trial(experiments, workload, seed, capture, golden) -> tuple:
    """One trial: (seconds, whether its outputs are correct)."""
    start = perf_counter()
    try:
        summary = workload.trial(experiments, seed)
    except Exception:
        elapsed = perf_counter() - start
        capture.take()
        traceback.print_exc()
        return elapsed, False
    elapsed = perf_counter() - start
    captured = capture.take()
    try:
        got = observe(workload, summary, captured)
        ok = sound(workload, summary) and got == golden[str(seed)]
    except (KeyError, IndexError, AttributeError):
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"perfbench: {workload.name} trial seed {seed} failed its "
              f"output check", file=sys.stderr)
    return elapsed, ok


# ---------------------------------------------------------------------------
# Measurement


def trial_order(workload: Workload, seed: int) -> list:
    order = list(range(workload.pool))
    random.Random(seed).shuffle(order)
    return order


def setup_seconds(workload: Workload, repeats: int, reference) -> tuple:
    """Set-up time over ``repeats`` fresh interpreters: (median, raw median).

    Each probe is taken to the reference host speed by the fastest of five
    reference samples just before it.
    """
    raw, corrected = [], []
    for _ in range(repeats):
        factor = reference.factor(reference.fastest(5))
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             str(workload.dim), str(workload.N)],
            capture_output=True, text=True, check=True, timeout=120)
        raw.append(float(done.stdout))
        corrected.append(raw[-1] * factor)
    return statistics.median(corrected), statistics.median(raw)


def nearest_rank(sorted_values, percentile: int):
    rank = -(-len(sorted_values) * percentile // 100)
    return sorted_values[max(rank, 1) - 1]


def measure(experiments, workload, order, seconds, capture, golden,
            reference) -> tuple:
    """Untraced whole passes: ({trial seed: latencies in s}, attempted, failed).

    On a corrected workload the reference kernel runs between trials,
    once per ``REFERENCE_GAP_S`` of trial time, so its samples see the
    same host states as the trials.
    """
    latencies = {seed: [] for seed in order}
    attempted = failed = 0
    since_reference = REFERENCE_GAP_S
    start = perf_counter()
    while True:
        for seed in order:
            if workload.corrected and since_reference >= REFERENCE_GAP_S:
                reference.sample()
                since_reference = 0.0
            elapsed, ok = run_trial(experiments, workload, seed, capture, golden)
            latencies[seed].append(elapsed)
            since_reference += elapsed
            attempted += 1
            failed += not ok
        if perf_counter() - start >= seconds:
            return latencies, attempted, failed


def end_to_end(workload, latencies, factor, setup_s) -> dict:
    """Metrics over the pool, each trial at the fastest of its repetitions.

    Other tenants of a shared host only ever add time, so the fastest
    repetition is the steadiest estimate of a trial's own cost; README.md
    gives the spreads measured both ways.  ``factor`` takes the times to
    the reference host speed (1 on an uncorrected workload).
    """
    best = sorted(factor * min(times) for times in latencies.values())
    return {
        "trials_per_s": len(best) / sum(best),
        "trial_p50_ms": 1e3 * statistics.median(best),
        "trial_tail_ms": 1e3 * nearest_rank(best, workload.tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def measure_traced(experiments, workload, order, seconds, capture, golden,
                   tracer) -> tuple:
    """Each trial traced and untraced, in alternating order, in whole passes.

    Returns (wall seconds of traced trials, of untraced trials, passes,
    attempted, failed).
    """
    wall = {True: 0.0, False: 0.0}
    passes = attempted = failed = 0
    start = perf_counter()
    while True:
        for j, seed in enumerate(order):
            for traced in ((True, False) if j % 2 == 0 else (False, True)):
                if traced:
                    with tracer.trial(attempted):
                        elapsed, ok = run_trial(experiments, workload, seed,
                                                capture, golden)
                else:
                    elapsed, ok = run_trial(experiments, workload, seed,
                                            capture, golden)
                wall[traced] += elapsed
                attempted += 1
                failed += not ok
        passes += 1
        if perf_counter() - start >= seconds:
            return wall[True], wall[False], passes, attempted, failed


def per_layer(tracer, traced_s, untraced_s, passes, attempted, failed) -> dict:
    self_s = tracer.self_times()
    counts = tracer.counts
    out = {layer + ".self_s": self_s[layer] / passes for layer in LAYERS}
    out.update({name: counts[name] // passes for name in COUNTS})
    ref_calls = counts["homology.reference_betti.calls"]
    out["homology.reference_betti.resolved_ratio"] = (
        counts["homology.reference_betti.resolved"] / ref_calls
        if ref_calls else 0.0)
    out["tracing_overhead_frac"] = traced_s / untraced_s - 1.0
    out["self_time_share"] = sum(self_s.values()) / traced_s
    out["error_rate"] = failed / attempted
    return out


# ---------------------------------------------------------------------------
# Run metadata


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = top.stdout.splitlines()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _openblas_threads(np):
    """Threads the loaded OpenBLAS uses, or None if it cannot be asked."""
    import ctypes
    libs = Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*")
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def metadata(workload, seed) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": workload.name,
        "seed": seed,
        "pool": workload.pool,
        "tail_percentile": workload.tail,
        "git_sha": _git_sha(),
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "cpu_caches": _cpu_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace) -> tuple:
    """One benchmark run: (metadata, result object)."""
    experiments = load_library()
    from hostspeed import Reference  # imports numpy: after load_library
    golden = load_golden(workload)
    meta = metadata(workload, seed)
    if not trace:
        reference = Reference()
        setup_s, meta["raw_setup_s"] = setup_seconds(
            workload, SETUP_REPEATS, reference)
    order = trial_order(workload, seed)
    capture = Capture(experiments, CAPTURED)
    try:
        run_trial(experiments, workload, order[0], capture, golden)  # warm-up
        if trace:
            tracer = Tracer({layer: COUNTERS.get(layer) for layer in LAYERS})
            traced_s, untraced_s, passes, attempted, failed = measure_traced(
                experiments, workload, order, seconds, capture, golden, tracer)
            values = per_layer(tracer, traced_s, untraced_s, passes,
                               attempted, failed)
            units = PER_LAYER
            meta.update(passes=passes, traced_s=traced_s,
                        untraced_s=untraced_s)
            TRACE_DIR.mkdir(exist_ok=True)
            spans = TRACE_DIR / f"spans-{workload.name}-{seed}.jsonl"
            with open(spans, "w", encoding="utf-8") as fh:
                tracer.flush(fh)
            meta["spans"] = str(spans.relative_to(ROOT))
        else:
            reference.samples.clear()
            latencies, attempted, failed = measure(
                experiments, workload, order, seconds, capture, golden,
                reference)
            factor = reference.factor() if workload.corrected else 1.0
            values = end_to_end(workload, latencies, factor, setup_s)
            units = END_TO_END
            meta.update(passes=attempted // workload.pool, host_factor=factor,
                        reference_samples=len(reference.samples),
                        raw_trial_p50_ms=values["trial_p50_ms"] / factor)
    finally:
        capture.close()
    meta["error_rate"] = _metric(failed / attempted, "ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric(values[name], unit)
                    for name, unit in units.items()},
    }
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    meta, result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                       args.trace)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
