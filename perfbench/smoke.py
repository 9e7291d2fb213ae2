"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload on a pool of two trials, untraced and traced, and
checks that:

- every metric BENCHMARK.json names is printed, with its unit;
- the outputs match the golden records, so error_rate is 0;
- a planted golden mismatch raises error_rate and clears ``correct``;
- every wrapped binding is restored after a traced run;
- without the library sources the benchmark exits non-zero and prints
  no result.

Exits non-zero on the first failed check.  Takes about a minute.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import run
import tracing

BENCHMARK = run.ROOT / "BENCHMARK.json"


def check(condition, message):
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def tiny(workload):
    return dataclasses.replace(workload, pool=2, tail=50)


def run_with_golden(workload, trace, golden):
    load_golden = run.load_golden
    run.load_golden = lambda w: golden
    try:
        return run.run(workload, seed=7, seconds=0, trace=trace)
    finally:
        run.load_golden = load_golden


def check_units(result, declared, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{label}: {name} is not a number")


def check_restored():
    for name, mod in sys.modules.items():
        if name.startswith("nodalcheck"):
            for attr, value in vars(mod).items():
                code = getattr(value, "__code__", None)
                check(code is None or code.co_filename != tracing.__file__,
                      f"{name}.{attr} is still wrapped")


def check_without_sources():
    checkout = run.TRACE_DIR / "empty-checkout"
    shutil.rmtree(checkout, ignore_errors=True)
    checkout.mkdir(parents=True)
    try:
        shutil.copy(BENCHMARK, checkout)
        shutil.copytree(run.HERE, checkout / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "zeros",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(checkout)
    check(done.returncode != 0, "ran without library sources")
    check(not done.stdout.strip(), "printed a result without library sources")


def main():
    run.load_library()
    declared = json.loads(BENCHMARK.read_text())
    check(sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in run.WORKLOADS.values():
        check(workload.pool * (100 - workload.tail) >= 1000,
              f"{workload.name}: fewer than ten pool trials lie beyond "
              f"p{workload.tail}")
    for workload in map(tiny, run.WORKLOADS.values()):
        golden = run.load_golden(workload)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload.name} trace {trace}"
            meta, result = run_with_golden(workload, trace, golden)
            check_units(result, declared[key], label)
            check(result["correct"] and result["failed"] == 0,
                  f"{label}: outputs differ from the golden records")
            check(meta["error_rate"]["value"] == 0.0, f"{label}: error_rate > 0")
            print(f"smoke: {label}: {result['attempted']} trials, "
                  f"{len(result['metrics'])} metrics", flush=True)
        check_restored()

        planted = copy.deepcopy(golden)
        record = planted["1"]
        if "zeros" in record:
            record["zeros"] += 2
        else:
            record["M"][str(workload.M_list[-1])]["match"] ^= True
        for trace in (0, 1):
            meta, result = run_with_golden(workload, trace, planted)
            check(not result["correct"] and result["failed"] > 0
                  and meta["error_rate"]["value"] > 0,
                  f"{workload.name} trace {trace}: planted mismatch not caught")
        print(f"smoke: {workload.name}: planted mismatch raises error_rate",
              flush=True)
    check_without_sources()
    print("smoke: no library sources: exits non-zero without a result")
    print("smoke: PASS")


if __name__ == "__main__":
    main()
