"""Write golden.json: the outputs of every pool trial of every workload.

    python3 perfbench/make_golden.py

The records were generated once, at the commit that defined the
benchmark; every later run is checked against them.  Regenerate only
when a change is meant to alter trial outputs.
"""

import json

import run


def main():
    experiments = run.load_library()
    capture = run.Capture(experiments, run.CAPTURED)
    golden = {}
    try:
        for workload in run.WORKLOADS.values():
            records = golden[workload.name] = {}
            for seed in range(workload.pool):
                summary = workload.trial(experiments, seed)
                if not run.sound(workload, summary):
                    raise SystemExit(f"{workload.name} trial {seed} breaks "
                                     "an invariant")
                records[str(seed)] = run.observe(workload, summary,
                                                 capture.take())
    finally:
        capture.close()
    lines = []
    for name, records in golden.items():
        body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(rec, sort_keys=True)}"
                          for seed, rec in records.items())
        lines.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
