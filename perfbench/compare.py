#!/usr/bin/env python3
"""Compares two benchmark result files (report only; always exits 0 unless
the files cannot be compared).

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records run.py appended, one per run (take several
seeds per workload). Files from different hosts are refused: nproc, CPU
model, compiler and build type must all match. For each workload and
end-to-end metric of BENCHMARK.json it prints both medians with their
quartiles and a verdict:

    unresolved  either side's quartile spread (as a share of its median)
                is wider than the metric's bound
    worse       the change's median is worse than the base's by more than
                the bound
    better      the change's median is better than the base's by more than
                the base's own quartile spread
    same        otherwise
"""

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import stats  # noqa: E402

HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def load(path):
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [r for r in records if r["trace"] == 0]


def host_of(records, path):
    hosts = {tuple(r["host"][k] for k in HOST_KEYS) for r in records}
    if len(hosts) != 1:
        raise SystemExit(f"{path}: records from {len(hosts)} different hosts")
    return hosts.pop()


def verdict(base, change, better, bound):
    b_spread, c_spread = stats.spread(base), stats.spread(change)
    if max(b_spread, c_spread) > bound:
        return "unresolved"
    b_med, c_med = stats.median(base), stats.median(change)
    worse_by = (c_med - b_med) / abs(b_med) * (1 if better == "lower" else -1)
    if worse_by > bound:
        return "worse"
    if -worse_by > b_spread:
        return "better"
    return "same"


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    base_path, change_path = sys.argv[1:]
    base, change = load(base_path), load(change_path)
    if not base or not change:
        raise SystemExit("both files need untraced records")
    hb, hc = host_of(base, base_path), host_of(change, change_path)
    if hb != hc:
        diff = [f"{k}: {a!r} vs {b!r}" for k, a, b in zip(HOST_KEYS, hb, hc) if a != b]
        raise SystemExit("refusing to compare results from different hosts: " +
                         "; ".join(diff))
    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    print(f"host: {dict(zip(HOST_KEYS, hb))}")
    print(f"{'workload':24s} {'metric':24s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  verdict")
    for workload in sorted({r["workload"] for r in base} | {r["workload"] for r in change}):
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base
                 if r["workload"] == workload and m["name"] in r["metrics"]]
            c = [r["metrics"][m["name"]]["value"] for r in change
                 if r["workload"] == workload and m["name"] in r["metrics"]]
            if not b or not c:
                print(f"{workload:24s} {m['name']:24s} missing on one side")
                continue
            cells = []
            for vals in (b, c):
                q1, q2, q3 = stats.quartiles(vals)
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)}")
            print(f"{workload:24s} {m['name']:24s} {cells[0]:>34s} {cells[1]:>34s}  "
                  f"{verdict(b, c, m['better'], m['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
