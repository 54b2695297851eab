#!/usr/bin/env python3
"""The repo benchmark: builds perfbench/, runs one workload, gates, reports.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The C++ package in this directory is built
into $CARGO_TARGET_DIR (default .bench_build). A run repeats self-contained
reps of the workload, each in its own process (perfbench/src/main.cpp),
until --seconds have passed (at least two reps). With --trace 0 it prints
every end-to-end metric of BENCHMARK.json; with --trace 1 it alternates
untraced and traced reps and prints every per-layer metric, writing the
last traced rep's Chrome trace and the per-layer summary under .bench_out/.
Each run appends its record, host block included, to
.bench_out/results.jsonl (or --out) for compare.py.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is nonzero when a correctness gate fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source tree free of caches
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sim-fedbiad-lstm", "sim-fedavg-1m-buffered", "tcp-fedbiad-replay")
MIN_REPS = 2
REP_TIMEOUT_S = 150
# The load generator is saturated, and measures itself rather than the
# server, when its thread is busy at least this share of the time and
# busier than the server thread.
LOADGEN_SATURATED = 0.9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "fedbench", "fedbench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return out


def self_test(out, force=False):
    """Python and C++ self-tests; skipped when these binaries passed before."""
    binaries = [out / "fedbench", out / "fedbench_selftest", HERE / "stats.py"]
    stamp = out / "selftest.ok"
    key = ";".join(f"{b.name}:{b.stat().st_mtime_ns}" for b in binaries)
    if not force and stamp.exists() and stamp.read_text() == key:
        return
    failures = stats.self_test()
    for f in failures:
        log(f"selftest FAIL: {f}")
    proc = subprocess.run([str(out / "fedbench_selftest")], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=REP_TIMEOUT_S, check=False)
    log(proc.stdout.rstrip())
    if failures or proc.returncode != 0:
        raise SystemExit("self-tests failed")
    stamp.write_text(key)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def host_block(seed, build_info):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                digest.update(str(p.relative_to(ROOT)).encode())
                digest.update(p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def run_rep(out, workload, seed, traced, trace_file):
    cmd = [str(out / "fedbench"), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--trace-file", str(trace_file)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=REP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        log(proc.stderr.rstrip())
        raise SystemExit(f"rep failed: {' '.join(cmd)}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["duration_s"] = time.monotonic() - t0
    return rep


def gate(reps):
    """Correctness gates; returns the list of violations."""
    bad = []
    for i, r in enumerate(reps):
        tag = f"rep {i} ({'traced' if r['traced'] else 'untraced'})"
        checks = [
            (r["dispatched_once"], "never dispatched"),
            (r["commits"] == r["expected_commits"] == r["rounds_recorded"],
             f"{r['commits']} commits observed, {r['rounds_recorded']} recorded, "
             f"{r['expected_commits']} expected"),
            (r["committed"] == r["expected_updates"],
             f"{r['committed']} updates committed, {r['expected_updates']} expected"),
            (r["conserved"], "conservation ledger broken"),
            (r["final_buffered"] == 0 and r["final_in_flight"] == 0,
             "work left buffered or in flight"),
            (r["failed"] == 0, f"{r['failed']} failed deliveries"),
            (r["unacked"] == 0, f"{r['unacked']} uploads never acked"),
        ]
        extra = r.get("extra")
        if extra is not None:
            checks.append((extra["loadgen_error"] == "",
                           f"load generator: {extra['loadgen_error']}"))
            saturated = (extra["loadgen_cpu_frac"] >= LOADGEN_SATURATED and
                         extra["loadgen_cpu_frac"] >= extra["server_cpu_frac"])
            checks.append((not saturated,
                           f"invalid: load generator saturated "
                           f"(cpu {extra['loadgen_cpu_frac']:.2f}, server "
                           f"{extra['server_cpu_frac']:.2f})"))
        bad += [f"{tag}: {msg}" for ok, msg in checks if not ok]
    for field in ("params_crc32c", "uplink_bytes", "final_topk_acc"):
        seen = {r[field] for r in reps}
        if len(seen) != 1:
            bad.append(f"{field} differs between reps of one seed: {sorted(map(str, seen))}")
    return bad


def end_to_end(reps):
    """Every end-to-end metric over the untraced reps, plus sample counts.

    Each rep holds enough samples for every percentile on its own, so
    percentiles, like rates, are taken per rep and the run reports their
    median over reps: a rep disturbed by the machine moves it less than it
    would move a percentile of samples pooled over reps.
    """
    untraced = [r for r in reps if not r["traced"]]
    first = untraced[0]

    def over_reps(fn):
        return stats.median([fn(r) for r in untraced])

    values = {
        "setup_s": over_reps(lambda r: r["setup_s"]),
        "rounds_per_s": over_reps(lambda r: r["commits"] / r["wall_s"]),
        "updates_per_s": over_reps(lambda r: r["committed"] / r["wall_s"]),
        "round_s_p50": over_reps(lambda r: stats.percentile(r["round_intervals_s"], 50)),
        "round_s_p90": over_reps(lambda r: stats.percentile(r["round_intervals_s"], 90)),
        "ack_s_p50": over_reps(lambda r: stats.percentile(r["ack_s"], 50)),
        "ack_s_p99": over_reps(lambda r: stats.percentile(r["ack_s"], 99)),
        "peak_rss_mb": over_reps(lambda r: r["peak_rss_mb"]),
        "uplink_bytes_per_update": first["uplink_bytes"] / first["uplink_updates"],
        "final_topk_acc": first["final_topk_acc"],
    }
    samples = {"reps": len(untraced),
               "round_intervals_per_rep": min(len(r["round_intervals_s"]) for r in untraced),
               "acks_per_rep": min(len(r["ack_s"]) for r in untraced)}
    return values, samples


def per_layer(reps):
    """Every per-layer metric: medians over the traced reps, plus the
    tracing overhead against the untraced reps of the same run."""
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    values = {name: stats.median([r["layers"][name] for r in traced])
              for name in traced[0]["layers"]}
    rate_t = stats.median([r["commits"] / r["wall_s"] for r in traced])
    rate_u = stats.median([r["commits"] / r["wall_s"] for r in untraced])
    values["trace.overhead_frac"] = 1.0 - rate_t / rate_u
    return values, {"traced_reps": len(traced), "untraced_reps": len(untraced)}


def run_workload(out, spec, workload, seed, seconds, traced):
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"{workload}-seed{seed}.trace.json"
    reps = []
    t0 = time.monotonic()
    while True:
        # Trace mode alternates untraced and traced reps so both see the
        # same machine state; the first rep is always untraced.
        reps.append(run_rep(out, workload, seed, traced and len(reps) % 2 == 1,
                            trace_file))
        elapsed = time.monotonic() - t0
        longest = max(r["duration_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + longest > seconds:
            break

    violations = gate(reps)
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    try:
        values, samples = per_layer(reps) if traced else end_to_end(reps)
    except stats.TailError as e:
        violations.append(f"metric refused: {e}")
        values, samples = {}, {}
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            violations.append(f"metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": values.pop(m["name"]), "unit": m["unit"]}
    if traced:
        (OUT_DIR / f"{workload}-seed{seed}.layers.json").write_text(
            json.dumps({"workload": workload, "seed": seed, "metrics": metrics,
                        "samples": samples}, indent=1) + "\n")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": not violations,
        "violations": violations,
        "attempted": sum(r["dispatched"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
        # Measured and reported, but without a bound in BENCHMARK.json.
        "unbounded": values,
        "samples": samples,
        "params_crc32c": reps[0]["params_crc32c"],
        "host": host_block(seed, reps[0]),
    }


def report(result):
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'}) ==")
    for key, value in result["host"].items():
        print(f"  host.{key}: {value}")
    for key, value in result["samples"].items():
        print(f"  samples.{key}: {value}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for name, value in result["unbounded"].items():
        print(f"  {name:32s} {value:>16.6g} (no bound)")
    for v in result["violations"]:
        print(f"  GATE FAILED: {v}")
    print(f"  params_crc32c: {result['params_crc32c']}  "
          f"correct: {result['correct']}", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(OUT_DIR / "results.jsonl"),
                    help="results file each run appends its record to")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the self-tests only")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    spec = load_spec()
    out = build()
    self_test(out, force=args.selftest)
    if args.selftest:
        print("self-tests passed")
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(out, spec, name, args.seed, args.seconds,
                              bool(args.trace))
        report(result)
        results.append(result)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(result) + "\n")

    single = len(results) == 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(k if single else f"{r['workload']}/{k}"): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
