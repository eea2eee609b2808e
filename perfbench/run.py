"""Run the halfpoint benchmark.

    python3 perfbench/run.py --workload fp-warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each workload runs in its own fresh single-threaded process
(``perfbench/worker.py``), one after another.  This launcher times a fixed
pure-Python host-speed probe before and after each, prints every metric
by name and unit, writes the full record to ``.bench_out/`` and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  ``--workload all`` runs every workload untraced and, with
``--trace 1``, traced as well.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("fp-warm", "fp-cold", "codec-decrypt", "q-height")
WORKER_TIMEOUT_S = 170


def host_probe():
    """Seconds taken by a fixed pure-Python loop: a host-speed diagnostic."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(workload, seed, seconds, trace):
    """One workload in a fresh process; returns its record, or None if it failed."""
    probe_before = host_probe()
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{workload}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["diagnostics"]["host_probe_s"] = {"before": probe_before, "after": host_probe()}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record):
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}): "
          f"{record['attempted']} ops, {record['failed']} failed")
    for name, m in record["metrics"].items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    if not record["trace"]:
        print(f"  {'fail_ratio':45s} {record['diagnostics']['fail_ratio']:14.6g} ratio")
    for reason in record["failures"]:
        print(f"  FAILED {reason}")
    for name, value in record["diagnostics"].items():
        print(f"  # {name}: {value}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "halfpoint" / "__init__.py").is_file():
        sys.exit(f"no halfpoint sources under {ROOT / 'src'}; run from a checkout of the repository")

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in range(args.trace + 1)]
    else:
        runs = [(args.workload, args.trace)]
    records = []
    for workload, trace in runs:
        record = run_worker(workload, args.seed, args.seconds, trace)
        if record is None:
            sys.exit(1)
        report(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{'trace.' if r['trace'] else ''}{name}": m
                   for r in records for name, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
