"""Determinism self-check of the benchmark.

Runs each workload's traced run twice at a small scale with the same seed and
checks that every count (blocks per tier, simulated I/O, Spark jobs per stage,
visible runs, bytes written, blocks planned and skipped) and the checksum of
the query answers are identical, then that another seed changes them.

    python3 umzibench/selftest.py [workload ...]

Run from the root of a checkout; exits 1 on the first mismatch.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["index_churn", "lookup_cold", "shard_pipeline"]
SCALE = "0.5"


def traced_run(workload, seed):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1", "--scale", SCALE],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: run failed")
    lines = [json.loads(l) for l in out.stdout.splitlines() if l.startswith("{")]
    detail = next(l["detail"] for l in lines if "detail" in l)
    result = lines[-1]
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed: {detail['failures']}")
    # the count and ratio metrics are exact (per round, batch, call or
    # pipeline pass); the raw totals depend on how many rounds fit in a run
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "ratio")}
    return detail["checksum"], counts


def main():
    for w in sys.argv[1:] or WORKLOADS:
        a = traced_run(w, 11)
        b = traced_run(w, 11)
        if a != b:
            diff = {k: (a[1].get(k), b[1].get(k)) for k in set(a[1]) | set(b[1]) if a[1].get(k) != b[1].get(k)}
            raise SystemExit(f"{w}: same seed, different results: checksum {a[0]} vs {b[0]}, counts {diff}")
        c = traced_run(w, 12)
        if c[0] == a[0] or c[1] == a[1]:
            raise SystemExit(f"{w}: another seed left the checksum or the counts unchanged")
        print(f"{w}: ok ({len(a[1])} counts and the result checksum repeat; another seed changes them)")


if __name__ == "__main__":
    main()
