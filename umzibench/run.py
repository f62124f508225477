"""Run one umzibench workload in a fresh JVM and print its result.

    python3 umzibench/run.py --workload <index_churn|lookup_cold|shard_pipeline>
        --seed <n> --seconds <s> --trace <0|1> [--scale <x>]

Run from the root of a checkout. The first run builds (see build.py). All
files go under .bench_build/ and the run's scratch files are removed at the
end. The last line of standard output is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
import argparse
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

TIMEOUT_S = 170
HEAP = "2g"
# a single-threaded collector: parallel GC threads contending for the cores
# made timings of one seed spread two to three times wider
# what Spark's own launcher opens on JDK 17
JDK_OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
             "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
             "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["index_churn", "lookup_cold", "shard_pipeline"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()

    try:
        cp, sha = build.build()
    except build.BuildError as e:
        print(f"umzibench: build failed: {e}", file=sys.stderr)
        return 1

    scratch = os.path.abspath(os.path.join(".bench_build", "runs", str(os.getpid())))
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseSerialGC", "-Xss8m"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JDK_OPENS]
           + ["-Djdk.reflect.useDirectMethodHandle=false",
              "-Dio.netty.tryReflectionSetAccessible=true",
              f"-Djava.io.tmpdir={tmp}",
              f"-Dspark.local.dir={tmp}",
              f"-Dspark.sql.warehouse.dir={os.path.join(scratch, 'warehouse')}",
              f"-Dlog4j2.configurationFile={os.path.abspath('umzibench/log4j2.properties')}",
              f"-Dumzibench.gitSha={git_sha()}",
              f"-Dumzibench.sourceSha={sha}",
              "-cp", os.pathsep.join(cp), "umzibench.Main",
              "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--scale", str(args.scale),
              "--workdir", os.path.join(scratch, "work")])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"umzibench: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith('{"correct"'):
        sys.stderr.write(out)
        print(f"umzibench: JVM exited with {proc.returncode} and no result", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
