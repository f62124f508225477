"""Build file of the umzibench benchmark.

Compiles the program (`src/main/scala`) together with the benchmark
(`umzibench/src`) with the Scala compiler that ships in Spark's jars, into
`.bench_build/umzibench/classes` under the current directory (the root of a
checkout). A stamp of the sources' hash skips the build when nothing changed.

    python3 umzibench/build.py        # build, print the run classpath
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

OUT = os.path.join(".bench_build", "umzibench")
PROGRAM_SRC = os.path.join("src", "main", "scala")
PROGRAM_RESOURCES = os.path.join("src", "main", "resources")
BENCH_SRC = os.path.join("umzibench", "src")
DUCKDB = "org/duckdb/duckdb_jdbc/1.0.0/duckdb_jdbc-1.0.0.jar"


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME", "/opt/spark")
    jars = os.path.join(home, "jars")
    if not glob.glob(os.path.join(jars, "scala-compiler-2.13.*.jar")):
        raise BuildError(f"no Scala 2.13 compiler among Spark's jars in {jars}")
    return jars


def duckdb_jar():
    """The DuckDB JDBC driver the program depends on, from the coursier cache."""
    if os.environ.get("UMZIBENCH_DUCKDB_JAR"):
        return os.environ["UMZIBENCH_DUCKDB_JAR"]
    caches = [os.environ.get("COURSIER_CACHE"), os.path.expanduser("~/.cache/coursier")]
    for cache in filter(None, caches):
        hits = glob.glob(os.path.join(cache, "**", DUCKDB), recursive=True)
        if hits:
            return sorted(hits)[0]
    raise BuildError("duckdb_jdbc-1.0.0.jar not found; set UMZIBENCH_DUCKDB_JAR")


def sources():
    if not os.path.isdir(PROGRAM_SRC):
        raise BuildError(f"{PROGRAM_SRC} not found: run from the root of a checkout")
    files = []
    for d in (PROGRAM_SRC, BENCH_SRC):
        files += glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
    return sorted(files)


def source_sha(files):
    h = hashlib.sha256()
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile if the sources changed; returns (classpath list, source sha)."""
    files = sources()
    sha = source_sha(files)
    jars, duck = spark_jars(), duckdb_jar()
    classes = os.path.join(OUT, "classes")
    stamp = os.path.join(OUT, "stamp")
    fresh = os.path.exists(stamp) and open(stamp).read() == sha
    if not fresh:
        tmp = classes + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
               "-usejavacp", "-nowarn", "-cp", duck, "-d", tmp] + files
        print(f"umzibench: compiling {len(files)} sources", file=sys.stderr)
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BuildError("compilation failed")
        shutil.rmtree(classes, ignore_errors=True)
        os.rename(tmp, classes)
        with open(stamp, "w") as fh:
            fh.write(sha)
    return [classes, PROGRAM_RESOURCES, os.path.join(jars, "*"), duck], sha


if __name__ == "__main__":
    try:
        cp, _ = build()
    except BuildError as e:
        print(f"umzibench: build failed: {e}", file=sys.stderr)
        sys.exit(1)
    print(os.pathsep.join(cp))
