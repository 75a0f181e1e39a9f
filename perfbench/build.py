"""Builds the benchmark: compiles the program's sources (src/main/scala) with
the benchmark's own (perfbench/src, plus perfbench/test for the self-test)
using the Scala compiler that ships with the Spark distribution.

Output goes to .bench_build/ under the working directory and is reused
while no source file changes.

    python3 perfbench/build.py [--tests]
"""

import glob
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys

BUILD = ".bench_build"
PROGRAM_SRC = "src/main/scala"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def spark_jars():
    """The jars of the Spark distribution at $SPARK_HOME, else those bundled
    with the pyspark package."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        spec = importlib.util.find_spec("pyspark")
        home = spec.submodule_search_locations[0] if spec else ""
    jars = os.path.join(home, "jars")
    if not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        sys.exit(f"build: no Spark distribution with a Scala compiler at {jars} (set SPARK_HOME)")
    return jars


def sources(tests):
    if not os.path.isdir(PROGRAM_SRC):
        sys.exit(f"build: {PROGRAM_SRC} not found; run from the repository root")
    roots = [PROGRAM_SRC, os.path.join(BENCH_DIR, "src")]
    if tests:
        roots.append(os.path.join(BENCH_DIR, "test"))
    files = sorted(f for r in roots for f in glob.glob(os.path.join(r, "**", "*.scala"), recursive=True))
    if not any(f.startswith(PROGRAM_SRC) for f in files):
        sys.exit(f"build: no Scala sources under {PROGRAM_SRC}")
    return files


def stamp(files, jars):
    h = hashlib.sha256()
    h.update(jars.encode())
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(tests=False):
    """Compiles if needed; returns the class directory and the Spark jar dir."""
    jars = spark_jars()
    files = sources(tests)
    out = os.path.join(BUILD, "test-classes" if tests else "classes")
    want = stamp(files, jars)
    stamp_file = os.path.join(out, ".stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == want:
        return out, jars
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cp = os.path.join(jars, "*")
    print(f"build: compiling {len(files)} files into {out}", file=sys.stderr)
    r = subprocess.run(["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", cp, "scala.tools.nsc.Main",
                        "-nowarn", "-d", tmp, "-classpath", cp] + files,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit(f"build: scalac failed with code {r.returncode}")
    with open(os.path.join(tmp, ".stamp"), "w") as fh:
        fh.write(want)
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    return out, jars


if __name__ == "__main__":
    build(tests="--tests" in sys.argv[1:])
