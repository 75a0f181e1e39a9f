"""EGL benchmark entry point. Run from the repository root:

    python3 perfbench/run.py --workload <target_unique|target_hot> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the program and the benchmark (see build.py), runs one workload in a
fresh JVM, and relays its output. The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}; on any failure the
script exits non-zero without printing one. Traced runs also leave their
spans as JSON lines in .bench_build/traces/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("target_unique", "target_hot")
HEAP = "3g"
TIMEOUT_S = 170
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
         "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
         "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
         "java.base/sun.security.action", "java.base/sun.util.calendar"]


def java(classes, jars, main, args, work):
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC",
            "-XX:-UsePerfData", f"-Djava.io.tmpdir={os.path.abspath(tmp)}",
            "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH_DIR, "log4j2.properties")]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", classes + os.pathsep + os.path.join(jars, "*"), main] + args)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run: {main} exceeded {TIMEOUT_S} s")
    finally:
        # also reached on SIGTERM (see main): never leave the JVM running
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def result_line(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return lines


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    if a.selftest:
        classes, jars = build.build(tests=True)
        work = os.path.join(build.BUILD, "selftest")
        code, out = java(classes, jars, "repro.perfbench.SelfTest", ["--work-dir", work], work)
        sys.stdout.write(out)
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(code)

    if None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    classes, jars = build.build()
    work = os.path.join(build.BUILD, f"run-{a.workload}-{a.seed}-{os.getpid()}")
    try:
        code, out = java(classes, jars, "repro.perfbench.Main",
                         ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                          "--trace", str(a.trace), "--work-dir", work], work)
        for f in os.listdir(work) if os.path.isdir(work) else []:
            if f.startswith("spans-"):
                os.makedirs(os.path.join(build.BUILD, "traces"), exist_ok=True)
                os.replace(os.path.join(work, f), os.path.join(build.BUILD, "traces", f))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = result_line(out)
    if code != 0 or lines is None:
        sys.stderr.write(out)
        sys.exit(f"run: benchmark failed (exit code {code})")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
