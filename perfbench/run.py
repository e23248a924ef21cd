#!/usr/bin/env python3
"""FJ-Vote benchmark: builds the program and the benchmark from source, runs
one workload as a single closed-loop client and prints its metrics.

  python3 perfbench/run.py --workload dm-exact --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test --seed 1

Run it from the root of a checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is 0 only when every correctness check passed. Everything the run
writes goes under .bench_build/ of the checkout.
"""
import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
HEAP = "2g"

# Module opens Spark needs on Java 17 (spark-submit adds the same set).
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    try:
        classes, jars = build.build(ROOT)
        exe = build.java()
    except build.BuildError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_build", "perfbench", "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The serial collector keeps GC off the cores Spark's two task threads use.
    cmd = [exe, "-Xmx" + HEAP, "-XX:+UseSerialGC",
           "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(ROOT, "perfbench", "log4j2.properties")]
    cmd += ["--add-opens=java.base/%s=ALL-UNNAMED" % m for m in OPENS]
    cmd += ["-cp", classes + os.pathsep + os.path.join(jars, "*"), "perfbench.Main",
            "--seed", str(args.seed), "--work-dir", work]
    if args.self_test:
        cmd += ["--self-test"]
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", args.trace]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
