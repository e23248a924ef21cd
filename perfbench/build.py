"""Build of the FJ-Vote benchmark.

Compiles the program's sources (src/main/scala) together with the
benchmark's own sources (perfbench/src) using the Scala compiler that ships
among Spark's jars, into .bench_build/perfbench/classes-<hash> of the
checkout. A build whose sources and jars are unchanged is reused.

  python3 perfbench/build.py      # build only; prints the classes directory
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys


class BuildError(Exception):
    pass


def spark_jars():
    """Directory of Spark's jars: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not glob.glob(os.path.join(jars, "scala-compiler*.jar")):
        raise BuildError("Spark jars with a Scala compiler not found; set SPARK_HOME")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("java not found; set JAVA_HOME")
    return exe


def sources(root):
    program = sorted(glob.glob(os.path.join(root, "src", "main", "scala", "**", "*.scala"),
                               recursive=True))
    if not program:
        raise BuildError("program sources not found under src/main/scala of " + root)
    bench = sorted(glob.glob(os.path.join(root, "perfbench", "src", "**", "*.scala"),
                             recursive=True))
    return program + bench


def build(root):
    """Returns (classes directory, Spark jars directory), compiling if needed."""
    jars = spark_jars()
    srcs = sources(root)
    h = hashlib.sha256()
    for path in srcs:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    for jar in sorted(os.listdir(jars)):
        h.update(jar.encode())
    base = os.path.join(root, ".bench_build", "perfbench")
    out = os.path.join(base, "classes-" + h.hexdigest()[:16])
    if os.path.exists(os.path.join(out, ".complete")):
        return out, jars

    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    argfile = os.path.join(tmp, "sources.txt")
    with open(argfile, "w") as f:
        f.write("\n".join(srcs) + "\n")
    cmd = [java(), "-Xss8m", "-Xmx1g", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp, "@" + argfile]
    res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True)
    if res.returncode != 0:
        raise BuildError("compilation failed:\n" + res.stdout)
    open(os.path.join(tmp, ".complete"), "w").close()
    for old in glob.glob(os.path.join(base, "classes-*")):
        if old != tmp:
            shutil.rmtree(old, ignore_errors=True)
    os.rename(tmp, out)
    return out, jars


if __name__ == "__main__":
    try:
        print(build(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))[0])
    except BuildError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        sys.exit(2)
