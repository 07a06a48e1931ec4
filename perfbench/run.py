#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run builds the repository and the
benchmark with sbt (perfbench/build.sbt compiles against the root build);
later runs reuse that build while the sources are unchanged. Each run is one
JVM process; its last line of output, repeated here as ours, is the result
object. sbt compiles into the target/ directories; the classpath stamp,
spans and temporary files go to .bench_build/perfbench/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("hp-twitter", "approx-orkut", "spark-dblp")
OUT = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Spark on JDK 17 needs these module opens, as in the root build.sbt.
JVM_OPENS = [
    "--add-opens=java.base/" + pkg + "=ALL-UNNAMED"
    for pkg in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
]
SOURCES = ("src", "jobs", "build.sbt", "project/build.properties",
           "perfbench/src", "perfbench/build.sbt", "perfbench/project/build.properties")


CHILD = None


def fail(msg, code):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def stop(signum, _frame):
    """On SIGTERM or SIGINT, stop the child process before exiting."""
    if CHILD is not None and CHILD.poll() is None:
        CHILD.kill()
        CHILD.wait()
    sys.exit(128 + signum)


def run_child(cmd, timeout, **kwargs):
    """Run `cmd` to completion; returns (exit code, stdout), or (None, "")
    after killing it when it outlives `timeout` seconds."""
    global CHILD
    CHILD = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, **kwargs)
    try:
        out, _ = CHILD.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        CHILD.kill()
        CHILD.wait()
        return None, ""
    return CHILD.returncode, out


def fingerprint():
    """Hash of every source the build reads, so an edit triggers a rebuild."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode() + b"\0")
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile with sbt if needed; returns the runtime classpath."""
    stamp = os.path.join(OUT, "build.json")
    fp = fingerprint()
    if os.path.exists(stamp):
        with open(stamp) as fh:
            saved = json.load(fh)
        if saved.get("fingerprint") == fp:
            return saved["classpath"]
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export perfbench/Runtime/fullClasspath"]
    code, out = run_child(cmd, BUILD_TIMEOUT_S, cwd="perfbench", env=env, stderr=subprocess.STDOUT)
    if code is None:
        fail("build timed out", 3)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "[error]" in out:
        sys.stderr.write(out[-4000:])
        fail("build failed", 3)
    classpath = lines[-1].strip()
    os.makedirs(OUT, exist_ok=True)
    with open(stamp, "w") as fh:
        json.dump({"fingerprint": fp, "classpath": classpath}, fh)
    return classpath


def declared_metrics(trace):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    if not (os.path.isdir("src/main/scala/repro") and os.path.isfile("build.sbt")):
        fail("run from the repository root: src/main/scala/repro and build.sbt are missing", 2)

    classpath = build()
    tmp = os.path.abspath(os.path.join(OUT, "tmp-%d" % os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
    # The Spark session's settings come from the program's defaults.
    for var in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS"):
        env.pop(var, None)
    cmd = ["java", "-Xmx3g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false", *JVM_OPENS,
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.abspath(OUT)]
    try:
        code, out = run_child(cmd, RUN_TIMEOUT_S, env=env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code is None:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail("benchmark JVM exited with code %d" % code, 4)

    result = json.loads(lines[-1])
    want = declared_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(got.items()), sorted(want.items())), 5)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
