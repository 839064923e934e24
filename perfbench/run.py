#!/usr/bin/env python3
"""End-to-end benchmark of the TTDA simulator stack.

Builds the simulator and the perfbench binary from source (into
.bench_build/perfbench under the repository root), runs one workload and
prints its metrics; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload daemon_mixed --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Workloads: daemon_mixed, machine_sweep, emul_lanes (see BENCHMARK.json
and perfbench/NOTES.md). --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones. A wrong output makes "correct" false and
the exit status non-zero. --selftest runs every workload briefly, both
ways, and checks that every metric BENCHMARK.json names is emitted with
its unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DAEMON = os.path.join(BUILD, "ttda_src", "daemon", "ttda_simd")
WORKLOADS = ("daemon_mixed", "machine_sweep", "emul_lanes")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure, then bring the benchmark binary and the daemon up to
    date. Build output goes to stderr so stdout stays the benchmark's."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target",
              "perfbench", "ttda_simd"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources
    the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, commit):
    """Run one workload; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--daemon", DAEMON, "--commit", commit]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def selftest(commit):
    """Every workload, briefly, both ways: each metric BENCHMARK.json
    names must be emitted with its unit, and outputs must be correct."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            code, lines = run_workload(w, 1, 1, trace, commit)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            problems = []
            if code != 0 or result is None:
                problems.append("exit %d, no result" % code)
            else:
                if not result["correct"]:
                    problems.append("outputs incorrect")
                got = result["metrics"]
                for m in wanted:
                    if m["name"] not in got:
                        problems.append("missing " + m["name"])
                    elif got[m["name"]]["unit"] != m["unit"]:
                        problems.append("%s unit %s != %s" % (
                            m["name"], got[m["name"]]["unit"], m["unit"]))
                    elif trace == 0 and not got[m["name"]]["value"] > 0:
                        problems.append(m["name"] + " is not > 0")
                extra = set(got) - {m["name"] for m in wanted}
                if extra:
                    problems.append("not in BENCHMARK.json: " +
                                    ", ".join(sorted(extra)))
            status = "ok" if not problems else "; ".join(problems)
            print("selftest %-14s trace=%d %s" % (w, trace, status))
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required (or --selftest)")
    if not build():
        return 2
    commit = source_id()
    if args.selftest:
        return 0 if selftest(commit) else 1

    code, lines = run_workload(args.workload, args.seed, args.seconds,
                               args.trace, commit)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
