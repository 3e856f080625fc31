#!/usr/bin/env python3
"""Build the library and the perfbench program, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/perfbench (Release), results and traces to
.bench_build/perfbench/results, temporaries to .bench_build/perfbench/tmp.
The last line of stdout is the program's JSON result; the exit code is the
program's (non-zero when an output check fails or the sources are missing).
SPADEN_* variables are removed from the children's environment so every run
resolves the same simulator configuration.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
TMP = os.path.join(BUILD, "tmp")  # compiler and program temporaries stay in the checkout
WORKLOADS = ("paper-sweep", "serve-fused", "sharded-chain")


def die(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


_child = None


def _stop(signum, _frame):
    """On SIGTERM/SIGINT, stop the running child's process group and wait."""
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGTERM)
        try:
            _child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(_child.pid, signal.SIGKILL)
            _child.wait()
    sys.exit(128 + signum)


def run(cmd, **kwargs):
    """Run cmd in its own process group; return (exit code, stdout)."""
    global _child
    _child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              start_new_session=True, **kwargs)
    out, _ = _child.communicate()
    return _child.returncode, out


def child_env():
    """The caller's environment without SPADEN_* knobs, temporaries under TMP."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPADEN_")}
    env["TMPDIR"] = TMP
    return env


def run_quiet(cmd, what):
    code, out = run(cmd, stderr=subprocess.STDOUT, env=child_env())
    if code != 0:
        sys.stderr.write(out[-4000:])
        die(f"{what} failed (exit {code}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no library sources under {ROOT}/src; run from the repository root")
    if shutil.which("cmake") is None:
        die("cmake not found")
    os.makedirs(TMP, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], "configure")
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs], "build")
    return os.path.join(BUILD, "perfbench")


def git_describe():
    try:
        code, out = run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                        stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return out.strip() if code == 0 and out.strip() else "unknown"


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _stop)

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", RESULTS, "--git", git_describe()]
    code, out = run(cmd, env=child_env())
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if code != 0:
        print(lines[-1])
        sys.exit(code if code > 0 else 128 - code)

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = expected_metrics(args.trace)
    if got != expected:
        die("program metrics differ from BENCHMARK.json: "
            f"{sorted(set(got.items()) ^ set(expected.items()))}")
    print(lines[-1])


if __name__ == "__main__":
    main()
