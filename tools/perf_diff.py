#!/usr/bin/env python3
"""Compare spaden-bench JSON exports and fail on GFLOPS regressions.

CI uses this to diff every run's BENCH_*.json against the previous run's
artifact, so a change that silently degrades a kernel's *modeled* GFLOPS
(more DRAM traffic, lost coalescing, a cache model regression) fails the
build instead of drifting until someone re-reads the figures.

    perf_diff.py BASELINE CURRENT [--tolerance 0.02] [--skip-method NAME]...
                 [--host-metrics] [--metrics]

BASELINE and CURRENT are either two spaden-bench-v1/-v2 files (the schemas
mix freely — v2 only adds per-run host throughput fields), or two
directories: in directory mode every BENCH_*.json in CURRENT is matched to
the baseline file of the same name and diffed figure by figure (figures
without runs, i.e. metric-only exports, compare their named metrics
instead). A figure present on one side only is reported but
never fails the diff — new benches need one run to seed their baseline.

--host-metrics additionally prints, per figure, the host-side simulator
throughput ratio (host_warps_per_sec, v2 exports only): per-figure geomean
with min/max, so interpreter speedups/regressions are reproducible from CI
artifacts instead of stderr scraping. Host wall-clock depends on the
machine, so this mode is informational and never affects the exit code.

--metrics (directory mode, informational like --host-metrics) additionally
diffs the spaden-telemetry exports the benches write under SPADEN_TELEMETRY
(METRICS_*.json, schema spaden-metrics-v1): for every histogram series
present on both sides it prints p50/p99 movements. Quantized percentiles
only move when an observation crosses a log-bucket boundary (a >= 1.78x
shift), so any line printed here is a real latency trend, but the mode
never affects the exit code.

Multi-device figures (BENCH_multigpu.json) additionally trend parallel
efficiency (geomean strong-scaling speedup@N divided by N): every
`parallel_efficiency@N` metric present on both sides prints its movement,
and a relative drop of more than 5% at N=4 prints a WARNING line. The
warning is diagnostic only and never affects the exit code — efficiency
legitimately moves with comm-model or shard-planner changes, and the
gating signal remains the per-run gflops diff.

Within a figure, runs are matched by (method, device, matrix). A current
run whose gflops is more than `tolerance` below the baseline's is a
regression; improvements and new/removed runs are reported but never fail.
Methods whose results are inherently nondeterministic across host-thread
schedules can be skipped with --skip-method; pin SPADEN_SIM_THREADS=1 in
the generating job to make every method exact (since the chunked-claim
LightSpMV rework, every method is deterministic at any fixed thread
count).

Exit codes: 0 = no regressions, 1 = regressions found, 2 = usage/IO error.
"""

import argparse
import json
import math
import os
import sys

KNOWN_SCHEMAS = ("spaden-bench-v1", "spaden-bench-v2")


def load_runs(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") not in KNOWN_SCHEMAS:
        sys.exit(f"error: {path}: unexpected schema {doc.get('schema')!r}")
    return doc


def key_of(run):
    return (run["method"], run["device"], run["matrix"])


def host_metrics(name, base, curr):
    """Informational host-throughput comparison (spaden-bench-v2 runs)."""
    ratios = []
    threads = set()
    for key in sorted(base.keys() & curr.keys()):
        old = base[key].get("host_warps_per_sec", 0)
        new = curr[key].get("host_warps_per_sec", 0)
        if old > 0 and new > 0:
            ratios.append(new / old)
            threads.add((base[key].get("sim_threads"), curr[key].get("sim_threads")))
    if not ratios:
        print(f"{name}: host      no comparable host_warps_per_sec "
              "(need spaden-bench-v2 on both sides)")
        return
    geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    print(f"{name}: host      warps/s geomean {geo:.2f}x "
          f"(min {min(ratios):.2f}x, max {max(ratios):.2f}x, {len(ratios)} runs)")
    mismatched = {t for t in threads if t[0] != t[1]}
    if mismatched:
        print(f"{name}: host      note: sim_threads differ between sides "
              f"({sorted(mismatched)}); ratios mix thread counts")


def metrics_series(path):
    """spaden-metrics-v1 histogram series keyed by (name, sorted labels)."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "spaden-metrics-v1":
        print(f"note: {path}: unexpected metrics schema "
              f"{doc.get('schema')!r}, skipped", file=sys.stderr)
        return {}
    series = {}
    for section in ("metrics", "host_metrics"):
        for m in doc.get(section, []):
            if m.get("type") != "histogram":
                continue
            key = (m["name"], tuple(sorted(m.get("labels", {}).items())))
            series[key] = m
    return series


def diff_metrics(name, base_path, curr_path):
    """Informational p50/p99 trend between two METRICS_*.json exports."""
    base = metrics_series(base_path)
    curr = metrics_series(curr_path)
    for key in sorted(base.keys() & curr.keys()):
        moved = []
        for q in ("p50", "p99"):
            old, new = base[key].get(q, 0), curr[key].get(q, 0)
            if old > 0 and new != old:
                moved.append(f"{q} {old:.3g} -> {new:.3g} ({new / old - 1.0:+.0%})")
        if moved:
            label = key[0] + "{" + ",".join(f"{k}={v}" for k, v in key[1]) + "}"
            print(f"{name}: latency   {label:<60} {', '.join(moved)}")


def diff_documents(name, base_doc, curr_doc, tolerance, skip_methods,
                   show_host_metrics=False):
    """Diff one figure. Returns (compared, regressions) counts."""
    if base_doc.get("scale") != curr_doc.get("scale"):
        print(
            f"note: {name}: scales differ ({base_doc.get('scale')} vs "
            f"{curr_doc.get('scale')}); gflops are not comparable",
            file=sys.stderr,
        )
        sys.exit(2)

    base = {key_of(r): r for r in base_doc.get("runs", []) if r["method"] not in skip_methods}
    curr = {key_of(r): r for r in curr_doc.get("runs", []) if r["method"] not in skip_methods}

    regressions = []
    improvements = []
    for key in sorted(base.keys() & curr.keys()):
        old = base[key]["gflops"]
        new = curr[key]["gflops"]
        if old <= 0:
            continue
        delta = new / old - 1.0
        if delta < -tolerance:
            regressions.append((key, old, new, delta))
        elif delta > tolerance:
            improvements.append((key, old, new, delta))

    for key, old, new, delta in improvements:
        print(f"{name}: improved  {'/'.join(key):<45} {old:8.1f} -> {new:8.1f} ({delta:+.1%})")
    for key in sorted(curr.keys() - base.keys()):
        print(f"{name}: new       {'/'.join(key)}")
    for key in sorted(base.keys() - curr.keys()):
        print(f"{name}: removed   {'/'.join(key)}")
    for key, old, new, delta in regressions:
        print(f"{name}: REGRESSED {'/'.join(key):<45} {old:8.1f} -> {new:8.1f} ({delta:+.1%})")

    if show_host_metrics and (base or curr):
        host_metrics(name, base, curr)

    # Named scalar metrics (geomean speedups, serve requests/s, ...) carry
    # comparable numbers whether or not the figure also has per-matrix runs —
    # report their drift informationally so e.g. an imbalance jump or a
    # serving-throughput drop is visible next to the run-level diff.
    base_metrics = {m["name"]: m["value"] for m in base_doc.get("metrics", [])}
    for m in curr_doc.get("metrics", []):
        if m["name"].startswith("parallel_efficiency@"):
            continue  # trended separately below
        old = base_metrics.get(m["name"])
        if old is None or old == 0:
            continue
        delta = m["value"] / old - 1.0
        if abs(delta) > tolerance:
            print(f"{name}: metric    {m['name']:<45} {old:8.3f} -> {m['value']:8.3f} ({delta:+.1%})")

    # Multi-device scaling figures: trend parallel efficiency explicitly.
    # A >5% relative drop at N=4 earns a WARNING — visible in CI logs, but
    # deliberately non-gating (see the module docstring).
    for m in curr_doc.get("metrics", []):
        if not m["name"].startswith("parallel_efficiency@"):
            continue
        devices = m["name"].split("@", 1)[1]
        old = base_metrics.get(m["name"])
        if old is None or old <= 0:
            continue
        delta = m["value"] / old - 1.0
        print(f"{name}: efficiency {'@' + devices + ' devices':<44} "
              f"{old:8.3f} -> {m['value']:8.3f} ({delta:+.1%})")
        if devices == "4" and delta < -0.05:
            print(f"{name}: WARNING   parallel efficiency at 4 devices dropped "
                  f"{-delta:.1%} (> 5%); check t_comm and shard balance "
                  f"(non-gating)")

    return len(base.keys() & curr.keys()), len(regressions)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="allowed fractional gflops drop before failing (default 0.02)",
    )
    parser.add_argument(
        "--skip-method",
        action="append",
        default=[],
        metavar="NAME",
        help="exclude a method from comparison (repeatable)",
    )
    parser.add_argument(
        "--host-metrics",
        action="store_true",
        help="also report host warps/s ratios (informational, never fails)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="also diff METRICS_*.json histogram p50/p99 (directory mode; "
        "informational, never fails)",
    )
    args = parser.parse_args()

    pairs = []  # (figure name, baseline path, current path)
    if os.path.isdir(args.baseline) != os.path.isdir(args.current):
        sys.exit("error: baseline and current must both be files or both be directories")
    if os.path.isdir(args.baseline):
        base_files = {f for f in os.listdir(args.baseline)
                      if f.startswith("BENCH_") and f.endswith(".json")}
        curr_files = {f for f in os.listdir(args.current)
                      if f.startswith("BENCH_") and f.endswith(".json")}
        for f in sorted(base_files - curr_files):
            print(f"note: {f}: present in baseline only, skipped", file=sys.stderr)
        for f in sorted(curr_files - base_files):
            print(f"note: {f}: no baseline yet, skipped", file=sys.stderr)
        for f in sorted(base_files & curr_files):
            pairs.append((f[len("BENCH_"):-len(".json")],
                          os.path.join(args.baseline, f), os.path.join(args.current, f)))
        if not pairs:
            sys.exit("error: no common BENCH_*.json figures to compare")
    else:
        pairs.append(("bench", args.baseline, args.current))

    total_compared = 0
    total_regressions = 0
    for name, base_path, curr_path in pairs:
        compared, regressed = diff_documents(
            name, load_runs(base_path), load_runs(curr_path), args.tolerance,
            args.skip_method, args.host_metrics)
        total_compared += compared
        total_regressions += regressed

    if args.metrics and os.path.isdir(args.baseline):
        base_files = {f for f in os.listdir(args.baseline)
                      if f.startswith("METRICS_") and f.endswith(".json")}
        curr_files = {f for f in os.listdir(args.current)
                      if f.startswith("METRICS_") and f.endswith(".json")}
        for f in sorted(base_files & curr_files):
            diff_metrics(f[len("METRICS_"):-len(".json")],
                         os.path.join(args.baseline, f), os.path.join(args.current, f))

    print(
        f"{len(pairs)} figures, {total_compared} runs compared, "
        f"{total_regressions} regressions (tolerance {args.tolerance:.1%})"
    )
    sys.exit(1 if total_regressions else 0)


if __name__ == "__main__":
    main()
