#!/usr/bin/env python3
"""Diff a fresh BENCH_*.json run against a committed baseline and fail on
regressions, so CI gates on the performance trajectory instead of only
uploading artifacts.

    diff_bench.py NEW BASELINE [--max-iter-ratio R] [--max-time-ratio R]

Records are matched by (assay, config). Only baseline records with status
"optimal" are compared quantitatively: solver iterations and node counts
are deterministic for a given binary, so they may not exceed the baseline
by more than --max-iter-ratio; wall time gets the much looser
--max-time-ratio (CI machines are noisy) with an absolute floor so
sub-100ms solves never trip it. Time-limited baseline records only require
that the (assay, config) pair still runs and still produces an incumbent.
Throughput records (any baseline record carrying "requests_per_sec", as
written by serve_smoke.py --out) must not fall below the baseline rate by
more than the --max-time-ratio factor. Objective-quality records (any
baseline record carrying "objective_gate", as written by bench_sched's
scheduling-frontier harness) gate on solution quality instead of solver
work: the new objective may not exceed the baseline objective by more than
--max-objective-ratio (the engines are deterministic in their seed, so the
small tolerance only absorbs intentional engine retunes pending a baseline
refresh), while wall time stays collapse-only like every other noisy-CI
quantity. Node-throughput records (baseline
records carrying "nodes_per_sec", as written by bench_milp's
threads1/threads4/threads8 and portfolio configs) are gated the same
collapse-only way: CI machines have arbitrary core counts, so the scaling
RATIO between thread configs is not gated here, only that per-config
throughput does not collapse.

A proven-optimal record whose nodes or iterations fell below
TIGHTEN_RATIO (0.8x) of the baseline gets a non-failing "tighten
baseline" note: the gate only catches growth, so a win is locked in only
once the baseline is regenerated.

Exit codes: 0 ok, 1 regression(s), 2 usage/IO error, 3 baseline file
missing (a distinct code so CI can tell "needs a baseline refresh" apart
from a real regression -- run the refresh-baselines workflow dispatch).
"""

import argparse
import json
import sys

# Proven-optimal counts below this fraction of the baseline earn a
# "tighten baseline" note.
TIGHTEN_RATIO = 0.8


def load(path, role="new"):
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        if role == "baseline":
            print(f"diff_bench: baseline missing: {path} -- run the "
                  f"refresh-baselines workflow dispatch (or the harness "
                  f"with --smoke --out {path}) and commit the result",
                  file=sys.stderr)
            sys.exit(3)
        print(f"diff_bench: {role} run file missing: {path}",
              file=sys.stderr)
        sys.exit(2)
    except (OSError, ValueError) as e:
        print(f"diff_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    return {(r["assay"], r["config"]): r for r in doc.get("results", [])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("new_path")
    ap.add_argument("baseline_path")
    ap.add_argument("--max-iter-ratio", type=float, default=1.25,
                    help="allowed growth of iterations/nodes on "
                         "proven-optimal records (default 1.25)")
    ap.add_argument("--max-time-ratio", type=float, default=4.0,
                    help="allowed wall-time growth on proven-optimal "
                         "records (default 4.0)")
    ap.add_argument("--min-time-floor", type=float, default=0.5,
                    help="seconds below which time is never compared "
                         "(default 0.5)")
    ap.add_argument("--max-objective-ratio", type=float, default=1.05,
                    help="allowed objective growth on objective_gate "
                         "records (default 1.05)")
    args = ap.parse_args()

    new = load(args.new_path, "new")
    base = load(args.baseline_path, "baseline")
    failures = []
    tighten = []

    for key, b in sorted(base.items()):
        assay, config = key
        n = new.get(key)
        if n is None:
            failures.append(f"{assay}/{config}: record missing from new run")
            continue
        if b.get("objective_gate", 0.0) > 0.0:
            # Scheduling-frontier record: solution quality must not regress
            # (deterministic engines -- the ratio only absorbs intentional
            # retunes), wall time is collapse-only.
            bo, no = b.get("objective", 0.0), n.get("objective", 0.0)
            if bo > 0.0 and no > args.max_objective_ratio * bo:
                failures.append(
                    f"{assay}/{config}: objective regressed "
                    f"{bo:.3f} -> {no:.3f} "
                    f"(> {args.max_objective_ratio:.2f}x)")
            bt, nt = b.get("seconds", 0.0), n.get("seconds", 0.0)
            if bt >= args.min_time_floor and nt > args.max_time_ratio * bt:
                failures.append(
                    f"{assay}/{config}: time regressed "
                    f"{bt:.3f}s -> {nt:.3f}s "
                    f"(> {args.max_time_ratio:.1f}x)")
            continue
        if b.get("requests_per_sec", 0.0) > 0.0:
            # Serving-throughput baseline: the rate may wobble with CI
            # noise, but must not collapse.
            br, nr = b["requests_per_sec"], n.get("requests_per_sec", 0.0)
            if nr < br / args.max_time_ratio:
                failures.append(
                    f"{assay}/{config}: throughput regressed "
                    f"{br:.1f} -> {nr:.1f} req/s "
                    f"(> {args.max_time_ratio:.1f}x slower)")
            continue
        if b.get("nodes_per_sec", 0.0) > 0.0:
            # Node-throughput gate for the parallel-search configs: the same
            # collapse-only rule as requests_per_sec (CI core counts vary,
            # so inter-config scaling ratios are not gated), plus the
            # status/objective agreement checks. Node/iteration counts are
            # NOT gated here -- the portfolio's split of work between racers
            # is timing-dependent.
            br, nr = b["nodes_per_sec"], n.get("nodes_per_sec", 0.0)
            if nr < br / args.max_time_ratio:
                failures.append(
                    f"{assay}/{config}: node throughput regressed "
                    f"{br:.1f} -> {nr:.1f} nodes/s "
                    f"(> {args.max_time_ratio:.1f}x slower)")
            if b.get("status") == "optimal":
                if n.get("status") != "optimal":
                    failures.append(
                        f"{assay}/{config}: no longer proven optimal "
                        f"(status {n.get('status')})")
                elif abs(n["objective"] - b["objective"]) > 1e-6 * max(
                        1.0, abs(b["objective"])):
                    failures.append(
                        f"{assay}/{config}: optimal objective changed "
                        f"{b['objective']} -> {n['objective']}")
            elif n.get("status") in ("infeasible", "unbounded",
                                     "no_solution"):
                failures.append(
                    f"{assay}/{config}: status degraded to "
                    f"{n.get('status')} (baseline {b.get('status')})")
            continue
        if b.get("status") != "optimal":
            # Time-limited baseline: just require an incumbent-bearing run.
            if n.get("status") in ("infeasible", "unbounded", "no_solution"):
                failures.append(
                    f"{assay}/{config}: status degraded to {n.get('status')}"
                    f" (baseline {b.get('status')})")
            continue
        if n.get("status") != "optimal":
            failures.append(
                f"{assay}/{config}: no longer proven optimal "
                f"(status {n.get('status')})")
            continue
        if abs(n["objective"] - b["objective"]) > 1e-6 * max(
                1.0, abs(b["objective"])):
            failures.append(
                f"{assay}/{config}: optimal objective changed "
                f"{b['objective']} -> {n['objective']}")
        for field in ("simplex_iterations", "nodes"):
            if b.get(field, 0) > 0 and n.get(field, 0) > args.max_iter_ratio * b[field]:
                failures.append(
                    f"{assay}/{config}: {field} regressed "
                    f"{b[field]} -> {n[field]} "
                    f"(> {args.max_iter_ratio:.2f}x)")
            elif n.get(field, 0) < TIGHTEN_RATIO * b.get(field, 0):
                tighten.append(f"{assay}/{config}: {field} "
                               f"{b[field]} -> {n[field]}")
        bt, nt = b.get("seconds", 0.0), n.get("seconds", 0.0)
        if bt >= args.min_time_floor and nt > args.max_time_ratio * bt:
            failures.append(
                f"{assay}/{config}: time regressed {bt:.3f}s -> {nt:.3f}s "
                f"(> {args.max_time_ratio:.1f}x)")

    for key in sorted(new.keys() - base.keys()):
        print(f"diff_bench: note: new record {key[0]}/{key[1]} "
              f"not in baseline (ok)")
    for t in tighten:
        print(f"diff_bench: note: tighten baseline: {t} "
              f"(< {TIGHTEN_RATIO:.2f}x; regenerate "
              f"{args.baseline_path} to lock the gain in)")

    if failures:
        print(f"diff_bench: {len(failures)} regression(s) vs "
              f"{args.baseline_path}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"diff_bench: {len(base)} baseline records ok "
          f"({args.new_path} vs {args.baseline_path})")


if __name__ == "__main__":
    main()
