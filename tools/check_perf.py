#!/usr/bin/env python3
"""Perf-regression gate over the tracked BENCH_<n>.json trajectory.

Every PR commits one BENCH_<n>.json at the repo root (emitted by
`bench_perf --label BENCH_<n> --out BENCH_<n>.json`). This script compares
a candidate run against the highest-numbered committed BENCH_*.json and,
metric by metric, against the best value anywhere on the committed
trajectory. It fails on large regressions from either, so simulator speed
can only ratchet forward: a slow drift that stays inside the tolerance
from one BENCH to the next still trips the best-so-far gate.

Machines differ, so raw rates are not compared directly: every metric is
first divided by the run's own `calibration` metric (a fixed
integer-arithmetic loop that scales with single-core speed). The gate
fires only when the calibration-normalized ratio of candidate/reference
drops below 1 - tolerance (default 0.25 — generous enough for CI-runner
noise, tight enough to catch a lost optimization).

Modes:
  check_perf.py --candidate NEW.json [--reference OLD.json] [--tolerance F]
      Gate NEW against OLD (default: latest BENCH_*.json in the repo root
      that is not the candidate itself, plus the best normalized value of
      each metric over every committed BENCH_*.json). An explicit
      --reference gates against that one file only. Exit 1 on regression.
  check_perf.py --validate FILE.json
      Schema-validate one emitted file (the smoke_bench_perf ctest uses
      this so the emitter itself cannot rot). Exit 1 on malformed output.
"""

import argparse
import glob
import json
import os
import re
import sys

SCHEMA = "bamboo-perf/1"
# Metrics are rates (higher is better); `calibration` is the normalizer
# and is exempt from gating.
CALIBRATION = "calibration"
BENCH_NAME_RE = re.compile(r"BENCH_(\d+)\.json$")


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    problems = validate(doc)
    if problems:
        for p in problems:
            print(f"error: {path}: {p}", file=sys.stderr)
        sys.exit(1)
    return doc


def validate(doc):
    problems = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        return problems + ["no metrics array"]
    names = set()
    for m in metrics:
        name = m.get("name")
        if not name:
            problems.append("metric without a name")
            continue
        if name in names:
            problems.append(f"duplicate metric {name!r}")
        names.add(name)
        value = m.get("value")
        if not isinstance(value, (int, float)) or value <= 0:
            problems.append(f"metric {name!r}: non-positive value {value!r}")
        if not isinstance(m.get("unit"), str):
            problems.append(f"metric {name!r}: missing unit")
    if CALIBRATION not in names:
        problems.append(f"missing the {CALIBRATION!r} normalizer metric")
    return problems


def metric_map(doc):
    return {m["name"]: float(m["value"]) for m in doc["metrics"]}


def trajectory(root, exclude):
    """Committed BENCH_<n>.json paths in ascending n, minus `exclude`."""
    exclude = os.path.abspath(exclude)
    numbered = []
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        if os.path.abspath(path) == exclude:
            continue
        m = BENCH_NAME_RE.search(os.path.basename(path))
        if m:
            numbered.append((int(m.group(1)), path))
    return [path for _, path in sorted(numbered)]


def best_normalized(paths):
    """{metric: (best calibration-normalized value, path it came from)}."""
    best = {}
    for path in paths:
        values = metric_map(load(path))
        cal = values[CALIBRATION]
        for name, value in values.items():
            if name == CALIBRATION:
                continue
            norm = value / cal
            if name not in best or norm > best[name][0]:
                best[name] = (norm, path)
    return best


def compare_best(candidate, best, tolerance):
    """Gate each candidate metric against its best point on the trajectory.
    Metrics the candidate no longer emits are left to compare()."""
    cand = metric_map(candidate)
    cal_c = cand[CALIBRATION]
    regressions = []
    print("best so far on the trajectory:")
    for name in sorted(set(best) & set(cand)):
        best_norm, path = best[name]
        ratio = (cand[name] / cal_c) / best_norm
        status = "ok"
        if ratio < 1.0 - tolerance:
            status = "REGRESSION"
            regressions.append(
                f"{name}: normalized ratio {ratio:.3f} to the best "
                f"({os.path.basename(path)}) < {1.0 - tolerance:.3f}")
        print(f"  {name}: best {os.path.basename(path)} "
              f"(normalized x{ratio:.3f}) {status}")
    return regressions


def compare(candidate, reference, tolerance):
    cand, ref = metric_map(candidate), metric_map(reference)
    cal_c, cal_r = cand[CALIBRATION], ref[CALIBRATION]
    print(f"calibration: candidate {cal_c:.1f} vs reference {cal_r:.1f} "
          f"Mops/s (machine-speed ratio {cal_c / cal_r:.3f})")
    regressions = []
    for name in sorted(ref):
        if name == CALIBRATION:
            continue
        if name not in cand:
            regressions.append(f"metric {name!r} disappeared from the "
                               "candidate run")
            continue
        # Normalized ratio: how the metric moved relative to how the
        # machine moved. 1.0 = same speed per unit of CPU.
        ratio = (cand[name] / cal_c) / (ref[name] / cal_r)
        status = "ok"
        if ratio < 1.0 - tolerance:
            status = "REGRESSION"
            regressions.append(
                f"{name}: normalized ratio {ratio:.3f} < "
                f"{1.0 - tolerance:.3f} (raw {cand[name]:.4g} vs "
                f"{ref[name]:.4g})"
            )
        print(f"  {name}: {ref[name]:.4g} -> {cand[name]:.4g} "
              f"(normalized x{ratio:.3f}) {status}")
    for name in sorted(set(cand) - set(ref) - {CALIBRATION}):
        print(f"  {name}: new metric ({cand[name]:.4g}), no reference")
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--candidate", help="BENCH json to gate")
    ap.add_argument("--reference",
                    help="BENCH json to gate against (default: "
                         "highest-numbered BENCH_*.json in --root)")
    ap.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir),
        help="repo root holding the committed BENCH_*.json trajectory")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed normalized slowdown (default 0.25)")
    ap.add_argument("--validate", metavar="FILE",
                    help="only schema-validate FILE and exit")
    args = ap.parse_args()

    if args.validate:
        doc = load(args.validate)
        n = len(doc["metrics"])
        print(f"{args.validate}: valid ({n} metrics, label "
              f"{doc.get('label')!r}, mode {doc.get('mode')!r})")
        return 0

    if not args.candidate:
        ap.error("--candidate is required unless --validate is used")
    candidate = load(args.candidate)
    committed = [] if args.reference else trajectory(
        os.path.abspath(args.root), args.candidate)
    ref_path = args.reference or (committed[-1] if committed else None)
    if ref_path is None:
        print("no reference BENCH_*.json found: nothing to gate against "
              "(first tracked PR)")
        return 0
    print(f"reference: {ref_path}")
    reference = load(ref_path)
    regressions = compare(candidate, reference, args.tolerance)
    if committed:
        regressions += compare_best(candidate, best_normalized(committed),
                                    args.tolerance)
    if regressions:
        print(f"\n{len(regressions)} perf regression(s):", file=sys.stderr)
        for r in regressions:
            print(f"error: {r}", file=sys.stderr)
        return 1
    print("\nperf OK: no metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
