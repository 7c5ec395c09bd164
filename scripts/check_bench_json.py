#!/usr/bin/env python3
"""Schema and regression checks for the BENCH_*.json result files.

Two file shapes exist in this repo:

  * google-benchmark output (bench_micro_ops): {"context": {...},
    "benchmarks": [{"name": ..., "real_time": ..., ...}, ...]} — the
    context block must carry the run metadata keys that make two files
    comparable (thread budget, peak RSS).
  * report.h output (bench_service and the figure benches):
    {"benchmark": ..., "dispatch": {...}, "reports": [{"title": ...,
    "headers": [...], "rows": [...]}, ...]}.

Usage:
  check_bench_json.py --schema FILE...
      Validate every FILE against whichever shape it declares. Fails on
      missing metadata keys or empty result sections.
  check_bench_json.py --regress CURRENT BASELINE [--benchmark NAME]
                      [--tolerance PCT] [--metric NAME]
      Compare CURRENT against BASELINE. For google-benchmark files, one
      benchmark (default BM_IsAncestorBatch) is compared and CURRENT's
      items_per_second must not fall more than PCT (default 10) below
      BASELINE's. For report.h files (e.g. BENCH_query_service.json),
      every row of every report is matched by (title, first column) and
      the --metric column (default "throughput qps") must not fall more
      than PCT below the baseline — use a generous tolerance there:
      end-to-end service throughput on a shared machine is far noisier
      than the pinned microbenchmark medians.
"""

import argparse
import json
import sys

# The metadata every emitter embeds (report.h RunMetadataJson, under the
# "dispatch" key, and the AddCustomContext calls in bench_micro_ops main);
# a file missing any of these can't be compared against another run, which
# is the whole point of keeping the JSONs.
DISPATCH_KEYS = [
    "hardware_threads",
    # Peak resident set size (VmHWM, kB) of the emitting run: report.h
    # reads it at JSON-write time, bench_micro_ops patches it in after the
    # run. The memory counterpart of the throughput numbers.
    "peak_rss_kb",
]


def fail(msg):
    print(f"check_bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_schema(path):
    data = load(path)
    if "benchmarks" in data:  # google-benchmark shape
        context = data.get("context", {})
        missing = [k for k in DISPATCH_KEYS if k not in context]
        if missing:
            fail(f"{path}: context is missing dispatch keys {missing}")
        runs = data["benchmarks"]
        if not runs:
            fail(f"{path}: empty benchmarks array")
        for run in runs:
            if "name" not in run or "real_time" not in run:
                fail(f"{path}: benchmark entry without name/real_time: {run}")
    elif "reports" in data:  # report.h shape
        dispatch = data.get("dispatch", {})
        missing = [k for k in DISPATCH_KEYS if k not in dispatch]
        if missing:
            fail(f"{path}: dispatch is missing keys {missing}")
        reports = data["reports"]
        if not reports:
            fail(f"{path}: empty reports array")
        for report in reports:
            if not report.get("headers") or not report.get("rows"):
                fail(f"{path}: report {report.get('title')!r} has no rows")
    else:
        fail(f"{path}: neither a google-benchmark nor a report.h JSON")
    print(f"check_bench_json: {path}: ok")


def rate_of(path, name):
    """items_per_second for NAME, preferring the median aggregate.

    Repetition runs (the --quick leg) emit per-repetition entries plus
    aggregates; a single short repetition in a fresh process measures up
    to ~30% slow, so the median is the comparable number. Single-run
    files (the committed full-run baseline) just have the one entry.
    """
    data = load(path)
    single = None
    for run in data.get("benchmarks", []):
        if run.get("name") == f"{name}_median":
            rate = run.get("items_per_second")
            if rate is None:
                fail(f"{path}: {name}_median has no items_per_second")
            return float(rate)
        if run.get("name") == name and single is None:
            rate = run.get("items_per_second")
            if rate is None:
                fail(f"{path}: {name} has no items_per_second counter")
            single = float(rate)
    if single is not None:
        return single
    fail(f"{path}: no benchmark named {name}")


def check_regress(current, baseline, name, tolerance):
    cur = rate_of(current, name)
    base = rate_of(baseline, name)
    floor = base * (1.0 - tolerance / 100.0)
    verdict = "ok" if cur >= floor else "REGRESSION"
    print(
        f"check_bench_json: {name}: current {cur:.3e} items/s vs baseline "
        f"{base:.3e} (floor {floor:.3e}, tolerance {tolerance:.0f}%): "
        f"{verdict}"
    )
    if cur < floor:
        fail(
            f"{current}: {name} regressed {100.0 * (1.0 - cur / base):.1f}% "
            f"vs {baseline} (>{tolerance:.0f}% allowed)"
        )


def report_rows(path, metric):
    """{(report title, first cell): metric value} for a report.h file."""
    data = load(path)
    rows = {}
    for report in data.get("reports", []):
        headers = report.get("headers", [])
        if metric not in headers:
            fail(f"{path}: report {report.get('title')!r} has no "
                 f"{metric!r} column (headers: {headers})")
        col = headers.index(metric)
        for row in report.get("rows", []):
            try:
                rows[(report.get("title"), row[0])] = float(row[col])
            except (ValueError, IndexError):
                fail(f"{path}: non-numeric {metric!r} cell in row {row}")
    if not rows:
        fail(f"{path}: no report rows to compare")
    return rows


def check_regress_reports(current, baseline, metric, tolerance):
    """Row-by-row comparison of two report.h-shaped files."""
    cur = report_rows(current, metric)
    base = report_rows(baseline, metric)
    worst = None
    for key, base_value in sorted(base.items()):
        if key not in cur:
            fail(f"{current}: missing row {key} present in {baseline}")
        cur_value = cur[key]
        floor = base_value * (1.0 - tolerance / 100.0)
        verdict = "ok" if cur_value >= floor else "REGRESSION"
        title, first = key
        print(
            f"check_bench_json: {title!r} [{first}]: {metric} current "
            f"{cur_value:.4g} vs baseline {base_value:.4g} "
            f"(floor {floor:.4g}): {verdict}"
        )
        if cur_value < floor and (worst is None or cur_value / base_value <
                                  worst[1] / worst[2]):
            worst = (key, cur_value, base_value)
    if worst is not None:
        key, cur_value, base_value = worst
        fail(
            f"{current}: {metric} of {key} regressed "
            f"{100.0 * (1.0 - cur_value / base_value):.1f}% vs {baseline} "
            f"(>{tolerance:.0f}% allowed)"
        )


def main():
    parser = argparse.ArgumentParser()
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--schema", action="store_true")
    mode.add_argument("--regress", action="store_true")
    parser.add_argument("files", nargs="+")
    parser.add_argument("--benchmark", default="BM_IsAncestorBatch")
    parser.add_argument("--metric", default="throughput qps")
    parser.add_argument("--tolerance", type=float, default=10.0)
    args = parser.parse_args()
    if args.schema:
        for path in args.files:
            check_schema(path)
    else:
        if len(args.files) != 2:
            fail("--regress takes exactly CURRENT and BASELINE")
        current, baseline = args.files
        if "reports" in load(current):
            check_regress_reports(current, baseline, args.metric,
                                  args.tolerance)
        else:
            check_regress(current, baseline, args.benchmark, args.tolerance)


if __name__ == "__main__":
    main()
