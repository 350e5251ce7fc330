#!/usr/bin/env python3
"""Spread and comparison of store-benchmark result sets.

A result set is a directory of per-workload result files, as written by
benchmark/run.sh --out DIR (one DIR per run). Every *.json file under the
given directory that names a workload and its metrics counts as one run
of that workload; runs are ordered by path.

  compare.py --spread DIR
      Median, quartiles and quartile spread (q3 - q1, as a share of the
      median) of every (workload, metric) over the runs under DIR. This
      is how the bounds in BENCHMARK.json are set.

  compare.py PARENT_DIR CHANGE_DIR
      For every (workload, metric) with a direction: claims a gain only
      from at least MIN_PAIRS run pairs with as many parent runs as change
      runs, when the change wins at least 9/10 of the pairs (runs paired
      in path order, ties count for neither) and the medians differ by
      more than the parent's interquartile range. With fewer pairs it says
      "too few pairs" instead of any gain or no-change verdict. Flags a
      regression when the change's median is worse than the parent's by
      more than the metric's bound, and reports "unresolved" when the
      runs' own spread is wider than the bound (unless every change run
      beats every parent run). Exits 1 on a regression, a rise in
      error_rate, or a wrong outcome.

Bounds and directions come from BENCHMARK.json. A per-call latency such as
update_p50_us is bounded like the gated all-call metric of the same
quantile (call_p50_us) when there is one; error_rate must not rise; other
metrics get a gain verdict but no bound.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# choosing-metrics rule: a gain needs at least ten parent/change pairs.
MIN_PAIRS = 10


def load_runs(directory):
    """{workload: [run, ...]} for every result file under directory."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict) or "workload" not in doc or "metrics" not in doc:
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    return runs


def load_rules():
    """(direction by metric, bound by metric) from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return better, bound


def rule_for(metric, better, bound):
    """(direction or None, bound or None) for one metric name."""
    if metric in better:
        return better[metric], bound.get(metric)
    if metric == "error_rate":
        return "lower", None
    for q in ("_p50_us", "_p99_us", "_p999_us"):
        if metric.endswith(q):
            return "lower", bound.get("call" + q)
    return None, None


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, q3


def rel_spread(vals):
    med = statistics.median(vals)
    q1, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def unit_of(runs, metric):
    for r in runs:
        if metric in r["metrics"]:
            return r["metrics"][metric]["unit"]
    return ""


def metric_names(runs):
    names = []
    for r in runs:
        for m in r["metrics"]:
            if m not in names:
                names.append(m)
    return names


def spread(directory):
    runs = load_runs(directory)
    if not runs:
        print(f"no result files under {directory}", file=sys.stderr)
        return 2
    better, bound = load_rules()
    print(f"{'workload':<17} {'metric':<38} {'n':>3} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}  unit")
    worst_ok = True
    for workload, wruns in runs.items():
        for metric in metric_names(wruns):
            vals = values(wruns, metric)
            q1, q3 = quartiles(vals)
            s = rel_spread(vals)
            _, b = rule_for(metric, better, bound)
            flag = ""
            if b is not None:
                flag = "" if s <= b / 3 else ("  > bound/3" if s <= b else "  > BOUND")
                worst_ok = worst_ok and s <= b
            print(f"{workload:<17} {metric:<38} {len(vals):>3} "
                  f"{statistics.median(vals):>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{100 * s:>7.2f}% {'' if b is None else f'{100 * b:.0f}%':>6}  "
                  f"{unit_of(wruns, metric)}{flag}")
    wrong = [(w, r.get("failed")) for w, rs in runs.items() for r in rs
             if not r.get("correct", False)]
    for w, failed in wrong:
        print(f"WRONG OUTCOMES: {w} run with {failed} failed key-ops")
    return 0 if worst_ok and not wrong else 1


def compare(parent_dir, change_dir):
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    better, bound = load_rules()
    status = 0
    for side, runs in (("parent", parent), ("change", change)):
        for w, rs in runs.items():
            for r in rs:
                if not r.get("correct", False):
                    print(f"WRONG OUTCOMES in {side} {w}: {r.get('failed')} failed key-ops")
                    status = 1
    print(f"{'workload':<17} {'metric':<38} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'wins':>7}  verdict")
    for workload in sorted(set(parent) & set(change)):
        pr, cr = parent[workload], change[workload]
        for metric in metric_names(pr):
            direction, b = rule_for(metric, better, bound)
            if direction is None:
                continue
            pv, cv = values(pr, metric), values(cr, metric)
            if not pv or not cv:
                continue
            lower = direction == "lower"
            pm, cm = statistics.median(pv), statistics.median(cv)

            def beats(x, y):
                return x < y if lower else x > y

            if len(pv) != len(cv):
                print(f"warning: {workload} {metric}: {len(pv)} parent runs but "
                      f"{len(cv)} change runs, so no pairs are formed",
                      file=sys.stderr)
            paired = len(pv) == len(cv) >= MIN_PAIRS
            pairs = list(zip(pv, cv)) if len(pv) == len(cv) else []
            wins = sum(beats(c, p) for p, c in pairs)
            p1, p3 = quartiles(pv)
            delta = (cm - pm) / abs(pm) if pm else 0.0
            worse = delta if lower else -delta
            if metric == "error_rate":
                verdict = "ERROR RATE ROSE" if cm > pm or max(cv) > 0 else "zero"
                status = 1 if verdict != "zero" else status
            else:
                all_better = paired and all(beats(c, p) for c in cv for p in pv)
                gain = (paired and wins >= 0.9 * len(pairs)
                        and abs(cm - pm) > p3 - p1 and beats(cm, pm))
                noisy = b is not None and max(rel_spread(pv), rel_spread(cv)) > b
                if b is not None and not noisy and worse > b:
                    verdict = "REGRESSION"
                    status = 1
                elif not paired:
                    verdict = "too few pairs"
                elif b is None:
                    verdict = "gain" if gain else "reported"
                elif gain or all_better:
                    verdict = "gain" if gain else "better"
                elif noisy:
                    verdict = "unresolved"
                else:
                    verdict = "within bound"
            print(f"{workload:<17} {metric:<38} {pm:>12.6g} {cm:>12.6g} "
                  f"{100 * delta:>7.2f}% {wins:>3}/{len(pairs):<3}  {verdict}")
    return status


def main(argv):
    if len(argv) == 3 and argv[1] == "--spread":
        return spread(argv[2])
    if len(argv) == 3 and not argv[1].startswith("-"):
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
