#!/usr/bin/env python3
"""Summarises and compares benchmark run records (perfbench/out/*.json).

    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py compare OLD_DIR NEW_DIR

`spread` prints, per workload and end-to-end metric, the median of the
untraced runs in DIR and their quartile spread — the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median — against the metric's bound from BENCHMARK.json. It exits 1 when a
spread other than setup_s's exceeds its bound.

`compare` sets the medians of NEW_DIR against those of OLD_DIR. A metric
is a regression when its new median is worse than the old one by more than
its bound; it is unresolved when either side's own spread is wider than
the bound. Records whose machine fingerprints differ are flagged and the
comparison exits 3 unless --allow-mismatch is given; otherwise it exits 1
on any regression.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values):
    """(Q3 - Q1) / median, the quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def worse_share(old, new, better):
    """How much worse `new` is than `old`, as a share of `old` (negative: better)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def verdict(old_values, new_values, better, bound):
    """'regression', 'improved', 'unchanged' or 'unresolved' for one metric."""
    worse = worse_share(statistics.median(old_values), statistics.median(new_values), better)
    wide = max(quartile_spread(old_values), quartile_spread(new_values)) > bound
    if wide:
        sign = 1 if better == "lower" else -1
        if all(sign * n < sign * o for n in new_values for o in old_values):
            return "improved"
        return "unresolved"
    if worse > bound:
        return "regression"
    if worse < -bound:
        return "improved"
    return "unchanged"


def fingerprint_diff(records_a, records_b):
    """Fingerprint keys whose values differ across the two record sets."""
    keys = set()
    for r in records_a + records_b:
        keys.update(r.get("fingerprint", {}))
    diffs = {}
    for k in sorted(keys):
        values = {r.get("fingerprint", {}).get(k) for r in records_a + records_b}
        if len(values) > 1:
            diffs[k] = sorted(str(v) for v in values)
    return diffs


def load(directory):
    """Untraced run records in `directory`, grouped by workload."""
    by_workload = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def metric_values(records, name):
    return [r["result"]["metrics"][name]["value"] for r in records
            if name in r["result"]["metrics"]]


def declared_metrics(bench_path):
    return json.loads(Path(bench_path).read_text())["end_to_end"]


def cmd_spread(args):
    metrics = declared_metrics(args.bench)
    runs = load(args.dir)
    failing = False
    print(f"{'workload':12} {'metric':18} {'n':>3} {'median':>14} {'spread':>8} {'bound':>6}  status")
    for workload, records in sorted(runs.items()):
        for m in metrics:
            values = metric_values(records, m["name"])
            if not values:
                continue
            spread = quartile_spread(values)
            status = "ok" if spread <= m["bound"] / 3 else "wide" if spread <= m["bound"] else "OVER"
            if status == "OVER" and m["name"] != "setup_s":
                failing = True
            print(f"{workload:12} {m['name']:18} {len(values):3d} {statistics.median(values):14.6g} "
                  f"{spread:8.4f} {m['bound']:6.2f}  {status}")
    return 1 if failing else 0


def cmd_compare(args):
    metrics = declared_metrics(args.bench)
    old, new = load(args.old), load(args.new)
    old_all = [r for rs in old.values() for r in rs]
    new_all = [r for rs in new.values() for r in rs]
    diffs = fingerprint_diff(old_all, new_all)
    for k, values in diffs.items():
        print(f"FINGERPRINT MISMATCH {k}: {' | '.join(values)}")
    regressions = 0
    print(f"{'workload':12} {'metric':18} {'old':>14} {'new':>14} {'worse':>8} {'bound':>6}  verdict")
    for workload in sorted(set(old) & set(new)):
        for m in metrics:
            o, n = metric_values(old[workload], m["name"]), metric_values(new[workload], m["name"])
            if not o or not n:
                continue
            v = verdict(o, n, m["better"], m["bound"])
            regressions += v == "regression"
            worse = worse_share(statistics.median(o), statistics.median(n), m["better"])
            print(f"{workload:12} {m['name']:18} {statistics.median(o):14.6g} "
                  f"{statistics.median(n):14.6g} {worse:+8.3f} {m['bound']:6.2f}  {v}")
    if diffs and not args.allow_mismatch:
        return 3
    return 1 if regressions else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("dir")
    cp = sub.add_parser("compare")
    cp.add_argument("old")
    cp.add_argument("new")
    cp.add_argument("--allow-mismatch", action="store_true")
    args = ap.parse_args(argv)
    return cmd_spread(args) if args.cmd == "spread" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
