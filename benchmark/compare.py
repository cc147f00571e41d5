#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

usage: python3 benchmark/compare.py A/ B/

A and B are directories of untraced run logs named <workload>-seed<N>.log,
as `benchmark/run.sh --out DIR` writes them (traced logs, *-trace.log, are
skipped). A is the base, for example the parent commit; B is the change.
The last line of each log is the run's JSON result.

For every workload and every end-to-end metric of BENCHMARK.json, one row
shows each set's median and quartiles, the change of B's median against
A's, the metric's bound, and a verdict:

  ok          B's median is not worse than A's by more than the bound;
  worse       B's median is worse than A's by more than the bound;
  unresolved  the quartile spread of either set, as a share of its median,
              is wider than the bound, so the runs cannot resolve a change
              of that size -- unless every run of B beats every run of A,
              which counts as ok.

Exit status: 0 when every row is ok, 1 otherwise.
"""

import json
import math
import re
import statistics
import sys
from pathlib import Path

LOG_NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)\.log$")


def load_set(directory):
    """Returns {workload: [result, ...]} for the untraced logs in directory."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        m = LOG_NAME.match(path.name)
        if m is None:
            continue
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        if not lines:
            sys.exit(f"{path}: empty log")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            sys.exit(f"{path}: last line is not a JSON result (failed run?)")
        if not result.get("correct"):
            sys.exit(f"{path}: run reports incorrect output")
        runs.setdefault(m.group("workload"), []).append(result)
    if not runs:
        sys.exit(f"{directory}: no <workload>-seed<N>.log files")
    return runs


def summary(values):
    """(median, first quartile, third quartile) as statistics.quantiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(med, q1, q3):
    if med == 0 or not math.isfinite(med):
        return math.inf
    return (q3 - q1) / abs(med)


def verdict(a, b, better, bound):
    """Verdict and B's relative change (positive = worse) against A."""
    a_med, a_q1, a_q3 = summary(a)
    b_med, b_q1, b_q3 = summary(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / a_med if a_med else math.inf
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    noisy = max(spread(a_med, a_q1, a_q3), spread(b_med, b_q1, b_q3)) > bound
    if noisy and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    return "ok", worse_by


def fmt(med, q1, q3):
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    set_a, set_b = load_set(argv[1]), load_set(argv[2])

    header = ("workload", "metric", "unit", "n A/B", "A median [q1, q3]",
              "B median [q1, q3]", "change", "bound", "verdict")
    rows = [header]
    all_ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in set_a or workload not in set_b:
            rows.append((workload, "-", "-", "-", "-", "-", "-", "-",
                         "missing"))
            all_ok = False
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in set_a[workload]]
            b = [r["metrics"][name]["value"] for r in set_b[workload]]
            v, worse_by = verdict(a, b, metric["better"], metric["bound"])
            all_ok &= v == "ok"
            rows.append((workload, name, metric["unit"], f"{len(a)}/{len(b)}",
                         fmt(*summary(a)), fmt(*summary(b)),
                         f"{worse_by:+.2%} worse" if worse_by >= 0
                         else f"{-worse_by:.2%} better",
                         f"{metric['bound']:.0%}", v))
        failed = sum(r["failed"] for r in set_a[workload] + set_b[workload])
        if failed:
            print(f"note: {workload}: {failed} failed operations across the "
                  "runs (they count as +inf latency)")
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
