#!/usr/bin/env python3
"""Check that the names the benchmark emits match BENCHMARK.json exactly.

usage: python3 benchmark/check_names.py

Builds and lists the workloads through benchmark/run.sh, then runs each
workload in --smoke mode, untraced and traced, and checks that
  * the workload names equal BENCHMARK.json's workloads, in order;
  * an untraced run's metrics equal the end_to_end metrics, with units;
  * a traced run's metrics equal the per_layer metrics, with units, and
    its printed lines add exactly the workload's own layer metrics
    (WORKLOAD_LINES), so a layer with no source is absent, not 0;
  * the trace file a traced run writes loads as trace-event JSON.
Exits 1 at the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["bash", str(ROOT / "benchmark" / "run.sh")]

# Layer metrics that only some workloads have. A traced run prints them as
# lines, not in its JSON result, and only where their source exists: an
# SHJ has no partition phase, only filter-join-groupby has a select and a
# group-by, only the service has sessions.
WORKLOAD_LINES = {
    "phj-uniform": ["join.partition_s", "join.partition_ns_per_tuple"],
    "shj-u64-skew": [],
    "filter-join-groupby": ["join.select_s", "join.groups"],
    "service-small": ["join.partition_s", "join.partition_ns_per_tuple",
                      "service.submit_s", "service.outside_report_s",
                      "exec.lease_peak_workers", "service.rejected",
                      "service.failed"],
}


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"run.sh {' '.join(args)} exited {proc.returncode}")
    return proc.stdout.splitlines()


def expect_equal(what, got, want):
    if got != want:
        sys.exit(f"{what}:\n  emitted {got}\n  BENCHMARK.json {want}")


def check_trace(path):
    doc = json.loads(Path(path).read_text())
    events = doc["traceEvents"]
    if not events:
        sys.exit(f"{path}: no trace events")
    for e in events:
        for key in ("name", "ph", "ts", "dur", "pid", "tid", "args"):
            if key not in e:
                sys.exit(f"{path}: event without '{key}': {e}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = run(["--list"])
    expect_equal("workloads", workloads, [w["name"] for w in spec["workloads"]])
    for workload in workloads:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            lines = run(["--workload", workload, "--smoke", "--trace", trace])
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                sys.exit(f"{workload}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                sys.exit(f"{workload}: bad result {result}")
            got = [(n, m["unit"]) for n, m in result["metrics"].items()]
            want = [(m["name"], m["unit"]) for m in spec[key]]
            expect_equal(f"{workload} --trace {trace} metrics", got, want)
            printed = [ln.split(" ")[1] for ln in lines[:-1]
                       if ln.startswith(workload + " ")]
            want_lines = [n for n, _ in want]
            if trace == "1":
                want_lines += WORKLOAD_LINES[workload]
            expect_equal(f"{workload} --trace {trace} metric lines", printed,
                         want_lines)
            if trace == "1":
                traces = [ln.split(" ", 2)[2] for ln in lines
                          if ln.startswith("# trace ")]
                if len(traces) != 1:
                    sys.exit(f"{workload}: no '# trace PATH' line")
                check_trace(traces[0])
        print(f"{workload}: names, units and trace ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
