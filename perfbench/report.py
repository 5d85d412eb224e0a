#!/usr/bin/env python3
"""Traced-run report: per-layer numbers of every workload, as Markdown.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload W ...]

For each workload it runs the benchmark untraced (--trace 0) and traced
(--trace 1) with the same seed, then prints the per-layer table, the
share of the traced job time that the layer numbers cover (the
unattributed remainder shown beside it), and the tracing overhead: the
untraced run's jobs_per_s against the traced run's. perfbench/README.md
says which end-to-end metric each layer metric should move. Workloads,
metrics and the default --seconds come from BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics of the coverage account, reported in their own lines.
COVERAGE = ["trace.jobs_per_s", "trace.job_ms", "trace.layers_ms",
            "trace.unattributed_ms", "trace.covered_pct"]


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("report: %s --trace %d failed:\n%s" % (
            workload, trace, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(v):
    return "%.4g" % v


def report(workload, seed, seconds):
    plain = run(workload, seed, seconds, 0)
    traced = run(workload, seed, seconds, 1)
    m = traced["metrics"]
    out = ["### %s" % workload, "",
           "Untraced: %d operations, %d failed; traced: %d operations, %d "
           "failed." % (plain["attempted"], plain["failed"],
                        traced["attempted"], traced["failed"]), ""]
    out += ["| layer metric | value | unit |", "|---|---|---|"]
    for name, v in m.items():
        if name in COVERAGE or (v["value"] == 0 and name != "service.sheds"):
            continue
        if name == "service.sheds" and workload != "daemon_mix":
            continue
        out.append("| `%s` | %s | %s |" % (name, fmt(v["value"]), v["unit"]))
    job = m["trace.job_ms"]["value"]
    layers = m["trace.layers_ms"]["value"]
    rest = m["trace.unattributed_ms"]["value"]
    out += ["",
            "Job time %s ms: layers cover %s ms (%.1f%%), unattributed %s ms "
            "(%.1f%%)." % (fmt(job), fmt(layers),
                           m["trace.covered_pct"]["value"], fmt(rest),
                           100.0 * rest / job if job else 0.0)]
    plain_rate = plain["metrics"]["jobs_per_s"]["value"]
    traced_rate = m["trace.jobs_per_s"]["value"]
    if traced_rate > 0:
        out.append("Tracing overhead: %s jobs/s untraced, %s jobs/s traced "
                   "(%+.1f%% job time)." % (
                       fmt(plain_rate), fmt(traced_rate),
                       100.0 * (plain_rate / traced_rate - 1.0)))
    out.append("")
    return "\n".join(out)


def main():
    bench = benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", choices=workloads)
    a = ap.parse_args()
    for w in a.workload or workloads:
        print(report(w, a.seed, a.seconds), flush=True)


if __name__ == "__main__":
    main()
