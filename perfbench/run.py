#!/usr/bin/env python3
"""Builds the system from this checkout and runs one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --short [--corrupt]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first form configures and builds
perfbench/CMakeLists.txt (the system's libraries from src/, bdsd from
examples/, and the bds_perfbench runner) into .bench_build/perfbench, then
runs it. The runner prints every metric it measured; the last line of
standard output here is the result JSON with the metrics BENCHMARK.json
declares, in its order and with its units: the end_to_end ones with
--trace 0, the per_layer ones with --trace 1.

--short runs one round of every workload, untraced and traced, with every
check on, and exits non-zero unless every operation passes but those of
the known fault (KNOWN_FAULT_OPS). With --corrupt each workload corrupts
its first output that would otherwise pass, and --short then expects
exactly one more failed operation per run. --self-test checks the oracles
themselves on hand-written netlists.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["flow_datapath", "flow_control", "verify_cec", "daemon_mix"]
RUN_TIMEOUT_S = 170
# Operations of one --short round that fail on today's code: the circuit
# the sweep fault makes wrong (perfbench/src/flow.hpp, kFaultSeed), sent
# once per round by flow_control and once per client round by the four
# daemon_mix clients. A fix of the fault makes --short report it here.
KNOWN_FAULT_OPS = {"flow_control": 1, "daemon_mix": 4}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no system sources (src/CMakeLists.txt) next to "
                 "perfbench/; run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)


def run_bench(args):
    """Runs bds_perfbench with `args`; returns (exit code, stdout text)."""
    cmd = [os.path.join(BUILD, "bds_perfbench"),
           "--bdsd", os.path.join(BUILD, "bdsd")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # bds_perfbench and the daemon it started share a process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for a run."""
    section = benchmark()["per_layer" if trace == "1" else "end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def select(result, trace):
    """The declared metrics of `result`, in declared order. A missing
    end-to-end metric marks the run incorrect; a per-layer metric the
    workload does not exercise reads 0."""
    measured = result["metrics"]
    metrics = {}
    for name, unit in declared(trace):
        if name not in measured and trace == "0":
            print("perfbench: metric %s was not measured" % name,
                  file=sys.stderr)
            result["correct"] = False
        metrics[name] = {"value": measured.get(name, 0), "unit": unit}
    result["metrics"] = metrics
    return result


def short(corrupt):
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", trace, "--short"]
            if corrupt:
                args.append("--corrupt")
            code, out = run_bench(args)
            result = last_json(out) if code == 0 else None
            expected = KNOWN_FAULT_OPS.get(workload, 0) + (1 if corrupt else 0)
            good = (result is not None and result["correct"]
                    and result["failed"] == expected)
            ok = ok and good
            print("%-14s trace=%s %s attempted=%s failed=%s (expected %d)" % (
                workload, trace, "ok  " if good else "FAIL",
                result and result["attempted"], result and result["failed"],
                expected))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=benchmark()["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="check the oracles on hand-written netlists")
    a = ap.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if a.self_test:
        code, out = run_bench(["--self-test"])
        sys.stdout.write(out)
        return code
    if a.short:
        return short(a.corrupt)
    if a.workload is None:
        ap.error("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace]
    if a.corrupt:
        args.append("--corrupt")
    code, out = run_bench(args)
    result = last_json(out) if code == 0 else None
    if result is None:
        print("perfbench: the runner exited with %d and no result" % code,
              file=sys.stderr)
        return code or 1
    print(json.dumps(select(result, a.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
