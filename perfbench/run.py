#!/usr/bin/env python3
"""traq benchmark: four workloads from sampler to service.

Builds the traq library, traq_serve, traq_dispatch and the benchmark
program traq_perfbench from this checkout (perfbench/CMakeLists.txt, into
.bench_build/perfbench), then runs one workload in fresh processes and
prints one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload memory-pauli --seed 1 \\
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1
replays the workload on one thread through the public stage functions
and reports the per-layer metrics, writing a Chrome trace-event file
under .bench_build/perfbench-traces/.  --all runs every workload and
prints a table; --selftest runs the self-test of the benchmark's helpers.
See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
PERFBENCH = os.path.join(BUILD, "traq_perfbench")
BIN_DIR = os.path.join(BUILD, "traq")

WORKLOADS = ("memory-pauli", "cnot-erasure", "alpha-fit", "serve-estimates")

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

LAYERS = ("codes", "noise", "sim", "decoder", "estimator", "model", "service")
KINDS = ("factoring", "chemistry", "gidney-ekera", "qldpc-storage",
         "factory-design", "idle-storage")
PER_LAYER = (
    [
        ("codes.build_s", "s"),
        ("noise.compile_s", "s"),
        ("sim.sample_s", "s"),
        ("sim.extract_s", "s"),
        ("sim.defects_per_shot", "count"),
        ("sim.dem_s", "s"),
        ("decoder.compile_s", "s"),
        ("decoder.batch_s", "s"),
        ("decoder.memo_hit_share", "ratio"),
        ("decoder.global_hit_share", "ratio"),
        ("decoder.match_s", "s"),
        ("decoder.match_us_per_syndrome", "us"),
        ("decoder.exact_share", "ratio"),
        ("decoder.heralded_share", "ratio"),
        ("decoder.compile_hit_share", "ratio"),
        ("estimator.sweep_points_per_s", "1/s"),
        ("model.fit_s", "s"),
    ]
    + [("estimator.estimate_us." + k, "us") for k in KINDS]
    + [
        ("service.parse_us", "us"),
        ("service.validate_us", "us"),
        ("service.wire_us", "us"),
        ("service.job_latency_us", "us"),
        ("service.cache_hit_share", "ratio"),
        ("service.dispatch_overhead_us", "us"),
        ("service.dispatch_requeues", "count"),
    ]
    + [(layer + ".self_s", "s") for layer in LAYERS]
    + [("trace.overhead_share", "ratio")]
)

# Fresh processes whose set-up time is measured per run; the median
# is reported.
SETUP_PROBES = 7
# Wall-clock budget of one run once the build is done.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The environment every child runs in: no TRAQ_* variable, so no
    stray override can change what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRAQ_")}
    dropped = sorted(set(os.environ) - set(env))
    if dropped:
        log("unset for the run: " + " ".join(dropped))
    return env


def run_child(argv, env, deadline, capture=True):
    """Run argv in its own process group; kill the group at the
    deadline.  Returns stdout (captured) or None."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + os.path.basename(argv[0]))
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("timed out: " + " ".join(argv[:3]))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(argv[:3]),
                                                 proc.returncode))
    return out


def build(env, deadline):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no traq sources next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_child(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], env, deadline,
                  capture=False)
    run_child(["cmake", "--build", BUILD, "-j", "4"], env, deadline,
              capture=False)


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError("traq_perfbench printed no result")
    return json.loads(lines[-1])


def perfbench(mode, workload, seed, seconds, env, deadline, extra=()):
    argv = [PERFBENCH, mode, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(float(seconds)), "--bin-dir", BIN_DIR]
    argv += list(extra)
    return last_json(run_child(argv, env, deadline))


def setup_probes(count, workload, seed, env, deadline):
    """Times from spawn to the workload's first result, one fresh
    process each; traq_perfbench reads the same monotonic clock."""
    values = []
    for _ in range(count):
        t0 = time.monotonic()
        res = perfbench("setup", workload, seed, 1, env, deadline,
                     ["--t0", repr(t0)])
        values.append(res["setup_s"])
    return values


def report_checks(res):
    ok = True
    for c in res.get("checks", []):
        print("check %-28s %s  %s" % (c["name"], "ok  " if c["ok"] else
                                       "FAIL", c["detail"]))
        ok = ok and c["ok"]
    return ok and bool(res.get("checks"))


def run_workload(workload, seed, seconds, trace, env, deadline):
    """One run; returns the result object of the benchmark contract."""
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        path = os.path.join(TRACES, "%s-seed%d.json" % (workload, seed))
        res = perfbench("trace", workload, seed, seconds, env, deadline,
                     ["--trace-out", path])
        print("trace file: " + os.path.relpath(path, ROOT))
        units = PER_LAYER
    else:
        # Probes before and after the timed run, so that one slow
        # spell of a shared host does not cover all of them.
        before = SETUP_PROBES // 2 + 1
        setup = setup_probes(before, workload, seed, env, deadline)
        res = perfbench("run", workload, seed, seconds, env, deadline)
        setup += setup_probes(SETUP_PROBES - before, workload, seed, env,
                              deadline)
        res["metrics"]["setup_s"] = statistics.median(setup)
        units = END_TO_END
    print("resolved: " + json.dumps(res.get("resolved", {}),
                                    sort_keys=True))
    print("info: " + json.dumps(res.get("info", {}), sort_keys=True))
    correct = report_checks(res)
    metrics = {}
    for name, unit in units:
        value = res["metrics"].get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print("metric %-36s %.6g %s" % (name, value, unit))
    return {"correct": correct, "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print a table")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.all or args.selftest or args.workload):
        ap.error("one of --workload, --all, --selftest is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    env = clean_env()
    try:
        build(env, time.monotonic() + 850.0)
        if args.selftest:
            print(run_child([PERFBENCH, "selftest"], env,
                            time.monotonic() + RUN_BUDGET_S), end="")
            return 0
        if args.all:
            rows = []
            for w in WORKLOADS:
                res = run_workload(w, args.seed, args.seconds, args.trace,
                                   env, time.monotonic() + RUN_BUDGET_S)
                rows.append((w, res))
            print()
            for w, res in rows:
                print("%-16s correct=%s attempted=%d failed=%d" % (
                    w, res["correct"], res["attempted"], res["failed"]))
                for name, m in res["metrics"].items():
                    print("    %-36s %.6g %s" % (name, m["value"],
                                                 m["unit"]))
            print(json.dumps({w: r for w, r in rows}))
            return 0 if all(r["correct"] for _, r in rows) else 1
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, env,
                              time.monotonic() + RUN_BUDGET_S)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
