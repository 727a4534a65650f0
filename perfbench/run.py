#!/usr/bin/env python3
"""The repo benchmark: three fabric tiers of the HPCC simulator, each a batch
job of fixed simulated work, timed end to end, with a separate traced run for
per-layer figures. See README.md in this directory.

  python3 perfbench/run.py --workload fabric32_packet [--seed N]
                           [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --self-check [--workload W] [--seed N]

Run from the root of a source checkout. The first call builds the compiled
half (perfbench_bin) under .bench_build/perfbench; inputs and outputs of a
run go to .bench_run/<workload>-seed<N>/. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")

# The seed every reported figure uses unless told otherwise, and one kept
# out of all tuning so a claimed gain can be re-checked on unseen inputs.
DEFAULT_SEED = 20190819
HELD_OUT_SEED = 7340033

WORKLOADS = ["fabric32_packet", "hybrid48_fluid", "sweep32_warm"]
# Lane runs: after its repeats, a run of fabric32_packet runs the same
# document once, untimed, on this many lanes; the lane run must reproduce the
# one-lane results exactly. Its traced run traces one lane run too, for the
# runner.lane_* metrics. Lane wall times are not end-to-end metrics: on a
# shared host they swing with other tenants' load (see README.md).
LANES = {"fabric32_packet": 4}
# Sweep workloads: (points built cold, points restored from the checkpoint).
WARM_SHAPE = {"sweep32_warm": (1, 7)}
MIN_REPEATS = 3

# (name, unit, better, bound): the timed run's metrics.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better): the traced run's metrics.
PER_LAYER = [
    ("scenario.parse_s", "s", "lower"),
    ("scenario.csv_s", "s", "lower"),
    ("scenario.builder_point_s", "s", "lower"),
    ("scenario.member_point_s", "s", "lower"),
    ("scenario.points_restored", "count", "higher"),
    ("scenario.point_other_s", "s", "lower"),
    ("topo.build_s", "s", "lower"),
    ("topo.routes_s", "s", "lower"),
    ("topo.route_mb", "MB", "lower"),
    ("topo.repair_s", "s", "lower"),
    ("topo.repairs", "count", "lower"),
    ("runner.lane_events_max", "count", "lower"),
    ("runner.lane_imbalance", "ratio", "lower"),
    ("runner.lane_run_s", "s", "lower"),
    ("runner.lane_speedup", "ratio", "higher"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_pkt", "ratio", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.run_self_s", "s", "lower"),
    ("net.pkts_forwarded", "count", "lower"),
    ("net.ns_per_pkt", "ns", "lower"),
    ("net.train_abort_ratio", "ratio", "lower"),
    ("net.max_queue_kb", "KB", "lower"),
    ("net.pfc_pauses", "count", "lower"),
    ("net.drops", "count", "lower"),
    ("host.flows_completed", "count", "higher"),
    ("host.flows_failed", "count", "lower"),
    ("host.retx_timeouts", "count", "lower"),
    ("cc.updates", "count", "lower"),
    ("cc.updates_per_pkt", "ratio", "lower"),
    ("core.int_echoes", "count", "lower"),
    ("fluid.flows", "count", "lower"),
    ("fluid.admit_s", "s", "lower"),
    ("fluid.admit_us_p50", "us", "lower"),
    ("fluid.admit_us_p99", "us", "lower"),
    ("fluid.ticks", "count", "lower"),
    ("fluid.flow_ticks", "count", "lower"),
    ("fluid.coupled_links", "count", "lower"),
    ("workload.gen_s", "s", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("obs.span_coverage", "ratio", "higher"),
]

IDENTITY = ["trace_hash", "packets_forwarded", "flows_created",
            "flows_completed", "flows_failed", "sim_time_ms"]


class BenchError(Exception):
    """A failure that leaves no measurement to report."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench_bin; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runner", "experiment.h")):
        raise BenchError("no simulator sources under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "perfbench_bin"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench_bin")


def call(binary, args, cwd):
    """Runs one perfbench_bin process; returns its JSON result."""
    proc = subprocess.run([binary] + args, cwd=cwd, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("perfbench_bin %s exited %d" %
                         (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def generate(binary, workload, seed, run_dir):
    """Writes the seeded inputs twice and checks both copies are identical."""
    copies = []
    for sub in ("a", "b"):
        d = os.path.join(run_dir, "gen_" + sub)
        os.makedirs(d, exist_ok=True)
        meta = call(binary, ["gen", workload, str(seed), d], run_dir)
        files = {}
        for name in (workload + ".json", workload + ".trace.csv"):
            with open(os.path.join(d, name), "rb") as f:
                files[name] = f.read()
        copies.append((meta, files))
    if copies[0][1] != copies[1][1]:
        raise BenchError("generator is not reproducible for seed %d" % seed)
    for name, data in copies[0][1].items():
        with open(os.path.join(run_dir, name), "wb") as f:
            f.write(data)
    return copies[0][0]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def point_failures(rep, workload, reference_identity):
    """Failed points of one timed repeat, with the reasons. A point fails on
    its own error or violations; a failed check on the whole document fails
    every point of the repeat."""
    reasons = []
    ident = rep["identity"]
    if ident["flows_completed"] + ident["flows_failed"] > ident["flows_created"]:
        reasons.append("flows completed + failed exceed flows created")
    if reference_identity is not None and ident != reference_identity:
        reasons.append("identity differs: %s vs %s" %
                       (ident, reference_identity))
    if workload in WARM_SHAPE:
        built, restored = WARM_SHAPE[workload]
        if (rep["warm_built"], rep["warm_restored"]) != (built, restored):
            reasons.append("warm sweep built %d / restored %d points, want "
                           "%d / %d" % (rep["warm_built"],
                                        rep["warm_restored"], built, restored))
    failed = int(rep["points"]) if reasons else len(rep["errors"])
    return failed, rep["errors"] + reasons


def metric_block(values, table):
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_ in table}


def run_timed(binary, workload, run_dir, seconds, points):
    scenario = workload + ".json"
    attempted = failed = 0
    problems = []
    reference = None
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPEATS or time.monotonic() - start < seconds:
        try:
            rep = call(binary, ["timed", scenario, workload + ".csv"], run_dir)
        except BenchError as e:
            # A crashed repeat fails its whole document.
            attempted += points
            failed += points
            problems.append(str(e))
            if len(problems) > 3:
                break
            continue
        if reference is None:
            reference = rep["identity"]
        attempted += int(rep["points"])
        bad, why = point_failures(rep, workload, reference)
        failed += bad
        problems += why
        reps.append(rep)
    if workload in LANES and reference is not None:
        attempted += points
        try:
            lanes = call(binary, ["timed", scenario, "lanes.csv",
                                  "--shards=%d" % LANES[workload]], run_dir)
            bad, why = point_failures(lanes, workload, reference)
        except BenchError as e:
            bad, why = points, [str(e)]
        failed += bad
        problems += ["%d lanes: %s" % (LANES[workload], w) for w in why]

    summary = {}
    for name, unit, _, _ in END_TO_END:
        vals = [r[name] for r in reps]
        if not vals:
            raise BenchError("no repeat of %s completed" % workload)
        q1, med, q3 = quartiles(vals)
        summary[name] = med
        print("%-12s median %.4f %s  (q1 %.4f, q3 %.4f, n=%d)" %
              (name, med, unit, q1, q3, len(vals)))
    ident = reps[0]["identity"] if reps else {}
    print("identity     " + " ".join("%s=%s" % (k, ident.get(k))
                                      for k in IDENTITY))
    print("fail_ratio   %d/%d" % (failed, attempted))
    for p in problems:
        print("FAILED       " + p)
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": metric_block(summary, END_TO_END)}


def run_traced(binary, workload, run_dir, seconds, gen_s):
    scenario = workload + ".json"
    base = os.path.join(RUN_DIR, os.path.basename(run_dir))
    spans = base + ".spans.jsonl"
    plain, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        plain.append(call(binary, ["timed", scenario, workload + ".csv"],
                          run_dir))
        traced.append(call(binary, ["traced", scenario, "traced.csv", spans],
                           run_dir))
    lane_runs = []
    if workload in LANES:
        lane_runs.append(call(binary, ["traced", scenario, "lanes.csv",
                                       base + ".lanes.spans.jsonl",
                                       "--shards=%d" % LANES[workload]],
                              run_dir))

    # Metrics run.py derives; perfbench_bin reports the rest.
    derived = {"workload.gen_s", "obs.trace_overhead", "runner.lane_run_s",
               "runner.lane_speedup"}
    names = {m[0] for m in PER_LAYER} - derived
    problems = []
    for t in traced + lane_runs:
        if set(t["layers"]) != names:
            raise BenchError("per-layer names differ from PER_LAYER: %s" %
                             sorted(set(t["layers"]) ^ names))
        problems += t["errors"]
        if t["identity"] != plain[0]["identity"]:
            problems.append("traced identity %s differs from the timed run's "
                            "%s" % (t["identity"], plain[0]["identity"]))

    def median(name, runs=traced):
        return statistics.median(t["layers"][name] for t in runs)

    values = {name: median(name) for name in names}
    values["workload.gen_s"] = gen_s
    values["obs.trace_overhead"] = (
        statistics.median(t["wall_s"] for t in traced) /
        statistics.median(p["wall_s"] for p in plain))
    values["runner.lane_run_s"] = values["runner.lane_speedup"] = 0
    if lane_runs:
        for name in ("runner.lane_events_max", "runner.lane_imbalance"):
            values[name] = median(name, lane_runs)
        values["runner.lane_run_s"] = median("sim.run_self_s", lane_runs)
        values["runner.lane_speedup"] = (values["sim.run_self_s"] /
                                         values["runner.lane_run_s"])
    for name, unit, _ in PER_LAYER:
        print("%-26s %.6g %s" % (name, values[name], unit))
    print("spans        " + os.path.relpath(spans, ROOT))
    for p in problems:
        print("FAILED       " + p)
    attempted = sum(int(t["points"]) for t in traced + lane_runs)
    failed = attempted if problems else 0
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metric_block(values, PER_LAYER)}


def self_check(binary, workloads, seed):
    """Each workload once under the standard invariant monitors (untimed)."""
    ok = True
    for w in workloads:
        run_dir = os.path.join(RUN_DIR, "%s-seed%d" % (w, seed))
        os.makedirs(run_dir, exist_ok=True)
        generate(binary, w, seed, run_dir)
        rep = call(binary, ["timed", w + ".json", w + ".csv", "--check"],
                   run_dir)
        bad = rep["errors"]
        print("%-16s %s" % (w, "ok" if not bad else "; ".join(bad)))
        ok = ok and not bad
    return 0 if ok else 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run each workload (or --workload) once under the "
                         "invariant monitors, untimed")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 53:
        ap.error("--seed must be in [0, 2^53)")
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")

    try:
        binary = build()
        if args.self_check:
            return self_check(binary, [args.workload] if args.workload
                              else WORKLOADS, args.seed)
        run_dir = os.path.join(RUN_DIR, "%s-seed%d" % (args.workload,
                                                       args.seed))
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        meta = generate(binary, args.workload, args.seed, run_dir)
        if args.trace:
            result = run_traced(binary, args.workload, run_dir, args.seconds,
                                meta["gen_s"])
        else:
            result = run_timed(binary, args.workload, run_dir, args.seconds,
                               int(meta["points"]))
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
