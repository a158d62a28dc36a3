#!/usr/bin/env python3
"""Repository benchmark: simulated job time and simulator host cost.

    python3 perfbench/run.py --workload wc-8n-64m --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Builds perfbench/ (the Glasswing libraries
from src/ plus the gwbench runner, Release) into $CARGO_TARGET_DIR, default
.bench_build, then runs fresh gwbench processes, one repetition each, until
--seconds are spent:

  --trace 0  untraced repetitions; prints the end-to-end metrics (medians of
             the host numbers over repetitions, the simulated numbers, which
             must be identical in every repetition).
  --trace 1  alternating untraced and traced repetitions; prints the
             per-layer metrics. Simulated numbers must be bit-identical
             between the two and across repetitions; the traced run's spans
             are written to <build>/traces/.

The first repetition checks every output against an exact reference; later
ones must reproduce its output digest. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
when the run is correct. Full per-repetition results, with the host context
(nproc, compiler, build type, GW_THREADS, git revision, seed), go to
<build>/results/. See perfbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("wc-8n-64m", "ts-dag-16n", "mt-fair-100")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")
REP_TIMEOUT_S = 150
MAX_REPS = 40
# One simulator thread, no pool workers. On a shared host the timings of a
# single thread barely move when other processes take the remaining cores
# (wall_s within 5 % with three cores busy), while with pool workers both
# wall_s and cpu_s (worker spin) moved by 20-30 %. The pool pays for itself
# only on ts-dag-16n, and by less than that swing.
GW_THREADS = 1

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("sim_elapsed_s", "s"),
    ("sim_job_p50_s", "s"),
    ("sim_job_p90_s", "s"),
    ("sim_jobs_per_s", "jobs/s"),
    ("ok_frac", "ratio"),
]

PER_LAYER = [
    ("apps.gen_host_s", "s"),
    ("apps.map_self_host_s", "s"),
    ("apps.map_calls", "count"),
    ("apps.combine_host_s", "s"),
    ("apps.reduce_host_s", "s"),
    ("apps.partition_host_s", "s"),
    ("apps.split_host_s", "s"),
    ("core.collector.emit_host_s", "s"),
    ("core.collector.emits", "count"),
    ("core.collector.hash_probes", "count"),
    ("core.map.input_sim_s", "s"),
    ("core.map.kernel_sim_s", "s"),
    ("core.map.partition_sim_s", "s"),
    ("core.merge_delay_sim_s", "s"),
    ("core.reduce_phase_sim_s", "s"),
    ("core.store.spills", "count"),
    ("core.store.merges", "count"),
    ("core.store.merge_fanin", "ratio"),
    ("core.store.compress_ratio", "ratio"),
    ("core.store.peak_mem_mb", "MiB"),
    ("simnet.shuffle_bytes", "bytes"),
    ("simnet.dfs_bytes", "bytes"),
    ("simnet.control_bytes", "bytes"),
    ("simnet.core_bytes", "bytes"),
    ("gwdfs.stage_host_s", "s"),
    ("gwdfs.local_read_frac", "ratio"),
    ("gwcl.map_work_items", "count"),
    ("gwcl.map_ops", "count"),
    ("dag.round0_sim_s", "s"),
    ("dag.round1_sim_s", "s"),
    ("dag.pinned_peak_mb", "MiB"),
    ("dag.cache_hit_mb", "MiB"),
    ("sched.queue_wait_p50_sim_s", "s"),
    ("sched.queue_wait_p90_sim_s", "s"),
    ("sched.queue_peak", "count"),
    ("sched.preempts", "count"),
    ("sched.resumes", "count"),
    ("util.pool_busy_host_s", "s"),
    ("util.pool_tasks", "count"),
    ("sim.join_wait_host_s", "s"),
    ("sim.thread_self_host_s", "s"),
    ("sim.events", "count"),
    ("sim.host_us_per_event", "us"),
    ("trace.events_recorded", "count"),
    ("trace_overhead_frac", "ratio"),
]


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configures (once, Release) and builds perfbench; returns the gwbench
    path. An existing build directory keeps its own CMAKE_BUILD_TYPE."""
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return out / "gwbench"


def source_digest():
    """Content hash of src/ and perfbench/, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "none"
    return lines[1]


class Rep:
    """One gwbench process: one setup, one timed phase, one check."""

    def __init__(self, binary, out_dir, env, workload, seed, traced,
                 full_check, setup_budget_s, spans=None):
        tag = "%s-s%d-t%d-%d" % (workload, seed, traced, time.monotonic_ns())
        out = out_dir / (tag + ".json")
        cmd = [str(binary), "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0",
               "--check", "full" if full_check else "digest",
               "--setup-budget", str(setup_budget_s), "--out", str(out)]
        if spans:
            cmd += ["--spans", str(spans)]
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=REP_TIMEOUT_S)
        if proc.returncode not in (0, 1) or not out.exists():
            sys.exit("perfbench: gwbench exited with %d" % proc.returncode)
        self.data = json.loads(out.read_text())
        out.unlink()

    def __getitem__(self, key):
        return self.data[key]

    def next_estimate(self):
        """Seconds a digest-checked repetition like this one should take."""
        return 1.1 * (self["host"]["setup_s"] + self["host"]["wall_s"]) + 0.3


def run_reps(make, seconds):
    """Runs repetitions from make(index) until `seconds` would be exceeded."""
    t0 = time.monotonic()
    reps = []
    while True:
        batch = make(len(reps))
        reps.extend(batch)
        elapsed = time.monotonic() - t0
        need = sum(r.next_estimate() for r in batch)
        if len(reps) >= MAX_REPS or elapsed + need > seconds:
            return reps


def fingerprint(rep):
    return (rep["sim"], rep["output_digest"], rep["jobs_digest"])


def determinism_problems(reps, store):
    """Simulated metrics and outputs must repeat exactly: across these
    repetitions, traced or not, and across invocations on this build."""
    problems = []
    ref = fingerprint(reps[0])
    for i, r in enumerate(reps[1:], 1):
        if fingerprint(r) != ref:
            diff = sorted(k for k in set(ref[0]) | set(r["sim"])
                          if ref[0].get(k) != r["sim"].get(k))
            problems.append("repetition %d (traced=%s) differs from "
                            "repetition 0: %s" % (i, r["traced"],
                                                  diff or "output digest"))
    if store.exists():
        prev = json.loads(store.read_text())
        if (prev["sim"], prev["output_digest"], prev["jobs_digest"]) != ref:
            problems.append("simulated results differ from an earlier "
                            "invocation on this build (%s)" % store)
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps({"sim": ref[0], "output_digest": ref[1],
                                     "jobs_digest": ref[2]}, indent=1))
    return problems


def end_to_end(reps, attempted, failed):
    untraced = [r for r in reps if not r["traced"]]
    host = lambda k: statistics.median([r["host"][k] for r in untraced])
    sim = reps[0]["sim"]
    setups = [s for r in untraced for s in r["setup_samples"]]
    return {
        "wall_s": host("wall_s"),
        "cpu_s": host("cpu_s"),
        "peak_rss_mb": host("peak_rss_mb"),
        "setup_s": statistics.median(setups),
        "sim_elapsed_s": sim["sim_elapsed_s"],
        "sim_job_p50_s": sim["sim_job_p50_s"],
        "sim_job_p90_s": sim["sim_job_p90_s"],
        "sim_jobs_per_s": sim["sim_jobs_per_s"],
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(reps):
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    out = {}
    for name, _ in PER_LAYER:
        if name in reps[0]["sim"]:
            out[name] = reps[0]["sim"][name]
        elif name in traced[0]["layers"]:
            out[name] = statistics.median([r["layers"][name] for r in traced])
    wall = lambda rs: statistics.median([r["host"]["wall_s"] for r in rs])
    out["trace_overhead_frac"] = (wall(traced) - wall(untraced)) / wall(untraced)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out / "perfbench")
    env = dict(os.environ, GW_THREADS=str(GW_THREADS))
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    spans = out / "traces" / ("%s-seed%d.json" % (args.workload, args.seed))
    spans.parent.mkdir(parents=True, exist_ok=True)

    def rep(i, traced):
        first = i == 0 and not traced
        return Rep(binary, runs, env, args.workload, args.seed, traced,
                   full_check=first, setup_budget_s=1.0 if first else 0,
                   spans=spans if traced and i == 0 else None)

    if args.trace:
        reps = run_reps(lambda i: [rep(i, False), rep(i, True)], args.seconds)
    else:
        reps = run_reps(lambda i: [rep(i, False)], args.seconds)

    digest = source_digest()
    context = dict(reps[0]["context"], git_rev=git_rev(), src_digest=digest,
                   seed=args.seed, workload=args.workload,
                   repetitions=len(reps))
    problems = [p for r in reps for p in r["problems"]]
    problems += determinism_problems(
        reps, out / "determinism" / ("%s-seed%d-%s.json" %
                                     (args.workload, args.seed, digest)))
    if not context["optimized"] or \
            context["build_type"] not in OPTIMIZED_BUILD_TYPES:
        problems.append("invalid run: libraries built without optimisation "
                        "(%s)" % context["build_type"])
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    if args.trace:
        values, units = per_layer(reps), dict(PER_LAYER)
    else:
        values, units = end_to_end(reps, attempted, failed), dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    correct = not problems

    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" %
                (args.workload, args.seed, args.trace))).write_text(
        json.dumps({"context": context, "metrics": metrics,
                    "problems": problems, "na": reps[0]["na"],
                    "repetitions": [r.data for r in reps]}, indent=1))

    print(json.dumps({"host_context": context}))
    for name, m in metrics.items():
        print("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    if args.trace and reps[0]["na"]:
        print("not applicable to %s (reported as 0): %s" %
              (args.workload, ", ".join(reps[0]["na"])))
    print("jobs attempted %d, failed %d (failed_frac %.4g); sojourn samples "
          "%d per repetition" % (attempted, failed, failed / attempted,
                                 reps[0]["sim"]["sim_job_samples"]))
    for p in problems:
        print("PROBLEM: " + p)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
