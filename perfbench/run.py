#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Ursa simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs workload W through RunExperiment,
checks the results and prints every metric by name with its unit. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
the untraced binary for reference, then the frame-pointer build once
untraced and once traced (Tracer on, SIGPROF sampler), and reports the
per-layer metrics. Any failed check counts every job the run started as
failed and makes the exit code 1.
README.md describes the workloads and metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("tpcds-20w", "shuffle-3kw", "place-3kw", "chaos-tpch-20w")
DEADLINE_S = 170  # Every run must end within 180 s once built.

# Share of a --trace 1 run's --seconds given to the untraced reference runs;
# the traced run itself is one pass over the workload.
UNTRACED_SHARE_OF_TRACED_RUN = 0.4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def manifest(seed):
    """What produced this output, so a noisy set can be diagnosed later."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"), recursive=True)):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "seed": seed,
        "git_revision": rev,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg()[0],
    }


def build(build_dir):
    """Configures and builds both benchmark binaries. Returns their paths."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "build.ninja" if generator else "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                        *generator], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench_plain",
                    "perfbench_fp"], check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "perfbench_plain"), os.path.join(build_dir, "perfbench_fp"))


def run_binary(argv, out_path, deadline):
    """Runs one benchmark process. Returns its JSON output, or None if it
    failed, and the number of jobs it started, which it prints before each
    run, so that a process that aborts still counts its jobs."""
    progress_path = out_path + ".stdout"
    name = os.path.basename(argv[0])
    with open(progress_path, "w") as progress:
        try:
            code = subprocess.run([*argv, f"--out={out_path}"], stdout=progress,
                                  timeout=max(1.0, deadline - time.time())).returncode
        except subprocess.TimeoutExpired:
            code = "a timeout"
    with open(progress_path) as progress:
        started = sum(int(line.split()[1]) for line in progress if line.startswith("started "))
    if code != 0:
        log(f"perfbench: {name} ended with {code}")
        return None, started
    with open(out_path) as f:
        return json.load(f), started


def counter(out, name):
    return out["counters"][name]["value"]


def check(checks, ok, what):
    checks.append((bool(ok), what))


def normalized(out):
    """Set-up and run times in seconds at the reference kernel's nominal
    speed: each time scaled by nominal / (mean kernel time around it)."""
    ref, nominal = out["ref_s"], out["ref_nominal_s"]
    setup = statistics.median(out["setup_s"]) * nominal / ((ref[0] + ref[1]) / 2)
    runs = [wall * nominal / ((ref[i + 1] + ref[i + 2]) / 2)
            for i, wall in enumerate(out["wall_s"])]
    return setup, statistics.median(runs)


def end_to_end(out, checks):
    setup, wall = normalized(out)
    check(checks, len(set(out["digests"])) == 1, "digest identical across repeats")
    check(checks, counter(out, "jobs.completed") == counter(out, "jobs.submitted"),
          "every submitted job completed")
    check(checks, out["plan_monotasks"] > 0, "plan has monotasks")
    return {
        "wall_norm_s": (wall, "s"),
        "monotasks_per_norm_s": (out["plan_monotasks"] / wall, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "sim_makespan_s": (counter(out, "sim_makespan_s"), "s"),
        "sim_avg_jct_s": (counter(out, "sim_avg_jct_s"), "s"),
    }


def dist_metrics(prefix, dist, unit, suffix=""):
    return {
        f"{prefix}_p50{suffix}": (dist["p50"], unit),
        f"{prefix}_p99{suffix}": (dist["p99"], unit),
        f"{prefix}_tail{suffix}": (dist["tail"], unit),
        f"{prefix}_tail_pct": (dist["tail_pct"], "%"),
        f"{prefix}_n": (dist["n"], "count"),
    }


def per_layer(untraced, traced, shares, checks):
    t = traced["trace"]
    untraced_wall = statistics.median(untraced["wall_s"])
    check(checks, set(traced["digests"]) == {untraced["digests"][0]},
          "digest identical between traced and untraced runs")
    check(checks, counter(traced, "jobs.completed") == counter(traced, "jobs.submitted"),
          "every submitted job completed (traced)")
    if traced["clean"]:
        check(checks, t["completions"] == traced["plan_monotasks"],
              "trace monotask completions equal plan monotasks")
        check(checks, t["dropped"] == 0, "trace dropped no events")
    check(checks, traced["sampler"]["samples"] > 0, "sampler took samples")
    m = {f"{layer}.self_share": (share, "ratio") for layer, share in shares.items()}
    # Raw host time, unscaled: the drift of a shared host exceeds any bound.
    m["wall_s"] = (untraced_wall, "s")
    m["monotasks_per_s"] = (traced["plan_monotasks"] / untraced_wall, "1/s")
    m["host.ref_s"] = (statistics.median(untraced["ref_s"]), "s")
    m.update(dist_metrics("scheduler.tick_us", t["tick_us"], "us"))
    m["scheduler.tick_share"] = (t["tick_share"], "ratio")
    for name in ("ticks", "bestworker_calls", "workers_scanned", "scoring_truncated"):
        m[f"scheduler.{name}"] = (counter(traced, f"scheduler.{name}"), "count")
    m["scheduler.scanned_per_call"] = (counter(traced, "scheduler.scanned_per_call"), "workers")
    m["scheduler.placed"] = (t["placed"], "count")
    m["scheduler.candidates"] = (t["candidates"], "count")
    m["sim.events"] = (counter(traced, "sim.events"), "count")
    m["sim.events_per_s"] = (counter(traced, "sim.events") / untraced_wall, "1/s")
    m.update(dist_metrics("exec.cpu.queue_wait", t["cpu_queue_wait_s"], "s", "_s"))
    m.update(dist_metrics("exec.net.queue_wait", t["net_queue_wait_s"], "s", "_s"))
    m["exec.cpu.busy_s"] = (t["cpu_busy_s"], "s")
    m["exec.net.busy_s"] = (t["net_busy_s"], "s")
    m["exec.useful_ratio"] = (traced["plan_monotasks"] / max(1, t["completions"]), "ratio")
    m["net.flows"] = (t["net_flows"], "count")
    m["net.bytes"] = (t["net_bytes"], "B")
    for name in ("msgs", "retransmits", "fenced", "dup_suppressed", "journal_records"):
        m[f"ctrl.{name}"] = (counter(traced, f"ctrl.{name}"), "count")
    m["ctrl.recovery_s"] = (counter(traced, "ctrl.recovery_s"), "s")
    for name in ("fault.tasks_reset", "fault.retries", "spec.launched", "spec.won"):
        m[name] = (counter(traced, name), "count")
    m["spec.win_ratio"] = (counter(traced, "spec.win_ratio"), "ratio")
    m["spec.wasted_s"] = (counter(traced, "spec.wasted_s"), "s")
    # Same build and process, back to back: the Tracer's and the sampler's cost.
    m["obs.trace_overhead"] = (traced["wall_s"][0] / traced["untraced_wall_s"], "ratio")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    info = manifest(args.seed)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        plain, fp = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    deadline = time.time() + DEADLINE_S
    scratch = os.path.join(build_dir, "runs", f"{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    common = [f"--workload={args.workload}", f"--seed={args.seed}"]

    checks = []
    attempted = 0
    try:
        if args.trace == 0:
            out, attempted = run_binary([plain, *common, f"--seconds={args.seconds}"],
                                        f"{scratch}/untraced.json", deadline)
            outputs = [out]
            metrics = end_to_end(out, checks) if out else {}
            info["sampler_hz"] = 0
            if out:
                # Host and CPU time of every repeat (cpu well below wall
                # means descheduled), the median raw set-up time and the
                # reference kernel's times.
                info["repeat_wall_s"] = [round(v, 4) for v in out["wall_s"]]
                info["repeat_cpu_s"] = [round(v, 4) for v in out["cpu_s"]]
                info["setup_raw_s"] = round(statistics.median(out["setup_s"]), 5)
                info["reference_kernel_s"] = [round(v, 4) for v in out["ref_s"]]
        else:
            untraced, attempted = run_binary(
                [plain, *common, f"--seconds={args.seconds * UNTRACED_SHARE_OF_TRACED_RUN}"],
                f"{scratch}/untraced.json", deadline)
            traced = None
            if untraced:
                traced, traced_jobs = run_binary(
                    [fp, *common, "--traced", f"--samples={scratch}/samples.txt"],
                    f"{scratch}/traced.json", deadline)
                attempted += traced_jobs
            outputs = [untraced, traced]
            metrics = {}
            if traced:
                samples = layers.read_samples(f"{scratch}/samples.txt")
                files_of = layers.symbolize(fp, [a for s in samples for a in s])
                shares = layers.self_shares(samples, files_of, ROOT)
                metrics = per_layer(untraced, traced, shares, checks)
                s = traced["sampler"]
                info["sampler_hz"] = s["hz_requested"]
                info["sampler_achieved_hz"] = s["samples"] / max(1e-9, s["cpu_s"])
                info["sampler_overflowed"] = s["overflowed"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    first = next((o for o in outputs if o), None)
    if first:
        info.update(build_type=first["build_type"], compiler=first["compiler"])
    print("manifest: " + json.dumps(info, sort_keys=True))
    check(checks, all(outputs), "every benchmark process succeeded")
    for ok, what in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {what}")
    correct = all(ok for ok, _ in checks)

    # A run that fails any check counts every job it started as failed.
    attempted = max(1, attempted)
    failed = 0 if correct else attempted
    if args.trace == 0:
        metrics["jobs_ok_frac"] = (1.0 - failed / attempted, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
