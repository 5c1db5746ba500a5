#!/usr/bin/env python3
"""Paired A/B runs of the perfbench workloads between two builds.

    python3 tools/perf_ab.py --base=BUILD_A --change=BUILD_B --out=BENCH_hotpath.json
    python3 tools/perf_ab.py --check=BENCH_hotpath.json

BUILD_A and BUILD_B are perfbench build trees (see perfbench/README.md),
each holding perfbench_plain and perfbench_fp built from its own checkout:

    cmake -S perfbench -B BUILD -G Ninja && \\
        cmake --build BUILD --target perfbench_plain perfbench_fp

For every workload of BENCHMARK.json the script runs perfbench_plain on both
builds for BENCHMARK.json's run_seconds, in 10 pairs with the same seed (1 to
10), alternating which side goes first, and reports for each
end-to-end metric of BENCHMARK.json the per-side median, quartiles and
spread (IQR / median), the ratio of medians and in how many pairs the change
was better. perfbench/run.py's own normalization turns the raw times into
`wall_norm_s` and `setup_s`. One traced run of perfbench_fp per side gives
the per-layer self shares (perfbench/layers.py). The result digests of every
run are recorded with the names of the exact counters that differ between
the sides.

--check validates the shape of a written file and exits 1 on a missing or
malformed field.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # Leave no __pycache__ in perfbench/.
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import layers  # noqa: E402
import run as perfbench  # noqa: E402

SIDES = ("parent", "change")
SEEDS = list(range(1, 11))  # One pair per seed.


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def source_root(build_dir):
    """Checkout a perfbench build tree was configured from."""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("ursa_perfbench_SOURCE_DIR:"):
                return os.path.dirname(line.split("=", 1)[1].strip())
    sys.exit(f"perf_ab: {build_dir} is not a perfbench build tree")


def run_plain(binary, workload, seed, seconds, scratch):
    out_path = os.path.join(scratch, "plain.json")
    proc = subprocess.run([binary, f"--workload={workload}", f"--seed={seed}",
                           f"--seconds={seconds}", f"--out={out_path}"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"perf_ab: {binary} {workload} seed {seed} exited {proc.returncode}")
    with open(out_path) as f:
        out = json.load(f)
    setup, wall = perfbench.normalized(out)
    counters = {name: c["value"] for name, c in out["counters"].items()}
    ok = (len(set(out["digests"])) == 1 and
          counters["jobs.completed"] == counters["jobs.submitted"])
    metrics = {
        "wall_norm_s": wall,
        "monotasks_per_norm_s": out["plan_monotasks"] / wall,
        "setup_s": setup,
        "peak_rss_mb": out["peak_rss_mb"],
        "sim_makespan_s": counters["sim_makespan_s"],
        "sim_avg_jct_s": counters["sim_avg_jct_s"],
        "jobs_ok_frac": 1.0 if ok else 0.0,
    }
    return metrics, out["digests"][0], counters


def run_traced(binary, root, workload, seed, scratch):
    samples_path = os.path.join(scratch, "samples.txt")
    out_path = os.path.join(scratch, "traced.json")
    proc = subprocess.run([binary, f"--workload={workload}", f"--seed={seed}", "--traced",
                           f"--samples={samples_path}", f"--out={out_path}"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"perf_ab: {binary} --traced {workload} exited {proc.returncode}")
    samples = layers.read_samples(samples_path)
    files_of = layers.symbolize(binary, [a for s in samples for a in s])
    shares = layers.self_shares(samples, files_of, root)
    return {layer: round(share, 4) for layer, share in shares.items()}, len(samples)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def measure(args):
    bench = load_benchmark()
    builds = {"parent": args.base, "change": args.change}
    roots = {side: source_root(path) for side, path in builds.items()}
    seconds = bench["run_seconds"]
    result = {
        "what": "Paired A/B of the perfbench workloads: parent build vs change build, "
                "same seeds, alternating order (tools/perf_ab.py).",
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "processor": platform.processor() or "unknown"},
        "pairs": len(SEEDS),
        "seconds_per_run": seconds,
        "seeds": SEEDS,
        "traced_seed": SEEDS[0],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        for workload in (w["name"] for w in bench["workloads"]):
            values = {side: {m["name"]: [] for m in bench["end_to_end"]} for side in SIDES}
            digests = {side: [] for side in SIDES}
            counter_diffs = {}
            for i, seed in enumerate(SEEDS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                counters = {}
                for side in order:
                    binary = os.path.join(builds[side], "perfbench_plain")
                    metrics, digest, counters[side] = run_plain(binary, workload, seed,
                                                                seconds, scratch)
                    for name, value in metrics.items():
                        values[side][name].append(value)
                    digests[side].append(digest)
                    print(f"{workload} seed {seed} {side}: wall_norm_s "
                          f"{metrics['wall_norm_s']:.3f}", file=sys.stderr, flush=True)
                for name, value in counters["parent"].items():
                    if counters["change"].get(name) != value:
                        counter_diffs.setdefault(name, []).append(
                            [seed, value, counters["change"].get(name)])
            end_to_end = {}
            for m in bench["end_to_end"]:
                name = m["name"]
                per_side = {side: summary(values[side][name]) for side in SIDES}
                lower = m["better"] == "lower"
                better = sum(1 for a, b in zip(values["parent"][name], values["change"][name])
                             if (b < a if lower else b > a))
                parent_med, change_med = per_side["parent"]["median"], per_side["change"]["median"]
                end_to_end[name] = {
                    "unit": m["unit"],
                    "better": m["better"],
                    **per_side,
                    # > 1 means the change is better, whichever way the metric points.
                    "gain": ((parent_med / change_med if lower else change_med / parent_med)
                             if parent_med and change_med else 1.0),
                    "change_better_pairs": better,
                }
            layer_shares, samples = {}, {}
            for side in SIDES:
                binary = os.path.join(builds[side], "perfbench_fp")
                layer_shares[side], samples[side] = run_traced(binary, roots[side], workload,
                                                               SEEDS[0], scratch)
            result["workloads"][workload] = {
                "end_to_end": end_to_end,
                "self_share": layer_shares,
                "samples": samples,
                "digests": digests,
                "digests_equal": digests["parent"] == digests["change"],
                "counter_diffs": counter_diffs,
            }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")


def check(path):
    """Returns a list of problems with the file's shape (empty when valid)."""
    bench = load_benchmark()
    problems = []
    with open(path) as f:
        d = json.load(f)
    pairs = d.get("pairs", 0)
    if not isinstance(pairs, int) or pairs < len(SEEDS):
        problems.append(f"pairs must be an integer >= {len(SEEDS)}")
    if len(d.get("seeds", [])) != pairs:
        problems.append("seeds must list one seed per pair")
    if d.get("seconds_per_run") != bench["run_seconds"]:
        problems.append(f"seconds_per_run must be BENCHMARK.json's run_seconds "
                        f"({bench['run_seconds']})")
    for w in bench["workloads"]:
        entry = d.get("workloads", {}).get(w["name"])
        if entry is None:
            problems.append(f"{w['name']}: missing")
            continue
        for m in bench["end_to_end"]:
            metric = entry.get("end_to_end", {}).get(m["name"])
            if metric is None:
                problems.append(f"{w['name']} {m['name']}: missing")
                continue
            for side in SIDES:
                s = metric.get(side, {})
                if len(s.get("values", [])) != pairs or not all(
                        isinstance(s.get(k), (int, float)) for k in ("median", "q1", "q3",
                                                                     "spread")):
                    problems.append(f"{w['name']} {m['name']} {side}: malformed summary")
            if not isinstance(metric.get("gain"), (int, float)):
                problems.append(f"{w['name']} {m['name']}: gain missing")
        for side in SIDES:
            shares = entry.get("self_share", {}).get(side, {})
            if set(shares) != set(layers.LAYERS) or abs(sum(shares.values()) - 1.0) > 0.01:
                problems.append(f"{w['name']} self_share {side}: want every layer, summing to 1")
            if len(entry.get("digests", {}).get(side, [])) != pairs:
                problems.append(f"{w['name']} digests {side}: want one per pair")
        if not isinstance(entry.get("digests_equal"), bool):
            problems.append(f"{w['name']}: digests_equal missing")
        if not isinstance(entry.get("counter_diffs"), dict):
            problems.append(f"{w['name']}: counter_diffs missing")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="perfbench build tree of the parent")
    parser.add_argument("--change", help="perfbench build tree of the change")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--check", help="validate the shape of a written file")
    args = parser.parse_args()
    if args.check:
        problems = check(args.check)
        for p in problems:
            print(f"{args.check}: {p}", file=sys.stderr)
        return 1 if problems else 0
    if not (args.base and args.change and args.out):
        parser.error("--base, --change and --out are required (or --check)")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
