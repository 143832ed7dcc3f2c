#!/usr/bin/env python3
"""Run two sets of benchmark runs of one commit and check they agree.

    python3 perfbench/compare.py                  # 2 sets x 10 runs, every workload
    python3 perfbench/compare.py --runs 5 --sets 1 --workloads serve-vgg32

Run from the repository root. Every run uses its own seed. For each
workload and end-to-end metric it prints each set's median, quartiles and
spread (interquartile range over the median), and whether each set's
spread and the distance between the two sets' medians, in either
direction, stay within the metric's bound in BENCHMARK.json. With --trace-runs N it also
makes N traced runs per workload and reports the tracing overhead against
the untraced medians. Every run's result is appended to
.bench_results/runs-<time>.jsonl as it ends, and the report is saved as
.bench_results/compare-<time>.json.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd()


def run_once(spec, workload, seed, trace, raw):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    raw.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                          "wall_s": wall, "result": result}) + "\n")
    raw.flush()
    print(f"  {workload:16s} seed {seed:5d} trace {trace}  {wall:6.1f} s  "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", flush=True)
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"), "values": values}


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` in the metric's direction."""
    if base == 0:
        return 0.0
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def apart_by(base, new):
    """Share by which `new` differs from `base`, either way."""
    return abs(new - base) / base if base else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seed0", type=int, default=1000, help="first seed")
    ap.add_argument("--trace-runs", type=int, default=0)
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("compare: --runs must be at least 2 for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    metrics = spec["end_to_end"]

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    raw = open(out_dir / f"runs-{stamp}.jsonl", "w")  # every run, as it ends

    # results[set][workload] = list of run results; workloads interleave so
    # host noise spreads over all of them alike.
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    seed = args.seed0
    for s in range(args.sets):
        print(f"set {s + 1}", flush=True)
        for _ in range(args.runs):
            for w in workloads:
                results[s][w].append(run_once(spec, w, seed, 0, raw))
                seed += 1

    report = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    ok = True
    for w in workloads:
        rows = {}
        shares = [sum(r["failed"] for r in res[w]) / sum(r["attempted"] for r in res[w])
                  for res in results]
        correct = all(r["correct"] for res in results for r in res[w])
        ok &= correct and len(set(shares)) == 1
        print(f"\n{w}: correct={correct} failed share per set={shares}")
        print(f"  {'metric':16s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        for m in metrics:
            sets = [summary([r["metrics"][m["name"]]["value"] for r in res[w]])
                    for res in results]
            verdicts = []
            for i, st in enumerate(sets):
                if st["spread"] > m["bound"]:
                    verdicts.append(f"set {i + 1} spread above bound")
            drift = worse_by(m, sets[0]["median"], sets[-1]["median"])
            apart = apart_by(sets[0]["median"], sets[-1]["median"])
            if len(sets) == 2 and apart > m["bound"]:
                verdicts.append(f"medians {apart:.1%} apart")
            ok &= not verdicts
            rows[m["name"]] = {"sets": sets, "bound": m["bound"],
                               "second_median_worse_by": drift,
                               "medians_apart_by": apart,
                               "agree": not verdicts}
            for i, st in enumerate(sets):
                verdict = ("; ".join(verdicts) or "agree") if i == len(sets) - 1 else ""
                print(f"  {m['name'] if i == 0 else '':16s} {i + 1:3d} {st['median']:12.5g} "
                      f"{st['q1']:12.5g} {st['q3']:12.5g} {st['spread']:7.1%} "
                      f"{m['bound']:6.2f}  {verdict}")
        report["workloads"][w] = {"correct": correct, "failed_share": shares,
                                  "metrics": rows}

    if args.trace_runs:
        print("\ntracing overhead (traced run against the untraced medians of set 1)")
        for w in workloads:
            traced = [run_once(spec, w, seed + i, 1, raw) for i in range(args.trace_runs)]
            seed += args.trace_runs
            ok &= all(r["correct"] for r in traced)
            base = report["workloads"][w]["metrics"]
            overhead = {}
            for traced_name, name in (("trace.images_per_s", "images_per_s"),
                                      ("trace.latency_p50_ms", "latency_p50_ms")):
                t = statistics.median(r["metrics"][traced_name]["value"] for r in traced)
                u = base[name]["sets"][0]["median"]
                overhead[name] = {"traced": t, "untraced": u, "change": (t - u) / u}
                print(f"  {w:16s} {name:16s} traced {t:10.4g} untraced {u:10.4g} "
                      f"({(t - u) / u:+.1%})")
            report["workloads"][w]["tracing_overhead"] = overhead
            report["workloads"][w]["per_layer"] = {
                k: statistics.median(r["metrics"][k]["value"] for r in traced)
                for k in traced[0]["metrics"]}

    raw.close()
    out = out_dir / f"compare-{stamp}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\n{'ALL AGREE' if ok else 'DISAGREEMENT'}; report in {out.relative_to(ROOT)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
