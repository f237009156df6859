#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/repeat.py --workload cli_fit --seeds 1-10 [--trace 1] [--out FILE]

Each run is a separate ``perfbench/run.py`` process, started only after the
previous one has ended. For every metric this prints the median and the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median, the figure the end-to-end bounds in
``BENCHMARK.json`` are set against. ``--out`` merges the runs and the summary
into a JSON file, one entry per workload and trace setting.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    config = json.loads(next(line for line in lines if line.startswith("config "))[len("config "):])
    printed = [line[len("metric "):] for line in lines if line.startswith("metric ")]
    return {"seed": seed, "config": config, "printed": printed, "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        mid = statistics.median(values)
        entry = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": mid, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / mid if mid else None)
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="JSON file to merge the runs into")
    args = ap.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in seed_range(args.seeds):
        run = run_once(args.workload, seed, seconds, args.trace)
        result = run["result"]
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if args.trace == 0)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
        runs.append(run)

    summary = summarise(runs)
    if args.trace == 0:
        for name, entry in summary.items():
            spread = entry.get("spread")
            print(f"{name}: median {entry['median']:.6g} {entry['unit']}, quartile spread "
                  f"{'n/a' if spread is None else f'{spread:.4f}'}")
    if args.out:
        path = Path(args.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged[f"{args.workload}/trace{args.trace}"] = {"seconds": seconds, "runs": runs, "summary": summary}
        path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0 if all(run["result"]["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
