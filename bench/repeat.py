"""Run a workload once per seed and summarise each metric.

    python3 bench/repeat.py --workload triangle-sweep --seeds 1-10 --seconds 25

Each run is a fresh untraced ``run.py`` process.  For every metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, (q3 - q1) / median, both for the reported (scaled) value
and for the unscaled one, and the range of the runs' scale factors.  With
``--out FILE`` it writes the runs and the summaries as JSON.  Use it for before/after comparisons: the same
seeds and seconds on both commits, on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from run import RAW_PREFIX  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out")
    args = p.parse_args(argv)
    runs = []
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"repeat: seed {seed} exited with status {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        raw = next(x for x in lines if x.startswith(RAW_PREFIX))
        result["raw"] = json.loads(raw[len(RAW_PREFIX):])
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - t0
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"wall={result['wall_s']:.1f}s", flush=True)
    summary, raw_summary = {}, {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = dict(summarise(values),
                             unit=runs[0]["metrics"][name]["unit"])
        s = summary[name]
        print(f"{name:32} {s['median']:12.6g} {s['unit']:6} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        if name in runs[0]["raw"]:
            raw_summary[name] = summarise([r["raw"][name] for r in runs])
            s = raw_summary[name]
            print(f"{'  unscaled':32} {s['median']:12.6g} {'':6} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    medians = [r["raw"]["scale_factor"]["median"] for r in runs]
    factors = {"median": statistics.median(medians),
               "min": min(r["raw"]["scale_factor"]["min"] for r in runs),
               "max": max(r["raw"]["scale_factor"]["max"] for r in runs)}
    print(f"scale factor: median of run medians {factors['median']:.4g}, "
          f"least {factors['min']:.4g}, greatest {factors['max']:.4g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": runs, "summary": summary,
                       "unscaled_summary": raw_summary,
                       "scale_factor": factors}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
