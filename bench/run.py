"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload fixture-batch --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout of the repository: it imports
``kbproj`` from the checkout's ``src/`` and reads ``fixtures/``.  With
``--trace 0`` it prints every end-to-end metric, and on a line starting
``raw: `` the same times unscaled with the run's scale factors.  With
``--trace 1`` it runs a fixed amount of work untraced and then traced,
prints every per-layer metric and the tracing overhead, and writes the
spans as JSON lines under ``.bench_out/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs each workload in its own process and
prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("fixture-batch", "triangle-sweep", "algebra-families")
E2E_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "replay_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


# starts the line with the unscaled times and the scale factors
RAW_PREFIX = "raw: "


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def result_line(tally, metrics, unit_of) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    })


def run_one(args) -> int:
    import workloads

    expected = workloads.load_expected()
    if args.trace:
        import tracing

        tally, metrics, span_path, same = workloads.run_traced(
            args.workload, args.seed, expected)
        unit_of = tracing.unit_of
        print(f"{args.workload}: report digests identical with tracing on "
              f"and off: {'yes' if same else 'NO'}")
        print(f"{args.workload}: spans written to "
              f"{os.path.relpath(span_path, ROOT)}")
    else:
        tally, metrics, raw = workloads.run_timed(
            args.workload, args.seed, args.seconds, expected)
        unit_of = E2E_UNITS.__getitem__
        print(f"{args.workload}: times are scaled to the reference speed; "
              f"scale factor median {raw['scale_factor']['median']:.4g}, "
              f"range {raw['scale_factor']['min']:.4g}-"
              f"{raw['scale_factor']['max']:.4g}")
        print(RAW_PREFIX + json.dumps(raw))
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit_of(name)}")
    print(f"{args.workload}: failed_ratio = "
          f"{tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(result_line(tally, metrics, unit_of))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {w} exited with status {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[w] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    width = max(len(n) for n in names + ["failed_ratio"])
    print(f"{'metric':{width}}  {'unit':6}" + "".join(f"{w:>20}" for w in WORKLOADS))
    for n in names:
        unit = results[WORKLOADS[0]]["metrics"][n]["unit"]
        print(f"{n:{width}}  {unit:6}" + "".join(
            f"{results[w]['metrics'][n]['value']:>20.6g}" for w in WORKLOADS))
    print(f"{'failed_ratio':{width}}  {'ratio':6}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:>20.6g}"
        for w in WORKLOADS))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kbproj", "__init__.py")) \
            or not os.path.isdir(os.path.join(ROOT, "fixtures")):
        print("bench: src/kbproj and fixtures/ are missing; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
