"""Command-line interface.

Every subcommand loads a fixture file, runs one task (or, for ``run``, the
fixture's whole task list) and prints reports as JSON or text.  JSON output
is deterministic: byte-identical across repeated runs and across worker
counts.  Exit status is 0 whenever all requested tasks executed — verdicts
like ``refuted`` or ``not_found`` are results, not errors — and nonzero
only when a task could not be executed at all.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .fixture import FixtureError, load_fixture
from .reports import emit_json, emit_text
from .runner import TaskError, run_task, run_tasks, worker_count


def _parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--fixture", required=True, metavar="PATH",
                   help="fixture file describing algebras, complexes, tasks")
    p.add_argument("--out", choices=("json", "text"), default="json",
                   help="report format (default: json)")
    return p


def build_parser() -> argparse.ArgumentParser:
    shared = _parent()
    top = argparse.ArgumentParser(
        prog="kbproj",
        description="Certified homological computations over "
                    "finite-dimensional algebras.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-hepi", parents=[shared],
                       help="certify or refute a homological epimorphism")
    p.add_argument("--map", required=True, metavar="NAME",
                   help="ring map name in the fixture")
    p.add_argument("--max-degree", type=int, default=20, metavar="N",
                   help="largest Tor degree to compute (default: 20)")

    p = sub.add_parser("lift-map", parents=[shared],
                       help="search for a chain map lifting a functor image")
    p.add_argument("--name", required=True, metavar="NAME",
                   help="lift problem name in the fixture")
    p.add_argument("--depth", type=int, metavar="D",
                   help="override the search depth budget")

    p = sub.add_parser("lift-complex", parents=[shared],
                       help="rebuild a complex as a functor image")
    p.add_argument("--name", required=True, metavar="NAME",
                   help="complex lift problem name in the fixture")
    p.add_argument("--depth", type=int, metavar="D",
                   help="override the search depth budget")

    p = sub.add_parser("recognize-triangle", parents=[shared],
                       help="decide whether a candidate triangle is exact")
    p.add_argument("--name", required=True, metavar="NAME",
                   help="triangle name in the fixture")

    p = sub.add_parser("check-ideal", parents=[shared],
                       help="run the exactness checklist for a hom ideal")
    p.add_argument("--name", required=True, metavar="NAME",
                   help="ideal name in the fixture")

    p = sub.add_parser("telescope-report", parents=[shared],
                       help="compare a functor's annihilator with its "
                            "kernel-factoring ideal")
    p.add_argument("--functor", required=True, metavar="NAME",
                   help="functor name in the fixture")
    p.add_argument("--subcat", required=True, metavar="NAME",
                   help="subcategory window name in the fixture")

    p = sub.add_parser("almost-report", parents=[shared],
                       help="run the almost-module-category suite for an ideal")
    p.add_argument("--name", required=True, metavar="NAME",
                   help="almost case name in the fixture")
    p.add_argument("--window", type=int, metavar="W",
                   help="override the shift window half-width for the "
                        "derived-ideal scan")

    p = sub.add_parser("verify-contraction", parents=[shared],
                       help="check a stored contracting homotopy exactly")
    p.add_argument("--name", required=True, metavar="NAME",
                   help="contraction fixture name")

    p = sub.add_parser("verify-certificate", parents=[shared],
                       help="replay a stored certificate against the fixture")
    p.add_argument("--certificate", required=True, metavar="PATH",
                   help="certificate envelope file to replay")

    p = sub.add_parser("run", parents=[shared],
                       help="run the fixture's task list")
    p.add_argument("tasks", nargs="*", metavar="TASK",
                   help="task ids to run (default: all)")
    p.add_argument("--workers", type=int, metavar="N",
                   help="worker pool size (default: KBPROJ_WORKERS or 1)")

    return top


def _task_for(args) -> dict:
    c = args.command
    if c == "check-hepi":
        return {"id": f"cli:{c}:{args.map}", "command": c, "map": args.map,
                "max_degree": args.max_degree}
    if c in ("lift-map", "lift-complex"):
        t = {"id": f"cli:{c}:{args.name}", "command": c, "name": args.name}
        if args.depth is not None:
            t["depth"] = args.depth
        return t
    if c in ("recognize-triangle", "check-ideal", "verify-contraction"):
        return {"id": f"cli:{c}:{args.name}", "command": c, "name": args.name}
    if c == "telescope-report":
        return {"id": f"cli:{c}:{args.functor}", "command": c,
                "functor": args.functor, "subcat": args.subcat}
    if c == "almost-report":
        t = {"id": f"cli:{c}:{args.name}", "command": c, "name": args.name}
        if args.window is not None:
            t["window"] = args.window
        return t
    if c == "verify-certificate":
        return {"id": f"cli:{c}", "command": c,
                "certificate": args.certificate}
    raise TaskError(f"unknown command {c!r}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        fx = load_fixture(args.fixture)
        if args.command == "run":
            tasks = fx.tasks
            if args.tasks:
                by_id = {t["id"]: t for t in fx.tasks}
                missing = [t for t in args.tasks if t not in by_id]
                if missing:
                    raise TaskError(f"unknown task ids: {', '.join(missing)}")
                tasks = [by_id[t] for t in args.tasks]
            workers = worker_count() if args.workers is None else args.workers
            if workers < 1:
                raise TaskError("--workers must be at least 1")
            reports = run_tasks(fx, tasks, workers=workers)
        else:
            reports = [run_task(fx, _task_for(args))]
    except (FixtureError, TaskError) as exc:
        print(f"kbproj: error: {exc}", file=sys.stderr)
        return 2
    if args.out == "json":
        sys.stdout.write(emit_json(reports))
    else:
        sys.stdout.write(emit_text(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
