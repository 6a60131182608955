"""Write ``expected.json``: the outputs every benchmark run is checked against.

    python3 bench/record.py

It records, from the code in this checkout, each fixture task's verdict,
the SHA-256 of the ``emit_json`` bytes of each fixture's reports and of the
certificate replays, the hepi report digest of each generated family
member, the full report digests of the family fixtures and of the triangle
sweep at the reference seed, and the sweep's accepted count.  It refuses to
record when a check with a known answer fails.  Re-record only when a change
is meant to alter report bytes, and say so in the change.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import families  # noqa: E402
import workloads as wl  # noqa: E402


def record() -> dict:
    eng = wl.Engine()
    speed = wl.Speed()
    tally, log = wl.Tally(), wl.Log(speed)
    fb = {"verdicts": {}, "digests": {}}
    replays = []
    for name, path in wl.fixture_paths().items():
        fx = eng.fixture.load_fixture(path)
        reports = eng.runner.run_tasks(fx, workers=1)
        fb["verdicts"][name] = {r.task: r.verdict for r in reports}
        fb["digests"][name] = wl.sha256(eng.reports.emit_json(reports))
        replays += wl.replay_certificates(eng, fx, reports, tally, log, name)
    fb["replay_digest"] = wl.sha256(eng.reports.emit_json(replays))

    corner = eng.fixture.load_fixture(wl.fixture_paths()["corner"])
    accepted, sweep_log = 0, wl.Log(speed)
    for phis in wl.sweep_rounds(eng, corner, random.Random(wl.REFERENCE_SEED)):
        accepted += wl.sweep_round(eng, phis, tally, sweep_log)
    sweep = {"accepted": accepted,
             "reference_digest": wl.sha256("".join(sweep_log.digests))}

    fam = {"hepi_digests": {}, "reference_digests": {}}
    os.environ["KBPROJ_WORKERS"] = wl.FAMILY_WORKERS
    with tempfile.TemporaryDirectory() as tmp:
        paths = wl.write_family_fixtures(wl.REFERENCE_SEED, tmp)
        for (family, n), (name, path) in zip(wl.family_members(), paths.items()):
            fx = eng.fixture.load_fixture(path)
            reports = eng.runner.run_tasks(fx)
            hepi = reports[0]
            tally.check(
                hepi.verdict == families.known_verdict(family, n, wl.HEPI_MAX_DEGREE)
                and hepi.evidence["tor_dims"]
                == families.known_tor(family, n, wl.HEPI_MAX_DEGREE),
                f"{name}: hepi answer")
            for rep in reports[1:]:
                tally.check(rep.verdict == "exact", f"{name}/{rep.task}")
            wl.replay_certificates(eng, fx, reports, tally, log, name)
            fam["hepi_digests"][name] = wl.sha256(eng.reports.emit_json([hepi]))
            fam["reference_digests"][name] = wl.sha256(eng.reports.emit_json(reports))
    if tally.failed:
        raise SystemExit(f"record: {tally.failed} checks failed; nothing written")
    return {"fixture-batch": fb, "triangle-sweep": sweep, "algebra-families": fam}


if __name__ == "__main__":
    data = record()
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(wl.EXPECTED_PATH)}")
