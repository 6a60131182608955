"""Fixture loading, task running, CLI surface, and JSON determinism."""

import json
import os
import subprocess
import sys
import threading

import pytest

from build_examples import split_map, upper_triangular_2, ut2_complexes
from kbproj import runner
from kbproj.cli import main
from kbproj.fixture import FixtureError, FixtureFile, load_fixture
from kbproj.reports import Report, ReportError, emit_json, emit_text
from kbproj.runner import TaskError, run_task, run_tasks
from kbproj.serialize import complex_to_json, map_components_to_json

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
CORNER = os.path.join(FIXDIR, "corner.json")
SPLIT = os.path.join(FIXDIR, "split.json")
KOSZUL = os.path.join(FIXDIR, "koszul.json")
TWO_CYCLE = os.path.join(FIXDIR, "two_cycle.json")


@pytest.fixture(scope="module")
def corner():
    return load_fixture(CORNER)


@pytest.fixture(scope="module")
def split():
    return load_fixture(SPLIT)


# -- loading and cross-validation against the programmatic constructors ------


def test_fixture_files_load(corner, split):
    koszul = load_fixture(KOSZUL)
    assert len(corner.tasks) == 14
    assert len(split.tasks) == 6
    assert len(koszul.tasks) == 1
    assert set(corner.subcategories) == {"S"}
    assert len(corner.lookup("subcategories", "S").names()) == 15


def test_loaded_algebra_matches_programmatic_construction(corner):
    A = corner.algebras["UT2"]
    B = upper_triangular_2()
    assert A.basis_names == B.basis_names
    assert A.dim == B.dim
    for i in range(A.dim):
        for j in range(A.dim):
            assert A.mult(A.basis_vec(i), A.basis_vec(j)) == \
                B.mult(B.basis_vec(i), B.basis_vec(j))


def test_loaded_complexes_match_programmatic_construction(corner):
    data = ut2_complexes(corner.algebras["UT2"])
    for name in ("P1s", "P2s", "S1r"):
        X, Y = corner.complexes[name], data[name]
        assert X.summands == Y.summands
        assert all(X.diff_at(n) == Y.diff_at(n) for n in X.degrees())
    for name in ("iota", "beta", "gamma"):
        f, g = corner.maps[name], data[name]
        assert f.components == g.components


def test_loaded_ring_map_matches_programmatic_construction(split):
    f = split.ring_maps["split"]
    g = split_map(split.algebras["UT2"])
    assert f.images == g.images


def test_shift_suffix_resolves_complex_references(corner):
    X = corner.complex("P2s[2]")
    assert X.summands == {-2: (1,)}
    with pytest.raises(FixtureError, match="unknown complex"):
        corner.complex("nosuch[2]")


def test_subcategory_materializes_shifted_objects(corner):
    S = corner.lookup("subcategories", "S")
    assert "P1s[-2]" in S.objects and "S1r[2]" in S.objects
    assert S.objects["S1r[1]"].summands == {-2: (1,), -1: (0,)}
    # declared shift pairings chain each object to its translate
    assert S.shifts["P1s"] == "P1s[1]"


def test_complex_round_trips_through_json(corner, split):
    raw = json.load(open(CORNER))
    emitted = complex_to_json(corner.complexes["S1r"])
    stored = dict(raw["complexes"]["S1r"])
    stored.pop("algebra")
    assert emitted == stored
    raw = json.load(open(SPLIT))
    emitted = complex_to_json(split.complexes["FS1r"])
    stored = dict(raw["complexes"]["FS1r"])
    stored.pop("algebra")
    assert emitted == stored


def test_map_round_trips_through_json(corner):
    raw = json.load(open(CORNER))
    assert map_components_to_json(corner.maps["gamma"]) == \
        raw["maps"]["gamma"]["components"]


# -- malformed fixtures -------------------------------------------------------


def _base():
    return {
        "format_version": 1,
        "field": "QQ",
        "algebras": {
            "k": {"basis": ["1"], "structure": [[["1"]]],
                  "unit": ["1"], "idempotents": [["1"]]}
        },
    }


def test_rejects_wrong_format_version():
    with pytest.raises(FixtureError, match="format_version"):
        FixtureFile({"format_version": 99})


def test_rejects_unknown_field():
    with pytest.raises(FixtureError, match="field"):
        FixtureFile({"format_version": 1, "field": "R"})


def test_rejects_unknown_top_level_key():
    data = dict(_base(), bogus_section={})
    with pytest.raises(FixtureError, match="unknown top-level key 'bogus_section'"):
        FixtureFile(data)
    # every documented key loads, the almost cases under "almost"
    sections = ["algebras", "ring_maps", "functors", "complexes", "maps", "subcategories",
                "triangles", "ideals", "lifts", "complex_lifts", "contractions", "almost"]
    FixtureFile(dict({k: {} for k in sections}, format_version=1, field="QQ", tasks=[]))


def test_rejects_unknown_algebra_reference():
    data = _base()
    data["complexes"] = {"X": {"algebra": "nosuch", "summands": {"0": [0]}}}
    with pytest.raises(FixtureError, match="unknown algebra 'nosuch'"):
        FixtureFile(data)


def _run_mutated(capsys, tmp_path, mutate):
    """Run a copy of the corner fixture changed by ``mutate``; it must exit 2
    with one line on stderr and nothing on stdout.  Returns that line."""
    with open(CORNER) as fh:
        data = json.load(fh)
    mutate(data)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["run", "--fixture", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("kbproj: error: ")
    return lines[0]


def _ut2(edit):
    """A mutation of the corner fixture that edits its algebra UT2."""
    return lambda data: edit(data["algebras"]["UT2"])


BAD_STRUCTURES = [
    # the declared unit is not a unit for this multiplication
    ("unit-fails",
     lambda data: data["algebras"].update(bad={
         "basis": ["a", "b"],
         "structure": [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
         "unit": ["1", "0"], "idempotents": [["1", "0"]]}),
     "algebra bad: bad: unit fails on basis element a"),
    # a table of the wrong shape: the first two loaded with their extra data
    # ignored, the last two failed with "list index out of range"
    ("extra-row", _ut2(lambda a: a["structure"].append(a["structure"][0])),
     "algebra UT2: UT2: structure table is not 3x3x3"),
    ("extra-column", _ut2(lambda a: [row.append(["0", "0", "0"]) for row in a["structure"]]),
     "algebra UT2: UT2: structure table is not 3x3x3"),
    ("missing-row", _ut2(lambda a: a["structure"].pop()),
     "algebra UT2: UT2: structure table is not 3x3x3"),
    ("extra-basis-name", _ut2(lambda a: a["basis"].append("x")),
     "algebra UT2: UT2: structure table is not 4x4x4"),
    ("short-cell", _ut2(lambda a: a["structure"][1][2].pop()),
     "algebra UT2: UT2: structure table is not 3x3x3"),
]


@pytest.mark.parametrize("mutate,want", [b[1:] for b in BAD_STRUCTURES],
                         ids=[b[0] for b in BAD_STRUCTURES])
def test_rejects_bad_structure_constants(capsys, tmp_path, mutate, want):
    assert _run_mutated(capsys, tmp_path, mutate) == f"kbproj: error: {want}"


def test_rejects_non_chain_map():
    data = _base()
    data["complexes"] = {
        "two": {"algebra": "k", "summands": {"-1": [0], "0": [0]},
                "diff": {"-1": [[["1"]]]}},
        "one": {"algebra": "k", "summands": {"0": [0]}},
    }
    # the differential of the source does not commute with this component
    data["maps"] = {"bad": {"source": "two", "target": "one",
                            "components": {"0": [[["1"]]]}}}
    with pytest.raises(FixtureError, match="commute"):
        FixtureFile(data)


def test_rejects_duplicate_task_ids():
    data = _base()
    data["tasks"] = [{"id": "t", "command": "check-hepi"},
                     {"id": "t", "command": "check-hepi"}]
    with pytest.raises(FixtureError, match="duplicate task id"):
        FixtureFile(data)


def test_rejects_bad_witness(corner):
    data = json.load(open(CORNER))
    data["functors"]["G"]["witnesses"]["1"] = [[0, ["1"]]]
    with pytest.raises(FixtureError, match="functor G"):
        FixtureFile(data)


def test_parse_error_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"format_version": 1,,}')
    with pytest.raises(FixtureError, match="line 1"):
        load_fixture(str(p))


# -- runner behaviour ---------------------------------------------------------


def test_run_tasks_preserves_input_order(corner):
    reports = run_tasks(corner)
    assert [r.task for r in reports] == [t["id"] for t in corner.tasks]


def test_run_tasks_runs_every_task_on_the_calling_thread(corner, monkeypatch):
    # the variable the benchmark still sets is ignored, not refused
    monkeypatch.setenv("KBPROJ_WORKERS", "2")
    seen = []

    def recording(handler):
        def run(fx, task):
            seen.append(threading.get_ident())
            return handler(fx, task)
        return run

    for command, handler in list(runner._HANDLERS.items()):
        monkeypatch.setitem(runner._HANDLERS, command, recording(handler))
    reports = run_tasks(corner)
    assert len(reports) == len(corner.tasks) == len(seen)
    assert set(seen) == {threading.get_ident()}


def test_run_tasks_refuses_more_than_one_worker(corner):
    with pytest.raises(TaskError, match="calling thread"):
        run_tasks(corner, workers=2)


def test_unknown_command_rejected(corner):
    with pytest.raises(TaskError, match="unknown command"):
        run_task(corner, {"id": "x", "command": "frobnicate"})


def test_report_verdict_vocabulary_enforced():
    with pytest.raises(ReportError, match="vocabulary"):
        Report("t", "c", "maybe")


def test_json_report_carries_no_timing(corner):
    reports = run_tasks(corner, tasks=corner.tasks[:1])
    assert reports[0].elapsed is not None
    out = emit_json(reports)
    assert "elapsed" not in out
    body = json.loads(out)
    assert set(body["reports"][0]) == {"task", "command", "verdict", "evidence"}


def test_text_report_carries_timing(corner):
    reports = run_tasks(corner, tasks=corner.tasks[:1])
    out = emit_text(reports)
    assert "[certified] hepi-corner (check-hepi)" in out
    assert "s" in out.splitlines()[0]


# -- CLI surface --------------------------------------------------------------


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_single_task_json(capsys):
    code, out = _cli(capsys, "check-hepi", "--fixture", SPLIT,
                     "--map", "split", "--max-degree", "4")
    assert code == 0
    body = json.loads(out)
    rep = body["reports"][0]
    assert rep["verdict"] == "refuted"
    assert rep["evidence"]["tensor_square_dim"] == 4
    assert rep["evidence"]["target_dim"] == 3


def test_cli_run_all_tasks(capsys):
    code, out = _cli(capsys, "run", "--fixture", CORNER)
    assert code == 0
    body = json.loads(out)
    verdicts = {r["task"]: r["verdict"] for r in body["reports"]}
    assert verdicts == {
        "hepi-corner": "certified",
        "triangle-canonical": "exact",
        "triangle-rotated": "exact",
        "triangle-corrupt": "not_exact",
        "telescope-g": "consistent",
        "ideal-ann-g": "consistent",
        "lift-corner-id": "found",
        "rebuild-kstalk": "found",
        "rebuild-kcone": "found",
        "rebuild-k3": "found",
        "almost-corner": "certified",
        "almost-rad": "refuted",
        "almost-full": "certified",
        "almost-zero": "certified",
    }


def test_cli_task_filter(capsys):
    code, out = _cli(capsys, "run", "--fixture", KOSZUL, "koszul-contracts")
    assert code == 0
    assert len(json.loads(out)["reports"]) == 1
    code = main(["run", "--fixture", KOSZUL, "nosuch"])
    assert code == 2


def test_cli_refuted_verdict_still_exits_zero(capsys):
    code, out = _cli(capsys, "run", "--fixture", SPLIT)
    assert code == 0
    verdicts = {r["task"]: r["verdict"] for r in json.loads(out)["reports"]}
    assert verdicts["hepi-split"] == "refuted"
    assert verdicts["telescope-f"] == "inconsistent"
    assert verdicts["ideal-gamma"] == "inconsistent"
    assert verdicts["lift-sigma"] == "not_found"
    assert verdicts["rebuild-q1"] == "found"
    assert verdicts["rebuild-fs1r"] == "found"


def test_cli_execution_error_exits_nonzero(capsys):
    assert main(["check-hepi", "--fixture", CORNER, "--map", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "unknown ring map" in err


def test_cli_missing_fixture_file(capsys):
    assert main(["run", "--fixture", "/nonexistent/f.json"]) == 2


@pytest.mark.parametrize("workers", ["0", "-3", "2"])
def test_cli_run_has_no_workers_option(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--fixture", CORNER, "--workers", workers])
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "unrecognized arguments: --workers" in cap.err


def test_cli_text_output(capsys):
    code, out = _cli(capsys, "verify-contraction", "--fixture", KOSZUL,
                     "--name", "koszul-x-inverted", "--out", "text")
    assert code == 0
    assert out.startswith("[certified]")


def test_cli_depth_override_changes_search(capsys):
    code, out = _cli(capsys, "lift-map", "--fixture", CORNER,
                     "--name", "corner-id", "--depth", "0")
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["verdict"] == "not_found"
    assert rep["evidence"]["max_depth"] == 0


def test_cli_determinism_across_runs(capsys):
    outs = []
    for _ in range(3):
        code, out = _cli(capsys, "run", "--fixture", CORNER)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_console_entry_point_subprocess():
    r = subprocess.run(
        [sys.executable, "-m", "kbproj.cli", "run", "--fixture", KOSZUL],
        capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["reports"][0]["verdict"] == "certified"


# -- certificate replay through files ----------------------------------------


def _certificate_of(capsys, fixture, task_id):
    code, out = _cli(capsys, "run", "--fixture", fixture, task_id)
    assert code == 0
    return json.loads(out)["reports"][0]["evidence"]["certificate"]


@pytest.mark.parametrize("task_id", ["lift-corner-id", "rebuild-k3",
                                     "triangle-rotated"])
def test_certificate_replay(capsys, tmp_path, task_id):
    cert = _certificate_of(capsys, CORNER, task_id)
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(cert))
    code, out = _cli(capsys, "verify-certificate", "--fixture", CORNER,
                     "--certificate", str(p))
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["verdict"] == "certified"
    assert rep["evidence"]["kind"] == cert["kind"]


def test_tampered_certificate_refuted(capsys, tmp_path):
    cert = _certificate_of(capsys, CORNER, "lift-corner-id")
    cert["payload"]["lifted"]["0"][0][0] = ["7", "0", "0"]
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(cert))
    code, out = _cli(capsys, "verify-certificate", "--fixture", CORNER,
                     "--certificate", str(p))
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["verdict"] == "refuted"
    assert rep["evidence"]["reason"]


def test_certificate_against_wrong_problem_refuted(capsys, tmp_path):
    cert = _certificate_of(capsys, CORNER, "rebuild-kstalk")
    cert["problem"] = "rebuild-k3"  # a different target complex
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(cert))
    code, out = _cli(capsys, "verify-certificate", "--fixture", CORNER,
                     "--certificate", str(p))
    assert code == 0
    assert json.loads(out)["reports"][0]["verdict"] == "refuted"


@pytest.mark.parametrize("envelope,why", [
    ([1], "envelope must be an object"),
    ("triangle", "envelope must be an object"),
    ({"problem": "canonical", "payload": {}}, "'kind' must be a string"),
    ({"kind": ["triangle"], "problem": "canonical", "payload": {}}, "'kind' must be a string"),
    ({"kind": "triangle", "problem": ["x"], "payload": {}}, "'problem' must be a string"),
    ({"kind": "map-lift", "problem": 5, "payload": {}}, "'problem' must be a string"),
], ids=["list", "string", "no-kind", "kind-list", "problem-list", "problem-int"])
def test_certificate_envelope_malformed_exits_2(capsys, tmp_path, envelope, why):
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(envelope))
    assert main(["verify-certificate", "--fixture", CORNER, "--certificate", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.strip().splitlines() == [f"kbproj: error: certificate {p}: {why}"]


@pytest.mark.parametrize("argv", [["run", "--fixture"],
                                  ["verify-certificate", "--fixture", CORNER, "--certificate"]],
                         ids=["fixture", "certificate"])
def test_file_not_utf8_exits_2(capsys, tmp_path, argv):
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe{")
    assert main(argv + [str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("kbproj: error: ") and "can't decode byte 0xff" in lines[0]


def test_certificate_task_path_not_a_string_exits_2(capsys, tmp_path):
    data = json.load(open(CORNER))
    data["tasks"] = [{"id": "replay", "command": "verify-certificate",
                      "certificate": ["cert.json"]}]
    p = tmp_path / "fx.json"
    p.write_text(json.dumps(data))
    assert main(["run", "--fixture", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.strip().splitlines() == [
        "kbproj: error: verify-certificate needs a certificate file"]


# every required payload key of each certificate kind
CERT_KEYS = {
    "lift-corner-id": ["replacement", "to_source", "lifted",
                       "replacement_contraction", "defect_homotopy"],
    "rebuild-k3": ["lift", "equivalence", "cone_contraction"],
    "triangle-rotated": ["rho", "h_incl", "h_proj", "cone_contraction"],
}


@pytest.fixture(scope="module")
def corner_certificates(corner):
    tasks = [t for t in corner.tasks if t["id"] in CERT_KEYS]
    return {r.task: r.evidence["certificate"] for r in run_tasks(corner, tasks, workers=1)}


def _replay(capsys, tmp_path, cert):
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(cert))
    code, out = _cli(capsys, "verify-certificate", "--fixture", CORNER,
                     "--certificate", str(p))
    assert code == 0
    rep = json.loads(out)["reports"][0]
    return rep["verdict"], rep["evidence"]["reason"]


@pytest.mark.parametrize("task_id,key", [(t, k) for t, keys in CERT_KEYS.items()
                                         for k in keys])
def test_certificate_missing_or_mistyped_key_refuted(capsys, tmp_path,
                                                     corner_certificates, task_id, key):
    cert = corner_certificates[task_id]
    kind = cert["kind"]
    for value, why in ((None, f"payload has no {key!r}"),
                       (5, f"{key!r} must be an object"),
                       ([], f"{key!r} must be an object")):
        bad = json.loads(json.dumps(cert))
        if value is None:
            del bad["payload"][key]
        else:
            bad["payload"][key] = value
        verdict, reason = _replay(capsys, tmp_path, bad)
        assert verdict == "refuted"
        assert f"{kind} certificate: {why}" in reason


@pytest.mark.parametrize("task_id", sorted(CERT_KEYS))
def test_certificate_null_payload_refuted(capsys, tmp_path, corner_certificates, task_id):
    cert = dict(corner_certificates[task_id], payload=None)
    verdict, reason = _replay(capsys, tmp_path, cert)
    assert verdict == "refuted"
    assert f"{cert['kind']} certificate: payload must be an object" in reason


@pytest.mark.parametrize("path,why", [(5, "'path' must be a list of lists"),
                                      ([5], "'path' must be a list of lists"),
                                      ([[None]], "'path' step: None is not an integer")])
def test_map_lift_certificate_bad_path_refuted(capsys, tmp_path, corner_certificates,
                                               path, why):
    cert = json.loads(json.dumps(corner_certificates["lift-corner-id"]))
    cert["payload"]["path"] = path
    verdict, reason = _replay(capsys, tmp_path, cert)
    assert verdict == "refuted"
    assert why in reason


# int() read each of these as the certificate's own depth 1 or step [0, 1, 0]
@pytest.mark.parametrize("key,value,why", [
    ("depth", 1.5, "'depth': 1.5 is not an integer"),
    ("depth", True, "'depth': True is not an integer"),
    ("path", [[0, 1.0, 0]], "'path' step: 1.0 is not an integer"),
    ("path", [[0, True, 0]], "'path' step: True is not an integer")])
def test_map_lift_certificate_integer_of_another_type_refuted(capsys, tmp_path,
                                                              corner_certificates, key,
                                                              value, why):
    cert = json.loads(json.dumps(corner_certificates["lift-corner-id"]))
    assert (cert["payload"]["depth"], cert["payload"]["path"]) == (1, [[0, 1, 0]])
    cert["payload"][key] = value
    verdict, reason = _replay(capsys, tmp_path, cert)
    assert verdict == "refuted"
    assert f"map-lift certificate {why}" in reason


@pytest.mark.parametrize("key", ["summands", "diff"])
def test_map_lift_certificate_replacement_not_an_object_refuted(capsys, tmp_path,
                                                                corner_certificates, key):
    cert = json.loads(json.dumps(corner_certificates["lift-corner-id"]))
    cert["payload"]["replacement"][key] = [1]
    verdict, reason = _replay(capsys, tmp_path, cert)
    assert verdict == "refuted"
    assert reason == ("certificate does not fit the problem: "
                      f"complex replacement: {key!r} must be an object")


def test_triangle_with_an_uninvertible_comparison_has_no_certificate(capsys, tmp_path):
    # 0 -> 0 -> P1s -> 0[1]: the zero map from the cone (zero) to P1s is a
    # comparison map but not an equivalence, so the verdict carries no certificate
    data = json.load(open(CORNER))
    data["complexes"]["Z"] = {"algebra": "UT2", "summands": {}, "diff": {}}
    data["maps"].update({
        "zz": {"source": "Z", "target": "Z", "components": {}},
        "zp": {"source": "Z", "target": "P1s", "components": {}},
        "pz": {"source": "P1s", "target": "Z[1]", "components": {}}})
    data["triangles"]["zero-zero-p1"] = {"alpha": "zz", "beta": "zp", "gamma": "pz"}
    data["tasks"] = [{"id": "tri", "command": "recognize-triangle", "name": "zero-zero-p1"}]
    p = tmp_path / "fx.json"
    p.write_text(json.dumps(data))
    code, out = _cli(capsys, "run", "--fixture", str(p))
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["verdict"] == "not_exact"
    assert rep["evidence"]["reason"] == \
        "a comparison map from the cone exists but is not an equivalence"
    assert "certificate" not in rep["evidence"]


# -- corner support is checked where data enters ------------------------------


def test_fixture_differential_off_its_corner_exits_2(capsys, tmp_path):
    data = json.load(open(CORNER))
    data["complexes"]["S1r"]["diff"]["-1"] = [[["1", "1", "0"]]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["run", "--fixture", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    assert "complex S1r" in lines[0]
    assert "not supported on the corner e11*R*e22" in lines[0]


@pytest.mark.parametrize("index", [-1, 5, 1.5, True, "1"])
def test_fixture_summand_index_not_an_idempotent_exits_2(capsys, tmp_path, index):
    data = json.load(open(CORNER))
    data["complexes"]["P2s"]["summands"]["0"] = [index]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["run", "--fixture", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    assert f"complex P2s degree 0: summand index {index!r}" in lines[0]


def test_contraction_matrix_row_not_a_list_exits_2(capsys, tmp_path):
    data = json.load(open(KOSZUL))
    data["contractions"]["koszul-x-inverted"]["diff"]["-1"][1] = 7
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["run", "--fixture", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    assert "matrix row needs 1 columns" in lines[0]


def test_triangle_certificate_off_its_corner_refuted(capsys, tmp_path):
    cert = _certificate_of(capsys, CORNER, "triangle-canonical")
    assert cert["problem"] == "canonical"
    cert["payload"]["rho"]["0"] = [[["1", "1", "0"]]]
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(cert))
    code, out = _cli(capsys, "verify-certificate", "--fixture", CORNER,
                     "--certificate", str(p))
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["verdict"] == "refuted"
    assert "not supported on the corner e11*R*e11" in rep["evidence"]["reason"]


# -- integer task fields ------------------------------------------------------


@pytest.mark.parametrize("task_id,key,value", [
    ("hepi-corner", "max_degree", "3"),
    ("hepi-corner", "max_degree", 2.7),
    ("hepi-corner", "max_degree", -1),
    ("hepi-corner", "max_degree", None),
    ("hepi-corner", "max_degree", True),
    ("lift-corner-id", "depth", None),
    ("lift-corner-id", "depth", True),
    ("lift-corner-id", "depth", "2"),
    ("lift-corner-id", "depth", -1),
    ("rebuild-kstalk", "depth", 1.0),
    ("almost-corner", "window", "x"),
    ("almost-corner", "window", -1),
    ("almost-corner", "window", False),
])
def test_task_integer_field_not_an_integer_exits_2(capsys, tmp_path, task_id, key, value):
    with open(CORNER) as fh:
        data = json.load(fh)
    task = next(t for t in data["tasks"] if t["id"] == task_id)
    task[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["run", "--fixture", str(p), task_id]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.strip().splitlines() == [
        f"kbproj: error: task {task_id}: {key!r} must be an integer at least 0, "
        f"got {value!r}"]


@pytest.mark.parametrize("task_id,key,value,field,want", [
    ("hepi-corner", "max_degree", 0, "checked_up_to", 0),
    ("lift-corner-id", "depth", 0, "max_depth", 0),
])
def test_task_integer_field_at_its_minimum_runs(capsys, tmp_path, task_id, key, value,
                                                field, want):
    with open(CORNER) as fh:
        data = json.load(fh)
    task = next(t for t in data["tasks"] if t["id"] == task_id)
    task[key] = value
    p = tmp_path / "edge.json"
    p.write_text(json.dumps(data))
    code, out = _cli(capsys, "run", "--fixture", str(p), task_id)
    assert code == 0
    assert json.loads(out)["reports"][0]["evidence"][field] == want


@pytest.mark.parametrize("task_id,key,cap", [
    ("hepi-corner", "max_degree", 64),
    ("almost-corner", "window", 64),
])
def test_task_integer_field_above_its_cap_exits_2(capsys, tmp_path, task_id, key, cap):
    # an unbounded value was a hang: each unit builds one more resolution
    # degree or one more shifted Hom space
    with open(CORNER) as fh:
        data = json.load(fh)
    task = next(t for t in data["tasks"] if t["id"] == task_id)
    for value, code in ((cap, 0), (cap + 1, 2)):
        task[key] = value
        p = tmp_path / "edge.json"
        p.write_text(json.dumps(data))
        assert main(["run", "--fixture", str(p), task_id]) == code
        cap_out = capsys.readouterr()
        if code == 2:
            assert cap_out.out == ""
            assert cap_out.err.strip().splitlines() == [
                f"kbproj: error: task {task_id}: {key!r} must be at most {cap}, "
                f"got {cap + 1}"]


@pytest.mark.parametrize("argv,key", [
    (["check-hepi", "--fixture", SPLIT, "--map", "split", "--max-degree", "65"],
     "max_degree"),
    (["almost-report", "--fixture", CORNER, "--name", "corner-almost", "--window", "65"],
     "window"),
], ids=["check-hepi", "almost-report"])
def test_cli_option_above_its_cap_exits_2(capsys, argv, key):
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.strip().splitlines() == [
        f"kbproj: error: task cli:{argv[0]}:{argv[-3]}: {key!r} must be at most 64, got 65"]


# -- malformed fixture entries and task names -----------------------------------


def _set(path, value):
    """A mutation of the corner fixture that sets the entry at ``path``."""
    def mutate(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _ideal_generator(name, spec):
    """A mutation of the corner fixture that adds the map ``name`` and makes it
    a generator of the ideal ann-g."""
    def mutate(data):
        data["maps"][name] = spec
        data["ideals"]["ann-g"]["generators"].append(name)
    return mutate


MALFORMED_ENTRIES = [
    ("map-degree", _set(["maps", "iota", "degree"], "x"), "map iota: "),
    ("shift-range-text", _set(["subcategories", "S", "shift_range"], ["a", 1]),
     "subcategory S: "),
    ("shift-range-short", _set(["subcategories", "S", "shift_range"], [0]),
     "subcategory S: "),
    # a shift range is built shift by shift, so an unbounded one hung the load
    ("shift-range-huge", _set(["subcategories", "S", "shift_range"], [-200000, 200000]),
     "subcategory S: 'shift_range' must be an integer at least -64, got -200000"),
    ("shift-range-above-cap", _set(["subcategories", "S", "shift_range"], [0, 65]),
     "subcategory S: 'shift_range' must be at most 64, got 65"),
    ("shift-range-bool", _set(["subcategories", "S", "shift_range"], [False, 1]),
     "subcategory S: 'shift_range' must be an integer at least -64, got False"),
    ("shift-range-float", _set(["subcategories", "S", "shift_range"], [-1.0, 1]),
     "subcategory S: 'shift_range' must be an integer at least -64, got -1.0"),
    ("lift-depth", _set(["lifts", "corner-id", "depth"], "x"), "lift corner-id: "),
    # a lift's budget follows the task's integer rule
    ("lift-depth-bool", _set(["lifts", "corner-id", "depth"], True),
     "lift corner-id: 'depth' must be an integer at least 0, got True"),
    ("lift-depth-float", _set(["lifts", "corner-id", "depth"], 2.9),
     "lift corner-id: 'depth' must be an integer at least 0, got 2.9"),
    ("lift-depth-negative", _set(["complex_lifts", "rebuild-k3", "depth"], -1),
     "complex lift rebuild-k3: 'depth' must be an integer at least 0, got -1"),
    ("lift-max-candidates-text", _set(["lifts", "corner-id", "max_candidates"], "7"),
     "lift corner-id: 'max_candidates' must be an integer at least 0, got '7'"),
    ("lift-max-candidates-bool", _set(["complex_lifts", "rebuild-k3", "max_candidates"],
                                      True),
     "complex lift rebuild-k3: 'max_candidates' must be an integer at least 0, got True"),
    ("stalk-key", _set(["complex_lifts", "rebuild-k3", "stalks"],
                       {"x": {"source": "P1s", "equivalence": {}}}),
     "complex lift rebuild-k3: "),
    ("witness-idempotent", _set(["functors", "G", "witnesses", "0"], [["a", ["1"]]]),
     "functor G: "),
    ("a-witness-idempotent", _set(["almost", "corner-almost", "a_witness"],
                                  [["a", ["1", "0", "0"]]]),
     "almost case corner-almost: "),
    ("almost-without-ideal", _set(["almost", "bare"], {"algebra": "UT2"}),
     "almost case bare: needs idempotent or generators"),
    ("almost-idempotent-not-idempotent",
     _set(["almost", "corner-almost", "idempotent"], ["0", "1", "0"]),
     "almost case corner-almost: generator is not idempotent"),
    ("field-text", _set(["field"], {"p": "x"}), "unknown field spec"),
    ("field-not-prime", _set(["field"], {"p": 4}), "unknown field spec"),
    # GF(p) checks p by trial division up to sqrt(p): 2^89 - 1, a prime, hung
    # the load for more than a minute
    ("field-prime-too-large", _set(["field"], {"p": 618970019642690137449562111}),
     "unknown field spec {'p': 618970019642690137449562111}: 'p' must be at most "
     "2147483647, got 618970019642690137449562111"),
    # these printed Python's own text: "string indices must be integers", "'p'"
    ("field-spec-text", _set(["field"], "GF(2)"),
     "unknown field spec 'GF(2)': must be \"QQ\" or {\"p\": <prime>}"),
    ("field-spec-other-key", _set(["field"], {"q": 2}),
     "unknown field spec {'q': 2}: must be \"QQ\" or {\"p\": <prime>}"),
    ("entry-not-object", _set(["maps", "iota"], 5), "map iota: entry must be an object"),
    ("triangle-two-objects", _set(["triangles", "canonical", "objects"], ["P2s", "P1s"]),
     "triangle canonical: objects must be a list of three names"),
    ("triangle-objects-not-names", _set(["triangles", "canonical", "objects"], [1, 2, 3]),
     "triangle canonical: objects must be a list of three names"),
    ("triangle-legs-do-not-compose", _set(["triangles", "canonical", "gamma"], "idP2_0"),
     "triangle canonical: legs do not compose as X -> Y -> Z -> X[1]"),
    ("triangle-third-leg-lands-elsewhere", _set(["maps", "gammazero", "target"], "P1s[1]"),
     "triangle corrupt: legs do not compose"),
    ("unknown-top-level-key", _set(["bogus_section"], {}), "unknown top-level key 'bogus_section'"),
    # one name short crashed almost-report with an IndexError; one too many loaded
    ("idempotent-names-short", _set(["algebras", "UT2", "idempotent_names"], ["e11"]),
     "algebra UT2: UT2: need one name per idempotent"),
    ("idempotent-names-long", _set(["algebras", "UT2", "idempotent_names"], ["e11", "e22", "e33"]),
     "algebra UT2: UT2: need one name per idempotent"),
    # an ideal generator is a class of Hom(X, Y); both ended in a traceback
    ("ideal-generator-degree-1",
     _ideal_generator("up", {"source": "S1r", "target": "S1r", "degree": 1,
                             "components": {"-1": [[["0", "1", "0"]]]}}),
     "ideal ann-g: generator up is not a degree-0 chain map"),
    ("ideal-generator-not-a-chain-map",
     _ideal_generator("bump", {"source": "S1r", "target": "S1r", "chain": False,
                               "components": {"0": [[["1", "0", "0"]]]}}),
     "ideal ann-g: generator bump is not a degree-0 chain map"),
    # an ideal's generators and triangles are placed in its window at load,
    # not when check-ideal runs
    ("ideal-generator-outside-the-window",
     _ideal_generator("idP2_p3", {"source": "P2s[3]", "target": "P2s[3]",
                                  "components": {"-3": [[["0", "0", "1"]]]}}),
     "ideal ann-g: generator idP2_p3: object is not in the subcategory window"),
    # a lift problem is checked when it is built, so a generator the functor
    # does not keep invertible fails the load, not the lift-map task
    ("lift-generator-not-killed", _set(["lifts", "corner-id", "generators"], ["P1s"]),
     "lift corner-id: generator P1s is not killed by the functor"),
    # keys that name an index follow one rule: the decimal digits of an index
    # in range.  "-1" loaded and found no stalk; "5" ended in an IndexError
    ("stalk-key-negative", _set(["complex_lifts", "rebuild-kstalk", "stalks"],
                                {"-1": {"source": "P1s", "equivalence": {"0": [[["1"]]]}}}),
     "complex lift rebuild-kstalk: stalk key '-1' must be an index from 0 to 0"),
    ("stalk-key-too-large", _set(["complex_lifts", "rebuild-kstalk", "stalks"],
                                 {"5": {"source": "P1s", "equivalence": {"0": [[["1"]]]}}}),
     "complex lift rebuild-kstalk: stalk key '5' must be an index from 0 to 0"),
    # a witness list for no source idempotent was ignored
    ("witness-key-for-no-idempotent", _set(["functors", "G", "witnesses", "7"], []),
     "functor G: witness key '7' must be an index from 0 to 1"),
    ("square-witness-key-for-no-pair",
     _set(["almost", "corner-almost", "square_witnesses", "1"], [[0, ["1", "0", "0"]]]),
     "almost case corner-almost: square_witnesses key '1' must be an index from 0 to 0"),
    # an almost case's parts are checked at load, not when almost-report runs
    ("almost-include-not-a-list", _set(["almost", "corner-almost", "include"], "serre"),
     "almost case corner-almost: include must list parts among serre, quotient, derived, "
     "got 'serre'"),
    ("almost-include-misspelt", _set(["almost", "rad-almost", "include"], ["sere"]),
     "almost case rad-almost: include must list parts among serre, quotient, derived, "
     "got ['sere']"),
    ("almost-quotient-without-idempotent",
     _set(["almost", "rad-almost", "include"], ["quotient"]),
     "almost case rad-almost: corner presentation needs an idempotent element"),
    ("almost-derived-without-window", _set(["almost", "rad-almost", "include"], ["derived"]),
     "almost case rad-almost: derived part needs a subcategory window"),
    # a witness index past the last idempotent ended in an IndexError traceback
    # (almost) or in "tuple index out of range" (functor); G ends at k, one idempotent
    ("a-witness-index-too-large", _set(["almost", "corner-almost", "a_witness"],
                                       [[5, ["1", "0", "0"]]]),
     "almost case corner-almost: 'idempotent' must be at most 1, got 5"),
    ("square-witness-index-too-large",
     _set(["almost", "corner-almost", "square_witnesses", "0"], [[7, ["1", "0", "0"]]]),
     "almost case corner-almost: 'idempotent' must be at most 1, got 7"),
    ("functor-witness-index-too-large", _set(["functors", "G", "witnesses", "0"], [[1, ["1"]]]),
     "functor G: 'idempotent' must be at most 0, got 1"),
]


@pytest.mark.parametrize("mutate,want", [m[1:] for m in MALFORMED_ENTRIES],
                         ids=[m[0] for m in MALFORMED_ENTRIES])
def test_malformed_fixture_entry_exits_2(capsys, tmp_path, mutate, want):
    assert want in _run_mutated(capsys, tmp_path, mutate)


# an object or list field of the wrong JSON type, or a degree key that is no
# integer: these exited with Python's own text ("'list' object has no
# attribute 'items'", "not enough values to unpack", "invalid literal for
# int()"), read a string name one character at a time ("unknown complex 'P'"),
# or loaded an object of names as the list of its keys
WRONG_JSON_TYPES = [
    ("map-components", ["maps", "iota", "components"], [1],
     "map iota: 'components' must be an object"),
    ("lift-map", ["lifts", "corner-id", "map"], [1], "lift corner-id: 'map' must be an object"),
    ("stalks", ["complex_lifts", "rebuild-kstalk", "stalks"], [1],
     "complex lift rebuild-kstalk: 'stalks' must be an object"),
    ("stalk-entry", ["complex_lifts", "rebuild-kstalk", "stalks", "0"], [1],
     "complex lift rebuild-kstalk: stalk '0' must be an object"),
    ("stalk-equivalence", ["complex_lifts", "rebuild-kstalk", "stalks", "0", "equivalence"],
     [1], "complex lift rebuild-kstalk: 'equivalence' must be an object"),
    ("square-witnesses", ["almost", "corner-almost", "square_witnesses"], [1],
     "almost case corner-almost: 'square_witnesses' must be an object"),
    ("square-witness-list", ["almost", "corner-almost", "square_witnesses", "0"], 5,
     "almost case corner-almost: square_witnesses entries are [idempotent, element] pairs"),
    ("a-witness-short-pair", ["almost", "corner-almost", "a_witness"], [[0]],
     "almost case corner-almost: a_witness entries are [idempotent, element] pairs"),
    ("almost-generators", ["almost", "rad-almost", "generators"], "a",
     "almost case rad-almost: 'generators' must be a list"),
    ("functor-witnesses", ["functors", "G", "witnesses"], [1],
     "functor G: 'witnesses' must be an object"),
    ("subcat-objects-name", ["subcategories", "S", "objects"], "P1s",
     "subcategory S: 'objects' must be a list"),
    ("subcat-shift-range-object", ["subcategories", "S", "shift_range"], {"lo": -2},
     "subcategory S: 'shift_range' must be a list of two integers"),
    ("lift-generators-name", ["lifts", "corner-id", "generators"], "P2s",
     "lift corner-id: 'generators' must be a list"),
    ("lift-generators-object", ["lifts", "corner-id", "generators"], {"P2s": 1},
     "lift corner-id: 'generators' must be a list"),
    ("complex-lift-generators-name", ["complex_lifts", "rebuild-k3", "generators"], "P2s",
     "complex lift rebuild-k3: 'generators' must be a list"),
    ("complex-lift-generators-object", ["complex_lifts", "rebuild-k3", "generators"],
     {"P2s": 1}, "complex lift rebuild-k3: 'generators' must be a list"),
    ("ideal-generators-object", ["ideals", "ann-g", "generators"], {"idP2_0": 1},
     "ideal ann-g: 'generators' must be a list"),
    ("ideal-triangles-object", ["ideals", "ann-g", "triangles"], {"canonical": 1},
     "ideal ann-g: 'triangles' must be a list"),
    ("contraction-dims", ["contractions", "c"], {"dims": [1]},
     "contraction c: 'dims' must be an object"),
    ("contraction-dims-key", ["contractions", "c"], {"dims": {"x": 1}},
     "contraction c: 'dims' degree: 'x' is not an integer"),
    ("contraction-diff-key", ["contractions", "c"], {"dims": {"0": 1}, "diff": {"x": [[1]]}},
     "contraction c: differential degree: 'x' is not an integer"),
    ("contraction-homotopy-key", ["contractions", "c"],
     {"dims": {"0": 1}, "homotopy": {"0.5": [[1]]}},
     "contraction c: homotopy degree: '0.5' is not an integer"),
    # a degree key is an integer as str writes it: int() read "00" as 0, so the
    # second key silently replaced the first, and "1_0" as 10
    ("complex-degree-alias", ["complexes", "X"],
     {"algebra": "UT2", "summands": {"0": [0], "00": [1]}},
     "complex X: complex X degree: '00' is not an integer"),
    ("map-degree-underscore", ["maps", "iota10"],
     {"source": "P2s", "target": "P1s", "components": {"1_0": [[["0", "1", "0"]]]}},
     "map iota10: map iota10 component degree: '1_0' is not an integer"),
    ("contraction-dims-alias", ["contractions", "c"], {"dims": {"0": 1, "00": 1}},
     "contraction c: 'dims' degree: '00' is not an integer"),
]


@pytest.mark.parametrize("path,value,want", [w[1:] for w in WRONG_JSON_TYPES],
                         ids=[w[0] for w in WRONG_JSON_TYPES])
def test_fixture_field_of_the_wrong_json_type_exits_2(capsys, tmp_path, path, value, want):
    line = _run_mutated(capsys, tmp_path, _set(path, value))
    assert line == f"kbproj: error: {want}"
    assert "object has no attribute" not in line


# each integer a fixture entry holds, with a float that a bare int() once
# truncated to a value the fixture accepts
FIXTURE_INTEGERS = [
    ("map-degree", CORNER, ["maps", "iota", "degree"], 0.5, "map iota: 'degree'"),
    ("field-p", CORNER, ["field", "p"], 7.5, "unknown field spec"),
    ("functor-witness", CORNER, ["functors", "G", "witnesses", "0", 0, 0], 0.5,
     "functor G: 'idempotent'"),
    ("a-witness", CORNER, ["almost", "corner-almost", "a_witness", 0, 0], 0.5,
     "almost case corner-almost: 'idempotent'"),
    ("square-witness", CORNER, ["almost", "corner-almost", "square_witnesses", "0", 0, 0],
     0.5, "almost case corner-almost: 'idempotent'"),
    ("contraction-dims", KOSZUL, ["contractions", "koszul-x-inverted", "dims", "-1"], 2.5,
     "contraction koszul-x-inverted: 'dims'"),
]


@pytest.mark.parametrize("kind", ["float", "bool"])
@pytest.mark.parametrize("fixture,path,value,want", [f[1:] for f in FIXTURE_INTEGERS],
                         ids=[f[0] for f in FIXTURE_INTEGERS])
def test_fixture_integer_not_an_integer_exits_2(capsys, tmp_path, fixture, path, value,
                                                want, kind):
    with open(fixture) as fh:
        data = json.load(fh)
    if path[0] == "field":
        data["field"] = {"p": 7}
    _set(path, value if kind == "float" else True)(data)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["run", "--fixture", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("kbproj: error: ") and want in lines[0]
    assert "must be an integer" in lines[0]


@pytest.mark.parametrize("task_id,key,value,kind", [
    ("hepi-corner", "map", ["corner"], "ring map"),
    ("hepi-corner", "map", {"corner": 1}, "ring map"),
    ("triangle-canonical", "name", ["canonical"], "triangle"),
    ("ideal-ann-g", "name", {"ann-g": 1}, "ideal"),
    ("lift-corner-id", "name", ["corner-id"], "lift"),
    ("rebuild-k3", "name", ["rebuild-k3"], "complex lift"),
    ("almost-corner", "name", ["corner-almost"], "almost case"),
    ("telescope-g", "functor", ["G"], "functor"),
    ("telescope-g", "subcat", ["S"], "subcategory"),
])
def test_task_name_not_a_string_exits_2(capsys, tmp_path, task_id, key, value, kind):
    with open(CORNER) as fh:
        data = json.load(fh)
    task = next(t for t in data["tasks"] if t["id"] == task_id)
    task[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["run", "--fixture", str(p), task_id]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.strip().splitlines() == [
        f"kbproj: error: task {task_id}: unknown {kind} {value!r}"]


@pytest.mark.parametrize("problem", ["nosuch", "canonical"])
def test_certificate_for_an_unknown_problem_exits_2(capsys, tmp_path, problem):
    # an unknown problem cannot be executed: exit 2, not a refuted replay
    p = tmp_path / "cert.json"
    p.write_text(json.dumps({"kind": "map-lift", "problem": problem, "payload": {}}))
    assert main(["verify-certificate", "--fixture", CORNER, "--certificate", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.strip().splitlines() == [
        f"kbproj: error: certificate {p}: unknown lift {problem!r}"]


def _one_error_line(capsys, data, tmp_path, *task_ids):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["run", "--fixture", str(p), *task_ids]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


def test_triangle_whose_legs_share_only_summands_exits_2(capsys, tmp_path):
    # S1z has the summands of S1r and a zero differential; beta lands in
    # S1r and gsplit starts at S1z, so (iota, beta, gsplit) is no triangle
    with open(CORNER) as fh:
        data = json.load(fh)
    data["complexes"]["S1z"] = dict(data["complexes"]["S1r"], diff={})
    data["maps"]["gsplit"] = dict(data["maps"]["gamma"], source="S1z")
    data["triangles"]["mixed"] = {"alpha": "iota", "beta": "beta", "gamma": "gsplit"}
    data["tasks"].append({"id": "triangle-mixed", "command": "recognize-triangle",
                          "name": "mixed"})
    line = _one_error_line(capsys, data, tmp_path)
    assert line == ("kbproj: error: triangle mixed: legs do not compose as "
                    "X -> Y -> Z -> X[1]")


# an ideal's triangles are placed in its window and recognized at load, so
# these fail before the named task runs, with the ideal named
@pytest.mark.parametrize("objects,want", [
    (["x", "y", "z"],
     "ideal ann-g: triangle canonical: object 'x' is not in the subcategory window"),
    (["P2s", "P1s", "nosuch"],
     "ideal ann-g: triangle canonical: object 'nosuch' is not in the subcategory window"),
    (["P1s", "P2s", "S1r"],
     "ideal ann-g: triangle canonical: window object 'P1s' is not the triangle's object"),
], ids=["unknown", "unknown-last", "wrong-position"])
def test_ideal_triangle_objects_outside_the_window_exit_2(capsys, tmp_path, objects, want):
    with open(CORNER) as fh:
        data = json.load(fh)
    data["triangles"]["canonical"]["objects"] = objects
    assert _one_error_line(capsys, data, tmp_path, "ideal-ann-g") == f"kbproj: error: {want}"


def test_ideal_triangle_that_is_not_exact_exits_2(capsys, tmp_path):
    # the corrupt triangle's legs compose but no comparison map from the cone exists
    with open(CORNER) as fh:
        data = json.load(fh)
    data["ideals"]["ann-g"]["triangles"] = ["corrupt"]
    assert _one_error_line(capsys, data, tmp_path, "ideal-ann-g") == (
        "kbproj: error: ideal ann-g: triangle on ('P2s', 'P1s', 'S1r') failed "
        "verification: no comparison map from the cone exists")


def test_ideal_triangle_name_typo_fails_the_load(capsys, tmp_path):
    # the fixture resolves an ideal's triangles at load, so a task that does
    # not read the ideal cannot run either
    with open(CORNER) as fh:
        data = json.load(fh)
    data["ideals"]["ann-g"]["triangles"] = ["canonical", "canonicl"]
    assert _one_error_line(capsys, data, tmp_path, "lift-corner-id") == (
        "kbproj: error: ideal ann-g: unknown triangle 'canonicl'")


def test_hepi_top_degree_refutes_at_either_max_degree(capsys):
    # the resolution completes at length 2 = max_degree + 1 for the first
    # task; its Tor_2 is nonzero, so both tasks report the same refutation
    code, out = _cli(capsys, "run", "--fixture", TWO_CYCLE)
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["verdict"] for r in reports] == ["refuted", "refuted"]
    assert reports[0]["evidence"] == reports[1]["evidence"]
    assert reports[0]["evidence"]["tor_dims"] == [1, 0, 1]
    assert reports[0]["evidence"]["checked_up_to"] == 2


@pytest.mark.parametrize("mutate,task_ids,want", [
    (lambda d: d["almost"]["corner-almost"].pop("a_witness"), ("almost-corner", "hepi-corner"),
     "almost case corner-almost: projectivity witness absent for ideal"),
    (_set(["almost", "corner-almost", "a_witness"], [[1, ["1", "0", "0"]]]),
     ("almost-corner", "hepi-corner"),
     "almost case corner-almost: ideal: witness element not supported at idempotent 1"),
    (lambda d: d["almost"]["rad-almost"].update(include=["derived"], subcat="S"),
     ("almost-rad", "hepi-corner"), "almost case rad-almost: the ideal must be idempotent"),
    (_set(["field"], {"p": 2}), ("hepi-corner",),
     "ring map corner: radical needs characteristic 0 or p > dim; GF(2) with dim 3"),
], ids=["no-a-witness", "a-witness-wrong-idempotent", "derived-not-idempotent",
        "hepi-no-radical"])
def test_task_the_engine_cannot_run_exits_2(capsys, tmp_path, mutate, task_ids, want):
    # an almost case's derived part is checked when the fixture loads, so a
    # case it cannot run is refused whichever task is asked for
    with open(CORNER) as fh:
        data = json.load(fh)
    mutate(data)
    for task_id in task_ids:
        assert _one_error_line(capsys, data, tmp_path, task_id).startswith(
            f"kbproj: error: {want}")


def test_split_over_gf2_refutes_before_any_resolution(capsys, tmp_path):
    # unlike corner above, split's map is refuted by its multiplication
    # S (x)_R S -> S alone, which needs no radical, so GF(2) runs: deciding
    # mu from Tor_0 of the resolution would exit 2 here instead
    with open(SPLIT) as fh:
        data = json.load(fh)
    data["field"] = {"p": 2}
    p = tmp_path / "split_gf2.json"
    p.write_text(json.dumps(data))
    code, out = _cli(capsys, "run", "--fixture", str(p), "hepi-split")
    assert code == 0
    assert out.strip() == (
        '{"reports":[{"command":"check-hepi","evidence":{"checked_up_to":-1,"map":"split",'
        '"multiplication_is_iso":false,"reason":"multiplication S(x)S -> S is not bijective: '
        'dim 4 vs 3, rank 3","resolution_complete":false,"target_dim":3,'
        '"tensor_square_dim":4,"tor_dims":[]},"task":"hepi-split","verdict":"refuted"}]}')


def _window_over_k(data):
    # kstalk and kcone are complexes over k, not over UT2 where G starts
    data["subcategories"]["K"] = {"objects": ["kstalk", "kcone"]}


def test_telescope_over_a_window_of_another_algebra_exits_2(capsys, tmp_path):
    with open(CORNER) as fh:
        data = json.load(fh)
    _window_over_k(data)
    data["tasks"].append({"id": "telescope-k", "command": "telescope-report",
                          "functor": "G", "subcat": "K"})
    assert _one_error_line(capsys, data, tmp_path, "telescope-k") == (
        "kbproj: error: task telescope-k: functor G on subcategory K: "
        "ind(corner) starts at UT2, the input lives over k")


def test_almost_case_over_a_window_of_another_algebra_exits_2(capsys, tmp_path):
    with open(CORNER) as fh:
        data = json.load(fh)
    _window_over_k(data)
    data["almost"]["corner-almost"]["subcat"] = "K"
    assert _one_error_line(capsys, data, tmp_path, "almost-corner") == (
        "kbproj: error: almost case corner-almost: subcategory K lives over k, not UT2")
