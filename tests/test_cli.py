"""End-to-end tests for the grasspoly command line interface.

Every test shells out to ``python -m grasspoly.cli`` so that argument
parsing, JSON serialization, exit codes, and stream separation are all
exercised exactly as a user would hit them.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from grasspoly import cli, elements, iterint
from grasspoly.elements import build_element
from grasspoly.iterint import PathSpec, iterate_element


def run_cli(*args, threads=None):
    env = dict(os.environ)
    env.pop("GRASSPOLY_THREADS", None)
    if threads is not None:
        env["GRASSPOLY_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "grasspoly.cli", *args],
        capture_output=True, text=True, env=env)


def write_path(tmp_path, spec, name="path.json"):
    target = tmp_path / name
    target.write_text(json.dumps(spec.to_json_dict()), encoding="utf-8")
    return str(target)


# ---------------------------------------------------------------------------
# element
# ---------------------------------------------------------------------------

def test_element_degree_one_payload():
    proc = run_cli("element", "--n", "1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["arity"] == 1
    terms = {term["slots"][0][0]: term["coeff"]
             for term in payload["terms"]}
    assert terms == {"D[1]": 1, "D[2]": -1}


def test_element_output_is_deterministic():
    first = run_cli("element", "--n", "2")
    second = run_cli("element", "--n", "2")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_element_ignores_thread_count():
    lone = run_cli("element", "--n", "2", threads=1)
    pooled = run_cli("element", "--n", "2", threads=4)
    assert lone.stdout == pooled.stdout


def test_element_degree_five_refused():
    proc = run_cli("element", "--n", "5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: --n 5 refused: degrees above 4 are not supported\n")


def test_element_degree_four(tmp_path):
    out = tmp_path / "deg4.json"
    proc = run_cli("element", "--n", "4", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["arity"] == 4
    assert len(payload["terms"]) == math.factorial(8)


def test_element_mutate_changes_payload():
    clean = run_cli("element", "--n", "2")
    bent = run_cli("element", "--n", "2", "--mutate")
    assert clean.returncode == 0 and bent.returncode == 0
    assert clean.stdout != bent.stdout


def test_element_out_file_matches_stdout(tmp_path):
    out = tmp_path / "element.json"
    filed = run_cli("element", "--n", "2", "--out", str(out))
    piped = run_cli("element", "--n", "2")
    assert filed.returncode == 0
    assert filed.stdout == ""
    assert out.read_text(encoding="utf-8") == piped.stdout


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_suites_pass():
    proc = run_cli("verify", "--suite", "all", "--n", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert sorted(payload.keys()) == [
        "command", "mode", "mutate", "n", "reports", "seed", "status",
        "suite"]
    assert payload["command"] == "verify"
    assert payload["status"] == "pass"
    checks = [report["check"] for report in payload["reports"]]
    assert checks == [
        "comparison", "relations", "scale", "integrability", "deltar"]
    for report in payload["reports"]:
        assert report["status"] == "pass"
        assert sorted(report.keys()) == [
            "check", "details", "n", "residue_terms", "status", "witness"]


def test_verify_comparison_constants():
    proc = run_cli("verify", "--suite", "comparison", "--n", "2", "--n", "3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    details = [report["details"] for report in payload["reports"]]
    assert details[0]["matched_constant"] == "4"
    assert details[1]["matched_constant"] == "-36"
    assert details[1]["element_terms"] == 720


# (arguments, stderr) of comparison runs refused before anything is built:
# a degree above the command line's limit, and one below the check's range
REFUSED_COMPARISONS = [
    (("--n", "5"),
     "error: --n 5 refused: degrees above 4 are not supported\n"),
    (("--n", "1"),
     "error: comparison check supports n in {2, 3, 4}\n"),
]


def test_verify_comparison_refuses_unsupported_degree():
    # a run that checks nothing must not report a pass
    for args, err in REFUSED_COMPARISONS:
        proc = run_cli("verify", "--suite", "comparison", *args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == err


def test_verify_comparison_degree_four(capsys):
    code = cli.main(["verify", "--suite", "comparison", "--n", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["status"] == "pass"
    details = payload["reports"][0]["details"]
    assert details["matched_constant"] == "576"
    assert details["element_terms"] == 40320


def test_verify_comparison_refuses_before_building(monkeypatch, capsys):
    # --mutate must not build (and mutate) an element the check refuses,
    # whether the degree is above the limit or below the check's range
    def no_build(*args, **kwargs):
        raise AssertionError("build_element called for a refused degree")

    monkeypatch.setattr(cli, "build_element", no_build)
    for args, err in REFUSED_COMPARISONS:
        code = cli.main(["verify", "--suite", "comparison", *args,
                         "--mutate"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == err


@pytest.mark.parametrize("argv", [
    ["element", "--n", "5"],
    ["verify", "--suite", "scale", "--n", "5"],
    ["verify", "--suite", "integrability", "--n", "5"],
    ["verify", "--suite", "relations", "--n", "5"],
    ["verify", "--suite", "all", "--n", "2", "--n", "5"],
])
def test_degree_above_four_refused_before_building(monkeypatch, capsys,
                                                   argv):
    # a degree-5 element would stream 10! arrangements
    def no_build(*args, **kwargs):
        raise AssertionError("build_element called for a refused degree")

    monkeypatch.setattr(cli, "build_element", no_build)
    monkeypatch.setattr(elements, "build_element", no_build)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: --n 5 refused: degrees above 4 are not supported\n")


@pytest.mark.parametrize("mode, builds", [("mod2", 1), ("strict", 2)])
def test_verify_builds_each_element_once(monkeypatch, capsys, mode, builds):
    # comparison, scale and integrability share one element per degree
    # and sign setting; the relations suite builds its own on other labels
    calls = []

    def counting(*args, **kwargs):
        if kwargs.get("labels") is None:
            calls.append((args, kwargs.get("signed")))
        return build_element(*args, **kwargs)

    monkeypatch.setattr(cli, "build_element", counting)
    monkeypatch.setattr(elements, "build_element", counting)
    cli.main(["verify", "--suite", "all", "--n", "2", "--n", "3",
              "--mode", mode, "--points", "2"])
    capsys.readouterr()
    assert len(calls) == 2 * builds
    assert len(set(calls)) == len(calls)


def test_verify_mutate_fails_every_suite():
    proc = run_cli("verify", "--suite", "all", "--n", "2", "--mutate")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["status"] == "fail"
    statuses = {report["status"] for report in payload["reports"]}
    assert statuses == {"fail"}


def test_verify_thread_count_does_not_change_bytes():
    lone = run_cli("verify", "--suite", "integrability", "--n", "2",
                   "--points", "5", threads=1)
    pooled = run_cli("verify", "--suite", "integrability", "--n", "2",
                     "--points", "5", threads=4)
    assert lone.returncode == 0 and pooled.returncode == 0
    assert lone.stdout == pooled.stdout


def test_verify_timings_adds_elapsed():
    proc = run_cli("verify", "--suite", "scale", "--n", "2", "--timings")
    payload = json.loads(proc.stdout)
    report = payload["reports"][0]
    assert "elapsed_ms" in report
    assert report["elapsed_ms"] >= 0


def test_verify_strict_scale_reports_the_torsion():
    # With signs kept, a single rescale shifts the element by a scalar
    # log term, so the strict-mode scale suite must fail loudly.
    proc = run_cli("verify", "--suite", "scale", "--n", "2",
                   "--mode", "strict")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["mode"] == "strict"
    assert payload["reports"][0]["status"] == "fail"


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_word_log(tmp_path):
    path_file = write_path(tmp_path, PathSpec.line([[1.0]], [[3.0]]))
    proc = run_cli("integrate", "--word", json.dumps([[[1, "D[1]"]]]),
                   "--path", path_file)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert sorted(payload.keys()) == ["depth_exceeded", "error", "panels",
                                      "value"]
    assert payload["depth_exceeded"] is False
    assert abs(payload["value"][0] - math.log(3)) < 1e-12
    assert payload["value"][1] == 0.0
    assert payload["panels"] >= 1


def test_integrate_word_dilog_letter(tmp_path):
    # Along rows [[u, 1], [1, 1], [0, 1]] the bracket D[1,2] equals
    # u - 1, so minus its dlog integrated from u = 0 to u = 1/2 is
    # exactly -log(1 - z) at z = 1/2, which is log 2.
    spec = PathSpec.line(
        [[0.0, 1.0], [1.0, 1.0], [0.0, 1.0]],
        [[0.5, 1.0], [1.0, 1.0], [0.0, 1.0]])
    path_file = write_path(tmp_path, spec)
    proc = run_cli("integrate", "--word", json.dumps([[[-1, "D[1,2]"]]]),
                   "--path", path_file)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["value"][0] - math.log(2)) < 1e-12
    assert abs(payload["value"][1]) < 1e-12


def test_integrate_element_file_matches_library(tmp_path):
    element_file = tmp_path / "element.json"
    proc = run_cli("element", "--n", "2", "--out", str(element_file))
    assert proc.returncode == 0
    base = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 3.0]]
    target = [[1.1, 0.02], [0.03, 1.05], [0.95, 1.1], [2.1, 3.2]]
    spec = PathSpec.line(base, target)
    path_file = write_path(tmp_path, spec)
    proc = run_cli("integrate", "--element", str(element_file),
                   "--path", path_file)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    expected = iterate_element(build_element(2).tensor, spec)
    got = complex(payload["value"][0], payload["value"][1])
    assert abs(got - expected.value) < 1e-12


def test_integrate_reports_depth_exceeded(tmp_path, monkeypatch, capsys):
    # with no subdivision allowed, one panel of d log z from z = 0.1
    # cannot meet the tolerance; the value is still printed, flagged, and
    # the exit code says it did not converge
    monkeypatch.setattr(iterint, "MAX_DEPTH", 0)
    word = json.dumps([[[1, "D[1]"]]])
    word_path = write_path(tmp_path, PathSpec.line([[0.1]], [[3.0]]))
    element_file = tmp_path / "element.json"
    element_file.write_text(json.dumps(build_element(1).tensor.to_json_dict()),
                            encoding="utf-8")
    element_path = write_path(tmp_path, PathSpec.line([[0.1], [0.2]],
                                                      [[3.0], [5.0]]),
                              name="element_path.json")
    for source in (["--word", word, "--path", word_path],
                   ["--element", str(element_file), "--path", element_path]):
        code = cli.main(["integrate", *source])
        payload = json.loads(capsys.readouterr().out)
        assert code == 5
        assert payload["depth_exceeded"] is True
        assert payload["error"] > 1e-6


def test_integrate_requires_exactly_one_source(tmp_path):
    path_file = write_path(tmp_path, PathSpec.line([[1.0]], [[3.0]]))
    both = run_cli("integrate", "--word", json.dumps([[[1, "D[1]"]]]),
                   "--element", path_file, "--path", path_file)
    assert both.returncode == 1
    neither = run_cli("integrate", "--path", path_file)
    assert neither.returncode == 1


def test_integrate_malformed_path_is_a_path_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    proc = run_cli("integrate", "--word", json.dumps([[[1, "D[1]"]]]),
                   "--path", str(bad))
    assert proc.returncode == 2
    assert "path error" in proc.stderr


def test_integrate_missing_path_file_is_an_io_error(tmp_path):
    proc = run_cli("integrate", "--word", json.dumps([[[1, "D[1]"]]]),
                   "--path", str(tmp_path / "absent.json"))
    assert proc.returncode == 1
    assert "io error" in proc.stderr


def test_integrate_pole_exit_code(tmp_path):
    path_file = write_path(tmp_path, PathSpec.line([[-1.0]], [[1.0]]))
    proc = run_cli("integrate", "--word", json.dumps([[[1, "D[1]"]]]),
                   "--path", path_file)
    assert proc.returncode == 3
    assert "pole error" in proc.stderr


def test_integrate_budget_exit_code(tmp_path):
    path_file = write_path(tmp_path, PathSpec.line([[1.0]], [[3.0]]))
    word = json.dumps([[[1, "D[1]"]], [[1, "D[1]"]], [[1, "D[1]"]]])
    proc = run_cli("integrate", "--word", word, "--path", path_file,
                   "--budget", "2", "--tol", "1e-14")
    assert proc.returncode == 4
    assert "budget error" in proc.stderr


def test_mpmath_loads_only_when_a_dilogarithm_needs_it():
    code = ("import sys, grasspoly.cli\n"
            "print('mpmath' in sys.modules)\n"
            "import grasspoly\n"
            "grasspoly.li2(0.5)\n"
            "print('mpmath' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_rogers_marks_singular_points():
    proc = run_cli("table", "--function", "rogers", "--grid=-1:2:7")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "x,value_re,value_im,error_estimate"
    assert len(lines) == 8
    rows = {float(line.split(",")[0]): line.split(",")[1]
            for line in lines[1:]}
    assert rows[0.0] == "nan"
    assert rows[1.0] == "nan"
    for zero in (-1.0, 0.5, 2.0):
        assert abs(float(rows[zero])) < 1e-12


def test_table_li2_values():
    proc = run_cli("table", "--function", "li2", "--grid=0.1:0.9:5")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "z_re,z_im,value_re,value_im,error_estimate"
    assert len(lines) == 6
    half = lines[3].split(",")
    assert float(half[0]) == 0.5
    expected = math.pi ** 2 / 12 - math.log(2) ** 2 / 2
    assert abs(float(half[2]) - expected) < 1e-9
    assert float(half[3]) == 0.0


def test_table_bloch_wigner_grid():
    proc = run_cli("table", "--function", "bloch_wigner",
                   "--grid=-1:1:3,-1:1:3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "z_re,z_im,value_re,value_im,error_estimate"
    assert len(lines) == 10
    nan_points = set()
    for line in lines[1:]:
        cells = line.split(",")
        if cells[2] == "nan":
            nan_points.add((float(cells[0]), float(cells[1])))
        elif float(cells[1]) == 0.0:
            # Real arguments have vanishing imaginary dilogarithm.
            assert abs(float(cells[2])) < 1e-12
    assert nan_points == {(0.0, 0.0), (1.0, 0.0)}


def test_table_l2g_uses_base_triple():
    proc = run_cli("table", "--function", "l2g", "--grid=0.2:0.8:4",
                   "--base", "0,1,3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "x1,x2,x3,x4,value_re,value_im,error_estimate"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[:4] == ["0", "1", "3", "0.2"]


def test_table_out_file(tmp_path):
    out = tmp_path / "table.csv"
    filed = run_cli("table", "--function", "li2", "--grid=0.1:0.9:5",
                    "--out", str(out))
    piped = run_cli("table", "--function", "li2", "--grid=0.1:0.9:5")
    assert filed.returncode == 0
    assert filed.stdout == ""
    assert out.read_text(encoding="utf-8") == piped.stdout


def test_table_rejects_bad_grid():
    proc = run_cli("table", "--function", "li2", "--grid", "nonsense")
    assert proc.returncode == 1
    assert "start:stop:count" in proc.stderr


# ---------------------------------------------------------------------------
# pinned output bytes
# ---------------------------------------------------------------------------

# sha256 of stdout; these bytes do not depend on PYTHONHASHSEED.
PINNED = [
    (("element", "--n", "2"), 0,
     "eaa3fad164c5e4daa2dcde6f16a3c6fc37fc38b046b48b971baaf8985d8caed3"),
    (("element", "--n", "3"), 0,
     "cf8ed21672522e6076b032608324f5ecc05e5cc202fefa514a61239671ea40f7"),
    (("verify", "--suite", "all", "--n", "2", "--n", "3", "--seed", "0"), 0,
     "f808f02e2d40a94f41b6685b75973cc69c308fcc01643e0eabcb96797a4f4faa"),
    (("verify", "--suite", "all", "--n", "2", "--mutate"), 1,
     "35ee6047d94527e8be2d7c559ae8f5b34fb8707827dd17f9f55996b30044bef0"),
    (("verify", "--suite", "integrability", "--n", "3", "--mutate",
      "--seed", "0"), 1,
     "c81d40782a3193df672a24beabfdd27c4b1e5d6f7b978c01135b0f1ec3706528"),
]


@pytest.mark.parametrize("args, code, digest", PINNED,
                         ids=[" ".join(p[0]) for p in PINNED])
def test_output_bytes_are_pinned(args, code, digest):
    proc = run_cli(*args)
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def test_verify_has_no_tol_flag():
    proc = run_cli("verify", "--suite", "deltar", "--tol", "1e-9")
    assert proc.returncode == 2
    assert "--tol" in proc.stderr


def test_unknown_subcommand_is_a_usage_error():
    proc = run_cli("bogus")
    assert proc.returncode == 2


def test_unknown_table_function_is_a_usage_error():
    proc = run_cli("table", "--function", "li9", "--grid=0:1:3")
    assert proc.returncode == 2


def test_console_script_is_installed():
    script = shutil.which("grasspoly")
    if script is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([script, "element", "--n", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["arity"] == 1
