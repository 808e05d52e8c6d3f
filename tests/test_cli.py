"""End-to-end tests for the grasspoly command line interface.

Every test shells out to ``python -m grasspoly.cli`` so that argument
parsing, JSON serialization, exit codes, and stream separation are all
exercised exactly as a user would hit them.
"""

import ast
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import grasspoly
from grasspoly import cli, elements, iterint
from grasspoly.elements import build_element
from grasspoly.errors import ContractViolation
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
    assert proc.stderr == "error: element supports degrees 1 to 4, not n = 5\n"


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
# a degree above the suite's range, and one below it
REFUSED_COMPARISONS = [
    (("--n", "5"), "error: comparison supports degrees 2 to 4, not n = 5\n"),
    (("--n", "1"), "error: comparison supports degrees 2 to 4, not n = 1\n"),
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

    monkeypatch.setattr(elements, "build_element", no_build)
    for args, err in REFUSED_COMPARISONS:
        code = cli.main(["verify", "--suite", "comparison", *args,
                         "--mutate"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == err


# (command line, the text of its refusal up to the degree)
@pytest.mark.parametrize("argv", [
    (["element", "--n", "5"], "element supports degrees 1 to 4"),
    (["verify", "--suite", "scale", "--n", "5"],
     "scale supports degrees 1 to 4"),
    (["verify", "--suite", "integrability", "--n", "5"],
     "integrability supports degrees 2 to 4"),
    (["verify", "--suite", "relations", "--n", "5"],
     "relations supports degrees 1 to 4"),
    (["verify", "--suite", "all", "--n", "2", "--n", "5"],
     "comparison supports degrees 2 to 4"),
    (["verify", "--suite", "deltar", "--n", "5"],
     "deltar supports degrees 1 to 4"),
])
def test_degree_above_four_refused_before_building(monkeypatch, capsys,
                                                   argv):
    # a degree-5 element would stream 10! arrangements
    def no_build(*args, **kwargs):
        raise AssertionError("build_element called for a refused degree")

    argv, refusal = argv
    monkeypatch.setattr(elements, "build_element", no_build)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {refusal}, not n = 5\n"


@pytest.mark.parametrize("argv, err", [
    (["element", "--n", "0"], "element supports degrees 1 to 4, not n = 0"),
    (["verify", "--suite", "integrability", "--n", "1"],
     "integrability supports degrees 2 to 4, not n = 1"),
    (["verify", "--suite", "all", "--n", "1"],
     "comparison supports degrees 2 to 4, not n = 1"),
])
def test_degree_below_the_table_refused_before_building(monkeypatch, capsys,
                                                        argv, err):
    # every command and suite reads its degrees from elements.DEGREES
    def no_build(*args, **kwargs):
        raise AssertionError("build_element called for a refused degree")

    monkeypatch.setattr(elements, "build_element", no_build)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("mode, builds", [("mod2", 1), ("strict", 2)])
def test_verify_builds_each_element_once(monkeypatch, capsys, mode, builds):
    # comparison, scale and integrability share one element per degree
    # and sign setting; the relations suite builds its own on other labels
    calls = []

    def counting(*args, **kwargs):
        if kwargs.get("labels") is None:
            calls.append((args, kwargs.get("signed")))
        return build_element(*args, **kwargs)

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


@pytest.mark.parametrize("points", ["0", "-2"])
def test_verify_refuses_an_empty_integrability_sample(points):
    # no point at all would pass the mutated element
    proc = run_cli("verify", "--suite", "integrability", "--n", "3",
                   "--points", points, "--mutate")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: integrability needs at least one point, not {points}\n")


def test_verify_mutate_fails_the_degree_4_scale_suite():
    proc = run_cli("verify", "--suite", "scale", "--n", "4", "--mutate")
    assert proc.returncode == 1
    (report,) = json.loads(proc.stdout)["reports"]
    assert report["status"] == "fail"
    assert report["details"]["failing_labels"]
    assert report["residue_terms"]


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
    # with no subdivision allowed, one panel of d log z from z = 0.02
    # cannot meet the tolerance; the value is still printed, flagged, and
    # the exit code says it did not converge
    monkeypatch.setattr(iterint, "MAX_DEPTH", 0)
    word = json.dumps([[[1, "D[1]"]]])
    word_path = write_path(tmp_path, PathSpec.line([[0.02]], [[3.0]]))
    element_file = tmp_path / "element.json"
    element_file.write_text(json.dumps(build_element(1).tensor.to_json_dict()),
                            encoding="utf-8")
    element_path = write_path(tmp_path, PathSpec.line([[0.02], [0.04]],
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


@pytest.mark.parametrize("bad, literal", [(math.nan, "NaN"),
                                          (-math.inf, "-Infinity")])
def test_integrate_non_finite_path_is_a_path_error(tmp_path, bad, literal):
    # a non-finite coefficient is refused when the path is read, not
    # after the whole panel budget is spent on it
    payload = PathSpec.line([[1.0]], [[3.0]]).to_json_dict()
    payload["segments"][0]["coeffs"][1][0][0][1] = bad
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(payload), encoding="utf-8")
    assert literal in path_file.read_text(encoding="utf-8")
    proc = run_cli("integrate", "--word", json.dumps([[[1, "D[1]"]]]),
                   "--path", str(path_file))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "path error: segment coefficients must be finite\n")


def test_integrate_malformed_path_is_a_path_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    proc = run_cli("integrate", "--word", json.dumps([[[1, "D[1]"]]]),
                   "--path", str(bad))
    assert proc.returncode == 2
    assert "path error" in proc.stderr


def test_integrate_payloads_that_are_not_json(tmp_path):
    # a path that is not JSON is a malformed path (exit 2); an element or
    # word that is not JSON is a malformed spec (exit 1); neither escapes
    # as a traceback
    not_json = tmp_path / "not.json"
    not_json.write_text("not json", encoding="utf-8")
    not_utf8 = tmp_path / "bytes.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    path_file = write_path(tmp_path, PathSpec.line([[1.0]], [[3.0]]))
    word = json.dumps([[[1, "D[1]"]]])
    cases = [
        (["--word", word, "--path", str(not_json)], 2,
         "path error: the path is not JSON"),
        (["--word", word, "--path", os.devnull], 2,
         "path error: the path is not JSON"),
        (["--word", word, "--path", str(not_utf8)], 2,
         "path error: the path is not JSON"),
        (["--element", str(not_json), "--path", path_file], 1,
         "error: the element is not JSON"),
        (["--word", "not json", "--path", path_file], 1,
         "error: the word spec is not JSON"),
    ]
    for args, code, message in cases:
        proc = run_cli("integrate", *args)
        assert proc.returncode == code, args
        assert proc.stdout == ""
        assert proc.stderr.startswith(message), proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("word, extra, message", [
    ([[[1, "D[1]"]]], ["--tol", "nan"], "tolerance nan is not finite"),
    ([[[1, "D[1]"]]], ["--tol", "inf"], "tolerance inf is not finite"),
    ([[[1, "D[1]"]]], ["--budget", "0"], "panel budget 0 is below one panel"),
    ([[[math.nan, "D[1]"]]], [], "letter coefficient nan is not finite"),
    ([[[1, "D[1]"]]], ["--tol", "-1"], "tolerance -1.0 is negative"),
])
def test_integrate_refuses_non_finite_controls_and_coefficients(
        tmp_path, capsys, word, extra, message):
    # before, NaN spent the whole panel budget (exit 4), an infinite
    # tolerance printed a one-panel value (exit 0), a zero budget was
    # reported as exhausted (exit 4) and a negative tolerance ran as 0
    path_file = write_path(tmp_path, PathSpec.line([[1.0]], [[3.0]]))
    code = cli.main(["integrate", "--word", json.dumps(word),
                     "--path", path_file, *extra])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_integrate_budget_exit_code(tmp_path):
    path_file = write_path(tmp_path, PathSpec.line([[1.0]], [[3.0]]))
    word = json.dumps([[[1, "D[1]"]], [[1, "D[1]"]], [[1, "D[1]"]]])
    proc = run_cli("integrate", "--word", word, "--path", path_file,
                   "--budget", "2", "--tol", "1e-14")
    assert proc.returncode == 4
    assert "budget error" in proc.stderr


def test_mpmath_never_loads():
    """The library evaluates every dilogarithm itself, so mpmath never
    loads; numpy loads when the numeric engine first runs, and the exact
    commands, the real tables and the dilogarithm functions do not load
    it.  No step loads `dataclasses` (its third column stays at its
    start value, so an interpreter whose start-up imports it passes)."""
    commands = [["element", "--n", "2"],
                ["verify", "--suite", "comparison", "--n", "2"],
                ["table", "--function", "rogers", "--grid=-1:2:7"],
                ["table", "--function", "bloch_wigner",
                 "--grid=0.1:0.9:3,0.5:1:2"],
                ["table", "--function", "l2g", "--grid=0.1:0.9:3"]]
    code = (
        "import contextlib, io, sys\n"
        "def loaded(step):\n"
        # a lazily loaded numpy registers `numpy` alone until first used
        "    numpy = any(name.startswith('numpy.') for name in sys.modules)\n"
        "    print(step, 'mpmath' in sys.modules, numpy,\n"
        "          'dataclasses' in sys.modules)\n"
        "loaded('start')\n"
        "import grasspoly\n"
        "loaded('grasspoly')\n"
        "import grasspoly.cli\n"
        "loaded('cli')\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert grasspoly.cli.main(argv) == 0, argv\n"
        "    loaded(argv[0] + '_' + argv[2])\n"
        "grasspoly.li2(3 + 0.5j)\n"
        "loaded('li2')\n"
        "grasspoly.bloch_wigner_five_term([0, 1, 2j, 3 + 1j, -1 - 2j])\n"
        "loaded('bloch_wigner_five_term')\n"
        "grasspoly.rogers_five_term([0, 1, 3, 4, 6])\n"
        "loaded('rogers_five_term')\n"
        "grasspoly.li_n(2, 0.5)\n"
        "loaded('li_n')\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    steps = [line.rsplit(" ", 1) for line in proc.stdout.splitlines()]
    assert [line for line, _ in steps] == [
        "start False False", "grasspoly False False", "cli False False",
        "element_2 False False", "verify_comparison False False",
        "table_rogers False False", "table_bloch_wigner False False",
        "table_l2g False False", "li2 False False",
        "bloch_wigner_five_term False False",
        "rogers_five_term False False", "li_n False True"]
    assert {dataclasses for _, dataclasses in steps} == {steps[0][1]}


def test_import_registers_every_traced_layer():
    """The benchmark's tracer finds each layer it wraps in sys.modules after
    `import grasspoly` alone."""
    spans = (Path(__file__).resolve().parent.parent / "perfbench"
             / "spans.py")
    layers, = (ast.literal_eval(node.value)
               for node in ast.parse(spans.read_text(encoding="utf-8")).body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["LAYERS"])
    code = ("import sys, grasspoly\n"
            "print(*sorted(name for name in sys.modules\n"
            "              if name.startswith('grasspoly.')))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(layers) == 7
    assert {f"grasspoly.{layer}" for layer in layers} <= set(
        proc.stdout.split())


@pytest.mark.parametrize("argv, ran", [
    (["element", "--n", "2"], "elements tensors"),
    (["verify", "--suite", "comparison", "--n", "2"],
     "aomoto elements tensors"),
    (["table", "--function", "rogers", "--grid=-1:2:7"],
     "configurations iterint polylogs tensors"),
    (["integrate", "--word", json.dumps([[[1, "D[1]"]]]), "--path", None],
     "configurations iterint tensors"),
    (["verify", "--suite", "deltar"], "elements tensors"),
])
def test_each_command_runs_only_its_layers(tmp_path, argv, ran):
    """A command runs the layer modules it uses and no other.  A module
    that has not run is still the lazily loading subclass of ModuleType;
    type() reads that without the attribute access that would run it."""
    path_file = write_path(tmp_path, PathSpec.line([[1.0]], [[3.0]]))
    argv = [path_file if arg is None else arg for arg in argv]
    code = (
        "import contextlib, io, sys, types\n"
        "import grasspoly.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert grasspoly.cli.main({argv!r}) == 0\n"
        f"layers = {sorted(grasspoly._EXPORTS)!r}\n"
        "print(*(m for m in layers if m != 'errors' and type(\n"
        "    sys.modules['grasspoly.' + m]) is types.ModuleType))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ran.split()


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


@pytest.mark.parametrize("fn, grid, refused", [
    ("li1", "--grid=0.5:1:2", 1.0),
])
def test_table_li_marks_refused_points(fn, grid, refused):
    proc = run_cli("table", "--function", fn, grid)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    rows = {float(line.split(",")[0]): line.split(",")[1:]
            for line in lines[1:]}
    assert len(rows) == len(lines) - 1
    assert rows[refused] == ["0.0", "nan", "nan", "nan"]
    for x, cells in rows.items():
        if x != refused:
            assert math.isfinite(float(cells[1]))


def test_table_li_at_zero_is_an_exact_zero():
    proc = run_cli("table", "--function", "li3", "--grid=-2:0:3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 4
    assert lines[-1] == "0.0,0.0,0.0,0.0,0.0"
    for line in lines[1:]:
        assert all(math.isfinite(float(cell)) for cell in line.split(","))


def test_table_li_stops_at_a_pole():
    # li2 on real z >= 1 meets the branch point on its path
    proc = run_cli("table", "--function", "li2", "--grid=0.5:1.5:3")
    assert proc.returncode == 3
    assert proc.stderr.startswith("pole error: ")


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


def test_table_l2g_marks_points_on_the_base(tmp_path):
    # grid points 0, 1 and 3 meet the base triple: their cross-ratios are
    # refused, and the rest of the table still prints
    proc = run_cli("table", "--function", "l2g", "--grid=0:3:4",
                   "--base", "0,1,3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 5
    rows = {line.split(",")[3]: line.split(",")[4:] for line in lines[1:]}
    for x in ("0.0", "1.0", "3.0"):
        assert rows[x] == ["nan", "0.0", "0.0"]
    assert math.isfinite(float(rows["2.0"][0]))


@pytest.mark.parametrize("args", [
    ("--function", "bloch_wigner", "--grid=nan:1:2,0:1:2"),
    ("--function", "bloch_wigner", "--grid=0:1:2,-inf:1:2"),
    ("--function", "li2", "--grid=nan:1:2"),
    ("--function", "rogers", "--grid=-1:inf:3"),
    ("--function", "l2g", "--grid=nan:1:2"),
])
def test_table_refuses_non_finite_grid_bounds(args):
    proc = run_cli("table", *args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: grid bounds must be finite\n"


@pytest.mark.parametrize("tol, err", [
    ("nan", "--tol must be finite"), ("inf", "--tol must be finite"),
    ("-inf", "--tol must be finite"), ("-1", "--tol must not be negative"),
], ids=["nan", "inf", "-inf", "-1"])
def test_table_li_refuses_a_non_finite_tolerance(capsys, tol, err):
    # the whole table is refused, not each point as a nan row; before, a
    # negative tolerance printed the table of tolerance 0
    code = cli.main(["table", "--function", "li2", "--grid=0.1:0.9:3",
                     f"--tol={tol}"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err == f"error: {err}\n"


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


BAD_ELEMENT_TERMS = {
    "coeff": {"coeff": "x", "slots": [["D[1]"]]},
    "slot": {"coeff": 1, "slots": [["D[1,x]"]]},
    "no-slots": {"coeff": 1},
    "true-coeff": {"coeff": True, "slots": [["D[1]"]]},
}
BAD_ELEMENT_ARITIES = {"true-arity": True, "float-arity": 1.7}


@pytest.mark.parametrize("argv", [
    ["table", "--function", "li2", "--grid", "a:1:3"],
    ["table", "--function", "bloch_wigner", "--grid", "0:1:2,0:1:x"],
    ["table", "--function", "rogers", "--grid", "0:1:2.5"],
    ["table", "--function", "l2g", "--grid", "0:1:3", "--base", "x,1,3"],
    ["table", "--function", "l2g", "--grid", "0:1:3", "--base", "1/0,1,3"],
    ["integrate", "--word", '[[["1/0", "D[1]"]]]'],
    ["integrate", "--word", '[[["x", "D[1]"]]]'],
    ["integrate", "--word", '[[[["a", 1], "D[1]"]]]'],
    ["integrate", "--word", '[[[1, "D[1,x]"]]]'],
    ["integrate", "--word", "[[[1, 5]]]"],
    ["integrate", "--word", '[[[true, "D[1]"]]]'],
    ["integrate", "--word", '[[[[true, 0], "D[1]"]]]'],
    ["integrate", "--element", "coeff"],
    ["integrate", "--element", "slot"],
    ["integrate", "--element", "no-slots"],
    ["integrate", "--element", "true-coeff"],
    ["integrate", "--element", "true-arity"],
    ["integrate", "--element", "float-arity"],
], ids=lambda argv: " ".join(argv[1:]))
def test_malformed_input_is_one_error_line(tmp_path, argv):
    # each of these printed a traceback (ValueError, ZeroDivisionError,
    # AttributeError or KeyError) instead of a malformed-spec error; a
    # JSON true coefficient was read as 1, and the value printed, and an
    # arity true or 1.7 was read as 1
    if argv[0] == "integrate":
        if argv[1] == "--element":
            bad = argv[2]
            payload = ({"arity": BAD_ELEMENT_ARITIES[bad],
                        "terms": [{"coeff": 1, "slots": [["D[1]"]]}]}
                       if bad in BAD_ELEMENT_ARITIES else
                       {"arity": 1, "terms": [BAD_ELEMENT_TERMS[bad]]})
            element = tmp_path / "element.json"
            element.write_text(json.dumps(payload), encoding="utf-8")
            argv = argv[:2] + [str(element)]
        argv = argv + ["--path",
                       write_path(tmp_path, PathSpec.line([[1.0]], [[3.0]]))]
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("option, symbol", [
    ("--word", "D[1,2"), ("--word", "D [1,2]"), ("--word", "[1,4]"),
    ("--element", "D[1,4"), ("--word", "a"),
    ("--word", "D[1,,2]"), ("--word", "D[1,2,]"), ("--word", "D[,1]"),
    ("--element", "D[1,,2]"),
])
def test_malformed_bracket_text_is_refused(tmp_path, option, symbol):
    # each malformed bracket was read as a scalar letter, whose d log is 0,
    # so the command printed the value [0.0, 0.0] and exited 0; a scalar
    # label still integrates to that 0.  A bracket with an empty label was
    # read without it, so D[1,,2] printed the value of D[1,2] and exited 0
    letter = json.dumps([[[1, symbol]]])
    if option == "--element":
        spec = tmp_path / "element.json"
        spec.write_text(json.dumps({"arity": 1, "terms": [
            {"coeff": 1, "slots": [[symbol]]}]}), encoding="utf-8")
        letter = str(spec)
    path = PathSpec.line([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]],
                         [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [3.0, 1.0]])
    proc = run_cli("integrate", option, letter,
                   "--path", write_path(tmp_path, path))
    if symbol == "a":
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == [0.0, 0.0]
        return
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "malformed bracket" in proc.stderr


@pytest.mark.parametrize("coeff", [True, False, [True, 0], [0, False]])
def test_word_spec_refuses_boolean_coefficients(coeff):
    # JSON true and false are the Python ints 1 and 0, and were read so
    with pytest.raises(ContractViolation, match="bad letter coefficient"):
        cli._parse_word_spec([[[coeff, "D[1]"]]])


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
     "d4a7a902521eb50e13bce5c33019b60506a90206387845e1e1039d19966f5d2d"),
    (("verify", "--suite", "all", "--n", "2", "--mutate"), 1,
     "0df41ea0b5c65b8fcb7e74cc8baf4809cf7d17e9c24c23914eeb97f61ee30178"),
    (("verify", "--suite", "integrability", "--n", "3", "--mutate",
      "--seed", "0"), 1,
     "c81d40782a3193df672a24beabfdd27c4b1e5d6f7b978c01135b0f1ec3706528"),
    (("table", "--function", "rogers", "--grid=-1:2:7"), 0,
     "ab21cc7f1f4ec83a3ea89285c0a10ec0a418d8315c3c4c4da02efbbd4498f4f7"),
    (("table", "--function", "bloch_wigner", "--grid=-1:1:3,-1:1:3"), 0,
     "49131f849c5f2029c1c5baf43cc7f7d219b2a8e64ce121606d3a748c4c1828f1"),
    (("table", "--function", "l2g", "--grid=0:3:4"), 0,
     "3bd795a58d61f2896e35fb4561cb73a2efee52640b440ce9fdc691d77dc49303"),
]


@pytest.mark.parametrize("args, code, digest", PINNED,
                         ids=[" ".join(p[0]) for p in PINNED])
def test_output_bytes_are_pinned(args, code, digest):
    proc = run_cli(*args)
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, code, digest", [PINNED[3], PINNED[-1]],
                         ids=["verify", "table"])
def test_out_file_bytes_are_pinned(tmp_path, args, code, digest):
    # JSON and CSV reach an --out file through the same writer as stdout
    out = tmp_path / "out"
    proc = run_cli(*args, "--out", str(out))
    assert proc.returncode == code
    assert proc.stdout == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
