"""CLI subcommands, exit codes, and output determinism."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conekit.bump import load_profile
from conekit.cli import main
from conekit.frame import ricci_curve


def _src_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _strip_timestamps(text):
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("#"))


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("build")
    code = main(["build-profile", "--out", str(out)])
    assert code == 0
    return out


def test_build_profile_writes_artifacts(built):
    assert sorted(os.listdir(built)) == ["profile.json", "smoothness.csv", "smoothness.json"]
    doc = json.loads((built / "profile.json").read_text())
    assert doc["format"] == "conekit-profile"
    (report,) = json.loads((built / "smoothness.json").read_text())
    assert report["passed"] and report["checks"]
    assert set(report) == {"label", "grid_size", "passed", "checks"}  # tolerances are per check


def test_build_profile_missing_out_dir(tmp_path):
    code = main(["build-profile", "--out", str(tmp_path / "absent")])
    assert code == 2


@pytest.mark.parametrize("value", ["0", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--neck-slope"])
def test_build_profile_rejects_nonpositive(tmp_path, capsys, flag, value):
    code = main(["build-profile", "--out", str(tmp_path), flag, value])
    assert code == 2
    assert f"{flag} must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["build-profile", "collapse"])
@pytest.mark.parametrize("slope", ["1", "2", "100"])
def test_neck_slope_at_least_one_is_a_construction_failure(tmp_path, capsys,
                                                           command, slope):
    code = main([command, "--out", str(tmp_path), "--neck-slope", slope])
    assert code == 1
    err = capsys.readouterr().err
    assert "construction failed" in err and "needs c < 1" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["build-profile", "--tol", "1e-9"],
    ["build-profile", "--grid", "1024"],
    ["build-profile", "--seed", "3"],
    ["build-profile", "--rmax", "3"],
    ["build-profile", "--mass", "4"],
    ["build-profile", "--ceiling", "64"],
    ["verify", "--profile", "profile.json", "--seed", "3"],
    ["verify", "--profile", "profile.json", "--neck-slope", "0.5"],
    ["collapse", "--tol", "1e-9"],
    ["collapse", "--grid", "1024"],
    # the CLI certifies at the library's 1e-9 and writes every table as
    # both CSV and JSON: neither is a knob
    ["verify", "--profile", "profile.json", "--tol", "0.3"],
    ["build-profile", "--format", "json"],
    ["verify", "--profile", "profile.json", "--format", "json"],
    ["collapse", "--format", "json"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_verify_default_passes(built, tmp_path, capsys):
    code = main(["verify", "--profile", str(built / "profile.json"),
                 "--out", str(tmp_path), "--grid", "256"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 5  # four regions plus the global sweep
    assert (tmp_path / "verification.csv").exists()
    assert (tmp_path / "ricci_curve.csv").exists()


def test_verify_passes_at_the_collapse_slope(tmp_path, capsys):
    # 0.05 is collapse's default slope; Part4 once failed there against a
    # bound that held only at the reference slope
    assert main(["build-profile", "--out", str(tmp_path), "--neck-slope", "0.05"]) == 0
    code = main(["verify", "--profile", str(tmp_path / "profile.json"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS Part4" in out and "FAIL" not in out


def test_verify_fails_past_the_measured_slope_range(tmp_path, capsys):
    # Ric >= 0 holds up to c = 0.177 on the sampled grids; at 0.2 Part2's
    # r22 (= r33) turns negative in the neck, and no flag can forgive it
    assert main(["build-profile", "--out", str(tmp_path), "--neck-slope", "0.2"]) == 0
    code = main(["verify", "--profile", str(tmp_path / "profile.json"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1, out
    heads = [line.split(" [")[0] for line in out.splitlines() if line.startswith("FAIL ")]
    assert heads == ["FAIL Part2", "FAIL nonnegativity sweep"], out
    for label in ("Part2", "nonnegativity sweep"):
        assert re.search(rf"^FAIL {label} .*\n  FAIL r22_min: -", out, re.M), out


def test_verify_negative_control_fails(built, tmp_path, capsys):
    code = main(["verify", "--profile", str(built / "profile.json"),
                 "--out", str(tmp_path), "--grid", "256",
                 "--negative-control"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "r22_min" in out  # the failing check is named


def test_verify_deterministic(built, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    os.mkdir(out1)
    os.mkdir(out2)
    for out in (out1, out2):
        assert main(["verify", "--profile", str(built / "profile.json"),
                     "--out", str(out), "--grid", "128"]) == 0
    for name in ("verification.csv", "ricci_curve.csv"):
        a = _strip_timestamps((out1 / name).read_text())
        b = _strip_timestamps((out2 / name).read_text())
        assert a == b


def test_verify_rejects_small_grid(built, tmp_path, capsys):
    code = main(["verify", "--profile", str(built / "profile.json"),
                 "--out", str(tmp_path), "--grid", "10"])
    assert code == 2
    assert "--grid must be at least 64" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command, flag", [("verify", "--rmax"), ("collapse", "--rmax")])
def test_tol_and_rmax_must_be_positive_and_finite(built, tmp_path, capsys, command,
                                                  flag, value):
    source = ["--profile", str(built / "profile.json")] if command == "verify" else []
    code = main([command, "--out", str(tmp_path), *source, f"{flag}={value}"])
    assert code == 2
    assert f"error: {flag} must be positive and finite" in capsys.readouterr().err.splitlines()
    assert list(tmp_path.iterdir()) == []


def test_verify_bad_profile_path(tmp_path, capsys):
    code = main(["verify", "--profile", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "No such file" in capsys.readouterr().err


def test_verification_csv_parses(built, tmp_path):
    assert main(["verify", "--profile", str(built / "profile.json"),
                 "--out", str(tmp_path), "--grid", "64"]) == 0
    with open(tmp_path / "verification.csv", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    assert header == ["report", "check", "value", "bound", "kind", "tol", "passed"]
    assert body and all(len(row) == len(header) for row in body)
    labels = {row[0] for row in body}
    assert "Part1 [1e-06, 0.1875]" in labels
    assert "nonnegativity sweep [1e-06, 3]" in labels


def _edited_profile(built, tmp_path, edit):
    doc = json.loads((built / "profile.json").read_text())
    edit(doc)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    os.mkdir(out)
    return path, out


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["rho"].__setitem__(10, doc["rho"][10] + 0.01), "stored rho samples"),
    (lambda doc: doc["rho"].__setitem__(3, float("nan")), "stored rho samples"),
    (lambda doc: doc.update(delta=float("nan")), "stored constants"),
    (lambda doc: doc.update(delta=float("inf")), "stored constants"),
    (lambda doc: doc.update(r1=float("nan")), "stored constants"),
    (lambda doc: doc.update(grid=[], rho=[], phi=[]), "stored grid"),
    (lambda doc: doc["grid"].__setitem__(3, float("nan")), "stored grid"),
    (lambda doc: doc["grid"].__setitem__(10, doc["grid"][10] + 0.01), "stored grid"),
    (lambda doc: doc.update(neck_slope=0.3), "stored constants"),
    (lambda doc: doc.update(neck_slope=float("nan")), "stored constants"),
], ids=["shifted-rho-sample", "nan-rho-sample", "nan-delta", "inf-delta", "nan-r1",
        "empty-samples", "nan-grid-entry", "shifted-grid-entry", "other-neck-slope",
        "nan-neck-slope"])
def test_verify_tampered_profile_is_a_construction_failure(built, tmp_path, capsys,
                                                            edit, message):
    # NaN fails every comparison and inf > inf is false, so each check must
    # fail unless its error is within tolerance; the samples are compared on
    # the rebuilt grid, so a tampered grid is never evaluated and warns of
    # nothing
    path, out = _edited_profile(built, tmp_path, edit)
    code = main(["verify", "--profile", str(path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"construction failed: {message} disagree")
    assert list(out.iterdir()) == []


def test_verify_unknown_profile_version_is_an_input_error(built, tmp_path, capsys):
    path, out = _edited_profile(built, tmp_path, lambda doc: doc.update(version=7))
    code = main(["verify", "--profile", str(path), "--out", str(out)])
    assert code == 2
    assert "unrecognized profile document" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("edit, key", [
    (lambda doc: doc.pop("grid"), "grid"),
    (lambda doc: doc.pop("neck_slope"), "neck_slope"),
    (lambda doc: doc.update(extra=1), "extra"),
    (lambda doc: doc["construction"].update(bogus=1.0), "bogus"),
    (lambda doc: doc["construction"].update(order="24"), "order"),
    (lambda doc: doc["construction"].update(ceiling=100.0), "ceiling"),
    (lambda doc: doc["construction"].update(neck_slope="1e-9"), "neck_slope"),
    (lambda doc: doc["construction"].update(neck_slope=float("nan")),
     "neck_slope must be positive"),
    (lambda doc: doc.update(construction=[0.05]), "'construction' is not an object"),
], ids=["missing-grid", "missing-neck-slope", "extra-key", "extra-construction-key",
        "string-order", "other-ceiling", "string-neck-slope", "nan-neck-slope",
        "list-construction"])
def test_verify_malformed_profile_is_an_input_error(built, tmp_path, capsys,
                                                    edit, key):
    path, out = _edited_profile(built, tmp_path, edit)
    code = main(["verify", "--profile", str(path), "--out", str(out)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_curve_csv(built, tmp_path):
    assert main(["verify", "--profile", str(built / "profile.json"),
                 "--out", str(tmp_path), "--grid", "64"]) == 0
    lines = (tmp_path / "ricci_curve.csv").read_text().splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1] == "r,r00,r11,r22,r33"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    radii = np.linspace(1e-6, 3.0, 64)
    assert np.array_equal(rows[:, 0], radii)
    curve = ricci_curve(load_profile(str(built / "profile.json")), radii)
    assert np.array_equal(rows[:, 1:], curve.T)


def test_verify_json_format(built, tmp_path):
    code = main(["verify", "--profile", str(built / "profile.json"),
                 "--out", str(tmp_path), "--grid", "256"])
    assert code == 0
    reports = json.loads((tmp_path / "verification.json").read_text())
    assert len(reports) == 5
    assert all(rep["passed"] for rep in reports)
    assert all(rep["grid_size"] > 256 for rep in reports)  # plus the endpoint halvings
    assert all(set(rep) == {"label", "grid_size", "passed", "checks"} for rep in reports)
    # the JSON holds every CSV row, value for value
    with open(tmp_path / "verification.csv", newline="") as fh:
        table = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    checks = [(rep["label"], c) for rep in reports for c in rep["checks"]]
    assert len(checks) == len(table)
    for (label, check), row in zip(checks, table):
        assert row == {"report": label, "check": check["name"], "value": str(check["value"]),
                       "bound": str(check["bound"]), "kind": check["kind"],
                       "tol": str(check["tol"]), "passed": str(int(check["passed"]))}


def test_collapse_table(tmp_path, capsys):
    code = main(["collapse", "--out", str(tmp_path), "--eps", "1,0.5",
                 "--n", "150", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    lines = (tmp_path / "collapse.csv").read_text().splitlines()
    assert lines[1] == "eps,gh_bound,diameter,stretch_max,stretch_mean,stretch_min"
    assert len(lines) == 4
    # the five curvature reports of verify, the collapse report, the table
    heads = [line.split(" [")[0] for line in out.splitlines()]
    assert heads == ["PASS Part1", "PASS Part2", "PASS Part3", "PASS Part4",
                     "PASS nonnegativity sweep", "PASS collapse",
                     f"table written to {tmp_path / 'collapse.csv'}"], out
    doc = json.loads((tmp_path / "collapse_checks.json").read_text())
    assert [rep["label"] for rep in doc][-1] == "collapse"
    assert [check["name"] for check in doc[-1]["checks"]] == [
        "gh_drawn/gh_bound", "stretch_min", "diameter max/min"]


def test_collapse_json_rows(tmp_path):
    code = main(["collapse", "--out", str(tmp_path), "--eps", "1,0.5",
                 "--n", "120", "--seed", "3"])
    assert code == 0
    doc = json.loads((tmp_path / "collapse.json").read_text())
    assert (doc["seed"], doc["n"]) == (3, 120)
    with open(tmp_path / "collapse.csv", newline="") as fh:
        table = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [list(row) for row in doc["rows"]] == [list(table[0])] * 2
    for row, line in zip(doc["rows"], table):
        assert row == {key: float(value) for key, value in line.items()}
        assert 1.0 <= row["stretch_min"] <= row["stretch_mean"] <= row["stretch_max"]


def test_collapse_flags_a_slope_past_the_curvature_range(tmp_path, capsys):
    # the collapse premise holds up to c = 0.26, Ric >= 0 only up to 0.177:
    # at 0.2 the run completes and writes every table, and the curvature
    # checks of its own profile fail as verify's do
    code = main(["collapse", "--out", str(tmp_path), "--neck-slope", "0.2",
                 "--n", "120", "--eps", "1,0.5"])
    out = capsys.readouterr().out
    assert code == 1, out
    heads = [line.split(" [")[0] for line in out.splitlines() if line.startswith("FAIL ")]
    assert heads == ["FAIL Part2", "FAIL nonnegativity sweep"], out
    assert "PASS collapse" in out.splitlines()
    assert sorted(os.listdir(tmp_path)) == ["collapse.csv", "collapse.json",
                                            "collapse_checks.csv", "collapse_checks.json"]


def test_collapse_and_verify_share_the_curvature_reports(built, tmp_path, capsys):
    # one implementation builds and prints the reports of both commands
    profile = str(built / "profile.json")
    (tmp_path / "v").mkdir()
    (tmp_path / "c").mkdir()
    assert main(["verify", "--profile", profile, "--rmax", "8",
                 "--out", str(tmp_path / "v")]) == 0
    verified = capsys.readouterr().out
    assert main(["collapse", "--profile", profile, "--rmax", "8", "--n", "60",
                 "--eps", "1,0.5", "--out", str(tmp_path / "c")]) == 0
    collapsed = capsys.readouterr().out
    assert collapsed.splitlines()[:5] == verified.splitlines()
    rows = _strip_timestamps((tmp_path / "c" / "collapse_checks.csv").read_text()).splitlines()
    table = _strip_timestamps((tmp_path / "v" / "verification.csv").read_text()).splitlines()
    assert rows[:len(table)] == table
    assert [row.split(",")[0] for row in rows[len(table):]] == ["collapse"] * 3


def test_collapse_tail_premise_failure_exits_2(tmp_path, capsys):
    # the premise is a closed form of the slope over the whole annulus: at
    # c = 0.3 the pairs at r_a = r_b = eps a quotient diameter apart are
    # shorter through the core (margin -0.0275 eps), whatever the draw
    code = main(["collapse", "--out", str(tmp_path), "--neck-slope", "0.3",
                 "--seed", "1"])
    assert code == 2
    assert "tail premise fails at neck slope 0.3: core-detour margin -0.0275*eps" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("eps, least, far", [("1e-300", "1e-300", "7.999999999999999e+300"),
                                             ("1e-12", "1e-12", "8000000000000.0"),
                                             ("1,1e-4", "0.0001", "80000.0")])
def test_collapse_eps_past_the_tail_identities_exits_2(tmp_path, capsys, eps, least, far):
    # at R = rmax/eps phi - 1 exceeds 1e-10 (phi(8e12) - 1 = 0.0195): the
    # table's mass is 4 - 2.22e-15, so phi has slope 2.22e-15 on the tail,
    # and the closed forms no longer describe the graph's metric
    code = main(["collapse", "--out", str(tmp_path), "--n", "50", "--eps", eps])
    assert code == 2
    err = capsys.readouterr().err
    assert f"tail identities fail at the smallest eps {least}:" in err
    assert f"R = r_outer/eps = {far}" in err
    assert list(tmp_path.iterdir()) == []


def test_collapse_eps_at_the_documented_floor(tmp_path):
    assert main(["collapse", "--out", str(tmp_path), "--n", "50", "--eps", "1,2e-4"]) == 0


def test_collapse_on_the_reference_profile(built, tmp_path):
    # at c = exp(-100) the apex shift eps*b/c is ~1e43, yet the radial term
    # survives: gh_bound is the closed form, and the graph is measured
    # against the right metric
    from conekit import spaces

    profile = load_profile(str(built / "profile.json"))
    code = main(["collapse", "--profile", str(built / "profile.json"),
                 "--out", str(tmp_path), "--n", "200", "--seed", "1"])
    assert code == 0
    with open(tmp_path / "collapse.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    c, tail = profile.neck_slope, profile.r1 + 0.25
    offset = float(profile.rho(tail)) - c * tail
    assert [float(row["eps"]) for row in rows] == [1.0, 0.5, 0.25, 0.125]
    for row in rows:
        eps = float(row["eps"])
        assert float(row["gh_bound"]) == spaces._annulus_bounds(c, offset, tail, eps)[0]
        assert float(row["stretch_mean"]) < 1.2
    assert all(rep["passed"] for rep in
               json.loads((tmp_path / "collapse_checks.json").read_text()))


@pytest.mark.parametrize("rmax", ["1.0", "0.5"])
def test_collapse_rmax_must_exceed_the_largest_eps(tmp_path, capsys, rmax):
    # at 1.0 the eps = 1 annulus [1, 1] has zero width; at 0.5 it is reversed
    code = main(["collapse", "--out", str(tmp_path), "--n", "60", "--rmax", rmax])
    assert code == 2
    assert f"r_outer = {rmax} must exceed the largest eps 1.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_collapse_negative_seed_is_an_input_error(tmp_path, capsys):
    # rejected before any scale is forked, so the exit code does not depend
    # on the number of CPUs
    code = main(["collapse", "--out", str(tmp_path), "--n", "60", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: seed = -1 is not a valid seed: expected non-negative integer\n")
    assert list(tmp_path.iterdir()) == []


def test_collapse_single_eps(tmp_path):
    code = main(["collapse", "--out", str(tmp_path), "--eps", "1",
                 "--n", "120"])
    assert code == 0
    assert len((tmp_path / "collapse.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("eps", [",", "1,,0.5", "1,0.5,"],
                         ids=["comma-only", "empty-middle", "empty-last"])
def test_collapse_empty_eps(tmp_path, capsys, eps):
    code = main(["collapse", "--out", str(tmp_path), "--eps", eps])
    assert code == 2
    assert "bad --eps list" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_collapse_profile_excludes_neck_slope(built, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["collapse", "--out", str(tmp_path), "--profile",
              str(built / "profile.json"), "--neck-slope", "0.1"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_collapse_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    os.mkdir(out1)
    os.mkdir(out2)
    for out in (out1, out2):
        assert main(["collapse", "--out", str(out), "--eps", "1,0.5",
                     "--n", "120", "--seed", "9"]) == 0
    a = _strip_timestamps((out1 / "collapse.csv").read_text())
    b = _strip_timestamps((out2 / "collapse.csv").read_text())
    assert a == b


def test_collapse_forks_after_blas_threads_start(tmp_path):
    # without the *_NUM_THREADS variables OpenBLAS starts its thread pool at
    # import, before the scales are forked; the forked workers then multiply
    # matrices, and must neither hang nor change a byte of the table
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    tables = []
    for name, threads in (("pinned", {var: "1" for var in blas}), ("unpinned", {})):
        out = tmp_path / name
        out.mkdir()
        env = {key: value for key, value in _src_env().items() if key not in blas}
        proc = subprocess.run([sys.executable, "-m", "conekit.cli", "collapse", "--out",
                               str(out), "--n", "120", "--eps", "1,0.5,0.25,0.125"],
                              env={**env, **threads}, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        tables.append(_strip_timestamps((out / "collapse.csv").read_text()))
    assert tables[0] == tables[1]


def test_curvature_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks the kernel of an OpenBLAS built with DYNAMIC_ARCH,
    # as numpy's wheels are; elsewhere it is ignored and both runs share one
    # kernel, so this only discriminates on such builds
    env = {key: value for key, value in _src_env().items() if key != "OPENBLAS_CORETYPE"}
    texts = []
    for name, kernel in (("default", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        out = tmp_path / name
        out.mkdir()
        for argv in (["build-profile", "--out", str(out)],
                     ["verify", "--profile", str(out / "profile.json"), "--out", str(out),
                      "--grid", "64"]):
            proc = subprocess.run([sys.executable, "-m", "conekit.cli", *argv],
                                  env={**env, **kernel}, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
        texts.append({file: _strip_timestamps((out / file).read_text()) for file in
                      ("profile.json", "smoothness.csv", "verification.csv", "ricci_curve.csv")})
    assert texts[0] == texts[1]


def test_collapse_table_does_not_depend_on_the_blas_kernel(tmp_path):
    # the quotient angles add their component products with numpy ufuncs, so
    # no BLAS product sets the last bits of the kNN pick or the closed forms
    env = {key: value for key, value in _src_env().items() if key != "OPENBLAS_CORETYPE"}
    tables = []
    for name, kernel in (("default", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        out = tmp_path / name
        out.mkdir()
        proc = subprocess.run([sys.executable, "-m", "conekit.cli", "collapse", "--out",
                               str(out), "--n", "200", "--seed", "1"],
                              env={**env, **kernel}, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        tables.append(_strip_timestamps((out / "collapse.csv").read_text()))
    assert tables[0] == tables[1]


def test_obstruction_default(capsys):
    assert main(["obstruction"]) == 0
    out = capsys.readouterr().out
    assert "7/4 < 9/4: contradiction reproduced" in out
    assert "BinaryIcosahedral" in out


def test_obstruction_large_chi(capsys):
    assert main(["obstruction", "--chi", "10", "--group", "Q8"]) == 0
    assert "consistent" in capsys.readouterr().out


def test_obstruction_from_betti(capsys):
    assert main(["obstruction", "--b3", "0", "--group", "Q8"]) == 0
    assert "contradiction" in capsys.readouterr().out


def test_obstruction_rejects_a_negative_b3(capsys):
    assert main(["obstruction", "--b3", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: b3 must be nonnegative and an integer, got -1\n"


@pytest.mark.parametrize("given", [["--chi", "5"], ["--tau", "2"], ["--chi", "5", "--tau", "2"]],
                         ids=["chi", "tau", "chi-tau"])
def test_obstruction_b3_excludes_chi_and_tau(capsys, given):
    assert main(["obstruction", *given, "--b3", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--b3 fixes chi and tau" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_entry_point_exit_codes(tmp_path):
    env = _src_env()

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "conekit.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120).returncode

    assert run("frobnicate") == 2
    assert run("verify", "--profile", "profile.json", "--out", ".",
               "--grid", "10") == 2
    assert run("build-profile", "--out", ".", "--neck-slope", "2") == 1


def test_only_collapse_loads_scipy(tmp_path):
    # a fresh interpreter: importing the CLI, a usage error and obstruction
    # load no numpy; build-profile and verify run without importing scipy,
    # and collapse still imports it when it needs it
    script = f"""
import sys
from conekit.cli import main
out = {str(tmp_path)!r}
assert "numpy" not in sys.modules, "importing the CLI imported numpy"
try:
    main(["frobnicate"])
except SystemExit as exc:
    assert exc.code == 2
assert main(["verify", "--profile", "profile.json", "--out", out, "--grid", "10"]) == 2
assert "numpy" not in sys.modules, "a usage error imported numpy"
assert main(["obstruction"]) == 0
assert "numpy" not in sys.modules, "obstruction imported numpy"
assert main(["build-profile", "--out", out]) == 0
assert main(["verify", "--profile", out + "/profile.json", "--out", out,
             "--grid", "64"]) == 0
assert "scipy.sparse" not in sys.modules, "scipy.sparse was imported"
assert main(["collapse", "--out", out, "--n", "120", "--eps", "1,0.5"]) == 0
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=_src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def _run_into_closed_pipe(argv, cwd, unbuffered):
    """Run the CLI with stdout a pipe whose read end is already closed."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "conekit.cli", *argv],
                              cwd=cwd, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_obstruction(tmp_path, unbuffered):
    proc = _run_into_closed_pipe(["obstruction"], tmp_path, unbuffered)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_verify_keeps_artifacts(built, tmp_path, unbuffered):
    closed, normal = tmp_path / "closed", tmp_path / "normal"
    closed.mkdir()
    normal.mkdir()
    argv = ["verify", "--profile", str(built / "profile.json"), "--grid", "64"]
    proc = _run_into_closed_pipe([*argv, "--out", str(closed)], tmp_path,
                                 unbuffered)
    assert proc.returncode == 141
    assert proc.stderr == b""
    assert main([*argv, "--out", str(normal)]) == 0
    names = sorted(os.listdir(normal))
    assert names == ["ricci_curve.csv", "verification.csv", "verification.json"]
    assert sorted(os.listdir(closed)) == names
    for name in names:
        assert (_strip_timestamps((closed / name).read_text())
                == _strip_timestamps((normal / name).read_text()))
