"""CLI subcommands, exit codes, and output determinism."""

import csv
import json
import os
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
    assert (built / "profile.json").exists()
    assert (built / "smoothness.csv").exists()
    doc = json.loads((built / "profile.json").read_text())
    assert doc["format"] == "conekit-profile"


def test_build_profile_infeasible_mass(tmp_path, capsys):
    code = main(["build-profile", "--out", str(tmp_path), "--mass", "20"])
    assert code == 1
    assert "mass" in capsys.readouterr().err


def test_build_profile_missing_out_dir(tmp_path):
    code = main(["build-profile", "--out", str(tmp_path / "absent")])
    assert code == 2


@pytest.mark.parametrize("value", ["0", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--neck-slope", "--mass"])
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
    ["verify", "--profile", "profile.json", "--seed", "3"],
    ["verify", "--profile", "profile.json", "--neck-slope", "0.5"],
    ["collapse", "--tol", "1e-9"],
    ["collapse", "--grid", "1024"],
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


def test_verify_tampered_profile_is_a_construction_failure(built, tmp_path, capsys):
    def edit(doc):
        doc["rho"][10] += 0.01

    path, out = _edited_profile(built, tmp_path, edit)
    code = main(["verify", "--profile", str(path), "--out", str(out)])
    assert code == 1
    assert "construction failed: stored rho samples" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_verify_unknown_profile_version_is_an_input_error(built, tmp_path, capsys):
    path, out = _edited_profile(built, tmp_path, lambda doc: doc.update(version=7))
    code = main(["verify", "--profile", str(path), "--out", str(out)])
    assert code == 2
    assert "unrecognized profile document" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("edit, key", [
    (lambda doc: doc.pop("grid"), "grid"),
    (lambda doc: doc["construction"].update(bogus=1.0), "bogus"),
    (lambda doc: doc["construction"].update(order="24"), "order"),
], ids=["missing-grid", "extra-construction-key", "string-order"])
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
                 "--out", str(tmp_path), "--grid", "256", "--format", "json"])
    assert code == 0
    reports = json.loads((tmp_path / "verification.json").read_text())
    assert len(reports) == 5
    assert all(rep["passed"] for rep in reports)


def test_collapse_table(tmp_path, capsys):
    code = main(["collapse", "--out", str(tmp_path), "--eps", "1,0.5",
                 "--n", "150", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "gh_bound column" in out
    lines = (tmp_path / "collapse.csv").read_text().splitlines()
    assert lines[1] == "eps,gh_bound,diameter"
    assert len(lines) == 4


def test_collapse_single_eps(tmp_path):
    code = main(["collapse", "--out", str(tmp_path), "--eps", "1",
                 "--n", "120"])
    assert code == 0
    assert len((tmp_path / "collapse.csv").read_text().splitlines()) == 3


def test_collapse_empty_eps(tmp_path):
    code = main(["collapse", "--out", str(tmp_path), "--eps", ","])
    assert code == 2


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
    assert run("build-profile", "--out", ".", "--mass", "20") == 1


def test_only_collapse_loads_scipy(tmp_path):
    # a fresh interpreter: build-profile, verify and obstruction run without
    # importing scipy, and collapse still imports it when it needs it
    script = f"""
import sys
from conekit.cli import main
out = {str(tmp_path)!r}
assert main(["build-profile", "--out", out]) == 0
assert main(["verify", "--profile", out + "/profile.json", "--out", out,
             "--grid", "64"]) == 0
assert main(["obstruction"]) == 0
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
    assert names == ["ricci_curve.csv", "verification.csv"]
    assert sorted(os.listdir(closed)) == names
    for name in names:
        assert (_strip_timestamps((closed / name).read_text())
                == _strip_timestamps((normal / name).read_text()))
