"""Benchmark worker: runs one workload in this process and prints one JSON result.

    PYTHONPATH=src python3 bench/workloads.py --workload certify --seed 1 --seconds 20

``bench/run.py`` starts it and adds set-up time, peak memory and
provenance.  Every iteration of a run gets the same inputs, made from
``--seed``; each operation is checked against an independent ground truth
and fingerprinted, and a fingerprint that changes between iterations is a
failure.  ``--trace 1`` alternates untraced and traced iterations and
reports per-layer metrics from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench-out"
# Relative to ROOT, so the paths the CLI prints are the same in every run.
WORKDIR = ".bench-out/work"
SETUP_PROBES = 8

PARAMS = {
    "session": {
        "full": {"verify": [], "collapse": []},
        "smoke": {"verify": ["--grid", "64"],
                  "collapse": ["--n", "120", "--eps", "1,0.5"]},
    },
    "certify": {
        "full": {"region_grid": 1024, "nonneg_grid": 4096,
                 "negative_grid": 1024, "oracle_pairs": 1000},
        "smoke": {"region_grid": 64, "nonneg_grid": 256,
                  "negative_grid": 64, "oracle_pairs": 20},
    },
    "metric_space": {
        "full": {"sphere_n": 3000, "annulus_n": 400},
        "smoke": {"sphere_n": 600, "annulus_n": 100},
    },
}

ARTIFACTS = {
    "build-profile": ("profile.json", "smoothness.csv"),
    "verify": ("verification.csv", "ricci_curve.csv"),
    "collapse": ("collapse.csv",),
    "obstruction": (),
}


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _artifact_sha(path: Path) -> str:
    """sha256 of a CLI artifact without its ``# generated`` timestamp lines."""
    lines = path.read_bytes().splitlines(keepends=True)
    return _sha(b"".join(ln for ln in lines if not ln.startswith(b"# generated")))


def _plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# session: the README's four commands
# ---------------------------------------------------------------------------

def _session_commands(seed: int, p: dict) -> list:
    return [
        ("build-profile", ["build-profile", "--out", WORKDIR]),
        ("verify", ["verify", "--profile", f"{WORKDIR}/profile.json",
                    "--out", WORKDIR, *p["verify"]]),
        ("collapse", ["collapse", "--out", WORKDIR, "--seed", str(seed),
                      *p["collapse"]]),
        ("obstruction", ["obstruction"]),
    ]


def _cli_subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "conekit.cli", *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def _cli_inprocess(argv):
    from conekit import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def _check_command(name: str, rc, stdout: str) -> tuple[bool, str]:
    if rc != 0:
        return False, f"exit code {rc}"
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if name == "verify":
        bad = [ln for ln in lines if not ln.startswith("PASS ")]
        if bad or len(lines) != 5:
            return False, f"verify output not 5 PASS lines: {lines}"
    if name == "collapse":
        text = (ROOT / WORKDIR / "collapse.csv").read_text().splitlines()
        rows = [[float(v) for v in ln.split(",")] for ln in text[2:] if ln.strip()]
        gh = [r[1] for r in rows]
        diam = [r[2] for r in rows]
        increases = sum(1 for a, b in zip(gh, gh[1:]) if b > a)
        ratio = max(diam) / min(diam)
        if increases > 1 or ratio > 1.2:
            return False, f"gh increases {increases}, diameter ratio {ratio}"
    if name == "obstruction":
        # Q8: chi = 1, tau = 0, |G| = 8, |eta| = 3/4
        lhs = 2 * (1 - Fraction(1, 8))
        rhs = 3 * abs(0 + Fraction(3, 4))
        want = f"{lhs} < {rhs}: contradiction reproduced"
        q8 = [ln for ln in lines if ln.startswith("Q8 ")]
        if len(q8) != 1 or want not in q8[0]:
            return False, f"Q8 line {q8} lacks {want!r}"
    return True, ""


def session_setup(inprocess: bool):
    return {"run": _cli_inprocess if inprocess else _cli_subprocess}


def session_iteration(fix, seed, p, call):
    work = ROOT / WORKDIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    times, ops = {}, {}
    t0 = time.perf_counter()
    for name, argv in _session_commands(seed, p):
        t = time.perf_counter()
        rc, stdout = call(f"cli.{name.replace('-', '_')}", fix["run"], argv)
        times[f"{name.replace('-', '_')}_s"] = time.perf_counter() - t
        ok, detail = _check_command(name, rc, stdout)
        fps = {f"{name}.stdout": _sha(stdout.encode())}
        for art in ARTIFACTS[name]:
            path = work / art
            fps[art] = _artifact_sha(path) if path.exists() else "missing"
        ops[name] = (ok, detail, fps)
    times["session_s"] = time.perf_counter() - t0
    return times, ops


# ---------------------------------------------------------------------------
# certify: profile build, region certificates, negative control, oracle
# ---------------------------------------------------------------------------

def certify_setup(inprocess: bool):
    return {}  # every iteration builds its own profile


def _report_sha(report) -> str:
    return _sha(json.dumps(report.to_dict(), sort_keys=True).encode())


def certify_iteration(fix, seed, p, call):
    import numpy as np
    from conekit import bump, frame, profiles, verify
    t0 = time.perf_counter()
    profile = bump.build_profile()
    regions = [verify.verify_region(profile, reg, n_grid=p["region_grid"], tol=1e-9)
               for reg in verify.standard_regions(profile, 3.0)]
    sweep = verify.verify_nonneg(profile, r_max=3.0, n_grid=p["nonneg_grid"], tol=1e-9)
    negative = verify.verify_nonneg(verify.negative_control(profile), r_max=3.0,
                                    n_grid=p["negative_grid"])
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(p["oracle_pairs"]):
        pair = profiles.random_smooth_profile(rng)
        r = rng.uniform(0.3, 3.0)
        closed = frame.ricci_diag(pair, r).as_array()
        _, oracle = frame.curvature_from_forms(pair, r, h=1e-5, check_step=False)
        gap = np.abs(oracle.as_array() - closed) - (1e-9 + 1e-6 * np.abs(closed))
        worst = max(worst, float(gap.max()))
    times = {"certify_s": time.perf_counter() - t0}

    constants = repr((profile.r1, profile.delta, profile.neck_slope))
    ops = {"build_profile": (True, "", {"profile": _sha(constants.encode())})}
    for rep in [*regions, sweep]:
        ops[rep.label] = (rep.passed, "" if rep.passed else rep.describe(),
                          {rep.label: _report_sha(rep)})
    least = min(negative.minima.values())
    ops["negative_control"] = (not negative.passed and least < -0.1,
                               f"least entry {least}",
                               {"negative_control": _report_sha(negative)})
    ops["oracle"] = (worst <= 0.0, f"worst tolerance slack {worst}",
                     {"oracle": _sha(repr(worst).encode())})
    return times, ops


# ---------------------------------------------------------------------------
# metric_space: the acceptance metric-space suite at full size
# ---------------------------------------------------------------------------

def metric_space_setup(inprocess: bool):
    from conekit import bump, profiles
    return {"round": profiles.round_profile(), "annulus_profile": bump.build_profile(0.05)}


def metric_space_iteration(fix, seed, p, call):
    import numpy as np
    from conekit import spaces
    t0 = time.perf_counter()
    sphere = spaces.sample_sphere(fix["round"], 1.0, p["sphere_n"], seed, group="trivial")
    sphere_axioms = sphere.metric_axioms_report()
    diam = sphere.diameter()
    annulus = spaces.sample_annulus(fix["annulus_profile"], 1.0, 4.0, p["annulus_n"], seed)
    annulus_axioms = annulus.metric_axioms_report()
    times = {"metric_space_s": time.perf_counter() - t0}
    # the unit round 3-sphere has diameter pi
    sphere_ok = sphere_axioms["ok"] and abs(diam - np.pi) <= 0.05 * np.pi
    ops = {
        "sphere": (sphere_ok, f"diameter {diam}, axioms {sphere_axioms}",
                   {"sphere.dist": _sha(sphere.dist.data),
                    "sphere.diameter": _sha(repr(diam).encode())}),
        "annulus": (annulus_axioms["ok"], f"axioms {annulus_axioms}",
                    {"annulus.dist": _sha(annulus.dist.data)}),
    }
    return times, ops


WORKLOADS = {
    "session": (session_setup, session_iteration, "session_s"),
    "certify": (certify_setup, certify_iteration, "certify_s"),
    "metric_space": (metric_space_setup, metric_space_iteration, "metric_space_s"),
}


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------

class Run:
    """Timings, operation counts and fingerprints of the iterations so far."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, str] = {}

    def record(self, label: str, times: dict, ops: dict) -> None:
        for key, value in times.items():
            self.samples.setdefault(key, []).append(value)
        for op, (ok, detail, fps) in ops.items():
            self.attempted += 1
            drift = [k for k, v in fps.items()
                     if self.fingerprints.setdefault(k, v) != v]
            if not ok or drift:
                self.failures.append(f"{label} {op}: {detail}"
                                     + (f" fingerprint drift {drift}" if drift else ""))

    def loop(self, label, seconds, iterate, between=None, minimum=1) -> int:
        """Run ``iterate`` while another one fits in ``seconds`` of iteration time.

        At least ``minimum`` iterations run.  ``between(busy)`` runs after
        each iteration and is not counted in ``busy``, the iteration time so far.
        """
        count, busy, last = 0, 0.0, 0.0
        while count < minimum or busy + last <= seconds:
            count += 1
            t = time.perf_counter()
            try:
                times, ops = iterate()
            except Exception:
                self.attempted += 1
                self.failures.append(f"{label} iteration {count}: "
                                     + traceback.format_exc(limit=3))
            else:
                self.record(f"{label} {count}", times, ops)
            last = time.perf_counter() - t
            busy += last
            if between is not None:
                between(busy)
        return count


class SetupProbes:
    """Cold processes that only do the workload's set-up, spread over the run.

    Spreading them in time lets their median see the same machine states as
    the iterations do.
    """

    def __init__(self, cmd: list[str], count: int, seconds: float):
        self.cmd, self.count, self.seconds = cmd, count, seconds
        self.samples: list[float] = []

    def _probe(self) -> None:
        t = time.perf_counter()
        # with pipes, run() waits on them; without, its timed wait polls in 50 ms steps
        subprocess.run(self.cmd, cwd=ROOT, check=True, timeout=120, capture_output=True)
        self.samples.append(time.perf_counter() - t)

    def due(self, elapsed: float) -> None:
        if (len(self.samples) < self.count
                and elapsed >= len(self.samples) * self.seconds / self.count):
            self._probe()

    def finish(self) -> list[float]:
        while len(self.samples) < self.count:
            self._probe()
        return self.samples


def _versions() -> dict:
    out = {"python": sys.version.split()[0]}
    out.update((mod, __import__(mod).__version__) for mod in ("numpy", "scipy"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="do the workload's set-up and exit")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    setup, iteration, primary = WORKLOADS[args.workload]
    p = PARAMS[args.workload]["smoke" if args.smoke else "full"]
    inprocess = bool(args.trace) or args.workload != "session"

    import_s = None
    if inprocess:
        t = time.perf_counter()
        import conekit.cli  # noqa: F401
        import_s = time.perf_counter() - t
    scipy_sparse_loaded = int("scipy.sparse" in sys.modules)
    fix = setup(inprocess)
    if args.setup_only:
        return 0

    run = Run()
    result = {"params": p, "primary": primary}
    if not args.trace:
        if args.workload == "session":
            cmd = [sys.executable, "-c", "import conekit.cli"]
        else:
            cmd = [sys.executable, __file__, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
            cmd += ["--smoke"] if args.smoke else []
        probes = SetupProbes(cmd, 2 if args.smoke else SETUP_PROBES, args.seconds)
        result["iterations"] = run.loop(
            "untraced", args.seconds,
            lambda: iteration(fix, args.seed, p, _plain_call), probes.due)
        result["setup"] = probes.finish()
    else:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        traced_flags = []

        def alternate():
            # untraced and traced iterations alternate, so both see the same machine states
            traced = len(traced_flags) % 2 == 1
            if traced:
                tracer.install()
            try:
                out = iteration(fix, args.seed, p, tracer.span if traced else _plain_call)
            finally:
                tracer.uninstall()
            traced_flags.append(traced)
            return out

        count = run.loop("trace", args.seconds, alternate, minimum=2)
        times = run.samples.get(primary, [])
        untraced = [t for t, f in zip(times, traced_flags) if not f]
        traced = [t for t, f in zip(times, traced_flags) if f]
        layers = layer_metrics(tracer, max(len(traced), 1))
        layers["conekit.import_s"] = import_s
        layers["conekit.scipy_sparse_loaded"] = scipy_sparse_loaded
        layers["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)
                                      if traced and untraced else float("nan"))
        result.update(iterations=count, traced_iterations=len(traced),
                      layers=layers, missing_targets=tracer.missing)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans, "counts": tracer.counts}, fh)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    shutil.rmtree(ROOT / WORKDIR, ignore_errors=True)
    result.update(samples=run.samples, attempted=run.attempted,
                  failures=run.failures, fingerprints=run.fingerprints,
                  versions=_versions())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
