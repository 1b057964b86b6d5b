"""conekit benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload session --seed 1 --seconds 35 --trace 0

Run from a checkout; the package is used from ``src`` without installing.
Each run starts ``bench/workloads.py``, which makes the measured iterations
(closed loop, one client, sequential) and, between them, times the
workload's set-up in separate cold processes.  The last line of standard output is the result
object: ``--trace 0`` gives the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones.  The lines before it print every metric
with its median, tail percentile and sample count, and the full record is
written to ``.bench-out/``.

Claims are re-checked on HELD_OUT_SEED, a seed not used while writing them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench-out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 4099
DEADLINE_S = 170.0
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail(values: list[float]):
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    s = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * len(s))
        if len(s) - rank >= 10:
            return p, s[rank - 1]
    return None


def describe(name: str, values: list[float], unit: str) -> str:
    text = f"{name:<18} {statistics.median(values):.6g} {unit} median"
    t = tail(values)
    if t:
        text += f", p{t[0]:g} {t[1]:.6g} {unit}"
    return text + f", n={len(values)}"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread per process keeps the load within nproc
    env.update({k: "1" for k in BLAS_THREADS})
    # every process compiles conekit afresh, so no stale bytecode cache shifts set-up time
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group and kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise RuntimeError(f"timed out: {' '.join(cmd)}\n{err[-2000:]}")
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {' '.join(cmd)}\n{err[-4000:]}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def git_provenance() -> dict:
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env, timeout=30).stdout.strip()
    return {"revision": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, to check the harness in seconds")
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed non-negative")
    if not (ROOT / "src" / "conekit" / "__init__.py").is_file():
        print(f"error: no conekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    worker = [sys.executable, str(ROOT / "bench" / "workloads.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    worker += ["--smoke"] if args.smoke else []
    try:
        proc = run_child(worker, child_env(), DEADLINE_S)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    samples = res["samples"]
    setup = res.get("setup", [])
    failed = len(res["failures"])
    attempted = max(res["attempted"], 1)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}, {res['iterations']} iterations, params {res['params']}")
    for name, values in samples.items():
        print(describe(name, values, "s"))
    if setup:
        print(describe("setup_s", setup, "s"))
    print(f"{'peak_rss_mb':<18} {peak_rss_mb:.1f} MiB")
    print(f"{'failed_frac':<18} {failed / attempted:.6g} ({failed} failed of {attempted})")
    for failure in res["failures"]:
        print(f"FAILED {failure}")

    if args.trace:
        layers = res["layers"]
        values = {m["name"]: (layers.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
        print(f"tracing overhead {layers['trace.overhead_s']:.6g} s per iteration "
              f"({res['traced_iterations']} traced); spans in {res['spans_file']}")
        if res["missing_targets"]:
            print(f"WARNING: not traced, names missing: {res['missing_targets']}")
        for name, (value, unit) in values.items():
            print(f"  {name:<34} {value:.6g} {unit}")
    else:
        primary = samples.get(res["primary"], [float("nan")])
        values = {"setup_s": (statistics.median(setup), "s"),
                  "iteration_s": (statistics.median(primary), "s"),
                  "peak_rss_mb": (peak_rss_mb, "MiB")}
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke, setup_samples=setup,
                  worker=res, nproc=os.cpu_count(),
                  affinity=len(os.sched_getaffinity(0)),
                  blas_env={k: child_env()[k] for k in BLAS_THREADS},
                  outer_blas_env={k: os.environ.get(k) for k in BLAS_THREADS},
                  git=git_provenance())
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"provenance: git {record['git']}, nproc {record['nproc']}, "
          f"versions {res['versions']}, blas {record['blas_env']}; record in "
          f"{path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
