"""snvtune benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload stabilize_feedback --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints the per-layer metrics.  The workload runs in a fresh interpreter
(``bench/worker.py``) with ``src`` on the path and BLAS/OpenMP threads pinned
to 1 and a fixed hash seed; set-up time is measured in further fresh interpreters.  Each metric
is printed on its own line with its unit, and the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Scratch files,
the full result and the trace go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 160
SETUP_TIMEOUT_S = 30

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import snvtune
snvtune.load_default_config()
t1 = time.perf_counter()
print(t1 - t0, snvtune.__file__)
"""


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def from_checkout(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> list[float]:
    """``import snvtune`` + default config load, each in a fresh interpreter.

    One untimed start first writes the bytecode caches, which a user pays
    for once, not on every start.
    """
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                              capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        elapsed, module_file = proc.stdout.split(maxsplit=1)
        if not from_checkout(module_file.strip()):
            raise RuntimeError(f"snvtune imported from {module_file.strip()}, "
                               f"not from {SRC}")
        if i:
            times.append(float(elapsed))
    return times


def provenance() -> dict:
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, cwd=ROOT, env=env).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    h = hashlib.sha256()
    for path in sorted((SRC / "snvtune").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha or "unknown",
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def expected_names(trace: int) -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "snvtune" / "__init__.py").is_file():
        print(f"error: no snvtune sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)

    setup = [] if args.trace else measure_setup()
    result_path = OUT / f"result_{args.workload}_{args.seed}_t{args.trace}.json"
    result_path.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(HERE / "worker.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", str(result_path)],
                   env=child_env(), check=True, timeout=WORKER_TIMEOUT_S)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not from_checkout(result["snvtune_file"]):
        raise RuntimeError(f"worker imported snvtune from {result['snvtune_file']}")

    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    # error_rate is 0 when all is well, so it stays out of the gated metrics
    # (which must never be 0); the result line carries failed and attempted.
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['op_times_s'])} round(s) of {result['ops_per_round']} op(s), "
          f"versions {json.dumps(result['versions'], sort_keys=True)}")
    print(f"  {'error_rate':<40} {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted}, {result['mismatched']} not reproduced)")
    if args.workload == "stabilize_feedback":
        print(f"  {'spec_missed':<40} {result['spec_missed']} count "
              f"(seed runs that missed the scaled criterion-08 spec)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")

    names = expected_names(args.trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics missing from the run: {missing}")
    result.update(provenance=prov, setup_runs_s=setup)
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    # correct: every output reproduced exactly across rounds and passed its
    # check (see bench/README.md, "Checks").
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {n: metrics[n] for n in names}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
