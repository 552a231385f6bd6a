"""Run one workload in this process and write its result as JSON.

Started by ``bench/run.py`` in a fresh interpreter, with ``src`` on the path
and BLAS threads pinned to 1.  Untraced (``--trace 0``), it repeats identical
rounds until the next round would overrun ``--seconds`` and reports the mean
round time in speed-probe units, the median round time and the workload's
own figures.
Traced (``--trace 1``), it runs plain rounds for half that time and then one
round with the tracer installed, and reports the per-layer counts and self
times of the traced round plus its wall time over the plain median.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.optimize import curve_fit

import snvtune
from tracing import Tracer, layer_metrics
from workloads import CLI_WORKDIR, WORKLOADS, median


def _lorentz(x, amp, center, fwhm, bg):
    return amp / (1.0 + (2.0 * (x - center) / fwhm) ** 2) + bg


@dataclass
class _ProbeState:
    v: float
    drift: float


class SpeedProbe:
    """Times a fixed kernel, independent of snvtune, between operations.

    The machine's speed swings by up to 2x over seconds and minutes as other
    tenants come and go.  The probe's mean time during a round measures how
    fast the machine ran during that round, so the round time divided by it
    cancels most of the swing; ``wall_ref`` is the mean of that ratio over
    the run's rounds.  The kernel mixes what the workloads do: a frame loop
    of small-array numpy calls and short-lived objects, one small
    ``curve_fit`` and some number formatting.
    """

    SHARE = 0.05
    phases = 2.0 * np.pi * (np.arange(32) + 0.5) / 16.0
    x = np.linspace(-2.0, 2.0, 161)

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.y = self.rng.poisson(_lorentz(self.x, 100.0, 0.1, 0.3, 1.0)).astype(float)
        self.samples: list[float] = []
        self.round_means: list[float] = []
        self._start: float | None = None
        self._spent = 0.0

    def unit(self) -> float:
        rng, phases = self.rng, self.phases
        t0 = time.perf_counter()
        state = _ProbeState(40.0, 0.0)
        for _ in range(150):
            state.drift = 0.999 * state.drift + float(rng.normal(0.0, 0.01))
            s = 1e-5 * (state.v + 0.16 * np.sin(phases)) ** 2
            line = 0.3 * s - 0.5 * np.sqrt(1.0 + s * s) + state.drift
            counts = rng.poisson(60.0 / (1.0 + (10.0 * (0.1 - line)) ** 2) + 0.6)
            error = 1e-4 * float(np.sum(counts * np.sin(phases)))
            state = _ProbeState(float(np.clip(state.v + error, 0.0, 79.0)),
                                state.drift)
        curve_fit(_lorentz, self.x, self.y, p0=[80.0, 0.0, 0.5, 1.0])
        "".join(f"{a:.12g},{b:.12g}\n" for a, b in zip(self.x, self.y))
        return time.perf_counter() - t0

    def maybe(self) -> None:
        """Run units until they have taken SHARE of the time since the first call.

        So the samples spread evenly over the run, however long the
        operations between two calls are.
        """
        if self._start is None:
            self._start = time.perf_counter()
        while self._spent < self.SHARE * (time.perf_counter() - self._start):
            self.samples.append(self.unit())
            self._spent += self.samples[-1]


def run_round(plan, probe: SpeedProbe | None = None):
    """One pass over the operations; with a probe, it samples between them."""
    raws, times = [], []
    first = len(probe.samples) if probe is not None else 0
    for op in plan.ops:
        if probe is not None:
            probe.maybe()
        t0 = time.perf_counter()
        raws.append(op.run())
        times.append(time.perf_counter() - t0)
    if probe is not None:
        probe.maybe()
        probe.round_means.append(float(np.mean(probe.samples[first:])))
    return raws, times, sum(times)


class Tally:
    """Checks each round's outputs and compares them with the first round's."""

    def __init__(self, plan):
        self.plan = plan
        self.first = None
        self.attempted = self.failed = self.mismatched = self.spec_missed = 0

    def add(self, raws):
        results = [op.inspect(raw) for op, raw in zip(self.plan.ops, raws)]
        for i, r in enumerate(results):
            self.attempted += r["attempted"]
            self.spec_missed += r.get("spec_missed", 0)
            if self.first is not None and r["digest"] != self.first[i]["digest"]:
                self.mismatched += 1
                self.failed += r["attempted"]
            else:
                self.failed += r["failed"]
        if self.first is None:
            self.first = results


def repeat(plan, tally: Tally, seconds: float,
           probe: SpeedProbe | None = None) -> tuple[list, list]:
    """Run rounds until the next one would overrun ``seconds`` (at least one)."""
    walls, op_times = [], []
    start = time.perf_counter()
    while True:
        raws, times, wall = run_round(plan, probe)
        tally.add(raws)
        walls.append(wall)
        op_times.append(times)
        if time.perf_counter() - start + median(walls) > seconds:
            return walls, op_times


def measure(plan, seconds: float) -> tuple[Tally, dict, list]:
    tally, probe = Tally(plan), SpeedProbe()
    walls, op_times = repeat(plan, tally, seconds, probe)
    ratios = [w / m for w, m in zip(walls, probe.round_means)]
    metrics = {"wall_ref": (float(np.mean(ratios)), "ref"),
               "wall_s": (median(walls), "s"),
               "probe_ms": (1000.0 * float(np.mean(probe.samples)), "ms"),
               **plan.report(tally.first, op_times)}
    return tally, metrics, op_times


def measure_traced(plan, seconds: float,
                   trace_path: Path) -> tuple[Tally, dict, list]:
    """Untraced rounds for half the time, then one traced round.

    The untraced median is the reference for the tracing overhead; taking
    it over several rounds keeps the first round's warm-up out of it.
    """
    tally = Tally(plan)
    walls, op_times = repeat(plan, tally, seconds / 2.0)
    with Tracer() as tr:
        raws, times, traced = run_round(plan)
    tally.add(raws)
    trace_path.write_text(json.dumps(tr.dump()) + "\n", encoding="utf-8")
    return tally, layer_metrics(tr, traced, median(walls)), op_times + [times]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    out_dir = args.out.parent
    plan = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            trace_path = out_dir / f"trace_{args.workload}_{args.seed}.json"
            tally, metrics, op_times = measure_traced(plan, args.seconds,
                                                     trace_path)
        else:
            tally, metrics, op_times = measure(plan, args.seconds)
    finally:
        shutil.rmtree(CLI_WORKDIR, ignore_errors=True)
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "mismatched": tally.mismatched,
        "spec_missed": tally.spec_missed,
        "op_times_s": op_times,
        "ops_per_round": len(plan.ops),
        "op_labels": [op.label for op in plan.ops],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "snvtune": snvtune.__version__},
        "snvtune_file": snvtune.__file__,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
