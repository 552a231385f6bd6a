"""Span tracing installed from outside the package.

The tracer replaces the attributes callers look up (module globals such as
``snvtune.control.lockin_error`` and class attributes such as
``TuningCurve.shift``) with timing wrappers, and puts the originals back on
exit.  Every wrapped call is a span: its duration is added to its parent
span's child time, so a layer's self time is its span time minus the part
covered by child spans.  Frame-rate spans (lock-in, CR check, PID, drift,
``TuningCurve.shift``, the chain internals) are only aggregated per name;
the coarser spans are also kept as individual records with start, end and
parent, and written out when the run ends.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import snvtune.cli
import snvtune.config
import snvtune.control
import snvtune.emitters
import snvtune.spectroscopy
from snvtune.control import DriftProcess
from snvtune.emitters import TuningCurve


class Tracer:
    """In-memory span recorder; use as a context manager to install it."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []        # (id, parent_id, name, start, end)
        self._stack: list[list] = []        # per open span: [child_s]
        self._current = [None]              # id of the innermost recorded span
        self._origin = time.perf_counter()
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, record=False, after=None):
        """Timing wrapper around ``fn``.

        ``name`` is a span name or a function of the call arguments giving
        one.  ``record`` keeps an individual span record; ``after(args,
        kwargs, result)`` updates counters from the returned value.
        """
        stack, stats, spans = self._stack, self.stats, self.spans
        current, origin, clock = self._current, self._origin, time.perf_counter
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if record:
                parent = current[0]
                span_id = current[0] = len(spans)
                spans.append(None)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                label = name if fixed else name(args, kwargs)
                entry = stats.get(label)
                if entry is None:
                    entry = stats[label] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if record:
                    spans[span_id] = (span_id, parent, label,
                                      t0 - origin, t1 - origin)
                    current[0] = parent
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, key):
        """Count-only wrapper: no span, no timing."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def __enter__(self):
        install(self)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def self_total(self) -> float:
        return sum(v[2] for v in self.stats.values())

    def dump(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": [list(s) for s in self.spans],
        }


def _fit_name(args, kwargs):
    shape = args[1] if len(args) > 1 else kwargs.get("shape", "lorentzian")
    return f"spectroscopy.fit_{shape}"


def install(tr: Tracer) -> None:
    """Put the wrappers on every layer boundary the workloads cross."""
    ctl, spec, emi = snvtune.control, snvtune.spectroscopy, snvtune.emitters
    cli, cfg = snvtune.cli, snvtune.config
    counts = tr.counts

    def lockin_after(args, kwargs, result):
        if not result.valid:
            counts["control.lockin_invalid"] += 1

    def cr_after(args, kwargs, result):
        if not result.passed:
            counts["control.cr_fail"] += 1

    def pid_after(args, kwargs, result):
        pid_cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        if result == pid_cfg.output_min or result == pid_cfg.output_max:
            counts["control.pid_saturated"] += 1

    def fit_after(args, kwargs, result):
        if result.converged:
            counts["spectroscopy.fit_converged"] += 1

    def bytes_after(key, file_arg):
        def after(args, kwargs, result):
            path = str(result if file_arg is None else args[file_arg])
            counts[key] += os.path.getsize(path)
            if file_arg is None:  # scan_to_csv also writes a JSON sidecar
                counts[key] += os.path.getsize(path + ".meta.json")
        return after

    def both(owners, attr, wrapped):
        for owner in owners:
            tr.patch(owner, attr, wrapped)

    # control
    both([ctl, cli], "run_stabilization",
         tr.wrap(ctl.run_stabilization, "control.loop", record=True))
    tr.patch(ctl, "lockin_error",
             tr.wrap(ctl.lockin_error, "control.lockin", after=lockin_after))
    tr.patch(ctl, "cr_check", tr.wrap(ctl.cr_check, "control.cr", after=cr_after))
    tr.patch(ctl, "pid_update",
             tr.wrap(ctl.pid_update, "control.pid", after=pid_after))
    tr.patch(DriftProcess, "step", tr.wrap(DriftProcess.step, "control.drift"))
    tr.patch(ctl, "calibrate_lockin",
             tr.wrap(ctl.calibrate_lockin, "control.calibrate", record=True))
    both([ctl, cli], "summarize_log",
         tr.wrap(ctl.summarize_log, "control.summarize", record=True))

    # spectroscopy
    fit = tr.wrap(spec.fit_line, _fit_name, record=True, after=fit_after)
    both([spec, ctl], "fit_line", fit)
    for model in ("_lorentz_model", "_pseudo_voigt_model"):
        tr.patch(spec, model, tr.counter(getattr(spec, model),
                                         "spectroscopy.fit_model_evals"))
    both([spec, ctl], "sample_scan",
         tr.wrap(spec.sample_scan, "spectroscopy.sample_scan", record=True))
    both([spec, cli], "simulate_ple",
         tr.wrap(spec.simulate_ple, "spectroscopy.simulate", record=True))
    tr.patch(cli, "scan_to_csv",
             tr.wrap(cli.scan_to_csv, "spectroscopy.csv", record=True,
                     after=bytes_after("spectroscopy.csv_bytes", None)))
    tr.patch(cli, "cdf_and_window",
             tr.wrap(cli.cdf_and_window, "spectroscopy.cdf", record=True))
    tr.patch(cli, "sample_inhomogeneous",
             tr.wrap(cli.sample_inhomogeneous,
                     "spectroscopy.sample_inhomogeneous", record=True))

    # emitters and the chain below it
    tr.patch(TuningCurve, "__init__",
             tr.wrap(TuningCurve.__init__, "emitters.curve_build", record=True))
    tr.patch(TuningCurve, "shift", tr.wrap(TuningCurve.shift, "emitters.shift"))
    both([emi, cli], "shift_from_voltage_chain",
         tr.wrap(emi.shift_from_voltage_chain, "emitters.chain"))
    for attr, label in (("strain_at", "actuator.strain_at"),
                        ("lab_to_defect", "frames.lab_to_defect"),
                        ("rotate_strain", "frames.rotate_strain"),
                        ("irreducible_components", "strain.irreducible"),
                        ("level_response", "strain.level_response")):
        tr.patch(emi, attr, tr.wrap(getattr(emi, attr), label))

    # config
    both([cfg, cli], "load_default_config",
         tr.wrap(cfg.load_default_config, "config.load", record=True))
    tr.patch(cli, "load_config",
             tr.wrap(cfg.load_config, "config.load", record=True))

    # cli: entry point, verbs, per-task helpers and writers
    tr.patch(cli, "main", tr.wrap(cli.main, "cli.main", record=True))
    for attr in ("cmd_tune_curve", "cmd_ple", "cmd_inhomo", "cmd_stabilize",
                 "cmd_calibrate_pulse", "_tune_one", "_ple_one",
                 "_stabilize_one"):
        tr.patch(cli, attr, tr.wrap(getattr(cli, attr),
                                    "cli." + attr.lstrip("_"), record=True))
    tr.patch(cli, "_read_resonances_csv",
             tr.wrap(cli._read_resonances_csv, "cli.read", record=True))
    for attr in ("_write_csv", "_write_json"):
        tr.patch(cli, attr, tr.wrap(getattr(cli, attr), "cli.write", record=True,
                                    after=bytes_after("cli.write_bytes", 0)))


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer counts and self times, named ``<module>.<what>``."""
    counts, calls, self_s = tr.counts, tr.calls, tr.self_s
    fits = calls("spectroscopy.fit_lorentzian") + calls("spectroscopy.fit_voigt")
    cli_self = sum(v[2] for k, v in tr.stats.items()
                   if k.startswith("cli.") and k not in ("cli.write", "cli.read"))
    m = {}

    def count(name, value):
        m[name] = (int(value), "count")

    def secs(name, value):
        m[name] = (float(value), "s")

    for what, span in (("lockin", "control.lockin"), ("cr", "control.cr"),
                       ("pid", "control.pid")):
        count(f"control.{what}_calls", calls(span))
        secs(f"control.{what}_s", self_s(span))
    count("control.lockin_invalid", counts["control.lockin_invalid"])
    count("control.cr_fail", counts["control.cr_fail"])
    count("control.pid_saturated", counts["control.pid_saturated"])
    count("control.drift_steps", calls("control.drift"))
    secs("control.drift_s", self_s("control.drift"))
    secs("control.calibrate_s", self_s("control.calibrate"))
    count("control.loop_calls", calls("control.loop"))
    secs("control.loop_self_s", self_s("control.loop"))
    secs("control.summarize_s", self_s("control.summarize"))

    count("spectroscopy.fit_calls", fits)
    secs("spectroscopy.fit_lorentzian_s", self_s("spectroscopy.fit_lorentzian"))
    secs("spectroscopy.fit_voigt_s", self_s("spectroscopy.fit_voigt"))
    count("spectroscopy.fit_model_evals", counts["spectroscopy.fit_model_evals"])
    m["spectroscopy.fit_converged_ratio"] = (
        counts["spectroscopy.fit_converged"] / fits if fits else 0.0, "ratio")
    count("spectroscopy.simulate_calls", calls("spectroscopy.simulate"))
    secs("spectroscopy.simulate_s", self_s("spectroscopy.simulate"))
    count("spectroscopy.sample_scan_calls", calls("spectroscopy.sample_scan"))
    secs("spectroscopy.sample_scan_s", self_s("spectroscopy.sample_scan"))
    m["spectroscopy.csv_bytes"] = (int(counts["spectroscopy.csv_bytes"]), "B")
    secs("spectroscopy.csv_s", self_s("spectroscopy.csv"))
    secs("spectroscopy.cdf_s", self_s("spectroscopy.cdf"))
    secs("spectroscopy.sample_inhomogeneous_s",
         self_s("spectroscopy.sample_inhomogeneous"))

    count("emitters.curve_builds", calls("emitters.curve_build"))
    secs("emitters.curve_build_s", self_s("emitters.curve_build"))
    count("emitters.shift_calls", calls("emitters.shift"))
    secs("emitters.shift_s", self_s("emitters.shift"))
    count("emitters.chain_calls", calls("emitters.chain"))
    secs("emitters.chain_s", self_s("emitters.chain"))
    for name in ("actuator.strain_at", "frames.lab_to_defect",
                 "frames.rotate_strain", "strain.irreducible",
                 "strain.level_response"):
        secs(name + "_s", self_s(name))

    count("config.load_calls", calls("config.load"))
    secs("config.load_s", self_s("config.load"))

    m["cli.write_bytes"] = (int(counts["cli.write_bytes"]), "B")
    secs("cli.write_s", self_s("cli.write"))
    secs("cli.read_s", self_s("cli.read"))
    secs("cli.self_s", cli_self)

    secs("trace.wall_s", traced_wall)
    secs("trace.untraced_wall_s", untraced_wall)
    secs("trace.overhead_s", traced_wall - untraced_wall)
    m["trace.accounted_ratio"] = (tr.self_total() / traced_wall, "ratio")
    return m
