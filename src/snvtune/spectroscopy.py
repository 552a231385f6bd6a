"""Photon-counting spectroscopy simulation and analysis.

Simulation side: resonant excitation of a Lorentzian line with
strain-dependent broadening, photon counts drawn per detuning point from a
Poisson law with a seeded generator.  Analysis side: profile fits
(Lorentzian or pseudo-Voigt plus constant background) and the empirical
CDF / best-window statistic of an inhomogeneous resonance sample.

All detunings are in GHz relative to an emitter's unstrained C-transition
frequency; linewidths are FWHM in MHz.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .actuator import DeviceModel
from .emitters import EmitterModel, TuningCurve
from .errors import InputError

MHZ_PER_GHZ = 1000.0
_LN2 = np.log(2.0)
# largest mean numpy's Poisson sampler accepts (numpy.random's POISSON_LAM_MAX)
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10
# 0-d operands: ufuncs take them faster than Python floats
_ONE, _TWO = np.asarray(1.0), np.asarray(2.0)


def lorentzian_peak(x, fwhm_ghz):
    """Unit-peak Lorentzian, x and FWHM in the same units.

    A Python float takes a ``math`` path with the operations numpy applies to
    a scalar (``** 2`` is libm ``pow`` in both), so it gives the same value.
    """
    if isinstance(x, float):
        y = 2.0 * x / fwhm_ghz
        try:
            y2 = y ** 2
        except OverflowError:  # numpy returns inf here
            y2 = math.inf
        return 1.0 / (1.0 + y2)
    return _ONE / (_ONE + (_TWO * np.asarray(x, dtype=float) / fwhm_ghz) ** 2)


def count_rate(peak, background, detuning_ghz, fwhm_ghz):
    """Count rate of a line ``detuning_ghz`` away from the probe frequency.

    Even in the detuning, so scans and probes may pass it with either sign.
    """
    return peak * lorentzian_peak(detuning_ghz, fwhm_ghz) + background


def effective_linewidth(emitter: EmitterModel, shift_ghz: float) -> float:
    """Strain-broadened FWHM in MHz: intrinsic width plus the linear term."""
    return emitter.fwhm0_mhz + emitter.broadening_slope * abs(shift_ghz)


@dataclass(frozen=True, eq=False)
class ScanRecord:
    """One PLE scan: detuning grid, photon counts and acquisition metadata.

    ``counts`` holds sampled integers, or the exact expected counts when the
    scan was produced in noise-free mode; ``expected`` always carries the
    noise-free expectation for reference.
    """

    detunings: np.ndarray
    counts: np.ndarray
    dwell_s: float
    bias_v: float
    seed: int | None = None
    emitter: str = ""
    expected: np.ndarray | None = None
    window_warning: bool = False

    def __post_init__(self):
        d = np.asarray(self.detunings, dtype=float)
        c = np.asarray(self.counts)
        object.__setattr__(self, "detunings", d)
        object.__setattr__(self, "counts", c)
        if d.ndim != 1 or d.shape != c.shape:
            raise InputError("detunings and counts must be 1-D and equal length")
        if d.size >= 2 and not np.all(np.diff(d) > 0.0):
            raise InputError("detunings must be strictly increasing")
        if np.any(np.asarray(c, dtype=float) < 0.0):
            raise InputError("counts must be non-negative")
        if not self.dwell_s > 0.0:
            raise InputError("dwell_s must be > 0")


@dataclass(frozen=True)
class FitResult:
    """Fitted line parameters; ``center`` in GHz, ``fwhm`` in MHz."""

    center: float
    fwhm: float
    amplitude: float
    center_stderr: float
    converged: bool
    background: float = 0.0
    eta: float | None = None  # pseudo-Voigt Lorentzian fraction, if fitted


@dataclass(frozen=True)
class CdfResult:
    """Empirical CDF curve plus the best sliding-window capture fraction."""

    values: np.ndarray        # sorted resonance frequencies, GHz
    cdf: np.ndarray           # right-continuous, ends at 1
    window_ghz: float
    best_fraction: float
    best_window_start: float


def sample_scan(emitter: EmitterModel, detunings, center_ghz: float,
                fwhm_mhz: float, dwell_s: float, bias_v: float,
                rng: np.random.Generator | None, seed: int | None = None,
                extra_offset_ghz: float = 0.0,
                window_warning: bool = False) -> ScanRecord:
    """Draw one scan of the line at ``center_ghz + extra_offset_ghz``.

    With ``rng`` (or ``seed``) given the counts are Poisson samples; without
    either the record carries the exact expected counts (noise-free mode).
    Expected counts above what the Poisson sampler can draw, or beyond the
    float range in noise-free mode, are an input error.
    """
    if rng is None and seed is not None:
        rng = np.random.default_rng(seed)
    detunings = np.asarray(detunings, dtype=float)
    rates = count_rate(emitter.peak_rate, emitter.background_rate,
                       detunings - (center_ghz + extra_offset_ghz),
                       fwhm_mhz / MHZ_PER_GHZ)
    with np.errstate(over="ignore"):
        expected = rates * dwell_s
    if rng is None:
        if not np.isfinite(expected).all():
            raise InputError(f"dwell {dwell_s:g} s overflows the expected counts")
        counts = expected.copy()
    else:
        if not np.all(expected <= _POISSON_LAM_MAX):
            raise InputError(
                f"dwell {dwell_s:g} s gives expected counts above the Poisson "
                f"sampler's limit of {_POISSON_LAM_MAX:.3g} per point")
        counts = rng.poisson(expected).astype(np.int64)
    return ScanRecord(detunings=detunings, counts=counts,
                      dwell_s=dwell_s, bias_v=bias_v, seed=seed,
                      emitter=emitter.name, expected=expected,
                      window_warning=window_warning)


def simulate_ple(emitter: EmitterModel, device: DeviceModel, v: float,
                 detunings, dwell_s: float,
                 rng: np.random.Generator | None = None,
                 seed: int | None = None) -> ScanRecord:
    """Simulate a PLE scan of ``emitter`` at bias voltage ``v``.

    The line sits at the strain-shifted C-transition and carries the
    strain-broadened width.  Deterministic given inputs and seed; pass
    neither ``rng`` nor ``seed`` for noise-free expected-value output.
    """
    if not 0.0 < dwell_s < math.inf:
        raise InputError("dwell_s must be finite and > 0")
    detunings = np.asarray(detunings, dtype=float)
    if detunings.size == 0 or not np.isfinite(detunings).all():
        raise InputError("detunings must be a non-empty grid of finite values")
    curve = TuningCurve(emitter, device)
    shift = curve.shift(v)
    fwhm = effective_linewidth(emitter, shift)
    warn = not detunings[0] <= shift <= detunings[-1]
    return sample_scan(emitter, detunings, shift, fwhm, dwell_s, v,
                       rng=rng, seed=seed, window_warning=warn)


def _lorentz_model(x, amp, center, fwhm, bg):
    return amp / (1.0 + (2.0 * (x - center) / fwhm) ** 2) + bg


def _lorentz_jac(x, amp, center, fwhm, bg):
    # u = 2 (x - center) / fwhm, L = 1 / (1 + u^2) and dL/du = -2 u L^2,
    # chained through du/dcenter = -2 / fwhm and du/dfwhm = -u / fwhm;
    # k = -(d model / du) / fwhm.
    u = 2.0 * (x - center) / fwhm
    lor = 1.0 / (1.0 + u * u)
    k = 2.0 * amp * u * lor * lor / fwhm
    jac = np.empty((x.size, 4))
    jac[:, 0] = lor
    jac[:, 1] = 2.0 * k
    jac[:, 2] = u * k
    jac[:, 3] = 1.0
    return jac


def _pseudo_voigt_model(x, amp, center, fwhm, eta, bg):
    # Unit-peak mix of a Lorentzian and a Gaussian of common FWHM; within
    # about 1% of a true Voigt profile over the fitted range, far below
    # photon noise at realistic count rates.
    u2 = ((x - center) / (0.5 * fwhm)) ** 2
    lor = 1.0 / (1.0 + u2)
    gau = np.exp(-_LN2 * u2)
    return amp * (eta * lor + (1.0 - eta) * gau) + bg


def _pseudo_voigt_jac(x, amp, center, fwhm, eta, bg):
    # u = (x - center) / (fwhm / 2), L = 1 / (1 + u^2), G = exp(-ln2 u^2);
    # dL/du = -2 u L^2 and dG/du = -2 ln2 u G, chained through
    # du/dcenter = -2 / fwhm and du/dfwhm = -u / fwhm;
    # k = -(d model / du) / fwhm.
    u = (x - center) / (0.5 * fwhm)
    u2 = u * u
    lor = 1.0 / (1.0 + u2)
    gau = np.exp(-_LN2 * u2)
    k = 2.0 * amp * u * (eta * lor * lor + (1.0 - eta) * _LN2 * gau) / fwhm
    jac = np.empty((x.size, 5))
    jac[:, 0] = eta * lor + (1.0 - eta) * gau
    jac[:, 1] = 2.0 * k
    jac[:, 2] = u * k
    jac[:, 3] = amp * (lor - gau)
    jac[:, 4] = 1.0
    return jac


_LM_MAX_EVALS = 200  # trial steps per pass before the solver gives up
_LM_TOL = 1e-15      # stop once a step would lower the cost by less than this fraction


class _FitFailed(Exception):
    """The solver hit its evaluation cap or a non-finite cost."""


def _least_squares(model, jac, x, y, w, p0, lo, hi):
    """Bounded Levenberg-Marquardt minimum of ``sum((w * (model(x, *p) - y))**2)``.

    Marquardt's diagonal damping of the normal equations (Moré, LNM 630,
    1978) with Nielsen's gain-ratio update of the damping (Madsen, Nielsen
    & Tingleff, 2004).  A parameter on a bound whose descent direction
    points out of the box is held fixed for the step; the others move, and
    the trial point is clipped into the box.  The solver stops when the
    step predicts a cost decrease below ``_LM_TOL`` of the cost, so it
    returns the least-squares optimum to rounding.  Returns the parameters
    and the weighted normal matrix ``JᵀWJ`` there.  Raises
    :class:`_FitFailed` at the evaluation cap or on a non-finite cost, and
    ``LinAlgError`` on a singular system.
    """
    p = np.clip(np.asarray(p0, dtype=float), lo, hi)
    r = w * (model(x, *p) - y)
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise _FitFailed("non-finite cost")
    lam, nu = 1e-3, 2.0
    normal = None
    for _ in range(_LM_MAX_EVALS):
        if normal is None:
            j = w[:, None] * jac(x, *p)
            normal = j.T @ j
            grad = j.T @ r
            free = ~(((p <= lo) & (grad > 0.0)) | ((p >= hi) & (grad < 0.0)))
            a_free, g_free = normal[free][:, free], grad[free]
            scale = a_free.diagonal()
            damping = np.diag(scale)
        step = np.linalg.solve(a_free + lam * damping, -g_free)
        # decrease of the linearized cost ||r + J step||^2
        predicted = float(step @ (lam * scale * step - g_free))
        if predicted <= _LM_TOL * cost:
            return p, normal
        trial = p.copy()
        trial[free] += step
        trial = np.minimum(np.maximum(trial, lo), hi)
        r_trial = w * (model(x, *trial) - y)
        cost_trial = float(r_trial @ r_trial)
        if not math.isfinite(cost_trial):
            raise _FitFailed("non-finite cost")
        gain = (cost - cost_trial) / predicted
        if gain > 0.0:
            p, r, cost, normal = trial, r_trial, cost_trial, None
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            lam *= nu
            nu *= 2.0
    raise _FitFailed("evaluation cap")


def fit_line(scan: ScanRecord, shape: str = "lorentzian") -> FitResult:
    """Nonlinear least-squares line fit with a constant background.

    ``shape`` selects "lorentzian" or "voigt" (pseudo-Voigt).  Two passes:
    an unweighted fit seeds Poisson weights taken from the model prediction
    (weighting by observed counts would bias the width low).  Pathological
    data yields ``converged=False`` instead of raising; fewer than 8 points
    or no signal above the background estimate is an input error.  Both
    passes run :func:`_least_squares` inside the parameter bounds with the
    models' closed-form Jacobians; ``center_stderr`` comes from the inverse
    of the weighted normal matrix at the optimum.
    """
    if shape not in ("lorentzian", "voigt"):
        raise InputError(f"unknown line shape {shape!r}")
    x = scan.detunings
    y = np.asarray(scan.counts, dtype=float)
    if x.size < 8:
        raise InputError("need at least 8 scan points to fit a line")
    bg0 = float(np.median(y))
    if not np.any(y > bg0 + 3.0 * np.sqrt(max(bg0, 1.0))):
        raise InputError("no counts above the background estimate")

    i_max = int(np.argmax(y))
    amp0 = max(y[i_max] - bg0, 1.0)
    c0 = float(x[i_max])
    above = y > bg0 + 0.5 * amp0
    step = float(np.median(np.diff(x)))
    fwhm0 = max(float(np.count_nonzero(above)) * step, step)
    span = float(x[-1] - x[0])

    if shape == "lorentzian":
        model, jac = _lorentz_model, _lorentz_jac
        p0 = [amp0, c0, fwhm0, bg0]
        lo = np.array([0.0, x[0], step * 0.1, 0.0])
        hi = np.array([np.inf, x[-1], 4.0 * span, np.inf])
    else:
        model, jac = _pseudo_voigt_model, _pseudo_voigt_jac
        p0 = [amp0, c0, fwhm0, 0.7, bg0]
        lo = np.array([0.0, x[0], step * 0.1, 0.0, 0.0])
        hi = np.array([np.inf, x[-1], 4.0 * span, 1.0, np.inf])

    try:
        # non-finite data surfaces as a non-finite cost, not as a warning
        with np.errstate(invalid="ignore", over="ignore"):
            popt, _ = _least_squares(model, jac, x, y, np.ones_like(y), p0, lo, hi)
            w = 1.0 / np.sqrt(np.maximum(model(x, *popt), 1.0))
            popt, normal = _least_squares(model, jac, x, y, w, popt, lo, hi)
        pcov = np.linalg.inv(normal)  # absolute Poisson weights: no rescaling
    except (_FitFailed, np.linalg.LinAlgError):
        return FitResult(center=c0, fwhm=fwhm0 * MHZ_PER_GHZ, amplitude=amp0,
                         center_stderr=np.inf, converged=False, background=bg0)

    amp, center, fwhm_ghz = popt[0], popt[1], popt[2]
    bg = popt[-1]
    eta = float(popt[3]) if shape == "voigt" else None
    stderr = float(np.sqrt(np.abs(pcov[1, 1])))
    ok = (np.isfinite(stderr) and fwhm_ghz > 0.0
          and x[0] <= center <= x[-1] and fwhm_ghz < 2.0 * span)
    return FitResult(center=float(center), fwhm=float(fwhm_ghz) * MHZ_PER_GHZ,
                     amplitude=float(amp), center_stderr=stderr,
                     converged=bool(ok), background=float(bg), eta=eta)


def empirical_cdf(values) -> tuple[np.ndarray, np.ndarray]:
    """Right-continuous empirical CDF: sorted values and F = i/n, ending at 1."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise InputError("empty sample")
    return v, np.arange(1, v.size + 1, dtype=float) / v.size


def best_window_fraction(values, window_ghz: float) -> tuple[float, float]:
    """Largest fraction of values inside any interval of width ``window_ghz``.

    Returns (fraction, window_start); each candidate window is anchored at a
    sample point, which is sufficient for the maximum of a closed interval.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise InputError("empty sample")
    if not 0.0 < window_ghz < math.inf:
        raise InputError("window width must be finite and > 0")
    hi = np.searchsorted(v, v + window_ghz, side="right")
    counts = hi - np.arange(v.size)
    best = int(np.argmax(counts))
    return float(counts[best]) / v.size, float(v[best])


def cdf_and_window(resonances, window_ghz: float) -> CdfResult:
    """Empirical CDF of resonance frequencies plus their best-window fraction."""
    values, cdf = empirical_cdf(resonances)
    fraction, start = best_window_fraction(values, window_ghz)
    return CdfResult(values=values, cdf=cdf, window_ghz=window_ghz,
                     best_fraction=fraction, best_window_start=start)


def sample_inhomogeneous(n: int, cluster_sigma_ghz: float,
                         cluster_weight: float, broad_span_ghz: float,
                         rng: np.random.Generator,
                         center_ghz: float = 0.0) -> np.ndarray:
    """Draw ``n`` resonance frequencies from a cluster-plus-broad mixture.

    With probability ``cluster_weight`` a resonance comes from a normal
    cluster of the given sigma, otherwise from a uniform span; both centered
    on ``center_ghz``.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    in_cluster = rng.random(n) < cluster_weight
    cluster = rng.normal(center_ghz, cluster_sigma_ghz, n)
    broad = center_ghz + rng.uniform(-0.5 * broad_span_ghz, 0.5 * broad_span_ghz, n)
    return np.where(in_cluster, cluster, broad)


# ---------------------------------------------------------------------------
# Serialization: CSV with a JSON metadata sidecar.

def format_column(values, blank_nan: bool = False) -> list[str]:
    """CSV cells of one column in a single pass: integers and flags as decimal
    integers, other values as ``%.12g``; ``blank_nan`` leaves NaN cells empty."""
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        return [str(int(c)) for c in values.tolist()]
    floats = values.astype(float).tolist()
    if blank_nan:
        return ["" if x != x else "%.12g" % x for x in floats]
    return list(map("%.12g".__mod__, floats))


def write_csv(path: Path, header_lines: list[str], columns: list[str],
              cells: list[list[str]]) -> None:
    """``# `` header lines, column names, then rows from per-column ``cells``."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def scan_to_csv(scan: ScanRecord, path: str | Path,
                header_lines: list[str] | None = None,
                include_expected: bool = True) -> Path:
    """Write a scan as CSV (detuning_GHz, counts[, expected]) plus sidecar."""
    path = Path(path)
    counts_are_int = np.issubdtype(np.asarray(scan.counts).dtype, np.integer)
    columns = ["detuning_GHz", "counts"]
    cells = [format_column(scan.detunings), format_column(scan.counts)]
    if include_expected and scan.expected is not None:
        columns.append("expected_counts")
        cells.append(format_column(scan.expected))
    write_csv(path, header_lines or [], columns, cells)
    meta = {
        "counts_kind": "int" if counts_are_int else "float",
        "dwell_s": scan.dwell_s,
        "bias_V": scan.bias_v,
        "seed": scan.seed,
        "emitter": scan.emitter,
        "window_warning": scan.window_warning,
    }
    write_json(path.with_suffix(path.suffix + ".meta.json"), meta)
    return path


def scan_from_csv(path: str | Path) -> ScanRecord:
    """Load a scan written by :func:`scan_to_csv`.

    The counts keep the dtype kind recorded in the sidecar; without one,
    whole-numbered counts load as integers.
    """
    path = Path(path)
    detunings, counts, expected = [], [], []
    has_expected = False
    with path.open("r", encoding="utf-8") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader)
        has_expected = "expected_counts" in header
        for row in reader:
            detunings.append(float(row[0]))
            counts.append(float(row[1]))
            if has_expected:
                expected.append(float(row[2]))
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    meta = json.loads(sidecar.read_text(encoding="utf-8")) if sidecar.exists() else {}
    counts_arr = np.asarray(counts)
    kind = meta.get("counts_kind")
    if kind is None:
        kind = "int" if np.all(counts_arr == np.round(counts_arr)) else "float"
    if kind == "int":
        counts_arr = counts_arr.astype(np.int64)
    return ScanRecord(
        detunings=np.asarray(detunings, dtype=float),
        counts=counts_arr,
        dwell_s=float(meta.get("dwell_s", 1.0)),
        bias_v=float(meta.get("bias_V", 0.0)),
        seed=meta.get("seed"),
        emitter=str(meta.get("emitter", "")),
        expected=np.asarray(expected, dtype=float) if has_expected else None,
        window_warning=bool(meta.get("window_warning", False)),
    )
