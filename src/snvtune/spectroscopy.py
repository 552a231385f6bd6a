"""Photon-counting spectroscopy simulation and analysis.

Simulation side: resonant excitation of a Lorentzian line with
strain-dependent broadening, photon counts drawn per detuning point from a
Poisson law with a seeded generator.  Analysis side: profile fits
(Lorentzian or pseudo-Voigt plus constant background), peak finding over PL
spectra, and the empirical CDF / best-window statistic of an inhomogeneous
resonance sample.

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
from scipy.optimize import curve_fit
from scipy.signal import find_peaks as _scipy_find_peaks

from .actuator import DeviceModel
from .emitters import EmitterModel, TuningCurve
from .errors import InputError

MHZ_PER_GHZ = 1000.0


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
    return 1.0 / (1.0 + (2.0 * np.asarray(x, dtype=float) / fwhm_ghz) ** 2)


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
class InhomogeneousSample:
    """Resonance frequencies collected over many excitation spots."""

    resonances: np.ndarray
    spot_count: int = 0
    integration_time_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "resonances",
                           np.asarray(self.resonances, dtype=float))


@dataclass(frozen=True)
class CdfResult:
    """Empirical CDF curve plus the best sliding-window capture fraction."""

    values: np.ndarray        # sorted resonance frequencies, GHz
    cdf: np.ndarray           # right-continuous, ends at 1
    window_ghz: float
    best_fraction: float
    best_window_start: float


def expected_rates(emitter: EmitterModel, detunings, center_ghz: float,
                   fwhm_mhz: float) -> np.ndarray:
    """Expected photon count rates (counts/s) over a detuning grid."""
    fwhm_ghz = fwhm_mhz / MHZ_PER_GHZ
    line = lorentzian_peak(np.asarray(detunings, dtype=float) - center_ghz, fwhm_ghz)
    return emitter.peak_rate * line + emitter.background_rate


def sample_scan(emitter: EmitterModel, detunings, center_ghz: float,
                fwhm_mhz: float, dwell_s: float, bias_v: float,
                rng: np.random.Generator | None, seed: int | None = None,
                extra_offset_ghz: float = 0.0,
                window_warning: bool = False) -> ScanRecord:
    """Draw one scan of the line at ``center_ghz + extra_offset_ghz``.

    With ``rng`` (or ``seed``) given the counts are Poisson samples; without
    either the record carries the exact expected counts (noise-free mode).
    """
    if rng is None and seed is not None:
        rng = np.random.default_rng(seed)
    rates = expected_rates(emitter, detunings, center_ghz + extra_offset_ghz, fwhm_mhz)
    expected = rates * dwell_s
    if rng is None:
        counts = expected.copy()
    else:
        counts = rng.poisson(expected).astype(np.int64)
    return ScanRecord(detunings=np.asarray(detunings, dtype=float), counts=counts,
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


def _pseudo_voigt_model(x, amp, center, fwhm, eta, bg):
    # Unit-peak mix of a Lorentzian and a Gaussian of common FWHM; within
    # about 1% of a true Voigt profile over the fitted range, far below
    # photon noise at realistic count rates.
    half = 0.5 * fwhm
    lor = 1.0 / (1.0 + ((x - center) / half) ** 2)
    gau = np.exp(-np.log(2.0) * ((x - center) / half) ** 2)
    return amp * (eta * lor + (1.0 - eta) * gau) + bg


def fit_line(scan: ScanRecord, shape: str = "lorentzian") -> FitResult:
    """Nonlinear least-squares line fit with a constant background.

    ``shape`` selects "lorentzian" or "voigt" (pseudo-Voigt).  Two passes:
    an unweighted fit seeds Poisson weights taken from the model prediction
    (weighting by observed counts would bias the width low).  Pathological
    data yields ``converged=False`` instead of raising; fewer than 8 points
    or no signal above the background estimate is an input error.
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
        model, p0 = _lorentz_model, [amp0, c0, fwhm0, bg0]
        bounds = ([0.0, x[0], step * 0.1, 0.0],
                  [np.inf, x[-1], 4.0 * span, np.inf])
    else:
        model, p0 = _pseudo_voigt_model, [amp0, c0, fwhm0, 0.7, bg0]
        bounds = ([0.0, x[0], step * 0.1, 0.0, 0.0],
                  [np.inf, x[-1], 4.0 * span, 1.0, np.inf])

    try:
        popt, _ = curve_fit(model, x, y, p0=p0, bounds=bounds, maxfev=20000)
        sigma = np.sqrt(np.maximum(model(x, *popt), 1.0))
        popt, pcov = curve_fit(model, x, y, p0=popt, sigma=sigma,
                               absolute_sigma=True, bounds=bounds, maxfev=20000)
    except (RuntimeError, ValueError):
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


def find_peak_frequencies(frequencies, intensities, min_prominence: float,
                          min_separation_ghz: float) -> np.ndarray:
    """Local maxima above prominence/separation thresholds, ascending in GHz.

    Peaks closer together than ``min_separation_ghz`` collapse to the
    highest one.  An empty result is allowed.
    """
    f = np.asarray(frequencies, dtype=float)
    y = np.asarray(intensities, dtype=float)
    if f.size == 0:
        raise InputError("spectrum is empty")
    if f.size != y.size:
        raise InputError("frequency and intensity arrays differ in length")
    order = np.argsort(f)
    f, y = f[order], y[order]
    step = float(np.median(np.diff(f))) if f.size > 1 else 1.0
    distance = max(1, int(np.ceil(min_separation_ghz / step)))
    idx, _ = _scipy_find_peaks(y, prominence=min_prominence, distance=distance)
    return f[idx]


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
    if not window_ghz > 0.0:
        raise InputError("window width must be > 0")
    hi = np.searchsorted(v, v + window_ghz, side="right")
    counts = hi - np.arange(v.size)
    best = int(np.argmax(counts))
    return float(counts[best]) / v.size, float(v[best])


def cdf_and_window(sample: InhomogeneousSample, window_ghz: float) -> CdfResult:
    """Empirical CDF of an inhomogeneous sample plus its best-window fraction."""
    if sample.resonances.size == 0:
        raise InputError("inhomogeneous sample is empty")
    values, cdf = empirical_cdf(sample.resonances)
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

def scan_to_csv(scan: ScanRecord, path: str | Path,
                header_lines: list[str] | None = None,
                include_expected: bool = True) -> Path:
    """Write a scan as CSV (detuning_GHz, counts[, expected]) plus sidecar."""
    path = Path(path)
    counts_are_int = np.issubdtype(np.asarray(scan.counts).dtype, np.integer)
    with_expected = include_expected and scan.expected is not None
    with path.open("w", newline="", encoding="utf-8") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        cols = ["detuning_GHz", "counts"]
        if with_expected:
            cols.append("expected_counts")
        writer.writerow(cols)
        for i in range(scan.detunings.size):
            row = [f"{scan.detunings[i]:.12g}"]
            if counts_are_int:
                row.append(str(int(scan.counts[i])))
            else:
                row.append(f"{float(scan.counts[i]):.12g}")
            if with_expected:
                row.append(f"{scan.expected[i]:.12g}")
            writer.writerow(row)
    meta = {
        "dwell_s": scan.dwell_s,
        "bias_V": scan.bias_v,
        "seed": scan.seed,
        "emitter": scan.emitter,
        "window_warning": scan.window_warning,
    }
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    return path


def scan_from_csv(path: str | Path) -> ScanRecord:
    """Load a scan written by :func:`scan_to_csv`."""
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
    if np.all(counts_arr == np.round(counts_arr)):
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
