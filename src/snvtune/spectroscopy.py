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

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from .actuator import DeviceModel
from .emitters import EmitterModel, TuningCurve
from .errors import ContractError, InputError

MHZ_PER_GHZ = 1000.0
_LN2 = np.log(2.0)
# largest mean numpy's Poisson sampler accepts (numpy.random's POISSON_LAM_MAX)
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


def count_rate(peak, background, detuning_ghz, fwhm_ghz):
    """Count rate of a line ``detuning_ghz`` away from the probe frequency:
    ``peak`` times a unit-peak Lorentzian of FWHM ``fwhm_ghz``, plus
    ``background``.

    Even in the detuning, so scans and probes may pass it with either sign.
    """
    x = np.asarray(detuning_ghz, dtype=float)
    return peak * (1.0 / (1.0 + (2.0 * x / fwhm_ghz) ** 2)) + background


def effective_linewidth(emitter: EmitterModel, shift_ghz: float) -> float:
    """Strain-broadened FWHM in MHz: intrinsic width plus the linear term."""
    return emitter.fwhm0_mhz + emitter.broadening_slope * abs(shift_ghz)


@dataclass(frozen=True, eq=False)
class ScanRecord:
    """One PLE scan: detuning grid, photon counts and acquisition metadata.

    ``counts`` holds sampled integers, or the exact expected counts when the
    scan was produced in noise-free mode; ``expected`` always carries the
    noise-free expectation for reference.  Counts are non-negative and
    never NaN; an infinite count loads, and its fit fails unconverged.
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
        if not np.all(np.asarray(c, dtype=float) >= 0.0):
            raise InputError("counts must be non-negative numbers, not NaN")
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
    best_fraction: float
    best_window_start: float


def sample_scan(emitter: EmitterModel, detunings, center_ghz: float,
                fwhm_mhz: float, dwell_s: float, bias_v: float,
                rng: np.random.Generator | None, seed: int | None = None,
                window_warning: bool = False) -> ScanRecord:
    """Draw one scan of the line at ``center_ghz``.

    With ``rng`` (or ``seed``) given the counts are Poisson samples; without
    either the record carries the exact expected counts (noise-free mode).
    Expected counts above what the Poisson sampler can draw, or beyond the
    float range in noise-free mode, are an input error.
    """
    if rng is None and seed is not None:
        rng = np.random.default_rng(seed)
    detunings = np.asarray(detunings, dtype=float)
    rates = count_rate(emitter.peak_rate, emitter.background_rate,
                       detunings - center_ghz,
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
    u = 2.0 * (x - center) / fwhm
    den = 1.0 + u * u
    return amp / den + bg, (u, den)


def _lorentz_jac(u, den, amp, center, fwhm, bg):
    # u = 2 (x - center) / fwhm, L = 1 / (1 + u^2) and dL/du = -2 u L^2,
    # chained through du/dcenter = -2 / fwhm and du/dfwhm = -u / fwhm;
    # k = -(d model / du) / fwhm.
    lor = 1.0 / den
    k = 2.0 * amp * u * lor * lor / fwhm
    jac = np.empty((u.size, 4))
    jac[:, 0] = lor
    jac[:, 1] = 2.0 * k
    jac[:, 2] = u * k
    jac[:, 3] = 1.0
    return jac


def _pseudo_voigt_model(x, amp, center, fwhm, eta, bg):
    # Unit-peak mix of a Lorentzian and a Gaussian of common FWHM; within
    # about 1% of a true Voigt profile over the fitted range, far below
    # photon noise at realistic count rates.
    u = (x - center) / (0.5 * fwhm)
    u2 = u * u
    lor = 1.0 / (1.0 + u2)
    gau = np.exp(-_LN2 * u2)
    mix = eta * lor + (1.0 - eta) * gau
    return amp * mix + bg, (u, lor, gau, mix)


def _pseudo_voigt_jac(u, lor, gau, mix, amp, center, fwhm, eta, bg):
    # with the model's u, L and G: dL/du = -2 u L^2 and dG/du = -2 ln2 u G,
    # chained through du/dcenter = -2 / fwhm and du/dfwhm = -u / fwhm;
    # k = -(d model / du) / fwhm.
    k = 2.0 * amp * u * (eta * lor * lor + (1.0 - eta) * _LN2 * gau) / fwhm
    jac = np.empty((u.size, 5))
    jac[:, 0] = mix
    jac[:, 1] = 2.0 * k
    jac[:, 2] = u * k
    jac[:, 3] = amp * (lor - gau)
    jac[:, 4] = 1.0
    return jac


_LM_MAX_EVALS = 200  # trial steps per pass before the solver gives up
_LM_TOL = 1e-15      # stop once a step would lower the cost by less than this fraction
# the LAPACK gesv gufunc np.linalg.solve calls for a 1-D right-hand side
_solve1 = _umath_linalg.solve1


class _FitFailed(Exception):
    """The solver hit its evaluation cap, a non-finite cost or a singular system."""


def _trial_point(p, step, free, bounds):
    """``p`` plus ``step`` on its ``free`` parameters, clipped into the
    ``bounds`` (lo, hi) pairs, as Python floats: what
    ``np.minimum(np.maximum(trial, lo), hi)`` gives for a NaN-free step.
    Those ufuncs return their second argument on a tie, 0.0 against -0.0
    included, hence the strict comparisons."""
    moves = iter(step)
    trial = []
    for pi, f, (lo, hi) in zip(p, free, bounds):
        t = pi + next(moves) if f else pi
        t = t if t > lo else lo
        trial.append(t if t < hi else hi)
    return trial


def _least_squares(model, jac, x, y, w, p0, lo, hi, start=None):
    """Bounded Levenberg-Marquardt minimum of ``sum((w * (model(x, *p) - y))**2)``.

    Marquardt's diagonal damping of the normal equations (Moré, LNM 630,
    1978) with Nielsen's gain-ratio update of the damping (Madsen, Nielsen
    & Tingleff, 2004).  A parameter on a bound whose descent direction
    points out of the box is held fixed for the step; the others move, and
    the trial point is clipped into the box.  The solver stops when the
    step predicts a cost decrease below ``_LM_TOL`` of the cost, so it
    returns the least-squares optimum to rounding.  ``w=None`` means unit
    weights and gives the same bits as ``w=np.ones_like(y)``.  ``model``
    returns the values and the ``parts`` of ``jac(*parts, *p)``, so each
    point is evaluated once; ``start`` is the model's (values, parts) at
    ``p0`` when the caller has them, for a ``p0`` inside the bounds.
    Returns the parameters, ``JᵀWJ`` and the model's (values, parts) there.
    Raises :class:`_FitFailed` at the evaluation cap, on a non-finite cost
    and on a singular system.

    An iteration on 4-5 parameters costs numpy call overhead, not
    arithmetic, so the loop makes few calls.  Each damped system goes to
    ``solve1``, the LAPACK ``gesv`` gufunc that ``np.linalg.solve`` calls
    for a 1-D right-hand side: the same bits, without the wrapper's checks
    and errstate, which cost several times the solve itself.  Where the
    wrapper raised ``LinAlgError``, a singular system gives a NaN step; the
    loop runs with numpy's invalid-value flag ignored, so neither that step
    nor a NaN inside ``model`` warns, and the step's NaN predicted decrease
    raises :class:`_FitFailed`.  The point, its trial step, the clip into
    the box and the active set are Python floats, the form the model takes;
    the parameter array is built on return, and the all-free case skips the
    fancy-index copies.
    """
    def score(fx):  # the residual and the cost of the model's (values, parts)
        r = fx[0] - y if w is None else w * (fx[0] - y)
        cost = float(r @ r)
        if not math.isfinite(cost):
            raise _FitFailed("non-finite cost")
        return r, cost

    p = np.minimum(np.maximum(np.asarray(p0, dtype=float), lo), hi).tolist()
    bounds = list(zip(lo.tolist(), hi.tolist()))
    fx = model(x, *p) if start is None else start
    r, cost = score(fx)
    lam, nu, normal = 1e-3, 2.0, None
    with np.errstate(invalid="ignore"):
        for _ in range(_LM_MAX_EVALS):
            if normal is None:
                j = jac(*fx[1], *p)
                if w is not None:
                    j = w[:, None] * j
                normal = j.T @ j
                grad = j.T @ r
                free = [not ((pi <= l and g > 0.0) or (pi >= h and g < 0.0))
                        for pi, g, (l, h) in zip(p, grad.tolist(), bounds)]
                all_free = all(free)
                a_free, g_free = ((normal, grad) if all_free
                                  else (normal[free][:, free], grad[free]))
                neg_g = -g_free
                scale = a_free.diagonal()
                damping = np.diag(scale)
            step = _solve1(a_free + lam * damping, neg_g)
            # decrease of the linearized cost ||r + J step||^2
            predicted = float(step @ (lam * scale * step - g_free))
            if predicted <= _LM_TOL * cost:
                return np.array(p), normal, fx
            if predicted != predicted:
                raise _FitFailed("singular system")
            trial = _trial_point(p, step.tolist(), free, bounds)
            fx_trial = model(x, *trial)
            r_trial, cost_trial = score(fx_trial)
            gain = (cost - cost_trial) / predicted
            if gain > 0.0:
                p, fx, r, cost, normal = trial, fx_trial, r_trial, cost_trial, None
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu = 2.0
            else:
                lam *= nu
                nu *= 2.0
    raise _FitFailed("evaluation cap")


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D float array holding no NaN, from a partition:
    numpy's mean of the middle one or two values, a sum started at 0.0
    (which turns a -0.0 into 0.0) divided by their count."""
    half = values.size // 2
    if values.size % 2:
        return 0.0 + float(np.partition(values, half)[half])
    below, above = np.partition(values, (half - 1, half))[half - 1:half + 1].tolist()
    return (0.0 + below + above) / 2.0


def fit_line(scan: ScanRecord, shape: str = "lorentzian") -> FitResult:
    """Nonlinear least-squares line fit with a constant background.

    ``shape`` selects "lorentzian" or "voigt" (pseudo-Voigt).  Two passes:
    an unweighted fit seeds Poisson weights taken from the model prediction
    (weighting by observed counts would bias the width low).  Pathological
    data yields ``converged=False`` instead of raising; fewer than 8 points
    or no signal above the background estimate is an input error.  Both
    passes run :func:`_least_squares` inside the parameter bounds with the
    models' closed-form Jacobians; pass one returns the model evaluation
    at its optimum, which sets the weights and starts pass two, and
    ``center_stderr`` comes from the inverse of the weighted normal matrix
    at the optimum.  The background and grid-step estimates are
    :func:`_median`'s, ``np.median``'s value from one partition.
    """
    if shape not in ("lorentzian", "voigt"):
        raise InputError(f"unknown line shape {shape!r}")
    x = scan.detunings
    y = np.asarray(scan.counts, dtype=float)
    if x.size < 8:
        raise InputError("need at least 8 scan points to fit a line")
    bg0 = _median(y)  # a ScanRecord holds no NaN count
    if not np.any(y > bg0 + 3.0 * np.sqrt(max(bg0, 1.0))):
        raise InputError("no counts above the background estimate")

    i_max = int(np.argmax(y))
    amp0 = max(y[i_max] - bg0, 1.0)
    c0 = float(x[i_max])
    above = y > bg0 + 0.5 * amp0
    step = _median(np.diff(x))
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
            popt, _, fitted = _least_squares(model, jac, x, y, None, p0, lo, hi)
            w = 1.0 / np.sqrt(np.maximum(fitted[0], 1.0))
            popt, normal, _ = _least_squares(model, jac, x, y, w, popt, lo, hi,
                                             fitted)
        pcov = np.linalg.inv(normal)  # absolute Poisson weights: no rescaling
    except (_FitFailed, np.linalg.LinAlgError):
        return FitResult(center=c0, fwhm=fwhm0 * MHZ_PER_GHZ, amplitude=amp0,
                         center_stderr=np.inf, converged=False, background=bg0)

    amp, center, fwhm_ghz, bg = popt[0], popt[1], popt[2], popt[-1]
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
    cdf = np.arange(1, v.size + 1, dtype=float)
    cdf /= v.size
    return v, cdf


def best_window_fraction(values, window_ghz: float) -> tuple[float, float]:
    """Largest fraction of values inside any interval of width ``window_ghz``.

    Returns (fraction, window_start); each candidate window is anchored at a
    sample point, which is sufficient for the maximum of a closed interval.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise InputError("empty sample")
    return _best_window(v, window_ghz)


# window starts counted per searchsorted pass: bounds the temporaries
_WINDOW_BLOCK = 8192


def _best_window(v: np.ndarray, window_ghz: float) -> tuple[float, float]:
    """:func:`best_window_fraction` of a non-empty sample already sorted.

    The starts are counted one block at a time; the first largest count
    wins, as one ``argmax`` over the whole sample would pick it.
    """
    if not 0.0 < window_ghz < math.inf:
        raise InputError("window width must be finite and > 0")
    best, best_count = 0, 0  # every window holds its own start
    for start in range(0, v.size, _WINDOW_BLOCK):
        block = v[start:start + _WINDOW_BLOCK]
        counts = np.searchsorted(v, block + window_ghz, side="right")
        counts -= np.arange(start, start + block.size)
        i = int(np.argmax(counts))
        if counts[i] > best_count:
            best, best_count = start + i, int(counts[i])
    return best_count / v.size, float(v[best])


def cdf_and_window(resonances, window_ghz: float) -> CdfResult:
    """Empirical CDF of resonance frequencies plus their best-window fraction,
    from one sort."""
    values, cdf = empirical_cdf(resonances)
    fraction, start = _best_window(values, window_ghz)
    return CdfResult(values=values, cdf=cdf, best_fraction=fraction,
                     best_window_start=start)


def sample_inhomogeneous(n: int, cluster_sigma_ghz: float,
                         cluster_weight: float, broad_span_ghz: float,
                         rng: np.random.Generator,
                         center_ghz: float = 0.0) -> np.ndarray:
    """Draw ``n`` resonance frequencies from a cluster-plus-broad mixture.

    With probability ``cluster_weight`` a resonance comes from a normal
    cluster of the given sigma, otherwise from a uniform span; both centered
    on ``center_ghz``.  The membership, cluster and uniform draws are made
    in that order, n of each, and the mixture is formed in the uniform
    draws' array.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    in_cluster = rng.random(n) < cluster_weight
    cluster = rng.normal(center_ghz, cluster_sigma_ghz, n)
    out = rng.uniform(-0.5 * broad_span_ghz, 0.5 * broad_span_ghz, n)
    out += center_ghz
    np.copyto(out, cluster, where=in_cluster)
    return out


# ---------------------------------------------------------------------------
# Serialization: CSV with a JSON metadata sidecar.

# rows formatted per ``%`` pass and written at once: bounds the text held
_CSV_BLOCK_ROWS = 4096
# cells csv.writer's QUOTE_MINIMAL encloses in double quotes
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_quote(text: str) -> str:
    """A string cell as ``csv.writer`` writes it."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(name: str, values, blank_nan: bool) -> tuple[str, np.ndarray]:
    """The printf conversion of one column and the values it formats.

    Integers and flags print as decimal integers, other numbers as
    ``%.12g`` and strings quoted as csv does; with ``blank_nan`` NaN cells
    are left empty.
    """
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind in "biu":
        return "%d", array
    if kind == "f":
        array = array.astype(float, copy=False)
        if blank_nan and np.isnan(array).any():
            return "%s", np.array(["" if x != x else "%.12g" % x
                                   for x in array.tolist()], dtype=object)
        return "%.12g", array
    if kind in "UO":
        # the cells come from ``values``: numpy's str dtype drops trailing NULs
        cells = np.array(values, dtype=object).tolist()
        return "%s", np.array([_csv_quote(str(x)) for x in cells], dtype=object)
    raise ContractError(f"CSV column {name!r} has unsupported dtype {array.dtype}")


def write_csv(path: Path, header_lines: list[str], columns: dict,
              blank_nan: tuple[str, ...] = ()) -> None:
    """``# `` header lines, the column names, then one row per index of the
    1-D ``columns`` (name -> values), in csv's dialect.

    Every column is checked before the file and any missing parent
    directory are created, so a bad column leaves neither behind.  The body
    is then formatted and written one block of rows at a time; if a block
    fails, the partial file and the directories this call made are removed
    before the error propagates.
    """
    cols = [_csv_column(name, values, name in blank_nan)
            for name, values in columns.items()]
    if len({values.shape for _, values in cols}) != 1 or cols[0][1].ndim != 1:
        raise ContractError("CSV columns must be 1-D and of equal length: " + ", ".join(
            f"{name} {values.shape}" for name, (_, values) in zip(columns, cols)))
    width = len(cols)
    if width == 1 and cols[0][0] == "%s":  # csv quotes a lone empty field
        lone = cols[0][1]
        lone[lone == ""] = '""'
    header = ",".join(map(_csv_quote, columns)) or '""'
    row = ",".join(conv for conv, _ in cols) + "\r\n"
    n_rows = len(cols[0][1])
    made = [d for d in path.parents if not d.exists()]  # deepest first
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = path.open("w", newline="", encoding="utf-8")
    try:
        with fh:
            fh.write("".join(f"# {line}\n" for line in header_lines) + header + "\r\n")
            for start in range(0, n_rows, _CSV_BLOCK_ROWS):
                stop = min(start + _CSV_BLOCK_ROWS, n_rows)
                cells = [None] * ((stop - start) * width)
                for j, (_, values) in enumerate(cols):
                    cells[j::width] = values[start:stop].tolist()
                fh.write(row * (stop - start) % tuple(cells))
    except BaseException:  # interrupts too: a refused run writes nothing
        path.unlink(missing_ok=True)
        for directory in made:
            directory.rmdir()
        raise


def _json_finite(node):
    """``node`` with every non-finite float, nested or not, replaced by None."""
    if isinstance(node, float):
        return node if math.isfinite(node) else None
    if isinstance(node, dict):
        return {key: _json_finite(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_json_finite(value) for value in node]
    return node


def write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as strict JSON: a NaN or infinite float becomes null.
    A missing parent directory is created once the text is formatted."""
    text = json.dumps(_json_finite(payload), indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def scan_to_csv(scan: ScanRecord, path: str | Path,
                header_lines: list[str] | None = None,
                include_expected: bool = True) -> Path:
    """Write a scan as CSV (detuning_GHz, counts[, expected]) plus sidecar."""
    path = Path(path)
    counts_are_int = np.issubdtype(np.asarray(scan.counts).dtype, np.integer)
    columns = {"detuning_GHz": scan.detunings, "counts": scan.counts}
    if include_expected and scan.expected is not None:
        columns["expected_counts"] = scan.expected
    write_csv(path, header_lines or [], columns)
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
