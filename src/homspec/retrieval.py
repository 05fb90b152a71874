"""Recover optical depth, visibility and residual delay from coincidence maps.

The forward model is the fringe form of the coincidence probability,

    P(od, V, delay) = 1/2 * [1 - V*cos(dphi)] * J = 1/2 * [(1 - V)*J + V*S],

with dphi = od*G + delay*H, S = 2*sin^2(dphi/2)*J, G the unit-OD phase
difference between the two spectral coordinates, H the linear phase of a
residual idler delay and J the joint spectral intensity, followed by an
optional boxcar over bins, B P B' with B the moving-average matrix of
interference.boxcar_matrix, and normalization to unit sum over the
unmasked bins.  Normalizing both data and model removes the unknown
detection prefactor, so only fringe shape is fit.

The cost oscillates in od and delay (fringe aliasing), so a local solve
from an arbitrary start lands in the wrong fringe.  For fixed (od, delay)
the best visibility has a closed form (variable projection; Golub &
Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)), so the fit scans this
profile cost on an (od, delay) grid a quarter fringe apart at the fastest
unmasked bin, then refines the best grid point on the profile with bounded
Levenberg-Marquardt steps.  The phase separates per bin, theta_a - theta_b
with theta_a = od*g_a + delay*h_a, so the scan evaluates its sums as
bilinear forms over per-bin half-angle phasors: a block of grid points
costs trig calls on (points x bins) arrays and matrix products, not trig
on every bin pair.  The scan profiles the model without the boxcar at every
kernel_width, since it only picks the starting fringe; the refine fits the
smoothed model, so a wide kernel costs the scan nothing.  Each refine point
is one evaluation: the same phasors give S, and S the best V, the model and
its Jacobian.
tau is not fitted; it comes from the independently measured cell
temperature.  Bins within mask_radius of the resonance on either axis are
excluded: there the phase varies too fast for the bin grid and the boxcar
only approximates the averaging.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import CODATA, RB87
from .errors import ConfigError, DegenerateMap
from .interference import CoincidenceMap, MapKind, boxcar_matrix
from .spectra import JointSpectralAmplitude, WavelengthGrid
from .vapor import DispersionModel, spectral_phase

FS = 1e-15

_SCAN_OD_RANGE = (1.0, 1e5)  # scanned wherever the od bounds overlap it
_SCAN_BLOCK = 512  # grid points per batched scan evaluation
_MAX_SCAN = 1_000_000  # scan evaluations allowed: grid points + bins
_COEF = (1.0, -2.0, 1.0)  # D^2 = s^2 c'^2 - 2 s c s' c' + c^2 s'^2 (see _Profile)
# S^2 = 4*J^2 * sum over p, q of _COEF[p]*_COEF[q] * left[p]*left[q] x right[p]*right[q];
# the (p, q) and (q, p) terms are equal, so each pair is kept once (p >= q).
_SQUARE_TERMS = tuple((p, q, 4.0 * _COEF[p] * _COEF[q] * (1.0 if p == q else 2.0))
                      for p in range(3) for q in range(p + 1))
_VISIBILITY_BOUNDS = (0.0, 1.0)
_TOL = 1e-12  # ftol and xtol of the profile refine
_MAX_NFEV = 400  # function evaluations allowed to the profile refine


@dataclass(frozen=True)
class FitConfig:
    """Settings for the coincidence-map fit.

    tau is the Doppler-broadened lifetime fixed from the measured cell
    temperature (vapor.doppler_lifetime); it is not a fit parameter.  The
    resonance sits at the Rb D1 line and visibility is bounded to [0, 1].
    """

    tau: float
    od_bounds: tuple[float, float] = (0.0, 1e6)
    delay_bounds_fs: tuple[float, float] = (-100.0, 100.0)
    fit_delay: bool = True
    mask_radius: int = 2
    kernel_width: int = 1

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if self.mask_radius < 0:
            raise ValueError("mask_radius must be non-negative")
        if self.kernel_width < 1 or self.kernel_width % 2 == 0:
            raise ValueError(f"kernel_width must be odd and >= 1, got {self.kernel_width}")
        for low, high in (self.od_bounds, self.delay_bounds_fs):
            if not -math.inf < low < high < math.inf:
                raise ValueError("bounds must be finite and satisfy low < high")


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with a local covariance estimate.

    ``covariance`` is the full parameter covariance matrix in the order
    (od, visibility[, delay_fs]); ``param_sigma`` holds its diagonal square
    roots under the parameter names.
    """

    od_hat: float
    visibility_hat: float
    delay_fs: float
    cost: float
    iterations: int
    converged: bool
    param_sigma: dict = field(default_factory=dict)
    od_visibility_correlation: float = math.nan
    covariance: np.ndarray | None = None


def resonance_mask(
    grid_p: WavelengthGrid,
    grid_m: WavelengthGrid,
    lambda0: float,
    mask_radius: int,
) -> np.ndarray:
    """Boolean matrix, True where a bin is excluded by the resonance cross."""
    i0 = grid_p.nearest_bin(lambda0)
    j0 = grid_m.nearest_bin(lambda0)
    near_p = np.abs(np.arange(grid_p.n_bins) - i0) <= mask_radius
    near_m = np.abs(np.arange(grid_m.n_bins) - j0) <= mask_radius
    return near_p[:, None] | near_m[None, :]


def phase_profile_mod_2pi(
    od: float, tau: float, lambda0: float, grid: WavelengthGrid
) -> np.ndarray:
    """Spectral phase wrapped to [0, 2*pi) on the grid's bin centers."""
    model = DispersionModel(od=od, tau=tau, lambda0=lambda0)
    return np.mod(spectral_phase(model, grid.centers), 2.0 * math.pi)


class _FringeModel:
    """The fringe model on the unmasked bins, holding their data and weights.

    The phases come from per-bin half-angle phasors s, c = sin, cos(theta/2):
    on bin pairs, D = s_a*c_b - c_a*s_b is sin(dphi/2), so S = 2*D^2*J and
    dS/d(dphi) = 2*D*(c_a*c_b + s_a*s_b)*J.  The mask is a cross, so without
    a boxcar the pairs are the unmasked rows by the unmasked columns; with
    one they are the full grid, and ``smooth`` applies the boxcar matrix B
    on both sides, then drops the masked bins.
    """

    def __init__(self, jsa: JointSpectralAmplitude, config: FitConfig, mask: np.ndarray,
                 data: np.ndarray, sqrt_w: np.ndarray):
        centers = jsa.grid_s.centers
        self.keep = ~mask
        self.kernel = config.kernel_width
        self.box = boxcar_matrix(mask.shape[0], self.kernel)
        # Per-bin phase per od and per fs (theta_a above), each less its mean
        # so that small phase differences are small phases.
        per_bin = np.stack((spectral_phase(DispersionModel(od=1.0, tau=config.tau), centers),
                            2.0 * math.pi * CODATA.c * FS / centers))
        self.bin_phase = per_bin - per_bin.mean(axis=1, keepdims=True)
        rows, cols = (np.flatnonzero(np.any(self.keep, axis=axis)) for axis in (1, 0))
        # Fastest fringe rates over the unmasked bins [rad per od, per fs].
        phase_rows, phase_cols = self.bin_phase[:, rows], self.bin_phase[:, cols]
        self.max_rates = np.maximum(phase_rows.max(axis=1) - phase_cols.min(axis=1),
                                    phase_cols.max(axis=1) - phase_rows.min(axis=1))
        if self.kernel > 1:
            rows = cols = np.arange(mask.shape[0])
        self.pairs = np.ix_(rows, cols)
        self.intensity = np.abs(jsa.amplitude) ** 2
        self.jsi = self.intensity[self.pairs]
        self.data, self.sqrt_w = data, sqrt_w
        self.j = self.smooth(self.jsi)
        self.j_sum = float(np.sum(self.j))
        self.u = self.j / self.j_sum
        self.a = sqrt_w * (self.u - data)

    def smooth(self, arr: np.ndarray) -> np.ndarray:
        """Boxcar the trailing two (bin) axes and flatten them to the unmasked bins."""
        if self.kernel == 1:
            return arr.reshape(*arr.shape[:-2], -1)
        return (self.box @ arr @ self.box.T)[..., self.keep]

    def evaluate(self, x: np.ndarray, visibility: float | None = None):
        """theta, the weighted residuals and their Jacobian at x = [od(, delay_fs)].

        The model is (1 - V)*smooth(J) + V*smooth(S) at unit sum, V as given or
        else the best V at x: with u, v the unit-sum smooth(J), smooth(S), the
        model is (1 - t)*u + t*v, t = V*sum(S) / ((1 - V)*sum(J) + V*sum(S)), so
        the best t in [0, 1] is a clipped linear solve, and V follows from it.
        """
        rates = self.bin_phase[:x.size]
        half = 0.5 * (x @ rates)
        (s_a, s_b), (c_a, c_b), (rate_a, rate_b) = (
            [v[..., i] for i in self.pairs] for v in (np.sin(half), np.cos(half), rates))
        d = s_a * c_b - c_a * s_b
        s = self.smooth(2.0 * d * d * self.jsi)
        slope = 2.0 * d * (c_a * c_b + s_a * s_b) * self.jsi
        if visibility is None:
            s_sum = float(np.sum(s))
            with np.errstate(invalid="ignore", divide="ignore"):
                b = self.sqrt_w * (s / s_sum - self.u)
                t = np.clip(-(self.a @ b) / (b @ b), 0.0, 1.0)
                visibility = float(t * self.j_sum / ((1.0 - t) * s_sum + t * self.j_sum))
        theta = np.insert(x, 1, visibility)
        model = 0.5 * ((1.0 - visibility) * self.j + visibility * s)
        total = float(np.sum(model))
        if total <= 0.0:
            return theta, -self.sqrt_w * self.data, np.zeros((model.size, theta.size))
        m = model / total
        # dS/dx = slope*(rate_a - rate_b), by products: no bin-pair phase is formed.
        rate_cols = [0.5 * visibility * self.smooth(slope * ra - slope * rb)
                     for ra, rb in zip(rate_a, rate_b)]
        cols = np.stack([rate_cols[0], 0.5 * (s - self.j), *rate_cols[1:]])
        jac = (cols - np.sum(cols, axis=1, keepdims=True) * m) / total
        return theta, self.sqrt_w * (m - self.data), (self.sqrt_w * jac).T


def _estimate_weights(data: np.ndarray, kind: MapKind) -> np.ndarray:
    """Per-bin inverse-variance weights for the normalized data vector.

    Covariance estimates have a per-bin variance that tracks the underlying
    raw rate; with only the normalized map available, the positive part of
    the data plus its mean magnitude serves as a plug-in for that rate.  The
    data sums to 1 (_weighted_problem), so that mean is positive.
    Probability maps (noiseless theory) get uniform weights.
    """
    if kind is not MapKind.COVARIANCE:
        return np.ones_like(data)
    return 1.0 / (np.clip(data, 0.0, None) + np.mean(np.abs(data)))


def _weighted_problem(cmap: CoincidenceMap, jsa: JointSpectralAmplitude, config: FitConfig):
    """The fringe model with the normalized data and square-root weights of its bins."""
    if cmap.kind not in (MapKind.COVARIANCE, MapKind.PROBABILITY):
        raise ValueError(f"fit expects a covariance or probability map, got {cmap.kind.value}")
    if not (cmap.grid_p.is_close(jsa.grid_s) and cmap.grid_m.is_close(jsa.grid_i)):
        raise ValueError("map and amplitude grids differ")
    mask = resonance_mask(cmap.grid_p, cmap.grid_m, RB87.d1_wavelength, config.mask_radius)
    if np.all(mask):
        raise ConfigError(f"mask_radius = {config.mask_radius} masks every bin of the "
                          f"{cmap.grid_p.n_bins}x{cmap.grid_m.n_bins} map")
    if not np.any(cmap.values != 0.0):
        raise DegenerateMap("input map is identically zero")
    data = cmap.values[~mask]
    total = float(np.sum(data))
    if total <= 0.0:
        raise DegenerateMap("unmasked bins sum to a non-positive total")
    data = data / total
    sqrt_w = np.sqrt(_estimate_weights(data, cmap.kind))
    return _FringeModel(jsa, config, mask, data, sqrt_w)


def prepare_objective(cmap: CoincidenceMap, jsa: JointSpectralAmplitude, config: FitConfig):
    """The weighted least-squares objective at a given visibility, for diagnostics.

    This is the fixed-V view of the evaluation fit refines with.  Returns
    (residual_fn, jacobian_fn, cost_fn, gradient_fn, n_params); the
    parameter vector is [od, visibility, delay_fs] (delay omitted when not
    fitted).  Raises DegenerateMap when the map carries no usable signal.
    """
    model = _weighted_problem(cmap, jsa, config)

    def weighted(theta: np.ndarray):
        """Weighted residuals and their Jacobian, from one model evaluation."""
        return model.evaluate(np.delete(theta, 1), theta[1])[1:]

    def cost(theta: np.ndarray) -> float:
        r, _ = weighted(theta)
        return float(r @ r)

    def gradient(theta: np.ndarray) -> np.ndarray:
        r, jac = weighted(theta)
        return 2.0 * jac.T @ r

    return lambda t: weighted(t)[0], lambda t: weighted(t)[1], cost, gradient, 2 + config.fit_delay


class _Profile:
    """The unsmoothed objective minimized over visibility in closed form.

    The scan only has to pick the fringe the refine starts in, so it fits
    the model without the boxcar to the (possibly smoothed) data; the refine
    carries kernel_width.  With u = J/sum(J) and v = S/sum(S), the weighted
    residual is a + t*b with a = sqrt_w*(u - data) and b = sqrt_w*(v - u),
    t = V*sum(S) / ((1 - V)*sum(J) + V*sum(S)).  V in [0, 1] is t in [0, 1],
    so the best t is a clipped one-dimensional linear least-squares
    solution, found from four sums: sum(S), S.(sqrt_w*a), S.(w*u) and
    sum(w*S^2).

    The scan takes those sums as bilinear forms over per-bin phasors.  With
    s = sin(theta/2) and c = cos(theta/2) per bin, S_ab = 2*J_ab*D_ab^2 with
    D_ab = s_a*c_b - c_a*s_b, so each linear sum is
    2*(s^2' M c^2 + c^2' M s^2 - 2*(sc)' M (sc)) for a fixed bins x bins
    matrix M, and sum(w*S^2) is a sum of six such forms over products of
    s^2, sc and c^2 (_SQUARE_TERMS).  With theta less its mean over bins,
    every term is as small as the phase differences, so low-od points keep
    their relative precision (1 - cos(phi) would cancel there).
    """

    def __init__(self, model: _FringeModel):
        self.model, sqrt_w = model, model.sqrt_w
        j = model.intensity[model.keep]
        u = j / float(np.sum(j))
        a = sqrt_w * (u - model.data)
        self.w = sqrt_w**2
        # b.a, b.b and sum(S) follow from products of S with these columns.
        self.products = np.stack((np.ones_like(u), sqrt_w * a, self.w * u), axis=1)
        self.a_u, self.u_w_u, self.a_a = sqrt_w * a @ u, self.w * u @ u, a @ a

        def on_grid(values):  # unmasked-bin values on the bins x bins grid, zero in the mask
            out = np.zeros(model.keep.shape)
            out[model.keep] = values
            return out

        forms = [on_grid(col) * model.intensity for col in self.products.T]
        self.linear_forms = np.hstack([m + m.T for m in forms])
        self.square_form = on_grid(self.w) * model.intensity * model.intensity

    def _tail(self, s_sum, s_a, s_u, s_w_s):
        """Best t and cost from sum(S), S.(sqrt_w*a), S.(w*u) and sum(w*S^2)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            p = s_a / s_sum - self.a_u  # b.a
            q = s_w_s / s_sum**2 - 2.0 * s_u / s_sum + self.u_w_u  # b.b
            t = np.clip(-p / q, 0.0, 1.0)
            cost = self.a_a + t * (2.0 * p + t * q)
        return t, np.where(s_sum > 0.0, cost, np.inf)

    def _sums(self, theta: np.ndarray):
        """The four sums for rows of per-bin phases theta."""
        sin, cos = np.sin(0.5 * theta), np.cos(0.5 * theta)
        left = (sin * sin, sin * cos, cos * cos)
        right = left[::-1]  # D_ab^2 = sum over p of _COEF[p] * left[p]_a * right[p]_b
        shape = (len(theta), 3, theta.shape[1])
        s_sum, s_a, s_u = 2.0 * (
            np.einsum("kxn,kn->xk", (left[0] @ self.linear_forms).reshape(shape), right[0])
            - np.einsum("kxn,kn->xk", (left[1] @ self.linear_forms).reshape(shape), left[1]))
        s_w_s = 0.0
        for p, q, weight in _SQUARE_TERMS:
            rows, cols = left[p] * left[q], right[p] * right[q]
            s_w_s = s_w_s + weight * np.einsum("kn,kn->k", rows @ self.square_form, cols)
        return s_sum, s_a, s_u, s_w_s

    def costs(self, ods: np.ndarray, delays_fs: np.ndarray) -> np.ndarray:
        """Profile cost on the grid ods x delays_fs; inf where the phases vanish."""
        points = np.stack(np.meshgrid(ods, delays_fs, indexing="ij"), axis=-1).reshape(-1, 2)
        out = np.empty(len(points))
        for i in range(0, len(points), _SCAN_BLOCK):
            theta = points[i:i + _SCAN_BLOCK] @ self.model.bin_phase
            out[i:i + _SCAN_BLOCK] = self._tail(*self._sums(theta))[1]
        return out.reshape(ods.size, delays_fs.size)


def _scan_grid(model: _FringeModel, config: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """od and delay values of the profile scan.

    od covers the od bounds within _SCAN_OD_RANGE, or all of the bounds
    where they lie outside it, in steps of 5% of od up to a quarter fringe
    (0.5*pi rad) of the fastest unmasked bin; delay spans its bounds a
    quarter fringe apart.  The bound on the scan is checked as each od point
    is added: ConfigError is raised as soon as the scan would exceed
    _MAX_SCAN evaluations, before any delay array or profile is built.
    """
    od_step, delay_step = (0.5 * math.pi / rate for rate in model.max_rates)
    (od_lo, od_hi), (range_lo, range_hi) = config.od_bounds, _SCAN_OD_RANGE
    lo, hi = max(od_lo, range_lo), min(od_hi, range_hi)
    if not lo < hi:
        lo, hi = config.od_bounds
    d_lo, d_hi = config.delay_bounds_fs
    n_delays = math.ceil((d_hi - d_lo) / delay_step) + 1 if config.fit_delay else 1
    n_bins = model.keep.shape[0]
    ods = [lo]
    while ods[-1] < hi:
        ods.append(ods[-1] + min(od_step, 0.05 * max(ods[-1], 1.0)))
        if len(ods) * n_delays + n_bins > _MAX_SCAN:
            raise ConfigError(
                f"the profile scan needs over {_MAX_SCAN:.0e} evaluations; "
                f"narrow fit_od_min/fit_od_max or fit_delay_min/fit_delay_max")
    ods[-1] = hi
    delays = np.linspace(d_lo, d_hi, n_delays) if config.fit_delay else np.zeros(1)
    return np.array(ods, dtype=float), delays


def fit(cmap: CoincidenceMap, jsa: JointSpectralAmplitude, config: FitConfig) -> FitResult:
    """Bounded least-squares fit of {od, visibility, delay}.

    The visibility-profiled cost of the unsmoothed model is scanned on an
    (od, delay) grid, and its best point refined on the smoothed model's
    profile by bounded Levenberg-Marquardt steps whose last accepted
    evaluation gives the cost and the covariance.
    ``iterations`` counts scan points and refine evaluations; a parameter
    with no effect there (od and delay at V = 0) has sigma inf.  ``converged``
    reports whether the refine met its tolerance; it is never an exception.
    """
    model = _weighted_problem(cmap, jsa, config)
    ods, delays = _scan_grid(model, config)
    costs = _Profile(model).costs(ods, delays)
    i, k = np.unravel_index(np.argmin(costs), costs.shape)

    lower, upper = np.array(
        [config.od_bounds, _VISIBILITY_BOUNDS, config.delay_bounds_fs][:2 + config.fit_delay]).T

    def reduced(x):  # theta with the best V at x = [od(, delay_fs)], its r, J, reduced J
        # Kaufman's variable-projection Jacobian: the od and delay columns less
        # their part along the visibility column, unless V sits on a bound.
        theta, r, jac = model.evaluate(x)
        rest = np.delete(jac, 1, axis=1)
        if lower[1] < theta[1] < upper[1]:
            rest -= np.outer(jac[:, 1], jac[:, 1] @ rest / (jac[:, 1] @ jac[:, 1]))
        return theta, r, jac, rest

    # Levenberg-Marquardt (More, LNM 630 (1978)) with Marquardt's diag(J'J)
    # scaling.  Noiseless low-od maps leave a ridge whose gradient falls below
    # any absolute tolerance long before od settles, so only the step (xtol)
    # and the relative cost decrease of an accepted step (ftol) stop it.
    x_lo, x_hi = np.delete(lower, 1), np.delete(upper, 1)
    x = np.array([ods[i], delays[k]][:1 + config.fit_delay])
    theta, r, jac, rest = reduced(x)
    nfev, damping, converged = 1, 1e-3, False
    while not converged and nfev < _MAX_NFEV:
        jtj = rest.T @ rest
        # At V = 0 od and delay have no effect: their zero columns take unit scale.
        damped = jtj + damping * np.diag(np.where(np.diag(jtj) > 0.0, np.diag(jtj), 1.0))
        step = np.clip(x + np.linalg.solve(damped, -rest.T @ r), x_lo, x_hi) - x
        converged = bool(np.linalg.norm(step) <= _TOL * (_TOL + np.linalg.norm(x)))
        if not converged:
            trial = reduced(x + step)
            nfev += 1
            gain = r @ r - trial[1] @ trial[1]
            if gain > 0.0:
                converged = bool(gain <= _TOL * (r @ r))
                x, (theta, r, jac, rest), damping = x + step, trial, 0.1 * damping
            else:
                damping *= 10.0
    cost = float(r @ r)
    try:
        cov = np.linalg.pinv(jac.T @ jac) * (cost / max(jac.shape[0] - jac.shape[1], 1))
        idle = ~np.any(jac, axis=0)  # a parameter that moves nothing has no finite error
        cov[idle, idle] = math.inf
        sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        finite = 0.0 < sigmas[0] < math.inf and 0.0 < sigmas[1] < math.inf
        corr = float(cov[0, 1] / (sigmas[0] * sigmas[1])) if finite else math.nan
    except np.linalg.LinAlgError:
        cov = None
        sigmas = np.full(jac.shape[1], math.nan)
        corr = math.nan

    param_sigma = {"od": float(sigmas[0]), "visibility": float(sigmas[1])}
    param_sigma["delay_fs"] = float(sigmas[2]) if config.fit_delay else 0.0
    return FitResult(
        od_hat=float(theta[0]),
        visibility_hat=float(theta[1]) + 0.0,  # + 0.0 turns a -0.0 from the profile into 0.0
        delay_fs=float(theta[2]) if config.fit_delay else 0.0,
        cost=cost,
        iterations=int(costs.size + nfev),
        converged=converged,
        param_sigma=param_sigma,
        od_visibility_correlation=corr,
        covariance=cov,
    )
