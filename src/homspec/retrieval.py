"""Recover optical depth, visibility and residual delay from coincidence maps.

The forward model is the fringe form of the coincidence probability,

    P(od, V, delay) = 1/2 * [1 - V*cos(od*G + delay*H)] * J,

with G the unit-OD phase difference between the two spectral coordinates,
H the linear phase of a residual idler delay and J the joint spectral
intensity, followed by an optional boxcar over bins and normalization to
unit sum over the unmasked bins.  Normalizing both data and model removes
the unknown detection prefactor, so only fringe shape is fit.

The cost oscillates in od and delay (fringe aliasing), so a local solve
from an arbitrary start lands in the wrong fringe.  For fixed (od, delay)
the best visibility has a closed form (variable projection; Golub &
Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)), so the fit scans this
profile cost on an (od, delay) grid a quarter fringe apart at the fastest
unmasked bin, refines the best grid point on the profile, and ends with
one bounded trust-region solve of the full problem.  tau is not fitted; it
comes from the independently measured cell temperature.  Bins within
mask_radius of the resonance on either axis are excluded: there the phase
varies too fast for the bin grid and the boxcar only approximates the
averaging.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.optimize import least_squares

from .constants import RB87
from .errors import DegenerateMap
from .interference import CoincidenceMap, MapKind, phase_difference
from .spectra import JointSpectralAmplitude, WavelengthGrid
from .vapor import DispersionModel, spectral_phase

FS = 1e-15

_SCAN_OD_RANGE = (1.0, 1e5)  # scanned wherever the od bounds overlap it
_SCAN_CHUNK = 8  # od rows per batched scan evaluation (about 1 MB per array)
_VISIBILITY_BOUNDS = (0.0, 1.0)
_TOL = 1e-12  # ftol, xtol and gtol of the trust-region solves
_MAX_NFEV = 400  # function evaluations per trust-region solve


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
    """Precomputed pieces of the fringe model and its parameter Jacobian.

    Without a boxcar every bin stands alone, so the unit phases and the
    intensity are stored for the unmasked bins only; with one they stay
    full matrices and ``smooth`` drops the masked bins after averaging.
    """

    def __init__(self, jsa: JointSpectralAmplitude, config: FitConfig, mask: np.ndarray):
        centers = jsa.grid_s.centers
        phase_unit = phase_difference(DispersionModel(od=1.0, tau=config.tau), centers)
        # Phase per femtosecond of residual delay.
        delay_unit = phase_difference(DispersionModel(od=0.0, tau=config.tau), centers, FS)
        self.keep = ~mask
        self.kernel = config.kernel_width
        self.fit_delay = config.fit_delay
        # Fastest fringe rates over the unmasked bins [rad per od, per fs].
        self.max_rates = (np.max(np.abs(phase_unit[self.keep])),
                          np.max(np.abs(delay_unit[self.keep])))
        arrays = (phase_unit, delay_unit, np.abs(jsa.amplitude) ** 2)
        if self.kernel == 1:
            arrays = tuple(a[self.keep] for a in arrays)
        self.phase_unit, self.delay_unit, self.jsi = arrays

    def smooth(self, arr: np.ndarray) -> np.ndarray:
        """Boxcar the trailing two (bin) axes and keep the unmasked bins."""
        if self.kernel == 1:
            return arr
        size = (1,) * (arr.ndim - 2) + (self.kernel, self.kernel)
        return ndimage.uniform_filter(arr, size=size, mode="reflect")[..., self.keep]

    def normalized_model_and_jac(self, theta: np.ndarray):
        """Model vector over unmasked bins and its Jacobian columns."""
        od, vis = theta[0], theta[1]
        delay_fs = theta[2] if self.fit_delay else 0.0
        dphi = od * self.phase_unit + delay_fs * self.delay_unit
        cos = np.cos(dphi)
        sin = np.sin(dphi)
        smooth = self.smooth(0.5 * (1.0 - vis * cos) * self.jsi)
        total = float(np.sum(smooth))
        if total <= 0.0:
            return np.zeros(smooth.size), np.zeros((smooth.size, 3 if self.fit_delay else 2))
        m = smooth / total
        cols = [self.smooth(0.5 * vis * sin * self.phase_unit * self.jsi),
                self.smooth(-0.5 * cos * self.jsi)]
        if self.fit_delay:
            cols.append(self.smooth(0.5 * vis * sin * self.delay_unit * self.jsi))
        jac = np.empty((m.size, len(cols)))
        for k, col in enumerate(cols):
            jac[:, k] = (col - m * float(np.sum(col))) / total
        return m, jac


def _estimate_weights(data: np.ndarray, kind: MapKind) -> np.ndarray:
    """Per-bin inverse-variance weights for the normalized data vector.

    Covariance estimates have a per-bin variance that tracks the underlying
    raw rate; with only the normalized map available, the positive part of
    the data plus its mean magnitude serves as a plug-in for that rate.
    Probability maps (noiseless theory) get uniform weights.
    """
    if kind is not MapKind.COVARIANCE:
        return np.ones_like(data)
    scale = float(np.mean(np.abs(data)))
    if scale <= 0.0:
        return np.ones_like(data)
    return 1.0 / (np.clip(data, 0.0, None) + scale)


def _weighted_problem(cmap: CoincidenceMap, jsa: JointSpectralAmplitude, config: FitConfig):
    """The fringe model, normalized data and square-root weights over the unmasked bins."""
    if cmap.kind not in (MapKind.COVARIANCE, MapKind.PROBABILITY):
        raise ValueError(f"fit expects a covariance or probability map, got {cmap.kind.value}")
    if not (cmap.grid_p.is_close(jsa.grid_s) and cmap.grid_m.is_close(jsa.grid_i)):
        raise ValueError("map and amplitude grids differ")
    if not np.any(cmap.values != 0.0):
        raise DegenerateMap("input map is identically zero")
    mask = resonance_mask(cmap.grid_p, cmap.grid_m, RB87.d1_wavelength, config.mask_radius)
    data = cmap.values[~mask]
    total = float(np.sum(data))
    if total <= 0.0:
        raise DegenerateMap("unmasked bins sum to a non-positive total")
    data = data / total
    sqrt_w = np.sqrt(_estimate_weights(data, cmap.kind))
    return _FringeModel(jsa, config, mask), data, sqrt_w


def _objective_functions(model: _FringeModel, data: np.ndarray, sqrt_w: np.ndarray):
    def residuals(theta: np.ndarray) -> np.ndarray:
        m, _ = model.normalized_model_and_jac(theta)
        return sqrt_w * (m - data)

    def jacobian(theta: np.ndarray) -> np.ndarray:
        _, jac = model.normalized_model_and_jac(theta)
        return sqrt_w[:, None] * jac

    def cost(theta: np.ndarray) -> float:
        r = residuals(theta)
        return float(r @ r)

    def gradient(theta: np.ndarray) -> np.ndarray:
        m, jac = model.normalized_model_and_jac(theta)
        r = sqrt_w * (m - data)
        return 2.0 * (sqrt_w[:, None] * jac).T @ r

    return residuals, jacobian, cost, gradient, 3 if model.fit_delay else 2


def prepare_objective(cmap: CoincidenceMap, jsa: JointSpectralAmplitude, config: FitConfig):
    """Build the weighted least-squares pieces shared by fit and diagnostics.

    Returns (residual_fn, jacobian_fn, cost_fn, gradient_fn, n_params); the
    parameter vector is [od, visibility, delay_fs] (delay omitted when not
    fitted).  Raises DegenerateMap when the map carries no usable signal.
    """
    return _objective_functions(*_weighted_problem(cmap, jsa, config))


class _Profile:
    """The objective minimized over visibility in closed form, at fixed phases.

    With u = J/sum(J) and v = S/sum(S) (after the boxcar), the weighted
    residual is a + t*b with a = sqrt_w*(u - data) and b = sqrt_w*(v - u),
    t = V*sum(S) / ((1 - V)*sum(J) + V*sum(S)).  V in [0, 1] is t in [0, 1],
    so the best t is a clipped one-dimensional linear least-squares
    solution.  S = 2*sin^2(phi/2)*J rather than J - J*cos(phi)
    keeps low-od maps, whose phases are small, free of cancellation.
    """

    def __init__(self, model: _FringeModel, data: np.ndarray, sqrt_w: np.ndarray):
        self.model = model
        j = model.smooth(model.jsi)
        self.j_sum = float(np.sum(j))
        u = j / self.j_sum
        a = sqrt_w * (u - data)
        self.w = sqrt_w**2
        # b.a, b.b and sum(S) follow from products of S with these columns.
        self.products = np.stack((np.ones_like(u), sqrt_w * a, self.w * u), axis=1)
        self.a_u, self.u_w_u, self.a_a = sqrt_w * a @ u, self.w * u @ u, a @ a

    def _best(self, s: np.ndarray):
        """sum(S), best t and cost for rows of S; the rows are overwritten."""
        s_sum, s_a, s_u = (s @ self.products).T
        s_w_s = np.square(s, out=s) @ self.w
        with np.errstate(invalid="ignore", divide="ignore"):
            p = s_a / s_sum - self.a_u  # b.a
            q = s_w_s / s_sum**2 - 2.0 * s_u / s_sum + self.u_w_u  # b.b
            t = np.clip(-p / q, 0.0, 1.0)
            cost = self.a_a + t * (2.0 * p + t * q)
        return s_sum, t, np.where(s_sum > 0.0, cost, np.inf)

    def costs(self, ods: np.ndarray, delays_fs: np.ndarray) -> np.ndarray:
        """Profile cost on the grid ods x delays_fs; inf where the phases vanish.

        Splitting the half phase by angle addition leaves sines on the axes.
        """
        half_d = 0.5 * np.multiply.outer(delays_fs, self.model.delay_unit)
        sin_d, cos_d = np.sin(half_d), np.cos(half_d)
        root_two_j = np.sqrt(2.0 * self.model.jsi)
        out = np.empty((ods.size, delays_fs.size))
        for i in range(0, ods.size, _SCAN_CHUNK):
            half_o = 0.5 * np.multiply.outer(ods[i:i + _SCAN_CHUNK], self.model.phase_unit)
            sin_o = np.sin(half_o) * root_two_j
            cos_o = np.cos(half_o) * root_two_j
            for k in range(delays_fs.size):
                s = sin_o * cos_d[k]
                s += cos_o * sin_d[k]
                out[i:i + _SCAN_CHUNK, k] = self._best(self.model.smooth(np.square(s, out=s)))[2]
        return out

    def visibility(self, od: float, delay_fs: float = 0.0) -> float:
        """The visibility that minimizes the objective at one (od, delay)."""
        half = 0.5 * (od * self.model.phase_unit + delay_fs * self.model.delay_unit)
        s_sum, t, _ = self._best(self.model.smooth(2.0 * np.sin(half[None]) ** 2 * self.model.jsi))
        return float(t[0] * self.j_sum / ((1.0 - t[0]) * s_sum[0] + t[0] * self.j_sum))


def _scan_grid(model: _FringeModel, config: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """od and delay values of the profile scan.

    od covers the od bounds within _SCAN_OD_RANGE, or all of the bounds
    where they lie outside it, in steps of 5% of od up to a quarter fringe
    (0.5*pi rad) of the fastest unmasked bin; delay spans its bounds a
    quarter fringe apart.
    """
    od_step, delay_step = (0.5 * math.pi / rate for rate in model.max_rates)
    (od_lo, od_hi), (range_lo, range_hi) = config.od_bounds, _SCAN_OD_RANGE
    lo, hi = max(od_lo, range_lo), min(od_hi, range_hi)
    if not lo < hi:
        lo, hi = config.od_bounds
    ods = [lo]
    while ods[-1] < hi:
        ods.append(ods[-1] + min(od_step, 0.05 * max(ods[-1], 1.0)))
    ods[-1] = hi
    d_lo, d_hi = config.delay_bounds_fs
    delays = np.linspace(d_lo, d_hi, math.ceil((d_hi - d_lo) / delay_step) + 1)
    return np.array(ods, dtype=float), delays if config.fit_delay else np.zeros(1)


def fit(cmap: CoincidenceMap, jsa: JointSpectralAmplitude, config: FitConfig) -> FitResult:
    """Bounded least-squares fit of {od, visibility, delay}.

    The visibility-profiled cost is scanned on an (od, delay) grid, its best
    point refined on the profile, and one trust-region solve of all
    parameters finishes from there.  ``iterations`` counts the profile
    evaluations plus the final solve's function evaluations.  A failed
    convergence is reported through ``converged``, never as an exception.
    """
    problem = _weighted_problem(cmap, jsa, config)
    residuals, jacobian, _, _, n_params = _objective_functions(*problem)
    profile = _Profile(*problem)

    ods, delays = _scan_grid(problem[0], config)
    costs = profile.costs(ods, delays)
    i, k = np.unravel_index(np.argmin(costs), costs.shape)

    lower, upper = np.array(
        [config.od_bounds, _VISIBILITY_BOUNDS, config.delay_bounds_fs][:n_params]).T
    solver = dict(method="trf", x_scale="jac", ftol=_TOL, xtol=_TOL, gtol=_TOL,
                  max_nfev=_MAX_NFEV)

    def full(x):  # theta with the best visibility for x = [od(, delay_fs)]
        return np.insert(x, 1, profile.visibility(*x))

    def reduced_jacobian(x):
        # Kaufman's variable-projection Jacobian: the od and delay columns less
        # their part along the visibility column, unless V sits on a bound.
        theta = full(x)
        jac = jacobian(theta)
        rest = np.delete(jac, 1, axis=1)
        if lower[1] < theta[1] < upper[1]:
            rest -= np.outer(jac[:, 1], jac[:, 1] @ rest / (jac[:, 1] @ jac[:, 1]))
        return rest

    refined = least_squares(
        lambda x: residuals(full(x)),
        np.array([ods[i], delays[k]][: n_params - 1]),
        jac=reduced_jacobian,
        bounds=(np.delete(lower, 1), np.delete(upper, 1)),
        # Noiseless low-od maps leave a ridge whose gradient falls below any
        # absolute gtol long before od settles, so only steps stop the refine.
        **{**solver, "gtol": None},
    )
    theta0 = full(refined.x)
    final = least_squares(
        residuals,
        np.clip(theta0, lower + 1e-12, upper - 1e-12),
        jac=jacobian,
        bounds=(lower, upper),
        **solver,
    )
    theta = final.x
    cost = 2.0 * final.cost  # scipy reports 0.5*sum(r^2)
    jac = jacobian(theta)
    dof = max(jac.shape[0] - n_params, 1)
    sigma2 = cost / dof
    try:
        cov = np.linalg.pinv(jac.T @ jac) * sigma2
        sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        denom = sigmas[0] * sigmas[1]
        corr = float(cov[0, 1] / denom) if denom > 0.0 else math.nan
    except np.linalg.LinAlgError:
        cov = None
        sigmas = np.full(n_params, math.nan)
        corr = math.nan

    param_sigma = {"od": float(sigmas[0]), "visibility": float(sigmas[1])}
    param_sigma["delay_fs"] = float(sigmas[2]) if config.fit_delay else 0.0
    return FitResult(
        od_hat=float(theta[0]),
        visibility_hat=float(theta[1]),
        delay_fs=float(theta[2]) if config.fit_delay else 0.0,
        cost=float(cost),
        iterations=int(costs.size + refined.nfev + final.nfev),
        converged=bool(final.status > 0),
        param_sigma=param_sigma,
        od_visibility_correlation=corr,
        covariance=cov,
    )
