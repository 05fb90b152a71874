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
from an arbitrary start lands in the wrong fringe.  The phase separates per
bin, dphi = theta_a - theta_b with theta_a = od*g_a + delay*h_a, so on the
unmasked block data/J is a constant less a rank-2 matrix in
(cos, sin)(theta_a): the map is a hologram of the per-bin phase, and the fit
reads theta off it up to one offset and one sign.  It starts from the point
of an (od, delay) grid, a quarter fringe apart at the fastest unmasked bin,
whose phase best matches that hologram; the match separates into od and
delay factors, so the grid costs trig on (od + delay values) x bins and
one matrix product.  From there bounded Levenberg-Marquardt steps refine the
smoothed model with the visibility profiled out: for fixed (od, delay) the
best V has a closed form (variable projection; Golub & Pereyra, SIAM J.
Numer. Anal. 10, 413 (1973)).  Each refine point is one evaluation: per-bin
half-angle phasors give S, and S the best V, the model and its Jacobian.
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
_SCAN_BLOCK = 128  # od or delay values per block of the scan
_MAX_SCAN = 1_000_000  # grid points + bins allowed to the scan: bounds its scores and products
_HOLOGRAM_ITERATIONS = 5  # EM steps of the rank-2 fit
_HOLOGRAM_FLOOR = 1e-3  # J/max(J) below which a bin carries no weight in the hologram
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
                raise ValueError(f"bounds must be finite and satisfy low < high, got {(low, high)}")


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with a local covariance estimate, in the fit report's order.

    ``param_sigma`` holds the square roots of the parameter covariance's
    diagonal under the parameter names, and ``od_visibility_correlation``
    its od-visibility correlation.
    """

    od_hat: float
    visibility_hat: float
    delay_fs: float
    cost: float
    converged: bool
    iterations: int
    param_sigma: dict = field(default_factory=dict)
    od_visibility_correlation: float = math.nan


def resonance_mask(grid: WavelengthGrid, lambda0: float, mask_radius: int) -> np.ndarray:
    """Boolean matrix, True where a bin is excluded by the resonance cross."""
    near = np.abs(np.arange(grid.n_bins) - grid.nearest_bin(lambda0)) <= mask_radius
    return near[:, None] | near[None, :]


class _FringeModel:
    """The fringe model on the unmasked bins, holding their data and weights.

    The phases come from per-bin half-angle phasors s, c = sin, cos(theta/2):
    on bin pairs, D = s_a*c_b - c_a*s_b is sin(dphi/2), so S = 2*D^2*J and
    dS/d(dphi) = 2*D*(c_a*c_b + s_a*s_b)*J.  The mask is a symmetric cross,
    so the unmasked rows and columns are one index vector ``bins``: without
    a boxcar the pairs are bins by bins; with one they are the full grid,
    and ``smooth`` applies the boxcar matrix B on both sides, then drops the
    masked bins.
    """

    def __init__(self, jsa: JointSpectralAmplitude, config: FitConfig, mask: np.ndarray,
                 data: np.ndarray, sqrt_w: np.ndarray):
        centers = jsa.grid.centers
        self.keep = ~mask
        self.kernel = config.kernel_width
        self.box = boxcar_matrix(mask.shape[0], self.kernel)
        # Per-bin phase per od and per fs (theta_a above), each less its mean
        # so that small phase differences are small phases.
        per_bin = np.stack((spectral_phase(DispersionModel(od=1.0, tau=config.tau), centers),
                            2.0 * math.pi * CODATA.c * FS / centers))
        self.bin_phase = per_bin - per_bin.mean(axis=1, keepdims=True)
        # The unmasked rows, which are also the unmasked columns.
        self.bins = np.flatnonzero(np.any(self.keep, axis=1))
        # Fastest fringe rates over the unmasked bins [rad per od, per fs].
        phase = self.bin_phase[:, self.bins]
        self.max_rates = phase.max(axis=1) - phase.min(axis=1)
        full = np.arange(mask.shape[0])
        self.pairs = np.ix_(full, full) if self.kernel > 1 else np.ix_(self.bins, self.bins)
        self.jsi = (np.abs(jsa.amplitude) ** 2)[self.pairs]
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
        """theta, the weighted residuals and their Jacobian at x = [od, delay_fs].

        The model is (1 - V)*smooth(J) + V*smooth(S) at unit sum, V as given or
        else the best V at x: with u, v the unit-sum smooth(J), smooth(S), the
        model is (1 - t)*u + t*v, t = V*sum(S) / ((1 - V)*sum(J) + V*sum(S)), so
        the best t in [0, 1] is a clipped linear solve, and V follows from it.
        """
        half = 0.5 * (x @ self.bin_phase)
        (s_a, s_b), (c_a, c_b), (rate_a, rate_b) = (
            [v[..., i] for i in self.pairs] for v in (np.sin(half), np.cos(half), self.bin_phase))
        d = s_a * c_b - c_a * s_b
        s = self.smooth(2.0 * d * d * self.jsi)
        slope = 2.0 * d * (c_a * c_b + s_a * s_b) * self.jsi
        if visibility is None:
            s_sum = float(np.sum(s))
            with np.errstate(invalid="ignore", divide="ignore"):
                b = self.sqrt_w * (s / s_sum - self.u)
                t = np.clip(-(self.a @ b) / (b @ b), 0.0, 1.0)
                visibility = float(t * self.j_sum / ((1.0 - t) * s_sum + t * self.j_sum))
            del b
        theta = np.insert(x, 1, visibility)
        model = 0.5 * ((1.0 - visibility) * self.j + visibility * s)
        total = float(np.sum(model))
        if total <= 0.0:
            return theta, -self.sqrt_w * self.data, np.zeros((model.size, theta.size))
        model /= total
        # The rest is formed in place, the Jacobian in one (3, m) array of rows od, V, delay.
        jac = np.empty((3, model.size))
        np.subtract(s, self.j, out=jac[1])
        jac[1] *= 0.5
        del s
        # dS/dx = slope*(rate_a - rate_b), by products: no bin-pair phase is formed.
        for row, ra, rb in zip((0, 2), rate_a, rate_b):
            np.multiply(slope, ra, out=d)
            d -= slope * rb
            np.multiply(self.smooth(d), 0.5 * visibility, out=jac[row])
        for row, row_sum in zip(jac, np.sum(jac, axis=1)):
            row -= row_sum * model
        jac /= total
        jac *= self.sqrt_w
        model -= self.data
        model *= self.sqrt_w  # the residual, written over the model
        return theta, model, jac.T


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
    if not cmap.grid.is_close(jsa.grid):
        raise ConfigError(
            f"map grid ({cmap.grid.n_bins} bins) does not match the "
            f"configured grid ({jsa.grid.n_bins} bins); adjust grid_* settings"
        )
    mask = resonance_mask(cmap.grid, RB87.d1_wavelength, config.mask_radius)
    if np.all(mask):
        raise ConfigError(f"mask_radius = {config.mask_radius} masks every bin of the "
                          f"{cmap.grid.n_bins}x{cmap.grid.n_bins} map")
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
    (residual_fn, jacobian_fn, cost_fn, gradient_fn), each a function of
    the parameter vector [od, visibility, delay_fs].  Raises ConfigError, as
    fit does, when the map's grid is not the amplitude's, and DegenerateMap
    when the map carries no usable signal.
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

    return lambda t: weighted(t)[0], lambda t: weighted(t)[1], cost, gradient


def _hologram(model: _FringeModel) -> np.ndarray:
    """The phase of each unmasked row, read off the map up to one offset and one sign.

    On the unmasked block, data/J = alpha - beta*cos(theta_a - theta_b): a
    constant less the rank-2 matrix Y Y' with Y_a = sqrt(beta)*(cos, sin)(theta_a).
    Y is fitted with weights J/max(J), zero below _HOLOGRAM_FLOOR, by EM
    imputation (Srebro & Jaakkola, "Weighted low-rank approximations", ICML
    2003): fill in the data with the current fit as the weights fall short of
    1, take the top two eigenpairs of alpha less the filled block, then alpha
    as the weighted mean of data/J + Y Y'.  Y's 2x2 orthogonal freedom is
    exactly the offset and the sign of theta.
    """
    shape = (model.bins.size, model.bins.size)
    j = model.j.reshape(shape)
    weight = j / j.max()
    weight[weight < _HOLOGRAM_FLOOR] = 0.0
    ratio = np.divide(model.data.reshape(shape), j, out=np.zeros(shape), where=weight > 0.0)
    alpha, rank2 = np.sum(weight * ratio) / np.sum(weight), np.zeros(shape)
    for _ in range(_HOLOGRAM_ITERATIONS):
        gap = weight * (alpha - ratio) + (1.0 - weight) * rank2  # alpha less the filled block
        values, vectors = np.linalg.eigh(0.5 * (gap + gap.T))
        y = vectors[:, -2:] * np.sqrt(np.clip(values[-2:], 0.0, None))
        rank2 = y @ y.T
        alpha = np.sum(weight * (ratio + rank2)) / np.sum(weight)
    return np.arctan2(y[:, -1], y[:, 0])  # a one-row block has one eigenpair


def _coherent_scores(model: _FringeModel, ods: np.ndarray, delays_fs: np.ndarray) -> np.ndarray:
    """How well the phase od*g + delay*h matches the hologram, on the grid ods x delays_fs.

    The smoothed row a has the phasor sum over n of B_an*exp(i*phase_n), so
    the score is max over +- of |r' exp(-i*phase)| over all bins, with
    r = B[bins]'(w*exp(+-i*theta)) and w the block's row sums of J; the sign
    and |.| absorb the hologram's sign and offset.  The phase separates,
    od*g + delay*h, so a block of grid points costs trig on its od and delay
    values times the bins, and one matrix product.
    """
    phasors = np.exp(1j * np.multiply.outer((1.0, -1.0), _hologram(model)))
    w = np.sum(model.j.reshape(model.bins.size, -1), axis=1)
    r = (w * phasors) @ model.box[model.bins]
    g, h = model.bin_phase
    scores = np.empty((ods.size, delays_fs.size))
    for k in range(0, delays_fs.size, _SCAN_BLOCK):
        right = np.exp(-1j * np.multiply.outer(h, delays_fs[k:k + _SCAN_BLOCK]))
        for i in range(0, ods.size, _SCAN_BLOCK):
            left = r[:, None, :] * np.exp(-1j * np.multiply.outer(ods[i:i + _SCAN_BLOCK], g))
            scores[i:i + _SCAN_BLOCK, k:k + _SCAN_BLOCK] = np.max(np.abs(left @ right), axis=0)
    return scores


def _scan_grid(model: _FringeModel, config: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """od and delay values of the scan that picks the refine's start.

    od covers the od bounds within _SCAN_OD_RANGE, or all of the bounds
    where they lie outside it, in steps of 5% of od up to a quarter fringe
    (0.5*pi rad) of the fastest unmasked bin; delay spans its bounds a
    quarter fringe apart.  The bound on the scan is checked as each od point
    is added: ConfigError is raised as soon as the scan would exceed
    _MAX_SCAN grid points and bins, before any delay array or score is built.
    """
    od_step, delay_step = (0.5 * math.pi / rate for rate in model.max_rates)
    (od_lo, od_hi), (range_lo, range_hi) = config.od_bounds, _SCAN_OD_RANGE
    lo, hi = max(od_lo, range_lo), min(od_hi, range_hi)
    if not lo < hi:
        lo, hi = config.od_bounds
    d_lo, d_hi = config.delay_bounds_fs
    n_delays = math.ceil((d_hi - d_lo) / delay_step) + 1
    n_bins = model.keep.shape[0]
    ods = [lo]
    while ods[-1] < hi:
        ods.append(ods[-1] + min(od_step, 0.05 * max(ods[-1], 1.0)))
        if len(ods) * n_delays + n_bins > _MAX_SCAN:
            raise ConfigError(
                f"the start scan needs over {_MAX_SCAN:.0e} evaluations; "
                f"narrow fit_od_min/fit_od_max or fit_delay_min/fit_delay_max")
    ods[-1] = hi
    return np.array(ods, dtype=float), np.linspace(d_lo, d_hi, n_delays)


def fit(cmap: CoincidenceMap, jsa: JointSpectralAmplitude, config: FitConfig) -> FitResult:
    """Bounded least-squares fit of {od, visibility, delay}.

    The grid point whose phase best matches the map's hologram starts
    bounded Levenberg-Marquardt steps on the smoothed model's visibility
    profile, which keep each evaluation only as normal-equation products;
    the last accepted step's give the cost and the covariance.  ``iterations``
    counts grid points and refine evaluations; a parameter with no effect
    there (od and delay at V = 0) has sigma inf.  ``converged`` reports
    whether the refine met its tolerance; it is never an exception.
    """
    model = _weighted_problem(cmap, jsa, config)
    ods, delays = _scan_grid(model, config)
    scores = _coherent_scores(model, ods, delays)
    i, k = np.unravel_index(np.argmax(scores), scores.shape)

    lower, upper = np.array([config.od_bounds, _VISIBILITY_BOUNDS, config.delay_bounds_fs]).T

    def reduced(x):  # theta at x = [od, delay_fs] with the best V; r'r, R'R, -R'r, J'J, idle cols
        # R, Kaufman's variable-projection Jacobian, is J's od and delay columns
        # less their part along the visibility column, unless V sits on a bound.
        theta, r, jac = model.evaluate(x)
        rest = np.delete(jac, 1, axis=1)
        if lower[1] < theta[1] < upper[1]:
            rest -= np.outer(jac[:, 1], jac[:, 1] @ rest / (jac[:, 1] @ jac[:, 1]))
        return theta, float(r @ r), rest.T @ rest, -rest.T @ r, jac.T @ jac, ~np.any(jac, axis=0)

    # Levenberg-Marquardt (More, LNM 630 (1978)) with Marquardt's diag(J'J)
    # scaling.  Noiseless low-od maps leave a ridge whose gradient falls below
    # any absolute tolerance long before od settles, so only the step (xtol)
    # and the relative cost decrease of an accepted step (ftol) stop it.
    x_lo, x_hi = np.delete(lower, 1), np.delete(upper, 1)
    x = np.array([ods[i], delays[k]])
    theta, cost, jtj, descent, full_jtj, idle = reduced(x)
    nfev, damping, converged = 1, 1e-3, False
    while not converged and nfev < _MAX_NFEV:
        # At V = 0 od and delay have no effect: their zero columns take unit scale.
        damped = jtj + damping * np.diag(np.where(np.diag(jtj) > 0.0, np.diag(jtj), 1.0))
        step = np.clip(x + np.linalg.solve(damped, descent), x_lo, x_hi) - x
        converged = bool(np.linalg.norm(step) <= _TOL * (_TOL + np.linalg.norm(x)))
        if not converged:
            trial = reduced(x + step)
            nfev += 1
            gain = cost - trial[1]
            if gain > 0.0:
                converged = bool(gain <= _TOL * cost)
                x, damping = x + step, 0.1 * damping
                theta, cost, jtj, descent, full_jtj, idle = trial
            else:
                damping *= 10.0
    try:
        cov = np.linalg.pinv(full_jtj) * (cost / max(model.data.size - theta.size, 1))
        cov[idle, idle] = math.inf  # a parameter that moves nothing has no finite error
        sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        finite = 0.0 < sigmas[0] < math.inf and 0.0 < sigmas[1] < math.inf
        corr = float(cov[0, 1] / (sigmas[0] * sigmas[1])) if finite else math.nan
    except np.linalg.LinAlgError:
        sigmas = np.full(theta.size, math.nan)
        corr = math.nan

    return FitResult(
        od_hat=float(theta[0]),
        visibility_hat=float(theta[1]) + 0.0,  # + 0.0 turns a -0.0 from the profile into 0.0
        delay_fs=float(theta[2]),
        cost=cost,
        iterations=int(scores.size + nfev),
        converged=converged,
        param_sigma={"od": float(sigmas[0]), "visibility": float(sigmas[1]),
                     "delay_fs": float(sigmas[2])},
        od_visibility_correlation=corr,
    )
