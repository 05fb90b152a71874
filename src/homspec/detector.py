"""Monte Carlo model of the intensified single-photon camera.

Each camera frame integrates R = f_rep * t_exp source repetitions.  Per
repetition a photon pair is generated with probability chi; the pair either
produces a cross-port coincidence (bin pair sampled from the coincidence
map) or a same-port double (port chosen evenly, bins sampled from the
residual port spectrum).  Photons survive detection with probability eta,
dark events arrive Poisson-distributed and uniform over bins, and a pixel
clicks at most once per frame (binary occupancy with saturation).

Estimators follow the frame-averaged definitions: the raw map is the mean
cross-port product <n+(a) n-(b)>, the accidental map the product of means
<n+(a)><n-(b)>, and their difference is the photon-number covariance.  Many
repetitions per frame make the accidental term substantial, which is why
the subtraction is needed at all.

Randomness is drawn from counter-based Philox streams keyed by
(seed, frame-chunk index), so the output is bit-reproducible for a given
seed and independent of how chunks would be scheduled.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InconsistentMarginals
from .interference import CoincidenceMap, MapKind
from .sampling import AliasTable
from .spectra import WavelengthGrid

FRAME_CHUNK = 1 << 16
MARGINAL_TOL = 1e-6


@dataclass(frozen=True)
class DetectionParams:
    """Source and camera parameters for frame simulation.

    chi: pair-generation probability per repetition (<< 1)
    eta: per-arm efficiency, detection included
    f_rep: source repetition rate [Hz]; t_exp: frame exposure [s]
    dark_rate: mean spurious events per region per frame
    """

    chi: float
    eta: float
    f_rep: float
    t_exp: float
    dark_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.chi <= 1.0:
            raise ValueError(f"chi must lie in [0, 1], got {self.chi}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if not self.f_rep > 0.0 or not self.t_exp > 0.0:
            raise ValueError("f_rep and t_exp must be positive")
        if self.dark_rate < 0.0:
            raise ValueError(f"dark_rate must be non-negative, got {self.dark_rate}")
        if self.repetitions < 1:
            raise ValueError("f_rep * t_exp must round to at least one repetition")

    @property
    def repetitions(self) -> int:
        """Repetitions integrated per frame, R = round(f_rep * t_exp)."""
        return int(round(self.f_rep * self.t_exp))


@dataclass(frozen=True)
class FrameBatch:
    """Sparse per-frame binary detection events for the two port regions.

    Events are stored as parallel arrays (frame index, region, bin index) in
    canonical order: sorted by frame, then region (0 = plus, 1 = minus),
    then bin, with no duplicates -- a pixel clicks at most once per frame.
    """

    n_frames: int
    grid_plus: WavelengthGrid
    grid_minus: WavelengthGrid
    frames: np.ndarray
    regions: np.ndarray
    bins: np.ndarray

    def __post_init__(self):
        if self.n_frames < 0:
            raise ValueError("n_frames must be non-negative")
        frames = np.ascontiguousarray(self.frames, dtype=np.uint32)
        regions = np.ascontiguousarray(self.regions, dtype=np.uint8)
        bins = np.ascontiguousarray(self.bins, dtype=np.uint16)
        if not (frames.shape == regions.shape == bins.shape):
            raise ValueError("event arrays must have identical length")
        if frames.size:
            if int(frames.max()) >= self.n_frames:
                raise ValueError("event frame index out of range")
            if int(regions.max()) > 1:
                raise ValueError("region must be 0 (plus) or 1 (minus)")
            n_bins = np.where(regions == 0, self.grid_plus.n_bins, self.grid_minus.n_bins)
            if np.any(bins >= n_bins):
                raise ValueError("event bin index out of range")
        for arr, name in ((frames, "frames"), (regions, "regions"), (bins, "bins")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_events(self) -> int:
        return int(self.frames.size)

    def occupancy(self, region: int) -> np.ndarray:
        """Dense (n_frames, n_bins) binary occupancy for one region."""
        grid = self.grid_plus if region == 0 else self.grid_minus
        occ = np.zeros((self.n_frames, grid.n_bins), dtype=np.uint8)
        sel = self.regions == region
        occ[self.frames[sel], self.bins[sel]] = 1
        return occ


def _canonical_batch(
    n_frames: int,
    grid_plus: WavelengthGrid,
    grid_minus: WavelengthGrid,
    frames: np.ndarray,
    regions: np.ndarray,
    bins: np.ndarray,
) -> FrameBatch:
    """Sort, deduplicate (binary-pixel saturation) and freeze events."""
    code = (
        frames.astype(np.int64) << 17
        | regions.astype(np.int64) << 16
        | bins.astype(np.int64)
    )
    code = np.unique(code)
    return FrameBatch(
        n_frames=n_frames,
        grid_plus=grid_plus,
        grid_minus=grid_minus,
        frames=(code >> 17).astype(np.uint32),
        regions=((code >> 16) & 1).astype(np.uint8),
        bins=(code & 0xFFFF).astype(np.uint16),
    )


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _validate_marginals(
    pc_map: CoincidenceMap, marginals: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Check the port spectra against the coincidence map's row/column sums.

    Each spectrum must integrate to one photon per pair, and nowhere may the
    coincidence rate exceed the total port rate.  Returns the residual
    (bunching) spectra for the two ports [1/nm].
    """
    m_plus = np.asarray(marginals[0], dtype=float)
    m_minus = np.asarray(marginals[1], dtype=float)
    step_p = pc_map.grid_p.step_nm
    step_m = pc_map.grid_m.step_nm
    if m_plus.shape != (pc_map.grid_p.n_bins,) or m_minus.shape != (pc_map.grid_m.n_bins,):
        raise InconsistentMarginals("marginal lengths do not match the map grids")
    for name, marg, step in (("plus", m_plus, step_p), ("minus", m_minus, step_m)):
        total = float(np.sum(marg)) * step
        if abs(total - 1.0) > MARGINAL_TOL:
            raise InconsistentMarginals(
                f"{name}-port spectrum integrates to {total!r}, expected 1"
            )
    res_plus = m_plus - np.sum(pc_map.values, axis=1) * step_m
    res_minus = m_minus - np.sum(pc_map.values, axis=0) * step_p
    low = min(float(res_plus.min()), float(res_minus.min()))
    if low < -MARGINAL_TOL:
        raise InconsistentMarginals(
            f"coincidence rate exceeds a port spectrum (residual {low!r})"
        )
    return np.clip(res_plus, 0.0, None), np.clip(res_minus, 0.0, None)


def simulate_frames(
    pc_map: CoincidenceMap,
    marginals: tuple[np.ndarray, np.ndarray],
    params: DetectionParams,
    n_frames: int,
) -> FrameBatch:
    """Simulate camera frames for a coincidence map and its port spectra.

    ``marginals`` are the mean single-photon spectra at the two ports
    [1/nm], e.g. from interference.port_spectra.  Deterministic for a given
    params.seed.  Raises InconsistentMarginals when the spectra disagree
    with the map's row/column sums.
    """
    if pc_map.kind is not MapKind.PROBABILITY:
        raise ValueError(f"need a probability map, got kind={pc_map.kind.value}")
    if n_frames < 0:
        raise ValueError("n_frames must be non-negative")
    res_plus, res_minus = _validate_marginals(pc_map, marginals)

    reps = params.repetitions
    area = pc_map.area_nm2
    w_coinc = min(float(np.sum(pc_map.values)) * area, 1.0)
    sum_res_plus = float(np.sum(res_plus)) * pc_map.grid_p.step_nm
    sum_res_minus = float(np.sum(res_minus)) * pc_map.grid_m.step_nm
    w_bunch_plus = 0.5 * sum_res_plus
    w_bunch_minus = 0.5 * sum_res_minus
    # Branch thresholds for a single uniform draw per generated pair.
    t_coinc = w_coinc
    t_plus = w_coinc + w_bunch_plus / max(w_bunch_plus + w_bunch_minus, 1e-300) * (
        1.0 - w_coinc
    )

    peak_bin = max(
        float(np.max(marginals[0])) * pc_map.grid_p.step_nm,
        float(np.max(marginals[1])) * pc_map.grid_m.step_nm,
    )
    n_bins_min = min(pc_map.grid_p.n_bins, pc_map.grid_m.n_bins)
    if reps * params.chi * params.eta * peak_bin + params.dark_rate / n_bins_min > 1.0:
        warnings.warn(
            "per-frame mean occupancy exceeds 1 in the peak bin; "
            "binary-pixel saturation will distort statistics",
            RuntimeWarning,
        )

    coinc_alias = AliasTable(pc_map.values) if w_coinc > 0.0 else None
    plus_alias = AliasTable(res_plus) if sum_res_plus > 0.0 else None
    minus_alias = AliasTable(res_minus) if sum_res_minus > 0.0 else None
    n_bins_m = pc_map.grid_m.n_bins

    ev_frames: list[np.ndarray] = []
    ev_regions: list[np.ndarray] = []
    ev_bins: list[np.ndarray] = []

    for chunk_index, start in enumerate(range(0, max(n_frames, 1), FRAME_CHUNK)):
        if start >= n_frames:
            break
        size = min(FRAME_CHUNK, n_frames - start)
        rng = _chunk_rng(params.seed, chunk_index)

        n_pairs = rng.binomial(reps, params.chi, size=size)
        total = int(n_pairs.sum())
        pair_frame = np.repeat(np.arange(start, start + size, dtype=np.uint32), n_pairs)

        branch = rng.random(total)
        is_coinc = branch < t_coinc
        is_plus = ~is_coinc & (branch < t_plus)
        is_minus = ~is_coinc & ~is_plus
        # Rounding can push a sliver of branch mass onto a port with an empty
        # residual spectrum; drop those pairs instead of sampling nothing.
        if plus_alias is None:
            is_plus &= False
        if minus_alias is None:
            is_minus &= False

        n_c = int(is_coinc.sum())
        if coinc_alias is not None:
            flat = coinc_alias.draw(rng, n_c)
            bin_a = (flat // n_bins_m).astype(np.uint16)
            bin_b = (flat % n_bins_m).astype(np.uint16)
        else:
            bin_a = np.zeros(0, dtype=np.uint16)
            bin_b = np.zeros(0, dtype=np.uint16)

        n_p = int(is_plus.sum())
        n_m = int(is_minus.sum())
        plus_pair = (
            plus_alias.draw(rng, 2 * n_p).astype(np.uint16)
            if plus_alias is not None
            else np.zeros(0, dtype=np.uint16)
        )
        minus_pair = (
            minus_alias.draw(rng, 2 * n_m).astype(np.uint16)
            if minus_alias is not None
            else np.zeros(0, dtype=np.uint16)
        )

        detected = rng.random(2 * total) < params.eta

        cand_frames = []
        cand_regions = []
        cand_bins = []
        frames_c = pair_frame[is_coinc]
        cand_frames += [frames_c, frames_c]
        cand_regions += [np.zeros(n_c, np.uint8), np.ones(n_c, np.uint8)]
        cand_bins += [bin_a, bin_b]
        frames_p = np.repeat(pair_frame[is_plus], 2)
        cand_frames.append(frames_p)
        cand_regions.append(np.zeros(2 * n_p, np.uint8))
        cand_bins.append(plus_pair)
        frames_m = np.repeat(pair_frame[is_minus], 2)
        cand_frames.append(frames_m)
        cand_regions.append(np.ones(2 * n_m, np.uint8))
        cand_bins.append(minus_pair)

        cf = np.concatenate(cand_frames)
        cr = np.concatenate(cand_regions)
        cb = np.concatenate(cand_bins)
        ev_frames.append(cf[detected[: cf.size]])
        ev_regions.append(cr[detected[: cf.size]])
        ev_bins.append(cb[detected[: cf.size]])

        if params.dark_rate > 0.0:
            for region, grid in ((0, pc_map.grid_p), (1, pc_map.grid_m)):
                counts = rng.poisson(params.dark_rate, size=size)
                n_dark = int(counts.sum())
                dark_bins = rng.integers(0, grid.n_bins, size=n_dark).astype(np.uint16)
                ev_frames.append(
                    np.repeat(np.arange(start, start + size, dtype=np.uint32), counts)
                )
                ev_regions.append(np.full(n_dark, region, dtype=np.uint8))
                ev_bins.append(dark_bins)

    return _canonical_batch(
        n_frames,
        pc_map.grid_p,
        pc_map.grid_m,
        np.concatenate(ev_frames) if ev_frames else np.zeros(0, np.uint32),
        np.concatenate(ev_regions) if ev_regions else np.zeros(0, np.uint8),
        np.concatenate(ev_bins) if ev_bins else np.zeros(0, np.uint16),
    )


def simulate_uncorrelated_frames(
    grid_plus: WavelengthGrid,
    grid_minus: WavelengthGrid,
    marginals: tuple[np.ndarray, np.ndarray],
    params: DetectionParams,
    n_frames: int,
) -> FrameBatch:
    """Diagnostic generator: both ports fire independently.

    Per-port rates match simulate_frames (one photon per port per generated
    pair before thinning) but carry no cross-port correlation, so the
    covariance map of the result is statistically zero.
    """
    if n_frames < 0:
        raise ValueError("n_frames must be non-negative")
    m_plus = np.asarray(marginals[0], dtype=float)
    m_minus = np.asarray(marginals[1], dtype=float)
    reps = params.repetitions
    p_detect = params.chi * params.eta
    aliases = (AliasTable(m_plus), AliasTable(m_minus))

    ev_frames: list[np.ndarray] = []
    ev_regions: list[np.ndarray] = []
    ev_bins: list[np.ndarray] = []
    for chunk_index, start in enumerate(range(0, max(n_frames, 1), FRAME_CHUNK)):
        if start >= n_frames:
            break
        size = min(FRAME_CHUNK, n_frames - start)
        rng = _chunk_rng(params.seed, chunk_index)
        for region, grid in ((0, grid_plus), (1, grid_minus)):
            counts = rng.binomial(reps, p_detect, size=size)
            n_ev = int(counts.sum())
            bins = aliases[region].draw(rng, n_ev).astype(np.uint16)
            ev_frames.append(
                np.repeat(np.arange(start, start + size, dtype=np.uint32), counts)
            )
            ev_regions.append(np.full(n_ev, region, dtype=np.uint8))
            ev_bins.append(bins)
            if params.dark_rate > 0.0:
                dcounts = rng.poisson(params.dark_rate, size=size)
                n_dark = int(dcounts.sum())
                ev_frames.append(
                    np.repeat(np.arange(start, start + size, dtype=np.uint32), dcounts)
                )
                ev_regions.append(np.full(n_dark, region, dtype=np.uint8))
                ev_bins.append(rng.integers(0, grid.n_bins, size=n_dark).astype(np.uint16))

    return _canonical_batch(
        n_frames,
        grid_plus,
        grid_minus,
        np.concatenate(ev_frames) if ev_frames else np.zeros(0, np.uint32),
        np.concatenate(ev_regions) if ev_regions else np.zeros(0, np.uint8),
        np.concatenate(ev_bins) if ev_bins else np.zeros(0, np.uint16),
    )


def _require_frames(batch: FrameBatch):
    if batch.n_frames == 0:
        raise EmptyBatch("estimator needs at least one frame")
    if batch.n_frames < 2:
        warnings.warn(
            "estimating coincidence statistics from a single frame; "
            "accidental subtraction is essentially meaningless",
            RuntimeWarning,
        )


def raw_coincidences(batch: FrameBatch) -> CoincidenceMap:
    """Raw coincidence map <n+(a) n-(b)>: per-frame cross-port products."""
    _require_frames(batch)
    plus = batch.regions == 0
    p_frames = batch.frames[plus]
    p_bins = batch.bins[plus]
    m_frames = batch.frames[~plus]
    m_bins = batch.bins[~plus]

    values = np.zeros((batch.grid_plus.n_bins, batch.grid_minus.n_bins))
    if p_frames.size and m_frames.size:
        minus_per_frame = np.bincount(m_frames, minlength=batch.n_frames)
        m_start = np.concatenate(([0], np.cumsum(minus_per_frame)))
        per_plus = minus_per_frame[p_frames]
        total = int(per_plus.sum())
        if total:
            ends = np.cumsum(per_plus)
            local = np.arange(total) - np.repeat(ends - per_plus, per_plus)
            a_idx = np.repeat(p_bins, per_plus)
            b_idx = m_bins[np.repeat(m_start[p_frames], per_plus) + local]
            np.add.at(values, (a_idx, b_idx), 1.0)
    values /= batch.n_frames
    return CoincidenceMap(batch.grid_plus, batch.grid_minus, values, MapKind.RAW)


def accidental_map(batch: FrameBatch) -> CoincidenceMap:
    """Accidental coincidence map <n+(a)><n-(b)>: outer product of means."""
    _require_frames(batch)
    plus = batch.regions == 0
    mean_plus = (
        np.bincount(batch.bins[plus], minlength=batch.grid_plus.n_bins) / batch.n_frames
    )
    mean_minus = (
        np.bincount(batch.bins[~plus], minlength=batch.grid_minus.n_bins)
        / batch.n_frames
    )
    return CoincidenceMap(
        batch.grid_plus, batch.grid_minus, np.outer(mean_plus, mean_minus), MapKind.ACCIDENTAL
    )


def estimate_maps(batch: FrameBatch) -> tuple[CoincidenceMap, CoincidenceMap, CoincidenceMap]:
    """Raw, accidental and covariance maps of one batch, each computed once."""
    raw = raw_coincidences(batch)
    accidental = accidental_map(batch)
    covariance = CoincidenceMap(
        batch.grid_plus, batch.grid_minus, raw.values - accidental.values, MapKind.COVARIANCE
    )
    return raw, accidental, covariance


def covariance_map(batch: FrameBatch) -> CoincidenceMap:
    """Photon-number covariance: raw minus accidental, bin pair by bin pair."""
    return estimate_maps(batch)[2]
