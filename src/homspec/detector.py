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

Frames are simulated in chunks of FRAME_CHUNK.  Randomness is drawn from
counter-based Philox streams keyed by (seed, frame-chunk index), and each
chunk's events are sorted and deduplicated as the chunk is generated, so the
output is bit-reproducible for a given seed and independent of how chunks
would be scheduled.  Simulation and estimator memory follow the event count,
not the frame count.
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
        if not (0.0 < self.f_rep < np.inf and 0.0 < self.t_exp < np.inf):
            raise ValueError("f_rep and t_exp must be positive and finite")
        if not 0.0 <= self.dark_rate < np.inf:
            raise ValueError(f"dark_rate must be non-negative and finite, got {self.dark_rate}")
        if not self.f_rep * self.t_exp < np.inf or self.repetitions < 1:
            raise ValueError("f_rep * t_exp must be finite and round to at least one repetition")

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
    Construction rejects events out of range or out of that order; the
    estimators rely on it.
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
            n_plus, n_minus = self.grid_plus.n_bins, self.grid_minus.n_bins
            # The per-event limit is needed only when some bin reaches the smaller grid.
            if int(bins.max()) >= min(n_plus, n_minus):
                if np.any(bins >= np.where(regions == 0, n_plus, n_minus)):
                    raise ValueError("event bin index out of range")
            same_frame = frames[1:] == frames[:-1]
            same_region = same_frame & (regions[1:] == regions[:-1])
            increasing = (
                (frames[1:] > frames[:-1])
                | same_frame & (regions[1:] > regions[:-1])
                | same_region & (bins[1:] > bins[:-1])
            )
            if not increasing.all():
                raise ValueError("events must be in strictly increasing (frame, region, bin) order")
        for arr, name in ((frames, "frames"), (regions, "regions"), (bins, "bins")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_events(self) -> int:
        return int(self.frames.size)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _repeat_frames(start: int, counts: np.ndarray) -> np.ndarray:
    """Frame index start + i repeated counts[i] times."""
    return np.repeat(np.arange(start, start + counts.size, dtype=np.uint32), counts)


def _event_codes(frames: np.ndarray, region: int, bins: np.ndarray) -> np.ndarray:
    """Codes frame << 17 | region << 16 | bin, which sort in canonical order."""
    return frames.astype(np.int64) << 17 | region << 16 | bins


def _dark_codes(
    rng: np.random.Generator, rate: float, start: int, size: int, region: int, n_bins: int
) -> np.ndarray:
    """Poisson dark events of one region, uniform over its bins."""
    counts = rng.poisson(rate, size=size)
    bins = rng.integers(0, n_bins, size=int(counts.sum()))
    return _event_codes(_repeat_frames(start, counts), region, bins)


def _canonical_chunk(codes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort one chunk's event codes, drop repeats and split them into fields.

    Dropping repeats is the binary-pixel saturation: a pixel clicks at most
    once per frame however many photons reach it.
    """
    code = np.concatenate(codes)
    code.sort()
    keep = np.ones(code.size, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=keep[1:])
    code = code[keep]
    return (
        (code >> 17).astype(np.uint32),
        (code >> 16 & 1).astype(np.uint8),
        (code & 0xFFFF).astype(np.uint16),
    )


def _simulate_chunks(
    n_frames: int, grid_plus: WavelengthGrid, grid_minus: WavelengthGrid, seed: int, chunk_codes
) -> FrameBatch:
    """Run ``chunk_codes(rng, start, size)`` over frame chunks into one batch.

    Chunks cover ascending, disjoint frame ranges, so canonicalizing each
    chunk as it is generated and concatenating the results gives the
    canonical order of the whole run without a global sort; memory follows
    the events kept, not the frames or the candidates.  A run of zero frames
    is one empty chunk.
    """
    chunks = [
        _canonical_chunk(
            chunk_codes(_chunk_rng(seed, index), start, min(FRAME_CHUNK, n_frames - start))
        )
        for index, start in enumerate(range(0, max(n_frames, 1), FRAME_CHUNK))
    ]
    frames, regions, bins = (np.concatenate(field) for field in zip(*chunks))
    return FrameBatch(n_frames, grid_plus, grid_minus, frames, regions, bins)


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
    no_bins = np.zeros(0, dtype=np.int64)

    def chunk_codes(rng: np.random.Generator, start: int, size: int) -> list[np.ndarray]:
        n_pairs = rng.binomial(reps, params.chi, size=size)
        total = int(n_pairs.sum())
        pair_frame = _repeat_frames(start, n_pairs)

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
            bin_a, bin_b = np.divmod(coinc_alias.draw(rng, n_c), n_bins_m)
        else:
            bin_a = bin_b = no_bins
        n_p = int(is_plus.sum())
        n_m = int(is_minus.sum())
        plus_pair = plus_alias.draw(rng, 2 * n_p) if plus_alias is not None else no_bins
        minus_pair = minus_alias.draw(rng, 2 * n_m) if minus_alias is not None else no_bins

        detected = rng.random(2 * total) < params.eta

        frames_c = pair_frame[is_coinc]
        candidates = np.concatenate([
            _event_codes(frames_c, 0, bin_a),
            _event_codes(frames_c, 1, bin_b),
            _event_codes(np.repeat(pair_frame[is_plus], 2), 0, plus_pair),
            _event_codes(np.repeat(pair_frame[is_minus], 2), 1, minus_pair),
        ])
        codes = [candidates[detected[: candidates.size]]]
        if params.dark_rate > 0.0:
            codes += [
                _dark_codes(rng, params.dark_rate, start, size, region, grid.n_bins)
                for region, grid in ((0, pc_map.grid_p), (1, pc_map.grid_m))
            ]
        return codes

    return _simulate_chunks(n_frames, pc_map.grid_p, pc_map.grid_m, params.seed, chunk_codes)


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

    def chunk_codes(rng: np.random.Generator, start: int, size: int) -> list[np.ndarray]:
        codes = []
        for region, grid in ((0, grid_plus), (1, grid_minus)):
            counts = rng.binomial(reps, p_detect, size=size)
            bins = aliases[region].draw(rng, int(counts.sum()))
            codes.append(_event_codes(_repeat_frames(start, counts), region, bins))
            if params.dark_rate > 0.0:
                codes.append(_dark_codes(rng, params.dark_rate, start, size, region, grid.n_bins))
        return codes

    return _simulate_chunks(n_frames, grid_plus, grid_minus, params.seed, chunk_codes)


def _require_frames(batch: FrameBatch):
    if batch.n_frames == 0:
        raise EmptyBatch("estimator needs at least one frame")
    if batch.n_frames < 2:
        warnings.warn(
            "estimating coincidence statistics from a single frame; "
            "accidental subtraction is essentially meaningless",
            RuntimeWarning,
        )


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges starts[i], ..., starts[i] + lengths[i] - 1."""
    out = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    out += np.arange(out.size)
    return out


def raw_coincidences(batch: FrameBatch) -> CoincidenceMap:
    """Raw coincidence map <n+(a) n-(b)>: per-frame cross-port products.

    In canonical order each frame's events form one run, plus events first,
    so the products are enumerated run by run: work and memory follow the
    events and their products, not the frame count.
    """
    _require_frames(batch)
    n_bins_m = batch.grid_minus.n_bins
    flat = np.zeros(0, dtype=np.intp)
    if batch.n_events:
        frames, bins = batch.frames, batch.bins
        starts = np.flatnonzero(np.concatenate(([True], frames[1:] != frames[:-1])))
        n_minus = np.add.reduceat(batch.regions, starts, dtype=np.intp)
        n_plus = np.diff(starts, append=frames.size) - n_minus
        both = (n_plus > 0) & (n_minus > 0)
        starts, n_plus, n_minus = starts[both], n_plus[both], n_minus[both]
        # Each plus event of a run pairs with every minus event of that run.
        per_plus = np.repeat(n_minus, n_plus)
        flat = np.repeat(bins[_ranges(starts, n_plus)].astype(np.intp) * n_bins_m, per_plus)
        flat += bins[_ranges(np.repeat(starts + n_plus, n_plus), per_plus)]
    counts = np.bincount(flat, minlength=batch.grid_plus.n_bins * n_bins_m)
    values = counts.reshape(batch.grid_plus.n_bins, n_bins_m) / batch.n_frames
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
