"""Monte Carlo model of the intensified single-photon camera.

Each camera frame integrates R = f_rep * t_exp source repetitions.  Per
repetition a photon pair is generated with probability chi; the pair either
produces a cross-port coincidence (bin pair sampled from the coincidence
map) or a same-port double (port chosen evenly, bins sampled from the
residual port spectrum).  Photons survive detection with probability eta,
dark events arrive Poisson-distributed and uniform over bins, and a pixel
clicks at most once per frame (binary occupancy with saturation).

The simulation draws only what the camera sees.  A pair with at least one
detected photon is a Bernoulli(q) event per repetition, q = chi * (1 - (1 -
eta)^2), so the chunk's repetition slots are thinned to those events
directly, by geometric gaps between them (Devroye, Non-Uniform Random
Variate Generation, 1986, ch. X).  Each event then draws its outcome by
inversion of one uniform over seven probabilities (ibid., ch. III): a
coincidence or a double on either port, with one or both photons seen.  Bins
are drawn only for the seen photons: the joint coincidence table for both
photons of a coincidence, its row or column marginal for one, the residual
spectrum for the photons of a double.  Dark counts are one Poisson total per
region spread uniformly over the chunk's frames.  No draw is made per frame
or per undetected photon, so the cost follows the detected events.  The
uncorrelated control is the same generator on the ports' product map.

Estimators follow the frame-averaged definitions: the raw map is the mean
cross-port product <n+(a) n-(b)>, the accidental map the product of means
<n+(a)><n-(b)>, and their difference is the photon-number covariance.  Many
repetitions per frame make the accidental term substantial, which is why
the subtraction is needed at all.  All three come from exact integer sums,
and a batch of no frames gives three zero maps.

Frames are simulated in chunks of about CHUNK_EVENTS expected events: a
run's chunk length in frames follows its expected events a frame, so dense
and sparse runs draw chunks of the same size.  The length depends on the
settings alone, never on the run length or the thread count.  Randomness is
drawn from counter-based Philox streams keyed by (seed, chunk index), and
each chunk's events are sorted and deduplicated as the chunk is generated,
so the output is bit-reproducible for a given seed and independent of the
order the chunks finish in on the thread pool that draws them (numpy's
draws and sorts release the GIL).  An event stream is an iterator of
FrameBatch blocks, at least one, of whole frames, in order, each with the
first block's header: n_frames and the one grid of both ports.  stream
checks one.  simulate_chunks hands a run on as one, zhf.write_frames writes
each block as it arrives, zhf.read_blocks reads one back in fixed pieces and
EventCounts counts one, so no stage holds a whole run.  Drawing one chunk
holds at most 3x its events' int64 codes at once, its output fields
included (2.2x measured on a dense chunk, 2.4x for the uncorrelated
control): each pair's uniform shrinks to a one-byte outcome, the pairs'
arrays are freed before any bin is drawn, and the codes are sorted,
deduplicated and split into fields in place.  So a worker's scratch follows
its chunk, and the simulation's memory follows the chunk window.  A run
that would ask for more than MAX_FRAME_EVENTS expected events or 2^46
repetitions a frame, or for fewer than 0 or 2^32 or more frames, is
rejected with ConfigError before any chunk is drawn.
"""

import itertools
import math
import os
import warnings
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InconsistentMarginals
from .interference import CoincidenceMap, MapKind
from .sampling import AliasTable
from .spectra import WavelengthGrid

CHUNK_EVENTS = 1 << 16  # expected events per chunk; a run's chunk length follows
MAX_FRAME_EVENTS = 128  # expected events a frame may ask for
_LIMIT_FRAMES = 1 << 16  # a shorter run may ask for as many events in all as this many frames
_MAX_SLOTS = 1 << 62  # repetition slots per chunk; slot sums stay inside int64
_MAX_FRAME_REPS = _MAX_SLOTS // _LIMIT_FRAMES  # repetitions a frame may ask for
_MAX_FRAMES = 1 << 32  # frames per run: frame indices are uint32
_BATCH_SIGMAS = 6.0  # a batch of gaps covers the mean successes plus this many sigma
MARGINAL_TOL = 1e-6
_MAX_WORKERS = 4  # threads over frame chunks


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
        if not 0 <= self.seed < 2**64:  # a Philox key word
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

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
    Both regions bin on ``grid``.  Construction rejects events out of range
    or out of that order; the estimators rely on it.
    """

    n_frames: int
    grid: WavelengthGrid
    frames: np.ndarray
    regions: np.ndarray
    bins: np.ndarray

    def __post_init__(self):
        if self.n_frames < 0:
            raise ValueError("n_frames must be non-negative")
        frames = _field(self.frames, np.uint32, "frames")
        regions = _field(self.regions, np.uint8, "regions")
        bins = _field(self.bins, np.uint16, "bins")
        if not (frames.shape == regions.shape == bins.shape):
            raise ValueError("event arrays must have identical length")
        if frames.size:
            if int(frames.max()) >= self.n_frames:
                raise ValueError("event frame index out of range")
            if int(regions.max()) > 1:
                raise ValueError("region must be 0 (plus) or 1 (minus)")
            if int(bins.max()) >= self.grid.n_bins:
                raise ValueError("event bin index out of range")
            code = _event_codes(frames, regions, bins)
            if not np.all(code[1:] > code[:-1]):
                raise ValueError("events must be in strictly increasing (frame, region, bin) order")
        for arr, name in ((frames, "frames"), (regions, "regions"), (bins, "bins")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_events(self) -> int:
        return int(self.frames.size)


def _field(values, dtype, name: str) -> np.ndarray:
    """An event field as a contiguous array of dtype, refused if the cast would change a value."""
    arr = np.asarray(values)
    # Only a cast from another type can wrap or truncate, so fields of dtype are not scanned.
    if arr.dtype != dtype and arr.size and (
        arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() > np.iinfo(dtype).max
    ):
        raise ValueError(f"event {name} must be integers in [0, {np.iinfo(dtype).max}]")
    return np.ascontiguousarray(arr, dtype=dtype)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _event_codes(frames: np.ndarray, region: int | np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Codes frame << 17 | region << 16 | bin, which sort in canonical order."""
    code = frames.astype(np.int64)  # the one copy: the rest is done in place
    code <<= 1
    code |= region
    code <<= 16
    code |= bins
    return code


def _bernoulli_slots(rng: np.random.Generator, p: float, n_slots: int) -> np.ndarray:
    """Ascending indices of the successes among n_slots Bernoulli(p) trials.

    The successes are drawn as geometric gaps between them, so the cost
    follows the successes, not the trials.
    """
    parts = []
    last = -1  # the latest success so far
    while p > 0.0 and last < n_slots - 1:
        remaining = n_slots - 1 - last  # the largest gap sum that stays inside
        mean = remaining * p
        gaps = rng.geometric(p, size=int(mean + _BATCH_SIGMAS * math.sqrt(mean)) + 16)
        # A gap past the end ends the run.  Clipped to remaining + 1, the sums
        # stay exact up to the first one past the end; later ones may wrap.
        np.minimum(gaps, remaining + 1, out=gaps)
        sums = np.cumsum(gaps, out=gaps)  # in place: no gap is needed again
        past = sums > remaining
        inside = int(np.argmax(past)) if past.any() else sums.size
        sums[:inside] += last
        parts.append(sums[:inside])
        if inside < sums.size:
            break
        last = int(sums[-1])
    return parts[0] if len(parts) == 1 else np.concatenate([np.zeros(0, np.int64), *parts])


def _chunk_frames(params: DetectionParams, n_frames: int, events_per_frame: float) -> int:
    """A run's chunk length in frames, once its work is checked to be bounded.

    The run is rejected for more than MAX_FRAME_EVENTS expected events a
    frame, where a run of fewer than _LIMIT_FRAMES frames may ask for as many
    in all as that many frames would, or for _MAX_FRAME_REPS repetitions a
    frame.  A chunk holds about CHUNK_EVENTS expected events and at least one
    frame, and is capped so that its repetition slots stay below _MAX_SLOTS
    and its frame indices inside uint32.  The length follows the settings,
    not n_frames, so the (seed, chunk index) streams fix the output.
    """
    reps = params.repetitions
    if reps >= _MAX_FRAME_REPS or (
        events_per_frame * min(n_frames, _LIMIT_FRAMES) > MAX_FRAME_EVENTS * _LIMIT_FRAMES
    ):
        raise ConfigError(
            f"chi, dark_rate, f_rep and t_exp ask for {events_per_frame:.3g} expected events "
            f"and {reps} repetitions a frame; the limits are {MAX_FRAME_EVENTS} events a frame "
            f"({MAX_FRAME_EVENTS * _LIMIT_FRAMES} in all for a run of fewer than "
            f"{_LIMIT_FRAMES} frames) and fewer than {_MAX_FRAME_REPS} repetitions"
        )
    cap = min((_MAX_SLOTS - 1) // reps, _MAX_FRAMES)
    if events_per_frame * cap <= CHUNK_EVENTS:
        return cap
    return max(1, int(CHUNK_EVENTS / events_per_frame))


def _canonical_chunk(codes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort one chunk's event codes, drop repeats and split them into fields.

    Dropping repeats is the binary-pixel saturation: a pixel clicks at most
    once per frame however many photons reach it.  The list is emptied, so
    its arrays are freed as soon as they are joined.
    """
    code = np.concatenate(codes)
    codes.clear()
    code.sort()
    keep = np.ones(code.size, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=keep[1:])
    # A boolean index, not np.compress, which first builds an index of the
    # kept events as large as the codes.
    code = code[keep]
    # The fields are read off by shifting the one code array in place.
    bins = code.astype(np.uint16)  # a cast keeps the low 16 bits
    code >>= 16
    regions = code.astype(np.uint8)
    regions &= 1
    code >>= 1
    return code.astype(np.uint32), regions, bins


def _workers() -> int:
    """Threads for the chunk pool: the CPUs this process may run on, capped."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(usable or 1, _MAX_WORKERS)


def _in_order(make: Callable, n: int):
    """Yield make(0), ..., make(n - 1) in order, computed on a thread pool.

    At most two calls per worker are pending, so memory follows the window,
    not n.  When the consumer stops or a call raises, the calls not yet
    started are cancelled.  ``make`` must call none of the functions that
    pipebench/spans.py wraps: its open-span stack assumes one thread.
    """
    workers = _workers()
    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for index in range(n):
            pending.append(pool.submit(make, index))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def stream(batches) -> tuple[tuple[int, WavelengthGrid], Iterator[FrameBatch]]:
    """An event stream's header (n_frames, grid) and its blocks, checked.

    The first block is drawn here, and each block is checked in O(1) as it passes.
    """
    batches = iter(batches)
    first = next(batches, None)
    if first is None:
        raise ValueError("an event stream needs at least one block")
    header = (first.n_frames, first.grid)

    def blocks():
        last = -1  # the previous events' last frame
        for block in itertools.chain([first], batches):
            if (block.n_frames, block.grid) != header:
                raise ValueError("a block's frame count or grids differ from the first block's")
            if block.n_events and int(block.frames[0]) <= last:  # a frame split or out of order
                raise ValueError("a block does not follow the previous one in order")
            last = int(block.frames[-1]) if block.n_events else last
            yield block

    return header, blocks()


def join(batches) -> FrameBatch:
    """An event stream as one batch."""
    header, blocks = stream(batches)
    fields = map(np.concatenate, zip(*((b.frames, b.regions, b.bins) for b in blocks)))
    return FrameBatch(*header, *fields)


def _check_lengths(grid: WavelengthGrid, marginals: tuple[np.ndarray, np.ndarray]) -> None:
    """Reject port spectra whose lengths do not match the grid."""
    if np.shape(marginals[0]) != (grid.n_bins,) or np.shape(marginals[1]) != (grid.n_bins,):
        raise InconsistentMarginals("marginal lengths do not match the map grid")


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
    step = pc_map.grid.step_nm
    _check_lengths(pc_map.grid, (m_plus, m_minus))
    for name, marg in (("plus", m_plus), ("minus", m_minus)):
        total = float(np.sum(marg)) * step
        if abs(total - 1.0) > MARGINAL_TOL:
            raise InconsistentMarginals(
                f"{name}-port spectrum integrates to {total!r}, expected 1"
            )
    res_plus = m_plus - np.sum(pc_map.values, axis=1) * step
    res_minus = m_minus - np.sum(pc_map.values, axis=0) * step
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
    return join(simulate_chunks(pc_map, marginals, params, n_frames))


def simulate_chunks(
    pc_map: CoincidenceMap,
    marginals: tuple[np.ndarray, np.ndarray],
    params: DetectionParams,
    n_frames: int,
) -> Iterator[FrameBatch]:
    """simulate_frames' run as an iterator of its chunks, each a FrameBatch over n_frames.

    Every check (errors and warning) runs in this call, before any chunk is
    drawn; the chunks are drawn on a thread pool as the iterator advances.
    They cover ascending, disjoint frame ranges, so each follows the one
    before it in canonical order without a global sort.  Zero frames are
    one empty chunk.
    """
    if pc_map.kind is not MapKind.PROBABILITY:
        raise ValueError(f"need a probability map, got kind={pc_map.kind.value}")
    if n_frames < 0:
        raise ConfigError(f"--frames must be non-negative, got {n_frames}")
    if n_frames >= _MAX_FRAMES:
        raise ConfigError(
            f"--frames must be below {_MAX_FRAMES} (frame indices are 32-bit), got {n_frames}"
        )
    res_plus, res_minus = _validate_marginals(pc_map, marginals)

    reps = params.repetitions
    eta = params.eta
    grid = pc_map.grid
    sum_res_plus = float(np.sum(res_plus)) * grid.step_nm
    sum_res_minus = float(np.sum(res_minus)) * grid.step_nm
    # A pair is a coincidence with probability p_c, else a double, on a port in
    # proportion to its residual spectrum's total.
    p_c = min(pc_map.total(), 1.0)
    p_plus = sum_res_plus / max(sum_res_plus + sum_res_minus, 1e-300) * (1.0 - p_c)
    p_minus = 1.0 - p_c - p_plus
    # A pair is seen when at least one of its photons is detected.  Given that,
    # both are with probability eta / (2 - eta); else each alone is equally likely.
    q = params.chi * (1.0 - (1.0 - eta) ** 2)
    both = eta / (2.0 - eta)
    chunk_frames = _chunk_frames(params, n_frames, reps * q + 2.0 * params.dark_rate)

    peak_bin = max(float(np.max(marginals[0])), float(np.max(marginals[1]))) * grid.step_nm
    if reps * params.chi * eta * peak_bin + params.dark_rate / grid.n_bins > 1.0:
        warnings.warn(
            "per-frame mean occupancy exceeds 1 in the peak bin; "
            "binary-pixel saturation will distort statistics",
            RuntimeWarning,
        )

    coinc_alias = row_alias = col_alias = None
    if p_c > 0.0:
        coinc_alias = AliasTable(pc_map.values)
        row_alias = AliasTable(np.sum(pc_map.values, axis=1))
        col_alias = AliasTable(np.sum(pc_map.values, axis=0))
    plus_alias = AliasTable(res_plus) if sum_res_plus > 0.0 else None
    minus_alias = AliasTable(res_minus) if sum_res_minus > 0.0 else None
    # The outcomes of a seen pair: (probability, region, alias table, photons seen).
    outcomes = (
        (p_c * both, None, coinc_alias, 2),
        (p_c * (1.0 - both) / 2.0, 0, row_alias, 1),
        (p_c * (1.0 - both) / 2.0, 1, col_alias, 1),
        (p_plus * (1.0 - both), 0, plus_alias, 1),
        (p_plus * both, 0, plus_alias, 2),
        (p_minus * (1.0 - both), 1, minus_alias, 1),
        (p_minus * both, 1, minus_alias, 2),
    )
    bounds = np.cumsum([p for p, *_ in outcomes[:-1]]).tolist()
    starts = range(0, max(n_frames, 1), chunk_frames)

    def chunk(index: int) -> FrameBatch:
        rng, start = _chunk_rng(params.seed, index), starts[index]
        size = min(chunk_frames, n_frames - start)
        frames = _bernoulli_slots(rng, q, size * reps)
        frames //= reps
        frames += start
        frames = frames.astype(np.uint32)  # the batch's frame type, half the pairs' scratch
        # One uniform per pair, inverted over the outcomes' cumulative bounds.
        uniform = rng.random(frames.size)
        outcome = (uniform >= bounds[0]).view(np.uint8)
        for bound in bounds[1:]:
            outcome += uniform >= bound
        del uniform
        # The frames of every outcome are selected first, so that the pairs'
        # arrays are freed before any bin is drawn.
        selected = [np.compress(outcome == k, frames) for k in range(len(outcomes))]
        del outcome, frames

        # Bins are drawn outcome by outcome, each selection dropped once it is encoded.
        codes = []
        for _, region, alias, photons in outcomes:
            chosen = selected.pop(0)
            if alias is None:  # a rounding sliver on an empty residual spectrum: dropped
                continue
            if region is None:  # both photons of a coincidence, from the joint table
                plus, minus = np.divmod(alias.draw(rng, chosen.size), grid.n_bins)
                codes += [_event_codes(chosen, 0, plus), _event_codes(chosen, 1, minus)]
                del plus, minus
            else:
                chosen = np.repeat(chosen, photons)
                codes.append(_event_codes(chosen, region, alias.draw(rng, chosen.size)))
        # A Poisson total of dark events spread uniformly over the chunk's frames
        # is the same process as one Poisson count per frame.
        for region in (0, 1):
            total = rng.poisson(params.dark_rate * size)
            dark = rng.integers(start, start + size, size=total)
            codes.append(_event_codes(dark, region, rng.integers(0, grid.n_bins, size=total)))
        return FrameBatch(n_frames, grid, *_canonical_chunk(codes))

    return _in_order(chunk, len(starts))


def simulate_uncorrelated_chunks(
    grid: WavelengthGrid,
    marginals: tuple[np.ndarray, np.ndarray],
    params: DetectionParams,
    n_frames: int,
) -> Iterator[FrameBatch]:
    """Diagnostic generator: both ports fire independently; checked before any chunk is drawn.

    Per-port rates match simulate_frames (one photon per port per generated
    pair before thinning) but carry no cross-port correlation, so the
    covariance map of a run is statistically zero.  That is simulate_chunks
    on the ports' product map with a pair every repetition (chi = 1), each
    photon detected with probability chi * eta: every pair is a coincidence,
    and its photons are detected independently.
    """
    _check_lengths(grid, marginals)  # before the product map is built
    values = np.outer(*marginals)
    # At most one pair in all, so the marginal check, not the map's, judges the spectra.
    values /= max(float(np.sum(values)) * grid.step_nm * grid.step_nm, 1.0)
    product = CoincidenceMap(grid, values, MapKind.PROBABILITY)
    p_detect = params.chi * params.eta
    # DetectionParams needs eta > 0, so no photon at all is chi = 0 instead.
    thinned = replace(params, chi=1.0, eta=p_detect) if p_detect else replace(params, chi=0.0)
    return simulate_chunks(product, marginals, thinned, n_frames)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges starts[i], ..., starts[i] + lengths[i] - 1, all lengths >= 1."""
    out = np.ones(int(lengths.sum()), dtype=np.intp)
    out[:1] = starts[:1]
    out[np.cumsum(lengths[:-1])] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return np.cumsum(out, out=out)


class EventCounts:
    """The exact integer sums behind the estimators, which add across frame ranges.

    ``pairs`` counts the cross-port products n+(a) n-(b) per bin pair of
    ``grid`` and ``singles`` the events per port and bin, plus bins first.
    Each batch is counted whole, so memory follows the largest batch, not
    the run.
    """

    def __init__(self, batches):
        """Count an event stream in one pass."""
        (self.n_frames, self.grid), blocks = stream(batches)
        n = self.grid.n_bins
        self.pairs = np.zeros(n * n, dtype=np.intp)
        self.singles = np.zeros(2 * n, dtype=np.intp)
        for batch in blocks:
            frames, regions, bins = batch.frames, batch.regions, batch.bins
            # Plus events count into [0, n), minus events from n on.
            code = regions.astype(np.intp) * n + bins
            self.singles += np.bincount(code, minlength=self.singles.size)
            # Runs of events of one frame and port begin at heads, which end with
            # the batch's end.  In canonical order a frame with events at both
            # ports is a plus run followed by a minus run that opens no frame.
            breaks = np.ones((2, frames.size + 1), dtype=bool)  # new frame, new port
            np.not_equal(frames[1:], frames[:-1], out=breaks[0, 1:-1])
            np.not_equal(regions[1:], regions[:-1], out=breaks[1, 1:-1])
            heads = np.flatnonzero(breaks[0] | breaks[1])
            minus = np.flatnonzero(~breaks[0, heads])
            starts, first_minus = heads[minus - 1], heads[minus]
            n_plus_run, n_minus_run = first_minus - starts, heads[minus + 1] - first_minus
            # Each plus event of a frame pairs with every minus event of that frame.
            per_plus = np.repeat(n_minus_run, n_plus_run)
            plus = bins[_ranges(starts, n_plus_run)].astype(np.intp) * n
            flat = np.repeat(plus, per_plus)
            flat += bins[_ranges(np.repeat(first_minus, n_plus_run), per_plus)]
            self.pairs += np.bincount(flat, minlength=self.pairs.size)

    def maps(self) -> tuple[CoincidenceMap, CoincidenceMap, CoincidenceMap]:
        """Raw <n+(a) n-(b)>, accidental <n+(a)><n-(b)> and covariance maps, 0 for no frames."""
        if self.n_frames == 1:
            warnings.warn(
                "estimating coincidence statistics from a single frame; "
                "accidental subtraction is essentially meaningless",
                RuntimeWarning,
            )
        n_frames = max(self.n_frames, 1)
        raw = self.pairs.reshape(self.grid.n_bins, -1) / n_frames
        accidental = np.outer(*np.split(self.singles / n_frames, 2))
        return (
            CoincidenceMap(self.grid, raw, MapKind.RAW),
            CoincidenceMap(self.grid, accidental, MapKind.ACCIDENTAL),
            CoincidenceMap(self.grid, raw - accidental, MapKind.COVARIANCE),
        )


def raw_coincidences(batch: FrameBatch) -> CoincidenceMap:
    """Raw coincidence map <n+(a) n-(b)>: per-frame cross-port products, 0 for no frames."""
    return EventCounts([batch]).maps()[0]


def accidental_map(batch: FrameBatch) -> CoincidenceMap:
    """Accidental coincidence map <n+(a)><n-(b)>: outer product of means, 0 for no frames."""
    return EventCounts([batch]).maps()[1]


def covariance_map(batch: FrameBatch) -> CoincidenceMap:
    """Photon-number covariance: raw minus accidental, bin pair by bin pair, 0 for no frames."""
    return EventCounts([batch]).maps()[2]
