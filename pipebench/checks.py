"""Checks of the pipeline's outputs, made outside homspec's estimators.

Each check compares against an independent recount of the event file or
against a property the method must have, never against a stored copy of
earlier output.  Tolerances bound the size of an error, so a more accurate
result still passes.  A failed check raises CheckFailed with its reason.
"""

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

# ZHF1 layout, read here without homspec.zhf: a 58-byte header, then
# 7-byte records (frame u32, region u8, bin u16), little-endian.
ZHF_HEADER = struct.Struct("<4sH" + "ddH" * 2 + "QQ")
ZHF_RECORD = np.dtype([("frame", "<u4"), ("region", "u1"), ("bin", "<u2")])

# Estimated maps may differ from the recount only by float rounding; one
# count more or less in one bin moves it by 1/n_frames of the bin's scale.
MAP_RTOL = 1e-12
# Mean photons per frame must lie within this many standard errors.
PHOTON_SIGMAS = 5.0
# The binary-pixel loss is estimated for Poisson hits; photons of one pair
# share a port and a spectral region, so allow twice that estimate.
SATURATION_MARGIN = 2.0
# Fitted optical depth within 2% of the cell model's (seeds measured within
# 0.7% at 1M frames); a 5% error fails.
OD_RTOL = 0.02
DELAY_FS_MAX = 10.0


class CheckFailed(Exception):
    """An output contradicts its recount or a property of the method."""


@dataclass(frozen=True)
class Events:
    n_frames: int
    n_plus: int
    n_minus: int
    frames: np.ndarray
    regions: np.ndarray
    bins: np.ndarray


def read_events(path, n_frames_expected: int) -> Events:
    """Parse a ZHF1 file and check its size, header and event order."""
    raw = Path(path).read_bytes()
    if len(raw) < ZHF_HEADER.size:
        raise CheckFailed(f"{path}: {len(raw)} bytes, shorter than the ZHF1 header")
    magic, version, _, _, n_plus, _, _, n_minus, n_frames, n_events = ZHF_HEADER.unpack_from(raw)
    if magic != b"ZHF1" or version != 1:
        raise CheckFailed(f"{path}: magic {magic!r} version {version}, expected b'ZHF1' 1")
    size = ZHF_HEADER.size + ZHF_RECORD.itemsize * n_events
    if len(raw) != size:
        raise CheckFailed(f"{path}: {len(raw)} bytes, expected 58 + 7*{n_events} = {size}")
    if n_frames != n_frames_expected:
        raise CheckFailed(f"{path}: {n_frames} frames, expected {n_frames_expected}")
    records = np.frombuffer(raw, dtype=ZHF_RECORD, offset=ZHF_HEADER.size)
    frames = records["frame"].astype(np.int64)
    regions = records["region"].astype(np.int64)
    bins = records["bin"].astype(np.int64)
    if n_events:
        if frames.max() >= n_frames or regions.max() > 1:
            raise CheckFailed(f"{path}: frame or region index out of range")
        if np.any(bins >= np.where(regions == 0, n_plus, n_minus)):
            raise CheckFailed(f"{path}: bin index out of range")
        code = frames << 17 | regions << 16 | bins
        if np.any(np.diff(code) <= 0):
            raise CheckFailed(f"{path}: events out of order, or a pixel clicks twice in a frame")
    return Events(int(n_frames), n_plus, n_minus, frames, regions, bins)


def check_photon_rate(events: Events, repetitions: int, chi: float, eta: float) -> float:
    """Mean detected photons per frame against 2*R*chi*eta.

    Binary pixels click once however many photons hit them, so the mean
    may fall short by the saturation loss, estimated from the observed
    click probability c of each bin as -log(1 - c) - c.  Returns the mean.
    """
    n = events.n_frames
    mean = events.frames.size / n
    _, per_frame = np.unique(events.frames, return_counts=True)
    var = float(np.sum(per_frame.astype(np.float64) ** 2)) / n - mean**2
    se = math.sqrt(max(var, 0.0) / n)
    loss = 0.0
    for region, n_bins in ((0, events.n_plus), (1, events.n_minus)):
        clicks = np.bincount(events.bins[events.regions == region], minlength=n_bins) / n
        if np.any(clicks >= 1.0):
            raise CheckFailed("a bin clicks in every frame: the camera is saturated")
        loss += float(np.sum(-np.log1p(-clicks) - clicks))
    expected = 2.0 * repetitions * chi * eta
    low = expected - SATURATION_MARGIN * loss - PHOTON_SIGMAS * se
    high = expected + PHOTON_SIGMAS * se
    if not low <= mean <= high:
        raise CheckFailed(
            f"{mean:.6g} photons per frame, expected 2*R*chi*eta = {expected:.6g} "
            f"(allowed {low:.6g} to {high:.6g})"
        )
    return mean


def recount_maps(events: Events) -> dict[str, np.ndarray]:
    """Raw, accidental and covariance maps from sparse frame-by-bin matrices.

    With P and M the binary occupancy of the plus and minus ports (frames x
    bins), raw = P^T M / n_frames and accidental is the outer product of
    the column means.
    """
    n = events.n_frames
    ports = []
    for region, n_bins in ((0, events.n_plus), (1, events.n_minus)):
        sel = events.regions == region
        ones = np.ones(int(np.count_nonzero(sel)))
        ports.append(sparse.csr_matrix((ones, (events.frames[sel], events.bins[sel])),
                                       shape=(n, n_bins)))
    plus, minus = ports
    raw = (plus.T @ minus).toarray() / n
    mean_plus = np.asarray(plus.sum(axis=0)).ravel() / n
    mean_minus = np.asarray(minus.sum(axis=0)).ravel() / n
    accidental = np.outer(mean_plus, mean_minus)
    return {"raw": raw, "accidental": accidental, "covariance": raw - accidental}


def check_maps(events: Events, out_dir) -> None:
    """raw.csv, accidental.csv and covariance.csv against the recount."""
    for name, expected in recount_maps(events).items():
        path = Path(out_dir) / f"{name}.csv"
        got = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        if got.shape != expected.shape:
            raise CheckFailed(f"{path}: shape {got.shape}, recount has {expected.shape}")
        scale = float(np.max(np.abs(expected)))
        diff = float(np.max(np.abs(got - expected)))
        if not diff <= MAP_RTOL * scale:
            raise CheckFailed(f"{path}: differs from the recount by {diff:.3g} "
                              f"(largest value {scale:.3g})")


def check_fit(report_path, od_true: float) -> None:
    """A fit report must converge near the cell model's optical depth."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    if report.get("converged") is not True:
        raise CheckFailed(f"{report_path}: converged is {report.get('converged')!r}")
    rel = abs(report["od_hat"] / od_true - 1.0)
    if not rel <= OD_RTOL:
        raise CheckFailed(f"{report_path}: od_hat {report['od_hat']:.6g} is {rel:.2%} "
                          f"from the cell model's {od_true:.6g}")
    if not 0.0 < report["visibility_hat"] <= 1.0:
        raise CheckFailed(f"{report_path}: visibility_hat {report['visibility_hat']!r}")
    if not abs(report["delay_fs"]) <= DELAY_FS_MAX:
        raise CheckFailed(f"{report_path}: |delay_fs| {abs(report['delay_fs']):.3g} "
                          f"> {DELAY_FS_MAX}")


def check_case(case, cfg, out_dir) -> dict[str, str]:
    """Check the outputs of one workload case; map each failing stage to why.

    ``cfg`` is the case's effective homspec ExperimentConfig, which gives
    the repetitions, chi and eta of the photon-rate check and the optical
    depth of the cell model.
    """
    out = Path(out_dir)
    params = cfg.detection_params()
    failures = {}
    events = None
    for stage in case.stages:
        try:
            if stage == "simulate":
                events = read_events(out / "frames.zhf", case.frames)
                check_photon_rate(events, params.repetitions, params.chi, params.eta)
            elif stage == "estimate":
                if events is None:
                    raise CheckFailed("no readable event file to recount")
                check_maps(events, out)
            elif stage == "fit":
                check_fit(out / "fit_report.json", cfg.dispersion_model().od)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            failures[stage] = f"{type(exc).__name__}: {exc}"
    return failures
