"""The benchmark's checks pass on real pipeline output and fail on perturbed
output: one map bin changed, one event dropped, events thinned, OD off by 5%.
Also the tracer's span nesting and the per-layer self-time arithmetic.

Run with ``PYTHONPATH=src python -m pytest pipebench`` from the repo root.
"""

import json
import shutil
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import spans
import workloads
from homspec import config
from homspec.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "t2_174C.cfg"
FRAMES = 200_000


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert main(["simulate", "--config", str(CONFIG), "--frames", str(FRAMES),
                 "--seed", "7", "--out", str(out)]) == 0
    assert main(["estimate", str(out / "frames.zhf"), "--out", str(out)]) == 0
    return out


@pytest.fixture
def run_dir(pipeline, tmp_path):
    return Path(shutil.copytree(pipeline, tmp_path / "run"))


def photon_rate(events):
    params = config.load_config(CONFIG).detection_params()
    return checks.check_photon_rate(events, params.repetitions, params.chi, params.eta)


def rewrite_events(path: Path, keep: np.ndarray, n_events: int) -> None:
    """Keep the records selected by ``keep`` and store ``n_events`` in the header."""
    raw = path.read_bytes()
    head = bytearray(raw[: checks.ZHF_HEADER.size])
    struct.pack_into("<Q", head, checks.ZHF_HEADER.size - 8, n_events)
    records = np.frombuffer(raw, dtype=checks.ZHF_RECORD, offset=checks.ZHF_HEADER.size)
    path.write_bytes(bytes(head) + records[keep].tobytes())


def test_checks_pass_on_pipeline_output(run_dir):
    events = checks.read_events(run_dir / "frames.zhf", FRAMES)
    assert abs(photon_rate(events) - 0.2) < 0.01
    checks.check_maps(events, run_dir)


@pytest.mark.parametrize("name", ["raw", "accidental", "covariance"])
def test_map_check_fails_on_one_changed_bin(run_dir, name):
    path = run_dir / f"{name}.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = lines[2 + 70].split(",")
    row[75] = repr(float(row[75]) + 1.0 / FRAMES)
    lines[2 + 70] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    events = checks.read_events(run_dir / "frames.zhf", FRAMES)
    with pytest.raises(checks.CheckFailed, match=name):
        checks.check_maps(events, run_dir)


def test_size_check_fails_on_one_dropped_event(run_dir):
    path = run_dir / "frames.zhf"
    n_events = (path.stat().st_size - checks.ZHF_HEADER.size) // checks.ZHF_RECORD.itemsize
    keep = np.ones(n_events, dtype=bool)
    keep[n_events // 2] = False
    rewrite_events(path, keep, n_events)
    with pytest.raises(checks.CheckFailed, match="bytes, expected 58"):
        checks.read_events(path, FRAMES)


def test_recount_fails_on_one_dropped_event_with_consistent_header(run_dir):
    path = run_dir / "frames.zhf"
    n_events = (path.stat().st_size - checks.ZHF_HEADER.size) // checks.ZHF_RECORD.itemsize
    records = np.frombuffer(path.read_bytes(), dtype=checks.ZHF_RECORD,
                            offset=checks.ZHF_HEADER.size)
    # Drop a plus-port event of a frame that also has a minus-port event, so
    # that both the raw and the accidental map change.
    minus_frames = set(records["frame"][records["region"] == 1].tolist())
    index = next(i for i, rec in enumerate(records)
                 if rec["region"] == 0 and int(rec["frame"]) in minus_frames)
    keep = np.ones(n_events, dtype=bool)
    keep[index] = False
    rewrite_events(path, keep, n_events - 1)
    events = checks.read_events(path, FRAMES)
    with pytest.raises(checks.CheckFailed, match="differs from the recount"):
        checks.check_maps(events, run_dir)


def test_order_check_fails_on_a_pixel_clicking_twice(run_dir):
    path = run_dir / "frames.zhf"
    n_events = (path.stat().st_size - checks.ZHF_HEADER.size) // checks.ZHF_RECORD.itemsize
    keep = np.insert(np.arange(n_events), 10, 10)
    rewrite_events(path, keep, n_events + 1)
    with pytest.raises(checks.CheckFailed, match="clicks twice"):
        checks.read_events(path, FRAMES)


def test_photon_rate_fails_when_a_tenth_of_events_is_lost(run_dir):
    path = run_dir / "frames.zhf"
    n_events = (path.stat().st_size - checks.ZHF_HEADER.size) // checks.ZHF_RECORD.itemsize
    keep = np.arange(n_events) % 10 != 0
    rewrite_events(path, keep, int(keep.sum()))
    events = checks.read_events(path, FRAMES)
    with pytest.raises(checks.CheckFailed, match="photons per frame"):
        photon_rate(events)


GOOD_FIT = {"converged": True, "od_hat": 2586.0, "visibility_hat": 0.96, "delay_fs": -1.5}


@pytest.mark.parametrize("change, ok", [
    ({}, True),
    ({"od_hat": 2586.157, "visibility_hat": 1.0, "delay_fs": 0.0}, True),
    ({"od_hat": 2586.157 * 1.05}, False),
    ({"od_hat": 2586.157 * 0.95}, False),
    ({"converged": False}, False),
    ({"visibility_hat": 1.2}, False),
    ({"delay_fs": 50.0}, False),
])
def test_fit_check(tmp_path, change, ok):
    path = tmp_path / "fit_report.json"
    path.write_text(json.dumps({**GOOD_FIT, **change}), encoding="utf-8")
    if ok:
        checks.check_fit(path, 2586.157)
    else:
        with pytest.raises(checks.CheckFailed):
            checks.check_fit(path, 2586.157)


def test_tracer_records_nesting_and_counts():
    tracer = spans.Tracer()
    ns = SimpleNamespace()
    ns.inner = tracer._wrap("detector.raw_coincidences", lambda batch: SimpleNamespace(
        values=np.full((2, 2), 0.25)))
    ns.outer = tracer._wrap("detector.covariance_map", lambda batch: ns.inner(batch))
    tracer.context = {"round": 0, "case": "t2"}
    ns.outer(SimpleNamespace(n_frames=8))
    outer, inner = tracer.spans
    assert (outer["parent"], inner["parent"]) == (None, outer["id"])
    assert inner["pair_products"] == 8 and inner["case"] == "t2"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def span(id_, name, parent, start, end, **extra):
    return {"id": id_, "name": name, "parent": parent, "start": start, "end": end,
            "rss_before_kb": 0, "rss_after_kb": 0, "round": 0, "case": "t1", **extra}


def test_layer_metrics_rss_gain_counts_the_first_round_only():
    trace = [
        span(0, "detector.simulate_frames", None, 0.0, 1.0, rss_before_kb=1024,
             rss_after_kb=3072),
        span(1, "detector.simulate_frames", None, 2.0, 3.0, rss_before_kb=3072,
             rss_after_kb=4096, round=1),
    ]
    assert spans.layer_metrics(trace, rounds=2)["detector.simulate_rss_gain_mb"] == 2.0


def test_layer_metrics_self_time_and_nesting():
    trace = [
        span(0, "cli.main", None, 0.0, 10.0),
        span(1, "retrieval.fit", 0, 1.0, 7.0, nfev=5),
        span(2, "retrieval.prepare_objective", 1, 1.0, 2.0),
        span(3, "detector.raw_coincidences", 0, 7.0, 8.0, pair_products=4),
        span(4, "detector.covariance_map", 0, 8.0, 9.5),
        span(5, "detector.raw_coincidences", 4, 8.0, 8.5, pair_products=4),
        span(6, "detector.accidental_map", 4, 8.5, 9.0),
    ]
    m = spans.layer_metrics(trace, rounds=1)
    assert m["cli.self_s"] == pytest.approx(10.0 - 6.0 - 1.0 - 1.5)
    assert m["detector.estimate_s"] == pytest.approx(2.5)
    assert m["detector.raw_s"] == pytest.approx(1.5)
    assert (m["detector.raw_calls"], m["detector.pair_products"]) == (2, 8)
    assert (m["retrieval.fit_s.t1"], m["retrieval.fit_s.t2"]) == (6.0, 0.0)
    assert (m["retrieval.nfev"], m["retrieval.nfev.t1"]) == (5, 5)
    halved = spans.layer_metrics(trace, rounds=2)
    assert halved["retrieval.nfev"] == 2.5 and halved["cli.self_s"] == pytest.approx(0.75)


def test_check_case_names_each_failing_stage(run_dir):
    case = workloads.Case("t2", str(CONFIG), FRAMES, workloads.SIM_EST_FIT)
    failures = checks.check_case(case, config.load_config(CONFIG), run_dir)
    assert list(failures) == ["fit"] and "fit_report.json" in failures["fit"]
