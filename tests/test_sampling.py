import contextlib
import io
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import traced_peak
from homspec import cli, detector
from homspec.config import load_config
from homspec.sampling import AliasTable

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.cfg"))


def vose_loop(weights):
    """Vose's sequential construction: the reference for the closed form."""
    w = np.asarray(weights, dtype=float).ravel()
    k = w.size
    scaled = w * (k / w.sum())
    small = np.flatnonzero(scaled < 1.0).tolist()
    large = np.flatnonzero(scaled >= 1.0).tolist()
    scaled = scaled.tolist()
    prob = [1.0] * k
    alias = list(range(k))
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] -= 1.0 - scaled[lo]
        if scaled[hi] < 1.0:
            small.append(hi)
        else:
            large.append(hi)
    return np.array(prob), np.array(alias)


def simulate_tables(tmp_path, monkeypatch, *args):
    """The weights of every table ``simulate`` builds for a zero-frame run."""
    built = []

    def record(weights):
        built.append(np.array(weights, dtype=float))
        return AliasTable(weights)

    monkeypatch.setattr(detector, "AliasTable", record)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", *args, "--frames", "0", "--out", str(tmp_path)]) == 0
    return built


def edge_weights():
    rng = np.random.default_rng(7)
    yield "all-equal", np.full(1000, 0.1)
    # Outcome 3 comes down to exactly 1.0 and stays large for one more pairing.
    yield "scaled-tie", np.array([0.5, 0.5, 1.5, 1.5])
    yield "one-heavy", np.r_[1e6, rng.random(300)]
    yield "single-nonzero", np.r_[0.0, 0.0, 2.5, 0.0]
    yield "zero-ends", np.r_[0.0, rng.random(60), 0.0]
    for i in range(12):
        k = int(rng.integers(2, 30_000))
        w = rng.random(k) ** rng.integers(1, 6)
        w[rng.random(k) < 0.1] = 0.0
        yield f"random-{i}", w


@pytest.mark.parametrize("args", [[], ["--uncorrelated"]], ids=["joint", "uncorrelated"])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_closed_form_matches_the_loop_on_simulate_tables(tmp_path, monkeypatch, config, args):
    tables = simulate_tables(tmp_path, monkeypatch, "--config", str(config), *args)
    # the joint table, its row and column sums and the two residual spectra
    assert len(tables) == 5
    for weights in tables:
        prob, alias = vose_loop(weights)
        table = AliasTable(weights)
        assert np.array_equal(table._alias, alias)
        assert np.max(np.abs(table._prob - prob)) < 1e-9


@pytest.mark.parametrize("weights", [pytest.param(w, id=name) for name, w in edge_weights()])
def test_closed_form_matches_the_loop(weights):
    prob, alias = vose_loop(weights)
    table = AliasTable(weights)
    assert np.array_equal(table._alias, alias)
    assert np.max(np.abs(table._prob - prob)) < 1e-9


def test_joint_table_build_memory():
    # Vose's loop over Python lists peaked at 119 bytes per outcome.
    cfg = load_config(CONFIG_DIR / "t1_188C.cfg")
    weights = cli._theory_map(cfg, cfg.jsa()).values
    _, peak = traced_peak(AliasTable, weights)
    assert peak / weights.size < 96


def test_matches_distribution_within_five_sigma():
    rng = np.random.default_rng(2024)
    weights = rng.random(50) ** 2
    weights[7] = 0.0
    probs = weights / weights.sum()
    table = AliasTable(weights)
    n = 400_000
    draws = table.draw(np.random.default_rng(1), n)
    counts = np.bincount(draws, minlength=50)
    sigma = np.sqrt(np.maximum(n * probs * (1 - probs), 1.0))
    z = (counts - n * probs) / sigma
    assert np.max(np.abs(z)) < 5.0


@pytest.mark.parametrize("case", ["uniform", "squared", "sparse", "one_heavy"])
def test_table_implies_the_weights(case):
    # Outcome i is kept with prob[i] and is the alias of the others, so the
    # table's distribution is prob/K plus (1 - prob)/K summed onto each alias.
    rng = np.random.default_rng(11)
    weights = {
        "uniform": rng.random(1000),
        "squared": rng.random(19600) ** 4,
        "sparse": np.where(rng.random(5000) < 0.02, rng.random(5000), 0.0),
        "one_heavy": np.r_[1e6, rng.random(300)],
    }[case]
    table = AliasTable(weights)
    k = table.n_outcomes
    implied = table._prob / k + np.bincount(table._alias, (1.0 - table._prob) / k, minlength=k)
    assert np.max(np.abs(implied - weights / weights.sum())) < 1e-12


def test_zero_weight_outcomes_never_drawn():
    weights = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
    table = AliasTable(weights)
    draws = table.draw(np.random.default_rng(3), 100_000)
    assert set(np.unique(draws)) <= {1, 3}


def test_deterministic_for_fixed_stream():
    table = AliasTable(np.arange(1, 20, dtype=float))
    a = table.draw(np.random.default_rng(42), 1000)
    b = table.draw(np.random.default_rng(42), 1000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 3, 2024])
@pytest.mark.parametrize("size", [0, 1, 977, 100_003])
def test_draw_matches_the_full_select(seed, size):
    # draw replaces only the rejected draws by their alias; that gives the
    # numbers of a select over every draw, from the same two RNG vectors.
    table = AliasTable(np.random.default_rng(seed).random(500) ** 3)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, table.n_outcomes, size=size)
    keep = rng.random(size) < table._prob[idx]
    expected = np.where(keep, idx, table._alias[idx])
    stream = np.random.default_rng(seed)
    assert np.array_equal(table.draw(stream, size), expected)
    assert stream.random() == rng.random()


def test_matrix_weights_flattened():
    weights = np.array([[1.0, 0.0], [0.0, 3.0]])
    table = AliasTable(weights)
    assert table.n_outcomes == 4
    draws = table.draw(np.random.default_rng(5), 50_000)
    assert set(np.unique(draws)) <= {0, 3}
    assert np.mean(draws == 3) == pytest.approx(0.75, abs=0.01)


def test_single_outcome():
    table = AliasTable(np.array([2.5]))
    assert np.all(table.draw(np.random.default_rng(0), 100) == 0)


@pytest.mark.parametrize(
    "bad", [[], [-1.0, 2.0], [0.0, 0.0], [np.nan, 1.0], [1.7e308, 1e308], [5e-324, 0.0]]
)
def test_invalid_weights(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            AliasTable(np.array(bad, dtype=float))
