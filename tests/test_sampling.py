import numpy as np
import pytest

from homspec.sampling import AliasTable


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


@pytest.mark.parametrize("bad", [[], [-1.0, 2.0], [0.0, 0.0], [np.nan, 1.0]])
def test_invalid_weights(bad):
    with pytest.raises(ValueError):
        AliasTable(np.array(bad, dtype=float))
