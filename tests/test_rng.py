import numpy as np
import pytest

from tokengate.rng import SplitRng


def test_deterministic_given_seed():
    a = SplitRng(1234).normal((5, 5))
    b = SplitRng(1234).normal((5, 5))
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(SplitRng(1).uniform(16), SplitRng(2).uniform(16))


def test_vectorized_matches_sequential():
    bulk = SplitRng(7).next_uint64(10)
    seq = SplitRng(7)
    singles = np.concatenate([seq.next_uint64(1) for _ in range(10)])
    np.testing.assert_array_equal(bulk, singles)


def test_uniform_range():
    u = SplitRng(9).uniform(10000)
    assert u.min() > 0.0 and u.max() <= 1.0


def test_normal_moments():
    z = SplitRng(11).normal(200000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_substreams_decorrelate_consumers():
    root = SplitRng(0)
    a = root.substream(1)
    b = root.substream(2)
    assert not np.array_equal(a.uniform(64), b.uniform(64))
    # derivation is deterministic and leaves the parent untouched
    np.testing.assert_array_equal(SplitRng(0).substream(1).uniform(8),
                                  SplitRng(0).substream(1).uniform(8))
    np.testing.assert_array_equal(root.uniform(8), SplitRng(0).uniform(8))


def test_choice_without_replacement():
    picks = SplitRng(3).choice_without_replacement(10, 4)
    assert picks.size == 4
    assert np.all(np.diff(picks) > 0)
    assert picks.min() >= 0 and picks.max() < 10
    all_of_them = SplitRng(3).choice_without_replacement(5, 5)
    np.testing.assert_array_equal(all_of_them, np.arange(5))


def test_integers_in_bounds():
    draws = SplitRng(8).integers(1000, 7)
    assert draws.min() >= 0 and draws.max() < 7
    assert set(draws.tolist()) == set(range(7))


@pytest.mark.parametrize("draw, message", [
    pytest.param(lambda rng: rng.next_uint64(2.5), "n must be an integer",
                 id="next_uint64-fraction"),
    pytest.param(lambda rng: rng.integers(2.5, 4), "n must be an integer",
                 id="integers-fraction"),
    pytest.param(lambda rng: rng.choice_without_replacement(5, True),
                 "k must be an integer", id="choice-k-bool"),
    pytest.param(lambda rng: rng.normal(-1), "shape must be at least 0",
                 id="normal-below"),
    pytest.param(lambda rng: rng.normal((2, 1.5)), "shape must be an integer",
                 id="normal-entry-fraction"),
])
def test_bad_size_rejected_before_the_state_moves(draw, message):
    # a rejected size draws nothing, so the stream goes on as a fresh one
    rng = SplitRng(1)
    with pytest.raises(ValueError, match=f"^{message}"):
        draw(rng)
    np.testing.assert_array_equal(rng.next_uint64(4), SplitRng(1).next_uint64(4))
