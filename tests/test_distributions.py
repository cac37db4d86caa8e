import dataclasses
import math

import numpy as np
import pytest

from _oracle import cumulative, gold_support
from quantdiv.distributions import Distribution, from_votes, stack_probs, validate
from quantdiv.errors import (
    AllZeroVotes,
    LengthMismatch,
    NegativeProbability,
    NotNormalized,
    TooFewClasses,
)


def test_validate_happy():
    d = validate([0.3, 0.7])
    assert isinstance(d, Distribution)
    assert d.probs == (0.3, 0.7)
    assert d.num_classes == 2
    assert len(d) == 2


def test_validate_renormalizes_within_tolerance():
    d = validate([0.5, 0.5 + 1e-10])
    assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)
    assert d.probs[0] != 0.5  # actually divided by the true total


def test_validate_rejects_negative():
    with pytest.raises(NegativeProbability):
        validate([-0.1, 1.1])


def test_validate_rejects_nan():
    with pytest.raises(NegativeProbability):
        validate([float("nan"), 1.0])


def test_validate_rejects_bad_sum():
    with pytest.raises(NotNormalized):
        validate([0.5, 0.6])
    with pytest.raises(NotNormalized):
        validate([0.5, 0.5 - 1e-8])
    with pytest.raises(NotNormalized):
        validate([1e308, 1e308])  # the exact sum overflows


def test_validate_rejects_single_class():
    with pytest.raises(TooFewClasses):
        validate([1.0])


def test_distribution_is_immutable():
    d = validate([0.3, 0.7])
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.probs = (1.0, 0.0)


def test_from_votes_unanimous():
    d = from_votes((19, 0, 0, 0, 0))
    assert d.probs == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_from_votes_simple_split():
    assert from_votes((3, 1)).probs == (0.75, 0.25)


def test_from_votes_scale_invariant():
    assert from_votes((3, 1)).probs == from_votes((6, 2)).probs
    assert from_votes((1, 2, 3)).probs == from_votes((2, 4, 6)).probs


def test_from_votes_all_zero():
    with pytest.raises(AllZeroVotes):
        from_votes((0, 0, 0))


def test_from_votes_negative_and_fractional():
    with pytest.raises(NegativeProbability):
        from_votes((3, -1))
    with pytest.raises(NegativeProbability):
        from_votes((2.5, 1))


def test_from_votes_single_class():
    with pytest.raises(TooFewClasses):
        from_votes((19,))


def test_cumulative_example():
    assert cumulative(validate([0.3, 0.7])) == (0.3, pytest.approx(1.0, abs=1e-12))


def test_cumulative_properties():
    rng = np.random.default_rng(11)
    for _ in range(500):
        k = int(rng.integers(2, 9))
        raw = rng.dirichlet(np.ones(k))
        d = validate(raw)
        cum = cumulative(d)
        assert len(cum) == k
        assert all(b >= a - 1e-15 for a, b in zip(cum, cum[1:]))
        assert abs(cum[-1] - 1.0) <= 1e-9


def test_gold_support():
    s = gold_support(validate([0.5, 0.0, 0.5]))
    assert s.indices == frozenset({1, 3})
    assert list(s) == [1, 3]
    assert len(s) == 2
    assert gold_support(validate([0.2, 0.3, 0.5])).indices == frozenset({1, 2, 3})


def test_gold_support_after_renormalization_keeps_zeros():
    d = validate([0.5 + 5e-10, 0.0, 0.5])
    assert gold_support(d).indices == frozenset({1, 3})


def test_random_vectors_validate():
    rng = np.random.default_rng(12)
    for _ in range(500):
        k = int(rng.integers(2, 9))
        raw = rng.random(k)
        d = validate(raw / raw.sum())
        assert min(d.probs) >= 0.0
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)


def test_stack_probs():
    dists = [validate([0.5, 0.25, 0.25]), validate([0.0, 0.0, 1.0])]
    arr = stack_probs(dists)
    assert arr.shape == (2, 3) and arr.dtype == np.float64
    assert arr.tolist() == [list(d.probs) for d in dists]
    assert not arr.flags.writeable
    assert stack_probs([]).shape == (0, 0)
    with pytest.raises(LengthMismatch):
        stack_probs([validate([0.5, 0.5]), validate([0.2, 0.3, 0.5])])
