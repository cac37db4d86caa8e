import math
import re

import numpy as np
import pytest

from _oracle import cumulative, gold_support
from quantdiv.distributions import _frozen, from_votes, validate
from quantdiv.errors import (
    AllZeroVotes,
    NegativeProbability,
    NotNormalized,
    TooFewClasses,
)


def test_validate_happy():
    d = validate([0.3, 0.7])
    assert isinstance(d, np.ndarray) and d.dtype == np.float64
    assert d.tolist() == [0.3, 0.7]
    assert d.shape == (2,)
    assert len(d) == 2


def test_validate_renormalizes_within_tolerance():
    d = validate([0.5, 0.5 + 1e-10])
    assert math.fsum(d.tolist()) == pytest.approx(1.0, abs=1e-15)
    assert d[0] != 0.5  # actually divided by the true total


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
    for d in (validate([0.3, 0.7]), from_votes((3, 7))):
        assert not d.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            d[0] = 1.0


def test_frozen_keeps_an_owned_read_only_grid_and_copies_anything_else():
    owned = np.array([[0.1, 0.2], [0.3, 0.4]])
    owned.setflags(write=False)
    assert _frozen(owned) is owned
    writable = np.array([[0.1, 0.2], [0.3, 0.4]])
    view = writable[::-1]
    view.setflags(write=False)
    # A writable array, a read-only view of one, another dtype and a list
    # are each copied, so a later write to the source leaves the copy as it was.
    for source in (writable, view, owned.astype(np.float32), owned.tolist()):
        out = _frozen(source)
        assert out is not source and out.base is None
        assert out.dtype == np.float64 and not out.flags.writeable
        assert np.array_equal(out, np.asarray(source, dtype=np.float64))
    before = _frozen(view)
    writable[0, 0] = 0.9
    assert view[1, 0] == 0.9 and before[1, 0] == 0.1


def test_from_votes_unanimous():
    d = from_votes((19, 0, 0, 0, 0))
    assert d.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_from_votes_simple_split():
    assert from_votes((3, 1)).tolist() == [0.75, 0.25]
    # numpy integers count as the Python ints they equal, also where their own int64 sum would overflow.
    assert from_votes((np.int64(3), np.uint8(1))).tolist() == [0.75, 0.25]
    assert from_votes((np.int64(2**62),) * 3).tolist() == from_votes((2**62,) * 3).tolist()


def test_from_votes_scale_invariant():
    assert from_votes((3, 1)).tolist() == from_votes((6, 2)).tolist()
    assert from_votes((1, 2, 3)).tolist() == from_votes((2, 4, 6)).tolist()


def test_from_votes_all_zero():
    with pytest.raises(AllZeroVotes):
        from_votes((0, 0, 0))


def test_from_votes_negative_and_fractional():
    # The first count that is not an integer >= 0 is named by its class.
    for counts, message in (
        ((3, -1), "class 2 vote count must be an integer >= 0, got -1"),
        ((2.5, 1), "class 1 vote count must be an integer >= 0, got 2.5"),
        ((1, 2, True), "class 3 vote count must be an integer >= 0, got True"),
        ((1, np.int64(-2), -1), f"class 2 vote count must be an integer >= 0, got {np.int64(-2)!r}"),
    ):
        with pytest.raises(NegativeProbability, match=f"^{re.escape(message)}$"):
            from_votes(counts)


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
        assert min(d.tolist()) >= 0.0
        assert math.fsum(d.tolist()) == pytest.approx(1.0, abs=1e-12)

