import math

import numpy as np
import pytest

from quantdiv import synth
from quantdiv.errors import OutOfRange
from quantdiv.measures import MeasureId
from quantdiv.meta_eval import mean_scores, score_matrix


def test_shapes_and_ids():
    ds, runs = synth.generate(n_systems=3, n_cases=12, n_classes=4, seed=0)
    assert ds.case_ids == tuple(f"d{i:04d}" for i in range(1, 13))
    assert ds.class_labels == ("c1", "c2", "c3", "c4")
    assert len(ds.gold) == 12
    assert [r.system_id for r in runs] == ["s1", "s2", "s3"]
    assert all(len(r.est) == 12 for r in runs)
    assert all(len(d) == 4 for d in ds.gold)


def test_votes_sum_to_assessors():
    ds, _ = synth.generate(n_systems=1, n_cases=30, seed=1, assessors=17)
    assert ds.votes is not None
    assert all(sum(v) == 17 for v in ds.votes)
    for dist, votes in zip(ds.gold, ds.votes):
        for p, v in zip(dist.tolist(), votes):
            assert p == pytest.approx(v / 17)


def test_deterministic():
    a = synth.generate(n_systems=2, n_cases=10, seed=5)
    b = synth.generate(n_systems=2, n_cases=10, seed=5)
    assert a[0] == b[0]
    assert a[1] == b[1]
    c = synth.generate(n_systems=2, n_cases=10, seed=6)
    assert a[0] != c[0]


def test_distributions_are_valid():
    ds, runs = synth.generate(n_systems=4, n_cases=20, seed=2)
    for dist in list(ds.gold) + [d for r in runs for d in r.est]:
        assert all(p >= 0.0 for p in dist.tolist())
        assert math.fsum(dist.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_quality_is_graded():
    ds, runs = synth.generate(n_systems=12, n_cases=150, seed=7)
    means = mean_scores(score_matrix(ds, runs, MeasureId.NVD))
    # noise level rises with the system number, so the best and worst ends
    # must be well separated and the overall trend increasing
    assert means[0] < means[-1]
    assert np.mean(means[:3]) < np.mean(means[-3:]) - 0.05
    spearman_like = np.corrcoef(np.arange(12), means)[0, 1]
    assert spearman_like > 0.9


def test_parameter_validation():
    with pytest.raises(OutOfRange):
        synth.generate(n_systems=0)
    with pytest.raises(OutOfRange):
        synth.generate(n_classes=1)
    with pytest.raises(OutOfRange):
        synth.generate(seed=-1)
    with pytest.raises(OutOfRange):
        synth.generate(noise_lo=0.5, noise_hi=0.2)
    with pytest.raises(OutOfRange):
        synth.generate(assessors=0)
    # Each argument goes through the integer or the number rule: a bool, a
    # float count or a string is refused, not read as 1, truncated or compared.
    for kwargs in (
        {"n_systems": True, "n_cases": 4, "seed": True},
        {"n_cases": 4, "seed": True},
        {"n_systems": 2.5, "n_cases": 4},
        {"n_cases": 4.0},
        {"assessors": np.int64(0)},
        {"noise_lo": True},
        {"noise_hi": "0.5"},
        {"noise_lo": math.nan},
        {"noise_hi": 1.5},
    ):
        with pytest.raises(OutOfRange):
            synth.generate(**kwargs)
    # numpy integers and floats are taken as the Python numbers they hold.
    ds, runs = synth.generate(n_systems=np.int64(2), n_cases=np.int64(4), noise_lo=np.float32(0.25))
    assert ds == synth.generate(n_systems=2, n_cases=4, noise_lo=0.25)[0]
    assert [run.system_id for run in runs] == ["s1", "s2"]
