"""Properties of permutation_test's reference distribution.

Ties: a permutation that repeats the observed split, or swaps its two groups
when they have equal sizes, is the observed labelling and must read exactly
the observed statistics, or it is miscounted as a non-exceedance.

Invariance: a different similarity on each input shape is removed by GPA, so
the whole chain GPA -> tangent -> permutation_test must not see it.
"""
import numpy as np
import pytest

import surfshape as ss
from conftest import drawn_masks, similarity_cohort
from surfshape.groupcompare import PERMUTATION_MODES


@pytest.mark.parametrize("mode", PERMUTATION_MODES)
def test_repeated_and_swapped_splits_read_the_observed_statistics(mode):
    n, na, n_perm = 8, 4, 300
    labels = np.array(["a"] * na + ["b"] * (n - na))
    observed = labels == "a"
    ties = 0
    for seed in range(40):
        tangent = np.random.default_rng(100 + seed).standard_normal((n, 40)) * np.linspace(2.0, 0.2, 40)
        report = ss.permutation_test(tangent, labels, p=2, n_perm=n_perm, seed=seed, mode=mode)
        masks = drawn_masks(seed, n, na, n_perm)
        same = (masks == observed).all(axis=1) | (masks == ~observed).all(axis=1)
        ties += int(same.sum())
        assert (report.permuted_global[same] == report.global_stat).all(), seed
        assert (report.permuted_components[same] == report.component_stats).all(), seed
        want_p = (1 + (report.permuted_global >= report.global_stat).sum()) / (1 + n_perm)
        assert report.global_p == want_p
    assert ties > 300  # about 2/70 of 12,000 draws


@pytest.mark.parametrize("mode", PERMUTATION_MODES)
@pytest.mark.parametrize("seed", [31, 32])
def test_similarity_of_each_shape_changes_no_p_value(mode, seed):
    reports = []
    for sample in similarity_cohort(seed):
        gpa = ss.weighted_gpa(sample)
        tangent = ss.tangent_coordinates(gpa.aligned, gpa.mean)
        reports.append(
            ss.permutation_test(tangent, sample.labels, p=3, weights=gpa.mean_weights, n_perm=199, seed=4, mode=mode)
        )
    base, moved = reports
    assert moved.global_p == base.global_p
    np.testing.assert_array_equal(moved.component_p, base.component_p)
    assert moved.significant == base.significant
    assert moved.global_stat == pytest.approx(base.global_stat, rel=1e-9)
    np.testing.assert_allclose(moved.component_stats, base.component_stats, rtol=1e-9)
    np.testing.assert_allclose(moved.permuted_global, base.permuted_global, rtol=1e-9)
