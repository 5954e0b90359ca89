import pytest

from surfshape.chi2 import _upper_tail, chi_square_quantile


class TestChiSquareQuantile:
    @pytest.mark.parametrize("df", range(1, 31))
    def test_matches_incomplete_gamma_oracle_at_95(self, df):
        special = pytest.importorskip("scipy.special")
        oracle = 2.0 * special.gammaincinv(df / 2.0, 0.95)
        assert chi_square_quantile(df) == pytest.approx(oracle, abs=1e-8)

    def test_nine_dof_value(self):
        # chi^2_9(0.95), the threshold used for a 9-component control space
        assert chi_square_quantile(9) == pytest.approx(16.918977604620448, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square_quantile(0)


class TestClosedFormQuantile:
    """The quantile comes from closed-form tails and Newton's method, without
    scipy; scipy is the oracle."""

    def test_within_two_ulps_of_the_incomplete_gamma_oracle_for_df_1_to_200(self):
        special = pytest.importorskip("scipy.special")
        for df in range(1, 201):
            oracle = 2.0 * special.gammaincinv(df / 2.0, 0.95)
            assert abs(chi_square_quantile(df) - oracle) <= 2e-15 * oracle, df

    def test_correctly_rounded_thresholds(self):
        # the float nearest the exact quantile (40-digit mpmath): 3.84145882069412446...
        # and 5.99146454710798021...
        assert chi_square_quantile(1) == 3.8414588206941245
        assert chi_square_quantile(2) == 5.99146454710798

    # at df 5,001 the upper tail's terms are rescaled to stay finite
    @pytest.mark.parametrize("df", [1, 2, 3, 8, 33, 200, 1000, 5001])
    def test_large_df(self, df):
        stats = pytest.importorskip("scipy.stats")
        assert chi_square_quantile(df) == pytest.approx(stats.chi2.ppf(0.95, df), rel=1e-12)

    @pytest.mark.parametrize("df", [2.5, 3.0, "3", None])
    def test_refuses_a_non_integer_df(self, df):
        with pytest.raises(ValueError, match="df must be an integer"):
            chi_square_quantile(df)

    def test_takes_numpy_integers(self):
        import numpy as np

        assert chi_square_quantile(np.int64(9)) == chi_square_quantile(9)


class TestUpperTail:
    # the Newton step's tail and density, on both sides of the median and far
    # into the upper tail; the grid the quantile was checked on before it was
    # fixed at 0.95
    @pytest.mark.parametrize("prob", [0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999999, 1 - 1e-12])
    @pytest.mark.parametrize("df", [1, 2, 3, 8, 33, 200, 1000, 5001])
    def test_matches_scipy(self, df, prob):
        stats = pytest.importorskip("scipy.stats")
        x = stats.chi2.ppf(prob, df)
        upper, density = _upper_tail(df, x)
        assert upper == pytest.approx(stats.chi2.sf(x, df), rel=1e-12)
        # scipy's density at df 5,001 exponentiates a log near 2e4, so it
        # carries about 2e4 ulps of its own
        assert density == pytest.approx(stats.chi2.pdf(x, df), rel=1e-11)
