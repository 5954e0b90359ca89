import pytest

from surfshape.chi2 import chi_square_quantile


class TestChiSquareQuantile:
    @pytest.mark.parametrize("df", range(1, 31))
    def test_matches_incomplete_gamma_oracle_at_95(self, df):
        special = pytest.importorskip("scipy.special")
        oracle = 2.0 * special.gammaincinv(df / 2.0, 0.95)
        assert chi_square_quantile(df, 0.95) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("prob", [0.5, 0.6, 0.75, 0.9, 0.99, 0.999])
    def test_matches_scipy_at_other_probabilities(self, prob):
        stats = pytest.importorskip("scipy.stats")
        for df in (1, 4, 9, 20):
            assert chi_square_quantile(df, prob) == pytest.approx(stats.chi2.ppf(prob, df), rel=1e-10)

    def test_nine_dof_value(self):
        # chi^2_9(0.95), the threshold used for a 9-component control space
        assert chi_square_quantile(9, 0.95) == pytest.approx(16.918977604620448, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square_quantile(0, 0.95)
        with pytest.raises(ValueError):
            chi_square_quantile(3, 1.0)
        with pytest.raises(ValueError):
            chi_square_quantile(3, 0.0)

    @pytest.mark.parametrize("prob", [1e-300, 1e-12, 0.001, 0.3, 0.49999999999999994])
    def test_refuses_the_lower_half(self, prob):
        with pytest.raises(ValueError, match=r"^prob must be in \[0\.5, 1\), got "):
            chi_square_quantile(3, prob)


class TestClosedFormQuantile:
    """The quantile comes from closed-form tails and Newton's method, without
    scipy; scipy is the oracle."""

    def test_within_two_ulps_of_the_incomplete_gamma_oracle_for_df_1_to_200(self):
        special = pytest.importorskip("scipy.special")
        for df in range(1, 201):
            oracle = 2.0 * special.gammaincinv(df / 2.0, 0.95)
            assert abs(chi_square_quantile(df, 0.95) - oracle) <= 2e-15 * oracle, df

    def test_correctly_rounded_thresholds(self):
        # the float nearest the exact quantile (40-digit mpmath): 3.84145882069412446...
        # and 5.99146454710798021...
        assert chi_square_quantile(1, 0.95) == 3.8414588206941245
        assert chi_square_quantile(2, 0.95) == 5.99146454710798

    @pytest.mark.parametrize("prob", [0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999999, 1 - 1e-12])
    @pytest.mark.parametrize("df", [1, 2, 3, 8, 33, 200, 1000, 5001])
    def test_both_tails_and_large_df(self, df, prob):
        stats = pytest.importorskip("scipy.stats")
        assert chi_square_quantile(df, prob) == pytest.approx(stats.chi2.ppf(prob, df), rel=1e-12)

    @pytest.mark.parametrize("df", [2.5, 3.0, "3", None])
    def test_refuses_a_non_integer_df(self, df):
        with pytest.raises(ValueError, match="df must be an integer"):
            chi_square_quantile(df, 0.95)

    def test_takes_numpy_integers(self):
        import numpy as np

        assert chi_square_quantile(np.int64(9), 0.95) == chi_square_quantile(9, 0.95)
