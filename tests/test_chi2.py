import pytest
from scipy import special, stats

from surfshape.chi2 import chi_square_quantile


class TestChiSquareQuantile:
    @pytest.mark.parametrize("df", range(1, 31))
    def test_matches_incomplete_gamma_oracle_at_95(self, df):
        oracle = 2.0 * special.gammaincinv(df / 2.0, 0.95)
        assert chi_square_quantile(df, 0.95) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("prob", [0.01, 0.25, 0.5, 0.9, 0.99, 0.999])
    def test_matches_scipy_at_other_probabilities(self, prob):
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
