"""Four-valued EPP vector algebra."""

import pytest

from repro.core.fourvalue import EPPValue
from repro.errors import AnalysisError


class TestConstructors:
    def test_error_site(self):
        value = EPPValue.error_site()
        assert value.pa == 1.0
        assert value.error_probability == 1.0

    def test_off_path(self):
        value = EPPValue.off_path(0.3)
        assert value.p1 == pytest.approx(0.3)
        assert value.p0 == pytest.approx(0.7)
        assert value.pa == value.pa_bar == 0.0
        assert value.error_probability == 0.0

    def test_off_path_validates_range(self):
        with pytest.raises(AnalysisError):
            EPPValue.off_path(1.2)

    def test_clamped_absorbs_rounding(self):
        value = EPPValue.clamped(-1e-12, 0.5, 0.2, 0.3 + 1e-12)
        assert value.pa == 0.0

    def test_components_must_sum_to_one(self):
        with pytest.raises(AnalysisError, match="sum to 1"):
            EPPValue(0.5, 0.5, 0.5, 0.5)

    def test_components_must_be_probabilities(self):
        with pytest.raises(AnalysisError, match="out of range"):
            EPPValue(1.5, -0.5, 0.0, 0.0)


class TestOperations:
    def test_invert_swaps_polarity_and_constants(self):
        value = EPPValue(0.1, 0.2, 0.3, 0.4)
        inverted = value.invert()
        assert inverted == EPPValue(0.2, 0.1, 0.4, 0.3)

    def test_double_invert_is_identity(self):
        value = EPPValue(0.1, 0.2, 0.3, 0.4)
        assert value.invert().invert() == value

    def test_error_probability(self):
        assert EPPValue(0.1, 0.2, 0.3, 0.4).error_probability == pytest.approx(0.3)

    def test_as_tuple_order(self):
        assert EPPValue(0.1, 0.2, 0.3, 0.4).as_tuple() == (0.1, 0.2, 0.3, 0.4)

    def test_isclose(self):
        a = EPPValue(0.1, 0.2, 0.3, 0.4)
        b = EPPValue(0.1 + 1e-12, 0.2, 0.3, 0.4 - 1e-12)
        assert a.isclose(b)
        assert not a.isclose(EPPValue(0.2, 0.1, 0.3, 0.4))


class TestFormatting:
    def test_paper_notation(self):
        text = str(EPPValue(0.042, 0.392, 0.168, 0.398))
        assert "0.042(a)" in text
        assert "0.392(a̅)" in text
        assert "0.168(0)" in text
        assert "0.398(1)" in text

    def test_zero_terms_omitted(self):
        assert str(EPPValue.error_site()) == "1(a)"
