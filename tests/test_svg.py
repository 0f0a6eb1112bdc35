import pytest

from qcompare.svg import line_chart


class TestLineChartGuards:
    def test_no_series_is_rejected(self):
        with pytest.raises(ValueError, match="need at least one series"):
            line_chart([])

    def test_series_without_points_are_rejected(self):
        with pytest.raises(ValueError, match="series contain no points"):
            line_chart([("a", [], []), ("b", [], [])])

    @pytest.mark.parametrize("xs", [[0.0, 1.0, 2.0], [3.0, 3.0, 3.0]], ids=["x-spread", "x-flat"])
    def test_flat_series_render_one_polyline_each(self, xs):
        # y_hi == y_lo (and x_hi == x_lo) would divide by zero without the unit span.
        chart = line_chart([("a", xs, [0.5] * 3), ("b", xs, [0.5] * 3)])
        assert chart.startswith("<svg") and chart.endswith("</svg>\n")
        assert chart.count("<polyline") == 2
        assert "nan" not in chart and "inf" not in chart
