"""The summary arithmetic of ``ab_parent.py`` on fixed inputs; nothing is
timed or run."""

import pytest

from ab_parent import quartiles, summarize


def test_quartiles_interpolate_between_runs():
    assert quartiles([4, 1, 3, 2]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert quartiles([7]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_summary_of_a_metric_where_higher_is_better():
    s = summarize([10, 12, 11, 13, 9], [11, 12, 14, 12, 10], "higher")
    assert s["rev"] == {"q1": 10.0, "median": 11.0, "q3": 12.0}
    assert s["tree"] == {"q1": 11.0, "median": 12.0, "q3": 12.0}
    assert s["change_pct"] == pytest.approx(100 / 11)
    assert (s["wins"], s["pairs"]) == (3, 5)  # the tie 12/12 counts for neither side


def test_summary_of_a_metric_where_lower_is_better():
    s = summarize([10, 12, 11, 13, 9], [11, 12, 14, 12, 10], "lower")
    assert s["change_pct"] == pytest.approx(100 / 11)
    assert (s["wins"], s["pairs"]) == (1, 5)


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError):
        summarize([], [], "lower")
    with pytest.raises(KeyError):
        summarize([1.0], [2.0], "faster")
