"""The summary arithmetic of ``ab_parent.py`` on fixed inputs; nothing is
timed or run."""

import pytest

from ab_parent import claim_holds, layer_medians, quartiles, summarize, within_bound


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


def test_a_claim_needs_nine_wins_in_ten_and_a_gap_beyond_revs_spread():
    rev = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # IQR 4.5, median 104.5
    assert claim_holds(summarize(rev, [x - 6 for x in rev], "lower"), "lower")
    assert not claim_holds(summarize(rev, [x - 6 for x in rev], "higher"), "higher")
    assert not claim_holds(summarize(rev, [x - 4 for x in rev], "lower"), "lower")  # gap 4
    nine = [x - 6 for x in rev[:9]] + [rev[9] + 1]  # 9 of 10 won
    assert claim_holds(summarize(rev, nine, "lower"), "lower")
    eight = [x - 6 for x in rev[:8]] + [rev[8] + 1, rev[9]]  # 8 won, 1 tie
    assert not claim_holds(summarize(rev, eight, "lower"), "lower")
    assert claim_holds(summarize(rev[:2], [x + 2 for x in rev[:2]], "higher"), "higher")


@pytest.mark.parametrize("tree, better, inside", [
    (76.0, "higher", True), (74.0, "higher", False), (500.0, "higher", True),
    (124.0, "lower", True), (126.0, "lower", False), (1.0, "lower", True),
])
def test_a_change_within_the_bound(tree, better, inside):
    """With a bound of 0.25, the working tree's median may be worse than
    REV's by 25% of it and no more; any gain is within the bound."""
    assert within_bound(summarize([100.0] * 3, [tree] * 3, better), better, 0.25) is inside


def test_layer_medians_of_traced_runs():
    """Each side's median of each named per-layer metric, and the change
    in % of REV's; a metric that reads 0 at REV has no change."""
    rev = [{"a.self_ms": ms, "b.calls": 0.0, "c": 1.0} for ms in (4.0, 2.0, 3.0)]
    tree = [{"a.self_ms": 1.0, "b.calls": 5.0}, {"a.self_ms": 2.0, "b.calls": 7.0}]
    m = layer_medians(rev, tree, ["a.self_ms", "b.calls"])
    assert list(m) == ["a.self_ms", "b.calls"]  # only the names asked for
    assert m["a.self_ms"] == {"rev": 3.0, "tree": 1.5, "change_pct": -50.0}
    assert m["b.calls"] == {"rev": 0.0, "tree": 6.0, "change_pct": None}
    with pytest.raises(ValueError):
        layer_medians([], tree, ["a.self_ms"])
