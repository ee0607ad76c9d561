"""Stats correctness, cross-checked against numpy/scipy where possible."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from repro.analysis import Table, format_bytes, format_ns, median, median_ci, percentile, summarize
from repro.analysis.stats import _binomial_cdf, median_ci_ranks


def test_median_odd_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
    assert median([5]) == 5


def test_median_empty_rejected():
    with pytest.raises(ValueError):
        median([])


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_median_matches_numpy(values):
    assert median(values) == pytest.approx(float(np.median(values)), rel=1e-12, abs=1e-9)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2, max_size=100),
    st.floats(min_value=0, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_percentile_matches_numpy(values, q):
    ours = percentile(values, q)
    theirs = float(np.percentile(values, q))
    assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-6)


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_binomial_cdf_matches_scipy():
    for n in (1, 5, 10, 37, 100):
        for k in (-1, 0, n // 2, n - 1, n):
            assert _binomial_cdf(k, n) == pytest.approx(sp_stats.binom.cdf(k, n, 0.5), abs=1e-12)


def test_median_ci_contains_median():
    rng = np.random.default_rng(0)
    values = rng.normal(100, 15, size=101).tolist()
    low, high = median_ci(values, 0.99)
    assert low <= median(values) <= high


def test_median_ci_tightens_with_samples():
    rng = np.random.default_rng(1)
    small = rng.normal(100, 15, size=20).tolist()
    large = rng.normal(100, 15, size=2000).tolist()
    low_s, high_s = median_ci(small, 0.99)
    low_l, high_l = median_ci(large, 0.99)
    assert (high_l - low_l) < (high_s - low_s)


def test_median_ci_coverage_simulation():
    """Empirical coverage of the 95% CI should be >= ~95%."""
    rng = np.random.default_rng(42)
    true_median = 0.0
    hits = 0
    trials = 300
    for _ in range(trials):
        sample = rng.standard_normal(51).tolist()
        low, high = median_ci(sample, 0.95)
        hits += low <= true_median <= high
    assert hits / trials >= 0.93


def test_median_ci_small_sample_falls_back_to_range():
    low, high = median_ci([1.0, 2.0], 0.99)
    assert (low, high) == (1.0, 2.0)
    assert median_ci([7.0], 0.99) == (7.0, 7.0)


def _reference_ci_ranks(n, confidence):
    """The original exact walk: two O(n) big-int CDF sums per candidate."""
    if n == 1:
        return 1, 1
    for half_width in range(1, n // 2 + 1):
        lo = n // 2 - half_width + 1
        hi = n - lo + 1
        if lo < 1:
            break
        if _binomial_cdf(hi - 2, n) - _binomial_cdf(lo - 2, n) >= confidence:
            return lo, hi
    return 1, n


@pytest.mark.parametrize("confidence", [0.95, 0.99])
def test_median_ci_ranks_match_reference_walk(confidence):
    """The prefix-sum walk returns exactly the original loop's ranks."""
    for n in range(1, 301):
        assert median_ci_ranks(n, confidence) == _reference_ci_ranks(n, confidence), n


def test_median_ci_validation():
    with pytest.raises(ValueError):
        median_ci([], 0.99)
    with pytest.raises(ValueError):
        median_ci([1.0], 1.5)


def test_summarize_fields():
    values = list(range(1, 101))
    stats = summarize(values, 0.95)
    assert stats.count == 100
    assert stats.median == 50.5
    assert stats.minimum == 1 and stats.maximum == 100
    assert stats.mean == pytest.approx(50.5)
    assert stats.ci_low <= stats.median <= stats.ci_high
    assert stats.p99 == pytest.approx(float(np.percentile(values, 99)))
    assert 0 < stats.ci_tightness < 1


def test_format_ns():
    assert format_ns(326) == "326 ns"
    assert format_ns(4_670) == "4.67 us"
    assert format_ns(25_000_000) == "25 ms"
    assert format_ns(2_700_000_000) == "2.7 s"


def test_format_bytes():
    assert format_bytes(100) == "100 B"
    assert format_bytes(2048) == "2 KiB"
    assert format_bytes(5 * (1 << 20)) == "5 MiB"


def test_table_render_and_validation():
    table = Table("demo", ["a", "b"])
    table.add_row(1, "x")
    text = table.render()
    assert "demo" in text and "1" in text and "x" in text
    with pytest.raises(ValueError):
        table.add_row(1)

