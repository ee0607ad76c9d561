"""Statistics and reporting shared by all benchmarks.

The paper reports medians with *nonparametric* confidence intervals
(99 % for latency microbenchmarks, 95 % for application runs); these are
implemented here from binomial order statistics, with no distributional
assumptions -- exactly the method the paper cites.
"""

from repro.analysis.stats import (
    SummaryStats,
    median,
    median_ci,
    median_ci_ranks,
    percentile,
    percentiles,
    summarize,
)
from repro.analysis.plotting import bar_chart, cdf_points, sparkline
from repro.analysis.reporting import Table, format_ns, format_bytes
from repro.analysis.streams import LogHistogram, StreamingSummary

__all__ = [
    "LogHistogram",
    "StreamingSummary",
    "SummaryStats",
    "Table",
    "bar_chart",
    "cdf_points",
    "format_bytes",
    "format_ns",
    "median",
    "median_ci",
    "median_ci_ranks",
    "percentile",
    "percentiles",
    "sparkline",
    "summarize",
]
