"""Span arithmetic, percentiles and the sample-count rule."""

import numpy as np
import pytest

import report
import spans as sp


def make(*rows):
    """Spans from (name, start, end, parent, items) rows."""
    out = []
    for name, start, end, parent, items in rows:
        s = sp.Span(name, start, parent, items)
        s.end = end
        out.append(s)
    return out


def test_covered_merges_overlaps_and_clips():
    assert sp.covered_ns(0, 100, []) == 0
    assert sp.covered_ns(0, 100, [(10, 20), (15, 30), (50, 60)]) == 30
    assert sp.covered_ns(0, 100, [(-5, 10), (90, 120)]) == 20
    assert sp.covered_ns(0, 100, [(200, 300)]) == 0


def test_self_time_subtracts_children_only():
    spans = make(("pass", 0, 100, -1, 1),
                 ("a", 10, 40, 0, 1),
                 ("a.child", 15, 25, 1, 1),
                 ("b", 50, 90, 0, 1))
    assert sp.self_times(spans) == [100 - 30 - 40, 30 - 10, 10, 40]
    table = sp.self_time_table(spans)
    assert table["a"] == {"calls": 1, "total_ms": 30e-6, "self_ms": 20e-6}


def test_uncovered_share_is_root_self_time_over_root_time():
    spans = make(("pass", 0, 100, -1, 1), ("a", 0, 75, 0, 1),
                 ("pass", 200, 300, -1, 1), ("a", 200, 300, 2, 1))
    assert sp.uncovered_share(spans, "pass") == pytest.approx(25 / 200)
    assert sp.uncovered_share(spans, "missing") == 0.0


def test_per_item_and_per_ancestor():
    spans = make(("fwd", 0, 100, -1, 1), ("norm", 10, 20, 0, 1), ("wrap", 30, 60, 0, 1),
                 ("norm", 40, 45, 2, 1), ("fwd", 100, 200, -1, 1),
                 ("batch", 200, 600, -1, 4), ("norm", 700, 701, -1, 1))
    assert sp.per_ancestor(spans, "norm", "fwd", scale=1) == [15, 0]
    assert sp.per_item(spans, "batch", scale=1) == [100]


def test_recorder_nests_and_writes(tmp_path):
    rec = sp.SpanRecorder("r1")
    with rec.span("outer", 3):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert (outer.parent, inner.parent, outer.items) == (-1, 0, 3)
    assert outer.start <= inner.start <= inner.end <= outer.end
    path = tmp_path / "s.jsonl"
    rec.write_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2 and '"run_id": "r1"' in lines[1]


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
def test_percentile_matches_numpy_linear(n):
    values = list(np.random.default_rng(n).random(n))
    for q in (0, 50, 90, 99, 100):
        assert sp.percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


@pytest.mark.parametrize("n,expected", [(0, None), (19, None), (20, 50.0), (39, 50.0),
                                        (40, 75.0), (99, 75.0), (100, 90.0), (999, 90.0),
                                        (1000, 99.0)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert sp.tail_percentile(n) == expected


def test_summarize_reports_count_and_tail():
    summ = sp.summarize(range(1, 101))
    assert (summ["n"], summ["tail_q"]) == (100, 90.0)
    assert summ["p50"] == pytest.approx(50.5)
    assert summ["p90"] == summ["tail"]
    assert sp.summarize([5.0])["tail_q"] is None
    assert sp.summarize([]) == {"p50": 0.0, "p90": 0.0, "n": 0, "tail_q": None, "tail": None}


def test_end_to_end_takes_medians():
    spans = make(("setup", 0, 3_000_000_000, -1, 1), ("setup", 0, 1_000_000_000, -1, 1),
                 ("setup", 0, 2_000_000_000, -1, 1),
                 ("pass", 0, 4_000_000_000, -1, 8), ("pass", 0, 2_000_000_000, -1, 8),
                 ("pass", 0, 5_000_000_000, -1, 8))
    metrics = report.end_to_end(spans, "pass", 90.0)
    assert metrics == {"setup_s": (2.0, "s"), "run_s": (4.0, "s"), "items_per_s": (2.0, "1/s"),
                       "peak_rss_mb": (90.0, "MB")}
