"""Evaluation metrics (RMSE, MAE, Bias, MAPE, CC), per-channel/averaged/
binned reporting, and the plot data exports (density scatter and gridded
bias map).

Conventions:
  * Bias is signed prediction minus reference.
  * MAPE is reported in percent; report() excludes references below
    0.01 m with a counted exclusion (post-screening references are
    positive, so the count should be zero and is asserted in tests).
  * CC for a constant vector, and the scatter's regression line for
    constant references, are undefined and reported as None rather than
    NaN.
  * SWH bins are left-closed right-open with the final bin closed at 8 m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .container import write_csv, write_json
from .errors import ConfigError, ContractError

MAPE_MIN_REF = 0.01

METRIC_NAMES = ("rmse", "mae", "bias", "mape_percent", "cc")


def increasing(edges) -> bool:
    """At least two edges, each strictly above the one before."""
    return len(edges) >= 2 and all(lo < hi for lo, hi in zip(edges, edges[1:]))


def _pair(pred, ref) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if pred.shape != ref.shape or pred.ndim != 1 or pred.size == 0:
        raise ContractError(f"metric needs equal non-empty vectors, got {pred.shape} and {ref.shape}")
    return pred, ref


def _mean(x: np.ndarray) -> np.floating:
    """`np.mean` of a float vector, bit for bit (numpy's pairwise sum, then
    one division by the count), without its per-call overhead."""
    return np.add.reduce(x) / x.size


def _cc(pred: np.ndarray, ref: np.ndarray) -> float | None:
    """Pearson correlation of a checked pair; None when either vector is
    constant. A vector is constant when its min equals its max: the mean
    of n equal floats need not equal them, so neither need the deviations
    from it, nor the denominator, be zero."""
    if pred.min() == pred.max() or ref.min() == ref.max():
        return None
    dp = pred - _mean(pred)
    dr = ref - _mean(ref)
    denom = np.sqrt(np.add.reduce(dp * dp) * np.add.reduce(dr * dr))
    if denom == 0.0:
        return None
    return float(np.add.reduce(dp * dr) / denom)


def _cell(pred, ref) -> dict:
    """All five metrics for one vector pair, with the MAPE exclusion count,
    on one shared error vector."""
    pred, ref = _pair(pred, ref)
    n = pred.size
    err = pred - ref
    usable = ref >= MAPE_MIN_REF
    kept = int(np.count_nonzero(usable))
    return {
        "n": n,
        "rmse": float(np.sqrt(_mean(err * err))),
        "mae": float(_mean(np.abs(err))),
        "bias": float(_mean(err)),
        "mape_percent": float(100.0 * _mean(np.abs(err[usable] / ref[usable]))) if kept else None,
        "cc": _cc(pred, ref) if n > 1 else None,
        "mape_excluded": n - kept,
    }


def _average_cells(cells: list[dict]) -> dict:
    """Arithmetic mean of each metric over channel cells; None if any input is undefined."""
    out = {"n": int(sum(c["n"] for c in cells)), "mape_excluded": int(sum(c["mape_excluded"] for c in cells))}
    for name in METRIC_NAMES:
        values = [c[name] for c in cells]
        out[name] = None if any(v is None for v in values) else float(_mean(np.array(values)))
    return out


@dataclass
class MetricsReport:
    config_hash: str
    n: int
    per_channel: dict[int, dict]
    average: dict
    bins: list[dict] = field(default_factory=list)

    def write_json(self, path: str) -> None:
        write_json(path, {
            "config_hash": self.config_hash,
            "n": self.n,
            "per_channel": {str(ch): cell for ch, cell in self.per_channel.items()},
            "average": self.average,
            "bins": self.bins,
        })

    def _write_rows(self, path: str, key_fields: tuple, trailing: tuple, rows) -> None:
        """A CSV of the key columns, `n`, each metric ("undefined" for None),
        the `trailing` cell fields and the config hash: one row per
        (keys, cell) pair of `rows`."""
        write_csv(path, [*key_fields, "n", *METRIC_NAMES, *trailing, "config_hash"],
                  ([*keys, cell["n"], *("undefined" if cell[m] is None else cell[m] for m in METRIC_NAMES),
                    *(cell[t] for t in trailing), self.config_hash] for keys, cell in rows))

    def write_csv(self, path: str) -> None:
        rows = [(("channel", chn, "", ""), self.per_channel[chn]) for chn in sorted(self.per_channel)]
        rows.append((("average", "", "", ""), self.average))
        for b in self.bins:
            rows += [(("bin_channel", chn, b["lo"], b["hi"]), b["per_channel"][chn])
                     for chn in sorted(b["per_channel"])]
            rows.append((("bin_average", "", b["lo"], b["hi"]), b["average"]))
        self._write_rows(path, ("scope", "channel", "bin_lo", "bin_hi"), ("mape_excluded",), rows)

    def write_binned_csv(self, path: str) -> None:
        """One bin-averaged row per bin (the data behind range histograms)."""
        self._write_rows(path, ("bin_lo", "bin_hi"), (),
                         [((b["lo"], b["hi"]), b["average"]) for b in self.bins])


def report(pairs_by_channel: dict[int, tuple[np.ndarray, np.ndarray]],
           bin_edges=None, config_hash: str = "") -> MetricsReport:
    """Per-channel, channel-averaged, and reference-binned metrics.

    `pairs_by_channel` maps channel (1..4) to (pred, ref) vectors. Bins
    are [lo, hi) with the final bin closed; cells with no data are
    omitted rather than zero-filled.
    """
    if sorted(pairs_by_channel) != [1, 2, 3, 4]:
        raise ContractError(f"expected channels 1..4, got {sorted(pairs_by_channel)}")
    pairs = {chn: _pair(*pairs_by_channel[chn]) for chn in (1, 2, 3, 4)}
    per_channel = {chn: _cell(pred, ref) for chn, (pred, ref) in pairs.items()}
    average = _average_cells(list(per_channel.values()))
    bins = []
    if bin_edges is not None:
        edges = list(bin_edges)
        if not increasing(edges):
            raise ConfigError(f"bin edges must be strictly increasing, got {edges}")
        for lo, hi in zip(edges[:-1], edges[1:]):
            last = hi == edges[-1]
            cells = {}
            for chn, (pred, ref) in pairs.items():
                mask = (ref >= lo) & ((ref <= hi) if last else (ref < hi))
                if mask.any():
                    cells[chn] = _cell(pred[mask], ref[mask])
            if cells:
                bins.append({"lo": lo, "hi": hi,
                             "per_channel": cells,
                             "average": _average_cells(list(cells.values()))})
    return MetricsReport(config_hash=config_hash, n=average["n"],
                         per_channel=per_channel, average=average, bins=bins)


# ---------------------------------------------------------------------------
# plot-data exports
# ---------------------------------------------------------------------------


def least_squares_fit(pred: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """Slope and intercept of pred ~ slope*ref + intercept (normal equations)."""
    pred, ref = _pair(pred, ref)
    n = ref.size
    sx = ref.sum()
    sy = pred.sum()
    sxx = float(ref @ ref)
    sxy = float(ref @ pred)
    denom = n * sxx - sx * sx
    # Rounding can leave a constant vector's denominator nonzero.
    if denom == 0.0 or ref.min() == ref.max():
        raise ContractError("least-squares fit undefined for constant references")
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return float(slope), float(intercept)


def export_scatter(pred, ref, path_prefix: str, bin_width: float = 0.1,
                   lo: float = 0.0, hi: float = 8.0, config_hash: str = "") -> dict:
    """Emit the data behind a density scatter plot (no rendering).

    Writes {prefix}_pairs.csv, {prefix}_hist.csv (2-D counts over
    [lo, hi]^2, in as many bins of `bin_width` as reach `hi`, so the last
    may end past it), and {prefix}_fit.json with the regression line, whose
    slope and intercept are None (null) for constant references.
    """
    pred, ref = _pair(pred, ref)
    if bin_width <= 0:
        raise ConfigError("bin width must be positive")
    try:
        slope, intercept = least_squares_fit(pred, ref)
    except ContractError:
        slope = intercept = None
    write_csv(f"{path_prefix}_pairs.csv", ["ref", "pred", "config_hash"],
              ([r, p, config_hash] for r, p in zip(ref, pred)))
    # Rounded first, so that float error in the ratio adds no bin.
    nbins = math.ceil(round((hi - lo) / bin_width, 9))
    edges = lo + bin_width * np.arange(nbins + 1)
    hist, _, _ = np.histogram2d(ref, pred, bins=[edges, edges])
    write_csv(f"{path_prefix}_hist.csv", ["ref_bin_lo", "pred_bin_lo", "count", "config_hash"],
              ([edges[i], edges[j], int(hist[i, j]), config_hash] for i, j in zip(*np.nonzero(hist))))
    fit = {"slope": slope, "intercept": intercept, "n": int(pred.size),
           "hist_total": int(hist.sum()), "config_hash": config_hash}
    write_json(f"{path_prefix}_fit.json", fit)
    return fit


def export_bias_grid(lats, lons, pred, ref, path: str, cell_deg: float = 1.0,
                     config_hash: str = "") -> list[tuple]:
    """Mean signed error and count per lat/lon cell, one CSV row per
    populated cell, ordered by (lat, lon)."""
    if cell_deg <= 0:
        raise ConfigError("cell size must be positive")
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    pred, ref = _pair(pred, ref)
    if lats.shape != pred.shape or lons.shape != pred.shape:
        raise ContractError("lat/lon vectors must match the pair vectors")
    if not (np.isfinite(lats).all() and np.isfinite(lons).all()):
        raise ContractError("lat/lon vectors must be finite")
    iy, ix = np.floor(lats / cell_deg), np.floor(lons / cell_deg)
    # A stable sort keeps each cell's points in their input order.
    order = np.lexsort((ix, iy))
    iy, ix, err = iy[order], ix[order], (pred - ref)[order]
    starts = np.flatnonzero(np.r_[True, (iy[1:] != iy[:-1]) | (ix[1:] != ix[:-1])])
    ends = np.r_[starts[1:], err.size]
    rows = [((y + 0.5) * cell_deg, (x + 0.5) * cell_deg, float(_mean(err[lo:hi])), hi - lo)
            for y, x, lo, hi in zip(iy[starts].tolist(), ix[starts].tolist(), starts.tolist(), ends.tolist())]
    write_csv(path, ["lat_center", "lon_center", "bias", "n", "config_hash"],
              ([*row, config_hash] for row in rows))
    return rows
