"""Evaluation metrics (RMSE, MAE, Bias, MAPE, CC), per-channel/averaged/
binned reporting, and the plot data exports (density scatter and gridded
bias map).

Conventions:
  * Bias is signed prediction minus reference.
  * MAPE is reported in percent; the scalar op rejects zero references,
    while report() excludes references below 0.01 m with a counted
    exclusion (post-screening references are positive, so the count
    should be zero and is asserted in tests).
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


def rmse(pred, ref) -> float:
    pred, ref = _pair(pred, ref)
    return float(np.sqrt(np.mean((pred - ref) ** 2)))


def mae(pred, ref) -> float:
    pred, ref = _pair(pred, ref)
    return float(np.mean(np.abs(pred - ref)))


def bias(pred, ref) -> float:
    pred, ref = _pair(pred, ref)
    return float(np.mean(pred - ref))


def mape(pred, ref) -> float:
    pred, ref = _pair(pred, ref)
    if np.any(ref == 0.0):
        raise ContractError("mape is undefined for zero references")
    return float(100.0 * np.mean(np.abs((pred - ref) / ref)))


def cc(pred, ref) -> float | None:
    """Pearson correlation; None when either vector is constant."""
    pred, ref = _pair(pred, ref)
    dp = pred - pred.mean()
    dr = ref - ref.mean()
    denom = np.sqrt(np.sum(dp * dp) * np.sum(dr * dr))
    if denom == 0.0:
        return None
    return float(np.sum(dp * dr) / denom)


def _cell(pred: np.ndarray, ref: np.ndarray) -> dict:
    """All five metrics for one vector pair, with the MAPE exclusion count."""
    usable = ref >= MAPE_MIN_REF
    excluded = int(np.sum(~usable))
    return {
        "n": int(pred.size),
        "rmse": rmse(pred, ref),
        "mae": mae(pred, ref),
        "bias": bias(pred, ref),
        "mape_percent": mape(pred[usable], ref[usable]) if usable.any() else None,
        "cc": cc(pred, ref) if pred.size > 1 else None,
        "mape_excluded": excluded,
    }


def _average_cells(cells: list[dict]) -> dict:
    """Arithmetic mean of each metric over channel cells; None if any input is undefined."""
    out = {"n": int(sum(c["n"] for c in cells)), "mape_excluded": int(sum(c["mape_excluded"] for c in cells))}
    for name in METRIC_NAMES:
        values = [c[name] for c in cells]
        out[name] = None if any(v is None for v in values) else float(np.mean(values))
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
    cells: dict[tuple[int, int], list[float]] = {}
    for la, lo_, p, r in zip(lats, lons, pred, ref):
        key = (int(np.floor(la / cell_deg)), int(np.floor(lo_ / cell_deg)))
        cells.setdefault(key, []).append(p - r)
    rows = []
    for (iy, ix) in sorted(cells):
        errors = cells[(iy, ix)]
        rows.append(((iy + 0.5) * cell_deg, (ix + 0.5) * cell_deg,
                     float(np.mean(errors)), len(errors)))
    write_csv(path, ["lat_center", "lon_center", "bias", "n", "config_hash"],
              ([*row, config_hash] for row in rows))
    return rows
