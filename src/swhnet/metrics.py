"""Evaluation metrics (RMSE, MAE, Bias, MAPE, CC), per-channel/averaged/
binned reporting, and the plot data exports (density scatter and gridded
bias map).

Conventions:
  * Bias is signed prediction minus reference.
  * MAPE is reported in percent; the scalar op rejects zero references,
    while report() excludes references below 0.01 m with a counted
    exclusion (post-screening references are positive, so the count
    should be zero and is asserted in tests).
  * CC for a constant vector is undefined and reported as None rather
    than NaN.
  * SWH bins are left-closed right-open with the final bin closed at 8 m.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .container import atomic_open_text
from .errors import ConfigError, ContractError

MAPE_MIN_REF = 0.01

METRIC_NAMES = ("rmse", "mae", "bias", "mape_percent", "cc")


def _increasing(edges) -> bool:
    """At least two edges, each strictly above the one before."""
    return len(edges) >= 2 and all(lo < hi for lo, hi in zip(edges, edges[1:]))


def check_report_keys(cfg: dict) -> None:
    """Raise ConfigError naming the first reporting key of a resolved config
    out of range, before a command writes anything: at least 2 strictly
    increasing bin edges, a scatter bin width in (0, 8] (at least one bin
    over the 0-8 m scatter range) and a positive bias cell."""
    for key, ok, rule in (
            ("report_bin_edges", _increasing(cfg["report_bin_edges"]), "hold at least 2 strictly increasing edges"),
            ("scatter_bin_width", 0.0 < cfg["scatter_bin_width"] <= 8.0, "lie in (0, 8.0]"),
            ("bias_cell_deg", cfg["bias_cell_deg"] > 0.0, "be > 0")):
        if not ok:
            raise ConfigError(f"config key {key!r} must {rule}, got {cfg[key]!r}")


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

    def to_json(self) -> str:
        doc = {
            "config_hash": self.config_hash,
            "n": self.n,
            "per_channel": {str(ch): cell for ch, cell in self.per_channel.items()},
            "average": self.average,
            "bins": self.bins,
        }
        return json.dumps(doc, indent=1) + "\n"

    def write_json(self, path: str) -> None:
        with atomic_open_text(path) as fh:
            fh.write(self.to_json())

    def write_csv(self, path: str) -> None:
        fields = ["scope", "channel", "bin_lo", "bin_hi", "n",
                  "rmse", "mae", "bias", "mape_percent", "cc", "mape_excluded"]
        with atomic_open_text(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(fields + ["config_hash"])
            def fmt(cell, scope, channel="", lo="", hi=""):
                row = [scope, channel, lo, hi, cell["n"]]
                for name in METRIC_NAMES:
                    v = cell[name]
                    row.append("undefined" if v is None else repr(v))
                row.append(cell["mape_excluded"])
                row.append(self.config_hash)
                writer.writerow(row)
            for chn in sorted(self.per_channel):
                fmt(self.per_channel[chn], "channel", chn)
            fmt(self.average, "average")
            for b in self.bins:
                for chn in sorted(int(k) for k in b["per_channel"]):
                    fmt(b["per_channel"][chn], "bin_channel", chn, b["lo"], b["hi"])
                fmt(b["average"], "bin_average", "", b["lo"], b["hi"])

    def write_binned_csv(self, path: str) -> None:
        """One bin-averaged row per bin (the data behind range histograms)."""
        with atomic_open_text(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_lo", "bin_hi", "n", "rmse", "mae", "bias",
                             "mape_percent", "cc", "config_hash"])
            for b in self.bins:
                cell = b["average"]
                row = [b["lo"], b["hi"], cell["n"]]
                for name in METRIC_NAMES:
                    v = cell[name]
                    row.append("undefined" if v is None else repr(v))
                row.append(self.config_hash)
                writer.writerow(row)


def report(pairs_by_channel: dict[int, tuple[np.ndarray, np.ndarray]],
           bin_edges=None, config_hash: str = "") -> MetricsReport:
    """Per-channel, channel-averaged, and reference-binned metrics.

    `pairs_by_channel` maps channel (1..4) to (pred, ref) vectors. Bins
    are [lo, hi) with the final bin closed; cells with no data are
    omitted rather than zero-filled.
    """
    if sorted(pairs_by_channel) != [1, 2, 3, 4]:
        raise ContractError(f"expected channels 1..4, got {sorted(pairs_by_channel)}")
    per_channel = {}
    for chn in (1, 2, 3, 4):
        pred, ref = _pair(*pairs_by_channel[chn])
        per_channel[chn] = _cell(pred, ref)
    average = _average_cells([per_channel[c] for c in (1, 2, 3, 4)])
    bins = []
    if bin_edges is not None:
        edges = list(bin_edges)
        if not _increasing(edges):
            raise ConfigError(f"bin edges must be strictly increasing, got {edges}")
        for lo, hi in zip(edges[:-1], edges[1:]):
            last = hi == edges[-1]
            cells = {}
            for chn in (1, 2, 3, 4):
                pred, ref = pairs_by_channel[chn]
                pred = np.asarray(pred, dtype=np.float64)
                ref = np.asarray(ref, dtype=np.float64)
                mask = (ref >= lo) & ((ref <= hi) if last else (ref < hi))
                if mask.any():
                    cells[chn] = _cell(pred[mask], ref[mask])
            if cells:
                bins.append({"lo": lo, "hi": hi,
                             "per_channel": cells,
                             "average": _average_cells(list(cells.values()))})
    n_total = int(sum(per_channel[c]["n"] for c in (1, 2, 3, 4)))
    return MetricsReport(config_hash=config_hash, n=n_total,
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
    if denom == 0.0:
        raise ContractError("least-squares fit undefined for constant references")
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return float(slope), float(intercept)


def export_scatter(pred, ref, path_prefix: str, bin_width: float = 0.1,
                   lo: float = 0.0, hi: float = 8.0, config_hash: str = "") -> dict:
    """Emit the data behind a density scatter plot (no rendering).

    Writes {prefix}_pairs.csv, {prefix}_hist.csv (2-D counts over
    [lo, hi]^2), and {prefix}_fit.json with the regression line.
    """
    pred, ref = _pair(pred, ref)
    if bin_width <= 0:
        raise ConfigError("bin width must be positive")
    with atomic_open_text(f"{path_prefix}_pairs.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ref", "pred", "config_hash"])
        for r, p in zip(ref, pred):
            writer.writerow([repr(float(r)), repr(float(p)), config_hash])
    nbins = int(round((hi - lo) / bin_width))
    edges = lo + bin_width * np.arange(nbins + 1)
    hist, _, _ = np.histogram2d(ref, pred, bins=[edges, edges])
    with atomic_open_text(f"{path_prefix}_hist.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ref_bin_lo", "pred_bin_lo", "count", "config_hash"])
        for i in range(nbins):
            for j in range(nbins):
                if hist[i, j] > 0:
                    writer.writerow([repr(float(edges[i])), repr(float(edges[j])),
                                     int(hist[i, j]), config_hash])
    slope, intercept = least_squares_fit(pred, ref)
    fit = {"slope": slope, "intercept": intercept, "n": int(pred.size),
           "hist_total": int(hist.sum()), "config_hash": config_hash}
    with atomic_open_text(f"{path_prefix}_fit.json") as fh:
        json.dump(fit, fh, indent=1)
        fh.write("\n")
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
    with atomic_open_text(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["lat_center", "lon_center", "bias", "n", "config_hash"])
        for lat_c, lon_c, b, n in rows:
            writer.writerow([repr(lat_c), repr(lon_c), repr(b), n, config_hash])
    return rows
