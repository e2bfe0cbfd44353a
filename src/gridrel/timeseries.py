"""Time-series ingestion, resampling and the profile table.

Series are uniformly spaced. Resampling onto the simulation increment is
linear when refining and interval-averaging when coarsening, so load series
keep their total energy. Profiles shorter than the simulation horizon wrap
cyclically (logged once per series).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .units import duration_hours

log = logging.getLogger(__name__)

LOAD = "load"
PRODUCTION = "production"

_KINDS = (LOAD, PRODUCTION)


class TimeSeriesError(ValueError):
    pass


@dataclass(frozen=True)
class TimeSeries:
    name: str
    start_h: float
    step_h: float
    values: tuple
    kind: str = LOAD

    def __post_init__(self):
        if self.step_h <= 0:
            raise TimeSeriesError(f"series {self.name!r}: step must be > 0")
        if not self.values:
            raise TimeSeriesError(f"series {self.name!r}: no values")
        if self.kind not in _KINDS:
            raise TimeSeriesError(f"series {self.name!r}: unknown kind {self.kind!r}")

    @property
    def span_h(self) -> float:
        return self.step_h * (len(self.values) - 1)


def interpolate(series: TimeSeries, target_step_h: float) -> TimeSeries:
    """Resample onto a grid with the given spacing.

    Refining (target divides the source step) interpolates linearly and keeps
    both endpoints exactly. Coarsening (target is a multiple of the source
    step) averages whole intervals, preserving total energy. Incommensurate
    steps are rejected rather than silently resampled.
    """
    if target_step_h <= 0:
        raise TimeSeriesError("target step must be > 0")
    src = series.step_h
    if math.isclose(target_step_h, src, rel_tol=1e-12):
        return series
    if target_step_h > series.span_h and len(series.values) > 1:
        raise TimeSeriesError(
            f"series {series.name!r}: target step {target_step_h} h exceeds the "
            f"series span {series.span_h} h")

    ratio = target_step_h / src
    values = np.asarray(series.values, dtype=float)
    if ratio > 1:  # coarsen by interval means
        k = round(ratio)
        if not math.isclose(ratio, k, rel_tol=1e-9):
            raise TimeSeriesError(
                f"series {series.name!r}: cannot coarsen {src} h to "
                f"{target_step_h} h (not an integer multiple)")
        usable = (len(values) // k) * k
        if usable == 0:
            raise TimeSeriesError(f"series {series.name!r}: too short to coarsen")
        means = values[:usable].reshape(-1, k).mean(axis=1)
        return replace(series, step_h=target_step_h, values=tuple(float(v) for v in means))

    k = round(1.0 / ratio)  # refine linearly
    if not math.isclose(1.0 / ratio, k, rel_tol=1e-9):
        raise TimeSeriesError(
            f"series {series.name!r}: cannot refine {src} h to "
            f"{target_step_h} h (not an integer divisor)")
    n = len(values)
    fine = np.interp(np.arange((n - 1) * k + 1) / k, np.arange(n), values)
    return replace(series, step_h=target_step_h, values=tuple(float(v) for v in fine))


def tile_to_horizon(series: TimeSeries, horizon_h: float) -> np.ndarray:
    """Values per increment across the horizon, wrapping short series."""
    n_needed = int(round(horizon_h / series.step_h))
    values = np.asarray(series.values, dtype=float)
    if len(values) < n_needed:
        log.warning("profile %r spans %.6g h, shorter than the %.6g h horizon; "
                    "wrapping cyclically", series.name, len(values) * series.step_h,
                    horizon_h)
        reps = -(-n_needed // len(values))
        values = np.tile(values, reps)
    return values[:n_needed].copy()


def read_timeseries_csv(path, kind: str = LOAD) -> dict:
    """Read a CSV whose first column is time (unit suffix in the header, e.g.
    ``time_h``) and every other column one named series."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and not r[0].lstrip().startswith("#")]
    if len(rows) < 2:
        raise TimeSeriesError(f"{path}: need a header and at least one data row")
    header = [h.strip() for h in rows[0]]
    time_col = header[0].lower()
    if not time_col.startswith("time"):
        raise TimeSeriesError(f"{path}: first column must be the time column")
    unit = time_col.split("_", 1)[1] if "_" in time_col else "h"
    names = header[1:]
    if not names:
        raise TimeSeriesError(f"{path}: no value columns")

    times, columns = [], [[] for _ in names]
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise TimeSeriesError(f"{path}:{lineno}: expected {len(header)} fields")
        try:
            times.append(duration_hours(f"{row[0].strip()} {unit}"))
            for i, cell in enumerate(row[1:]):
                if cell.strip() == "":
                    raise ValueError("missing value")
                columns[i].append(float(cell))
        except ValueError as exc:
            raise TimeSeriesError(f"{path}:{lineno}: {exc}") from None

    t = np.asarray(times)
    if len(t) > 1:
        steps = np.diff(t)
        if np.any(steps <= 0):
            raise TimeSeriesError(f"{path}: timestamps must be strictly increasing")
        if np.max(steps) - np.min(steps) > 1e-9 * max(1.0, float(np.max(np.abs(t)))):
            raise TimeSeriesError(f"{path}: timestamps must be uniformly spaced")
        step = float(steps[0])
    else:
        step = 1.0
    return {name: TimeSeries(name, float(t[0]), step, tuple(col), kind)
            for name, col in zip(names, columns)}


def read_cost_table(path) -> dict:
    """Read the per-category interruption cost table (category, cost_per_mwh)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise TimeSeriesError(f"{path}: empty cost table")
    start = 1 if rows[0][0].strip().lower() in ("category", "load_type") else 0
    table = {}
    for lineno, row in enumerate(rows[start:], start=start + 1):
        if len(row) < 2:
            raise TimeSeriesError(f"{path}:{lineno}: expected category,cost")
        try:
            table[row[0].strip()] = float(row[1])
        except ValueError:
            raise TimeSeriesError(f"{path}:{lineno}: bad cost value {row[1]!r}") from None
    return table


class ProfileSet:
    """Per-increment profile arrays shared read-only by the workers."""

    def __init__(self, increment_h: float, horizon_h: float,
                 load_series=None, production_series=None):
        self.increment_h = increment_h
        self.n_increments = int(round(horizon_h / increment_h))
        self.load = {}
        self.production = {}
        for name, series in (load_series or {}).items():
            self.load[name] = tile_to_horizon(interpolate(series, increment_h), horizon_h)
        for name, series in (production_series or {}).items():
            self.production[name] = tile_to_horizon(interpolate(series, increment_h), horizon_h)

    def load_multiplier(self, name, t_index: int) -> float:
        if name is None or name == "flat" or name not in self.load:
            return 1.0
        return float(self.load[name][t_index])

    def production_mw(self, name, t_index: int):
        if name is None or name not in self.production:
            return None
        return float(self.production[name][t_index])

    def load_mean(self, name) -> float:
        if name is None or name == "flat" or name not in self.load:
            return 1.0
        return float(np.mean(self.load[name]))
