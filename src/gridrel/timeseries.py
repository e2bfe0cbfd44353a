"""Time-series ingestion, resampling and the profile table.

Series are uniformly spaced. Resampling onto the simulation increment is
linear when refining and interval-averaging when coarsening, so load series
keep their total energy. Profiles shorter than the simulation horizon wrap
cyclically (logged once per series). An error in a profile or cost-table
file names its row by its line in the file, blank lines and comments counted.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .units import duration_hours, finite_float

log = logging.getLogger(__name__)

LOAD = "load"
PRODUCTION = "production"

_KINDS = (LOAD, PRODUCTION)


class TimeSeriesError(ValueError):
    pass


@dataclass(frozen=True)
class TimeSeries:
    name: str
    step_h: float
    values: tuple
    kind: str = LOAD

    def __post_init__(self):
        if self.step_h <= 0:
            raise TimeSeriesError(f"series {self.name!r}: step must be > 0")
        if not self.values:
            raise TimeSeriesError(f"series {self.name!r}: no values")
        if not all(map(math.isfinite, self.values)):
            raise TimeSeriesError(f"series {self.name!r}: values must be finite")
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


def _csv_rows(path) -> list:
    """(file line, row) of each row of the CSV file at `path` that is neither
    blank (no cell, or one cell of whitespace) nor a comment (a first cell
    starting with '#')."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return [(reader.line_num, r) for r in reader
                if (len(r) > 1 or r and r[0].strip()) and not r[0].lstrip().startswith("#")]


def read_timeseries_csv(path, kind: str = LOAD) -> dict:
    """Read a CSV whose first column is time (unit suffix in the header, e.g.
    ``time_h``) and every other column one named series, no name twice. The
    first data row is the run's first increment; the timestamps set only the
    step."""
    rows = _csv_rows(path)
    if len(rows) < 2:
        raise TimeSeriesError(f"{path}: need a header and at least one data row")
    header = [h.strip() for h in rows[0][1]]
    time_col = header[0].lower()
    if not time_col.startswith("time"):
        raise TimeSeriesError(f"{path}: first column must be the time column")
    unit = time_col.split("_", 1)[1] if "_" in time_col else "h"
    names = header[1:]
    if not names:
        raise TimeSeriesError(f"{path}: no value columns")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise TimeSeriesError(f"{path}:{rows[0][0]}: duplicate series {name!r}")

    times, columns = [], [[] for _ in names]
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise TimeSeriesError(f"{path}:{lineno}: expected {len(header)} fields")
        try:
            times.append(duration_hours(f"{row[0].strip()} {unit}"))
            for i, cell in enumerate(row[1:]):
                if cell.strip() == "":
                    raise ValueError("missing value")
                columns[i].append(finite_float(cell))
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
    return {name: TimeSeries(name, step, tuple(col), kind)
            for name, col in zip(names, columns)}


def read_cost_table(path) -> dict:
    """Read the per-category interruption cost table (category, cost_per_mwh),
    refusing one without entries, one pricing a category twice, and one
    with a negative cost: shedding would then lower its objective by
    cutting load on purpose."""
    rows = _csv_rows(path)
    start = 1 if rows and rows[0][1][0].strip().lower() in ("category", "load_type") else 0
    table = {}
    for lineno, row in rows[start:]:
        if len(row) < 2:
            raise TimeSeriesError(f"{path}:{lineno}: expected category,cost")
        try:
            cost = finite_float(row[1])
        except ValueError:
            raise TimeSeriesError(f"{path}:{lineno}: bad cost value {row[1]!r}") from None
        if cost < 0:
            raise TimeSeriesError(f"{path}:{lineno}: cost must be >= 0, got {row[1]!r}")
        category = row[0].strip()
        if category in table:
            raise TimeSeriesError(f"{path}:{lineno}: duplicate category {category!r}")
        table[category] = cost
    if not table:  # a header alone prices nothing
        raise TimeSeriesError(f"{path}: empty cost table")
    return table


class ProfileSet:
    """Per-increment profile arrays shared read-only by the workers."""

    def __init__(self, increment_h: float, horizon_h: float,
                 load_series=None, production_series=None):
        self.increment_h = increment_h
        self.n_increments = int(round(horizon_h / increment_h))
        self.load = {}
        self.production = {}
        self._ones = np.ones(self.n_increments)
        self._ones.flags.writeable = False
        for name, series in (load_series or {}).items():
            self.load[name] = tile_to_horizon(interpolate(series, increment_h), horizon_h)
        for name, series in (production_series or {}).items():
            self.production[name] = tile_to_horizon(interpolate(series, increment_h), horizon_h)

    def load_curve(self, name) -> np.ndarray:
        """Multiplier per increment of load profile `name`, not copied; the
        shared all-ones curve for "flat", None or a name with no series."""
        if name == "flat" or name not in self.load:
            return self._ones
        return self.load[name]

    def load_multiplier(self, name, t_index: int) -> float:
        return float(self.load_curve(name)[t_index])

    def load_mean(self, name) -> float:
        return float(np.mean(self.load_curve(name)))
