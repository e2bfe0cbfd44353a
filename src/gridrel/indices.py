"""Reliability indices from history ledgers.

Load- and generation-oriented: energy not supplied and its cost-weighted
value. Customer-oriented: SAIFI, SAIDI and their quotient CAIDI. Aggregation
across Monte Carlo iterations reports distribution statistics; inputs are
canonicalized (sorted) first so any iteration ordering yields identical
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .units import HOURS_PER_YEAR


class MissingCostCategory(KeyError):
    pass


def ens(ledger) -> float:
    """Total energy not supplied over the ledger's horizon, MWh."""
    return float(sum(ledger.ens_mwh.values()))


def cens(ledger, cost_table) -> float:
    """Interruption cost: the ENS of each load point with a category (one
    with a load) weighted by that category's cost."""
    total = 0.0
    for bus, category in ledger.categories.items():
        if category not in cost_table:
            raise MissingCostCategory(f"no interruption cost for category {category!r}")
        total += ledger.ens_mwh[bus] * cost_table[category]
    return float(total)


def _horizon_years(ledger) -> float:
    return ledger.horizon_h / HOURS_PER_YEAR


def saifi(ledger) -> float:
    """Customer interruptions per customer per year."""
    custs = ledger.customers
    total = sum(custs.values())
    if total <= 0:
        raise ValueError("SAIFI needs a positive total customer count")
    events = sum(ledger.interruptions[b] * custs.get(b, 0) for b in ledger.load_points)
    return events / total / _horizon_years(ledger)


def saidi(ledger) -> float:
    """Customer interruption hours per customer per year."""
    custs = ledger.customers
    total = sum(custs.values())
    if total <= 0:
        raise ValueError("SAIDI needs a positive total customer count")
    hours = sum(ledger.outage_hours[b] * custs.get(b, 0) for b in ledger.load_points)
    return hours / total / _horizon_years(ledger)


def caidi(saidi_value: float, saifi_value: float) -> Optional[float]:
    """Hours per interruption; undefined (None) when SAIFI is zero."""
    if saifi_value == 0:
        return None
    return saidi_value / saifi_value


@dataclass(frozen=True)
class IterationIndices:
    ens_mwh: float
    cens: float
    saifi: float
    saidi: float
    caidi: Optional[float]
    lambda_i: dict  # load point -> interruptions / year
    u_i: dict       # load point -> outage hours / year


def iteration_report(ledger, cost_table=None) -> IterationIndices:
    years = _horizon_years(ledger)
    saifi_v = saifi(ledger)
    saidi_v = saidi(ledger)
    return IterationIndices(
        ens_mwh=ens(ledger),
        cens=cens(ledger, cost_table) if cost_table else 0.0,
        saifi=saifi_v,
        saidi=saidi_v,
        caidi=caidi(saidi_v, saifi_v),
        lambda_i={b: ledger.interruptions[b] / years for b in ledger.load_points},
        u_i={b: ledger.outage_hours[b] / years for b in ledger.load_points},
    )


@dataclass(frozen=True)
class Stats:
    mean: float
    std: float
    p5: float
    p50: float
    p95: float

    @classmethod
    def of(cls, values) -> "Stats":
        v = np.sort(np.asarray(list(values), dtype=float))
        if v.size == 0:
            raise ValueError("no values to aggregate")
        std = float(np.std(v, ddof=1)) if v.size > 1 else 0.0
        p5, p50, p95 = (float(x) for x in np.percentile(v, [5, 50, 95]))
        return cls(float(np.mean(v)), std, p5, p50, p95)


@dataclass(frozen=True)
class IndexReport:
    iterations: int
    ens: Stats
    cens: Stats
    saifi: Stats
    saidi: Stats
    caidi: Optional[Stats]        # over iterations where SAIFI > 0
    caidi_of_means: Optional[float]  # mean SAIDI / mean SAIFI
    load_points: dict             # bus -> (lambda mean, U mean, r = U/lambda)
    system_average: Optional[tuple] = None  # unweighted (lambda, U, r) over load points


def aggregate(reports) -> IndexReport:
    """Distribution statistics across iterations; order-insensitive."""
    reports = list(reports)
    if not reports:
        raise ValueError("no iteration reports to aggregate")
    saifi_stats = Stats.of(r.saifi for r in reports)
    saidi_stats = Stats.of(r.saidi for r in reports)
    caidi_values = [r.caidi for r in reports if r.caidi is not None]
    load_points = {}
    system_average = None
    if reports[0].lambda_i:
        for bus in sorted(reports[0].lambda_i):
            lam = float(np.mean(np.sort([r.lambda_i[bus] for r in reports])))
            u = float(np.mean(np.sort([r.u_i[bus] for r in reports])))
            load_points[bus] = (lam, u, (u / lam) if lam > 0 else None)
        lam_s = float(np.mean([v[0] for v in load_points.values()]))
        u_s = float(np.mean([v[1] for v in load_points.values()]))
        system_average = (lam_s, u_s, (u_s / lam_s) if lam_s > 0 else None)
    return IndexReport(
        iterations=len(reports),
        ens=Stats.of(r.ens_mwh for r in reports),
        cens=Stats.of(r.cens for r in reports),
        saifi=saifi_stats,
        saidi=saidi_stats,
        caidi=Stats.of(caidi_values) if caidi_values else None,
        caidi_of_means=caidi(saidi_stats.mean, saifi_stats.mean),
        load_points=load_points,
        system_average=system_average,
    )
