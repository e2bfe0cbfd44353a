"""Closed-form reliability of a passive radial network.

For each load point the failure rate sums the rates of every component whose
failure interrupts it; the annual outage time weighs each contribution by
the repair time when the point stays isolated for the whole repair, else by
the sectioning time. Who a line fault interrupts, and who stays dark for its
repair, is read off the switching-state partition the simulation engine
uses (`NetworkModel.split`): the buses with no grid bus while the line is
failed with only the normally open switches open, and while the
disconnectors bounding its section are open as well. This is only valid
without local sources or ICT (no restoration paths, one fixed sectioning
time), which is exactly the setting used to validate the Monte Carlo
engine's convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .indices import caidi
from .network import NetworkModel


class ActiveComponentsError(ValueError):
    """The analytical model cannot handle DG, batteries or ICT."""


@dataclass(frozen=True)
class AnalyticalReport:
    lambda_i: dict   # load point -> interruptions / year
    u_i: dict        # load point -> outage hours / year
    r_i: dict        # load point -> hours / interruption (None if never fails)
    saifi: float
    saidi: float
    caidi: Optional[float]
    ens_mwh: float


def analytical_indices(model: NetworkModel, mean_loads_mw,
                       sectioning_h: float = 1.0) -> AnalyticalReport:
    """Load-point and system indices of a passive network.

    `mean_loads_mw` maps load-point buses to their average demand for the
    ENS term; missing buses count zero.
    """
    if model.production or model.batteries or not model.ict.empty:
        raise ActiveComponentsError(
            "analytical evaluation needs a passive network "
            "(no production units, batteries or ICT)")

    load_points = model.load_points
    lam = {b: 0.0 for b in load_points}
    u = {b: 0.0 for b in load_points}

    for line in model.lines.values():
        rate = line.reliability.failure_rate
        if rate <= 0:
            continue
        repair = line.reliability.repair_time_h
        dark = _dark(model, line.id, model.normally_open)
        isolated = _dark(model, line.id, model.normally_open.union(
            model.sections[line.id].boundary_disconnectors))
        for b in load_points:
            if b not in dark:
                continue
            lam[b] += rate
            u[b] += rate * (sectioning_h + (repair if b in isolated else 0.0))

    for bus in model.buses.values():
        if bus.transformer is None or not bus.transformer.can_fail:
            continue
        if bus.id in lam:
            lam[bus.id] += bus.transformer.failure_rate
            u[bus.id] += bus.transformer.failure_rate * bus.transformer.repair_time_h

    customers = {b: model.buses[b].customers for b in load_points}
    total_customers = sum(customers.values())
    if total_customers <= 0:
        raise ValueError("analytical indices need a positive customer count")
    saifi = sum(lam[b] * customers[b] for b in load_points) / total_customers
    saidi = sum(u[b] * customers[b] for b in load_points) / total_customers
    ens = sum(u[b] * float(mean_loads_mw.get(b, 0.0)) for b in load_points)

    return AnalyticalReport(
        lambda_i=lam,
        u_i=u,
        r_i={b: (u[b] / lam[b] if lam[b] > 0 else None) for b in load_points},
        saifi=saifi,
        saidi=saidi,
        caidi=caidi(saidi, saifi),
        ens_mwh=ens,
    )


def _dark(model: NetworkModel, line_id: str, open_switches) -> frozenset:
    """Buses without a grid bus while `line_id` is failed and `open_switches`
    are open."""
    return frozenset(b for order, grid_bus in model.split((line_id,), open_switches)
                     if grid_bus is None for b in order)
