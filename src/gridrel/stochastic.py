"""Stochastic component behavior: failure draws, the multi-phase ICT
recovery, fault sectioning-time selection and the uniform battery SOC draw.

The engine no longer runs the three-state working/failed/under-repair
machine (`ComponentState`, `draw_status`): it stores each phase's end
increment instead. `draw_status` stays only because the benchmark wraps
`engine.draw_status` to count its calls.

All functions are pure given an explicit numpy Generator; the simulation
engine owns one generator per iteration and never shares it across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .units import HOURS_PER_YEAR

WORKING = "working"
FAILED = "failed"
UNDER_REPAIR = "under_repair"

NEW_SIGNAL = "new_signal"
REBOOT = "reboot"
MANUAL = "manual"

_EPS = 1e-9


@dataclass(frozen=True)
class ReliabilityParams:
    """Failure rate (per year) and mean outage duration (hours per failure)."""

    failure_rate: float
    repair_time_h: float

    @property
    def can_fail(self) -> bool:
        return self.failure_rate > 0.0


@dataclass(frozen=True)
class RepairPhases:
    """Durations and success probabilities of the staged ICT recovery."""

    new_signal_h: float
    reboot_h: float
    manual_repair_h: float
    p_new_signal: float = 0.9
    p_reboot: float = 0.9

    def __post_init__(self):
        for name in ("new_signal_h", "reboot_h", "manual_repair_h"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("p_new_signal", "p_reboot"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class ComponentState:
    """Dynamic health of one component.

    `until_repair_h` is the remaining delay between the failure and the start
    of the repair (the sectioning time for lines, the discovery delay for
    latent ICT failures; may be inf while a latent failure sits undiscovered).
    """

    mode: str = WORKING
    until_repair_h: float = 0.0
    remaining_repair_h: float = 0.0

    @property
    def working(self) -> bool:
        return self.mode == WORKING


def failure_probability(rate_per_year: float, dt_h: float) -> float:
    """Probability that a working component fails within an increment."""
    if rate_per_year < 0:
        raise ValueError("failure rate must be >= 0")
    if dt_h <= 0:
        raise ValueError("increment must be > 0")
    return -math.expm1(-rate_per_year * dt_h / HOURS_PER_YEAR)


def draw_status(state: ComponentState, params: ReliabilityParams, dt_h: float,
                rng, time_to_repair_h: float = 0.0) -> ComponentState:
    """Advance one component by one increment.

    A working component fails with `failure_probability`; a failed component
    only counts down toward repair (no new draws, per the state machine);
    repair completion returns it to working.
    """
    if state.mode == WORKING:
        if params.can_fail and rng.random() < failure_probability(params.failure_rate, dt_h):
            return ComponentState(FAILED, until_repair_h=time_to_repair_h)
        return state
    if state.mode == FAILED:
        left = state.until_repair_h - dt_h
        if left <= _EPS:
            return ComponentState(UNDER_REPAIR, remaining_repair_h=params.repair_time_h)
        return replace(state, until_repair_h=left)
    # under repair
    left = state.remaining_repair_h - dt_h
    if left <= _EPS:
        return ComponentState(WORKING)
    return replace(state, remaining_repair_h=left)


def ict_repair_duration(phases: RepairPhases, rng):
    """Draw the staged recovery: new signal, then reboot, then manual repair.

    Returns (duration in hours, outcome).
    """
    duration = phases.new_signal_h
    if rng.random() < phases.p_new_signal:
        return duration, NEW_SIGNAL
    duration += phases.reboot_h
    if rng.random() < phases.p_reboot:
        return duration, REBOOT
    return duration + phases.manual_repair_h, MANUAL


@dataclass(frozen=True)
class SectioningPlan:
    """How a fault gets isolated and which ICT units were called upon."""

    duration_h: float
    automated: bool
    consulted_sensors: tuple
    consulted_switches: tuple


def plan_sectioning(model, fault_line: str, ict_working,
                    automated_h: float, manual_h: float) -> SectioningPlan:
    """Decide the sectioning time for a line fault.

    Automated sectioning needs a working controller, a working sensor on the
    faulted line, and a working intelligent switch on every disconnector that
    bounds the faulted section. Any gap falls back to manual sectioning.
    `ict_working(unit_id)` tells whether an ICT unit works; consulted units
    are reported so the caller can start latent-failure discovery.
    """
    if fault_line not in model.lines:
        raise ValueError(f"unknown line {fault_line!r}")
    ict = model.ict
    if ict.controller is None:
        return SectioningPlan(manual_h, False, (), ())
    if not ict_working(ict.controller.id):
        return SectioningPlan(manual_h, False, (), ())

    sensor_id = model.sensor_of_line.get(fault_line)
    if sensor_id is None:
        return SectioningPlan(manual_h, False, (), ())
    if not ict_working(sensor_id):
        return SectioningPlan(manual_h, False, (sensor_id,), ())

    boundary = model.sections[fault_line].boundary_disconnectors
    switch_ids = []
    for disc in boundary:
        isw = model.int_switch_of_disc.get(disc)
        if isw is None:
            return SectioningPlan(manual_h, False, (sensor_id,), ())
        switch_ids.append(isw)
    switch_ids = tuple(switch_ids)
    if all(ict_working(s) for s in switch_ids):
        return SectioningPlan(automated_h, True, (sensor_id,), switch_ids)
    return SectioningPlan(manual_h, False, (sensor_id,), switch_ids)


def draw_battery_soc(battery, rng) -> float:
    """State of charge drawn uniformly between the battery's SOC bounds."""
    if battery.soc_min == battery.soc_max:
        rng.random()  # keep the stream advance uniform across code paths
        return battery.soc_min
    return float(rng.uniform(battery.soc_min, battery.soc_max))
