import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridrel.network import Battery, build_network
from gridrel.stochastic import (
    FAILED, MANUAL, NEW_SIGNAL, REBOOT, UNDER_REPAIR, WORKING,
    ComponentState, ReliabilityParams, RepairPhases, SectioningPlan,
    draw_battery_soc, draw_status, failure_probability, ict_repair_duration,
    plan_sectioning,
)

TABLE_SENSOR_PHASES = RepairPhases(new_signal_h=2 / 3600, reboot_h=5 / 60,
                                   manual_repair_h=2.0)
TABLE_CONTROLLER_PHASES = RepairPhases(new_signal_h=2 / 3600, reboot_h=5 / 60,
                                       manual_repair_h=0.3)


class _Fixed:
    """Stub generator yielding a preset sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_failure_probability_zero_rate():
    assert failure_probability(0.0, 1.0) == 0.0


def test_failure_probability_line_rate():
    # closed form at the bundled line rate
    assert failure_probability(0.07, 1.0) == pytest.approx(
        1 - math.exp(-0.07 / 8760), rel=1e-12)
    assert failure_probability(0.07, 1.0) == pytest.approx(7.9908e-6, rel=1e-4)


def test_failure_probability_software_rate():
    assert failure_probability(12.0, 1.0) == pytest.approx(1.3689e-3, rel=1e-4)


def test_failure_probability_rejects_negative():
    with pytest.raises(ValueError):
        failure_probability(-1.0, 1.0)


@given(rate=st.floats(0, 100), a=st.floats(0.01, 100), b=st.floats(0.01, 100))
def test_failure_probability_composes_over_subintervals(rate, a, b):
    p_ab = failure_probability(rate, a + b)
    p_a = failure_probability(rate, a)
    p_b = failure_probability(rate, b)
    assert p_ab == pytest.approx(1 - (1 - p_a) * (1 - p_b), rel=1e-9, abs=1e-15)


@given(r1=st.floats(0, 50), r2=st.floats(0, 50), dt=st.floats(0.01, 10))
def test_failure_probability_monotone_in_rate(r1, r2, dt):
    lo, hi = sorted((r1, r2))
    assert failure_probability(lo, dt) <= failure_probability(hi, dt)


def test_draw_status_zero_rate_never_fails():
    params = ReliabilityParams(0.0, 0.0)
    state = ComponentState()
    rng = np.random.default_rng(0)
    for _ in range(100):
        state = draw_status(state, params, 1.0, rng)
        assert state.mode == WORKING


def test_draw_status_countdown_to_repair():
    params = ReliabilityParams(1.0, 4.0)
    state = ComponentState(FAILED, until_repair_h=1.0)
    state = draw_status(state, params, 1.0, None)
    assert state.mode == UNDER_REPAIR
    assert state.remaining_repair_h == 4.0
    for _ in range(3):
        state = draw_status(state, params, 1.0, None)
        assert state.mode == UNDER_REPAIR
    state = draw_status(state, params, 1.0, None)
    assert state.mode == WORKING


def test_draw_status_never_skips_repair_state():
    params = ReliabilityParams(500.0, 2.0)
    rng = np.random.default_rng(7)
    state = ComponentState()
    transitions = set()
    for _ in range(5000):
        prev = state.mode
        state = draw_status(state, params, 1.0, rng, time_to_repair_h=1.0)
        transitions.add((prev, state.mode))
    assert (WORKING, UNDER_REPAIR) not in transitions
    assert (FAILED, WORKING) not in transitions
    assert (UNDER_REPAIR, FAILED) not in transitions


def test_draw_status_empirical_rate_matches_closed_form():
    params = ReliabilityParams(0.07, 4.0)
    rng = np.random.default_rng(123)
    n = 10 ** 6
    p = failure_probability(0.07, 1.0)
    fails = 0
    state = ComponentState()
    for _ in range(n):
        out = draw_status(state, params, 1.0, rng)
        fails += out.mode == FAILED
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(fails - n * p) <= 3 * sigma + 1


def test_ict_repair_three_branch_durations():
    d, outcome = ict_repair_duration(TABLE_SENSOR_PHASES, _Fixed([0.0]))
    assert (d, outcome) == (2 / 3600, NEW_SIGNAL)
    d, outcome = ict_repair_duration(TABLE_SENSOR_PHASES, _Fixed([0.99, 0.0]))
    assert (d, outcome) == (2 / 3600 + 5 / 60, REBOOT)
    d, outcome = ict_repair_duration(TABLE_CONTROLLER_PHASES, _Fixed([0.99, 0.99]))
    assert (d, outcome) == (2 / 3600 + 5 / 60 + 0.3, MANUAL)


def test_ict_repair_outcome_frequencies_chi_square():
    phases = RepairPhases(0.1, 0.2, 0.3, p_new_signal=0.6, p_reboot=0.5)
    rng = np.random.default_rng(99)
    n = 10 ** 5
    counts = {NEW_SIGNAL: 0, REBOOT: 0, MANUAL: 0}
    for _ in range(n):
        _, outcome = ict_repair_duration(phases, rng)
        counts[outcome] += 1
    expected = {NEW_SIGNAL: 0.6 * n, REBOOT: 0.4 * 0.5 * n, MANUAL: 0.4 * 0.5 * n}
    chi2 = sum((counts[k] - expected[k]) ** 2 / expected[k] for k in counts)
    assert chi2 < 13.8  # chi2(2 dof) at the 0.1% level


def test_battery_soc_degenerate_interval():
    bat = Battery("B", "bus", 1.0, 0.5, soc_min=0.5, soc_max=0.5)
    assert draw_battery_soc(bat, np.random.default_rng(0)) == 0.5


def test_battery_soc_bounds_and_mean():
    bat = Battery("B", "bus", 1.0, 0.5, soc_min=0.1, soc_max=1.0)
    rng = np.random.default_rng(5)
    draws = np.array([draw_battery_soc(bat, rng) for _ in range(10 ** 6)])
    assert draws.min() >= 0.1 and draws.max() <= 1.0
    assert abs(draws.mean() - 0.55) < 0.002


# -- sectioning decisions -------------------------------------------------


def _all_working(model):
    status = {}
    ict = model.ict
    if ict.controller is not None:
        status[ict.controller.id] = True
    for s in ict.sensors:
        status[s.id] = True
    for i in ict.intelligent_switches:
        status[i.id] = True
    return status


def test_sectioning_no_ict_is_manual(chain4):
    assert plan_sectioning(chain4, "L2", {}.get, 5 / 60, 1.0).duration_h == 1.0


def test_sectioning_full_ict_is_automated(ieee33):
    status = _all_working(ieee33)
    plan = plan_sectioning(ieee33, "L05", status.get, 5 / 60, 1.0)
    assert plan.automated and plan.duration_h == 5 / 60
    assert plan.consulted_sensors == ("S05",)
    assert set(plan.consulted_switches) == {"IS05", "IS06", "IS25"}


def test_sectioning_controller_down_is_manual(ieee33):
    status = _all_working(ieee33)
    status[ieee33.ict.controller.id] = False
    plan = plan_sectioning(ieee33, "L05", status.get, 5 / 60, 1.0)
    assert not plan.automated and plan.duration_h == 1.0
    assert plan.consulted_sensors == ()


def test_sectioning_dead_switch_is_manual_but_consulted(ieee33):
    status = _all_working(ieee33)
    status["IS06"] = False
    plan = plan_sectioning(ieee33, "L05", status.get, 5 / 60, 1.0)
    assert not plan.automated and plan.duration_h == 1.0
    assert "IS06" in plan.consulted_switches


def _without_ict_unit(spec, unit_id):
    """The IEEE-33 model with the sensor or intelligent switch `unit_id` removed."""
    ict = spec.ict
    return build_network(dataclasses.replace(spec, ict=dataclasses.replace(
        ict, sensors=tuple(s for s in ict.sensors if s.id != unit_id),
        intelligent_switches=tuple(i for i in ict.intelligent_switches
                                   if i.id != unit_id))))


def test_sectioning_a_line_without_a_sensor_is_manual_and_consults_nothing(ieee33_spec):
    model = _without_ict_unit(ieee33_spec, "S05")
    assert "L05" not in model.sensor_of_line
    plan = plan_sectioning(model, "L05", _all_working(model).get, 5 / 60, 1.0)
    assert plan == SectioningPlan(1.0, False, (), ())


def test_sectioning_a_disconnector_without_a_switch_is_manual_after_the_sensor(
        ieee33_spec):
    model = _without_ict_unit(ieee33_spec, "IS06")
    plan = plan_sectioning(model, "L05", _all_working(model).get, 5 / 60, 1.0)
    assert plan == SectioningPlan(1.0, False, ("S05",), ())


def test_sectioning_unknown_line(ieee33):
    with pytest.raises(ValueError):
        plan_sectioning(ieee33, "L99", {}.get, 5 / 60, 1.0)
