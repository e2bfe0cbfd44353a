"""Reliability assessment of radial distribution grids with distributed
generation, batteries and ICT, by sequential Monte Carlo simulation."""

from .analytical import AnalyticalReport, analytical_indices
from .engine import (
    HistoryLedger, ScriptedFault, SequentialSimulation, SimulationConfig,
    TopologyCache, run_iteration, run_monte_carlo, update_battery_demand,
)
from .indices import (
    IndexReport, IterationIndices, aggregate, caidi, cens, ens,
    iteration_report, saidi, saifi,
)
from .loadflow import LoadFlowProblem, LoadFlowSolution, solve_fbs
from .netfile import (
    NetworkFileError, parse_network_file, parse_network_text,
    serialize_network_spec,
)
from .network import (
    Battery, Bus, IctSystem, Line, NetworkModel, NetworkSpec,
    NetworkValidationError, ProductionUnit, Switchgear, build_network,
    connected_components,
)
from .shedding import (
    SheddingProblem, SheddingResult, build_shedding_problem, solve_shedding,
)
from .stochastic import (
    ComponentState, ReliabilityParams, RepairPhases, draw_battery_soc,
    draw_status, failure_probability, ict_repair_duration,
)
from .timeseries import ProfileSet, TimeSeries, interpolate, read_timeseries_csv

__version__ = "0.1.0"
