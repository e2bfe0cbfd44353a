"""Command line interface.

    gridrel simulate    sequential Monte Carlo on a network file
    gridrel analytical  closed-form indices of a passive network
    gridrel validate    run both and print the comparison table

Exit codes: 0 success, 1 usage error, 2 validation/parse error, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import engine, indices, results, scenarios
from .analytical import ActiveComponentsError, analytical_indices
from .netfile import NetworkFileError, parse_network_file
from .network import NetworkValidationError, build_network
from .timeseries import (
    LOAD, PRODUCTION, ProfileSet, TimeSeriesError, read_cost_table,
    read_timeseries_csv,
)
from .units import duration_hours

log = logging.getLogger("gridrel")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _add_common(parser):
    parser.add_argument("--network", help="network file (default: bundled data)")
    parser.add_argument("--loads", help="load profile CSV (multipliers per category)")
    parser.add_argument("--production", help="production profile CSV (MW)")
    parser.add_argument("--costs", help="interruption cost CSV (category,cost_per_mwh)")
    parser.add_argument("--increment", default="1h", help="simulation increment (default 1h)")
    parser.add_argument("--horizon", default="1yr", help="simulated span (default 1yr)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--manual-sectioning", default="1h",
                        help="crew sectioning time (default 1h)")
    parser.add_argument("--automated-sectioning", default="5min",
                        help="ICT sectioning time (default 5min)")


def _build_parser():
    parser = argparse.ArgumentParser(prog="gridrel",
                                     description="Distribution grid reliability "
                                                 "assessment by sequential Monte Carlo")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the Monte Carlo simulation")
    _add_common(sim)
    sim.add_argument("--iterations", type=int, default=100)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--scenario",
                     help="preset(s): case1..case4, comma list or range")
    sim.add_argument("--out", default="results", help="output directory")

    ana = sub.add_parser("analytical", help="closed-form reliability report")
    _add_common(ana)
    ana.add_argument("--out", help="optional output directory")

    val = sub.add_parser("validate",
                         help="compare the simulation against the closed form")
    _add_common(val)
    val.add_argument("--iterations", type=int, default=2000)
    val.add_argument("--workers", type=int, default=1)
    return parser


def _load_inputs(args, default_network, iterations=1, workers=1):
    """(network path, spec, config, profile set, cost table) of a command;
    the input files are read before the options are checked."""
    network_path = args.network or default_network
    spec = parse_network_file(network_path)

    # bundled profile/cost defaults belong to the bundled study feeder only
    bundled = args.network is None and default_network == scenarios.bundled_network_path()
    loads_path = args.loads or (scenarios.bundled_load_profiles_path() if bundled else None)
    production_path = args.production or (scenarios.bundled_wind_path() if bundled else None)
    costs_path = args.costs or (scenarios.bundled_costs_path() if bundled else None)

    load_series = read_timeseries_csv(loads_path, LOAD) if loads_path else {}
    production_series = (read_timeseries_csv(production_path, PRODUCTION)
                         if production_path else {})
    if costs_path:
        cost_table = read_cost_table(costs_path)
    else:
        categories = {b.load.category for b in spec.buses if b.load is not None}
        cost_table = {c: 1.0 for c in categories}
    config = engine.SimulationConfig(
        increment_h=duration_hours(args.increment),
        horizon_h=duration_hours(args.horizon),
        iterations=iterations,
        master_seed=args.seed,
        automated_sectioning_h=duration_hours(args.automated_sectioning),
        manual_sectioning_h=duration_hours(args.manual_sectioning),
        worker_count=workers,
    )
    profiles = ProfileSet(config.increment_h, config.horizon_h,
                          load_series, production_series)
    return network_path, spec, config, profiles, cost_table


def _warn_missing_profiles(model, profiles):
    """Warn about each profile `model` names that `profiles` lacks."""
    wanted = {b.load.profile for b in model.buses.values()
              if b.load is not None and b.load.profile != "flat"}
    missing = sorted(wanted - set(profiles.load))
    if missing:
        log.warning("no load profile for %s; using a flat multiplier of 1",
                    ", ".join(missing))
    for unit in model.production.values():
        if unit.profile and unit.profile not in profiles.production:
            log.warning("no production profile for %r; unit runs at its rated "
                        "maximum", unit.profile)


def _print_warnings(name, ledgers):
    counts = engine.warning_counts(ledgers)
    print(f"{name}: warnings: "
          + ", ".join(f"{kind} {count}" for kind, count in counts.items()),
          file=sys.stderr)


def _cmd_simulate(args) -> int:
    network_path, base_spec, config, profiles, cost_table = _load_inputs(
        args, scenarios.bundled_network_path(), args.iterations, args.workers)

    names = scenarios.parse_scenario_list(args.scenario) if args.scenario else (None,)
    for name in names:
        spec = scenarios.apply_scenario(base_spec, name) if name else base_spec
        model = build_network(spec)
        _warn_missing_profiles(model, profiles)
        ledgers = engine.run_monte_carlo(model, profiles, config, cost_table)
        reports = [indices.iteration_report(l, cost_table) for l in ledgers]
        summary = indices.aggregate(reports)

        out_dir = os.path.join(args.out, name) if name else args.out
        meta = results.run_metadata(config, network_path, scenario=name)
        written = results.write_results(out_dir, reports, summary, meta)
        caidi_text = ("-" if summary.caidi_of_means is None
                      else f"{summary.caidi_of_means:.4f}")
        print(f"{name or 'run'}: ENS {summary.ens.mean:.4f} MWh/yr  "
              f"CENS {summary.cens.mean:.2f}  SAIFI {summary.saifi.mean:.4f}  "
              f"SAIDI {summary.saidi.mean:.4f}  CAIDI {caidi_text}")
        for path in written:
            print(f"  wrote {path}")
        _print_warnings(name or "run", ledgers)
    return EXIT_OK


def _mean_loads(model, profiles):
    out = {}
    for b in model.load_points:
        load = model.buses[b].load
        if load is None:
            out[b] = 0.0
        else:
            out[b] = load.peak_mw * profiles.load_mean(load.profile)
    return out


def _cmd_analytical(args) -> int:
    network_path, spec, config, profiles, _costs = _load_inputs(
        args, scenarios.bundled_validation_path())
    model = build_network(spec)
    report = analytical_indices(model, _mean_loads(model, profiles),
                                sectioning_h=config.manual_sectioning_h)
    _warn_missing_profiles(model, profiles)  # once the network is known passive

    print(f"analytical report for {network_path}")
    print(f"{'load point':<12}{'lambda [1/yr]':>14}{'U [h/yr]':>12}{'r [h]':>10}")
    for b in model.load_points:
        r = report.r_i[b]
        r_text = "-" if r is None else f"{r:.4f}"
        print(f"{b:<12}{report.lambda_i[b]:>14.4f}{report.u_i[b]:>12.4f}{r_text:>10}")
    caidi_text = "-" if report.caidi is None else f"{report.caidi:.4f}"
    print(f"SAIFI {report.saifi:.4f}  SAIDI {report.saidi:.4f}  "
          f"CAIDI {caidi_text}  ENS {report.ens_mwh:.4f} MWh/yr")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "analytical.csv")
        results.write_load_points(path, [
            (b, report.lambda_i[b], report.u_i[b], report.r_i[b]) for b in model.load_points])
        print(f"  wrote {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    network_path, spec, config, profiles, cost_table = _load_inputs(
        args, scenarios.bundled_validation_path(), args.iterations, args.workers)
    model = build_network(spec)
    analytical = analytical_indices(model, _mean_loads(model, profiles),
                                    sectioning_h=config.manual_sectioning_h)
    _warn_missing_profiles(model, profiles)  # once the network is known passive
    ledgers = engine.run_monte_carlo(model, profiles, config, cost_table)
    reports = [indices.iteration_report(l, cost_table) for l in ledgers]
    summary = indices.aggregate(reports)

    rows = [
        ("SAIFI", analytical.saifi, summary.saifi.mean),
        ("SAIDI", analytical.saidi, summary.saidi.mean),
        ("CAIDI", analytical.caidi, summary.caidi_of_means),
        ("ENS", analytical.ens_mwh, summary.ens.mean),
    ]
    print(f"validation on {network_path} ({config.iterations} iterations)")
    print(f"{'Index':<8}{'Analytical':>14}{'Simulation':>14}{'Difference [%]':>16}")
    for name, ana, sim in rows:
        if ana is None or sim is None or ana == 0:
            print(f"{name:<8}{'-':>14}{'-':>14}{'-':>16}")
            continue
        diff = 100.0 * (sim - ana) / ana
        print(f"{name:<8}{ana:>14.4f}{sim:>14.4f}{diff:>16.2f}")
    _print_warnings("run", ledgers)
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "analytical":
            return _cmd_analytical(args)
        return _cmd_validate(args)
    except (NetworkFileError, NetworkValidationError, ActiveComponentsError,
            TimeSeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except indices.MissingCostCategory as exc:  # a KeyError, whose str() adds quotes
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failures keep a distinct exit code
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
