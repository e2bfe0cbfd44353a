"""Benchmark of the gridrel study pipeline on the bundled IEEE-33 feeder.

    python3 perfbench/run.py --workload case2-islanded --seed 1 --seconds 30 --trace 0

Run from the repository root or anywhere else; the program is imported from
the `src` directory next to this one. The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`. Exit code 2 means the program could not be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bootstrap(root=ROOT):
    """Put the checkout's `src` first on the import path; refuse to run
    against anything else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gridrel", "__init__.py")):
        print(f"error: no gridrel sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)
    import gridrel
    if not os.path.abspath(gridrel.__file__).startswith(src + os.sep):
        print(f"error: gridrel was imported from {gridrel.__file__}, not from {src}",
              file=sys.stderr)
        raise SystemExit(2)


def declared_metrics(trace: bool, root=ROOT) -> list:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int,
                        help="iterations per study (default: the workload's own)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.iterations is not None and args.iterations < 1:
        parser.error("--iterations must be >= 1")
    return args


def main(argv=None, root=ROOT) -> int:
    args = _parse(argv)
    bootstrap(root)
    import envstamp
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 1
    declared = declared_metrics(bool(args.trace), root)
    load_before = os.getloadavg()
    probe_before = envstamp.speed_probe_ms()
    out_root = os.path.join(root, ".perfbench_out", f"{args.workload}-{os.getpid()}")
    try:
        with harness.LogTally() as logs:
            run = harness.trace if args.trace else harness.measure
            metrics, details, gate = run(args.workload, args.seed, args.seconds,
                                         out_root, logs, args.iterations)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    for message in gate.messages:
        print(message)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    stamp = envstamp.stamp(root)
    stamp["loadavg_before"] = load_before
    stamp["loadavg_after"] = os.getloadavg()
    stamp["speed_probe_ms_before"] = probe_before
    stamp["speed_probe_ms_after"] = envstamp.speed_probe_ms()
    failed_frac = gate.failed / gate.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{json.dumps(details, sort_keys=True)}")
    for m in declared:
        spread = details.get(m["name"])
        extra = (f"  n={spread['n']}  q1 {spread['q1']:.6g}  q3 {spread['q3']:.6g}"
                 if isinstance(spread, dict) else "")
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}{extra}")
    if args.trace and metrics["trace.coverage"] < 0.9:
        print(f"note: layer spans cover only {metrics['trace.coverage']:.1%} of "
              f"run_monte_carlo")
    if args.trace:
        print("end-to-end metrics of this run's untraced studies, all at --seed:")
        for m in declared_metrics(False, root):
            print(f"  {m['name']:<40} {details['untraced'][m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {failed_frac:>14.6g} ratio  "
          f"({gate.failed} of {gate.attempted} iterations)")
    print(f"stamp {json.dumps(stamp, sort_keys=True)}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
