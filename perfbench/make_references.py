"""Regenerate the committed reference results, one serial study per workload
at the default seed:

    python3 perfbench/make_references.py

Only do this when a change to the program is meant to change its results,
and say so in the change.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import ROOT, bootstrap


def main() -> int:
    bootstrap()
    import harness

    with harness.LogTally() as logs:
        for name, workload in harness.WORKLOADS.items():
            out_dir = os.path.join(harness.REFERENCE_DIR, name)
            shutil.rmtree(out_dir, ignore_errors=True)
            harness.run_study(workload, harness.DEFAULT_SEED, workload.iterations, 1,
                              out_dir, logs)
            print(f"wrote {os.path.relpath(out_dir, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
