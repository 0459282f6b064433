"""Record the gate's reference outputs at each workload's default seed.

    python3 bench/record_reference.py [workload ...]

Runs the CLI in this process, as `run.py`'s children do, and writes
`reference/<workload>.json`. Re-record only when a change is meant to alter
report numbers beyond the gate's tolerance, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import gate  # noqa: E402
import workloads  # noqa: E402
from run import ROOT, WORK_ROOT  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))


def record(name: str) -> str:
    from xyzglass import cli

    subcommand, cfg = workloads.make_config(name, workloads.DEFAULT_SEED)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference_", dir=WORK_ROOT)
    try:
        config = os.path.join(work, "config.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        code, report = cli.run(subcommand, cli.resolve_config(cli.load_config(config), None), 1, False, work)
        if code != 0:
            raise SystemExit(f"{name}: the CLI exited {code}; not recording a failing run")
        outputs = gate.load_outputs(report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = os.path.join(gate.REFERENCE_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(outputs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        print(record(name))
