"""The golden runs: the shipped configs shrunk to a few samples, a 6-site
bound run on the parity sectors, the `--extended-multipoint` run and
`selftest`, each with the report and CSV files it writes.
`tests/test_golden.py` compares a fresh run of each with the copy under
`tests/golden/`, the report's timestamp removed.

Re-record them only when a change is meant to move report numbers, and list
every changed path:

    PYTHONPATH=src python tests/record_golden.py
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).parents[1] / "src"
CONFIGS = pathlib.Path(__file__).parents[1] / "configs"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def shrunk(name, **changes):
    """A shipped config cut to at most 4 sites, 20 samples, 4 quadrature
    nodes per dimension and 4 phase-grid points per axis."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    if "lattice" in cfg:
        cfg["lattice"]["L"] = min(cfg["lattice"]["L"], 4)
    method = cfg.get("method", {})
    if "n_samples" in method:
        method["n_samples"] = min(method["n_samples"], 20)
    if "nodes_per_dim" in method:
        method["nodes_per_dim"] = min(method["nodes_per_dim"], 4)
    for axis in cfg.get("phase_grid", {}).values():
        axis[2] = min(axis[2], 4)
    return {**cfg, **changes}


#: (name, subcommand, config or None, extra arguments) of every run with a
#: report; the disorder dump's CSV pins the disorder stream itself.
RUNS = [
    ("identities_mc", "verify-identities", shrunk("identities_mc"), []),
    # 8 sites with a single-site x field: the dense whole-space path at dim 256
    ("identities_mc_8site", "verify-identities", shrunk(
        "identities_mc", lattice={"d": 1, "L": 8, "boundary": "open"},
        method={"kind": "mc", "n_samples": 2},
    ), []),
    # a z_max no residual meets: the doubled-n retry, and the disorder dump
    ("identities_mc_retry", "verify-identities", shrunk(
        "identities_mc", tolerances={"z_max": 1e-9}, dump_disorder_sample=True
    ), []),
    ("identities_quadrature_extended", "verify-identities", shrunk("identities_quadrature"),
     ["--extended-multipoint"]),
    # seed 1: 20 samples clip no square root, so every chain reaches its report
    ("bounds_mc", "verify-bounds", shrunk("bounds_mc"), ["--seed", "1"]),
    # the benchmark's bound-chain model on 6 sites: parity blocks of dim 32.
    # Seed 1 at n=40: every chain reaches its report and passes
    ("bounds_mc_6site_parity", "verify-bounds", shrunk(
        "bounds_mc", lattice={"d": 1, "L": 6, "boundary": "open"},
        couplings={"2": {a: {"mu": 0.6, "delta": 0.8} for a in ("x", "y", "z")}},
        bounds={"w": "z", "v": "z", "u": "x", "a2_step": 0.05,
                "checks": ["magnetization", "susceptibility", "a1", "a2"]},
        method={"kind": "mc", "n_samples": 40},
    ), ["--seed", "1"]),
    ("order_params", "order-params", shrunk("order_params"), []),
    ("phase_region", "phase-region", shrunk("phase_region"), []),
    ("selftest", "selftest", None, []),
]


def argv(subcommand, cfg, extra, directory):
    """The CLI arguments of one run writing under `directory`; its config,
    if any, is written there first."""
    args = [subcommand, "--out", str(directory / "runs"), "--threads", "1", *extra]
    if cfg is not None:
        path = directory / "config.json"
        path.write_text(json.dumps(cfg))
        args += ["--config", str(path)]
    return args


def outputs(subcommand, cfg, extra, directory):
    """(exit code, {file name: text}) of one run in a fresh interpreter with
    one BLAS thread, since the bits of a dense product at dim 256 depend on
    the thread count: its report without the timestamp and every CSV it
    wrote."""
    directory = pathlib.Path(directory)
    env = {
        **os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
    }
    command = [sys.executable, "-m", "xyzglass.cli", *argv(subcommand, cfg, extra, directory)]
    code = subprocess.run(command, env=env, stdout=subprocess.DEVNULL, check=False).returncode
    (run_dir,) = (directory / "runs").iterdir()
    files = {}
    for path in sorted(run_dir.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            report = json.loads(text)
            del report["timestamp"]
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        files[path.name] = text
    return code, files


def golden_name(name, file_name):
    return f"{name}.{file_name}"


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, subcommand, cfg, extra in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            code, files = outputs(subcommand, cfg, extra, tmp)
        for file_name, text in files.items():
            (GOLDEN / golden_name(name, file_name)).write_text(text)
        print(f"{name}: exit {code}, {sorted(files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
