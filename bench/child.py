"""One measurement in a fresh interpreter; `run.py` starts these.

  child.py setup   --config C --subcommand S --result R
  child.py certify --config C --subcommand S --out D --result R [--spans P --run-id I]
  child.py ladder  --seed N --result R

Each mode writes one JSON object to R. `xyzglass` is imported from the
checkout's `src/`, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)


def _import_cli():
    from xyzglass import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"xyzglass imported from {cli.__file__}, not from {SRC}")
    return cli


def observable_operators(subcommand: str, cfg: dict, n_sites: int) -> list:
    """The dense observables the run builds: the identity observables, or the
    single-site operators of the quantum bound checks (none for `a1` alone)."""
    from xyzglass import pauli_product, pauli_site

    if subcommand == "verify-identities":
        obs = cfg["observables"]
        op_x = pauli_product(n_sites, obs["x_sites"], obs["axis"])
        op_y = pauli_product(n_sites, obs.get("y_sites", obs["x_sites"]), obs["axis"])
        return [op_x, op_y, op_x @ op_y]
    bounds = cfg["bounds"]
    if not {"magnetization", "susceptibility", "a2"} & set(bounds["checks"]):
        return []
    axes = sorted({bounds["w"], bounds["v"]})
    return [pauli_site(n_sites, i, a) for a in axes for i in range(n_sites)]


def calibration_s() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls.

    Each child times it right after its own measurement; `run.py` divides by
    it to cancel the speed swings of a shared box (see README, Noise).
    """
    import numpy as np

    m = np.arange(256.0).reshape(16, 16) / 256.0
    m = m + m.T
    t = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(400_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    for _ in range(4_000):
        np.linalg.eigh(m)
        np.exp(m[0])
        m @ m
    return time.perf_counter() - t


def setup(config: str, subcommand: str) -> dict:
    """setup_s: import, config load and resolve, model, and the run's builder,
    classical table and observables."""
    t0 = time.perf_counter()
    cli = _import_cli()
    from xyzglass import HamiltonianBuilder
    from xyzglass.classical_gibbs import BondProductTable

    t_import = time.perf_counter()
    cfg = cli.resolve_config(cli.load_config(config), None)
    model = cli.build_model(cfg)
    n = model.lattice.n_sites
    HamiltonianBuilder(model.lattice, model.families)
    BondProductTable(n, model.families)
    observable_operators(subcommand, cfg, n)
    t1 = time.perf_counter()
    return {"setup_s": t1 - t0, "import_s": t_import - t0, "calibration_s": calibration_s()}


def _builder_peak_mib(cli, config: str) -> float:
    """tracemalloc peak while the run's HamiltonianBuilder is constructed."""
    import tracemalloc

    from xyzglass import HamiltonianBuilder

    model = cli.build_model(cli.resolve_config(cli.load_config(config), None))
    tracemalloc.start()
    try:
        HamiltonianBuilder(model.lattice, model.families)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def certify(
    config: str, subcommand: str, out: str, spans_path: str | None, run_id: str
) -> dict:
    """certify_s: wall time of cli.main after import, optionally traced."""
    from provenance import blas_threads

    cli = _import_cli()
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    argv = [subcommand, "--config", config, "--threads", "1", "--out", out]
    t1 = time.perf_counter()
    code = cli.main(argv)
    t2 = time.perf_counter()
    result = {
        "certify_s": t2 - t1,
        "calibration_s": calibration_s(),
        "exit_code": code,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
        result["builder_peak_mib"] = _builder_peak_mib(cli, config)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "certify", "ladder"])
    parser.add_argument("--config")
    parser.add_argument("--subcommand")
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        result = setup(args.config, args.subcommand)
    elif args.mode == "certify":
        result = certify(args.config, args.subcommand, args.out, args.spans, args.run_id)
    else:
        _import_cli()
        from ladder import run_ladder

        result = run_ladder(args.seed)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
