"""Layer ladder: one disorder sample of the mc-small model, stage by stage,
through the public functions at 2, 4, 6, 8 and 10 sites.

`sample_ms` is the whole per-sample evaluation (every stage but the bare
`eigh`); `eigh_ratio` is sample_ms over a bare `np.linalg.eigh` of the same
H. Below 10 sites a size repeats samples for at least MIN_SECONDS and reports
per-stage medians; at 10 sites it takes one sample (about 10 s).

Requires `xyzglass` to be importable.
"""

from __future__ import annotations

import statistics
import time

SIZES = (2, 4, 6, 8, 10)
STAGES = ("draw", "build", "eigh", "decompose", "thermal", "expect", "duhamel", "classical")
MIN_SECONDS = 0.3
MIN_REPEATS = 3
SINGLE_SAMPLE_SITES = 10


def metric_names() -> list[str]:
    names = [f"ladder.{s}_ms.n{n}" for s in STAGES + ("sample",) for n in SIZES]
    return names + [f"ladder.eigh_ratio.n{n}" for n in SIZES]


def _time_sample(ctx: dict, k: int) -> dict[str, float]:
    import numpy as np
    from xyzglass import (
        duhamel,
        gibbs_expectation,
        nishimori_transform,
        sample_disorder,
        spectral_decompose,
        thermal_state,
    )

    model, params = ctx["model"], ctx["model"].params
    ms: dict[str, float] = {}
    t = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal t
        now = time.perf_counter()
        ms[stage] = (now - t) * 1e3
        t = now

    sample = sample_disorder(params, model.families, ctx["seed"], k)
    lap("draw")
    h = ctx["builder"].build(sample)
    lap("build")
    np.linalg.eigh(h)
    lap("eigh")
    spectrum = spectral_decompose(h)
    lap("decompose")
    state = thermal_state(spectrum, model.beta)
    lap("thermal")
    gibbs_expectation(state, ctx["op_x"])
    gibbs_expectation(state, ctx["op_y"])
    lap("expect")
    duhamel(state, ctx["op_x"], ctx["op_y"])
    lap("duhamel")
    nd = nishimori_transform(sample, params, "x")
    ctx["table"].expectations(nd.k, ctx["betas"], [ctx["diff"]])
    lap("classical")
    ms["sample"] = sum(v for s, v in ms.items() if s != "eigh")
    return ms


def run_ladder(seed: int) -> dict[str, float]:
    from workloads import identities_config
    from xyzglass import HamiltonianBuilder, nishimori_beta, pauli_product
    from xyzglass.classical_gibbs import BondProductTable
    from xyzglass.cli import build_model, resolve_config

    out: dict[str, float] = {}
    for n in SIZES:
        cfg = resolve_config({"seed": seed, **identities_config(n, 2)}, None)
        model = build_model(cfg)
        ctx = {
            "seed": seed,
            "model": model,
            "builder": HamiltonianBuilder(model.lattice, model.families),
            "table": BondProductTable(n, model.families),
            "op_x": pauli_product(n, [0], "z"),
            "op_y": pauli_product(n, [n - 1], "z"),
            "betas": {p: nishimori_beta(model.params, p, "x") for p in model.families},
            "diff": tuple(sorted({0} ^ {n - 1})),
        }
        laps = []
        start = time.perf_counter()
        while not laps or (
            n < SINGLE_SAMPLE_SITES
            and (len(laps) < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS)
        ):
            laps.append(_time_sample(ctx, len(laps)))
        for stage in STAGES + ("sample",):
            out[f"ladder.{stage}_ms.n{n}"] = statistics.median(lap[stage] for lap in laps)
        out[f"ladder.eigh_ratio.n{n}"] = out[f"ladder.sample_ms.n{n}"] / out[f"ladder.eigh_ms.n{n}"]
    return out
