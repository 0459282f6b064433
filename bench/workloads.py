"""The four benchmark workloads: each is a CLI subcommand plus a config that
is generated from the workload seed.

Every model is a 1-d chain with Gaussian couplings of std-dev 0.8 on all
three axes, as in the shipped `identities_mc` and `bounds_mc` configs. Sample
counts are sized so that one CLI run takes a few seconds on a 2-core box,
which lets one benchmark run repeat it in fresh processes, and so that the
statistical checks pass on every seed, nearly always without the doubled-n
retry.
"""

from __future__ import annotations

#: Seed at which each workload's reference report is recorded.
DEFAULT_SEED = 1


def _gauss(mu: float) -> dict:
    return {a: {"mu": mu, "delta": 0.8} for a in ("x", "y", "z")}


_PAIR = [[[0], [1]]]


def identities_config(n_sites: int, n_samples: int) -> dict:
    """The shipped identities_mc model on an n-site open chain, without seed."""
    return {
        "lattice": {"d": 1, "L": n_sites, "boundary": "open"},
        "shapes": {"1": [[[0]]], "2": _PAIR},
        "couplings": {"1": _gauss(0.3), "2": _gauss(0.3)},
        "beta": 0.6,
        "gauge_axis": "x",
        "observables": {"axis": "z", "x_sites": [0], "y_sites": [n_sites - 1]},
        "method": {"kind": "mc", "n_samples": n_samples},
    }


def _bounds(
    lattice: dict, shapes: dict, mu: float, checks: list[str], n_samples: int
) -> dict:
    return {
        "lattice": lattice,
        "shapes": shapes,
        "couplings": {p: _gauss(mu) for p in shapes},
        "beta": 0.7,
        "gauge_axis": "x",
        "bounds": {"w": "z", "v": "z", "u": "x", "a2_step": 0.05, "checks": checks},
        "method": {"kind": "mc", "n_samples": n_samples},
        "export_correlations": True,
    }


#: name -> (subcommand, config without its seed)
WORKLOADS: dict[str, tuple[str, dict]] = {
    # Python and library overhead per sample: thermal weights, small eigh,
    # Hamiltonian assembly, draws. Fused or batched passes show here.
    "mc-small": ("verify-identities", identities_config(4, 500)),
    # Dense kernels: the O(dim^3) expectation einsum and eigh at dim 256,
    # and the 47 MiB term stack in peak memory.
    "ed-8site": ("verify-identities", identities_config(8, 10)),
    # Bound chains: 5 disorder passes and 7 decompositions per sample, with
    # the O(N dim^4) susceptibility transform on top. The coupling mean is
    # 0.6, not the shipped 0.3: at 0.3 the end-to-end pair correlation is
    # about 0.002, and its estimate goes negative (a clip-fraction failure)
    # on 18 of 28 seeds at n=40. At 0.6 and n=40 the classical Nishimori
    # identity still fails on 2 of 20 seeds; n=100 is the size that passed
    # on every seed tried.
    "bounds-5site": (
        "verify-bounds",
        _bounds(
            {"d": 1, "L": 5, "boundary": "open"},
            {"2": _PAIR},
            0.6,
            ["magnetization", "susceptibility", "a1", "a2"],
            100,
        ),
    ),
    # Classical enumeration only: BondProductTable over 2^14 configurations,
    # no diagonalization at all. At coupling mean 0.3 and n=300 the a1 clip
    # check failed on 1 of 40 seeds; at 0.4 it passed on 60 of 60.
    "classical-14site": (
        "verify-bounds",
        _bounds(
            {"d": 1, "L": 14, "boundary": "periodic"},
            {"2": _PAIR, "4": [[[0], [1], [2], [3]]]},
            0.4,
            ["a1"],
            400,
        ),
    ),
}


def make_config(name: str, seed: int) -> tuple[str, dict]:
    """The subcommand and the full config of workload `name` at `seed`."""
    subcommand, body = WORKLOADS[name]
    return subcommand, {"seed": int(seed), **body}


def n_samples(name: str) -> int:
    return WORKLOADS[name][1]["method"]["n_samples"]
