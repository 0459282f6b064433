"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical checks use
fixed seeds; the single permitted retry (doubled sample count) is built into
the helpers where the criterion allows it.
"""

import contextlib
import json
import math
import os
import time

import numpy as np
import pytest

from xyzglass.classical_gibbs import ClassicalModel, classical_expectation
from xyzglass.cli import main as cli_main
from xyzglass.disorder import (
    CouplingParams,
    gauge_transform_couplings,
    gaussian_log_density,
    nishimori_transform,
    sample_disorder,
)
from xyzglass.identities import (
    DuhamelBlock,
    MagnetizationBlock,
    ModelConfig,
    MonteCarlo,
    OnePointBlock,
    Plan,
    Quadrature,
    SusceptibilityBlock,
    TwoPointBlock,
)
from xyzglass.lattice import (
    build_lattice,
    chain_pair_shape,
    generate_bonds,
    single_site_shape,
)
from xyzglass.operators import AXES, gauge_unitary, pauli_product, pauli_site
from xyzglass.phase_region import (
    RatioGrid,
    RegionQuery,
    membership_from_ratios,
    region_membership,
    write_region_csv,
)
from xyzglass.quantum_gibbs import (
    build_hamiltonian,
    derivative_identity_residual,
    duhamel,
    duhamel_time_integral,
    gibbs_expectation,
    spectral_decompose,
    thermal_state,
    z2_commutator_norm,
)
from xyzglass.tolerances import Tolerances

from plans import evaluate_alone

Z_MAX = 4.0
QUAD_TOL = 1e-8


@contextlib.contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} [{name}]: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number:2d} [{name}]: PASS ({time.perf_counter() - start:.1f}s)")


def chain_families(L, boundary="open", orders=(1, 2)):
    lat = build_lattice(1, L)
    fams = {}
    if 1 in orders:
        fams[1] = generate_bonds(lat, single_site_shape(), boundary)
    if 2 in orders:
        fams[2] = generate_bonds(lat, chain_pair_shape(), boundary)
    return lat, fams


def gaussian_chain_config(L, beta=0.6, mu=0.3, delta=0.8, orders=(1, 2)):
    lat, fams = chain_families(L, orders=orders)
    params = CouplingParams({p: {a: (mu, delta) for a in AXES} for p in orders})
    return ModelConfig(lattice=lat, families=fams, params=params, beta=beta)


def results_with_retry(table, blocks):
    """Each identity group's results, with one doubled-n retry per group per
    the flaky budget.

    Every group is a block of one shared table. A group with a failing member
    is reported from the table extended once to 2n rows, which every failing
    group shares. Returns (results, retried) per group.
    """
    bigger = None
    out = []
    for block in blocks:
        results = block.result(table)
        retried = not all(abs(r.z_score) < Z_MAX for r in results)
        if retried:
            if bigger is None:
                bigger = table.extend(2 * table.n_samples)
            results = block.result(bigger)
        out.append((results, retried))
    return out


def identity_suite(L):
    """The default identity groups on sites 0 and L-1: one-point, two-point,
    Duhamel."""
    return [
        OnePointBlock([0], "z"),
        TwoPointBlock([0], [L - 1], "z"),
        DuhamelBlock([0], [L - 1], "z"),
    ]


def test_criterion_01_operator_algebra():
    with criterion(1, "operator algebra, gauge conjugation, gauge invariance"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        cyclic = [("y", "z", "x"), ("z", "x", "y"), ("x", "y", "z")]
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 5))
            dim = 2**n
            k, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            for a, b, c in cyclic:
                lhs = pauli_site(n, k, a) @ pauli_site(n, j, b) \
                    - pauli_site(n, j, b) @ pauli_site(n, k, a)
                rhs = 2j * pauli_site(n, j, c) if k == j else np.zeros((dim, dim))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            axis = AXES[int(rng.integers(0, 3))]
            op = pauli_site(n, k, axis)
            worst = max(worst, float(np.max(np.abs(op @ op - np.eye(dim)))))
            # gauge conjugation rule on all sites and axes
            tau = rng.choice([-1, 1], size=n)
            u = AXES[int(rng.integers(0, 3))]
            g = gauge_unitary(n, u, tau)
            for i in range(n):
                for w in AXES:
                    conj = g @ pauli_site(n, i, w) @ g.conj().T
                    expected = pauli_site(n, i, w) * (1 if w == u else tau[i])
                    worst = max(worst, float(np.max(np.abs(conj - expected))))
            # Hamiltonian invariance: conjugation matches transformed couplings
            lat, fams = chain_families(n) if n > 1 else chain_families(1, orders=(1,))
            params = CouplingParams(
                {p: {a: (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.2, 1.0)))
                     for a in AXES} for p in fams}
            )
            sample = sample_disorder(params, fams, seed=int(rng.integers(2**31)))
            ham = build_hamiltonian(lat, fams, sample)
            moved = build_hamiltonian(lat, fams, gauge_transform_couplings(sample, tau, u))
            scale = max(1.0, float(np.max(np.abs(ham))))
            worst = max(worst, float(np.max(np.abs(g @ ham @ g.conj().T - moved))) / scale)
        elapsed = time.perf_counter() - start
        assert worst < 1e-12, f"max residual {worst}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_02_change_of_variables():
    with criterion(2, "rotated-coupling change-of-variables relation"):
        start = time.perf_counter()
        lat = build_lattice(1, 24)
        fams = {
            1: generate_bonds(lat, single_site_shape(), "periodic"),
            2: generate_bonds(lat, chain_pair_shape(), "periodic"),
        }
        mu, delta = 0.37, 1.21
        params = CouplingParams({p: {a: (mu, delta) for a in AXES} for p in (1, 2)})
        worst = 0.0
        checked = 0
        k = 0
        while checked < 10**5:
            sample = sample_disorder(params, fams, 202, k)
            nd = nishimori_transform(sample, params, "z")
            for p in (1, 2):
                beta_n = nd.betas[p]
                lhs = (nd.k[p] - beta_n) ** 2 + nd.g[p] ** 2
                jx, jy = sample.couplings[p]["x"], sample.couplings[p]["y"]
                rhs = ((jx - mu) / delta) ** 2 + ((jy - mu) / delta) ** 2
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
                checked += len(lhs)
            k += 1
        elapsed = time.perf_counter() - start
        assert worst < 1e-12, f"max deviation {worst} over {checked} draws"
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_03_density_gauge_covariance():
    with criterion(3, "gauge covariance of the coupling density"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        mu, delta = 0.45, 0.85
        n = 10**5
        j = rng.normal(mu, delta, size=n)
        tau = rng.choice([-1, 1], size=n)
        worst = 0.0
        for jv, tv in zip(j, tau):
            lhs = gaussian_log_density(jv * tv, mu, delta)
            rhs = gaussian_log_density(jv, mu, delta) + (mu / delta**2) * jv * (tv - 1.0)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10, f"max relative deviation {worst}"
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def _quad_single_site_config():
    lat = build_lattice(1, 1)
    fams = {1: generate_bonds(lat, single_site_shape(), "open")}
    params = CouplingParams({1: {"x": (0.6, 0.0), "y": (0.5, 0.8), "z": (0.7, 0.9)}})
    return ModelConfig(lattice=lat, families=fams, params=params, beta=0.5)


def _quad_two_site_config():
    # pair couplings Gaussian on the transformed axes with a point-mass
    # spectator component, plus a Gaussian z field: 4 grid dimensions
    lat, fams = chain_families(2)
    params = CouplingParams({
        1: {"z": (0.35, 0.75)},
        2: {"x": (0.4, 0.0), "y": (0.3, 0.85), "z": (0.35, 0.9)},
    })
    return ModelConfig(lattice=lat, families=fams, params=params, beta=0.5)


def test_criterion_04_identities_deterministic():
    with criterion(4, "correlation identities by deterministic quadrature"):
        start = time.perf_counter()
        residuals = []
        for cfg, L, nodes in ((_quad_single_site_config(), 1, 24), (_quad_two_site_config(), 2, 16)):
            blocks = identity_suite(L)
            table = Plan(cfg, blocks, "x").evaluate(Quadrature(nodes))
            for block in blocks:
                residuals.extend(r.mean for r in block.result(table))
        elapsed = time.perf_counter() - start
        assert len(residuals) == 10
        assert max(abs(r) for r in residuals) < QUAD_TOL, f"residuals {residuals}"
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_05_identities_statistical():
    with criterion(5, "correlation identities by paired Monte Carlo"):
        start = time.perf_counter()
        retried_any = False
        for L, seed in ((2, 505), (4, 506)):
            cfg = gaussian_chain_config(L)
            blocks = identity_suite(L)
            table = Plan(cfg, blocks, "x").evaluate(MonteCarlo(n_samples=10**5, seed=seed))
            for results, retried in results_with_retry(table, blocks):
                retried_any = retried_any or retried
                for result in results:
                    assert abs(result.z_score) < Z_MAX, (
                        f"L={L}: |z| = {abs(result.z_score):.2f} after retry={retried}"
                    )
        elapsed = time.perf_counter() - start
        assert elapsed < 1200.0, f"took {elapsed:.1f}s (retried={retried_any})"


def test_criterion_06_duhamel_vs_time_integration():
    with criterion(6, "Duhamel spectral formula versus Simpson integration"):
        start = time.perf_counter()
        rng = np.random.default_rng(606)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 4))
            orders = (1,) if n == 1 else (1, 2)
            lat, fams = chain_families(n, orders=orders)
            params = CouplingParams(
                {p: {a: (float(rng.uniform(-0.4, 0.4)), float(rng.uniform(0.2, 0.9)))
                     for a in AXES} for p in orders}
            )
            sample = sample_disorder(params, fams, seed=int(rng.integers(2**31)))
            ham = build_hamiltonian(lat, fams, sample)
            beta = float(rng.uniform(0.1, 1.5))
            state = thermal_state(spectral_decompose(ham), beta)
            sites_a = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            sites_b = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            a = pauli_product(n, sites_a, AXES[int(rng.integers(0, 3))])
            b = pauli_product(n, sites_b, AXES[int(rng.integers(0, 3))])
            spectral = duhamel(state, a, b)
            integral = duhamel_time_integral(ham, beta, a, b, num_intervals=200)
            worst = max(worst, abs(spectral - integral))
        elapsed = time.perf_counter() - start
        assert worst < 1e-7, f"max disagreement {worst}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_07_derivative_identity():
    with criterion(7, "field derivative equals linear response"):
        start = time.perf_counter()
        rng = np.random.default_rng(707)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 4))
            lat, fams = chain_families(n)
            params = CouplingParams(
                {p: {a: (float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.3, 0.8)))
                     for a in AXES} for p in (1, 2)}
            )
            sample = sample_disorder(params, fams, seed=int(rng.integers(2**31)))
            f = pauli_product(n, rng.choice(n, size=2, replace=False), AXES[int(rng.integers(0, 3))])
            beta = float(rng.uniform(0.2, 1.0))
            res = derivative_identity_residual(
                lat, fams, sample, beta, f, AXES[int(rng.integers(0, 3))], 1e-4
            )
            worst = max(worst, res)
        elapsed = time.perf_counter() - start
        assert worst < 1e-6, f"max residual {worst}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_08_quantum_classical_reduction():
    with criterion(8, "single-axis quantum model reduces to exact enumeration"):
        start = time.perf_counter()
        rng = np.random.default_rng(808)
        worst = 0.0
        sizes = [2, 3, 4, 5, 6, 7, 8, 8, 9, 10] + [int(x) for x in rng.integers(2, 9, 10)]
        for n in sizes:
            axis = AXES[int(rng.integers(0, 3))]
            lat, fams = chain_families(n, orders=(1, 2) if n > 1 else (1,))
            params = CouplingParams(
                {p: {axis: (float(rng.uniform(-0.4, 0.4)), float(rng.uniform(0.3, 0.9)))}
                 for p in fams}
            )
            sample = sample_disorder(params, fams, seed=int(rng.integers(2**31)))
            beta = float(rng.uniform(0.2, 1.2))
            state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), beta)
            model = ClassicalModel(
                n_sites=n,
                families=fams,
                couplings={p: sample.couplings[p][axis] for p in fams},
                betas={p: beta for p in fams},
            )
            size = int(rng.integers(1, min(n, 3) + 1))
            sites = tuple(sorted(int(s) for s in rng.choice(n, size=size, replace=False)))
            quantum = gibbs_expectation(state, pauli_product(n, sites, axis))
            classical = classical_expectation(model, sites)
            worst = max(worst, abs(quantum - classical))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10, f"max disagreement {worst}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_09_bound_chains():
    with criterion(9, "magnetization and susceptibility bound chains"):
        start = time.perf_counter()
        # three finite-temperature benchmarks plus the exact beta = 0 case
        lat2, fams2 = chain_families(2)
        field_cfg = ModelConfig(
            lattice=lat2,
            families=fams2,
            params=CouplingParams({
                1: {"z": (0.4, 0.7)},
                2: {a: (0.3, 0.8) for a in AXES},
            }),
            beta=0.7,
        )
        tol = Tolerances()
        magnetization = MagnetizationBlock("z")
        rep = magnetization.result(
            evaluate_alone(field_cfg, magnetization, "x", MonteCarlo(2 * 10**4, seed=909)), tol
        )
        assert rep.passed, [s.name for s in rep.steps if not s.passed]
        assert rep.lhs > 0.01  # a genuinely magnetized benchmark

        even3 = gaussian_chain_config(3, beta=0.8, orders=(2,))
        same_axes = SusceptibilityBlock("z", "z")
        rep = same_axes.result(
            evaluate_alone(even3, same_axes, "x", MonteCarlo(2 * 10**4, seed=911)), tol
        )
        assert rep.passed, [s.name for s in rep.steps if not s.passed]
        assert rep.steps[0].name == "per-pair Duhamel magnitude" and rep.steps[0].passed

        cross_axes = SusceptibilityBlock("y", "z")
        rep = cross_axes.result(
            evaluate_alone(even3, cross_axes, "x", MonteCarlo(10**4, seed=913)), tol
        )
        assert rep.passed, [s.name for s in rep.steps if not s.passed]

        cold = ModelConfig(
            field_cfg.lattice, field_cfg.families, field_cfg.params, beta=0.0
        )
        rep = magnetization.result(
            evaluate_alone(cold, magnetization, "x", MonteCarlo(2000, seed=915)), tol
        )
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        cold_even = ModelConfig(even3.lattice, even3.families, even3.params, beta=0.0)
        rep = same_axes.result(
            evaluate_alone(cold_even, same_axes, "x", MonteCarlo(2000, seed=917)), tol
        )
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 1800.0, f"took {elapsed:.1f}s"


def test_criterion_10_flip_symmetry():
    with criterion(10, "global flip symmetry and its violation"):
        lat, fams = chain_families(3)
        even_only = CouplingParams({2: {a: (0.3, 0.7) for a in AXES}})
        ham = build_hamiltonian(lat, fams, sample_disorder(even_only, fams, 10))
        for axis in AXES:
            assert z2_commutator_norm(ham, axis) < 1e-12
        violating = CouplingParams(
            {1: {"y": (0.5, 0.0)}, 2: {a: (0.3, 0.7) for a in AXES}}
        )
        ham_bad = build_hamiltonian(lat, fams, sample_disorder(violating, fams, 10))
        assert z2_commutator_norm(ham_bad, "z") > 1e-3
        assert z2_commutator_norm(ham_bad, "x") > 1e-3
        assert z2_commutator_norm(ham_bad, "y") < 1e-12


def test_criterion_11_phase_region(tmp_path):
    with criterion(11, "phase-region geometry and grid export"):
        beta_t = 1.1
        rng = np.random.default_rng(111)
        # permutation symmetry and ratio-only dependence
        for _ in range(50):
            r = dict(zip("xyz", rng.uniform(0, 2, size=3)))
            flags = membership_from_ratios(r["x"], r["y"], r["z"], beta_t)
            swapped = membership_from_ratios(r["y"], r["x"], r["z"], beta_t)
            assert bool(swapped["x"]) == bool(flags["y"])
            assert bool(swapped["y"]) == bool(flags["x"])
            assert bool(swapped["z"]) == bool(flags["z"])
            scale = float(rng.uniform(0.1, 10))
            q1 = RegionQuery(1, 1, 1, r["x"], r["y"], r["z"], beta_t=beta_t)
            q2 = RegionQuery(
                scale, scale, scale,
                scale * r["x"], scale * r["y"], scale * r["z"], beta_t=beta_t,
            )
            assert region_membership(q1) == region_membership(q2)
        # monotone exit along a ray
        ray = np.linspace(0.0, 4.0, 500)
        flags = [
            region_membership(RegionQuery(1, 1, 1, t, 0.3, 0.2, beta_t=beta_t)).in_union
            for t in ray
        ]
        assert flags[0] and not flags[-1]
        assert sum(1 for a, b in zip(flags, flags[1:]) if a != b) == 1
        # the three direct membership cases
        origin = RegionQuery(1, 1, 1, 0, 0, 0, beta_t=beta_t)
        m = region_membership(origin)
        assert m.in_x and m.in_y and m.in_z and m.in_union
        lone = region_membership(RegionQuery(1, 1, 1, 50.0, 0, 0, beta_t=beta_t))
        assert not lone.in_union
        single = region_membership(RegionQuery(1, 1, 1, 0.0, 0.9, 0.9, beta_t=beta_t))
        assert single.in_x and not single.in_y and not single.in_z
        # exact boundary is excluded (strict inequality)
        edge = region_membership(RegionQuery(1, 1, 1, 0.0, 0.0, beta_t, beta_t=beta_t))
        assert not edge.in_union
        # 50^3 export under ten seconds
        start = time.perf_counter()
        grid = RatioGrid(x=(0.0, 2.0, 50), y=(0.0, 2.0, 50), z=(0.0, 2.0, 50))
        rows = write_region_csv(grid, beta_t, str(tmp_path / "region.csv"))
        elapsed = time.perf_counter() - start
        assert rows == 50**3
        assert elapsed < 10.0, f"export took {elapsed:.1f}s"


def test_criterion_12_report_determinism(tmp_path):
    with criterion(12, "byte-identical reports modulo timestamp"):
        config = {
            "seed": 12,
            "lattice": {"d": 1, "L": 1},
            "shapes": {"1": [[[0]]]},
            "couplings": {
                "1": {
                    "x": {"mu": 0.6, "delta": 0.0},
                    "y": {"mu": 0.5, "delta": 0.8},
                    "z": {"mu": 0.7, "delta": 0.9},
                }
            },
            "beta": 0.5,
            "gauge_axis": "x",
            "observables": {"axis": "z", "x_sites": [0], "y_sites": [0]},
            "method": {"kind": "quadrature", "nodes_per_dim": 24},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = str(tmp_path / "runs")
        assert cli_main(["verify-identities", "--config", str(cfg_path), "--out", out]) == 0
        assert cli_main(["verify-identities", "--config", str(cfg_path), "--out", out]) == 0
        run_dir = [d for d in os.listdir(out) if d.startswith("run_")]
        assert len(run_dir) == 1
        full = os.path.join(out, run_dir[0])
        reports = sorted(f for f in os.listdir(full) if f.startswith("report"))
        assert reports == ["report.json", "report_001.json"]

        def normalized(name):
            with open(os.path.join(full, name)) as fh:
                data = json.load(fh)
            data.pop("timestamp")
            return json.dumps(data, sort_keys=True)

        assert normalized(reports[0]) == normalized(reports[1])
