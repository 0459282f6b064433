import itertools
import math

import numpy as np
import pytest

import xyzglass
from xyzglass.classical_gibbs import (
    BondProductTable,
    classical_expectation,
    classical_from_nishimori,
)
from xyzglass.disorder import (
    CouplingParams,
    NishimoriRotation,
    coupling_law,
    coupling_row,
    draw_row,
    nishimori_transform,
    sample_disorder,
)
from xyzglass.errors import CapacityError, UndersampledError
from xyzglass import identities
from xyzglass.identities import (
    ModelConfig,
    MonteCarlo,
    Quadrature,
    QuadratureSpec,
    a1_sum,
    a2_nonlinear_susceptibility,
    duhamel_identity,
    finite_size_order_parameters,
    magnetization_bound_check,
    mean_pair_correlation,
    one_point_identity,
    quadrature_average,
    susceptibility_bound_check,
    three_point_identity,
    two_point_identities,
)
from xyzglass.lattice import build_lattice, chain_pair_shape, generate_bonds, single_site_shape
from xyzglass.operators import PauliString, parity_sectors, pauli_product, pauli_site
from xyzglass.quantum_gibbs import (
    HamiltonianBuilder,
    SectorStack,
    build_hamiltonian,
    gibbs_expectation,
    spectral_decompose,
    string_expectations,
    thermal_state,
)


def single_site_config(beta=0.5, jx=0.6):
    lat = build_lattice(1, 1)
    fams = {1: generate_bonds(lat, single_site_shape(), "open")}
    params = CouplingParams({1: {"x": (jx, 0.0), "y": (0.5, 0.8), "z": (0.7, 0.9)}})
    return ModelConfig(lattice=lat, families=fams, params=params, beta=beta)


def chain_config(L, beta=0.6, mu=0.3, delta=0.8, with_field=True):
    lat = build_lattice(1, L)
    fams = {2: generate_bonds(lat, chain_pair_shape(), "open")}
    entries = {2: {a: (mu, delta) for a in "xyz"}}
    if with_field:
        fams[1] = generate_bonds(lat, single_site_shape(), "open")
        entries[1] = {a: (mu, delta) for a in "xyz"}
    return ModelConfig(
        lattice=lat, families=fams, params=CouplingParams(entries), beta=beta
    )


def quad_chain_config(beta=0.5):
    # 2-site chain: all-axes Gaussian pair couplings with a point-mass
    # x component, plus a Gaussian z field (4 grid dimensions at 16 nodes)
    lat = build_lattice(1, 2)
    fams = {
        1: generate_bonds(lat, single_site_shape(), "open"),
        2: generate_bonds(lat, chain_pair_shape(), "open"),
    }
    params = CouplingParams({
        1: {"z": (0.35, 0.75)},
        2: {"x": (0.4, 0.0), "y": (0.3, 0.85), "z": (0.35, 0.9)},
    })
    return ModelConfig(lattice=lat, families=fams, params=params, beta=beta)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def test_quadrature_moments():
    cfg = single_site_config()
    lat1 = build_lattice(1, 1)
    fams = {1: generate_bonds(lat1, single_site_shape(), "open")}
    mu, delta = 0.7, 1.3
    params = CouplingParams({1: {"z": (mu, delta)}})
    spec = QuadratureSpec.from_model(fams, params, 8)
    assert quadrature_average(spec, lambda s: s.value(1, "z", 0)) == pytest.approx(mu, abs=1e-12)
    assert quadrature_average(spec, lambda s: (s.value(1, "z", 0) - mu) ** 2) == pytest.approx(
        delta**2, abs=1e-12
    )
    std = QuadratureSpec.from_model(fams, CouplingParams({1: {"z": (0.0, 1.0)}}), 8)
    assert quadrature_average(std, lambda s: s.value(1, "z", 0) ** 4) == pytest.approx(
        3.0, abs=1e-12
    )
    assert cfg.params.is_active(1, "x")


def test_quadrature_node_guard():
    lat = build_lattice(1, 4)
    fams = {
        1: generate_bonds(lat, single_site_shape(), "open"),
        2: generate_bonds(lat, chain_pair_shape(), "open"),
    }
    params = CouplingParams({p: {a: (0.1, 1.0) for a in "xyz"} for p in (1, 2)})
    # 21 random dims at 16 nodes each is far beyond the guard
    with pytest.raises(CapacityError):
        QuadratureSpec.from_model(fams, params, 16)


def test_quadrature_zero_dims_single_node():
    lat = build_lattice(1, 1)
    fams = {1: generate_bonds(lat, single_site_shape(), "open")}
    params = CouplingParams({1: {"z": (0.4, 0.0)}})
    spec = QuadratureSpec.from_model(fams, params, 8)
    assert spec.node_count == 1
    assert quadrature_average(spec, lambda s: s.value(1, "z", 0)) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# correlation identities
# ---------------------------------------------------------------------------


def test_one_point_identity_single_site_quadrature():
    cfg = single_site_config()
    for w in ("y", "z"):
        res = one_point_identity(cfg, [0], w, "x", Quadrature(24))
        assert res.method == "quadrature"
        assert res.std_error == 0.0
        assert abs(res.mean) < 1e-8


def test_one_point_identity_beta_zero():
    cfg = single_site_config(beta=0.0)
    res = one_point_identity(cfg, [0], "z", "x", Quadrature(8))
    assert abs(res.mean) < 1e-14


def test_identity_rejects_matching_axes():
    cfg = single_site_config()
    with pytest.raises(ValueError):
        one_point_identity(cfg, [0], "x", "x", Quadrature(8))


def test_two_point_same_set_exact_zero():
    cfg = quad_chain_config()
    prod, joint = two_point_identities(cfg, [0, 1], [0, 1], "z", "x", Quadrature(4))
    # tau_X tau_X = 1, so both residuals vanish identically
    assert abs(prod.mean) < 1e-14
    assert abs(joint.mean) < 1e-14


def test_two_point_identity_quadrature():
    cfg = quad_chain_config()
    prod, joint = two_point_identities(cfg, [0], [1], "z", "x", Quadrature(10))
    assert abs(prod.mean) < 1e-7
    assert abs(joint.mean) < 1e-7


def test_duhamel_identity_quadrature():
    cfg = quad_chain_config()
    duh, trunc = duhamel_identity(cfg, [0], [1], "z", "x", Quadrature(10))
    assert abs(duh.mean) < 1e-7
    assert abs(trunc.mean) < 1e-7


def test_duhamel_identity_commuting_reduction():
    # z-axis-only couplings: sigma_X^z commutes with H, so the Duhamel
    # residual samples coincide with the joint two-point residual samples
    lat = build_lattice(1, 2)
    fams = {2: generate_bonds(lat, chain_pair_shape(), "open")}
    params = CouplingParams({2: {"z": (0.4, 0.9)}})
    cfg = ModelConfig(lattice=lat, families=fams, params=params, beta=0.8)
    method = MonteCarlo(n_samples=200, seed=31)
    _, joint = two_point_identities(cfg, [0], [1], "z", "x", method)
    duh, _ = duhamel_identity(cfg, [0], [1], "z", "x", method)
    assert duh.mean == pytest.approx(joint.mean, abs=1e-10)


def test_duhamel_identity_beta_zero_distinct_sets():
    cfg = quad_chain_config(beta=0.0)
    duh, trunc = duhamel_identity(cfg, [0], [1], "z", "x", Quadrature(4))
    assert abs(duh.mean) < 1e-14
    assert abs(trunc.mean) < 1e-14


def test_identities_paired_mc_z_scores():
    cfg = chain_config(2)
    method = MonteCarlo(n_samples=4000, seed=17)
    res = one_point_identity(cfg, [0], "z", "x", method)
    assert res.method == "mc" and res.n_samples == 4000
    assert abs(res.z_score) < 4
    prod, joint = two_point_identities(cfg, [0], [1], "z", "x", method)
    assert abs(prod.z_score) < 4 and abs(joint.z_score) < 4
    duh, trunc = duhamel_identity(cfg, [0], [1], "z", "x", method)
    assert abs(duh.z_score) < 4 and abs(trunc.z_score) < 4


def test_one_point_engine_matches_public_building_blocks():
    # recompute the paired residual mean from public pieces only
    cfg = chain_config(2)
    n, seed = 300, 23
    op = pauli_product(2, (0,), "z")
    residuals = np.empty(n)
    for k in range(n):
        sample = sample_disorder(cfg.params, cfg.families, seed, k)
        state = thermal_state(
            spectral_decompose(build_hamiltonian(cfg.lattice, cfg.families, sample)), cfg.beta
        )
        q = gibbs_expectation(state, op)
        nd = nishimori_transform(sample, cfg.params, "x")
        model = classical_from_nishimori(nd, cfg.families, 2)
        residuals[k] = q * (1.0 - classical_expectation(model, [0]))
    res = one_point_identity(cfg, [0], "z", "x", MonteCarlo(n_samples=n, seed=seed))
    assert res.mean == pytest.approx(residuals.mean(), abs=1e-12)


def test_paired_estimator_variance_beats_unpaired():
    cfg = chain_config(2)
    n, seed = 2000, 29
    op = pauli_product(2, (0,), "z")
    a_vals = np.empty(n)
    ab_vals = np.empty(n)
    for k in range(n):
        sample = sample_disorder(cfg.params, cfg.families, seed, k)
        state = thermal_state(
            spectral_decompose(build_hamiltonian(cfg.lattice, cfg.families, sample)), cfg.beta
        )
        q = gibbs_expectation(state, op)
        nd = nishimori_transform(sample, cfg.params, "x")
        model = classical_from_nishimori(nd, cfg.families, 2)
        a_vals[k] = q
        ab_vals[k] = q * classical_expectation(model, [0])
    paired_var = np.var(a_vals - ab_vals, ddof=1)
    unpaired_var = np.var(a_vals, ddof=1) + np.var(ab_vals, ddof=1)
    assert paired_var / unpaired_var < 1.0


def test_three_point_identity_quadrature():
    cfg = quad_chain_config()
    res = three_point_identity(cfg, [0], [1], [0, 1], "z", "x", Quadrature(8))
    assert abs(res.mean) < 1e-6


def test_validate_gauge_axis():
    lat = build_lattice(1, 2)
    fams = {2: generate_bonds(lat, chain_pair_shape(), "open")}
    good = CouplingParams({2: {"x": (0.5, 0.0), "y": (0.3, 0.8), "z": (0.3, 0.8)}})
    NishimoriRotation(good, fams, "x")
    bad = CouplingParams({2: {"x": (0.5, 0.8), "y": (0.3, 0.0), "z": (0.3, 0.8)}})
    with pytest.raises(ValueError):
        NishimoriRotation(bad, fams, "x")


# ---------------------------------------------------------------------------
# bound chains and diagnostics
# ---------------------------------------------------------------------------


def test_magnetization_bound_small_mc():
    cfg = chain_config(2, beta=0.7)
    rep = magnetization_bound_check(cfg, "z", "x", MonteCarlo(n_samples=3000, seed=41))
    assert rep.passed
    assert rep.lhs <= rep.rhs + 4 * 1.0  # sanity: chain holds with wide margin anyway
    names = [s.name for s in rep.steps]
    assert any("one-point identity" in n for n in names)
    assert any("Nishimori identity" in n for n in names)
    assert rep.steps[-1].name == "magnetization bound"


def test_magnetization_bound_beta_zero_exact():
    cfg = chain_config(2, beta=0.0)
    rep = magnetization_bound_check(cfg, "z", "x", MonteCarlo(n_samples=500, seed=43))
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)


def test_magnetization_bound_symmetric_disorder():
    # zero coupling means put the reference model at infinite temperature:
    # the classical side vanishes sample by sample and both sides sit at zero
    cfg = chain_config(2, beta=0.8, mu=0.0, delta=0.8)
    rep = magnetization_bound_check(cfg, "z", "x", MonteCarlo(n_samples=2000, seed=45))
    assert rep.passed
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert abs(rep.lhs) <= rep.steps[-1].tolerance


def test_susceptibility_bound_same_and_cross_axes():
    cfg = chain_config(3, beta=0.7, with_field=False)
    for v, w, u in [("z", "z", "x"), ("y", "z", "x")]:
        rep = susceptibility_bound_check(cfg, v, w, u, MonteCarlo(n_samples=2000, seed=47))
        assert rep.passed
        assert rep.steps[0].name == "per-pair Duhamel magnitude"
        assert rep.steps[0].rhs == 2.0
        assert rep.lhs <= rep.rhs + rep.steps[-1].tolerance
        # the N diagonal pairs alone contribute 2 beta to the bound
        assert rep.rhs >= 2.0 * cfg.beta - 1e-9


def test_susceptibility_bound_quadrature_exact():
    lat = build_lattice(1, 2)
    fams = {2: generate_bonds(lat, chain_pair_shape(), "open")}
    params = CouplingParams({2: {"x": (0.3, 0.0), "y": (0.3, 0.8), "z": (0.3, 0.8)}})
    cfg = ModelConfig(lattice=lat, families=fams, params=params, beta=0.4)
    rep = susceptibility_bound_check(cfg, "z", "z", "x", Quadrature(16))
    assert rep.passed
    assert rep.method == "quadrature"


def test_susceptibility_rejects_invalid_configs():
    cfg = chain_config(2)  # has an active field sector
    with pytest.raises(ValueError, match="single-site"):
        susceptibility_bound_check(cfg, "z", "z", "x", MonteCarlo(100, 1))
    even = chain_config(2, with_field=False)
    with pytest.raises(ValueError, match="gauge"):
        susceptibility_bound_check(even, "z", "x", "x", MonteCarlo(100, 1))
    lat = build_lattice(1, 3)
    fams = {3: generate_bonds(lat, type(chain_pair_shape())(3, ((0,), (1,), (2,))), "open")}
    odd = ModelConfig(
        lattice=lat, families=fams,
        params=CouplingParams({3: {a: (0.1, 0.5) for a in "xyz"}}), beta=0.5,
    )
    with pytest.raises(ValueError, match="even"):
        susceptibility_bound_check(odd, "z", "z", "x", MonteCarlo(100, 1))


def test_a1_single_site_is_one():
    lat = build_lattice(1, 1)
    fams = {1: generate_bonds(lat, single_site_shape(), "open")}
    params = CouplingParams({1: {"y": (0.4, 0.8), "z": (0.4, 0.8)}})
    cfg = ModelConfig(lattice=lat, families=fams, params=params, beta=0.5)
    res = a1_sum(cfg, "x", Quadrature(8))
    assert res.mean == pytest.approx(1.0, abs=1e-10)


def test_a1_infinite_temperature_diagonal_only():
    # symmetric disorder puts the reference temperature at zero: only i = j survives
    cfg = chain_config(3, mu=0.0, delta=0.8, with_field=False)
    res = a1_sum(cfg, "x", MonteCarlo(n_samples=200, seed=51))
    assert res.mean == pytest.approx(1.0, abs=1e-10)
    assert res.clip_count == 0


def test_a1_reports_value_with_error():
    cfg = chain_config(3, with_field=False, beta=0.5)
    res = a1_sum(cfg, "x", MonteCarlo(n_samples=2000, seed=53))
    quad = a1_sum(cfg, "x", Quadrature(8))
    assert res.std_error > 0
    assert abs(res.mean - quad.mean) < 5 * res.std_error


def test_a1_undersampled_raises():
    # near-zero reference temperature with few samples leaves many pair
    # means negative, tripping the clip budget
    cfg = chain_config(3, mu=0.001, delta=1.0, with_field=False)
    with pytest.raises(UndersampledError):
        a1_sum(cfg, "x", MonteCarlo(n_samples=40, seed=3))


def test_a2_classical_ferromagnet_nonpositive():
    lat = build_lattice(1, 4)
    fams = {2: generate_bonds(lat, chain_pair_shape(), "open")}
    params = CouplingParams({2: {"z": (1.0, 0.0)}})
    cfg = ModelConfig(lattice=lat, families=fams, params=params, beta=0.5)
    third = a2_nonlinear_susceptibility(cfg, "z", "z", 0.05, Quadrature(2))
    assert third <= 1e-8


def test_a2_beta_zero():
    lat = build_lattice(1, 3)
    fams = {2: generate_bonds(lat, chain_pair_shape(), "open")}
    params = CouplingParams({2: {"z": (1.0, 0.0)}})
    cfg = ModelConfig(lattice=lat, families=fams, params=params, beta=0.0)
    assert a2_nonlinear_susceptibility(cfg, "z", "z", 0.05, Quadrature(2)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_a2_quantum_disordered_symmetric():
    cfg = chain_config(3, with_field=False, beta=0.8)
    third = a2_nonlinear_susceptibility(cfg, "y", "z", 0.05, MonteCarlo(n_samples=50, seed=59))
    assert np.isfinite(third)


def test_a2_rejects_field_configs():
    cfg = chain_config(2, with_field=True)
    with pytest.raises(ValueError, match="field"):
        a2_nonlinear_susceptibility(cfg, "z", "z", 0.05, MonteCarlo(10, 1))


def test_order_parameters_symmetric_model_vanish_exactly():
    cfg = chain_config(3, with_field=False, beta=0.9)
    out = finite_size_order_parameters(cfg, MonteCarlo(n_samples=100, seed=61))
    for axis in "xyz":
        assert out[axis]["m"].mean == pytest.approx(0.0, abs=1e-12)
        assert out[axis]["q"].mean == pytest.approx(0.0, abs=1e-24)


def test_order_parameters_jensen_and_beta_zero():
    cfg = chain_config(2, beta=0.8)
    out = finite_size_order_parameters(cfg, MonteCarlo(n_samples=400, seed=63))
    for axis in "xyz":
        assert out[axis]["q"].mean >= out[axis]["m"].mean ** 2 - 1e-12
        assert out[axis]["q"].mean > 0
    cold = finite_size_order_parameters(
        ModelConfig(cfg.lattice, cfg.families, cfg.params, 0.0),
        MonteCarlo(n_samples=50, seed=65),
    )
    for axis in "xyz":
        assert cold[axis]["m"].mean == pytest.approx(0.0, abs=1e-12)
        assert cold[axis]["q"].mean == pytest.approx(0.0, abs=1e-24)


def test_order_parameter_z_scores_of_float_dust_are_nan():
    # at beta = 0 every per-sample m and q is float dust (q about 1e-33), and
    # a ratio of dust to its own spread is no z-score
    cold = finite_size_order_parameters(chain_config(3, beta=0.0), MonteCarlo(50, 65))
    for axis in "xyz":
        for name in ("m", "q"):
            assert cold[axis][name].mean == pytest.approx(0.0, abs=1e-12)
            assert math.isnan(cold[axis][name].z_score)
    warm = finite_size_order_parameters(chain_config(2, beta=0.8), MonteCarlo(400, 63))
    for axis in "xyz":
        q = warm[axis]["q"]
        assert q.z_score == q.mean / q.std_error


def test_mean_pair_correlation_diagonal():
    cfg = chain_config(2, with_field=False)
    corr = mean_pair_correlation(cfg, "x", MonteCarlo(n_samples=100, seed=67))
    assert np.allclose(np.diag(corr), 1.0)
    assert corr.shape == (2, 2)


def test_classical_checks_never_build_the_quantum_side(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a classical-only check constructed a HamiltonianBuilder")

    monkeypatch.setattr(identities, "HamiltonianBuilder", refuse)
    cfg = chain_config(3, with_field=False)
    method = MonteCarlo(n_samples=20, seed=61)
    assert a1_sum(cfg, "x", method).n_samples == 20
    assert mean_pair_correlation(cfg, "x", method).shape == (3, 3)


# ---------------------------------------------------------------------------
# one-pass plans and value tables
# ---------------------------------------------------------------------------


def identity_blocks(L):
    return [
        identities.OnePointBlock([0], "z"),
        identities.TwoPointBlock([0], [L - 1], "z"),
        identities.DuhamelBlock([0], [L - 1], "z"),
        identities.ThreePointBlock([0], [L - 1], [0, L - 1], "z"),
    ]


@pytest.mark.parametrize("threads", [1, 2])
def test_extended_table_equals_fresh_table(threads):
    cfg = chain_config(3)
    plan = identities.Plan(cfg, identity_blocks(3), "x")
    n = 40
    extended = plan.evaluate(MonteCarlo(n, 71, threads)).extend(2 * n)
    fresh = plan.evaluate(MonteCarlo(2 * n, 71, threads))
    assert extended.n_samples == fresh.n_samples == 2 * n
    for block in plan.blocks:
        assert np.array_equal(extended.values(block), fresh.values(block))
        assert extended.values(block).flags.c_contiguous
        assert block.result(extended) == block.result(fresh)


def test_extend_draws_only_the_new_samples(monkeypatch):
    drawn = []
    real = identities.draw_row

    def counting(mu, delta, seed, sample_index):
        drawn.append(sample_index)
        return real(mu, delta, seed, sample_index)

    monkeypatch.setattr(identities, "draw_row", counting)
    plan = identities.Plan(chain_config(2), identity_blocks(2), "x")
    table = plan.evaluate(MonteCarlo(25, 73))
    assert sorted(drawn) == list(range(25))
    drawn.clear()
    table.extend(50)
    assert sorted(drawn) == list(range(25, 50))


def count_decompositions(monkeypatch) -> list[int]:
    """Patch the plan's spectral_decompose to record how many matrices each
    (stacked) call decomposes: a plan decomposes `SectorStack`s, one stacked
    operator per sample."""
    calls = []
    real = identities.spectral_decompose

    def counting(h, labels=None):
        calls.append(len(h.blocks))
        return real(h, labels)

    monkeypatch.setattr(identities, "spectral_decompose", counting)
    return calls


def test_plan_shares_one_decomposition_per_sample(monkeypatch):
    calls = count_decompositions(monkeypatch)
    cfg = chain_config(3)
    method = MonteCarlo(30, 75)
    blocks = identity_blocks(3)
    plan = identities.Plan(cfg, blocks, "x")
    table = plan.evaluate(method)
    assert sum(calls) == 30
    assert len(calls) == math.ceil(30 / plan.batch_size)
    # every block of the shared table reduces to its single-block result
    assert blocks[0].result(table) == (one_point_identity(cfg, [0], "z", "x", method),)
    assert blocks[1].result(table) == two_point_identities(cfg, [0], [2], "z", "x", method)
    assert blocks[2].result(table) == duhamel_identity(cfg, [0], [2], "z", "x", method)
    assert blocks[3].result(table) == (
        three_point_identity(cfg, [0], [2], [0, 2], "z", "x", method),
    )


def test_quadrature_tables_do_not_extend():
    table = identities.Plan(
        single_site_config(), [identities.OnePointBlock([0], "z")], "x"
    ).evaluate(Quadrature(4))
    assert table.probs is not None and table.n_samples == 4**2  # y and z are random
    with pytest.raises(ValueError, match="Monte Carlo"):
        table.extend(8)


def test_a2_zero_field_point_reuses_the_base_state():
    # H - 0.0 * field must give bitwise the same magnetization as H itself,
    # so the stencil's mu = 0 point can be the sample's own state
    cfg = chain_config(5, beta=0.7, mu=0.6, with_field=False)
    n = cfg.lattice.n_sites
    builder = HamiltonianBuilder(cfg.lattice, cfg.families)
    field = sum(pauli_site(n, i, "z") for i in range(n))
    order = [PauliString(n, (i,), "z") for i in range(n)]
    for k in range(20):
        base = builder.build(sample_disorder(cfg.params, cfg.families, 1, k))
        shared = thermal_state(spectral_decompose(base), cfg.beta)
        shifted = thermal_state(spectral_decompose(base - 0.0 * field), cfg.beta)
        m_shared = sum(string_expectations(shared, order)) / n
        m_shifted = sum(string_expectations(shifted, order)) / n
        assert m_shared == m_shifted


def bounds_5site_config():
    # the bounds-5site benchmark model: flip-symmetric, so every <tau_i>_N is
    # exactly zero and its computed value is float dust
    return chain_config(5, beta=0.7, mu=0.6, with_field=False)


def test_plan_computes_one_softmax_per_sample(monkeypatch):
    calls = []
    real = BondProductTable.probabilities

    def counting(self, k_by_p, betas):
        calls.append(1)
        return real(self, k_by_p, betas)

    monkeypatch.setattr(BondProductTable, "probabilities", counting)
    cfg = bounds_5site_config()
    method = MonteCarlo(30, 77)
    mag, pairs = identities.MagnetizationBlock("z"), identities.PairMatrixBlock()
    table = identities.Plan(cfg, [mag, pairs], "x").evaluate(method)
    assert len(calls) == 30
    assert mag.result(table) == magnetization_bound_check(cfg, "z", "x", method)
    assert np.array_equal(pairs.result(table), mean_pair_correlation(cfg, "x", method))


def test_shared_products_equal_table_expectations():
    # the shared softmax must leave <tau_S>_N bitwise unchanged: the
    # magnetization chain's sqrt(mean <tau_i>_N) records dust, so a last-bit
    # change in these products moves its report
    cfg = bounds_5site_config()
    plan = identities.Plan(
        cfg, [identities.MagnetizationBlock("z"), identities.PairMatrixBlock()], "x"
    )
    table = plan.classical_table
    mu, delta = coupling_law(cfg.params, cfg.families)
    batch = identities._Batch(
        plan, range(20), np.stack([draw_row(mu, delta, 1, k) for k in range(20)])
    )
    for k in range(20):
        sample = sample_disorder(cfg.params, cfg.families, 1, k)
        k_by_p = nishimori_transform(sample, cfg.params, "x").k
        prob = table.probabilities(k_by_p, plan.betas)
        reference = [np.dot(np.prod(table.tau[:, c], axis=1), prob) for c in plan.site_sets]
        expected = table.expectations(k_by_p, plan.betas, plan.site_sets)
        assert np.array_equal(batch.products[k], expected)
        assert np.array_equal(batch.products[k], reference)
        assert np.array_equal(batch.pair_matrix[k], table.pair_matrix(k_by_p, plan.betas))


def plan_tables_at_batch_sizes(plan, method, sizes):
    production = plan.batch_size
    tables = []
    for size in sizes:
        plan.batch_size = size
        tables.append(plan.evaluate(method))
    plan.batch_size = production
    return tables


@pytest.mark.parametrize(
    "cfg, blocks, u",
    [
        (chain_config(4), identity_blocks(4), "x"),
        (
            bounds_5site_config(),
            [
                identities.MagnetizationBlock("z"), identities.SusceptibilityBlock("y", "z"),
                identities.PairMatrixBlock(), identities.FieldStencilBlock("x", "z", 0.05),
            ],
            "x",
        ),
        (chain_config(3), [identities.SiteExpectationsBlock(), identities.FreeEnergyBlock()], None),
    ],
    ids=["identities", "bounds", "order-parameters"],
)
def test_a_sample_row_does_not_depend_on_its_batch(cfg, blocks, u):
    plan = identities.Plan(cfg, blocks, u)
    n = 2 * plan.batch_size + 3
    production, single, odd = plan_tables_at_batch_sizes(
        plan, MonteCarlo(n, 81), [plan.batch_size, 1, 5]
    )
    for block in plan.blocks:
        assert np.array_equal(single.values(block), production.values(block))
        assert np.array_equal(odd.values(block), production.values(block))


def test_a_failed_self_check_names_the_disorder_sample(monkeypatch):
    # eigh is replaced by one that corrupts entry 2 of the second batch: the
    # plan's error must name sample batch_size + 2, not the stack position
    plan = identities.Plan(chain_config(4), [identities.OnePointBlock([0], "z")], "x")
    real_eigh = np.linalg.eigh
    calls = []

    def corrupted(h):
        evals, evecs = real_eigh(h)
        calls.append(1)
        if len(calls) == 2:
            evals = evals.copy()
            evals[2] += 1e-6
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(ArithmeticError, match=rf"reconstruction.*\(sample {plan.batch_size + 2}\)"):
        plan.evaluate(MonteCarlo(3 * plan.batch_size, 85))


def test_batch_size_rule():
    # a fixed byte budget on the largest stacked temporary, never a setting
    sizes = {}
    for L in (4, 5, 6, 7, 8):
        plan = identities.Plan(chain_config(L), [identities.OnePointBlock([0], "z")], "x")
        sizes[2**L] = plan.batch_size
    assert sizes == {16: 32, 32: 8, 64: 2, 128: 1, 256: 1}
    # blocks that stack several matrices per sample split their own stacks
    chain = identities.Plan(bounds_5site_config(), [identities.SusceptibilityBlock("z", "z")], "x")
    assert chain.batch_size == 8


def test_split_susceptibility_stacks_do_not_change_a_row(monkeypatch):
    # the susceptibility's (samples, N, dim, dim) string stacks are split to
    # the batch byte budget; unsplit, every row is the same
    plan = identities.Plan(bounds_5site_config(), [identities.SusceptibilityBlock("y", "z")], "x")
    method = MonteCarlo(plan.batch_size + 3, 87)
    split = plan.evaluate(method)
    monkeypatch.setattr(identities, "_BATCH_BYTES", 1 << 30)
    whole = plan.evaluate(method)
    for block in plan.blocks:
        assert np.array_equal(split.values(block), whole.values(block))


def grid_node_row(spec, idx, std_nodes):
    """Reference couplings at grid index idx: every component at its mean,
    then each random dimension moved to its node, one at a time."""
    couplings = {
        p: {axis: np.full(len(family.bonds), spec.params.mu(p, axis)) for axis in "xyz"}
        for p, family in spec.families.items()
    }
    for d, (p, axis, b) in enumerate(spec.random_dims):
        couplings[p][axis][b] += spec.params.delta(p, axis) * std_nodes[idx[d]]
    return np.concatenate([couplings[p][axis] for p in sorted(couplings) for axis in "xyz"])


def test_quadrature_rows_and_probabilities_match_the_grid_loop():
    cfg = quad_chain_config()
    spec = QuadratureSpec.from_model(cfg.families, cfg.params, 5)
    std_nodes, node_probs = identities._hermite_rule(5)
    grid = list(itertools.product(range(5), repeat=len(spec.random_dims)))
    assert len(grid) == spec.node_count == 5**4
    # batches of 97 nodes, so the digit arithmetic runs from odd offsets
    starts = range(0, len(grid), 97)
    rows = np.concatenate([spec.rows(start, min(start + 97, len(grid))) for start in starts])
    for k, idx in enumerate(grid):
        assert np.array_equal(rows[k], grid_node_row(spec, idx, std_nodes))
    probs = np.array([math.prod(node_probs[i] for i in idx) for idx in grid])
    assert np.array_equal(spec.probabilities(), probs)
    # quadrature_average integrates over the same rows
    for t in range(rows.shape[1]):
        average = identities.quadrature_average(spec, lambda s: coupling_row(s)[t])
        assert average == float(probs @ np.ascontiguousarray(rows[:, t]))


def stencil_values(states, h, n, order):
    m = [sum(string_expectations(state, order)) / n for state in states]
    third = (m[4] - 2 * m[3] + 2 * m[1] - m[0]) / (2 * h**3)
    second = (m[3] - 2 * m[2] + m[1]) / h**2
    return [third, second]


@pytest.mark.parametrize("v", ["x", "y", "z"])
def test_field_stencil_equals_the_dense_field_reference(v):
    # the stencil's field is scattered from its Pauli strings; the entries
    # are exact, so every shifted Hamiltonian equals H - mu * (dense field).
    # A z field keeps this model's P_z parity, so there the plan's matrices
    # are the parity blocks of H - mu * (dense field), with H's blocks from
    # the builder; the dense matrices give the same values up to rounding
    cfg, h, n = bounds_5site_config(), 0.05, 5
    block = identities.FieldStencilBlock(v, "z", h)
    plan = identities.Plan(cfg, [block])
    table = plan.evaluate(MonteCarlo(6, 83))
    builder = HamiltonianBuilder(cfg.lattice, cfg.families)
    field = sum(pauli_site(n, i, v) for i in range(n))
    order = [PauliString(n, (i,), "z") for i in range(n)]
    mus = (-2 * h, -h, 0.0, h, 2 * h)
    sectors = plan.sectors
    assert (sectors is parity_sectors(n)) == (v == "z")
    for k in range(6):
        sample = sample_disorder(cfg.params, cfg.families, 83, k)
        base = builder.build(sample)
        dense = [thermal_state(spectral_decompose(base - mu * field), cfg.beta) for mu in mus]
        if v == "z":
            blocks = builder.build_rows(coupling_row(sample)[None], sectors).blocks[0]
            field_blocks = np.stack([field[np.ix_(b, b)].real for b in sectors.bases])
            states = [
                thermal_state(
                    spectral_decompose(SectorStack(blocks - mu * field_blocks, sectors)), cfg.beta
                )
                for mu in mus
            ]
        else:
            states = dense
        assert np.array_equal(table.values(block)[k], stencil_values(states, h, n, order))
        dense_values = stencil_values(dense, h, n, order)
        assert np.allclose(table.values(block)[k], dense_values, rtol=0, atol=1e-9)


def test_package_exports_the_plan_api():
    for name in (
        "Plan", "ValueTable", "Block", "OnePointBlock", "TwoPointBlock", "DuhamelBlock",
        "ThreePointBlock", "MagnetizationBlock", "SusceptibilityBlock", "PairMatrixBlock",
        "FieldStencilBlock", "SiteExpectationsBlock", "FreeEnergyBlock",
    ):
        assert getattr(xyzglass, name) is getattr(identities, name)
        assert name in xyzglass.__all__
