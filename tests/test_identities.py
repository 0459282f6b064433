import concurrent.futures
import itertools
import math

import numpy as np
import numpy.polynomial.hermite
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
    draw_rows,
    nishimori_transform,
    sample_disorder,
)
from xyzglass.errors import CapacityError, UndersampledError
from xyzglass import identities
from xyzglass.identities import (
    DuhamelBlock,
    FieldStencilBlock,
    MagnetizationBlock,
    ModelConfig,
    MonteCarlo,
    OnePointBlock,
    PairMatrixBlock,
    Quadrature,
    QuadratureSpec,
    SiteExpectationsBlock,
    SusceptibilityBlock,
    ThreePointBlock,
    TwoPointBlock,
)
from xyzglass.lattice import (
    build_lattice,
    chain_pair_shape,
    generate_bonds,
    interaction_shape,
    single_site_shape,
)
from xyzglass.operators import PauliString, parity_sectors, pauli_product, pauli_site, whole_space
from xyzglass.quantum_gibbs import (
    HamiltonianBuilder,
    SectorStack,
    build_hamiltonian,
    gibbs_expectation,
    spectral_decompose,
    string_expectations,
    thermal_state,
)
from xyzglass.tolerances import EXACT_TOL, Tolerances, flip_symmetric

from plans import count_draws, evaluate_alone


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
    # the z coupling is the last column in term order
    z = spec.rows(0, spec.node_count)[:, -1]
    assert spec.probabilities() @ z == pytest.approx(mu, abs=1e-12)
    assert spec.probabilities() @ (z - mu) ** 2 == pytest.approx(delta**2, abs=1e-12)
    std = QuadratureSpec.from_model(fams, CouplingParams({1: {"z": (0.0, 1.0)}}), 8)
    z = std.rows(0, std.node_count)[:, -1]
    assert std.probabilities() @ z**4 == pytest.approx(3.0, abs=1e-12)
    assert cfg.params.is_active(1, "x")


def test_a_quadrature_spec_builds_its_hermite_rule_once(monkeypatch):
    # a small budget splits the 5^4-node grid into several row stacks; they
    # and the probabilities read the spec's one rule
    calls, stacks = [], []
    real_rule, real_rows = numpy.polynomial.hermite.hermgauss, QuadratureSpec.rows
    monkeypatch.setattr(
        numpy.polynomial.hermite, "hermgauss", lambda n: calls.append(n) or real_rule(n)
    )
    monkeypatch.setattr(
        QuadratureSpec, "rows", lambda spec, *span: stacks.append(span) or real_rows(spec, *span)
    )
    monkeypatch.setattr(identities, "_BATCH_BYTES", 16 * 1024)
    plan = identities.Plan(quad_chain_config(), identity_blocks(2), "x")
    plan.evaluate(Quadrature(5))
    assert len(stacks) > 1 and calls == [5]
    plan.evaluate(Quadrature(5))  # a new spec, a new rule
    assert calls == [5, 5]


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
    assert spec.probabilities() @ spec.rows(0, 1)[:, -1] == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# correlation identities
# ---------------------------------------------------------------------------


def test_one_point_identity_single_site_quadrature():
    cfg = single_site_config()
    for w in ("y", "z"):
        block = OnePointBlock([0], w)
        (res,) = block.result(evaluate_alone(cfg, block, "x", Quadrature(24)))
        assert res.method == "quadrature"
        assert res.std_error == 0.0
        assert abs(res.mean) < 1e-8


def test_one_point_identity_beta_zero():
    cfg = single_site_config(beta=0.0)
    block = OnePointBlock([0], "z")
    (res,) = block.result(evaluate_alone(cfg, block, "x", Quadrature(8)))
    assert abs(res.mean) < 1e-14


def test_identity_rejects_matching_axes():
    cfg = single_site_config()
    with pytest.raises(ValueError):
        evaluate_alone(cfg, OnePointBlock([0], "x"), "x", Quadrature(8))


def test_two_point_same_set_exact_zero():
    cfg = quad_chain_config()
    block = TwoPointBlock([0, 1], [0, 1], "z")
    prod, joint = block.result(evaluate_alone(cfg, block, "x", Quadrature(4)))
    # tau_X tau_X = 1, so both residuals vanish identically
    assert abs(prod.mean) < 1e-14
    assert abs(joint.mean) < 1e-14


def test_two_point_identity_quadrature():
    cfg = quad_chain_config()
    block = TwoPointBlock([0], [1], "z")
    prod, joint = block.result(evaluate_alone(cfg, block, "x", Quadrature(10)))
    assert abs(prod.mean) < 1e-7
    assert abs(joint.mean) < 1e-7


def test_duhamel_identity_quadrature():
    cfg = quad_chain_config()
    block = DuhamelBlock([0], [1], "z")
    duh, trunc = block.result(evaluate_alone(cfg, block, "x", Quadrature(10)))
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
    two_point, duhamel = TwoPointBlock([0], [1], "z"), DuhamelBlock([0], [1], "z")
    _, joint = two_point.result(evaluate_alone(cfg, two_point, "x", method))
    duh, _ = duhamel.result(evaluate_alone(cfg, duhamel, "x", method))
    assert duh.mean == pytest.approx(joint.mean, abs=1e-10)


def test_duhamel_identity_beta_zero_distinct_sets():
    cfg = quad_chain_config(beta=0.0)
    block = DuhamelBlock([0], [1], "z")
    duh, trunc = block.result(evaluate_alone(cfg, block, "x", Quadrature(4)))
    assert abs(duh.mean) < 1e-14
    assert abs(trunc.mean) < 1e-14


def test_identities_paired_mc_z_scores():
    cfg = chain_config(2)
    method = MonteCarlo(n_samples=4000, seed=17)
    one_point = OnePointBlock([0], "z")
    (res,) = one_point.result(evaluate_alone(cfg, one_point, "x", method))
    assert res.method == "mc" and res.n_samples == 4000
    assert abs(res.z_score) < 4
    two_point = TwoPointBlock([0], [1], "z")
    prod, joint = two_point.result(evaluate_alone(cfg, two_point, "x", method))
    assert abs(prod.z_score) < 4 and abs(joint.z_score) < 4
    duhamel = DuhamelBlock([0], [1], "z")
    duh, trunc = duhamel.result(evaluate_alone(cfg, duhamel, "x", method))
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
    block = OnePointBlock([0], "z")
    (res,) = block.result(evaluate_alone(cfg, block, "x", MonteCarlo(n_samples=n, seed=seed)))
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
    block = ThreePointBlock([0], [1], [0, 1], "z")
    (res,) = block.result(evaluate_alone(cfg, block, "x", Quadrature(8)))
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
    block = MagnetizationBlock("z")
    rep = block.result(
        evaluate_alone(cfg, block, "x", MonteCarlo(n_samples=3000, seed=41)), Tolerances()
    )
    assert rep.passed
    assert rep.lhs <= rep.rhs + 4 * 1.0  # sanity: chain holds with wide margin anyway
    names = [s.name for s in rep.steps]
    assert any("one-point identity" in n for n in names)
    assert any("Nishimori identity" in n for n in names)
    assert rep.steps[-1].name == "magnetization bound"


def test_magnetization_bound_beta_zero_exact():
    cfg = chain_config(2, beta=0.0)
    block = MagnetizationBlock("z")
    rep = block.result(
        evaluate_alone(cfg, block, "x", MonteCarlo(n_samples=500, seed=43)), Tolerances()
    )
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)


def test_magnetization_bound_symmetric_disorder():
    # zero coupling means put the reference model at infinite temperature:
    # the classical side vanishes sample by sample and both sides sit at zero
    cfg = chain_config(2, beta=0.8, mu=0.0, delta=0.8)
    block = MagnetizationBlock("z")
    rep = block.result(
        evaluate_alone(cfg, block, "x", MonteCarlo(n_samples=2000, seed=45)), Tolerances()
    )
    assert rep.passed
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert abs(rep.lhs) <= rep.steps[-1].tolerance


def test_susceptibility_bound_same_and_cross_axes():
    cfg = chain_config(3, beta=0.7, with_field=False)
    for v, w, u in [("z", "z", "x"), ("y", "z", "x")]:
        block = SusceptibilityBlock(v, w)
        rep = block.result(
            evaluate_alone(cfg, block, u, MonteCarlo(n_samples=2000, seed=47)), Tolerances()
        )
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
    block = SusceptibilityBlock("z", "z")
    rep = block.result(evaluate_alone(cfg, block, "x", Quadrature(16)), Tolerances())
    assert rep.passed
    assert rep.method == "quadrature"


def test_susceptibility_rejects_invalid_configs():
    cfg = chain_config(2)  # has an active field sector
    with pytest.raises(ValueError, match="single-site"):
        evaluate_alone(cfg, SusceptibilityBlock("z", "z"), "x", MonteCarlo(100, 1))
    even = chain_config(2, with_field=False)
    with pytest.raises(ValueError, match="gauge"):
        evaluate_alone(even, SusceptibilityBlock("z", "x"), "x", MonteCarlo(100, 1))
    lat = build_lattice(1, 3)
    fams = {3: generate_bonds(lat, type(chain_pair_shape())(3, ((0,), (1,), (2,))), "open")}
    odd = ModelConfig(
        lattice=lat, families=fams,
        params=CouplingParams({3: {a: (0.1, 0.5) for a in "xyz"}}), beta=0.5,
    )
    with pytest.raises(ValueError, match="even"):
        evaluate_alone(odd, SusceptibilityBlock("z", "z"), "x", MonteCarlo(100, 1))


def test_a1_single_site_is_one():
    lat = build_lattice(1, 1)
    fams = {1: generate_bonds(lat, single_site_shape(), "open")}
    params = CouplingParams({1: {"y": (0.4, 0.8), "z": (0.4, 0.8)}})
    cfg = ModelConfig(lattice=lat, families=fams, params=params, beta=0.5)
    pairs = PairMatrixBlock()
    res = pairs.correlation_sum(evaluate_alone(cfg, pairs, "x", Quadrature(8)), Tolerances())
    assert res.mean == pytest.approx(1.0, abs=1e-10)


def test_a1_infinite_temperature_diagonal_only():
    # symmetric disorder puts the reference temperature at zero: only i = j survives
    cfg = chain_config(3, mu=0.0, delta=0.8, with_field=False)
    pairs = PairMatrixBlock()
    res = pairs.correlation_sum(
        evaluate_alone(cfg, pairs, "x", MonteCarlo(n_samples=200, seed=51)), Tolerances()
    )
    assert res.mean == pytest.approx(1.0, abs=1e-10)
    assert res.clip_count == 0


def test_a1_reports_value_with_error():
    cfg = chain_config(3, with_field=False, beta=0.5)
    pairs = PairMatrixBlock()
    res = pairs.correlation_sum(
        evaluate_alone(cfg, pairs, "x", MonteCarlo(n_samples=2000, seed=53)), Tolerances()
    )
    quad = pairs.correlation_sum(evaluate_alone(cfg, pairs, "x", Quadrature(8)), Tolerances())
    assert res.std_error > 0
    assert abs(res.mean - quad.mean) < 5 * res.std_error


def test_a1_undersampled_raises():
    # near-zero reference temperature with few samples leaves many pair
    # means negative, tripping the clip budget
    cfg = chain_config(3, mu=0.001, delta=1.0, with_field=False)
    pairs = PairMatrixBlock()
    table = evaluate_alone(cfg, pairs, "x", MonteCarlo(n_samples=40, seed=3))
    with pytest.raises(UndersampledError):
        pairs.correlation_sum(table, Tolerances())


def test_clip_rule_boundary():
    # the test above's model clips 4 of its 9 pair means: a budget of
    # exactly 4/9 still passes, one just below it does not
    cfg = chain_config(3, mu=0.001, delta=1.0, with_field=False)
    method = MonteCarlo(n_samples=40, seed=3)
    pairs = PairMatrixBlock()
    table = evaluate_alone(cfg, pairs, "x", method)
    res = pairs.correlation_sum(table, Tolerances(clip_fraction_max=4 / 9))
    assert (res.clip_count, res.clip_fraction) == (4, 4 / 9)
    with pytest.raises(UndersampledError, match="4/9 square-root arguments clipped"):
        pairs.correlation_sum(table, Tolerances(clip_fraction_max=0.44))


def test_a2_classical_ferromagnet_nonpositive():
    lat = build_lattice(1, 4)
    fams = {2: generate_bonds(lat, chain_pair_shape(), "open")}
    params = CouplingParams({2: {"z": (1.0, 0.0)}})
    cfg = ModelConfig(lattice=lat, families=fams, params=params, beta=0.5)
    block = FieldStencilBlock("z", "z", 0.05)
    third, second = block.result(evaluate_alone(cfg, block, None, Quadrature(2)))
    assert flip_symmetric(second)
    assert third <= 1e-8


def test_a2_beta_zero():
    lat = build_lattice(1, 3)
    fams = {2: generate_bonds(lat, chain_pair_shape(), "open")}
    params = CouplingParams({2: {"z": (1.0, 0.0)}})
    cfg = ModelConfig(lattice=lat, families=fams, params=params, beta=0.0)
    block = FieldStencilBlock("z", "z", 0.05)
    third, second = block.result(evaluate_alone(cfg, block, None, Quadrature(2)))
    assert flip_symmetric(second)
    assert third == pytest.approx(0.0, abs=1e-10)


def test_a2_quantum_disordered_symmetric():
    cfg = chain_config(3, with_field=False, beta=0.8)
    block = FieldStencilBlock("y", "z", 0.05)
    third, second = block.result(
        evaluate_alone(cfg, block, None, MonteCarlo(n_samples=50, seed=59))
    )
    assert flip_symmetric(second)
    assert np.isfinite(third)


def test_a2_rejects_field_configs():
    cfg = chain_config(2, with_field=True)
    with pytest.raises(ValueError, match="field"):
        evaluate_alone(cfg, FieldStencilBlock("z", "z", 0.05), None, MonteCarlo(10, 1))


def test_order_parameters_symmetric_model_vanish_exactly():
    cfg = chain_config(3, with_field=False, beta=0.9)
    sites = SiteExpectationsBlock()
    out = sites.result(evaluate_alone(cfg, sites, None, MonteCarlo(n_samples=100, seed=61)))
    for axis in "xyz":
        assert out[axis]["m"].mean == pytest.approx(0.0, abs=1e-12)
        assert out[axis]["q"].mean == pytest.approx(0.0, abs=1e-24)


def test_order_parameters_jensen_and_beta_zero():
    cfg = chain_config(2, beta=0.8)
    sites = SiteExpectationsBlock()
    out = sites.result(evaluate_alone(cfg, sites, None, MonteCarlo(n_samples=400, seed=63)))
    for axis in "xyz":
        assert out[axis]["q"].mean >= out[axis]["m"].mean ** 2 - 1e-12
        assert out[axis]["q"].mean > 0
    cold = sites.result(evaluate_alone(
        ModelConfig(cfg.lattice, cfg.families, cfg.params, 0.0), sites, None,
        MonteCarlo(n_samples=50, seed=65),
    ))
    for axis in "xyz":
        assert cold[axis]["m"].mean == pytest.approx(0.0, abs=1e-12)
        assert cold[axis]["q"].mean == pytest.approx(0.0, abs=1e-24)


def test_order_parameter_z_scores_of_float_dust_are_nan():
    # at beta = 0 every per-sample m and q is float dust (q about 1e-33), and
    # a ratio of dust to its own spread is no z-score
    sites = SiteExpectationsBlock()
    cold = sites.result(evaluate_alone(chain_config(3, beta=0.0), sites, None, MonteCarlo(50, 65)))
    for axis in "xyz":
        for name in ("m", "q"):
            assert cold[axis][name].mean == pytest.approx(0.0, abs=1e-12)
            assert math.isnan(cold[axis][name].z_score)
    warm = sites.result(evaluate_alone(chain_config(2, beta=0.8), sites, None, MonteCarlo(400, 63)))
    for axis in "xyz":
        q = warm[axis]["q"]
        assert q.z_score == q.mean / q.std_error


def test_mean_pair_correlation_diagonal():
    cfg = chain_config(2, with_field=False)
    pairs = PairMatrixBlock()
    corr = pairs.result(evaluate_alone(cfg, pairs, "x", MonteCarlo(n_samples=100, seed=67)))
    assert np.allclose(np.diag(corr), 1.0)
    assert corr.shape == (2, 2)


def test_classical_checks_never_build_the_quantum_side(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a classical-only check constructed a HamiltonianBuilder")

    monkeypatch.setattr(identities, "HamiltonianBuilder", refuse)
    cfg = chain_config(3, with_field=False)
    method = MonteCarlo(n_samples=20, seed=61)
    pairs = PairMatrixBlock()
    assert pairs.correlation_sum(evaluate_alone(cfg, pairs, "x", method), Tolerances()).n_samples == 20
    assert pairs.result(evaluate_alone(cfg, pairs, "x", method)).shape == (3, 3)


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
    drawn = count_draws(monkeypatch)
    plan = identities.Plan(chain_config(2), identity_blocks(2), "x")
    table = plan.evaluate(MonteCarlo(25, 73))
    assert sorted(drawn) == list(range(25))
    drawn.clear()
    table.extend(50)
    assert sorted(drawn) == list(range(25, 50))


def test_threads_fill_draw_stacks_shorter_than_the_run(monkeypatch):
    # a byte budget of two batches' coupling rows: the run is read in three
    # stacks, the last one short. A Monte Carlo run is drawn so, and two
    # workers fill each stack's batches; a quadrature grid of 5^4 nodes (the
    # y and z couplings of a 3-site chain's two bonds) is read so on the
    # calling thread
    lat = build_lattice(1, 3)
    grid = ModelConfig(
        lattice=lat,
        families={2: generate_bonds(lat, chain_pair_shape(), "open")},
        params=CouplingParams({2: {"x": (0.4, 0.0), "y": (0.3, 0.85), "z": (0.35, 0.9)}}),
        beta=0.5,
    )
    stacks = []
    real_draw, real_grid = identities.draw_rows, QuadratureSpec.rows

    def drawing(mu, delta, seed, first, last):
        stacks.append((first, last))
        return real_draw(mu, delta, seed, first, last)

    def reading(spec, first, last):
        stacks.append((first, last))
        return real_grid(spec, first, last)

    monkeypatch.setattr(identities, "draw_rows", drawing)
    monkeypatch.setattr(QuadratureSpec, "rows", reading)
    mc_n = 5 * 128 + 3  # five batches of a 3-site plan and three samples
    for cfg, n, one_stack, split_method in [
        (chain_config(3), mc_n, MonteCarlo(mc_n, 79), MonteCarlo(mc_n, 79, threads=2)),
        (grid, 5**4, Quadrature(5), Quadrature(5)),
    ]:
        plan = identities.Plan(cfg, identity_blocks(3), "x")
        size = plan.batch_size
        assert 4 * size < n < 6 * size
        stacks.clear()
        whole = plan.evaluate(one_stack)
        assert stacks == [(0, n)]
        row_bytes = coupling_law(cfg.params, cfg.families)[0].nbytes
        stacks.clear()
        with monkeypatch.context() as budget:
            budget.setattr(identities, "_BATCH_BYTES", 2 * size * row_bytes)
            split = plan.evaluate(split_method)
        assert stacks == [(0, 2 * size), (2 * size, 4 * size), (4 * size, n)]
        for block in plan.blocks:
            assert np.array_equal(split.values(block), whole.values(block))


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
    for block in blocks:
        assert block.result(table) == block.result(evaluate_alone(cfg, block, "x", method))


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


def test_plan_computes_one_softmax_per_batch(monkeypatch):
    calls = []
    real = BondProductTable.probabilities

    def counting(self, k_by_p, betas):
        # stacked couplings: one (samples, bonds) array per p
        calls.append(len(next(iter(k_by_p.values()))))
        return real(self, k_by_p, betas)

    monkeypatch.setattr(BondProductTable, "probabilities", counting)
    cfg = bounds_5site_config()
    method = MonteCarlo(30, 77)
    mag, pairs = identities.MagnetizationBlock("z"), identities.PairMatrixBlock()
    chi = identities.SusceptibilityBlock("z", "z")
    plan = identities.Plan(cfg, [mag, pairs, chi], "x")
    table = plan.evaluate(method)
    assert len(calls) == math.ceil(30 / plan.batch_size)
    assert sum(calls) == 30
    tol = Tolerances()
    assert mag.result(table, tol) == mag.result(evaluate_alone(cfg, mag, "x", method), tol)
    assert np.array_equal(pairs.result(table), pairs.result(evaluate_alone(cfg, pairs, "x", method)))
    # the susceptibility chain reads only its own columns: its report is the
    # same from a plan without the pair matrix block
    assert chi.result(table, tol) == chi.result(evaluate_alone(cfg, chi, "x", method), tol)


def test_a_model_without_couplings_gives_every_sample_the_uniform_measure():
    # the classical table has no terms, so its one softmax row serves the batch
    cfg = ModelConfig(lattice=build_lattice(1, 3), families={}, params=CouplingParams({}), beta=0.5)
    mag, pairs = identities.MagnetizationBlock("z"), identities.PairMatrixBlock()
    table = identities.Plan(cfg, [mag, pairs], "x").evaluate(MonteCarlo(20, 1))
    assert np.array_equal(table.values(mag)[:, 3:], np.zeros((20, 3)))
    assert np.array_equal(table.values(pairs), np.tile(np.eye(3).ravel(), (20, 1)))


def test_shared_products_equal_table_expectations():
    # the shared softmax must leave <tau_S>_N bitwise unchanged: the
    # magnetization chain's sqrt(mean <tau_i>_N) records dust, so a last-bit
    # change in these products moves its report
    cfg = bounds_5site_config()
    plan = identities.Plan(
        cfg, [identities.MagnetizationBlock("z"), identities.PairMatrixBlock()], "x"
    )
    table = plan.classical_table
    # the spins of every configuration, site i at index bit N-1-i
    n = cfg.lattice.n_sites
    tau = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> (n - 1 - np.arange(n))) & 1)
    mu, delta = coupling_law(cfg.params, cfg.families)
    batch = identities._Batch(
        plan, range(20), draw_rows(mu, delta, 1, 0, 20)
    )
    for k in range(20):
        sample = sample_disorder(cfg.params, cfg.families, 1, k)
        k_by_p = nishimori_transform(sample, cfg.params, "x").k
        betas = plan.nishimori.betas
        prob = table.probabilities({p: k[None] for p, k in k_by_p.items()}, betas)[0]
        reference = [np.dot(np.prod(tau[:, c], axis=1), prob) for c in plan.site_sets]
        expected = table.expectations(k_by_p, betas, plan.site_sets)
        assert np.array_equal(batch.products[k], expected)
        assert np.array_equal(batch.products[k], reference)
        assert np.array_equal(batch.pair_matrix[k], table.pair_matrix(k_by_p, betas))


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
        # a z field keeps the parity sectors, and the stencil stacks its four
        # field means in one decomposition
        (
            bounds_5site_config(),
            [
                identities.MagnetizationBlock("z"), identities.SusceptibilityBlock("z", "z"),
                identities.FieldStencilBlock("z", "z", 0.05),
            ],
            "x",
        ),
        (chain_config(3), [identities.SiteExpectationsBlock(), identities.FreeEnergyBlock()], None),
    ],
    ids=["identities", "bounds", "bounds-z-field", "order-parameters"],
)
def test_a_sample_row_does_not_depend_on_its_batch(cfg, blocks, u):
    plan = identities.Plan(cfg, blocks, u)
    n = 2 * plan.batch_size + 3
    production, single, odd = plan_tables_at_batch_sizes(
        plan, MonteCarlo(n, 81), [plan.batch_size, 1, 5]
    )
    threaded = plan.evaluate(MonteCarlo(n, 81, threads=2))
    extended = plan.evaluate(MonteCarlo(5, 81)).extend(n)
    for block in plan.blocks:
        for table in (single, odd, threaded, extended):
            assert np.array_equal(table.values(block), production.values(block))


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


def test_a_failed_shifted_state_self_check_names_its_stage_and_sample(monkeypatch):
    # eigh is replaced by one that corrupts the +h matrix of sample 3 of the
    # second batch's stencil stack: the error must name the stencil stage and
    # sample batch_size + 3, not the row of the stack that held it
    plan = identities.Plan(bounds_5site_config(), [identities.FieldStencilBlock("z", "z", 0.05)])
    b = plan.batch_size
    real_eigh = np.linalg.eigh
    shapes = []

    def corrupted(h):
        evals, evecs = real_eigh(h)
        shapes.append(h.shape)
        if len(shapes) == 3:
            evals = evals.copy()
            evals[2 * b + 3, 0, 0] += 1e-6
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(
        ArithmeticError,
        match=rf"field-shifted thermal state of the batch from sample {b}: "
        rf".*reconstruction.*\(sample {b + 3}\)",
    ):
        plan.evaluate(MonteCarlo(3 * b, 85))
    # per batch, the stencil stack of (-2h, -h, +h, +2h) x the batch, then
    # the zero-field point, the batch's own state
    assert shapes == [(4 * b, 2, 16, 16), (b, 2, 16, 16), (4 * b, 2, 16, 16)]


@pytest.mark.parametrize(
    "L, v, per_stack", [(3, "z", 4), (5, "z", 4), (6, "z", 4), (7, "z", 2), (8, "z", 1), (5, "x", 1)]
)
def test_the_stencil_stacks_as_many_field_means_as_the_batch_budget_holds(
    monkeypatch, L, v, per_stack
):
    # a z field keeps the two real parity blocks, 2 (2^(L-1))^2 float64
    # entries a Hamiltonian; an x field breaks them, one complex 2^L x 2^L
    # matrix. A mean is charged four copies of its B Hamiltonians, so a stack
    # holds the plan's stack size of 4 B bytes means. From 8 sites on, and on
    # the whole space, a stack holds one mean, one matrix per sample
    plan = identities.Plan(
        chain_config(L, beta=0.7, mu=0.6, with_field=False),
        [identities.FieldStencilBlock(v, "z", 0.05)],
    )
    b = plan.batch_size
    if v == "z":
        assert plan.sectors is parity_sectors(L)
        hamiltonian_bytes = 2 * 4 ** (L - 1) * 8
    else:
        assert plan.sectors is whole_space(L)
        hamiltonian_bytes = 4**L * 16
    assert plan.stack_size(4 * b * hamiltonian_bytes) == per_stack
    calls = count_decompositions(monkeypatch)
    plan.evaluate(MonteCarlo(b, 87))
    assert calls == [per_stack * b] * (4 // per_stack) + [b]


def test_a_bounds_plan_makes_two_eigh_calls_per_batch(monkeypatch):
    # the batch's own state, then one stack of the stencil's four field means
    plan = identities.Plan(
        bounds_5site_config(),
        [
            identities.MagnetizationBlock("z"), identities.SusceptibilityBlock("z", "z"),
            identities.PairMatrixBlock(), identities.FieldStencilBlock("z", "z", 0.05),
        ],
        "x",
    )
    real_eigh = np.linalg.eigh
    calls = []

    def counting(h):
        calls.append(len(h))
        return real_eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    plan.evaluate(MonteCarlo(3 * plan.batch_size, 89))
    assert calls == [plan.batch_size, 4 * plan.batch_size] * 3


def test_batch_size_rule():
    # a fixed byte budget on the largest stacked temporary, never a setting
    sizes = {}
    for L in (4, 5, 6, 7, 8):
        plan = identities.Plan(chain_config(L), [identities.OnePointBlock([0], "z")], "x")
        sizes[2**L] = plan.batch_size
    assert sizes == {16: 32, 32: 8, 64: 2, 128: 1, 256: 1}
    # the susceptibility stacks N matrices per sample but keeps the plan's batch
    chain = identities.Plan(bounds_5site_config(), [identities.SusceptibilityBlock("z", "z")], "x")
    assert chain.batch_size == 8


def test_a_plan_over_the_quantum_cap_fails_before_any_draw(monkeypatch):
    # the free energy reads the state and touches no string: the plan's
    # sectors refuse the lattice when it is built
    drawn = count_draws(monkeypatch)
    with pytest.raises(CapacityError, match="15 sites exceeds the quantum cap 14"):
        plan = identities.Plan(chain_config(15), [identities.FreeEnergyBlock()])
        plan.evaluate(MonteCarlo(3, 1))
    assert drawn == []


def classical_14site_config():
    # the classical-14site benchmark model: p = 2 and p = 4 on a periodic chain
    lat = build_lattice(1, 14)
    fams = {
        p: generate_bonds(lat, interaction_shape([[i] for i in range(p)]), "periodic")
        for p in (2, 4)
    }
    params = CouplingParams({p: {a: (0.4, 0.8) for a in "xyz"} for p in fams})
    return ModelConfig(lattice=lat, families=fams, params=params, beta=0.7)


def test_a_plan_that_reads_no_state_sizes_its_batch_by_its_probabilities():
    # the pair matrix reads only the Nishimori line: its batch is sized by the
    # (B, 2^N) float64 probabilities, not by a dim x dim matrix never built
    pairs, one_point = identities.PairMatrixBlock(), identities.OnePointBlock([0], "z")
    sizes = {}
    for L in (4, 10, 12):
        plan = identities.Plan(chain_config(L), [pairs], "x")
        assert not plan.reads_state
        sizes[L] = plan.batch_size
    plan = identities.Plan(classical_14site_config(), [pairs], "x")
    sizes[14] = plan.batch_size
    assert sizes == {4: 4096, 10: 64, 12: 16, 14: 4}
    assert "builder" not in vars(plan)
    # an empty plan reads no state either; any block that reads it brings
    # back the quantum budget
    assert not identities.Plan(chain_config(4), [], "x").reads_state
    mixed = identities.Plan(chain_config(4), [pairs, one_point], "x")
    assert mixed.reads_state and mixed.batch_size == 32


def test_a_plan_that_reads_no_state_runs_on_the_calling_thread(monkeypatch):
    # the a1 plan's pair matrix reads only the Nishimori line: at two
    # threads it starts no pool and gives the one-thread columns, while a
    # plan that reads the state starts its one pool
    pools = []
    real_init = concurrent.futures.ThreadPoolExecutor.__init__

    def recording(pool, workers, *args, **kwargs):
        pools.append(workers)
        real_init(pool, workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", recording)
    pairs = identities.PairMatrixBlock()
    plan = identities.Plan(classical_14site_config(), [pairs], "x")
    n = 2 * plan.batch_size + 3
    threaded = plan.evaluate(MonteCarlo(n, 19, threads=2))
    assert pools == []
    assert np.array_equal(threaded.values(pairs), plan.evaluate(MonteCarlo(n, 19)).values(pairs))
    state_plan = identities.Plan(chain_config(3), [OnePointBlock([0], "z")], "x")
    state_plan.evaluate(MonteCarlo(2 * state_plan.batch_size, 19, threads=2))
    assert pools == [2]


def test_a_classical_only_plan_gives_the_same_columns_at_any_batch():
    pairs = identities.PairMatrixBlock()
    plan = identities.Plan(classical_14site_config(), [pairs], "x")
    n = 2 * plan.batch_size + 3
    single, production, odd = plan_tables_at_batch_sizes(
        plan, MonteCarlo(n, 19), [1, plan.batch_size, 3]
    )
    threaded = plan.evaluate(MonteCarlo(n, 19, threads=2))
    extended = plan.evaluate(MonteCarlo(5, 19)).extend(n)
    for table in (production, odd, threaded, extended):
        assert np.array_equal(table.values(pairs), single.values(pairs))


def grid_dims(cfg):
    """The (p, axis, bond) grid dimensions of a model, one per bond of each
    component with a positive std-dev: p ascending, then axis, then bond."""
    return [
        (p, axis, b)
        for p in sorted(cfg.families)
        for axis in "xyz"
        if cfg.params.delta(p, axis) > 0.0
        for b in range(len(cfg.families[p].bonds))
    ]


def grid_node_row(cfg, idx, std_nodes):
    """Reference couplings at grid index idx: every component at its mean,
    then each random dimension moved to its node, one at a time."""
    couplings = {
        p: {axis: np.full(len(family.bonds), cfg.params.mu(p, axis)) for axis in "xyz"}
        for p, family in cfg.families.items()
    }
    for d, (p, axis, b) in enumerate(grid_dims(cfg)):
        couplings[p][axis][b] += cfg.params.delta(p, axis) * std_nodes[idx[d]]
    return np.concatenate([couplings[p][axis] for p in sorted(couplings) for axis in "xyz"])


def test_quadrature_rows_and_probabilities_match_the_grid_loop():
    cfg = quad_chain_config()
    spec = QuadratureSpec.from_model(cfg.families, cfg.params, 5)
    std_nodes, node_probs = spec.rule
    grid = list(itertools.product(range(5), repeat=len(grid_dims(cfg))))
    assert len(grid) == spec.node_count == 5**4
    # batches of 97 nodes, so the digit arithmetic runs from odd offsets
    starts = range(0, len(grid), 97)
    rows = np.concatenate([spec.rows(start, min(start + 97, len(grid))) for start in starts])
    for k, idx in enumerate(grid):
        assert np.array_equal(rows[k], grid_node_row(cfg, idx, std_nodes))
    probs = np.array([math.prod(node_probs[i] for i in idx) for idx in grid])
    assert np.array_equal(spec.probabilities(), probs)
    # one read of the whole grid, as a plan's one batch makes it, gives the
    # same rows
    assert np.array_equal(spec.rows(0, spec.node_count), rows)


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
            blocks = builder.build_rows(sample.row[None], sectors).blocks[0]
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


def test_value_table_owns_the_standard_errors_and_the_tolerance_rule():
    block = identities.FreeEnergyBlock()
    plan = identities.Plan(chain_config(2), [block])
    mc = plan.evaluate(MonteCarlo(n_samples=5, seed=3))
    values = mc.values(block)
    x = [float(v) for v in values[:, 0]]
    mean = sum(x) / 5
    # std(ddof=1) / sqrt(n), written out
    se = math.sqrt(sum((v - mean) ** 2 for v in x) / 4 / 5)
    assert mc.se(values)[0] == pytest.approx(se, rel=1e-12)
    # the leave-one-out error of the mean is the standard error
    assert mc.jackknife_se(values, lambda m: float(m[0])) == pytest.approx(se, rel=1e-12)
    tol = Tolerances(z_max=2.5, quadrature_abs=1e-3)
    assert mc.tolerance(se, tol, 1.0) == 2.5 * se
    assert mc.tolerance(0.0, tol, 1.0) == EXACT_TOL
    assert mc.estimate(mean, se).z_score == pytest.approx(mean / se)
    assert mc.estimate(mean, 0.0, math.inf).z_score == math.inf
    assert math.isnan(mc.estimate(mean, 0.0).z_score)
    assert np.array_equal(
        identities.ValueTable(plan, mc.method, [values[:1]], None).se(values[:1]), [0.0]
    )
    # an error whose squared spread overflows is no number to report
    with pytest.raises(ArithmeticError, match="standard error of a disorder mean overflows"):
        mc.se(np.array([[3e300], [-3e300], [1e300]]))

    grid = plan.evaluate(Quadrature(2))
    grid_values = grid.values(block)
    assert np.array_equal(grid.se(grid_values), [0.0])
    assert grid.jackknife_se(grid_values, lambda m: float(m[0])) == 0.0
    assert np.array_equal(grid.tolerance(np.ones(3), tol, 1e-3), [1e-3] * 3)
    assert math.isnan(grid.estimate(1.0, 0.0, 0.0).z_score)
