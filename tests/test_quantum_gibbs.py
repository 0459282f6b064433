import decimal
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xyzglass import quantum_gibbs
from xyzglass.disorder import CouplingParams, gauge_transform_couplings, sample_disorder
from xyzglass.errors import CapacityError
from xyzglass.lattice import (
    build_lattice,
    chain_pair_shape,
    generate_bonds,
    interaction_shape,
    merge_bond_families,
    single_site_shape,
)
from xyzglass.operators import (
    PauliString,
    gauge_unitary,
    parity_sectors,
    pauli_product,
    pauli_site,
    whole_space,
)
from xyzglass.quantum_gibbs import (
    HamiltonianBuilder,
    Spectrum,
    ThermalState,
    build_hamiltonian,
    derivative_identity_residual,
    duhamel,
    duhamel_kernel,
    duhamel_matrix,
    duhamel_time_integral,
    free_energy_density,
    gibbs_expectation,
    gibbs_expectation_expm,
    spectral_decompose,
    string_expectations,
    thermal_state,
    truncated_duhamel,
    z2_commutator_norm,
)


def eigenbasis_matrix(state, op):
    """V^dagger op V of a dense state or stack: the one block of the
    eigenbasis gather that `duhamel_matrix` contracts."""
    return quantum_gibbs._string_stack(state, [op])[1][..., 0, 0, :, :]


def order_expectation(state, axis):
    """The site-averaged axis magnetization, from `string_expectations`."""
    n = state.spectrum.sectors.n_sites
    sites = [PauliString(n, (i,), axis) for i in range(n)]
    return float(np.mean(string_expectations(state, sites)))


def chain_setup(L, boundary="open"):
    lat = build_lattice(1, L)
    fams = {
        1: generate_bonds(lat, single_site_shape(), boundary),
        2: generate_bonds(lat, chain_pair_shape(), boundary),
    }
    return lat, fams


def random_instance(rng, L, mu=0.2, delta=0.8, boundary="open"):
    lat, fams = chain_setup(L, boundary)
    params = CouplingParams({p: {a: (mu, delta) for a in "xyz"} for p in (1, 2)})
    sample = sample_disorder(params, fams, seed=int(rng.integers(0, 2**31)))
    return lat, fams, sample


def test_single_site_z_hamiltonian():
    lat = build_lattice(1, 1)
    fams = {1: generate_bonds(lat, single_site_shape(), "open")}
    params = CouplingParams({1: {"z": (1.0, 0.0)}})
    h = build_hamiltonian(lat, fams, sample_disorder(params, fams, 0))
    assert np.allclose(h, -np.diag([1.0, -1.0]))


def test_zero_couplings_zero_hamiltonian():
    lat, fams = chain_setup(3)
    h = build_hamiltonian(lat, fams, sample_disorder(CouplingParams({}), fams, 0))
    assert np.all(h == 0)


def test_capacity_cap():
    lat = build_lattice(1, 15)
    fams = {1: generate_bonds(lat, single_site_shape(), "open")}
    with pytest.raises(CapacityError):
        HamiltonianBuilder(lat, fams)


def test_hamiltonian_gauge_invariance():
    rng = np.random.default_rng(17)
    for _ in range(10):
        lat, fams, sample = random_instance(rng, 3)
        h = build_hamiltonian(lat, fams, sample)
        tau = rng.choice([-1, 1], size=lat.n_sites)
        for u in "xyz":
            g = gauge_unitary(lat.n_sites, u, tau)
            transformed = build_hamiltonian(
                lat, fams, gauge_transform_couplings(sample, tau, u)
            )
            assert np.max(np.abs(g @ h @ g.conj().T - transformed)) < 1e-12 * max(
                1.0, np.max(np.abs(h))
            )


def test_gauge_expectation_chain():
    # <sigma_X^w> under flipped couplings equals tau_X times the original expectation
    rng = np.random.default_rng(23)
    for _ in range(5):
        lat, fams, sample = random_instance(rng, 3)
        beta = 0.7
        tau = rng.choice([-1, 1], size=lat.n_sites)
        x_sites = (0, 2)
        op = pauli_product(lat.n_sites, x_sites, "z")
        orig = gibbs_expectation(
            thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), beta), op
        )
        moved = gibbs_expectation(
            thermal_state(
                spectral_decompose(
                    build_hamiltonian(lat, fams, gauge_transform_couplings(sample, tau, "x"))
                ),
                beta,
            ),
            op,
        )
        assert moved == pytest.approx(tau[0] * tau[2] * orig, abs=1e-10)


def test_spectral_examples():
    s = spectral_decompose(np.diag([1.0 + 0j, -1.0]))
    assert np.allclose(s.eigenvalues, [-1.0, 1.0])
    s = spectral_decompose(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(s.eigenvalues, [-1.0, 1.0])
    assert np.allclose(np.abs(s.eigenvectors), 1 / math.sqrt(2))


def test_spectral_reconstruction_random():
    rng = np.random.default_rng(31)
    for _ in range(5):
        lat, fams, sample = random_instance(rng, 3)
        h = build_hamiltonian(lat, fams, sample)
        s = spectral_decompose(h)
        v, e = s.eigenvectors[0], s.eigenvalues[0]
        recon = (v * e) @ v.conj().T
        assert np.max(np.abs(recon - h)) < 1e-10 * max(1.0, np.max(np.abs(h)))


def test_spectral_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def random_hamiltonian_stack(count, L=3, seed=37):
    lat, fams = chain_setup(L)
    params = CouplingParams({p: {a: (0.2, 0.8) for a in "xyz"} for p in (1, 2)})
    builder = HamiltonianBuilder(lat, fams)
    return np.stack([builder.build(sample_disorder(params, fams, seed, k)) for k in range(count)])


def test_stacked_decomposition_equals_one_matrix_at_a_time():
    stack = random_hamiltonian_stack(6)
    together = thermal_state(spectral_decompose(stack), 0.8)
    for k, h in enumerate(stack):
        alone = thermal_state(spectral_decompose(h), 0.8)
        assert np.array_equal(together.spectrum.eigenvalues[k], alone.spectrum.eigenvalues)
        assert np.array_equal(together.spectrum.eigenvectors[k], alone.spectrum.eigenvectors)
        assert np.array_equal(together.weights[k], alone.weights)
        assert together.log_z[k] == alone.log_z
        assert np.array_equal(duhamel_kernel(together)[k], duhamel_kernel(alone))
        for op in (PauliString(3, (0, 2), "y"), PauliString(3, (1,), "z")):
            assert np.array_equal(
                string_expectations(together, [op])[k], string_expectations(alone, [op])
            )
            assert np.array_equal(
                eigenbasis_matrix(together, op)[k], eigenbasis_matrix(alone, op)
            )


def test_stack_with_one_non_hermitian_matrix_names_it():
    stack = random_hamiltonian_stack(5)
    stack[3, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=r"not Hermitian \(sample 3\)"):
        spectral_decompose(stack)
    with pytest.raises(ValueError, match=r"not Hermitian \(sample 103\)"):
        spectral_decompose(stack, labels=range(100, 105))


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_stack_with_one_non_finite_matrix_raises_arithmetic_error(value):
    stack = random_hamiltonian_stack(5)
    stack[3, 0, 1] = stack[3, 1, 0] = value
    with pytest.raises(ArithmeticError, match=r"non-finite entries \(sample 3\)"):
        spectral_decompose(stack)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda evals, evecs: (evals + 1e-6, evecs), "reconstruction"),
        (lambda evals, evecs: (evals, 1.001 * evecs), "reconstruction|orthonormal"),
        # NaN residuals compare False against any bound and must still fail
        pytest.param(
            lambda evals, evecs: (evals, np.full_like(evecs, np.nan)), "reconstruction",
            id="nan-eigenvectors",
        ),
        pytest.param(
            lambda evals, evecs: (np.full_like(evals, np.inf), evecs), "eigenvalues are not finite",
            id="inf-eigenvalues",
        ),
    ],
)
def test_stack_with_one_bad_decomposition_raises_arithmetic_error(monkeypatch, corrupt, message):
    # eigh is replaced by one that corrupts stack entry 2 only; the
    # self-checks must reject the decomposition and name that entry
    stack = random_hamiltonian_stack(4)
    real_eigh = np.linalg.eigh

    def corrupted(h):
        evals, evecs = real_eigh(h)
        evals, evecs = evals.copy(), evecs.copy()
        evals[2], evecs[2] = corrupt(evals[2], evecs[2])
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(ArithmeticError, match=rf"({message}).*\(sample 2\)"):
        spectral_decompose(stack)


def test_bad_eigenvectors_of_a_zero_block_fail_only_the_orthonormality_check(monkeypatch):
    # a zero block reconstructs to exactly 0 from any eigenvectors, so
    # eigenvectors scaled by 1.001 can fail the Gram residual alone
    stack = random_hamiltonian_stack(4)
    stack[2] = 0
    real_eigh = np.linalg.eigh

    def scaled(h):
        evals, evecs = real_eigh(h)
        evecs = evecs.copy()
        evecs[2] *= 1.001
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", scaled)
    with pytest.raises(ArithmeticError, match=r"not orthonormal within tolerance \(sample 2\)"):
        spectral_decompose(stack)


def test_gibbs_beta_zero_traceless():
    lat, fams, sample = random_instance(np.random.default_rng(1), 2)
    state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), 0.0)
    assert gibbs_expectation(state, pauli_site(2, 0, "z")) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(state.weights, 1.0)


def test_gibbs_two_level_tanh():
    j, beta = 0.9, 1.3
    state = thermal_state(spectral_decompose(-j * np.diag([1.0 + 0j, -1.0])), beta)
    val = gibbs_expectation(state, np.diag([1.0 + 0j, -1.0]))
    assert val == pytest.approx(math.tanh(beta * j), abs=1e-12)


def test_gibbs_rejects_an_imaginary_part_above_rounding():
    # a Hermitian observable's trace is real up to rounding; 1e-6 is no rounding
    state = thermal_state(spectral_decompose(np.diag([1.0, -0.5, 0.2, 0.0])), 0.7)
    with pytest.raises(ValueError, match="imaginary part"):
        gibbs_expectation(state, (1 + 1e-6j) * np.eye(4))
    assert gibbs_expectation(state, (1 + 1e-12j) * np.eye(4)) == 1.0


def test_gibbs_matches_expm_oracle():
    rng = np.random.default_rng(29)
    for _ in range(10):
        lat, fams, sample = random_instance(rng, 3)
        beta = rng.uniform(0.1, 2.0)
        h = build_hamiltonian(lat, fams, sample)
        a = pauli_product(3, [0, 1], "y")
        spectral = gibbs_expectation(thermal_state(spectral_decompose(h), beta), a)
        assert abs(spectral - gibbs_expectation_expm(h, beta, a)) < 1e-8


def test_duhamel_beta_zero():
    lat, fams, sample = random_instance(np.random.default_rng(4), 2)
    state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), 0.0)
    a = pauli_site(2, 0, "x")
    b = pauli_site(2, 1, "x")
    assert duhamel(state, a, b) == pytest.approx(np.trace(a @ b).real / 4, abs=1e-12)


def test_duhamel_commuting_reduces_to_gibbs():
    # H diagonal, observables diagonal: the bracket collapses to <AB>
    lat, fams = chain_setup(2)
    params = CouplingParams({2: {"z": (0.5, 1.0)}})
    sample = sample_disorder(params, fams, seed=6)
    state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), 1.1)
    a = pauli_site(2, 0, "z")
    b = pauli_site(2, 1, "z")
    assert duhamel(state, a, b) == pytest.approx(gibbs_expectation(state, a @ b), abs=1e-10)


def test_duhamel_transverse_two_level_formula():
    gamma, beta = 0.8, 1.7
    h = -gamma * np.array([[0, 1], [1, 0]], dtype=complex)
    state = thermal_state(spectral_decompose(h), beta)
    z = np.diag([1.0 + 0j, -1.0])
    expected = math.tanh(beta * gamma) / (beta * gamma)
    assert duhamel(state, z, z) == pytest.approx(expected, abs=1e-12)


def test_duhamel_matches_simpson_oracle():
    rng = np.random.default_rng(41)
    for _ in range(5):
        lat, fams, sample = random_instance(rng, 3)
        beta = rng.uniform(0.2, 1.5)
        h = build_hamiltonian(lat, fams, sample)
        a = pauli_site(3, 0, "z")
        b = pauli_product(3, [1, 2], "y")
        state = thermal_state(spectral_decompose(h), beta)
        assert abs(duhamel(state, a, b) - duhamel_time_integral(h, beta, a, b)) < 1e-7


def test_duhamel_symmetry_positivity_and_norm_bound():
    rng = np.random.default_rng(43)
    for _ in range(5):
        lat, fams, sample = random_instance(rng, 3)
        state = thermal_state(
            spectral_decompose(build_hamiltonian(lat, fams, sample)), rng.uniform(0.1, 2)
        )
        a = pauli_product(3, [0], "y")
        b = pauli_product(3, [1, 2], "z")
        assert duhamel(state, a, b) == pytest.approx(duhamel(state, b, a), abs=1e-10)
        assert duhamel(state, a, a) >= -1e-12
        bound = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
        assert abs(duhamel(state, a, b)) <= bound + 1e-10


def test_truncated_duhamel_identity_operator():
    lat, fams, sample = random_instance(np.random.default_rng(3), 2)
    state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), 0.9)
    assert truncated_duhamel(state, np.eye(4, dtype=complex), pauli_site(2, 1, "x")) \
        == pytest.approx(0.0, abs=1e-12)


def test_truncated_duhamel_beta_zero_same_site():
    lat, fams, sample = random_instance(np.random.default_rng(8), 2)
    state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), 0.0)
    z0 = pauli_site(2, 0, "z")
    assert truncated_duhamel(state, z0, z0) == pytest.approx(1.0, abs=1e-12)


def test_truncated_duhamel_matches_simpson():
    rng = np.random.default_rng(47)
    lat, fams, sample = random_instance(rng, 2)
    beta = 0.8
    h = build_hamiltonian(lat, fams, sample)
    state = thermal_state(spectral_decompose(h), beta)
    a = pauli_site(2, 0, "x")
    b = pauli_site(2, 1, "z")
    oracle = duhamel_time_integral(h, beta, a, b) - gibbs_expectation_expm(
        h, beta, a
    ) * gibbs_expectation_expm(h, beta, b)
    assert abs(truncated_duhamel(state, a, b) - oracle) < 1e-7


def test_free_energy_values():
    lat, fams, sample = random_instance(np.random.default_rng(2), 3)
    state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), 0.0)
    assert free_energy_density(state, 3) == pytest.approx(math.log(2.0), abs=1e-12)
    h_field = 0.75
    lat1 = build_lattice(1, 1)
    fams1 = {1: generate_bonds(lat1, single_site_shape(), "open")}
    params = CouplingParams({1: {"z": (h_field, 0.0)}})
    state1 = thermal_state(
        spectral_decompose(build_hamiltonian(lat1, fams1, sample_disorder(params, fams1, 0))), 2.0
    )
    assert free_energy_density(state1, 1) == pytest.approx(
        math.log(2 * math.cosh(2.0 * h_field)), abs=1e-12
    )


def test_free_energy_large_beta_no_overflow():
    lat, fams, sample = random_instance(np.random.default_rng(12), 2)
    state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), 50.0)
    assert np.isfinite(state.log_z)
    assert free_energy_density(state, 2) == pytest.approx(
        -50.0 * state.spectrum.eigenvalues[0, 0] / 2, rel=1e-2
    )


@pytest.mark.parametrize("beta", [0.0, 1.0, 50.0, 1000.0])
def test_log_z_from_shifted_weights_matches_logsumexp(beta):
    from scipy.special import logsumexp

    lat, fams, sample = random_instance(np.random.default_rng(14), 3)
    random = spectral_decompose(build_hamiltonian(lat, fams, sample))
    # a doubly degenerate ground state
    degenerate = spectral_decompose(np.diag([-1.3, -1.3, 0.2, 0.9]).astype(complex))
    for spectrum in (random, degenerate):
        e = spectrum.eigenvalues
        state = thermal_state(spectrum, beta)
        assert state.log_z == pytest.approx(float(logsumexp(-beta * e)), rel=1e-13, abs=0.0)


def test_free_energy_convex_in_field_mean():
    lat, fams = chain_setup(2)
    beta = 0.9
    vals = []
    for mu in (0.3, 0.4, 0.5):
        params = CouplingParams({1: {"z": (mu, 0.0)}, 2: {a: (0.2, 0.0) for a in "xyz"}})
        sample = sample_disorder(params, fams, seed=0)
        state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), beta)
        vals.append(free_energy_density(state, 2))
    assert vals[0] - 2 * vals[1] + vals[2] >= -1e-8


def test_order_expectation_cases():
    lat, fams, sample = random_instance(np.random.default_rng(6), 2)
    state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), 0.0)
    for axis in "xyz":
        assert order_expectation(state, axis) == pytest.approx(0.0, abs=1e-12)
    # single site with a z field
    lat1 = build_lattice(1, 1)
    fams1 = {1: generate_bonds(lat1, single_site_shape(), "open")}
    params = CouplingParams({1: {"z": (0.6, 0.0)}})
    state1 = thermal_state(
        spectral_decompose(build_hamiltonian(lat1, fams1, sample_disorder(params, fams1, 0))), 1.4
    )
    assert order_expectation(state1, "z") == pytest.approx(math.tanh(1.4 * 0.6), abs=1e-12)


def test_order_vanishes_for_even_couplings():
    lat, fams = chain_setup(3)
    params = CouplingParams({2: {a: (0.4, 0.6) for a in "xyz"}})
    sample = sample_disorder(params, fams, seed=9)
    state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), 1.0)
    for axis in "xyz":
        assert order_expectation(state, axis) == pytest.approx(0.0, abs=1e-10)


def test_derivative_identity_single_site():
    lat = build_lattice(1, 1)
    fams = {1: generate_bonds(lat, single_site_shape(), "open")}
    params = CouplingParams({1: {"z": (0.5, 0.0)}})
    sample = sample_disorder(params, fams, seed=0)
    h_step = 1e-4
    res = derivative_identity_residual(
        lat, fams, sample, 1.2, pauli_site(1, 0, "z"), "z", h_step
    )
    assert res < 10 * h_step**2


def test_derivative_identity_random_instances():
    rng = np.random.default_rng(51)
    for _ in range(5):
        lat, fams, sample = random_instance(rng, 2)
        f = pauli_product(2, [0, 1], "y")
        res = derivative_identity_residual(lat, fams, sample, 0.8, f, "x", 1e-4)
        assert res < 1e-6


def test_derivative_identity_identity_observable():
    lat, fams, sample = random_instance(np.random.default_rng(5), 2)
    res = derivative_identity_residual(lat, fams, sample, 1.0, np.eye(4, dtype=complex), "z", 1e-4)
    assert res < 1e-10


def test_derivative_identity_rejects_bad_step():
    lat, fams, sample = random_instance(np.random.default_rng(5), 2)
    with pytest.raises(ValueError):
        derivative_identity_residual(lat, fams, sample, 1.0, np.eye(4, dtype=complex), "z", 0.0)


def test_z2_commutator_cases():
    lat, fams = chain_setup(3)
    # even-order couplings only: every global flip is a symmetry
    params = CouplingParams({2: {a: (0.3, 0.7) for a in "xyz"}})
    h = build_hamiltonian(lat, fams, sample_disorder(params, fams, 2))
    for axis in "xyz":
        assert z2_commutator_norm(h, axis) < 1e-12
    # a transverse field on axis y breaks the z flip
    params = CouplingParams({1: {"y": (0.5, 0.0)}, 2: {a: (0.3, 0.7) for a in "xyz"}})
    h = build_hamiltonian(lat, fams, sample_disorder(params, fams, 2))
    assert z2_commutator_norm(h, "z") > 1e-3
    assert z2_commutator_norm(h, "y") < 1e-12
    assert z2_commutator_norm(np.zeros((8, 8), dtype=complex), "x") == 0.0


def test_builder_matches_one_shot():
    rng = np.random.default_rng(53)
    lat, fams, sample = random_instance(rng, 3)
    builder = HamiltonianBuilder(lat, fams)
    assert np.max(np.abs(builder.build(sample) - build_hamiltonian(lat, fams, sample))) < 1e-12


def _p4_chain_families(L):
    lat = build_lattice(1, L)
    return lat, {
        2: generate_bonds(lat, chain_pair_shape(), "periodic"),
        4: generate_bonds(lat, interaction_shape([(0,), (1,), (2,), (3,)]), "periodic"),
    }


def _square_families(L):
    lat = build_lattice(2, L)
    pairs = merge_bond_families(
        generate_bonds(lat, interaction_shape(shape), "periodic")
        for shape in ([(0, 0), (1, 0)], [(0, 0), (0, 1)])
    )
    plaquette = interaction_shape([(0, 0), (1, 0), (0, 1), (1, 1)])
    return lat, {
        1: generate_bonds(lat, single_site_shape(2), "periodic"),
        2: pairs,
        4: generate_bonds(lat, plaquette, "periodic"),
    }


@st.composite
def builder_models(draw):
    """A lattice with its bond families: p=1,2 chains (open or periodic),
    p=2,4 periodic chains, or a d=2 periodic square lattice with p=1,2,4."""
    kind = draw(st.sampled_from(["p12-chain", "p4-chain", "d2-periodic"]))
    if kind == "p12-chain":
        lat, fams = chain_setup(draw(st.integers(2, 6)), draw(st.sampled_from(["open", "periodic"])))
    elif kind == "p4-chain":
        lat, fams = _p4_chain_families(draw(st.integers(4, 6)))
    else:
        lat, fams = _square_families(draw(st.integers(2, 3)))
    law = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0))
    params = CouplingParams({p: {a: draw(law) for a in "xyz"} for p in fams})
    return lat, fams, sample_disorder(params, fams, seed=draw(st.integers(0, 2**31 - 1)))


@st.composite
def gauge_models(draw):
    """A sample on a d=2 periodic square lattice (p=1,2,4) or on a chain
    with a p=3 or p=4 shape (open or periodic), with a gauge configuration
    tau and a gauge axis."""
    kind = draw(st.sampled_from(["d2-periodic", "p3-chain", "p4-chain"]))
    if kind == "d2-periodic":
        lat, fams = _square_families(draw(st.integers(2, 3)))
    else:
        p = 3 if kind == "p3-chain" else 4
        lat = build_lattice(1, draw(st.integers(p, 7)))
        shape = interaction_shape([(i,) for i in range(p)])
        boundary = draw(st.sampled_from(["open", "periodic"]))
        fams = {p: generate_bonds(lat, shape, boundary)}
        if draw(st.booleans()):
            fams[2] = generate_bonds(lat, chain_pair_shape(), boundary)
    law = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0))
    params = CouplingParams({p: {a: draw(law) for a in "xyz"} for p in fams})
    sample = sample_disorder(params, fams, seed=draw(st.integers(0, 2**31 - 1)))
    tau = draw(st.lists(st.sampled_from([-1, 1]), min_size=lat.n_sites, max_size=lat.n_sites))
    return lat, fams, sample, np.array(tau), draw(st.sampled_from("xyz"))


@settings(max_examples=25, deadline=None)
@given(gauge_models())
def test_hamiltonian_gauge_invariance_beyond_pair_chains(model):
    # g H(J) g^dagger = H(J gauge-transformed by tau on the axes other than u)
    lat, fams, sample, tau, u = model
    h = build_hamiltonian(lat, fams, sample)
    g = gauge_unitary(lat.n_sites, u, tau)
    moved = build_hamiltonian(lat, fams, gauge_transform_couplings(sample, tau, u))
    scale = max(1.0, float(np.max(np.abs(h))))
    assert np.max(np.abs(g @ h @ g.conj().T - moved)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(builder_models())
def test_builder_matches_kron_oracle(model):
    lat, fams, sample = model
    n = lat.n_sites
    oracle = np.zeros((2**n, 2**n), dtype=complex)
    for p, fam in fams.items():
        for axis in "xyz":
            for b, bond in enumerate(fam.bonds):
                oracle -= sample.value(p, axis, b) * pauli_product(n, bond, axis)
    assert np.max(np.abs(HamiltonianBuilder(lat, fams).build(sample) - oracle)) < 1e-12


def test_builder_init_allocates_nothing_of_size_dim():
    lat, fams = _p4_chain_families(14)
    tracemalloc.start()
    try:
        HamiltonianBuilder(lat, fams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_string_contractions_match_dense():
    rng = np.random.default_rng(59)
    for _ in range(5):
        lat, fams, sample = random_instance(rng, 3)
        state = thermal_state(
            spectral_decompose(build_hamiltonian(lat, fams, sample)), rng.uniform(0.1, 2.0)
        )
        v = state.spectrum.eigenvectors[0]
        for axis in "xyz":
            sites = tuple(rng.choice(3, size=rng.integers(1, 4), replace=False))
            op = PauliString(3, sites, axis)
            dense = pauli_product(3, sites, axis)
            (q,) = string_expectations(state, [op])
            assert q == pytest.approx(gibbs_expectation(state, dense), abs=1e-12)
            assert np.max(np.abs(eigenbasis_matrix(state, op) - v.conj().T @ dense @ v)) < 1e-12


@st.composite
def kernel_spectra(draw):
    """A spectrum of dim 2, 4 or 8 and an inverse temperature up to 1e3 whose
    scaled half-gaps beta (E_m - E_n) / 2 fall on both sides of the kernel's
    1e-4 series switch, including exact degeneracy."""
    beta = draw(st.floats(1e-3, 1e3))
    gaps = draw(st.sampled_from([1, 3, 7]))
    halves = draw(
        st.lists(
            st.just(0.0) | st.floats(1e-8, 1e-3) | st.floats(1e-3, 30.0),
            min_size=gaps, max_size=gaps,
        )
    )
    offset = draw(st.floats(-5.0, 5.0))
    e = offset + np.concatenate([[0.0], np.cumsum(2.0 * np.array(halves) / beta)])
    return e, beta


@settings(max_examples=100, deadline=None)
@given(kernel_spectra())
def test_duhamel_kernel_matches_direct_evaluation(spectrum):
    e, beta = spectrum
    dim = len(e)
    spectrum = Spectrum(e[None], np.eye(dim)[None], whole_space(dim.bit_length() - 1))
    phi = duhamel_kernel(thermal_state(spectrum, beta))[0, 0]
    assert np.all(np.isfinite(phi)) and np.all(phi >= 0.0)
    a = beta * (e - e[0])
    eps = np.finfo(float).eps
    with decimal.localcontext(decimal.Context(prec=50)):
        for m in range(dim):
            for n in range(dim):
                am, an = decimal.Decimal(a[m]), decimal.Decimal(a[n])
                if am == an:
                    exact = float((-am).exp())
                else:
                    exact = float(((-an).exp() - (-am).exp()) / (am - an))
                if exact < 1e-290:
                    assert phi[m, n] < 1e-290
                    continue
                # rounding the exponents costs about (1 + s) eps on both
                # branches; the expm1 form of the direct branch cancels nothing
                s = 0.5 * (a[m] + a[n])
                assert abs(phi[m, n] - exact) <= 16 * eps * (1.0 + s) * exact


def test_duhamel_kernel_at_huge_beta_evaluates_each_form_on_its_own_entries():
    # at beta 1e300 the scaled half-gaps of distinct levels are about 1e300,
    # where the near-degeneracy series' x^2 would overflow
    lat, fams, sample = random_instance(np.random.default_rng(3), 2)
    beta = 1e300
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), beta)
        phi = duhamel_kernel(state)
    phi, e = phi[0, 0], state.spectrum.eigenvalues[0]
    assert e[1] - e[0] > 1e-6  # a nondegenerate ground state
    assert phi[0, 0] == 1.0
    # (1 - exp(-beta gap)) / (beta gap) between the ground state and the rest
    assert np.allclose(phi[0, 1:], 1.0 / (beta * (e[1:] - e[0])), rtol=1e-12, atol=0.0)
    assert np.array_equal(phi, phi.T)
    assert np.all(phi[1:, 1:] == 0.0)


@st.composite
def degenerate_chains(draw):
    """Zero-field XYZ chains of odd length: there the global x and y flips
    anticommute, so every level is at least twofold degenerate."""
    n = draw(st.sampled_from([3, 5]))
    lat = build_lattice(1, n)
    fams = {2: generate_bonds(lat, chain_pair_shape(), draw(st.sampled_from(["open", "periodic"])))}
    law = st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, 0.8))
    params = CouplingParams({2: {a: draw(law) for a in "xyz"}})
    return lat, fams, sample_disorder(params, fams, seed=draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=10, deadline=None)
@given(
    degenerate_chains(),
    st.floats(0.05, 1.5),
    st.tuples(st.integers(0, 4), st.sampled_from("xyz"), st.integers(0, 4), st.sampled_from("xyz")),
)
def test_degenerate_spectra_match_expm_and_simpson_oracles(model, beta, observables):
    lat, fams, sample = model
    n = lat.n_sites
    h = build_hamiltonian(lat, fams, sample)
    state = thermal_state(spectral_decompose(h), beta)
    e = state.spectrum.eigenvalues[0]
    assert np.max(np.abs(e[0::2] - e[1::2])) < 1e-10
    i, v, j, w = observables
    a, b = pauli_site(n, i % n, v), pauli_site(n, j % n, w)
    assert abs(gibbs_expectation(state, a) - gibbs_expectation_expm(h, beta, a)) < 1e-8
    assert abs(duhamel(state, a, b) - duhamel_time_integral(h, beta, a, b)) < 1e-7


def sector_states(parity, count=2, L=4, beta=0.7, seed=11):
    """A stack of thermal states of an L-site chain: pair couplings on the
    P_z parity sectors, or pair and single-site couplings on the whole
    space."""
    lat, fams = chain_setup(L)
    if parity:
        del fams[1]
    params = CouplingParams({p: {a: (0.2, 0.8) for a in "xyz"} for p in fams})
    rows = np.stack([sample_disorder(params, fams, seed, k).row for k in range(count)])
    sectors = (parity_sectors if parity else whole_space)(L)
    blocks = HamiltonianBuilder(lat, fams).build_rows(rows, sectors)
    return thermal_state(spectral_decompose(blocks), beta)


def read_only(state):
    """A copy of a thermal state whose arrays refuse writes."""
    arrays = [
        a.copy() for a in (state.spectrum.eigenvalues, state.spectrum.eigenvectors, state.weights)
    ]
    for a in arrays:
        a.flags.writeable = False
    spectrum = Spectrum(arrays[0], arrays[1], state.spectrum.sectors)
    return ThermalState(spectrum, state.beta, state.log_z, arrays[2])


@pytest.mark.parametrize("parity", [False, True], ids=["whole space", "parity"])
def test_eigenbasis_paths_never_write_the_state(parity):
    # the string stacks work on a conjugate copy of V; on real sectors
    # v.conj() is V itself, so an in-place write through it would corrupt
    # the state, and on read-only arrays it raises instead
    state = sector_states(parity)
    lists = {axis: [PauliString(4, (i,), axis) for i in range(4)] for axis in "xyz"}
    lists["yy"] = [PauliString(4, (i, i + 1), "y") for i in range(3)]

    def results(state):
        kernel = duhamel_kernel(state)
        kernel.flags.writeable = False
        ops = [op for strings in lists.values() for op in strings]
        out = [string_expectations(state, ops)]
        out += [quantum_gibbs._string_stack(state, strings)[1] for strings in lists.values()]
        for a, b in (("z", "z"), ("x", "x"), ("yy", "yy"), ("z", "yy"), ("x", "y"), ("z", "x")):
            out.append(duhamel_matrix(state, kernel, lists[a], lists[a] if a == b else lists[b]))
        return out

    frozen = read_only(state)
    v = frozen.spectrum.eigenvectors.copy()
    for got, expected in zip(results(frozen), results(state), strict=True):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert np.array_equal(frozen.spectrum.eigenvectors, v)


class _CountingArray(np.ndarray):
    """An array that counts the matmuls it enters, and whose ufunc results
    count theirs too."""

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingArray.matmuls += 1
        inputs = tuple(np.asarray(x) for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(o) for o in kwargs["out"])
        result = getattr(ufunc, method)(*inputs, **kwargs)
        return result.view(_CountingArray) if isinstance(result, np.ndarray) else result


def test_duhamel_matrix_of_lists_with_different_sector_maps_forms_no_eigenbasis_block(
    monkeypatch,
):
    # a susceptibility with a parity-flipping v on a parity plan: the brackets
    # are exactly 0, known from the sector maps before any string is applied
    # or any eigenbasis block multiplied
    state = sector_states(parity=True)
    spectrum = state.spectrum
    counted = ThermalState(
        Spectrum(spectrum.eigenvalues, spectrum.eigenvectors.view(_CountingArray), spectrum.sectors),
        state.beta, state.log_z, state.weights,
    )
    kernel = duhamel_kernel(state)
    applied = []
    apply = PauliString.apply
    monkeypatch.setattr(
        PauliString, "apply", lambda op, v, sectors: applied.append(op) or apply(op, v, sectors)
    )
    ops_z = [PauliString(4, (i,), "z") for i in range(4)]
    ops_x = [PauliString(4, (i,), "x") for i in range(4)]
    # the counters see a bracket whose lists share their map
    duhamel_matrix(counted, kernel, ops_x, ops_x)
    assert len(applied) == 4 and _CountingArray.matmuls > 0
    applied.clear()
    _CountingArray.matmuls = 0
    duh = duhamel_matrix(counted, kernel, ops_z, ops_x)
    assert np.array_equal(duh, np.zeros((2, 4, 4)))
    assert applied == [] and _CountingArray.matmuls == 0
