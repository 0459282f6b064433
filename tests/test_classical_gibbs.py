import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xyzglass.classical_gibbs import (
    BondProductTable,
    ClassicalModel,
    classical_correlation_matrix,
    classical_energy,
    classical_expectation,
    classical_from_nishimori,
    classical_pair_expectation,
    correlation_matrix_to_csv,
    product_expectations,
)
from xyzglass.disorder import CouplingParams, nishimori_transform, sample_disorder
from xyzglass.errors import CapacityError
from xyzglass.lattice import (
    build_lattice,
    chain_pair_shape,
    generate_bonds,
    interaction_shape,
    single_site_shape,
)
from xyzglass.operators import pauli_product
from xyzglass.quantum_gibbs import build_hamiltonian, gibbs_expectation, spectral_decompose, thermal_state


def chain_model(L, k1=None, k2=None, beta1=1.0, beta2=1.0, boundary="open"):
    lat = build_lattice(1, L)
    fams = {}
    couplings = {}
    betas = {}
    if k1 is not None:
        fams[1] = generate_bonds(lat, single_site_shape(), boundary)
        couplings[1] = np.asarray(k1, dtype=float)
        betas[1] = beta1
    if k2 is not None:
        fams[2] = generate_bonds(lat, chain_pair_shape(), boundary)
        couplings[2] = np.asarray(k2, dtype=float)
        betas[2] = beta2
    return ClassicalModel(n_sites=L, families=fams, couplings=couplings, betas=betas)


def test_energy_examples():
    model = chain_model(3, k2=[0.0, 0.0])
    assert classical_energy(model, [1, -1, 1]) == 0.0
    model = chain_model(2, k2=[0.8])
    assert classical_energy(model, [1, 1]) == pytest.approx(-0.8)
    assert classical_energy(model, [-1, 1]) == pytest.approx(0.8)
    # even bonds are blind to a global flip
    model = chain_model(4, k2=[0.3, -0.5, 0.9])
    tau = np.array([1, -1, -1, 1])
    assert classical_energy(model, tau) == pytest.approx(classical_energy(model, -tau))


def test_single_site_tanh():
    k, beta = 0.7, 1.3
    model = chain_model(1, k1=[k], beta1=beta)
    assert classical_expectation(model, [0]) == pytest.approx(math.tanh(beta * k), abs=1e-12)


def test_two_site_bond_tanh():
    k, beta = 0.45, 0.9
    model = chain_model(2, k2=[k], beta2=beta)
    assert classical_expectation(model, [0, 1]) == pytest.approx(math.tanh(beta * k), abs=1e-12)


def test_beta_zero_uniform_measure():
    model = chain_model(3, k1=[1.0, 2.0, 3.0], k2=[1.0, 1.0], beta1=0.0, beta2=0.0)
    assert classical_expectation(model, [0]) == pytest.approx(0.0, abs=1e-12)
    assert classical_expectation(model, [0, 2]) == pytest.approx(0.0, abs=1e-12)
    assert classical_expectation(model, []) == pytest.approx(1.0)


def test_pair_expectation_symmetric_difference():
    model = chain_model(3, k2=[0.4, 0.6], beta2=1.1)
    direct = classical_expectation(model, [0, 2])
    assert classical_pair_expectation(model, [0, 1], [1, 2]) == pytest.approx(direct, abs=1e-14)
    assert classical_pair_expectation(model, [0, 1], [0, 1]) == 1.0


def test_correlation_matrix_properties():
    model = chain_model(4, k2=[0.5, -0.2, 0.7], beta2=0.8)
    corr = classical_correlation_matrix(model)
    assert np.allclose(np.diag(corr), 1.0)
    assert np.allclose(corr, corr.T)
    for i in range(4):
        for j in range(4):
            assert corr[i, j] == pytest.approx(
                classical_expectation(model, [i, j] if i != j else []), abs=1e-12
            )
    # beta = 0 gives the identity matrix
    model0 = chain_model(4, k2=[0.5, -0.2, 0.7], beta2=0.0)
    assert np.allclose(classical_correlation_matrix(model0), np.eye(4))


def test_ferromagnetic_ground_state_dominance():
    model = chain_model(5, k2=[1.0] * 4, beta2=20.0)
    corr = classical_correlation_matrix(model)
    assert np.all(corr > 1.0 - 1e-8)


def test_chunked_path_matches_direct():
    # force the chunked two-pass path with a tiny chunk size
    import xyzglass.classical_gibbs as cg

    model = chain_model(5, k1=[0.2, -0.1, 0.3, 0.0, 0.5], k2=[0.4] * 4, beta1=0.7, beta2=1.2)
    direct = product_expectations(model, [(0,), (1, 3), (0, 2, 4)])
    old = cg._CHUNK_BITS
    try:
        cg._CHUNK_BITS = 3
        chunked = product_expectations(model, [(0,), (1, 3), (0, 2, 4)])
    finally:
        cg._CHUNK_BITS = old
    assert np.max(np.abs(direct - chunked)) < 1e-14


def test_capacity_cap():
    lat = build_lattice(1, 24)
    fam = generate_bonds(lat, single_site_shape(), "open")
    model = ClassicalModel(
        n_sites=25,
        families={1: fam},
        couplings={1: np.zeros(24)},
        betas={1: 1.0},
    )
    with pytest.raises(CapacityError):
        classical_expectation(model, [0])


def test_quantum_classical_reduction():
    # with couplings on a single axis the quantum model is the classical one
    rng = np.random.default_rng(61)
    for axis in "xyz":
        L = 4
        lat = build_lattice(1, L)
        fams = {
            1: generate_bonds(lat, single_site_shape(), "open"),
            2: generate_bonds(lat, chain_pair_shape(), "open"),
        }
        params = CouplingParams({1: {axis: (0.3, 0.6)}, 2: {axis: (0.2, 0.9)}})
        sample = sample_disorder(params, fams, seed=int(rng.integers(2**31)))
        beta = float(rng.uniform(0.2, 1.5))
        state = thermal_state(spectral_decompose(build_hamiltonian(lat, fams, sample)), beta)
        model = ClassicalModel(
            n_sites=L,
            families=fams,
            couplings={1: sample.couplings[1][axis], 2: sample.couplings[2][axis]},
            betas={1: beta, 2: beta},
        )
        for sites in [(0,), (1, 2), (0, 3)]:
            quantum = gibbs_expectation(state, pauli_product(L, sites, axis))
            assert quantum == pytest.approx(classical_expectation(model, sites), abs=1e-10)


def test_classical_nishimori_one_point_identity():
    # E<tau_i> equals E<tau_i>^2 on the Nishimori line, checked by quadrature
    from numpy.polynomial.hermite import hermgauss

    beta_n = 0.9
    nodes, weights = hermgauss(48)
    k_vals = beta_n + math.sqrt(2.0) * nodes
    probs = weights / math.sqrt(math.pi)
    first = 0.0
    second = 0.0
    for k, pr in zip(k_vals, probs):
        m = math.tanh(beta_n * k)
        # Nishimori reweighting uses the coupling density itself, already in pr
        first += pr * m
        second += pr * m * m
    assert first == pytest.approx(second, abs=1e-8)


def test_classical_nishimori_two_site_identity_via_transform():
    # same identity on a 2-site chain, disorder-averaged by Monte Carlo
    lat = build_lattice(1, 2)
    fams = {2: generate_bonds(lat, chain_pair_shape(), "open")}
    params = CouplingParams({2: {"y": (0.5, 0.8), "z": (0.4, 1.1)}})
    n = 20000
    first = np.empty(n)
    second = np.empty(n)
    for k in range(n):
        sample = sample_disorder(params, fams, seed=13, sample_index=k)
        nd = nishimori_transform(sample, params, "x")
        model = classical_from_nishimori(nd, fams, 2)
        val = classical_expectation(model, [0, 1])
        first[k] = val
        second[k] = val * val
    diff = first - second
    z = diff.mean() / (diff.std(ddof=1) / math.sqrt(n))
    assert abs(z) < 4


def test_bond_product_table_matches_enumeration():
    lat = build_lattice(1, 4)
    fams = {
        1: generate_bonds(lat, single_site_shape(), "open"),
        2: generate_bonds(lat, chain_pair_shape(), "open"),
    }
    rng = np.random.default_rng(71)
    table = BondProductTable(4, fams)
    k_by_p = {1: rng.normal(size=4), 2: rng.normal(size=3)}
    betas = {1: 0.6, 2: 1.3}
    model = ClassicalModel(n_sites=4, families=fams, couplings=k_by_p, betas=betas)
    sets = [(0,), (1, 2), (0, 1, 3), ()]
    fast = table.expectations(k_by_p, betas, sets)
    slow = product_expectations(model, sets)
    assert np.max(np.abs(fast - slow)) < 1e-12
    pair = table.pair_matrix(k_by_p, betas)
    assert np.max(np.abs(pair - classical_correlation_matrix(model))) < 1e-12


@st.composite
def classical_chains(draw):
    """A chain of 1..12 sites with p = 1..4 contiguous shapes, open or
    periodic, and per-order inverse temperatures up to 25, where most of the
    weight sits on a few configurations."""
    n = draw(st.integers(1, 12))
    boundary = draw(st.sampled_from(["open", "periodic"]))
    orders = draw(st.sets(st.integers(1, 4), min_size=1))
    lat = build_lattice(1, n)
    fams = {
        p: generate_bonds(lat, interaction_shape([[i] for i in range(p)]), boundary)
        for p in sorted(orders)
        if p <= n
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    couplings = {p: rng.normal(size=len(fam.bonds)) for p, fam in fams.items()}
    betas = {p: draw(st.floats(0.0, 25.0)) for p in fams}
    return ClassicalModel(n_sites=n, families=fams, couplings=couplings, betas=betas)


@settings(max_examples=80, deadline=None)
@given(classical_chains())
def test_pair_matrix_matches_chunked_enumeration(model):
    # n = 1 leaves the high-bit half of the split register empty
    table = BondProductTable(model.n_sites, model.families)
    pair = table.pair_matrix(model.couplings, model.betas)
    assert np.max(np.abs(pair - classical_correlation_matrix(model))) < 1e-12
    assert np.array_equal(pair, pair.T)
    assert np.max(np.abs(np.diag(pair) - 1.0)) <= 1e-14


def test_correlation_csv(tmp_path):
    model = chain_model(3, k2=[0.5, 0.5], beta2=1.0)
    path = tmp_path / "corr.csv"
    correlation_matrix_to_csv(classical_correlation_matrix(model), str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "site,0,1,2"
    assert len(lines) == 4
