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
    correlation_matrix_to_csv,
    product_expectations,
)
from xyzglass.disorder import CouplingParams, nishimori_transform, sample_disorder
from xyzglass.errors import CapacityError
from xyzglass.identities import MagnetizationBlock, ModelConfig, PairMatrixBlock, Plan
from xyzglass.lattice import (
    BondFamily,
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
    # tau_X tau_Y is the product over the symmetric difference of X and Y
    model = chain_model(3, k2=[0.4, 0.6], beta2=1.1)
    direct = classical_expectation(model, [0, 2])
    assert classical_expectation(model, [0, 1, 1, 2]) == pytest.approx(direct, abs=1e-14)
    assert classical_expectation(model, []) == 1.0


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
        sample = sample_disorder(params, fams, 13, k)
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
def test_pair_matrix_matches_per_bond_enumeration(model):
    # n = 1 leaves the high-bit half of the split register empty
    table = BondProductTable(model.n_sites, model.families)
    pair = table.pair_matrix(model.couplings, model.betas)
    assert np.max(np.abs(pair - classical_correlation_matrix(model))) < 1e-12
    assert np.array_equal(pair, pair.T)
    assert np.max(np.abs(np.diag(pair) - 1.0)) <= 1e-14


def spin_table(n_sites):
    """(2^N, N) spins +-1: site i reads bit N-1-i of the configuration index,
    bit 0 meaning +1."""
    idx = np.arange(1 << n_sites)[:, None]
    return 1.0 - 2.0 * ((idx >> (n_sites - 1 - np.arange(n_sites))) & 1)


def sign_table(n_sites, families):
    """(2^N, bonds) products of the spins of each bond, in term order."""
    tau = spin_table(n_sites)
    cols = [np.prod(tau[:, bond], axis=1) for p in sorted(families)
            for bond in families[p].bonds]
    return np.stack(cols, axis=1) if cols else np.zeros((len(tau), 0))


def per_sample_probabilities(n_sites, families, betas, k_by_p):
    """The one-sample softmax over the full sign table, written out: the
    arithmetic whose bits the stacked softmax must keep."""
    signs = sign_table(n_sites, families)
    coeff = np.array([betas[p] * k for p in sorted(families) for k in k_by_p[p]])
    logw = signs @ coeff
    w = np.exp(logw - np.max(logw))
    return w / np.sum(w)


def assert_stacked_rows_keep_their_bits(n_sites, families, betas, n_rows, seed):
    table = BondProductTable(n_sites, families)
    # a bond on an even number of sites is blind to the global flip; a table
    # whose every bond is such keeps half of the configurations
    invariant = all(p % 2 == 0 for p in families)
    assert table.flip_invariant == invariant
    signs = sign_table(n_sites, families)
    # the kept rows are the written-out products, read off the index bits
    assert np.array_equal(table.term_signs, signs[: 1 << (n_sites - invariant)])
    rng = np.random.default_rng(seed)
    k = {p: rng.normal(size=(n_rows, len(f.bonds))) for p, f in families.items()}
    stacked = table.probabilities(k, betas)
    # without terms there is nothing to stack: one uniform row
    assert stacked.shape == (n_rows if families else 1, 1 << n_sites)
    for i in range(len(stacked)):
        row = {p: rows[i] for p, rows in k.items()}
        assert np.array_equal(stacked[i], per_sample_probabilities(n_sites, families, betas, row))
        single = table.probabilities({p: rows[i : i + 1] for p, rows in k.items()}, betas)
        assert np.array_equal(single[0], stacked[i])


def test_a_repeated_bond_site_cancels_in_its_signs():
    # tau_0^2 = 1: bond (0, 0, 1) reads as tau_1 and breaks the flip
    # symmetry, and (0, 1, 1, 2) reads as tau_0 tau_2 and keeps it
    for bonds, invariant in ((((0, 0, 1),), False), (((0, 1, 1, 2),), True)):
        p = len(bonds[0])
        families = {p: BondFamily(p, bonds, "open")}
        table = BondProductTable(3, families)
        assert table.flip_invariant == invariant
        assert np.array_equal(table.term_signs, sign_table(3, families)[: 8 >> invariant])
        # a site set's sign column follows the same rule
        k, betas = {p: np.array([0.7])}, {p: 1.0}
        prob = table.probabilities({p: k[p][None]}, betas)[0]
        sets = [bonds[0], (1,), (0, 2)]
        expected = [np.dot(np.prod(spin_table(3)[:, s], axis=1), prob) for s in sets]
        assert np.array_equal(table.expectations(k, betas, sets), expected)
        assert np.count_nonzero(expected) == 2


@settings(max_examples=60, deadline=None)
@given(classical_chains(), st.sampled_from([1, 7]), st.integers(0, 2**32 - 1))
def test_stacked_softmax_keeps_the_per_sample_bits(model, n_rows, seed):
    assert_stacked_rows_keep_their_bits(model.n_sites, model.families, model.betas, n_rows, seed)


@pytest.mark.parametrize(
    "n, boundary, orders, block, batch_size",
    [
        # the a1-only plan reads no quantum state: its batch is sized by
        # the probabilities alone
        (14, "periodic", (2, 4), PairMatrixBlock(), 4),
        (5, "open", (2,), MagnetizationBlock("z"), 8),
        (5, "open", (1, 2), MagnetizationBlock("z"), 8),
        (6, "periodic", (2, 3), MagnetizationBlock("z"), 2),
    ],
    ids=["classical-14site", "bounds-5site", "odd-field", "odd-triple"],
)
def test_stacked_softmax_keeps_the_bits_at_plan_batch_sizes(n, boundary, orders, block, batch_size):
    lat = build_lattice(1, n)
    fams = {
        p: generate_bonds(lat, interaction_shape([[i] for i in range(p)]), boundary)
        for p in orders
    }
    params = CouplingParams({p: {a: (0.4, 0.8) for a in "xyz"} for p in orders})
    plan = Plan(ModelConfig(lat, fams, params, beta=0.7), [block], "x")
    assert plan.batch_size == batch_size
    assert_stacked_rows_keep_their_bits(n, fams, {p: 0.5 * p for p in orders}, plan.batch_size, n)


def test_correlation_csv(tmp_path):
    model = chain_model(3, k2=[0.5, 0.5], beta2=1.0)
    path = tmp_path / "corr.csv"
    correlation_matrix_to_csv(classical_correlation_matrix(model), str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "site,0,1,2"
    assert len(lines) == 4
