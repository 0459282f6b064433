"""The P_z parity sector path against the dense complex oracle, and the
plan's bind-time choice between them."""

import concurrent.futures
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xyzglass import identities
from xyzglass.disorder import CouplingParams, sample_disorder
from xyzglass.identities import ModelConfig, MonteCarlo
from xyzglass.lattice import (
    build_lattice,
    chain_pair_shape,
    generate_bonds,
    interaction_shape,
    merge_bond_families,
    single_site_shape,
)
from xyzglass.operators import PauliString, parity_sectors, pauli_site, whole_space
from xyzglass.quantum_gibbs import (
    HamiltonianBuilder,
    SectorStack,
    duhamel,
    duhamel_kernel,
    duhamel_matrix,
    spectral_decompose,
    string_expectations,
    thermal_state,
    truncated_duhamel,
)

EPS = np.finfo(float).eps
AXES = "xyz"


def chain_families(n, boundary, with_p4):
    lat = build_lattice(1, n)
    fams = {2: generate_bonds(lat, chain_pair_shape(), boundary)}
    if with_p4:
        fams[4] = generate_bonds(lat, interaction_shape([(i,) for i in range(4)]), boundary)
    return lat, fams


def square_families(boundary):
    lat = build_lattice(2, 2)
    pairs = merge_bond_families(
        generate_bonds(lat, interaction_shape(shape), boundary)
        for shape in ([(0, 0), (1, 0)], [(0, 0), (0, 1)])
    )
    plaquette = interaction_shape([(0, 0), (1, 0), (0, 1), (1, 1)])
    return lat, {2: pairs, 4: generate_bonds(lat, plaquette, boundary)}


@st.composite
def parity_models(draw):
    """A P_z-conserving model: p=2 or p=2,4 chains (open or periodic, 2 to 7
    sites) or a d=2 square lattice with p=2,4, every even-p component drawn
    at random, and optionally a p=1 field on the z axis only."""
    kind = draw(st.sampled_from(["p2-chain", "p24-chain", "d2"]))
    boundary = draw(st.sampled_from(["open", "periodic"]))
    if kind == "d2":
        lat, fams = square_families(boundary)
    else:
        n = draw(st.integers(4 if kind == "p24-chain" else 2, 7))
        lat, fams = chain_families(n, boundary, kind == "p24-chain")
    law = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0))
    entries = {p: {a: draw(law) for a in AXES} for p in fams}
    if draw(st.booleans()):
        fams[1] = generate_bonds(lat, single_site_shape(lat.d), "open")
        entries[1] = {"z": draw(law)}
    beta = draw(st.floats(0.05, 2.0))
    config = ModelConfig(lattice=lat, families=fams, params=CouplingParams(entries), beta=beta)
    return config, draw(st.integers(0, 2**31 - 1))


def both_states(config, seed):
    """The sample's dense complex and parity-sector thermal states, each a
    stack of one."""
    builder = HamiltonianBuilder(config.lattice, config.families)
    row = sample_disorder(config.params, config.families, seed).row[None]
    sectors = parity_sectors(config.lattice.n_sites)
    dense = thermal_state(
        spectral_decompose(builder.build_rows(row, whole_space(sectors.n_sites))), config.beta
    )
    split = thermal_state(spectral_decompose(builder.build_rows(row, sectors)), config.beta)
    return dense, split


def error_scale(state):
    """The Duhamel kernel's error model, eps (1 + s) with s the largest scaled
    shifted energy, times the dimension for the sums over the basis."""
    e = state.spectrum.eigenvalues
    width = float(np.max(e) - np.min(e))
    dim = state.spectrum.sectors.dim
    return EPS * dim * (1.0 + state.beta * width) * max(1.0, float(np.max(np.abs(e))))


def site_strings(n, axis):
    return [PauliString(n, (i,), axis) for i in range(n)]


@settings(max_examples=30, deadline=None)
@given(parity_models())
def test_sector_spectrum_and_observables_match_the_dense_oracle(model):
    config, seed = model
    n = config.lattice.n_sites
    dense, split = both_states(config, seed)
    tol = 4 * error_scale(dense)
    e_dense = dense.spectrum.eigenvalues[0]
    e_split = np.sort(split.spectrum.eigenvalues[0].ravel())
    assert np.max(np.abs(e_dense - e_split)) <= tol
    assert abs(dense.log_z[0] - split.log_z[0]) <= tol * (1.0 + abs(dense.log_z[0]))
    strings = [
        PauliString(n, sites, axis)
        for axis in AXES
        for sites in [(i,) for i in range(n)] + [(i, (i + 1) % n) for i in range(n - 1)]
    ]
    q_dense = string_expectations(dense, strings)
    q_split = string_expectations(split, strings)
    assert np.max(np.abs(q_dense - q_split)) <= tol
    # a string that flips an odd number of spins has no diagonal block
    odd = [j for j, op in enumerate(strings) if bin(op.flip).count("1") % 2]
    assert np.all(q_split[0, odd] == 0.0)


@settings(max_examples=20, deadline=None)
@given(parity_models(), st.sampled_from(AXES), st.sampled_from(AXES))
def test_sector_duhamel_matrices_match_the_dense_oracle(model, w, v):
    config, seed = model
    n = config.lattice.n_sites
    dense, split = both_states(config, seed)
    tol = 4 * error_scale(dense)
    ops_w, ops_v = site_strings(n, w), site_strings(n, v)
    full_dense = duhamel_matrix(dense, duhamel_kernel(dense), ops_w, ops_v)
    full_split = duhamel_matrix(split, duhamel_kernel(split), ops_w, ops_v)
    assert np.max(np.abs(full_dense - full_split)) <= tol

    def truncated(state, full):
        qw, qv = string_expectations(state, ops_w), string_expectations(state, ops_v)
        return full - qw[:, :, None] * qv[:, None, :]

    trunc_dense, trunc_split = truncated(dense, full_dense), truncated(split, full_split)
    assert np.max(np.abs(trunc_dense - trunc_split)) <= tol
    if (w == "z") != (v == "z"):
        # one string keeps the parity and the other flips it
        assert np.all(trunc_split == 0.0)


@st.composite
def field_models(draw):
    """The mc-small class: a p=2 chain of 2 to 5 sites with p=1 fields on
    every axis, so x and y terms flip one spin and the plan runs on the whole
    space."""
    n = draw(st.integers(2, 5))
    lat, fams = chain_families(n, draw(st.sampled_from(["open", "periodic"])), False)
    fams[1] = generate_bonds(lat, single_site_shape(), "open")
    law = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0))
    entries = {p: {a: draw(law) for a in AXES} for p in fams}
    beta = draw(st.floats(0.05, 2.0))
    config = ModelConfig(lattice=lat, families=fams, params=CouplingParams(entries), beta=beta)
    return config, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(field_models(), parity_models()), st.sampled_from(AXES), st.sampled_from(AXES)
)
def test_duhamel_matrix_matches_the_dense_duhamel_oracles(model, w, v):
    # the plan's contraction, in the plan's own sectors, against `duhamel`
    # and `truncated_duhamel` on the strings' dense matrices
    config, seed = model
    n = config.lattice.n_sites
    plan = identities.Plan(config, [identities.SiteExpectationsBlock()])
    builder = HamiltonianBuilder(config.lattice, config.families)
    row = sample_disorder(config.params, config.families, seed).row[None]
    oracle = thermal_state(
        spectral_decompose(builder.build_rows(row, whole_space(n)).blocks[0, 0]), config.beta
    )
    state = thermal_state(spectral_decompose(builder.build_rows(row, plan.sectors)), config.beta)
    ops_w, ops_v = site_strings(n, w), site_strings(n, v)
    full = duhamel_matrix(state, duhamel_kernel(state), ops_w, ops_v)[0]
    qw, qv = string_expectations(state, ops_w)[0], string_expectations(state, ops_v)[0]
    trunc = full - qw[:, None] * qv[None, :]
    tol = 4 * error_scale(oracle)
    for i, a in enumerate(ops_w):
        for j, b in enumerate(ops_v):
            assert abs(full[i, j] - duhamel(oracle, a.dense(), b.dense())) <= tol
            assert abs(trunc[i, j] - truncated_duhamel(oracle, a.dense(), b.dense())) <= tol


@settings(max_examples=20, deadline=None)
@given(parity_models(), st.floats(0.02, 0.2))
def test_sector_stencil_magnetizations_match_the_dense_oracle(model, h):
    config, seed = model
    n = config.lattice.n_sites
    sectors = parity_sectors(n)
    builder = HamiltonianBuilder(config.lattice, config.families)
    row = sample_disorder(config.params, config.families, seed).row[None]
    base = builder.build_rows(row, whole_space(n)).blocks[:, 0]
    blocks = builder.build_rows(row, sectors).blocks
    field = sum(pauli_site(n, i, "z") for i in range(n))
    field_blocks = np.stack([field[np.ix_(b, b)].real for b in sectors.bases])
    order = site_strings(n, "z")
    for mu in (-2 * h, -h, h, 2 * h):
        dense = thermal_state(spectral_decompose(base - mu * field), config.beta)
        split = thermal_state(
            spectral_decompose(SectorStack(blocks - mu * field_blocks, sectors)), config.beta
        )
        m_dense = np.mean(string_expectations(dense, order))
        m_split = np.mean(string_expectations(split, order))
        assert abs(m_dense - m_split) <= 4 * error_scale(dense)


def bounds_config(field=None):
    """The bounds-5site model, with `field` the p=1 components if given."""
    lat, fams = chain_families(5, "open", False)
    entries = {2: {a: (0.6, 0.8) for a in AXES}}
    if field is not None:
        fams[1] = generate_bonds(lat, single_site_shape(), "open")
        entries[1] = field
    return ModelConfig(lattice=lat, families=fams, params=CouplingParams(entries), beta=0.7)


def test_plans_bind_their_sectors_from_the_declaration():
    bounds = [
        identities.MagnetizationBlock("z"), identities.SusceptibilityBlock("z", "z"),
        identities.PairMatrixBlock(), identities.FieldStencilBlock("z", "z", 0.05),
    ]
    assert identities.Plan(bounds_config(), bounds, "x").sectors is parity_sectors(5)
    # a z field keeps the parity, and a zero x component is absent
    z_field = bounds_config({"z": (0.3, 0.8), "x": (0.0, 0.0)})
    assert identities.Plan(z_field, [identities.SiteExpectationsBlock()]).conserves_parity
    # the mc-small model has p=1 fields on every axis
    lat, fams = chain_families(4, "open", False)
    fams[1] = generate_bonds(lat, single_site_shape(), "open")
    mixed = ModelConfig(
        lattice=lat, families=fams,
        params=CouplingParams({p: {a: (0.3, 0.8) for a in AXES} for p in (1, 2)}), beta=0.6,
    )
    plan = identities.Plan(mixed, [identities.OnePointBlock([0], "z")], "x")
    assert not plan.conserves_parity and plan.sectors is whole_space(4)
    # a field along x breaks the parity, so the stencil binds to one sector
    stencil = identities.Plan(bounds_config(), [identities.FieldStencilBlock("x", "z", 0.05)])
    assert stencil.sectors is whole_space(5)


def test_builder_refuses_couplings_that_leave_the_sectors():
    config = bounds_config({"z": (0.3, 0.8)})
    builder = HamiltonianBuilder(config.lattice, config.families)
    row = sample_disorder(config.params, config.families, 3).row
    builder.build_rows(row[None], parity_sectors(5))
    row[0] = 0.1  # the first term is the x field on site 0
    with pytest.raises(ValueError, match="leaves the sectors"):
        builder.build_rows(row[None], parity_sectors(5))


def test_a_failed_sector_self_check_names_the_disorder_sample(monkeypatch):
    # eigh is replaced by one that corrupts the odd-parity block of entry 2
    # of the second batch: the error must name sample batch_size + 2
    plan = identities.Plan(bounds_config(), [identities.MagnetizationBlock("z")], "x")
    assert plan.sectors is parity_sectors(5)
    real_eigh = np.linalg.eigh
    calls = []

    def corrupted(h):
        evals, evecs = real_eigh(h)
        calls.append(h.shape)
        if len(calls) == 2:
            evals = evals.copy()
            evals[2, 1] += 1e-6
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(ArithmeticError, match=rf"reconstruction.*\(sample {plan.batch_size + 2}\)"):
        plan.evaluate(MonteCarlo(3 * plan.batch_size, 85))
    assert calls[0] == (plan.batch_size, 2, 16, 16)


def record_pools(monkeypatch, cpus, affinity=True):
    """Replace the thread pool by a recorder that runs serially, so no thread
    is started at any requested count, and give the process `cpus` CPUs: as
    its affinity set, or with `affinity` False as the machine's count on an
    OS without one. The worker count of every pool made, in order."""
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return started


def test_threads_start_at_most_one_worker_per_batch(monkeypatch):
    started = record_pools(monkeypatch, 64)
    plan = identities.Plan(bounds_config(), [identities.MagnetizationBlock("z")], "x")
    serial = plan.evaluate(MonteCarlo(3 * plan.batch_size, 5))
    assert started == []
    threaded = plan.evaluate(MonteCarlo(3 * plan.batch_size, 5, threads=1000))
    assert started == [3]
    plan.evaluate(MonteCarlo(plan.batch_size, 5, threads=8))
    assert started == [3]  # one batch runs on the calling thread
    block = plan.blocks[0]
    assert np.array_equal(serial.values(block), threaded.values(block))


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu-count"])
def test_threads_start_at_most_one_worker_per_usable_cpu(monkeypatch, affinity):
    started = record_pools(monkeypatch, 2, affinity)
    plan = identities.Plan(bounds_config(), [identities.MagnetizationBlock("z")], "x")
    serial = plan.evaluate(MonteCarlo(3 * plan.batch_size, 5))
    threaded = plan.evaluate(MonteCarlo(3 * plan.batch_size, 5, threads=5000))
    assert started == [2]
    block = plan.blocks[0]
    assert np.array_equal(serial.values(block), threaded.values(block))
    # one usable CPU runs every batch on the calling thread
    started = record_pools(monkeypatch, 1, affinity)
    plan.evaluate(MonteCarlo(3 * plan.batch_size, 5, threads=5000))
    assert started == []
