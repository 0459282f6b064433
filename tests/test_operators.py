import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xyzglass.errors import CapacityError
from xyzglass.operators import (
    AXES,
    PAULI,
    PauliString,
    gauge_unitary,
    global_flip,
    parity_sectors,
    pauli_product,
    pauli_site,
    product_signs,
    site_mask,
    transformed_axes,
    whole_space,
)

TOL = 1e-12


def comm(a, b):
    return a @ b - b @ a


def random_tau(rng, n):
    return rng.choice([-1, 1], size=n)


def test_single_site_matrices():
    assert np.array_equal(pauli_site(1, 0, "z"), np.diag([1.0 + 0j, -1.0]))
    assert np.array_equal(pauli_site(1, 0, "x"), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.max(np.abs(PAULI["x"] @ PAULI["y"] - 1j * PAULI["z"])) < TOL


def test_different_sites_commute():
    a = pauli_site(2, 0, "x")
    b = pauli_site(2, 1, "y")
    assert np.max(np.abs(comm(a, b))) < TOL


def test_commutation_relations_random_sizes():
    rng = np.random.default_rng(7)
    cyclic = {("y", "z"): "x", ("z", "x"): "y", ("x", "y"): "z"}
    for _ in range(20):
        n = rng.integers(1, 5)
        k, j = rng.integers(0, n, size=2)
        for (a, b), c in cyclic.items():
            lhs = comm(pauli_site(n, k, a), pauli_site(n, j, b))
            rhs = 2j * pauli_site(n, j, c) if k == j else np.zeros((2**n, 2**n))
            assert np.max(np.abs(lhs - rhs)) < TOL


def test_squares_to_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = rng.integers(1, 5)
        i = rng.integers(0, n)
        axis = AXES[rng.integers(0, 3)]
        op = pauli_site(n, i, axis)
        assert np.max(np.abs(op @ op - np.eye(2**n))) < TOL


def test_product_empty_is_identity():
    assert np.array_equal(pauli_product(3, [], "y"), np.eye(8, dtype=complex))


def test_zz_product_diagonal():
    assert np.array_equal(pauli_product(2, [0, 1], "z"), np.diag([1.0 + 0j, -1, -1, 1]))


def test_product_is_involution():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = rng.integers(1, 5)
        size = rng.integers(0, n + 1)
        sites = rng.choice(n, size=size, replace=False)
        axis = AXES[rng.integers(0, 3)]
        op = pauli_product(n, sites, axis)
        assert np.max(np.abs(op @ op - np.eye(2**n))) < TOL


def test_gauge_unitary_trivial_cases():
    n = 3
    assert np.array_equal(gauge_unitary(n, "x", [1, 1, 1]), np.eye(2**n, dtype=complex))
    assert np.array_equal(gauge_unitary(n, "x", [-1, -1, -1]), global_flip(n, "x"))


def test_gauge_conjugation_rule():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 5)
        tau = random_tau(rng, n)
        u = AXES[rng.integers(0, 3)]
        g = gauge_unitary(n, u, tau)
        for i in range(n):
            for w in AXES:
                conj = g @ pauli_site(n, i, w) @ g.conj().T
                expect = pauli_site(n, i, w) * (1 if w == u else tau[i])
                assert np.max(np.abs(conj - expect)) < TOL


def test_gauge_unitary_is_unitary():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = rng.integers(1, 5)
        g = gauge_unitary(n, "y", random_tau(rng, n))
        assert np.max(np.abs(g @ g.conj().T - np.eye(2**n))) < TOL


def test_global_flip_properties():
    u = global_flip(1, "x")
    assert np.array_equal(u, np.array([[0, 1], [1, 0]], dtype=complex))
    # commutes with same-axis products, anticommutes with single other-axis Pauli
    n = 3
    flip = global_flip(n, "x")
    prod = pauli_product(n, [0, 2], "x")
    assert np.max(np.abs(comm(flip, prod))) < TOL
    other = pauli_site(1, 0, "z")
    one = global_flip(1, "x")
    assert np.max(np.abs(one @ other + other @ one)) < TOL


def test_validation_errors():
    with pytest.raises(ValueError, match=r"site 2 is outside \[0, 2\)"):
        pauli_site(2, 2, "x")
    with pytest.raises(ValueError):
        pauli_site(2, 0, "q")
    with pytest.raises(CapacityError):
        pauli_site(15, 0, "x")
    with pytest.raises(ValueError):
        gauge_unitary(2, "x", [1, 0])


@st.composite
def site_lists(draw, max_sites=6):
    """(n, sites, other_sites): random site lists on n <= max_sites sites,
    repeats allowed (a repeated site counts once)."""
    n = draw(st.integers(1, max_sites))
    sites = st.lists(st.integers(0, n - 1), max_size=n + 1)
    return n, draw(sites), draw(sites)


@settings(max_examples=60, deadline=None)
@given(site_lists())
def test_string_dense_equals_kron_product(case):
    n, sites, _ = case
    for axis in AXES:
        assert np.array_equal(PauliString(n, sites, axis).dense(), pauli_product(n, sites, axis))


@settings(max_examples=60, deadline=None)
@given(site_lists(), st.integers(0, 2**32 - 1))
def test_string_apply_equals_dense_matvec(case, seed):
    n, sites, _ = case
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
    for axis in AXES:
        op = PauliString(n, sites, axis)
        dense = pauli_product(n, sites, axis)
        assert np.max(np.abs(op.apply(v[None], whole_space(n))[0] - dense @ v)) < TOL
        stack = np.stack([v, 2.0 * v])[:, None]
        assert np.max(np.abs(op.apply(stack, whole_space(n))[1, 0] - 2.0 * dense @ v)) < TOL


@settings(max_examples=60, deadline=None)
@given(
    site_lists(),
    st.booleans(),
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(0, 2**32 - 1),
)
def test_a_string_without_a_flip_gathers_nothing_and_keeps_the_bits(case, parity, lead, seed):
    # a z string's row map is the identity, so apply skips the row gather;
    # its products are the gather path's, bit for bit, on either sector split
    # and any stack, and it returns a new array
    n, sites, _ = case
    sectors = (parity_sectors if parity else whole_space)(n)
    op = PauliString(n, sites, "z")
    _, rows, phases = op.sector_map(sectors)
    assert op.flip == 0 and np.array_equal(rows, np.arange(sectors.dim))
    rng = np.random.default_rng(seed)
    shape = (*lead, sectors.count, sectors.size, 3)
    v = rng.normal(size=shape)
    if sectors.dtype is complex:
        v = v + 1j * rng.normal(size=shape)
    stacked = v.reshape((*lead, sectors.dim, 3))
    gathered = (phases[:, None] * stacked[..., rows, :]).reshape(shape)
    applied = op.apply(v, sectors)
    assert applied.dtype == gathered.dtype
    assert np.array_equal(applied, gathered)
    assert not np.shares_memory(applied, v)


@settings(max_examples=60, deadline=None)
@given(site_lists())
def test_string_product_is_symmetric_difference(case):
    n, s, t = case
    for axis in AXES:
        product = PauliString(n, s, axis).dense() @ PauliString(n, t, axis).dense()
        assert np.array_equal(product, PauliString(n, set(s) ^ set(t), axis).dense())


@pytest.mark.parametrize("u", AXES)
def test_transformed_axes_are_the_paulis_that_anticommute_with_sigma_u(u):
    anticommuting = tuple(
        a for a in AXES if np.array_equal(PAULI[a] @ PAULI[u], -PAULI[u] @ PAULI[a])
    )
    assert len(anticommuting) == 2
    assert transformed_axes(u) == anticommuting


@pytest.mark.parametrize("u", ["q", "X", "", None])
def test_transformed_axes_refuse_an_unknown_axis(u):
    with pytest.raises(ValueError, match="axis must be one of"):
        transformed_axes(u)


def test_string_validation_errors():
    with pytest.raises(ValueError, match=r"site 2 is outside \[0, 2\)"):
        PauliString(2, [2], "x")
    with pytest.raises(ValueError):
        PauliString(2, [0], "q")
    with pytest.raises(CapacityError):
        PauliString(15, [0], "x")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_index_convention_matches_the_kron_oracle_exactly(n):
    # every site set: its sign column is the diagonal of the dense z product
    subsets = [[i for i in range(n) if (r >> i) & 1] for r in range(2**n)]
    signs = product_signs(2**n, [site_mask(n, s) for s in subsets])
    for k, s in enumerate(subsets):
        assert np.array_equal(signs[:, k], np.diag(pauli_product(n, s, "z")).real)
    popcount = np.array([bin(b).count("1") for b in range(2**n)])
    basis = np.arange(2**n)
    expected = np.stack([basis[popcount % 2 == 0], basis[popcount % 2 == 1]])
    assert np.array_equal(parity_sectors(n).bases, expected)


def test_site_mask_cancels_a_repeated_site():
    assert site_mask(3, [0]) == 0b100 and site_mask(3, [2]) == 0b001
    assert site_mask(3, [0, 2, 0]) == site_mask(3, [2])
    assert site_mask(3, [1, 1]) == 0


@pytest.mark.parametrize("site", [-1, 3, 64])
def test_site_mask_refuses_a_site_outside_the_lattice(site):
    # no 3-site index has bit 3, and a shift by a negative count is no site
    with pytest.raises(ValueError, match=rf"site {site} is outside \[0, 3\)"):
        site_mask(3, [0, site])
