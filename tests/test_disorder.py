import math

import numpy as np
import pytest

from xyzglass.disorder import (
    CouplingParams,
    DisorderSample,
    NishimoriRotation,
    bond_sign,
    coupling_law,
    coupling_terms,
    draw_row,
    dump_csv,
    gauge_transform_couplings,
    gaussian_log_density,
    nishimori_beta,
    nishimori_transform,
    sample_disorder,
)
from xyzglass.lattice import (
    build_lattice,
    chain_pair_shape,
    generate_bonds,
    interaction_shape,
    single_site_shape,
)


def chain_families(L=4, boundary="open"):
    lat = build_lattice(1, L)
    return lat, {
        1: generate_bonds(lat, single_site_shape(), boundary),
        2: generate_bonds(lat, chain_pair_shape(), boundary),
    }


def full_params(mu=0.3, delta=0.7):
    per_axis = {a: (mu, delta) for a in "xyz"}
    return CouplingParams({1: dict(per_axis), 2: dict(per_axis)})


def test_point_mass_sampling():
    _, fams = chain_families()
    params = CouplingParams({1: {"z": (1.5, 0.0)}, 2: {"x": (-0.5, 0.0)}})
    s = sample_disorder(params, fams, seed=1)
    assert np.all(s.couplings[1]["z"] == 1.5)
    assert np.all(s.couplings[2]["x"] == -0.5)
    assert np.all(s.couplings[2]["y"] == 0.0)


def test_sampling_determinism():
    _, fams = chain_families()
    params = full_params()
    a = sample_disorder(params, fams, 42, 3)
    b = sample_disorder(params, fams, 42, 3)
    for p in fams:
        for axis in "xyz":
            assert np.array_equal(a.couplings[p][axis], b.couplings[p][axis])
    c = sample_disorder(params, fams, 42, 4)
    assert not np.array_equal(a.couplings[2]["x"], c.couplings[2]["x"])


def per_axis_reference_draw(params, families, seed, sample_index):
    """The per-(p, axis) sampling loop: p ascending, then axis, one
    standard-normal vector per bond family and axis."""
    rng = np.random.default_rng([seed, sample_index])
    return {
        p: {a: params.mu(p, a) + params.delta(p, a) * rng.standard_normal(len(families[p].bonds))
            for a in "xyz"}
        for p in sorted(families)
    }


def mixed_families(L=5):
    lat = build_lattice(1, L)
    return {
        1: generate_bonds(lat, single_site_shape(), "open"),
        2: generate_bonds(lat, chain_pair_shape(), "periodic"),
        3: generate_bonds(lat, interaction_shape([(0,), (1,), (2,)]), "open"),
    }


def test_row_draw_equals_the_per_axis_sampling_loop():
    fams = mixed_families()
    params = CouplingParams({
        1: {"x": (0.3, 0.8), "y": (0.2, 0.0), "z": (0.0, 0.8)},
        2: {a: (0.3, 0.7) for a in "xyz"},
        3: {"y": (0.5, 0.6)},
    })
    mu, delta = coupling_law(params, fams)
    for k in range(50):
        row = draw_row(mu, delta, 11, k)
        reference = per_axis_reference_draw(params, fams, 11, k)
        sample = sample_disorder(params, fams, 11, k)
        for t, (p, axis, b, _) in enumerate(coupling_terms(fams)):
            assert row[t] == reference[p][axis][b]
        for p in fams:
            for axis in "xyz":
                assert np.array_equal(sample.couplings[p][axis], reference[p][axis])
        assert np.array_equal(sample.row, row)


@pytest.mark.parametrize("u", ["x", "y", "z"])
def test_stacked_nishimori_rows_equal_per_sample_transforms(u):
    # two active transformed axes (p=2), one (p=3 for u != y), none (p=3
    # for u = y) and beta = 0 (p=1 with zero means on the transformed axes)
    fams = mixed_families()
    params = CouplingParams({
        1: {u: (0.4, 0.3), **{a: (0.0, 0.8) for a in "xyz" if a != u}},
        2: {a: (0.3, 0.7) for a in "xyz"},
        3: {"y": (0.5, 0.6)},
    })
    mu, delta = coupling_law(params, fams)
    rows = np.stack([draw_row(mu, delta, 12, k) for k in range(40)])
    rotation = NishimoriRotation(params, fams, u)
    betas = rotation.betas
    ks, gs = rotation(rows), rotation.complement(rows)
    for k in range(40):
        nd = nishimori_transform(sample_disorder(params, fams, 12, k), params, u)
        assert betas == nd.betas
        for p in fams:
            assert np.array_equal(ks[p][k], nd.k[p])
            assert (gs[p] is None) == (nd.g[p] is None)
            if gs[p] is not None:
                assert np.array_equal(gs[p][k], nd.g[p])


def test_sampling_law_of_large_numbers():
    lat = build_lattice(1, 1)
    fams = {1: generate_bonds(lat, single_site_shape(), "open")}
    mu, delta = 0.4, 1.3
    params = CouplingParams({1: {"y": (mu, delta)}})
    n = 10**5
    vals = np.array(
        [sample_disorder(params, fams, 9, k).value(1, "y", 0) for k in range(n)]
    )
    assert abs(vals.mean() - mu) < 4 * delta / math.sqrt(n)


def test_log_density_values():
    assert gaussian_log_density(0.0, 0.0, 1.0) == pytest.approx(-0.5 * math.log(2 * math.pi))
    mu, delta = 0.7, 1.4
    assert gaussian_log_density(mu + delta, mu, delta) - gaussian_log_density(
        mu, mu, delta
    ) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        gaussian_log_density(0.0, 0.0, 0.0)


def test_density_flip_ratio():
    # flipping the sign of J multiplies the density by exp(-2 mu J / delta^2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        mu, delta = rng.uniform(0.1, 2.0, size=2)
        j = rng.normal(mu, delta)
        ratio = gaussian_log_density(-j, mu, delta) - gaussian_log_density(j, mu, delta)
        assert ratio == pytest.approx(-2 * mu * j / delta**2, rel=1e-12)


def test_nishimori_beta_values():
    params = CouplingParams({2: {"y": (1.0, 1.0), "z": (1.0, 1.0)}})
    assert nishimori_beta(params, 2, "x") == pytest.approx(math.sqrt(2.0))
    params = CouplingParams({2: {"y": (0.0, 1.0), "z": (0.8, 0.4)}})
    assert nishimori_beta(params, 2, "x") == pytest.approx(2.0)
    params = CouplingParams({2: {"y": (0.0, 1.0), "z": (0.0, 0.4)}})
    assert nishimori_beta(params, 2, "x") == 0.0


def test_nishimori_beta_rejects_nonzero_point_mass():
    params = CouplingParams({2: {"y": (0.5, 0.0), "z": (1.0, 1.0)}})
    with pytest.raises(ValueError, match="axis=y"):
        nishimori_beta(params, 2, "x")


def test_transform_at_mean_inputs():
    _, fams = chain_families()
    params = full_params(mu=0.6, delta=0.9)
    zero_noise = CouplingParams(
        {p: {a: (params.mu(p, a), 0.0) for a in "xyz"} for p in (1, 2)}
    )
    s = sample_disorder(zero_noise, fams, seed=0)
    nd = nishimori_transform(s, params, "x")
    for p in (1, 2):
        beta = nishimori_beta(params, p, "x")
        assert np.allclose(nd.k[p], beta, atol=1e-12)
        assert np.allclose(nd.g[p], 0.0, atol=1e-12)


def test_change_of_variables_relation():
    _, fams = chain_families()
    params = full_params(mu=0.37, delta=1.21)
    for k in range(200):
        s = sample_disorder(params, fams, 5, k)
        nd = nishimori_transform(s, params, "z")
        for p in (1, 2):
            beta = nd.betas[p]
            lhs = (nd.k[p] - beta) ** 2 + nd.g[p] ** 2
            jx, jy = s.couplings[p]["x"], s.couplings[p]["y"]
            rhs = ((jx - 0.37) / 1.21) ** 2 + ((jy - 0.37) / 1.21) ** 2
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_transform_moments_and_covariance():
    lat = build_lattice(1, 1)
    fams = {1: generate_bonds(lat, single_site_shape(), "open")}
    params = CouplingParams({1: {"x": (0.5, 0.8), "y": (1.1, 0.6), "z": (0.2, 1.9)}})
    n = 10**5
    ks = np.empty(n)
    gs = np.empty(n)
    for k in range(n):
        nd = nishimori_transform(sample_disorder(params, fams, 77, k), params, "x")
        ks[k] = nd.k[1][0]
        gs[k] = nd.g[1][0]
    tol = 4 / math.sqrt(n)
    beta = nishimori_beta(params, 1, "x")
    assert abs(ks.mean() - beta) < tol
    assert abs(ks.var() - 1.0) < 2 * tol
    assert abs(gs.mean()) < tol
    assert abs(gs.var() - 1.0) < 2 * tol
    assert abs(np.mean((ks - beta) * gs)) < tol


def test_transform_is_linear():
    _, fams = chain_families(L=2)
    params = full_params(mu=0.4, delta=1.0)
    s1 = sample_disorder(params, fams, 1, 0)
    s2 = sample_disorder(params, fams, 1, 1)
    # superposition of centered couplings maps to superposition of centered (K, G)
    nd1 = nishimori_transform(s1, params, "y")
    nd2 = nishimori_transform(s2, params, "y")
    s3 = DisorderSample(0.4 + (s1.row - 0.4) + (s2.row - 0.4), s1.families)
    nd3 = nishimori_transform(s3, params, "y")
    for p in (1, 2):
        beta = nd1.betas[p]
        assert np.max(np.abs((nd3.k[p] - beta) - ((nd1.k[p] - beta) + (nd2.k[p] - beta)))) < 1e-12
        assert np.max(np.abs(nd3.g[p] - (nd1.g[p] + nd2.g[p]))) < 1e-12


def test_single_active_axis_transform():
    _, fams = chain_families(L=2)
    params = CouplingParams({1: {"z": (0.8, 0.5)}, 2: {"y": (0.3, 1.0), "z": (0.3, 1.0)}})
    s = sample_disorder(params, fams, seed=3)
    nd = nishimori_transform(s, params, "x")
    assert nd.betas[1] == pytest.approx(0.8 / 0.5)
    assert np.allclose(nd.k[1], s.couplings[1]["z"] / 0.5)
    assert nd.g[1] is None
    assert nd.g[2] is not None


def test_gauge_transform_couplings():
    lat, fams = chain_families()
    params = full_params()
    s = sample_disorder(params, fams, seed=8)
    n = lat.n_sites
    ident = gauge_transform_couplings(s, np.ones(n, dtype=int), "x")
    for p in (1, 2):
        for a in "xyz":
            assert np.array_equal(ident.couplings[p][a], s.couplings[p][a])
    tau = np.array([1, -1, 1, -1])
    once = gauge_transform_couplings(s, tau, "x")
    twice = gauge_transform_couplings(once, tau, "x")
    for p in (1, 2):
        for a in "xyz":
            assert np.allclose(twice.couplings[p][a], s.couplings[p][a])
    assert np.array_equal(once.couplings[1]["x"], s.couplings[1]["x"])
    assert not np.array_equal(once.couplings[1]["y"], s.couplings[1]["y"])
    # even-size bonds are blind to a global flip
    flipped = gauge_transform_couplings(s, -np.ones(n, dtype=int), "x")
    for a in "xyz":
        assert np.allclose(flipped.couplings[2][a], s.couplings[2][a])


def test_gauge_covariance_of_density():
    # density of the flipped coupling equals density times exp((mu/delta^2) J (tau_X - 1))
    lat, fams = chain_families()
    params = full_params(mu=0.45, delta=0.85)
    rng = np.random.default_rng(10)
    for k in range(200):
        s = sample_disorder(params, fams, 21, k)
        tau = rng.choice([-1, 1], size=lat.n_sites)
        t = gauge_transform_couplings(s, tau, "x")
        for p in (1, 2):
            for b, bond in enumerate(fams[p].bonds):
                sign = bond_sign(tau, bond)
                for a in "yz":
                    j = s.value(p, a, b)
                    lhs = gaussian_log_density(t.value(p, a, b), 0.45, 0.85)
                    rhs = gaussian_log_density(j, 0.45, 0.85) + (0.45 / 0.85**2) * j * (sign - 1)
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_even_mixed_validation():
    CouplingParams({1: {"z": (1, 1)}, 2: {"z": (1, 1)}, 4: {"z": (1, 1)}}).require_even_mixed()
    with pytest.raises(ValueError):
        CouplingParams({1: {"z": (1, 1)}, 3: {"z": (1, 1)}}).require_even_mixed()


def test_negative_delta_rejected():
    with pytest.raises(ValueError):
        CouplingParams({1: {"z": (0.0, -1.0)}})


def test_csv_dump(tmp_path):
    _, fams = chain_families(L=2)
    s = sample_disorder(full_params(), fams, seed=4)
    path = tmp_path / "sample.csv"
    dump_csv(s, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p,bond,axis,value"
    # 2 singleton bonds * 3 axes + 1 pair bond * 3 axes
    assert len(lines) == 1 + 9
    assert any(line.startswith("2,0-1,") for line in lines)
