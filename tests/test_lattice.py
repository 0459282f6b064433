import itertools

import pytest

from xyzglass.errors import CapacityError, EmptyFamilyError
from xyzglass.lattice import (
    Lattice,
    build_lattice,
    chain_pair_shape,
    generate_bonds,
    interaction_shape,
    merge_bond_families,
    single_site_shape,
)


def test_volumes():
    assert build_lattice(1, 4).n_sites == 4
    assert build_lattice(2, 2).sites == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert build_lattice(3, 2).n_sites == 8


def test_lexicographic_order_and_indexing():
    lat = build_lattice(2, 3)
    assert lat.sites == tuple(sorted(lat.sites))
    assert lat.sites.index((1, 2)) == 5


def test_capacity_error_names_cap():
    with pytest.raises(CapacityError, match="24"):
        build_lattice(1, 25)


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        build_lattice(0, 4)


def test_shape_validation():
    with pytest.raises(ValueError, match="origin"):
        interaction_shape([(1,), (2,)])
    with pytest.raises(ValueError, match="distinct"):
        interaction_shape([(0,), (0,)])
    s = interaction_shape([(0,), (1,), (3,)])
    assert s.p == 3


def test_open_chain_bonds():
    lat = build_lattice(1, 4)
    fam = generate_bonds(lat, chain_pair_shape(), "open")
    assert fam.bonds == ((0, 1), (1, 2), (2, 3))


def test_periodic_chain_bonds():
    lat = build_lattice(1, 4)
    fam = generate_bonds(lat, chain_pair_shape(), "periodic")
    assert len(fam.bonds) == 4
    assert (0, 3) in fam.bonds


def test_singleton_family_is_whole_lattice():
    lat = build_lattice(2, 2)
    fam = generate_bonds(lat, single_site_shape(2), "open")
    assert fam.bonds == ((0,), (1,), (2,), (3,))


def test_periodic_pair_count_matches_volume_times_dimension():
    # needs L >= 3: on a ring of 2 the two directed edges are the same site
    # set; the 27-site cube is past `build_lattice`'s site cap, so it is
    # made directly, in the same lexicographic order
    for d, L in [(1, 4), (1, 7), (2, 3), (3, 3)]:
        lat = Lattice(d, L, tuple(itertools.product(range(L), repeat=d)))
        shapes = []
        for k in range(d):
            step = tuple(1 if j == k else 0 for j in range(d))
            shapes.append(interaction_shape([(0,) * d, step]))
        fams = [generate_bonds(lat, s, "periodic") for s in shapes]
        merged = merge_bond_families(fams)
        assert len(merged.bonds) == d * L**d


def test_bonds_sorted_and_reproducible():
    lat = build_lattice(2, 3)
    shape = interaction_shape([(0, 0), (1, 1)])
    a = generate_bonds(lat, shape, "periodic")
    b = generate_bonds(lat, shape, "periodic")
    assert a.bonds == b.bonds
    for bond in a.bonds:
        assert bond == tuple(sorted(bond))
    assert list(a.bonds) == sorted(a.bonds)


def test_empty_family_error():
    lat = build_lattice(1, 2)
    wide = interaction_shape([(0,), (5,)])
    with pytest.raises(EmptyFamilyError):
        generate_bonds(lat, wide, "open")


def test_merge_deduplicates():
    lat = build_lattice(1, 5)
    f1 = generate_bonds(lat, chain_pair_shape(), "open")
    f2 = generate_bonds(lat, interaction_shape([(0,), (1,)]), "open")
    merged = merge_bond_families([f1, f2])
    assert merged.bonds == f1.bonds
