import itertools
import math

import numpy as np
import pytest

from xyzglass.errors import CapacityError
from xyzglass.phase_region import (
    Membership,
    RatioGrid,
    RegionQuery,
    beta2_from_ratios,
    membership_from_ratios,
    region_membership,
    sample_region,
    write_region_csv,
)


def query_from_ratios(rx, ry, rz, beta_t, scale=1.0):
    return RegionQuery(
        delta_x=scale, delta_y=scale, delta_z=scale,
        mu_x=rx * scale, mu_y=ry * scale, mu_z=rz * scale,
        beta_t=beta_t,
    )


def beta2(query, u):
    r = query.ratios()
    return float(beta2_from_ratios(r["x"], r["y"], r["z"], u))


def test_beta2_values():
    q = query_from_ratios(0.0, 0.0, 0.0, beta_t=1.0)
    for u in "xyz":
        assert beta2(q, u) == 0.0
    # the two off-axis ratios combine like a 3-4-5 triangle
    q = RegionQuery(1.0, 1.0, 1.0, 0.0, 3.0, 4.0, beta_t=10.0)
    assert beta2(q, "x") == pytest.approx(5.0)
    c = 0.8
    q = query_from_ratios(c, c, c, beta_t=2.0)
    for u in "xyz":
        assert beta2(q, u) == pytest.approx(c * math.sqrt(2.0))


def test_validation():
    with pytest.raises(ValueError, match="delta"):
        RegionQuery(0.0, 1.0, 1.0, 0.0, 0.0, 0.0, beta_t=1.0)
    with pytest.raises(ValueError, match="beta_t"):
        RegionQuery(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, beta_t=0.0)


def test_origin_in_everything():
    q = query_from_ratios(0.0, 0.0, 0.0, beta_t=0.5)
    m = region_membership(q)
    assert m.in_x and m.in_y and m.in_z and m.in_union


def test_one_huge_ratio_excludes_all():
    q = query_from_ratios(50.0, 0.0, 0.0, beta_t=1.0)
    m = region_membership(q)
    assert not (m.in_x or m.in_y or m.in_z or m.in_union)


def test_boundary_is_strict():
    beta_t = 1.3
    q = query_from_ratios(0.0, 0.0, beta_t, beta_t=beta_t)
    # beta2 for both x and y equals beta_t exactly: strict inequality excludes
    assert beta2(q, "x") == pytest.approx(beta_t)
    m = region_membership(q)
    assert not m.in_x
    assert not m.in_y
    assert not m.in_z


def test_point_in_exactly_one_subspace():
    beta_t = 1.0
    q = query_from_ratios(0.0, 0.8, 0.8, beta_t=beta_t)
    m = region_membership(q)
    assert m.in_x and not m.in_y and not m.in_z
    assert m.in_union


def test_membership_depends_only_on_ratios():
    beta_t = 1.1
    rng = np.random.default_rng(5)
    for _ in range(20):
        rx, ry, rz = rng.uniform(0, 2, size=3)
        base = region_membership(query_from_ratios(rx, ry, rz, beta_t))
        scaled = region_membership(query_from_ratios(rx, ry, rz, beta_t, scale=7.3))
        assert base == scaled


def test_permutation_symmetry():
    beta_t = 1.2
    rng = np.random.default_rng(9)
    for _ in range(20):
        r = dict(zip("xyz", rng.uniform(0, 2, size=3)))
        flags = membership_from_ratios(r["x"], r["y"], r["z"], beta_t)
        for perm in itertools.permutations("xyz"):
            mapping = dict(zip("xyz", perm))
            permuted = membership_from_ratios(
                r[mapping["x"]], r[mapping["y"]], r[mapping["z"]], beta_t
            )
            for axis in "xyz":
                assert bool(permuted[axis]) == bool(flags[mapping[axis]])


def test_membership_monotone_in_each_ratio():
    beta_t = 1.0
    rng = np.random.default_rng(13)
    for _ in range(50):
        r = rng.uniform(0, 1.5, size=3)
        bigger = r + rng.uniform(0, 0.5, size=3)
        before = membership_from_ratios(*r, beta_t)
        after = membership_from_ratios(*bigger, beta_t)
        for axis in "xyz":
            # growing any ratio can only remove membership
            assert not (after[axis] and not before[axis])


def test_ray_exits_union_exactly_once():
    beta_t = 1.1
    values = np.linspace(0.0, 4.0, 400)
    flags = [
        region_membership(query_from_ratios(t, 0.3, 0.2, beta_t)).in_union for t in values
    ]
    switches = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    assert flags[0] and not flags[-1]
    assert switches == 1


def test_sample_region_rows_and_symmetry():
    grid = RatioGrid(x=(0.0, 2.0, 7), y=(0.0, 2.0, 7), z=(0.0, 2.0, 7))
    rows = list(sample_region(grid, beta_t=1.0))
    assert len(rows) == 7**3
    table = {(round(r[0], 9), round(r[1], 9), round(r[2], 9)): r[3:] for r in rows}
    # swapping ratio coordinates permutes the membership flags the same way
    for (rx, ry, rz), (in_x, in_y, in_z, _) in table.items():
        swapped = table[(ry, rx, rz)]
        assert (swapped[0], swapped[1], swapped[2]) == (in_y, in_x, in_z)


def test_single_point_grid():
    grid = RatioGrid(x=(0.0, 0.0, 1), y=(0.0, 0.0, 1), z=(0.0, 0.0, 1))
    rows = list(sample_region(grid, beta_t=0.7))
    assert rows == [(0.0, 0.0, 0.0, True, True, True, True)]


def test_grid_guard():
    with pytest.raises(CapacityError):
        RatioGrid(x=(0.0, 1.0, 500), y=(0.0, 1.0, 500), z=(0.0, 1.0, 500))


def test_csv_export(tmp_path):
    grid = RatioGrid(x=(0.0, 1.5, 4), y=(0.0, 1.5, 4), z=(0.0, 1.5, 4))
    path = tmp_path / "region.csv"
    count = write_region_csv(grid, 1.0, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "ratio_x,ratio_y,ratio_z,in_Sx,in_Sy,in_Sz,in_union"
    assert count == 64
    assert len(lines) == 65
    assert lines[1] == "0.0,0.0,0.0,1,1,1,1"


def test_membership_record_structure():
    m = Membership(in_x=True, in_y=False, in_z=False)
    assert m.in_union
    assert not Membership(False, False, False).in_union
