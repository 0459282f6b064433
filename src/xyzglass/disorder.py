"""Gaussian coupling disorder: parameters, sampling, densities, and the
Nishimori change of variables and gauge transformation of couplings."""

from __future__ import annotations

import csv
import functools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

# numpy.random loads with this module, not inside the first draw of a run
from numpy.random import PCG64, Generator

from .lattice import BondFamily
from .operators import AXES, transformed_axes

Entry = tuple[float, float]  # (mean, std-dev)


@dataclass(frozen=True)
class CouplingParams:
    """Mean and standard deviation of every Gaussian coupling component.

    `entries[p][axis] = (mu, delta)`; unspecified components default to
    (0, 0), which means the component is absent from the model entirely.
    """

    entries: Mapping[int, Mapping[str, Entry]] = field(default_factory=dict)

    def __post_init__(self):
        for p, per_axis in self.entries.items():
            if p < 1:
                raise ValueError(f"p must be a positive integer, got {p}")
            for axis, (mu, delta) in per_axis.items():
                if axis not in AXES:
                    raise ValueError(f"unknown axis {axis!r} for p={p}")
                if delta < 0:
                    raise ValueError(f"delta must be >= 0, got {delta} at (p={p}, {axis})")
                _ = float(mu)

    @property
    def p_values(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def mu(self, p: int, axis: str) -> float:
        return float(self.entries.get(p, {}).get(axis, (0.0, 0.0))[0])

    def delta(self, p: int, axis: str) -> float:
        return float(self.entries.get(p, {}).get(axis, (0.0, 0.0))[1])

    def is_active(self, p: int, axis: str) -> bool:
        """A component exists iff its mean or std-dev is nonzero."""
        return self.mu(p, axis) != 0.0 or self.delta(p, axis) != 0.0

    def require_even_mixed(self, check: str) -> None:
        """Refuse a model outside the field-free mixed even p-spin class that
        `check`, named in the message, holds for: an odd p > 1 or an active
        single-site coupling."""
        odd = [p for p in self.p_values if p > 1 and p % 2 == 1]
        if odd:
            raise ValueError(f"{check} requires a mixed even p-spin model, got odd p {odd}")
        fields = [a for a in AXES if self.is_active(1, a)]
        if fields:
            raise ValueError(
                f"{check} requires zero single-site couplings (no base field), got axes {fields}"
            )


@dataclass(frozen=True)
class DisorderSample:
    """One realization of all couplings: `row` holds them in term order
    (`coupling_terms`), as `draw_rows` makes them.

    `couplings[p][axis]` is a view of the row parallel to `families[p].bonds`.
    """

    row: np.ndarray
    families: Mapping[int, BondFamily]

    @functools.cached_property
    def couplings(self) -> dict[int, dict[str, np.ndarray]]:
        couplings: dict[int, dict[str, np.ndarray]] = {p: {} for p in self.families}
        for (p, axis), sl in term_slices(self.families).items():
            couplings[p][axis] = self.row[sl]
        return couplings

    def value(self, p: int, axis: str, bond_index: int) -> float:
        return float(self.couplings[p][axis][bond_index])


@dataclass(frozen=True)
class NishimoriData:
    """Per-p Nishimori inverse temperatures and rotated coupling variables.

    For each p, `k[p]` is the Nishimori-line coupling array (one entry per
    bond) and `g[p]` the orthogonal complement, or None when only one of the
    two transformed axes carries disorder (the rotation is one-dimensional).
    """

    axis: str
    betas: Mapping[int, float]
    k: Mapping[int, np.ndarray]
    g: Mapping[int, np.ndarray | None]


Term = tuple[int, str, int, tuple[int, ...]]  # (p, axis, bond index, bond)


def coupling_terms(families: Mapping[int, BondFamily]) -> list[Term]:
    """Every coupling component of a model in the one term order: p
    ascending, then axis, then bond. Coupling rows, the Hamiltonian builder
    and the disorder stream all follow it."""
    return [
        (p, axis, b, bond)
        for p in sorted(families)
        for axis in AXES
        for b, bond in enumerate(families[p].bonds)
    ]


def term_slices(families: Mapping[int, BondFamily]) -> dict[tuple[int, str], slice]:
    """The columns of each (p, axis) component in a coupling row, read off
    `coupling_terms`."""
    slices: dict[tuple[int, str], slice] = {}
    for t, (p, axis, _, _) in enumerate(coupling_terms(families)):
        first = slices.get((p, axis), slice(t, t)).start
        slices[(p, axis)] = slice(first, t + 1)
    return slices


def coupling_law(
    params: CouplingParams, families: Mapping[int, BondFamily]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std-dev of every coupling, in term order."""
    terms = coupling_terms(families)
    return (
        np.array([params.mu(p, axis) for p, axis, _, _ in terms]),
        np.array([params.delta(p, axis) for p, axis, _, _ in terms]),
    )


#: The largest seed: the disorder stream is keyed by (seed, k) with both
#: below 2^64, where numpy's SeedSequence takes each as at most two words.
MAX_SEED = 2**64 - 1

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash (seed_seq_fe with a pool of four 32-bit words).
# Its i-th hashmix call xors a word with A_i, multiplies it by A_{i+1} and
# xors in its top half, with A_i = INIT_A MULT_A^i mod 2^32: 4 calls fill
# the pool and 12 mix it. generate_state hashes its i-th output word the
# same way with B_i = INIT_B MULT_B^i, and mix(x, y) is (L x - R y) with
# its top half xored in.
_HASH_A = tuple(0x43B0D7E5 * pow(0x931E8875, i, 1 << 32) & _MASK32 for i in range(17))
_HASH_B = tuple(0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) & _MASK32 for i in range(9))
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg_seeds(seed: int, first: int, last: int) -> np.ndarray:
    """`SeedSequence([seed, k]).generate_state(4, np.uint64)` for k in
    first..last-1, one row each, hashed for the whole range at once in
    uint32 arithmetic (which wraps, as numpy's hash does).

    numpy's entropy is the seed's little-endian 32-bit words (one for 0)
    followed by k's. Here k always takes two words, [k mod 2^32, k >> 32]:
    with a seed below 2^64 that is at most four words, the pool size, and a
    high word of 0 hashes exactly as numpy's zero padding of the pool does.
    The calls that hash the same pool word, or the pool's four words, with
    consecutive constants run as one stacked operation.
    """
    hash_a = np.array(_HASH_A, dtype=np.uint32)[:, None]
    hash_b = np.array(_HASH_B, dtype=np.uint32)[:, None]

    def hashmix(words: np.ndarray, call: int, calls: int) -> np.ndarray:
        """Hash calls call..call+calls-1, one a row of the result."""
        words = (words ^ hash_a[call : call + calls]) * hash_a[call + 1 : call + 1 + calls]
        return words ^ (words >> _XSHIFT)

    k = np.arange(first, last, dtype=np.uint64)
    pool = np.zeros((4, last - first), dtype=np.uint32)
    seed_words = _seed_words(seed)
    pool[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = k & np.uint64(_MASK32)
    pool[len(seed_words) + 1] = k >> np.uint64(32)
    pool = hashmix(pool, 0, 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src], 4 + 3 * src, 3)
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    state = (pool[[0, 1, 2, 3] * 2] ^ hash_b[:8]) * hash_b[1:]
    state ^= state >> _XSHIFT
    return np.ascontiguousarray(state.T).view(np.uint64)


def _seed_words(seed: int) -> list[int]:
    """An integer's little-endian 32-bit words, as numpy's SeedSequence
    splits an entropy integer: one word for 0."""
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def draw_rows(mu: np.ndarray, delta: np.ndarray, seed: int, first: int, last: int) -> np.ndarray:
    """The couplings J = mu + delta z of samples first..last-1 in term order,
    one row each. Row k's z is the standard-normal row of the stream keyed by
    (seed, k): `default_rng([seed, k]).standard_normal(terms)`, bit for bit.

    The seed hash runs once for the whole range (`_pcg_seeds`). Each row then
    seeds PCG64 as numpy does (its 128-bit setseq: inc = 2 initseq + 1, state
    = (inc + initstate) mult + inc) and sets the state of the one generator
    this call owns. A row does not depend on the range it is drawn in, so
    ranges can be drawn in any order with identical results. A zero std-dev
    yields the constant mean exactly.
    """
    seed, first, last = int(seed), int(first), int(last)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"the seed must be in [0, {MAX_SEED}], got {seed}")
    if not 0 <= first <= last <= MAX_SEED + 1:
        raise ValueError(f"sample indices {first}..{last - 1} are not a range in [0, 2^64)")
    generator = Generator(PCG64(0))
    bits = generator.bit_generator
    z = np.empty((last - first, len(mu)))
    for row, (initstate_hi, initstate_lo, initseq_hi, initseq_lo) in zip(
        z, _pcg_seeds(seed, first, last).tolist()
    ):
        inc = ((((initseq_hi << 64) | initseq_lo) << 1) | 1) & _MASK128
        state = ((inc + ((initstate_hi << 64) | initstate_lo)) * _PCG_MULT + inc) & _MASK128
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.standard_normal(out=row)
    # elementwise, in place: each value is delta * z + mu rounded as one
    # row's `mu + delta * z` rounds it
    z *= delta
    z += mu
    return z


def sample_disorder(
    params: CouplingParams,
    families: Mapping[int, BondFamily],
    seed: int,
    sample_index: int = 0,
) -> DisorderSample:
    """Draw all couplings J ~ N(mu, delta^2) independently: the one-sample
    case of `draw_rows`, keyed by (seed, sample_index)."""
    (row,) = draw_rows(*coupling_law(params, families), seed, sample_index, sample_index + 1)
    return DisorderSample(row, dict(families))


def gaussian_log_density(j: float, mu: float, delta: float) -> float:
    """Log of the Gaussian coupling density at value j."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return -0.5 * math.log(2.0 * math.pi) - math.log(delta) - 0.5 * ((j - mu) / delta) ** 2


def nishimori_beta(params: CouplingParams, p: int, u: str) -> float:
    """Nishimori inverse temperature for gauge axis u at interaction order p.

    Sums (mu/delta)^2 over the two transformed axes. Components that are
    absent (mu = delta = 0) contribute nothing; a point mass (delta = 0 with
    mu != 0) on a transformed axis is rejected because the gauge flip would
    change its distribution, and so is a sum that overflows a float.
    """
    total = 0.0
    for axis in transformed_axes(u):
        mu, delta = params.mu(p, axis), params.delta(p, axis)
        if delta == 0.0:
            if mu != 0.0:
                raise ValueError(
                    f"component (p={p}, axis={axis}) has delta = 0 with mu != 0; "
                    f"transformed axes for gauge axis {u} need delta > 0 or mu = delta = 0"
                )
            continue
        try:
            total += (mu / delta) ** 2
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise ValueError(
                f"component (p={p}, axis={axis}) makes the Nishimori ratio (mu/delta)^2 "
                f"overflow (mu = {mu}, delta = {delta})"
            )
    return math.sqrt(total)


class NishimoriRotation:
    """The rotation of the two transformed coupling components of coupling
    rows into (K, G) variables for gauge axis u, with its per-model
    constants made once: each p's Nishimori beta (`betas`), and the
    coupling-row columns, mean and std-dev of its active transformed
    components. Calling it on (rows x terms) coupling rows gives, per p,
    the (rows x bonds) array K; `complement` gives G.

    K has mean beta_p and unit variance; G is the orthogonal unit-variance
    complement, uncorrelated with K, or None when at most one transformed
    component is active. When beta_p = 0 (all transformed means vanish) the
    rotation is degenerate and the standardized couplings are returned
    directly, which preserves those moment contracts. The formula is
    elementwise, so each row's values do not depend on the other rows.
    """

    def __init__(self, params: CouplingParams, families: Mapping[int, BondFamily], u: str):
        axes = transformed_axes(u)
        slices = term_slices(families)
        self.betas = {p: nishimori_beta(params, p, u) for p in sorted(families)}
        self._components = {}
        for p in sorted(families):
            active = []
            for a in axes:
                if not params.is_active(p, a):
                    continue
                mu, delta = params.mu(p, a), params.delta(p, a)
                # the rotation divides by delta**2 and scales by mu/delta**2;
                # a subnormal or overflowing square would turn K into inf or NaN
                try:
                    normal = sys.float_info.min <= delta**2 < math.inf
                    normal = normal and math.isfinite(mu / delta**2)
                except OverflowError:
                    normal = False
                if not normal:
                    raise ValueError(
                        f"component (p={p}, axis={a}) needs delta**2 a normal float and "
                        f"mu/delta**2 finite (mu = {mu}, delta = {delta})"
                    )
                active.append((slices[(p, a)], mu, delta))
            self._components[p] = (len(families[p].bonds), active)

    def __call__(self, rows: np.ndarray) -> dict[int, np.ndarray]:
        rows = np.asarray(rows)
        k: dict[int, np.ndarray] = {}
        for p, (n_bonds, active) in self._components.items():
            beta = self.betas[p]
            if not active:
                k[p] = np.zeros((rows.shape[0], n_bonds))
                continue
            # sum_a (mu_a/delta_a^2) J_a / beta in axis order, started from the
            # first component; at beta = 0 the first component standardized
            (sl, mu, delta), *rest = active
            j = rows[:, sl]
            k[p] = (
                sum(((m / d**2) * rows[:, s] for s, m, d in rest), (mu / delta**2) * j) / beta
                if beta > 0.0
                else j / delta
            )
        return k

    def complement(self, rows: np.ndarray) -> dict[int, np.ndarray | None]:
        """Per p, the (rows x bonds) complement G of K, or None."""
        rows = np.asarray(rows)
        g: dict[int, np.ndarray | None] = {}
        for p, (_, active) in self._components.items():
            beta = self.betas[p]
            g[p] = None
            if len(active) == 2:
                (sv, mv, dv), (sw, mw, dw) = active
                jv, jw = rows[:, sv], rows[:, sw]
                g[p] = (mw * jv - mv * jw) / (beta * dv * dw) if beta > 0.0 else jw / dw
        return g


def nishimori_transform(sample: DisorderSample, params: CouplingParams, u: str) -> NishimoriData:
    """The one-sample case of `NishimoriRotation` and its complement."""
    rotation = NishimoriRotation(params, sample.families, u)
    row = sample.row[None]
    return NishimoriData(
        axis=u,
        betas=rotation.betas,
        k={p: rows[0] for p, rows in rotation(row).items()},
        g={p: None if rows is None else rows[0] for p, rows in rotation.complement(row).items()},
    )


def bond_sign(tau: Sequence[int], bond: Sequence[int]) -> int:
    """Product of tau entries over a bond's sites (1 for the empty bond)."""
    sign = 1
    for i in bond:
        sign *= int(tau[i])
    return sign


def gauge_transform_couplings(sample: DisorderSample, tau: Sequence[int], u: str) -> DisorderSample:
    """Multiply every coupling on the two axes other than u by the bond sign.

    The u-axis couplings are untouched; applying the same tau twice restores
    the original sample. Each coupling is multiplied by exactly +-1.0, so it
    keeps its bits up to sign.
    """
    flipped = transformed_axes(u)
    tau = np.asarray(tau)
    if not np.all(np.abs(tau) == 1):
        raise ValueError("tau entries must be +1 or -1")
    signs = np.array([
        bond_sign(tau, bond) if axis in flipped else 1.0
        for _, axis, _, bond in coupling_terms(sample.families)
    ])
    return replace(sample, row=sample.row * signs)


def dump_csv(sample: DisorderSample, path: str) -> None:
    """Write the sample as CSV rows (p, bond, axis, value) for audit."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "bond", "axis", "value"])
        for p in sorted(sample.families):
            for b, bond in enumerate(sample.families[p].bonds):
                for axis in AXES:
                    writer.writerow(
                        [p, "-".join(str(i) for i in bond), axis, repr(sample.value(p, axis, b))]
                    )
