"""Disorder-averaged certification: correlation identities that pair each
quantum expectation with its Nishimori-line classical counterpart computed
from the same coupling sample, plus the magnetization and susceptibility
bound chains and the finite-size diagnostics."""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .classical_gibbs import BondProductTable
from .disorder import (
    CouplingParams,
    DisorderSample,
    nishimori_beta,
    nishimori_transform,
    sample_disorder,
)
from .errors import CapacityError, UndersampledError
from .lattice import BondFamily, Lattice
from .operators import AXES, PauliString, pauli_site
from .quantum_gibbs import (
    HamiltonianBuilder,
    ThermalState,
    _duhamel_kernel,
    spectral_decompose,
    string_expectations,
    string_in_eigenbasis,
    thermal_state,
)

DEFAULT_Z_MAX = 4.0
DEFAULT_QUAD_TOL = 1e-8
DEFAULT_CLIP_LIMIT = 0.01

#: Slack for inequalities that hold exactly on the empirical measure.
_EXACT_TOL = 1e-12

#: Guard on the total tensor-grid size.
_MAX_QUAD_NODES = 10**8

#: Largest |second field difference| of the a2 probe that still counts as
#: flip-symmetric at zero field.
FLIP_SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    """A complete disordered model: geometry, couplings, and temperature."""

    lattice: Lattice
    families: Mapping[int, BondFamily]
    params: CouplingParams
    beta: float


@dataclass(frozen=True)
class MonteCarlo:
    """Paired Monte Carlo over disorder samples keyed by (seed, index)."""

    n_samples: int
    seed: int
    threads: int = 1


@dataclass(frozen=True)
class Quadrature:
    """Deterministic tensor-grid Gaussian quadrature over the disorder."""

    nodes_per_dim: int


Method = MonteCarlo | Quadrature


@dataclass(frozen=True)
class EstimatorResult:
    """A disorder-averaged quantity with its sampling uncertainty.

    std_error is zero exactly when the method is quadrature; z_score is
    mean/std_error and NaN when the error vanishes.
    """

    mean: float
    std_error: float
    n_samples: int
    method: str
    z_score: float
    clip_count: int = 0
    clip_fraction: float = 0.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-grid layout: which couplings are integrated and which are fixed.

    Components with positive std-dev contribute one grid dimension per bond,
    mapped as J = mu + delta * x over standardized Gaussian nodes x; zero
    std-dev components stay at their means.
    """

    nodes_per_dim: int
    random_dims: tuple[tuple[int, str, int], ...]
    families: Mapping[int, BondFamily]
    params: CouplingParams

    @classmethod
    def from_model(
        cls,
        families: Mapping[int, BondFamily],
        params: CouplingParams,
        nodes_per_dim: int,
    ) -> "QuadratureSpec":
        if nodes_per_dim < 2:
            raise ValueError("need at least 2 quadrature nodes per dimension")
        dims = []
        for p in sorted(families):
            for axis in AXES:
                if params.delta(p, axis) > 0.0:
                    for b in range(len(families[p].bonds)):
                        dims.append((p, axis, b))
        spec = cls(
            nodes_per_dim=nodes_per_dim,
            random_dims=tuple(dims),
            families=dict(families),
            params=params,
        )
        if spec.node_count > _MAX_QUAD_NODES:
            raise CapacityError(
                f"{spec.node_count} quadrature nodes exceeds the guard {_MAX_QUAD_NODES}"
            )
        return spec

    @property
    def node_count(self) -> int:
        return self.nodes_per_dim ** len(self.random_dims)

    def sample_at(self, index: Sequence[int], std_nodes: np.ndarray) -> DisorderSample:
        couplings: dict[int, dict[str, np.ndarray]] = {}
        for p in sorted(self.families):
            n_bonds = len(self.families[p].bonds)
            couplings[p] = {
                axis: np.full(n_bonds, self.params.mu(p, axis)) for axis in AXES
            }
        for d, (p, axis, b) in enumerate(self.random_dims):
            couplings[p][axis][b] += self.params.delta(p, axis) * std_nodes[index[d]]
        return DisorderSample(
            couplings=couplings, families=self.families, seed=0, sample_index=0
        )


def _hermite_rule(nodes_per_dim: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = hermgauss(nodes_per_dim)
    return math.sqrt(2.0) * nodes, weights / math.sqrt(math.pi)


def quadrature_average(
    spec: QuadratureSpec, integrand: Callable[[DisorderSample], float]
) -> float:
    """Deterministic expectation of a per-sample evaluator over the disorder.

    Exact for polynomial integrands of degree < 2 * nodes_per_dim in each
    random coupling.
    """
    values, probs = _quadrature_table(spec, lambda s: np.array([integrand(s)]), 1)
    return float(probs @ values[:, 0])


def _quadrature_table(
    spec: QuadratureSpec,
    evaluator: Callable[[DisorderSample], np.ndarray],
    n_out: int,
) -> tuple[np.ndarray, np.ndarray]:
    std_nodes, node_probs = _hermite_rule(spec.nodes_per_dim)
    total = spec.node_count
    if total > _MAX_QUAD_NODES:
        raise CapacityError(f"{total} quadrature nodes exceeds the guard {_MAX_QUAD_NODES}")
    values = np.empty((total, n_out))
    probs = np.empty(total)
    ndim = len(spec.random_dims)
    for m, idx in enumerate(itertools.product(range(spec.nodes_per_dim), repeat=ndim)):
        values[m] = evaluator(spec.sample_at(idx, std_nodes))
        probs[m] = math.prod(node_probs[i] for i in idx)
    return values, probs


def _monte_carlo_table(
    config: ModelConfig,
    evaluator: Callable[[DisorderSample], np.ndarray],
    n_out: int,
    method: MonteCarlo,
) -> np.ndarray:
    def work(k: int) -> np.ndarray:
        return evaluator(sample_disorder(config.params, config.families, method.seed, k))

    values = np.empty((method.n_samples, n_out))
    if method.threads > 1:
        with ThreadPoolExecutor(max_workers=method.threads) as pool:
            for k, row in enumerate(pool.map(work, range(method.n_samples))):
                values[k] = row
    else:
        for k in range(method.n_samples):
            values[k] = work(k)
    return values


def _disorder_table(
    config: ModelConfig,
    evaluator: Callable[[DisorderSample], np.ndarray],
    n_out: int,
    method: Method,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows of per-sample outputs plus quadrature probabilities (None for MC)."""
    if isinstance(method, MonteCarlo):
        return _monte_carlo_table(config, evaluator, n_out, method), None
    spec = QuadratureSpec.from_model(config.families, config.params, method.nodes_per_dim)
    return _quadrature_table(spec, evaluator, n_out)


def _disorder_mean(values: np.ndarray, probs: np.ndarray | None) -> np.ndarray:
    return values.mean(axis=0) if probs is None else probs @ values


def _residual_results(values: np.ndarray, probs: np.ndarray | None) -> list[EstimatorResult]:
    n = values.shape[0]
    out = []
    if probs is None:
        means = values.mean(axis=0)
        ses = values.std(axis=0, ddof=1) / math.sqrt(n)
        for mean, se in zip(means, ses):
            z = mean / se if se > 0 else (0.0 if mean == 0.0 else math.inf)
            out.append(
                EstimatorResult(
                    mean=float(mean), std_error=float(se), n_samples=n,
                    method="mc", z_score=float(z),
                )
            )
    else:
        means = probs @ values
        for mean in means:
            out.append(
                EstimatorResult(
                    mean=float(mean), std_error=0.0, n_samples=n,
                    method="quadrature", z_score=math.nan,
                )
            )
    return out


def validate_gauge_axis(
    params: CouplingParams, families: Mapping[int, BondFamily], u: str
) -> None:
    """Every transformed component must be Gaussian (delta > 0) or absent."""
    for p in families:
        nishimori_beta(params, p, u)


def _check_identity_axes(w: str, u: str) -> None:
    if w not in AXES or u not in AXES:
        raise ValueError(f"axes must be among {AXES}, got w={w!r}, u={u!r}")
    if w == u:
        raise ValueError("the observable axis must differ from the gauge axis")


class _IdentityEngine:
    """Shared per-sample machinery: one spectral decomposition on the quantum
    side, one Nishimori-line enumeration on the classical side. The quantum
    builder is made on first use, so classical-only checks never make it."""

    def __init__(self, config: ModelConfig, u: str):
        validate_gauge_axis(config.params, config.families, u)
        self.config = config
        self.u = u
        self.n_sites = config.lattice.n_sites
        self.table = BondProductTable(self.n_sites, config.families)
        self.betas = {p: nishimori_beta(config.params, p, u) for p in config.families}

    @functools.cached_property
    def builder(self) -> HamiltonianBuilder:
        return HamiltonianBuilder(self.config.lattice, self.config.families)

    def strings(self, site_sets: Sequence[Sequence[int]], axis: str) -> list[PauliString]:
        return [PauliString(self.n_sites, s, axis) for s in site_sets]

    def state(self, sample: DisorderSample) -> ThermalState:
        return thermal_state(spectral_decompose(self.builder.build(sample)), self.config.beta)

    def classical_products(
        self, sample: DisorderSample, site_sets: Sequence[Sequence[int]]
    ) -> np.ndarray:
        nd = nishimori_transform(sample, self.config.params, self.u)
        return self.table.expectations(nd.k, self.betas, site_sets)

    def classical_pair_matrix(self, sample: DisorderSample) -> np.ndarray:
        nd = nishimori_transform(sample, self.config.params, self.u)
        return self.table.pair_matrix(nd.k, self.betas)


def _duhamel_in_state(state: ThermalState, a_t: np.ndarray, b_t: np.ndarray) -> float:
    phi = _duhamel_kernel(state)
    return float(np.real(np.sum(a_t * b_t.T * phi))) / float(np.sum(state.weights))


def one_point_identity(
    config: ModelConfig, x_sites: Sequence[int], w: str, u: str, method: Method
) -> EstimatorResult:
    """Residual of E<sigma_X^w> = E[<sigma_X^w> <tau_X>_N], paired per sample."""
    _check_identity_axes(w, u)
    engine = _IdentityEngine(config, u)
    xs = tuple(sorted(set(int(i) for i in x_sites)))
    ops = engine.strings([xs], w)

    def evaluator(sample: DisorderSample) -> np.ndarray:
        state = engine.state(sample)
        (q,) = string_expectations(state, ops)
        (c,) = engine.classical_products(sample, [xs])
        return np.array([q * (1.0 - c)])

    values, probs = _disorder_table(config, evaluator, 1, method)
    return _residual_results(values, probs)[0]


def two_point_identities(
    config: ModelConfig,
    x_sites: Sequence[int],
    y_sites: Sequence[int],
    w: str,
    u: str,
    method: Method,
) -> tuple[EstimatorResult, EstimatorResult]:
    """Residuals of the product-of-expectations and joint-expectation
    two-point identities, in that order."""
    _check_identity_axes(w, u)
    engine = _IdentityEngine(config, u)
    xs = tuple(sorted(set(int(i) for i in x_sites)))
    ys = tuple(sorted(set(int(i) for i in y_sites)))
    diff = tuple(sorted(set(xs) ^ set(ys)))
    # sigma_X^w sigma_Y^w is exactly the string on the symmetric difference
    ops = engine.strings([xs, ys, diff], w)

    def evaluator(sample: DisorderSample) -> np.ndarray:
        state = engine.state(sample)
        qx, qy, qxy = string_expectations(state, ops)
        (c,) = engine.classical_products(sample, [diff])
        return np.array([qx * qy * (1.0 - c), qxy * (1.0 - c)])

    values, probs = _disorder_table(config, evaluator, 2, method)
    res = _residual_results(values, probs)
    return res[0], res[1]


def duhamel_identity(
    config: ModelConfig,
    x_sites: Sequence[int],
    y_sites: Sequence[int],
    w: str,
    u: str,
    method: Method,
) -> tuple[EstimatorResult, EstimatorResult]:
    """Residuals of the Duhamel and truncated-Duhamel identities, in order."""
    _check_identity_axes(w, u)
    engine = _IdentityEngine(config, u)
    xs = tuple(sorted(set(int(i) for i in x_sites)))
    ys = tuple(sorted(set(int(i) for i in y_sites)))
    op_x, op_y = engine.strings([xs, ys], w)
    diff = tuple(sorted(set(xs) ^ set(ys)))

    def evaluator(sample: DisorderSample) -> np.ndarray:
        state = engine.state(sample)
        a_t = string_in_eigenbasis(state, op_x)
        b_t = string_in_eigenbasis(state, op_y)
        dval = _duhamel_in_state(state, a_t, b_t)
        qx, qy = string_expectations(state, [op_x, op_y])
        tval = dval - qx * qy
        (c,) = engine.classical_products(sample, [diff])
        return np.array([dval * (1.0 - c), tval * (1.0 - c)])

    values, probs = _disorder_table(config, evaluator, 2, method)
    res = _residual_results(values, probs)
    return res[0], res[1]


def three_point_identity(
    config: ModelConfig,
    x_sites: Sequence[int],
    y_sites: Sequence[int],
    z_sites: Sequence[int],
    w: str,
    u: str,
    method: Method,
) -> EstimatorResult:
    """One representative extension to three factors:
    E prod <sigma>  =  E prod <sigma> <tau_X tau_Y tau_Z>_N.

    Opt-in; the default verification suites do not run it."""
    _check_identity_axes(w, u)
    engine = _IdentityEngine(config, u)
    sets = [tuple(sorted(set(int(i) for i in s))) for s in (x_sites, y_sites, z_sites)]
    ops = engine.strings(sets, w)
    diff = tuple(sorted(set(sets[0]) ^ set(sets[1]) ^ set(sets[2])))

    def evaluator(sample: DisorderSample) -> np.ndarray:
        state = engine.state(sample)
        q1, q2, q3 = string_expectations(state, ops)
        (c,) = engine.classical_products(sample, [diff])
        return np.array([q1 * q2 * q3 * (1.0 - c)])

    values, probs = _disorder_table(config, evaluator, 1, method)
    return _residual_results(values, probs)[0]


# ---------------------------------------------------------------------------
# Bound chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    """One link of an inequality chain: lhs <= rhs within tolerance, or an
    identity asserted as |lhs - rhs| <= tolerance."""

    name: str
    kind: str  # "inequality" | "identity"
    lhs: float
    rhs: float
    tolerance: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class BoundCheckReport:
    name: str
    lhs: float
    rhs: float
    steps: tuple[ChainStep, ...]
    n_samples: int
    method: str
    clip_count: int
    clip_fraction: float
    passed: bool


def _inequality(name: str, lhs: float, rhs: float, tol: float) -> ChainStep:
    return ChainStep(
        name=name, kind="inequality", lhs=float(lhs), rhs=float(rhs),
        tolerance=float(tol), passed=bool(lhs <= rhs + tol),
    )


def _identity_step(name: str, lhs: float, rhs: float, tol: float) -> ChainStep:
    return ChainStep(
        name=name, kind="identity", lhs=float(lhs), rhs=float(rhs),
        tolerance=float(tol), passed=bool(abs(lhs - rhs) <= tol),
    )


def _se(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    if n < 2:
        return np.zeros(values.shape[1:])
    return values.std(axis=0, ddof=1) / math.sqrt(n)


def _clip_nonneg(values: np.ndarray) -> tuple[np.ndarray, int]:
    # count only genuine Monte Carlo negatives; exact-zero float dust is not
    # an undersampling signal
    clipped = int(np.count_nonzero(values < -_EXACT_TOL))
    return np.maximum(values, 0.0), clipped


def _check_clip_fraction(clipped: int, total: int, clip_limit: float, what: str) -> float:
    fraction = clipped / total if total else 0.0
    if fraction > clip_limit:
        raise UndersampledError(
            f"{what}: {clipped}/{total} square-root arguments clipped at zero "
            f"(fraction {fraction:.3f} > {clip_limit}); increase the sample count"
        )
    return fraction


def magnetization_bound_check(
    config: ModelConfig,
    w: str,
    u: str,
    method: Method,
    z_max: float = DEFAULT_Z_MAX,
    quad_tol: float = DEFAULT_QUAD_TOL,
    clip_limit: float = DEFAULT_CLIP_LIMIT,
) -> BoundCheckReport:
    """Certify the magnetization bound chain:

    E<o^w>  <=  (1/N) sum_i sqrt(E<tau_i>_N)  <=  sqrt((1/N) sum_i E<tau_i>_N),

    asserting each intermediate link (one-point identity, triangle
    inequality, |<sigma>| <= 1, the empirical Cauchy-Schwarz step, and the
    classical Nishimori identity) with matched disorder samples throughout.
    """
    _check_identity_axes(w, u)
    engine = _IdentityEngine(config, u)
    n = engine.n_sites
    singles = [(i,) for i in range(n)]
    ops = engine.strings(singles, w)

    def evaluator(sample: DisorderSample) -> np.ndarray:
        state = engine.state(sample)
        q = string_expectations(state, ops)
        c = engine.classical_products(sample, singles)
        return np.concatenate([q, c])

    values, probs = _disorder_table(config, evaluator, 2 * n, method)
    qs, cs = values[:, :n], values[:, n:]
    n_samples = values.shape[0]
    is_mc = probs is None
    mean = lambda arr: _disorder_mean(arr, probs)

    eq = mean(qs)
    eqc = mean(qs * cs)
    eabs_qc = mean(np.abs(qs * cs))
    eabs_c = mean(np.abs(cs))
    ec2 = mean(cs * cs)
    ec = mean(cs)

    steps = []
    id_tol = (np.maximum(z_max * _se(qs - qs * cs), _EXACT_TOL)) if is_mc else np.full(n, quad_tol)
    worst = int(np.argmax(np.abs(eq - eqc) / id_tol))
    steps.append(
        _identity_step("one-point identity (worst site)", eq[worst], eqc[worst], id_tol[worst])
    )
    steps.append(
        _inequality(
            "triangle inequality", float(np.mean(np.abs(eqc))),
            float(np.mean(eabs_qc)), _EXACT_TOL,
        )
    )
    steps.append(
        _inequality(
            "thermal average bounded by one", float(np.mean(eabs_qc)),
            float(np.mean(eabs_c)), _EXACT_TOL,
        )
    )
    ec2_pos, _ = _clip_nonneg(ec2)
    steps.append(
        _inequality(
            "Cauchy-Schwarz over samples", float(np.mean(eabs_c)),
            float(np.mean(np.sqrt(ec2_pos))), _EXACT_TOL,
        )
    )
    nid_tol = (np.maximum(z_max * _se(cs * cs - cs), _EXACT_TOL)) if is_mc else np.full(n, quad_tol)
    worst = int(np.argmax(np.abs(ec2 - ec) / nid_tol))
    steps.append(
        _identity_step(
            "classical Nishimori identity (worst site)", ec2[worst], ec[worst], nid_tol[worst]
        )
    )
    ec_pos, clipped = _clip_nonneg(ec)
    clip_fraction = _check_clip_fraction(clipped, n, clip_limit, "magnetization bound")
    steps.append(
        _inequality(
            "site-average concavity", float(np.mean(np.sqrt(ec_pos))),
            float(math.sqrt(np.mean(ec_pos))), _EXACT_TOL,
        )
    )

    lhs = float(np.mean(eq))
    rhs_arg = float(np.mean(ec_pos))
    rhs = math.sqrt(rhs_arg)
    if is_mc:
        se_lhs = float(_se(qs.mean(axis=1, keepdims=True))[0])
        se_arg = float(_se(cs.mean(axis=1, keepdims=True))[0])
        se_rhs = se_arg / (2.0 * rhs) if rhs > 0 else 0.0
        tol = max(z_max * math.hypot(se_lhs, se_rhs), _EXACT_TOL)
    else:
        tol = quad_tol
    steps.append(_inequality("magnetization bound", lhs, rhs, tol))

    return BoundCheckReport(
        name=f"magnetization bound (w={w}, u={u})",
        lhs=lhs, rhs=rhs, steps=tuple(steps),
        n_samples=n_samples, method="mc" if is_mc else "quadrature",
        clip_count=clipped, clip_fraction=clip_fraction,
        passed=all(s.passed for s in steps),
    )


def susceptibility_bound_check(
    config: ModelConfig,
    v: str,
    w: str,
    u: str,
    method: Method,
    z_max: float = DEFAULT_Z_MAX,
    quad_tol: float = DEFAULT_QUAD_TOL,
    clip_limit: float = DEFAULT_CLIP_LIMIT,
) -> BoundCheckReport:
    """Certify the susceptibility bound chain at zero symmetry-breaking field:

    (beta/N) |sum_ij E(sigma_i^w ; sigma_j^v)|
        <= (2 beta/N) sum_ij sqrt(E<tau_i tau_j>_N),

    including the deterministic per-pair |(sigma;sigma)| <= 2 step. Requires
    a mixed even p-spin configuration (no single-site couplings) and a gauge
    axis distinct from both observable axes.
    """
    for axis in (v, w):
        _check_identity_axes(axis, u)
    config.params.require_even_mixed()
    if any(config.params.is_active(1, a) for a in AXES):
        raise ValueError("susceptibility bound requires zero single-site couplings")
    engine = _IdentityEngine(config, u)
    n = engine.n_sites
    beta = config.beta
    singles = [(i,) for i in range(n)]
    ops_w = engine.strings(singles, w)
    ops_v = engine.strings(singles, v)

    def evaluator(sample: DisorderSample) -> np.ndarray:
        state = engine.state(sample)
        at = np.stack([string_in_eigenbasis(state, op) for op in ops_w])
        bt = at if v == w else np.stack([string_in_eigenbasis(state, op) for op in ops_v])
        phi = _duhamel_kernel(state)
        z = float(np.sum(state.weights))
        # duh[i, j] = sum_mn at[i, m, n] bt[j, n, m] phi[m, n], as one matmul
        duh = np.real((at * phi).reshape(n, -1) @ bt.transpose(0, 2, 1).reshape(n, -1).T) / z
        qa = np.real(np.diagonal(at, axis1=1, axis2=2) @ state.weights) / z
        qb = np.real(np.diagonal(bt, axis1=1, axis2=2) @ state.weights) / z
        trunc = duh - np.outer(qa, qb)
        c = engine.classical_pair_matrix(sample)
        return np.concatenate([trunc.ravel(), c.ravel()])

    values, probs = _disorder_table(config, evaluator, 2 * n * n, method)
    n_samples = values.shape[0]
    is_mc = probs is None
    ts = values[:, : n * n]
    cs = values[:, n * n :]
    mean = lambda arr: _disorder_mean(arr, probs)

    steps = []
    max_t = float(np.max(np.abs(ts)))
    steps.append(_inequality("per-pair Duhamel magnitude", max_t, 2.0, _EXACT_TOL))

    et = mean(ts)
    etc = mean(ts * cs)
    scale = beta / n
    id_tol = (
        max(z_max * float(_se((ts - ts * cs).sum(axis=1, keepdims=True))[0]), _EXACT_TOL)
        if is_mc
        else quad_tol * n * n
    )
    steps.append(
        _identity_step(
            "truncated-Duhamel identity (summed)",
            scale * float(et.sum()), scale * float(etc.sum()), scale * id_tol,
        )
    )
    steps.append(
        _inequality(
            "triangle inequality", scale * abs(float(etc.sum())),
            scale * float(mean(np.abs(ts * cs)).sum()), _EXACT_TOL,
        )
    )
    steps.append(
        _inequality(
            "Duhamel magnitude bound", scale * float(mean(np.abs(ts * cs)).sum()),
            2.0 * scale * float(mean(np.abs(cs)).sum()), _EXACT_TOL,
        )
    )
    ec2_pos, _ = _clip_nonneg(mean(cs * cs))
    steps.append(
        _inequality(
            "Cauchy-Schwarz over samples", 2.0 * scale * float(mean(np.abs(cs)).sum()),
            2.0 * scale * float(np.sqrt(ec2_pos).sum()), _EXACT_TOL,
        )
    )
    ec = mean(cs)
    nid_tol = (np.maximum(z_max * _se(cs * cs - cs), _EXACT_TOL)) if is_mc else np.full(n * n, quad_tol)
    worst = int(np.argmax(np.abs(mean(cs * cs) - ec) / nid_tol))
    steps.append(
        _identity_step(
            "classical Nishimori identity (worst pair)",
            float(mean(cs * cs)[worst]), float(ec[worst]), float(nid_tol[worst]),
        )
    )

    ec_pos, clipped = _clip_nonneg(ec)
    clip_fraction = _check_clip_fraction(clipped, n * n, clip_limit, "susceptibility bound")
    chi = scale * abs(float(et.sum()))
    bound = 2.0 * scale * float(np.sqrt(ec_pos).sum())
    if is_mc:
        se_chi = scale * float(_se(ts.sum(axis=1, keepdims=True))[0])
        bound_stat = lambda m: 2.0 * scale * float(np.sqrt(np.maximum(m, 0.0)).sum())
        se_bound = _jackknife_se(cs, bound_stat)
        tol = max(z_max * math.hypot(se_chi, se_bound), _EXACT_TOL)
    else:
        tol = quad_tol
    steps.append(_inequality("susceptibility bound", chi, bound, tol))

    return BoundCheckReport(
        name=f"susceptibility bound (v={v}, w={w}, u={u})",
        lhs=chi, rhs=bound, steps=tuple(steps),
        n_samples=n_samples, method="mc" if is_mc else "quadrature",
        clip_count=clipped, clip_fraction=clip_fraction,
        passed=all(s.passed for s in steps),
    )


def _jackknife_se(samples: np.ndarray, statistic: Callable[[np.ndarray], float]) -> float:
    """Leave-one-out standard error of a statistic of column means."""
    n = samples.shape[0]
    if n < 2:
        return 0.0
    total = samples.sum(axis=0)
    loo = (total[None, :] - samples) / (n - 1)
    vals = np.array([statistic(loo[k]) for k in range(n)])
    return float(math.sqrt((n - 1) / n * np.sum((vals - vals.mean()) ** 2)))


def a1_sum(
    config: ModelConfig,
    u: str,
    method: Method,
    clip_limit: float = DEFAULT_CLIP_LIMIT,
) -> EstimatorResult:
    """Diagnostic (1/N) sum_ij sqrt(E<tau_i tau_j>_N); reported, not asserted.

    Negative Monte Carlo estimates under the square root are clipped at zero
    and counted; exceeding the clip budget raises UndersampledError.
    """
    engine = _IdentityEngine(config, u)
    n = engine.n_sites

    def evaluator(sample: DisorderSample) -> np.ndarray:
        return engine.classical_pair_matrix(sample).ravel()

    values, probs = _disorder_table(config, evaluator, n * n, method)
    ec = _disorder_mean(values, probs)
    ec_pos, clipped = _clip_nonneg(ec)
    fraction = _check_clip_fraction(clipped, n * n, clip_limit, "correlation sum")
    total = float(np.sqrt(ec_pos).sum()) / n
    if probs is None:
        stat = lambda m: float(np.sqrt(np.maximum(m, 0.0)).sum()) / n
        se = _jackknife_se(values, stat)
    else:
        se = 0.0
    z = total / se if se > 0 else math.nan
    return EstimatorResult(
        mean=total, std_error=se, n_samples=values.shape[0],
        method="mc" if probs is None else "quadrature", z_score=z,
        clip_count=clipped, clip_fraction=fraction,
    )


def mean_pair_correlation(config: ModelConfig, u: str, method: Method) -> np.ndarray:
    """Disorder-averaged Nishimori-line pair correlation matrix E<tau_i tau_j>."""
    engine = _IdentityEngine(config, u)
    n = engine.n_sites

    def evaluator(sample: DisorderSample) -> np.ndarray:
        return engine.classical_pair_matrix(sample).ravel()

    values, probs = _disorder_table(config, evaluator, n * n, method)
    return _disorder_mean(values, probs).reshape(n, n)


def _a2_differences(
    config: ModelConfig, v: str, w: str, h: float, method: Method
) -> tuple[float, float]:
    """Third and second central differences of the magnetization in the
    symmetry-breaking field mean, at zero field, with common disorder."""
    if h <= 0:
        raise ValueError(f"step h must be > 0, got {h}")
    config.params.require_even_mixed()
    if any(config.params.is_active(1, a) for a in AXES):
        raise ValueError("nonlinear susceptibility probe requires zero base field")
    builder = HamiltonianBuilder(config.lattice, config.families)
    n = config.lattice.n_sites
    field = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        field += pauli_site(n, i, v)
    order = [PauliString(n, (i,), w) for i in range(n)]

    def evaluator(sample: DisorderSample) -> np.ndarray:
        base = builder.build(sample)
        m = []
        for mu in (-2 * h, -h, 0.0, h, 2 * h):
            state = thermal_state(spectral_decompose(base - mu * field), config.beta)
            m.append(sum(string_expectations(state, order)) / n)
        third = (m[4] - 2 * m[3] + 2 * m[1] - m[0]) / (2 * h**3)
        second = (m[3] - 2 * m[2] + m[1]) / h**2
        return np.array([third, second])

    values, probs = _disorder_table(config, evaluator, 2, method)
    means = _disorder_mean(values, probs)
    return float(means[0]), float(means[1])


def a2_nonlinear_susceptibility(
    config: ModelConfig,
    v: str,
    w: str,
    h: float,
    method: Method,
    symmetry_tol: float = FLIP_SYMMETRY_TOL,
) -> float:
    """Third central difference of the magnetization in the field mean at the
    symmetric point (the finite-size nonlinear susceptibility probe).

    The second difference must vanish there; a violation beyond tolerance
    indicates a configuration without the required flip symmetry and raises.
    """
    third, second = _a2_differences(config, v, w, h, method)
    if abs(second) > symmetry_tol:
        raise RuntimeError(
            f"second field-difference {second} exceeds {symmetry_tol}; "
            "the configuration is not flip-symmetric at zero field"
        )
    return third


def finite_size_order_parameters(
    config: ModelConfig, method: Method
) -> dict[str, dict[str, EstimatorResult]]:
    """Finite-size ferromagnetic and spin-glass order parameters per axis.

    The spin-glass parameter averages the squared per-sample thermal
    magnetization, so each sample contributes exactly one Gibbs evaluation
    and no replica bias enters.
    """
    builder = HamiltonianBuilder(config.lattice, config.families)
    n = config.lattice.n_sites
    ops = [PauliString(n, (i,), a) for a in AXES for i in range(n)]

    def evaluator(sample: DisorderSample) -> np.ndarray:
        state = thermal_state(spectral_decompose(builder.build(sample)), config.beta)
        return np.array(string_expectations(state, ops))

    values, probs = _disorder_table(config, evaluator, 3 * n, method)
    n_samples = values.shape[0]
    is_mc = probs is None
    out: dict[str, dict[str, EstimatorResult]] = {}
    for a_idx, axis in enumerate(AXES):
        block = values[:, a_idx * n : (a_idx + 1) * n]
        m_rows = block.mean(axis=1, keepdims=True)
        q_rows = (block * block).mean(axis=1, keepdims=True)
        res = {}
        for name, rows in (("m", m_rows), ("q", q_rows)):
            mv = float(_disorder_mean(rows, probs)[0])
            se = float(_se(rows)[0]) if is_mc else 0.0
            z = mv / se if se > 0 else math.nan
            res[name] = EstimatorResult(
                mean=mv, std_error=se, n_samples=n_samples,
                method="mc" if is_mc else "quadrature", z_score=z,
            )
        out[axis] = res
    return out
