"""Configuration-driven command line entry point.

Subcommands wire the library into reproducible runs: `verify-identities`
(correlation-identity suite), `verify-bounds` (bound chains plus the
correlation-sum and nonlinear-susceptibility diagnostics), `order-params`
(finite-size order parameter and free-energy sweeps), `phase-region`
(membership grids), and `selftest` (operator algebra and oracle
cross-checks). Every run emits a JSON report embedding the fully resolved
configuration; identical (config, seed) pairs reproduce reports byte for
byte apart from the timestamp.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import platform
import re
import sys
from datetime import datetime, timezone
from typing import Any, Callable, Iterator

import numpy as np

from . import classical_gibbs, identities, phase_region, tolerances
from .disorder import (
    MAX_SEED,
    CouplingParams,
    NishimoriRotation,
    coupling_law,
    draw_rows,
    dump_csv,
    gauge_transform_couplings,
    gaussian_log_density,
    sample_disorder,
    term_slices,
)
from .errors import CapacityError, ConfigError, UndersampledError
from .identities import (
    ModelConfig,
    MonteCarlo,
    Quadrature,
    QuadratureSpec,
)
from .lattice import build_lattice, generate_bonds, interaction_shape, merge_bond_families
from .operators import AXES, PauliString, gauge_unitary, parity_sectors, pauli_site, whole_space
from .quantum_gibbs import (
    HamiltonianBuilder,
    build_hamiltonian,
    derivative_identity_residual,
    duhamel_kernel,
    duhamel_matrix,
    duhamel_time_integral,
    gibbs_expectation_expm,
    spectral_decompose,
    string_expectations,
    thermal_state,
    z2_commutator_norm,
)
from .tolerances import Tolerances

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_CAPACITY_ERROR = 3
EXIT_NUMERICAL_ERROR = 4

_AXIS = {"enum": ["x", "y", "z"]}
_SITES = {"type": "array", "items": {"type": "integer", "minimum": 0}}
_GRID_AXIS = {
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "number"}, {"type": "integer", "minimum": 1}],
    "minItems": 3,
    "maxItems": 3,
}

CONFIG_SCHEMA: dict[str, Any] = {
    "type": "object",
    "additionalProperties": False,
    "required": ["seed"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0, "maximum": MAX_SEED},
        "lattice": {
            "type": "object",
            "additionalProperties": False,
            "required": ["d", "L"],
            "properties": {
                "d": {"type": "integer", "minimum": 1},
                "L": {"type": "integer", "minimum": 1},
                "boundary": {"enum": ["open", "periodic"]},
            },
        },
        "shapes": {
            "type": "object",
            "additionalProperties": False,
            "patternProperties": {
                "^[1-9][0-9]*$": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "array", "items": {"type": "integer"}},
                    },
                }
            },
        },
        "couplings": {
            "type": "object",
            "additionalProperties": False,
            "patternProperties": {
                "^[1-9][0-9]*$": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        axis: {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["mu", "delta"],
                            "properties": {
                                "mu": {"type": "number"},
                                "delta": {"type": "number", "minimum": 0},
                            },
                        }
                        for axis in AXES
                    },
                }
            },
        },
        "beta": {"type": "number", "minimum": 0},
        "gauge_axis": _AXIS,
        "observables": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"axis": _AXIS, "x_sites": _SITES, "y_sites": _SITES, "z_sites": _SITES},
        },
        # the branch is picked by `kind` first, so an error names the key
        # within the branch that is wrong
        "method": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": ["mc", "quadrature"]}},
            "if": {"properties": {"kind": {"const": "mc"}}},
            "then": {
                "additionalProperties": False,
                "required": ["kind", "n_samples"],
                "properties": {"kind": True, "n_samples": {"type": "integer", "minimum": 2}},
            },
            "else": {
                "additionalProperties": False,
                "required": ["kind", "nodes_per_dim"],
                "properties": {"kind": True, "nodes_per_dim": {"type": "integer", "minimum": 2}},
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "z_max": {"type": "number", "exclusiveMinimum": 0},
                "quadrature_abs": {"type": "number", "exclusiveMinimum": 0},
                "clip_fraction_max": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            },
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "w": _AXIS,
                "v": _AXIS,
                "u": _AXIS,
                "a2_step": {"type": "number", "exclusiveMinimum": 0},
                "checks": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"enum": ["magnetization", "susceptibility", "a1", "a2"]},
                },
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "values"],
            "properties": {
                "kind": {"enum": ["beta", "mu1"]},
                "values": {"type": "array", "minItems": 1, "items": {"type": "number"}},
                "axis": _AXIS,
            },
        },
        "beta_t": {"type": "number", "exclusiveMinimum": 0},
        "phase_grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["x", "y", "z"],
            "properties": {"x": _GRID_AXIS, "y": _GRID_AXIS, "z": _GRID_AXIS},
        },
        "phase_queries": {
            "type": "array",
            "items": {
                "type": "array",
                "minItems": 6,
                "maxItems": 6,
                "items": {"type": "number"},
            },
        },
        "export_correlations": {"type": "boolean"},
        "dump_disorder_sample": {"type": "boolean"},
    },
}

# ---------------------------------------------------------------------------
# Config check: a walker over CONFIG_SCHEMA that decides, with jsonschema
# 4.26's rules for the keywords the schema uses, whether a config is valid.
# Only a rejected config imports jsonschema, for `best_match`'s message;
# importing it cost every run about 2.5 MiB of peak memory and 60 ms.
# ---------------------------------------------------------------------------


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


#: Draft 2020-12 types: a bool is no number, and a float with no fraction
#: is an integer.
_TYPES: dict[str, Callable[[Any], bool]] = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}


def _within(fails: Callable[[Any, Any], bool], x: Any, bound: Any, schema: dict) -> bool:
    return not (_is_number(x) and fails(x, bound))


#: keyword -> (x, keyword value, schema) -> whether x meets it. A keyword
#: about objects or arrays holds for any other value. `enum` and `const`
#: name strings, which equal only strings, as in jsonschema.
_KEYWORDS: dict[str, Callable[[Any, Any, dict], bool]] = {
    "type": lambda x, t, schema: _TYPES[t](x),
    "enum": lambda x, names, schema: x in names,
    "const": lambda x, name, schema: x == name,
    "minimum": functools.partial(_within, operator.lt),
    "exclusiveMinimum": functools.partial(_within, operator.le),
    "maximum": functools.partial(_within, operator.gt),
    "exclusiveMaximum": functools.partial(_within, operator.ge),
    "required": lambda x, keys, schema: not isinstance(x, dict) or all(k in x for k in keys),
    "minItems": lambda x, n, schema: not isinstance(x, list) or len(x) >= n,
    "maxItems": lambda x, n, schema: not isinstance(x, list) or len(x) <= n,
    "properties": lambda x, subs, schema: not isinstance(x, dict) or all(
        _valid(x[key], sub) for key, sub in subs.items() if key in x
    ),
    "patternProperties": lambda x, subs, schema: not isinstance(x, dict) or all(
        _valid(item, sub) for pattern, sub in subs.items()
        for key, item in x.items() if re.search(pattern, key)
    ),
    # every key is named by `properties` or `patternProperties`
    "additionalProperties": lambda x, allowed, schema: not isinstance(x, dict) or all(
        key in schema.get("properties", {})
        or any(re.search(pattern, key) for pattern in schema.get("patternProperties", {}))
        for key in x
    ),
    # `items` applies past the `prefixItems`
    "items": lambda x, sub, schema: not isinstance(x, list) or all(
        _valid(item, sub) for item in x[len(schema.get("prefixItems", ())):]
    ),
    "prefixItems": lambda x, subs, schema: not isinstance(x, list) or all(
        _valid(item, sub) for item, sub in zip(x, subs)
    ),
    "if": lambda x, sub, schema: _valid(x, schema.get("then" if _valid(x, sub) else "else", True)),
    "then": lambda *_: True,  # both read by `if`
    "else": lambda *_: True,
}

#: The value forms the walker reads, where it reads only some.
_FORMS: dict[str, Callable[[Any], bool]] = {
    "type": lambda t: isinstance(t, str) and t in _TYPES,
    "enum": lambda names: all(isinstance(name, str) for name in names),
    "const": lambda name: isinstance(name, str),
    "additionalProperties": lambda allowed: allowed is False,
}


def _valid(x: Any, schema: Any) -> bool:
    """Whether the instance `x` meets `schema`, as jsonschema decides."""
    return schema is True or all(
        _KEYWORDS[keyword](x, value, schema) for keyword, value in schema.items()
    )


# Fail at import on a keyword or value form the walker does not read, so a
# schema edit cannot go unchecked.
_unread: list = [CONFIG_SCHEMA]
while _unread:
    _schema = _unread.pop()
    if _schema is True:
        continue
    if not isinstance(_schema, dict) or not _schema.keys() <= _KEYWORDS.keys() or not all(
        form(_schema[keyword]) for keyword, form in _FORMS.items() if keyword in _schema
    ):
        raise NotImplementedError(f"the config check cannot read the schema {_schema!r}")
    _unread += [
        *_schema.get("properties", {}).values(),
        *_schema.get("patternProperties", {}).values(),
        *_schema.get("prefixItems", ()),
        *(_schema[keyword] for keyword in ("items", "if", "then", "else") if keyword in _schema),
    ]
del _unread, _schema


def _non_finite_path(value: Any, path: list) -> list | None:
    """The key path of the first NaN or infinite number in a loaded config,
    or None. `json` parses `NaN`, `Infinity`, `-Infinity` and overflowing
    literals such as 1e400 to such floats, and the schema's number type
    accepts them."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _non_finite_path(item, [*path, key])
        if found is not None:
            return found
    return None


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    bad = _non_finite_path(raw, [])
    if bad is not None:
        raise ConfigError(f"config value at {bad} is not a finite number")
    if not _valid(raw, CONFIG_SCHEMA):
        import jsonschema

        validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
        best = jsonschema.exceptions.best_match(validator.iter_errors(raw))
        raise ConfigError(f"config schema violation at {list(best.absolute_path)}: {best.message}")
    return raw


def resolve_config(raw: dict, seed_override: int | None) -> dict:
    cfg = json.loads(json.dumps(raw))  # deep copy, JSON-clean
    if seed_override is not None:
        # the config's seed is held to the same range by the schema
        if not 0 <= seed_override <= MAX_SEED:
            raise ConfigError(f"--seed must be in [0, {MAX_SEED}], got {seed_override}")
        cfg["seed"] = int(seed_override)
    cfg["tolerances"] = {**dataclasses.asdict(Tolerances()), **cfg.get("tolerances", {})}
    if "lattice" in cfg:
        cfg["lattice"].setdefault("boundary", "open")
    return cfg


def _require(cfg: dict, keys: list[str], subcommand: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"{subcommand} requires config keys {missing}")


def build_model(cfg: dict) -> ModelConfig:
    _require(cfg, ["lattice", "shapes", "couplings", "beta"], "model construction")
    lat_cfg = cfg["lattice"]
    lattice = build_lattice(lat_cfg["d"], lat_cfg["L"])
    boundary = lat_cfg["boundary"]
    families = {}
    for p_str, shape_list in cfg["shapes"].items():
        p = int(p_str)
        fams = []
        for offsets in shape_list:
            shape = interaction_shape(offsets)
            if shape.p != p:
                raise ConfigError(
                    f"shape {offsets} has {shape.p} offsets but is listed under p={p}"
                )
            fams.append(generate_bonds(lattice, shape, boundary))
        families[p] = merge_bond_families(fams)
    entries = {
        int(p): {axis: (spec["mu"], spec["delta"]) for axis, spec in per_axis.items()}
        for p, per_axis in cfg["couplings"].items()
    }
    unshaped = sorted(set(entries) - set(families))
    if unshaped:
        raise ConfigError(f"couplings of orders {unshaped} have no shapes")
    params = CouplingParams(entries)
    return ModelConfig(lattice=lattice, families=families, params=params, beta=cfg["beta"])


def build_method(cfg: dict, threads: int) -> MonteCarlo | Quadrature:
    _require(cfg, ["method"], "this subcommand")
    m = cfg["method"]
    if m["kind"] == "mc":
        return MonteCarlo(n_samples=m["n_samples"], seed=cfg["seed"], threads=threads)
    return Quadrature(nodes_per_dim=m["nodes_per_dim"])


# ---------------------------------------------------------------------------
# Check records
# ---------------------------------------------------------------------------


def _jsonify(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if math.isnan(f) else f
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


def _residual_check(
    name: str,
    result: identities.EstimatorResult,
    tol: Tolerances,
    inputs: dict,
    seed: int | None,
    retried: bool = False,
) -> dict:
    passed, tol_desc = tol.residual(name, result.method, result.mean, result.z_score)
    return {
        "name": name,
        "inputs": inputs,
        "method": result.method,
        "seed": seed,
        "result": result,
        "tolerance": tol_desc,
        "retried": retried,
        "passed": bool(passed),
    }


def _with_retry(
    groups: list[tuple[Any, dict]],
    table: identities.ValueTable,
    tol: Tolerances,
) -> list[dict]:
    """Statistical acceptance with one doubled-n retry for Monte Carlo runs.

    Each group is (identity block, inputs); a block's residuals are reported
    under its `names`. A group with a failing check is reported again from
    the table extended to 2n rows, marked retried. The extension is made at
    most once and shared by every failing group; it reuses rows 0..n-1 and
    evaluates only the new samples.
    """
    bigger = None
    checks = []
    for block, inputs in groups:
        group = [
            _residual_check(name, result, tol, inputs, table.seed)
            for name, result in zip(block.names, block.result(table), strict=True)
        ]
        if table.is_mc and not all(c["passed"] for c in group):
            if bigger is None:
                bigger = table.extend(2 * table.n_samples)
            group = [
                _residual_check(name, result, tol, inputs, table.seed, retried=True)
                for name, result in zip(block.names, block.result(bigger), strict=True)
            ]
        checks += group
    return checks


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------


def run_verify_identities(
    cfg: dict, tol: Tolerances, threads: int, extended: bool, artifacts_dir: str
) -> tuple[list[dict], dict]:
    _require(cfg, ["gauge_axis", "observables"], "verify-identities")
    model = build_model(cfg)
    method = build_method(cfg, threads)
    u = cfg["gauge_axis"]
    obs = cfg["observables"]
    if "axis" not in obs or "x_sites" not in obs:
        raise ConfigError("verify-identities needs observables.axis and observables.x_sites")
    w = obs["axis"]
    xs = obs["x_sites"]
    ys = obs.get("y_sites", xs)
    one_in = {"x_sites": xs, "axis": w, "gauge_axis": u}
    two_in = {"x_sites": xs, "y_sites": ys, "axis": w, "gauge_axis": u}
    groups = [
        (identities.OnePointBlock(xs, w), one_in),
        (identities.TwoPointBlock(xs, ys, w), two_in),
        (identities.DuhamelBlock(xs, ys, w), two_in),
    ]
    if extended:
        zs = obs.get("z_sites")
        if zs is None:
            raise ConfigError("extended multipoint check needs observables.z_sites")
        groups.append((identities.ThreePointBlock(xs, ys, zs, w), {**two_in, "z_sites": zs}))
    plan = identities.Plan(model, [block for block, _ in groups], u)
    checks = _with_retry(groups, plan.evaluate(method), tol)
    artifacts = {}
    if cfg.get("dump_disorder_sample"):
        path = _fresh_path(artifacts_dir, "disorder_sample", "csv")
        dump_csv(sample_disorder(model.params, model.families, cfg["seed"], 0), path)
        artifacts["disorder_sample_csv"] = os.path.basename(path)
    return checks, artifacts


def run_verify_bounds(
    cfg: dict, tol: Tolerances, threads: int, artifacts_dir: str
) -> tuple[list[dict], dict]:
    _require(cfg, ["gauge_axis", "bounds"], "verify-bounds")
    model = build_model(cfg)
    method = build_method(cfg, threads)
    u = cfg["bounds"].get("u", cfg["gauge_axis"])
    w = cfg["bounds"].get("w", "z")
    v = cfg["bounds"].get("v", w)
    which = cfg["bounds"].get("checks", ["magnetization", "susceptibility", "a1", "a2"])
    export = bool(cfg.get("export_correlations"))
    magnetization = identities.MagnetizationBlock(w)
    susceptibility = identities.SusceptibilityBlock(v, w)
    pairs = identities.PairMatrixBlock()
    step = cfg["bounds"].get("a2_step", 0.05)
    stencil = identities.FieldStencilBlock(v, w, step)
    # one pass for every requested check, validated in the order reported
    blocks = {
        "magnetization": magnetization, "susceptibility": susceptibility,
        "a1": pairs, "a2": stencil,
    }
    wanted = [blocks[name] for name in blocks if name in which]
    if export:
        wanted.append(pairs)
    table = identities.Plan(model, wanted, u).evaluate(method)
    checks: list[dict] = []
    chains = {
        "magnetization": {"w": w, "gauge_axis": u},
        "susceptibility": {"v": v, "w": w, "gauge_axis": u},
    }
    for name, inputs in chains.items():
        if name in which:
            rep = blocks[name].result(table, tol)
            checks.append({"name": rep.name, "inputs": inputs,
                           "method": rep.method, "seed": table.seed, "report": rep,
                           "tolerance": {"kind": "chain", "z_max": tol.z_max},
                           "passed": rep.passed})
    if "a1" in which:
        res = pairs.correlation_sum(table, tol)
        checks.append({"name": "correlation sum (reported, not asserted)",
                       "inputs": {"gauge_axis": u},
                       "method": res.method, "seed": table.seed, "result": res,
                       "tolerance": {"kind": "none"}, "passed": True})
    if "a2" in which:
        third, second = stencil.result(table)
        checks.append({
            "name": "nonlinear susceptibility probe",
            "inputs": {"v": v, "w": w, "step": step},
            "method": table.method_name,
            "seed": table.seed,
            "third_difference": third,
            "second_difference": second,
            "tolerance": {"kind": "flip_symmetry_abs", "value": tolerances.FLIP_SYMMETRY_TOL},
            "passed": tolerances.flip_symmetric(second),
        })
    artifacts = {}
    if export:
        path = _fresh_path(artifacts_dir, "nishimori_correlations", "csv")
        classical_gibbs.correlation_matrix_to_csv(pairs.result(table), path)
        artifacts["nishimori_correlations_csv"] = os.path.basename(path)
    return checks, artifacts


def run_order_params(cfg: dict, threads: int) -> tuple[list[dict], dict]:
    model = build_model(cfg)
    method = build_method(cfg, threads)
    sweep = cfg.get("sweep", {"kind": "beta", "values": [cfg["beta"]]})
    if sweep["kind"] == "mu1" and "axis" not in sweep:
        raise ConfigError("a mu1 sweep needs sweep.axis")
    if sweep["kind"] == "mu1" and 1 not in model.families:
        raise ConfigError("a mu1 sweep needs a p=1 shape for its field")
    sites = identities.SiteExpectationsBlock()
    free_energy = identities.FreeEnergyBlock()
    checks = []
    for value in sweep["values"]:
        if sweep["kind"] == "beta":
            point = dataclasses.replace(model, beta=float(value))
            label = {"beta": value}
        else:
            axis = sweep["axis"]
            entries = {
                p: {a: (model.params.mu(p, a), model.params.delta(p, a)) for a in AXES}
                for p in set(model.params.p_values) | {1}
            }
            entries[1][axis] = (float(value), entries[1][axis][1])
            point = dataclasses.replace(model, params=CouplingParams(entries))
            label = {"mu1": value, "axis": axis}
        table = identities.Plan(point, [sites, free_energy]).evaluate(method)
        order = sites.result(table)
        psi = free_energy.result(table)
        jensen_ok = all(
            order[a]["q"].mean >= order[a]["m"].mean ** 2 - tolerances.EXACT_TOL for a in AXES
        )
        checks.append({
            "name": f"order parameters at {label}",
            "method": order["x"]["m"].method,
            "point": label,
            "order_parameters": order,
            "free_energy_density": {
                "mean": psi.mean, "std_error": psi.std_error, "n_samples": psi.n_samples,
            },
            "tolerance": {"kind": "jensen_q_ge_m_squared"},
            "passed": bool(jensen_ok),
        })
    return checks, {}


def run_phase_region(cfg: dict, artifacts_dir: str) -> tuple[list[dict], dict]:
    _require(cfg, ["beta_t"], "phase-region")
    beta_t = cfg["beta_t"]
    checks = []
    artifacts = {}
    for coords in cfg.get("phase_queries", []):
        query = phase_region.RegionQuery(*coords, beta_t=beta_t)
        member = phase_region.region_membership(query)
        checks.append({
            "name": f"membership of {coords}",
            "method": "exact",
            "membership": member,
            "in_union": member.in_union,
            "tolerance": {"kind": "none"},
            "passed": True,
        })
    if "phase_grid" in cfg:
        g = cfg["phase_grid"]
        grid = phase_region.RatioGrid(x=tuple(g["x"]), y=tuple(g["y"]), z=tuple(g["z"]))
        path = _fresh_path(artifacts_dir, "region", "csv")
        rows = phase_region.write_region_csv(grid, beta_t, path)
        artifacts["region_csv"] = os.path.basename(path)
        checks.append({
            "name": "region grid export",
            "method": "exact",
            "rows": rows,
            "beta_t": beta_t,
            "tolerance": {"kind": "none"},
            "passed": True,
        })
    if not checks:
        raise ConfigError("phase-region needs phase_queries and/or phase_grid")
    return checks, artifacts


def run_selftest(seed: int) -> tuple[list[dict], dict]:
    """Fixed scaled-down algebra and oracle cross-checks; ignores most of the
    config on purpose, so it runs anywhere."""
    from .lattice import chain_pair_shape, single_site_shape

    rng = np.random.default_rng(seed)
    checks = []

    def record(name, residual, tol, holds=True):
        checks.append({
            "name": name, "method": "exact", "residual": float(residual),
            "tolerance": {"kind": "absolute", "value": tol},
            "passed": bool(residual <= tol and holds),
        })

    # Pauli algebra and gauge conjugation on random instances
    worst_alg = 0.0
    cyclic = [("y", "z", "x"), ("z", "x", "y"), ("x", "y", "z")]
    for _ in range(30):
        n = int(rng.integers(1, 4))
        k, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        for a, b, c in cyclic:
            lhs = pauli_site(n, k, a) @ pauli_site(n, j, b) - pauli_site(n, j, b) @ pauli_site(n, k, a)
            rhs = 2j * pauli_site(n, j, c) if k == j else np.zeros((2**n, 2**n))
            worst_alg = max(worst_alg, float(np.max(np.abs(lhs - rhs))))
        op = pauli_site(n, k, cyclic[0][int(rng.integers(0, 3))])
        worst_alg = max(worst_alg, float(np.max(np.abs(op @ op - np.eye(2**n)))))
        tau = rng.choice([-1, 1], size=n)
        u = AXES[int(rng.integers(0, 3))]
        g = gauge_unitary(n, u, tau)
        for i in range(n):
            for w_ax in AXES:
                conj = g @ pauli_site(n, i, w_ax) @ g.conj().T
                expected = pauli_site(n, i, w_ax) * (1 if w_ax == u else tau[i])
                worst_alg = max(worst_alg, float(np.max(np.abs(conj - expected))))
    record("operator algebra and gauge conjugation", worst_alg, tolerances.ROUNDING_TOL)

    # Hamiltonian gauge invariance on random chains
    worst_inv = 0.0
    for _ in range(10):
        length = int(rng.integers(2, 4))
        lat = build_lattice(1, length)
        fams = {
            1: generate_bonds(lat, single_site_shape(), "open"),
            2: generate_bonds(lat, chain_pair_shape(), "open"),
        }
        params = CouplingParams(
            {p: {a: (float(rng.uniform(0, 0.5)), float(rng.uniform(0.3, 1.0))) for a in AXES}
             for p in (1, 2)}
        )
        sample = sample_disorder(params, fams, seed=int(rng.integers(2**31)))
        ham = build_hamiltonian(lat, fams, sample)
        tau = rng.choice([-1, 1], size=length)
        u = AXES[int(rng.integers(0, 3))]
        g = gauge_unitary(length, u, tau)
        moved = build_hamiltonian(lat, fams, gauge_transform_couplings(sample, tau, u))
        scale = max(1.0, float(np.max(np.abs(ham))))
        worst_inv = max(worst_inv, float(np.max(np.abs(g @ ham @ g.conj().T - moved))) / scale)
    record("Hamiltonian gauge invariance", worst_inv, tolerances.ROUNDING_TOL)

    # change of variables and density covariance on random draws
    lat = build_lattice(1, 2)
    fams = {2: generate_bonds(lat, chain_pair_shape(), "open")}
    params = CouplingParams({2: {a: (0.4, 0.9) for a in AXES}})
    # one stack of 10^4 draws of the next seed (wrapping at 2^64) and one
    # rotation; K and G stay float64 scalars and the couplings Python floats,
    # the types of the per-sample loop this replaced, so the records keep
    # their bits
    rows = draw_rows(*coupling_law(params, fams), (seed + 1) & MAX_SEED, 0, 10**4)
    rotation = NishimoriRotation(params, fams, "x")
    beta_n = rotation.betas[2]
    columns = term_slices(fams)
    worst_cov = 0.0
    worst_rel = 0.0
    for k_n, g_n, jy, jz in zip(
        rotation(rows)[2][:, 0],
        rotation.complement(rows)[2][:, 0],
        rows[:, columns[(2, "y")].start].tolist(),
        rows[:, columns[(2, "z")].start].tolist(),
    ):
        lhs = (k_n - beta_n) ** 2 + g_n**2
        rhs = ((jy - 0.4) / 0.9) ** 2 + ((jz - 0.4) / 0.9) ** 2
        worst_cov = max(worst_cov, abs(lhs - rhs))
        tau_x = -1.0
        flip = gaussian_log_density(jy * tau_x, 0.4, 0.9)
        covar = gaussian_log_density(jy, 0.4, 0.9) + (0.4 / 0.9**2) * jy * (tau_x - 1.0)
        worst_rel = max(worst_rel, abs(flip - covar) / max(1.0, abs(covar)))
    record("change-of-variables relation (10^4 draws)", worst_cov, tolerances.ROUNDING_TOL)
    record("density gauge covariance (10^4 draws)", worst_rel, tolerances.DENSITY_TOL)

    # quadrature moment oracle
    lat1 = build_lattice(1, 1)
    fams1 = {1: generate_bonds(lat1, single_site_shape(), "open")}
    mu0, d0 = 0.7, 1.0
    params1 = CouplingParams({1: {"z": (mu0, d0)}})
    spec = QuadratureSpec.from_model(fams1, params1, 8)
    probs = spec.probabilities()
    # the z coupling is the last column in term order
    nodes = spec.rows(0, spec.node_count)[:, -1].tolist()
    first = float(probs @ np.array(nodes))
    second = float(probs @ np.array([(x - mu0) ** 2 for x in nodes]))
    fourth = float(probs @ np.array([((x - mu0) / d0) ** 4 for x in nodes]))
    record("quadrature first moment", abs(first - mu0), tolerances.ROUNDING_TOL)
    record("quadrature second moment", abs(second - d0**2), tolerances.ROUNDING_TOL)
    record("quadrature fourth moment", abs(fourth - 3.0), tolerances.ROUNDING_TOL)

    # the plans' string expectations and Duhamel contraction versus the expm
    # and Simpson oracles: three 2-site models with fields on the whole
    # space, and a zero-field 3-site chain in the parity sectors, where x on
    # two sites keeps each sector and x on one site maps each onto the other
    law = {a: (0.2, 0.8) for a in AXES}
    lat2, lat3 = build_lattice(1, 2), build_lattice(1, 3)
    fields2 = {
        1: generate_bonds(lat2, single_site_shape(), "open"),
        2: generate_bonds(lat2, chain_pair_shape(), "open"),
    }
    pairs3 = {2: generate_bonds(lat3, chain_pair_shape(), "open")}
    z0, y1 = PauliString(2, (0,), "z"), PauliString(2, (1,), "y")
    x0, x2, x02 = (PauliString(3, sites, "x") for sites in [(0,), (2,), (0, 2)])
    draws = [(int(rng.integers(2**31)), float(rng.uniform(0.2, 1.2))) for _ in range(3)]
    # (lattice, families, couplings, sectors, observable, Duhamel pair, draw)
    models = [
        (lat2, fields2, {1: law, 2: law}, whole_space(2), z0, (z0, y1), draw) for draw in draws
    ]
    models.append((lat3, pairs3, {2: law}, parity_sectors(3), x02, (x0, x2), draws[-1]))
    worst_gibbs = 0.0
    worst_duh = 0.0
    parity = []  # (the plan's sector decision, ||[H, P_z]||) per model
    for lat_m, fams_m, entries, sectors, obs, (a, b), (sample_seed, beta) in models:
        builder = HamiltonianBuilder(lat_m, fams_m)
        params_m = CouplingParams(entries)
        row = sample_disorder(params_m, fams_m, seed=sample_seed).row[None]
        ham = builder.build_rows(row, whole_space(lat_m.n_sites)).blocks[0, 0]
        plan = identities.Plan(ModelConfig(lat_m, fams_m, params_m, beta), [])
        parity.append((plan.conserves_parity, z2_commutator_norm(ham, "z")))
        state = thermal_state(spectral_decompose(builder.build_rows(row, sectors)), beta)
        (q,) = string_expectations(state, [obs])[0]
        worst_gibbs = max(worst_gibbs, abs(q - gibbs_expectation_expm(ham, beta, obs.dense())))
        (duh,) = duhamel_matrix(state, duhamel_kernel(state), [a], [b])[0, 0]
        worst_duh = max(
            worst_duh, abs(duh - duhamel_time_integral(ham, beta, a.dense(), b.dense()))
        )
    record("Gibbs expectation versus expm oracle", worst_gibbs, tolerances.EXPM_TOL)
    record("Duhamel versus Simpson time integration", worst_duh, tolerances.SIMPSON_TOL)

    # tiny deterministic identity check
    params3 = CouplingParams({1: {"x": (0.6, 0.0), "y": (0.5, 0.8), "z": (0.7, 0.9)}})
    model = ModelConfig(lattice=lat1, families=fams1, params=params3, beta=0.5)
    one_point = identities.OnePointBlock([0], "z")
    (res,) = one_point.result(identities.Plan(model, [one_point], "x").evaluate(Quadrature(24)))
    record(
        "one-point identity (single-site quadrature)", abs(res.mean), Tolerances().quadrature_abs
    )

    # the plans' pair kernel versus the per-bond enumerator, on Nishimori
    # rotations of random chains
    worst_pairs = 0.0
    for _ in range(5):
        length = int(rng.integers(1, 7))
        boundary = "periodic" if rng.integers(0, 2) else "open"
        lat4 = build_lattice(1, length)
        fams4 = {1: generate_bonds(lat4, single_site_shape(), boundary)}
        if length > 1:
            fams4[2] = generate_bonds(lat4, chain_pair_shape(), boundary)
        params4 = CouplingParams(
            {p: {a: (float(rng.uniform(0, 0.8)), float(rng.uniform(0.3, 1.0))) for a in AXES}
             for p in fams4}
        )
        sample = sample_disorder(params4, fams4, seed=int(rng.integers(2**31)))
        rotation = NishimoriRotation(params4, fams4, AXES[int(rng.integers(0, 3))])
        k = rotation(sample.row[None])
        table = classical_gibbs.BondProductTable(length, fams4)
        (kernel,) = table.pair_matrix_from(table.probabilities(k, rotation.betas))
        reference = classical_gibbs.ClassicalModel(
            length, fams4, {p: row for p, (row,) in k.items()}, rotation.betas
        )
        enumerated = classical_gibbs.classical_correlation_matrix(reference)
        worst_pairs = max(worst_pairs, float(np.max(np.abs(kernel - enumerated))))
    record(
        "Nishimori-line pair matrix versus per-bond enumeration", worst_pairs,
        tolerances.ROUNDING_TOL,
    )

    # the Z2 symmetry behind a plan's sector decision: P_z commutes with H
    # where the plan splits into parity sectors (the zero-field chain) and
    # not where it keeps the whole space (the x-field models)
    record(
        "P_z commutator versus the plans' sector decision",
        max(norm for kept, norm in parity if kept), tolerances.ROUNDING_TOL,
        holds=all(norm > tolerances.ROUNDING_TOL for kept, norm in parity if not kept),
    )

    # linear response, which makes the susceptibility chain a statement about
    # the susceptibility: the z-field derivative of <sigma_0^z> equals beta N
    # times its truncated Duhamel correlation with the magnetization
    lat_m, fams_m, entries, _, obs, _, (sample_seed, beta) = models[0]
    sample = sample_disorder(CouplingParams(entries), fams_m, seed=sample_seed)
    gap = derivative_identity_residual(
        lat_m, fams_m, sample, beta, obs.dense(), "z", tolerances.DERIVATIVE_STEP
    )
    record("field derivative versus linear response (2 sites)", gap, tolerances.DERIVATIVE_TOL)

    return checks, {}


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _fresh_path(directory: str, stem: str, ext: str) -> str:
    """First unused `stem[_NNN].ext` in `directory` (reports are append-only).
    The directory is made here, on the run's first write, so a run that
    stops at a config error leaves none behind."""
    os.makedirs(directory, exist_ok=True)
    candidate = os.path.join(directory, f"{stem}.{ext}")
    counter = 0
    while os.path.exists(candidate):
        counter += 1
        candidate = os.path.join(directory, f"{stem}_{counter:03d}.{ext}")
    return candidate


def run_directory(out_root: str, cfg: dict) -> str:
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()[:12]
    return os.path.join(out_root, f"run_s{cfg['seed']}_{digest}")


def write_report(report: dict, directory: str) -> str:
    path = _fresh_path(directory, "report", "json")
    with open(path, "w") as fh:
        json.dump(_jsonify(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run(subcommand: str, cfg: dict, threads: int, extended: bool, out_dir: str) -> tuple[int, str]:
    """Execute a subcommand and write its report; returns (exit_code, report_path)."""
    directory = run_directory(out_dir, cfg)
    tol = Tolerances(**cfg["tolerances"])
    artifacts: dict = {}
    try:
        if subcommand == "verify-identities":
            checks, artifacts = run_verify_identities(cfg, tol, threads, extended, directory)
        elif subcommand == "verify-bounds":
            checks, artifacts = run_verify_bounds(cfg, tol, threads, directory)
        elif subcommand == "order-params":
            checks, artifacts = run_order_params(cfg, threads)
        elif subcommand == "phase-region":
            checks, artifacts = run_phase_region(cfg, directory)
        elif subcommand == "selftest":
            checks, artifacts = run_selftest(cfg["seed"])
        else:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
    except UndersampledError as exc:
        checks = [{
            "name": "sampling adequacy", "method": "mc",
            "error": str(exc), "tolerance": {"kind": "clip_fraction"},
            "passed": False,
        }]
    passed = all(c["passed"] for c in checks)
    report = {
        "subcommand": subcommand,
        "config": cfg,
        "seed": cfg["seed"],
        "boundary": cfg.get("lattice", {}).get("boundary"),
        "tolerances": cfg["tolerances"],
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "checks": checks,
        "artifacts": artifacts,
        "passed": passed,
    }
    path = write_report(report, directory)
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), path


_SELFTEST_DEFAULT = {"seed": 20240901}


def _thread_count(flag: int) -> int:
    """--threads, a positive integer."""
    if flag < 1:
        raise ConfigError(f"the thread count must be at least 1, got {flag}")
    return flag


#: glibc `mallopt` parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Free heap that glibc may keep before it trims the top back to the OS:
#: above what a sample frees up to 10 sites. A 3-sample 10-site run took
#: 40K minor faults at 64 MiB, and 14K at 256 MiB as at 1 GiB.
_TRIM_BYTES = 256 * 2**20


@contextlib.contextmanager
def _freed_pages_kept() -> Iterator[None]:
    """Let glibc malloc keep the pages a sample frees for the next sample,
    and hand what is free back to the OS when the run ends.

    A dense sample frees tens of MiB of large temporaries, among them the
    work arrays that numpy's `eigh` allocates on every call. By default glibc
    serves blocks above 128 KiB (a threshold that then grows with use) by
    mmap and trims the heap top back to the OS, so the next sample faults
    the same pages in again. Raising the mmap threshold to glibc's own
    ceiling (32 MiB on 64-bit) and the trim threshold to `_TRIM_BYTES`
    keeps them mapped; setting either one also switches off the dynamic
    threshold. When the run ends, `malloc_trim` returns the free pages, so
    work that follows in the same process starts from the usual footprint.
    The setting is process-wide, so only the command line makes it; on
    another C library this does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        yield
        return
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.malloc_trim.argtypes = (ctypes.c_size_t,)
    libc.malloc_trim.restype = ctypes.c_int
    libc.mallopt(_M_MMAP_THRESHOLD, 4 * 2**20 * ctypes.sizeof(ctypes.c_long))
    libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    try:
        yield
    finally:
        libc.malloc_trim(0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xyzglass",
        description="Verification runs for the disordered quantum XYZ mixed p-spin model.",
    )
    parser.add_argument(
        "subcommand",
        choices=["verify-identities", "verify-bounds", "order-params", "phase-region", "selftest"],
    )
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for disorder loops")
    parser.add_argument("--out", default="runs", help="output root directory")
    parser.add_argument(
        "--extended-multipoint", action="store_true",
        help="also run the opt-in three-point identity extension",
    )
    args = parser.parse_args(argv)

    try:
        threads = _thread_count(args.threads)
        if args.config is None:
            if args.subcommand != "selftest":
                raise ConfigError(f"{args.subcommand} requires --config")
            raw = dict(_SELFTEST_DEFAULT)
        else:
            raw = load_config(args.config)
        cfg = resolve_config(raw, args.seed)
        with _freed_pages_kept():
            code, path = run(args.subcommand, cfg, threads, args.extended_multipoint, args.out)
    # an allocation past the machine's memory is a size cap the config hit
    except (CapacityError, MemoryError) as exc:
        _emit_error("capacity", exc, EXIT_CAPACITY_ERROR)
        return EXIT_CAPACITY_ERROR
    # before ValueError, which LinAlgError subclasses: arithmetic that fails
    # on a drawn sample is a numerical failure, not a config error
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        _emit_error("numerical", exc, EXIT_NUMERICAL_ERROR)
        return EXIT_NUMERICAL_ERROR
    except ValueError as exc:
        _emit_error("config", exc, EXIT_CONFIG_ERROR)
        return EXIT_CONFIG_ERROR
    print(json.dumps({"report": path, "exit_code": code}))
    return code


def _emit_error(kind: str, exc: Exception, code: int) -> None:
    # the first public class: numpy raises MemoryError as its private
    # `_ArrayMemoryError`
    name = next(c.__name__ for c in type(exc).__mro__ if not c.__name__.startswith("_"))
    sys.stderr.write(
        json.dumps({"error": {"kind": kind, "type": name, "message": str(exc), "exit_code": code}})
        + "\n"
    )


if __name__ == "__main__":
    raise SystemExit(main())
