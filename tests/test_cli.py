import ast
import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xyzglass import cli, identities
from xyzglass.cli import (
    EXIT_CAPACITY_ERROR,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_ERROR,
    EXIT_OK,
    load_config,
    main,
    resolve_config,
)
from xyzglass.errors import ConfigError
from xyzglass.tolerances import Tolerances, flip_symmetric
from xyzglass.identities import (
    DuhamelBlock,
    MonteCarlo,
    OnePointBlock,
    ThreePointBlock,
    TwoPointBlock,
)

from plans import evaluate_alone


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def single_site_identity_config(seed=7, nodes=24):
    return {
        "seed": seed,
        "lattice": {"d": 1, "L": 1},
        "shapes": {"1": [[[0]]]},
        "couplings": {
            "1": {
                "x": {"mu": 0.6, "delta": 0.0},
                "y": {"mu": 0.5, "delta": 0.8},
                "z": {"mu": 0.7, "delta": 0.9},
            }
        },
        "beta": 0.5,
        "gauge_axis": "x",
        "observables": {"axis": "z", "x_sites": [0], "y_sites": [0], "z_sites": [0]},
        "method": {"kind": "quadrature", "nodes_per_dim": nodes},
    }


def load_report(out_dir):
    runs = [d for d in os.listdir(out_dir) if d.startswith("run_")]
    assert len(runs) == 1
    reports = sorted(
        f for f in os.listdir(os.path.join(out_dir, runs[0])) if f.startswith("report")
    )
    with open(os.path.join(out_dir, runs[0], reports[-1])) as fh:
        return json.load(fh)


def test_selftest_exits_zero(tmp_path):
    assert main(["selftest", "--out", str(tmp_path / "runs")]) == EXIT_OK
    report = load_report(tmp_path / "runs")
    assert report["passed"] is True
    assert report["subcommand"] == "selftest"
    assert all(c["passed"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert "Nishimori-line pair matrix versus per-bond enumeration" in names
    assert names[-2:] == [
        "P_z commutator versus the plans' sector decision",
        "field derivative versus linear response (2 sites)",
    ]


def test_verify_identities_quadrature(tmp_path):
    cfg = write_config(tmp_path, "c.json", single_site_identity_config())
    out = str(tmp_path / "runs")
    assert main(["verify-identities", "--config", cfg, "--out", out]) == EXIT_OK
    report = load_report(out)
    names = [c["name"] for c in report["checks"]]
    assert "one-point identity" in names
    assert "truncated Duhamel identity" in names
    for check in report["checks"]:
        assert check["method"] == "quadrature"
        assert check["result"]["std_error"] == 0.0
        assert abs(check["result"]["mean"]) < 1e-8
        assert check["tolerance"] == {"kind": "absolute", "value": 1e-8}
    # resolved config is embedded, with defaults filled in
    assert report["config"]["tolerances"]["z_max"] == 4.0
    assert report["boundary"] == "open"


def test_verify_identities_extended_multipoint(tmp_path):
    cfg = write_config(tmp_path, "c.json", single_site_identity_config())
    out = str(tmp_path / "runs")
    code = main(
        ["verify-identities", "--config", cfg, "--out", out, "--extended-multipoint"]
    )
    assert code == EXIT_OK
    report = load_report(out)
    assert any("three-point" in c["name"] for c in report["checks"])


def test_schema_violation_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"seed": -1})
    assert main(["verify-identities", "--config", cfg]) == EXIT_CONFIG_ERROR
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["exit_code"] == EXIT_CONFIG_ERROR
    # a clip budget of 1 or more would turn the clip rule off
    payload = single_site_identity_config()
    payload["tolerances"] = {"clip_fraction_max": 2}
    cfg = write_config(tmp_path, "clip.json", payload)
    assert main(["verify-identities", "--config", cfg]) == EXIT_CONFIG_ERROR
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["exit_code"] == EXIT_CONFIG_ERROR
    assert "['tolerances', 'clip_fraction_max']" in err["error"]["message"]


def test_unknown_key_rejected(tmp_path):
    payload = single_site_identity_config()
    payload["unknown_knob"] = 1
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main(["verify-identities", "--config", cfg]) == EXIT_CONFIG_ERROR


def test_missing_required_section_exits_two(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"seed": 3})
    assert main(["verify-identities", "--config", cfg]) == EXIT_CONFIG_ERROR


def test_capacity_error_exits_three(tmp_path):
    payload = single_site_identity_config()
    payload["lattice"] = {"d": 1, "L": 30}
    cfg = write_config(tmp_path, "big.json", payload)
    assert main(["verify-identities", "--config", cfg]) == EXIT_CAPACITY_ERROR


def test_seed_override_changes_run_directory(tmp_path):
    cfg = write_config(tmp_path, "c.json", single_site_identity_config(seed=1))
    out = str(tmp_path / "runs")
    assert main(["verify-identities", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["verify-identities", "--config", cfg, "--out", out, "--seed", "2"]) == EXIT_OK
    runs = sorted(d for d in os.listdir(out) if d.startswith("run_"))
    assert len(runs) == 2
    assert any(d.startswith("run_s1_") for d in runs)
    assert any(d.startswith("run_s2_") for d in runs)


def test_reports_are_byte_identical_modulo_timestamp(tmp_path):
    cfg = write_config(tmp_path, "c.json", single_site_identity_config())
    out = str(tmp_path / "runs")
    assert main(["verify-identities", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["verify-identities", "--config", cfg, "--out", out]) == EXIT_OK
    runs = [d for d in os.listdir(out) if d.startswith("run_")]
    run_dir = os.path.join(out, runs[0])
    names = sorted(f for f in os.listdir(run_dir) if f.startswith("report"))
    assert names == ["report.json", "report_001.json"]

    def normalized(name):
        with open(os.path.join(run_dir, name)) as fh:
            data = json.load(fh)
        data.pop("timestamp")
        return json.dumps(data, sort_keys=True)

    assert normalized(names[0]) == normalized(names[1])


def test_phase_region_origin_grid(tmp_path):
    payload = {
        "seed": 11,
        "beta_t": 1.0,
        "phase_grid": {"x": [0.0, 0.0, 1], "y": [0.0, 0.0, 1], "z": [0.0, 0.0, 1]},
        "phase_queries": [[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]],
    }
    cfg = write_config(tmp_path, "p.json", payload)
    out = str(tmp_path / "runs")
    assert main(["phase-region", "--config", cfg, "--out", out]) == EXIT_OK
    report = load_report(out)
    assert report["artifacts"]["region_csv"] == "region.csv"
    run_dir = [d for d in os.listdir(out) if d.startswith("run_")][0]
    csv_lines = open(os.path.join(out, run_dir, "region.csv")).read().strip().splitlines()
    assert csv_lines[0] == "ratio_x,ratio_y,ratio_z,in_Sx,in_Sy,in_Sz,in_union"
    assert csv_lines[1].endswith("1,1,1,1")
    assert len(csv_lines) == 2
    member = [c for c in report["checks"] if c["name"].startswith("membership")][0]
    assert member["in_union"] is True


def test_verify_bounds_mc(tmp_path):
    payload = {
        "seed": 3,
        "lattice": {"d": 1, "L": 2},
        "shapes": {"2": [[[0], [1]]]},
        "couplings": {
            "2": {
                "x": {"mu": 0.3, "delta": 0.8},
                "y": {"mu": 0.3, "delta": 0.8},
                "z": {"mu": 0.3, "delta": 0.8},
            }
        },
        "beta": 0.7,
        "gauge_axis": "x",
        "bounds": {"w": "z", "v": "z", "u": "x"},
        "method": {"kind": "mc", "n_samples": 500},
        "export_correlations": True,
    }
    cfg = write_config(tmp_path, "b.json", payload)
    out = str(tmp_path / "runs")
    assert main(["verify-bounds", "--config", cfg, "--out", out]) == EXIT_OK
    report = load_report(out)
    names = [c["name"] for c in report["checks"]]
    assert any("magnetization bound" in n for n in names)
    assert any("susceptibility bound" in n for n in names)
    assert any("correlation sum" in n for n in names)
    assert any("nonlinear susceptibility" in n for n in names)
    assert report["artifacts"]["nishimori_correlations_csv"] == "nishimori_correlations.csv"


def test_order_params_sweep(tmp_path):
    payload = {
        "seed": 5,
        "lattice": {"d": 1, "L": 2},
        "shapes": {"1": [[[0]]], "2": [[[0], [1]]]},
        "couplings": {
            "1": {"z": {"mu": 0.4, "delta": 0.5}},
            "2": {
                "x": {"mu": 0.2, "delta": 0.6},
                "y": {"mu": 0.2, "delta": 0.6},
                "z": {"mu": 0.2, "delta": 0.6},
            },
        },
        "beta": 0.8,
        "method": {"kind": "mc", "n_samples": 200},
        "sweep": {"kind": "beta", "values": [0.0, 0.8]},
    }
    cfg = write_config(tmp_path, "o.json", payload)
    out = str(tmp_path / "runs")
    assert main(["order-params", "--config", cfg, "--out", out]) == EXIT_OK
    report = load_report(out)
    assert len(report["checks"]) == 2
    cold = report["checks"][0]
    assert cold["point"] == {"beta": 0.0}
    assert abs(cold["order_parameters"]["z"]["m"]["mean"]) < 1e-12
    assert cold["free_energy_density"]["mean"] == pytest.approx(0.6931, abs=1e-3)


def test_order_params_mu1_sweep(tmp_path):
    payload = {
        "seed": 9,
        "lattice": {"d": 1, "L": 2},
        "shapes": {"1": [[[0]]], "2": [[[0], [1]]]},
        "couplings": {
            "1": {"z": {"mu": 0.0, "delta": 0.0}},
            "2": {
                "x": {"mu": 0.2, "delta": 0.6},
                "y": {"mu": 0.2, "delta": 0.6},
                "z": {"mu": 0.2, "delta": 0.6},
            },
        },
        "beta": 0.8,
        "method": {"kind": "mc", "n_samples": 100},
        "sweep": {"kind": "mu1", "values": [0.0, 0.5], "axis": "z"},
    }
    cfg = write_config(tmp_path, "m.json", payload)
    out = str(tmp_path / "runs")
    assert main(["order-params", "--config", cfg, "--out", out]) == EXIT_OK
    report = load_report(out)
    m0 = report["checks"][0]["order_parameters"]["z"]["m"]["mean"]
    m1 = report["checks"][1]["order_parameters"]["z"]["m"]["mean"]
    assert abs(m0) < 1e-12
    assert m1 > 0.05


def test_selftest_requires_no_config(tmp_path):
    assert main(["verify-identities", "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR


def test_load_config_rejects_garbage(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_config_schema_is_valid_under_its_metaschema():
    # load_config validates with one prebuilt validator and never re-checks
    # the constant schema, so a malformed schema must fail here
    validator = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
    validator.check_schema(cli.CONFIG_SCHEMA)
    assert isinstance(cli._CONFIG_VALIDATOR, validator)


def test_resolve_config_applies_defaults():
    cfg = resolve_config({"seed": 1, "lattice": {"d": 1, "L": 2}}, None)
    assert cfg["tolerances"]["quadrature_abs"] == 1e-8
    assert cfg["lattice"]["boundary"] == "open"
    cfg2 = resolve_config({"seed": 1}, 99)
    assert cfg2["seed"] == 99


def gaussian(mu=0.3, delta=0.8):
    return {a: {"mu": mu, "delta": delta} for a in "xyz"}


def identities_mc_config(n, seed=13, z_max=None):
    payload = {
        "seed": seed,
        "lattice": {"d": 1, "L": 3},
        "shapes": {"1": [[[0]]], "2": [[[0], [1]]]},
        "couplings": {"1": gaussian(), "2": gaussian()},
        "beta": 0.6,
        "gauge_axis": "x",
        "observables": {"axis": "z", "x_sites": [0], "y_sites": [2], "z_sites": [1]},
        "method": {"kind": "mc", "n_samples": n},
    }
    if z_max is not None:
        payload["tolerances"] = {"z_max": z_max}
    return payload


def count_calls(monkeypatch, module, name, weight=lambda *args: 1):
    """Patch module.name to record weight(*args) per call."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(weight(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_decompositions(monkeypatch):
    """The number of matrices each (stacked) decomposition call handles; a
    plan decomposes `SectorStack`s, one stacked operator per sample."""
    return count_calls(monkeypatch, identities, "spectral_decompose", lambda h, *rest: len(h.blocks))


def test_retry_extends_the_shared_table_once(tmp_path, monkeypatch):
    n, seed = 30, 13
    payload = identities_mc_config(n, seed, z_max=1e-9)
    cfg = write_config(tmp_path, "r.json", payload)
    out = str(tmp_path / "runs")
    draws = count_calls(monkeypatch, identities, "draw_row")
    code = main(["verify-identities", "--config", cfg, "--out", out, "--extended-multipoint"])
    assert code == EXIT_CHECK_FAILED
    # every group failed, and the one shared retry drew only samples n..2n-1
    assert len(draws) == 2 * n
    report = load_report(out)
    assert all(c["retried"] for c in report["checks"])
    model = cli.build_model(resolve_config(payload, None))
    bigger = MonteCarlo(2 * n, seed)
    # each block again, in a plan of its own
    blocks = [
        OnePointBlock([0], "z"), TwoPointBlock([0], [2], "z"), DuhamelBlock([0], [2], "z"),
        ThreePointBlock([0], [2], [1], "z"),
    ]
    expected = [
        res for block in blocks for res in block.result(evaluate_alone(model, block, "x", bigger))
    ]
    assert len(report["checks"]) == len(expected)
    for check, res in zip(report["checks"], expected):
        got = check["result"]
        assert got["n_samples"] == 2 * n
        assert (got["mean"], got["std_error"], got["z_score"]) == (
            res.mean, res.std_error, res.z_score,
        )


def test_verify_identities_decomposes_each_sample_once(tmp_path, monkeypatch):
    n = 40
    cfg = write_config(tmp_path, "i.json", identities_mc_config(n))
    out = str(tmp_path / "runs")
    draws = count_calls(monkeypatch, identities, "draw_row")
    decompositions = count_decompositions(monkeypatch)
    main(["verify-identities", "--config", cfg, "--out", out, "--extended-multipoint"])
    retried = any(c["retried"] for c in load_report(out)["checks"])
    assert len(draws) == n * (2 if retried else 1)
    assert sum(decompositions) == len(draws)


def bounds_mc_config(n, sites=3):
    return {
        "seed": 3,
        "lattice": {"d": 1, "L": sites},
        "shapes": {"2": [[[0], [1]]]},
        "couplings": {"2": gaussian(mu=0.6)},
        "beta": 0.7,
        "gauge_axis": "x",
        "bounds": {"w": "z", "v": "z", "u": "x", "a2_step": 0.05,
                   "checks": ["magnetization", "susceptibility", "a1", "a2"]},
        "method": {"kind": "mc", "n_samples": n},
        "export_correlations": True,
    }


def test_verify_bounds_makes_five_decompositions_per_sample(tmp_path, monkeypatch):
    n = 60
    cfg = write_config(tmp_path, "b.json", bounds_mc_config(n))
    out = str(tmp_path / "runs")
    draws = count_calls(monkeypatch, identities, "draw_row")
    decompositions = count_decompositions(monkeypatch)
    main(["verify-bounds", "--config", cfg, "--out", out])
    assert len(draws) == n
    # the base state serves every check and the a2 zero-field point; the
    # four other stencil points are one decomposition each
    assert sum(decompositions) == 5 * n
    assert "nishimori_correlations_csv" in load_report(out)["artifacts"]


@pytest.mark.parametrize(
    "field, extra", [("x_sites", []), ("y_sites", []), ("z_sites", ["--extended-multipoint"])]
)
def test_out_of_range_observable_site_exits_two_before_sampling(
    tmp_path, capsys, monkeypatch, field, extra
):
    shipped = pathlib.Path(__file__).parents[1] / "configs" / "identities_mc.json"
    payload = json.loads(shipped.read_text())
    payload["observables"][field] = [7]  # the model has 4 sites
    cfg = write_config(tmp_path, "c.json", payload)
    draws = count_calls(monkeypatch, identities, "draw_row")
    code = main(["verify-identities", "--config", cfg, "--out", str(tmp_path / "runs"), *extra])
    assert code == EXIT_CONFIG_ERROR
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "config"
    assert err["error"]["exit_code"] == EXIT_CONFIG_ERROR
    assert "out of range" in err["error"]["message"]
    assert draws == []
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "path",
    [["couplings", "2", "z", "mu"], ["couplings", "2", "x", "delta"], ["beta"], ["bounds", "a2_step"]],
    ids=["mu", "delta", "beta", "a2_step"],
)
def test_non_finite_config_number_exits_two_before_sampling(
    tmp_path, capsys, monkeypatch, path, value
):
    payload = bounds_mc_config(20)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    cfg = write_config(tmp_path, "c.json", payload)  # json writes NaN, Infinity, -Infinity
    draws = count_calls(monkeypatch, identities, "draw_row")
    code = main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert code == EXIT_CONFIG_ERROR
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "config"
    assert err["error"]["message"] == f"config value at {path} is not a finite number"
    assert draws == []
    assert not (tmp_path / "runs").exists()


def test_overflowing_config_literal_is_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(bounds_mc_config(20)).replace('"beta": 0.7', '"beta": 1e400'))
    with pytest.raises(ConfigError, match=r"\['beta'\] is not a finite number"):
        load_config(str(path))


_IMPORT_SURFACE_SCRIPT = """
import json, sys
from xyzglass import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

identities_cfg, bounds_cfg, out, result = sys.argv[1:]
loaded = {"import xyzglass.cli": scipy_modules()}
for subcommand, cfg in [("verify-identities", identities_cfg), ("verify-bounds", bounds_cfg)]:
    code = cli.main([subcommand, "--config", cfg, "--out", out, "--threads", "1"])
    loaded[subcommand] = scipy_modules() if code in (0, 1) else f"exit code {code}"
with open(result, "w") as fh:
    json.dump(loaded, fh)
"""


def test_cli_runs_load_no_scipy(tmp_path):
    # scipy serves only the expm and Simpson oracles, which import it on
    # their first call; the production paths must not load it
    shipped = pathlib.Path(__file__).parents[1] / "configs" / "identities_mc.json"
    identities_payload = json.loads(shipped.read_text())
    identities_payload["method"]["n_samples"] = 20
    assert identities_payload["lattice"]["L"] == 4
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = tmp_path / "loaded.json"
    argv = [
        write_config(tmp_path, "i.json", identities_payload),
        write_config(tmp_path, "b.json", bounds_mc_config(20, sites=4)),
        str(tmp_path / "runs"),
        str(result),
    ]
    subprocess.run([sys.executable, "-c", _IMPORT_SURFACE_SCRIPT, *argv], env=env, check=True)
    assert json.loads(result.read_text()) == {
        "import xyzglass.cli": [], "verify-identities": [], "verify-bounds": [],
    }


def private_names_read_across_modules(package):
    """(module, name) for every underscore name that a module of `package`
    imports from, or reads off, another module of the package."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # local names bound to modules of the package
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("xyzglass")):
                if node.module in (None, "xyzglass"):
                    modules |= {alias.asname or alias.name for alias in node.names}
                else:
                    found += [(path.stem, alias.name) for alias in node.names if _private(alias.name)]
            elif isinstance(node, ast.Import):
                modules |= {
                    alias.asname for alias in node.names
                    if alias.asname and alias.name.startswith("xyzglass.")
                }
        found += [
            (path.stem, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        ]
    return found


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_cli_calls_no_private_identities_helper():
    # the guard covers every module of the package, the CLI among them;
    # tests may use private names
    package = pathlib.Path(cli.__file__).parent
    assert {"cli", "identities", "quantum_gibbs"} <= {p.stem for p in package.glob("*.py")}
    assert private_names_read_across_modules(package) == []


@pytest.mark.parametrize(
    "argv, env",
    [([], {"XYZGLASS_THREADS": "abc"}), (["--threads", "0"], {}), (["--threads", "-3"], {})],
    ids=["env-not-an-integer", "flag-zero", "flag-negative"],
)
def test_bad_thread_counts_exit_two(tmp_path, capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cfg = write_config(tmp_path, "c.json", single_site_identity_config())
    code = main(["verify-identities", "--config", cfg, "--out", str(tmp_path), *argv])
    assert code == EXIT_CONFIG_ERROR
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "config"
    assert err["error"]["exit_code"] == EXIT_CONFIG_ERROR
    assert "thread" in err["error"]["message"].lower()


@pytest.mark.parametrize(
    "field, value", [("mu", 1e200), ("delta", 1e-300)], ids=["mu-1e200", "delta-1e-300"]
)
def test_overflowing_nishimori_ratio_exits_two_before_sampling(
    tmp_path, capsys, monkeypatch, field, value
):
    shipped = pathlib.Path(__file__).parents[1] / "configs" / "identities_mc.json"
    payload = json.loads(shipped.read_text())
    payload["couplings"]["2"]["y"][field] = value  # transformed for gauge axis x
    cfg = write_config(tmp_path, "c.json", payload)
    draws = count_calls(monkeypatch, identities, "draw_row")
    code = main(["verify-identities", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert code == EXIT_CONFIG_ERROR
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "config"
    assert "(p=2, axis=y)" in err["error"]["message"]
    assert "Nishimori" in err["error"]["message"]
    assert draws == []
    assert not (tmp_path / "runs").exists()


def test_workload_plans_keep_or_gain_their_batch_sizes(tmp_path, monkeypatch):
    # the plans that read the quantum state keep the quantum byte budget; the
    # a1-only plan reads only the Nishimori line and batches by its rows
    bench = pathlib.Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", bench)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sizes = {}
    real = identities.Plan.evaluate

    def recording(plan, method):
        sizes.setdefault(name, set()).add(plan.batch_size)
        return real(plan, method)

    monkeypatch.setattr(identities.Plan, "evaluate", recording)
    for name in workloads.WORKLOADS:
        subcommand, payload = workloads.make_config(name, 1)
        payload["method"]["n_samples"] = 2
        cfg = write_config(tmp_path, f"{name}.json", payload)
        main([subcommand, "--config", cfg, "--out", str(tmp_path / "runs")])
    assert sizes == {
        "mc-small": {32}, "ed-8site": {1}, "bounds-5site": {8}, "classical-14site": {4}
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", [1e-300, 1e-103, 1e300], ids=["h-underflows", "h3-subnormal", "h3-overflows"])
def test_a2_step_without_normal_powers_exits_two_before_sampling(
    tmp_path, capsys, monkeypatch, step
):
    payload = bounds_mc_config(20)
    payload["bounds"]["a2_step"] = step
    cfg = write_config(tmp_path, "c.json", payload)
    draws = count_calls(monkeypatch, identities, "draw_row")
    code = main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert code == EXIT_CONFIG_ERROR
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "config"
    assert "a2_step" in err["error"]["message"]
    assert draws == []
    assert not (tmp_path / "runs").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "p, axis, law, code, needle",
    [
        ("2", "y", {"mu": 1e-170, "delta": 1e-170}, EXIT_CONFIG_ERROR, "(p=2, axis=y)"),
        ("2", "z", {"mu": 1e200, "delta": 1e200}, EXIT_CONFIG_ERROR, "(p=2, axis=z)"),
        # x is the gauge axis: finite H entries whose eigenvalues overflow
        ("1", "x", {"mu": 1e308, "delta": 0.0}, EXIT_NUMERICAL_ERROR, "not finite (sample 0)"),
    ],
    ids=["delta-squared-underflows", "delta-squared-overflows", "eigenvalues-overflow"],
)
def test_extreme_coupling_laws_end_in_one_typed_error_record(
    tmp_path, capsys, monkeypatch, p, axis, law, code, needle
):
    shipped = pathlib.Path(__file__).parents[1] / "configs" / "identities_mc.json"
    payload = json.loads(shipped.read_text())
    payload["method"]["n_samples"] = 20
    payload["couplings"][p][axis] = law
    cfg = write_config(tmp_path, "c.json", payload)
    draws = count_calls(monkeypatch, identities, "draw_row")
    assert main(["verify-identities", "--config", cfg, "--out", str(tmp_path / "runs")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    record = json.loads(line)["error"]
    assert record["kind"] == ("config" if code == EXIT_CONFIG_ERROR else "numerical")
    assert record["exit_code"] == code
    assert needle in record["message"]
    # the config errors are raised when the plan binds, before any draw
    assert (draws == []) == (code == EXIT_CONFIG_ERROR)
    assert not (tmp_path / "runs").exists()


@pytest.mark.filterwarnings("error")
def test_chain_numbers_that_are_not_finite_exit_four(tmp_path, capsys):
    # the Nishimori-line softmax overflows at this z mean: it raises before
    # any chain link or a1 clip sees a classical column, and warns nothing
    shipped = pathlib.Path(__file__).parents[1] / "configs" / "bounds_mc.json"
    payload = json.loads(shipped.read_text())
    payload["method"]["n_samples"] = 20
    payload["bounds"]["checks"] = ["magnetization", "susceptibility", "a1"]
    payload["couplings"]["2"]["z"] = {"mu": 1e154, "delta": 1}
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "runs")]) == (
        EXIT_NUMERICAL_ERROR
    )
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    record = json.loads(line)["error"]
    assert record["kind"] == "numerical"
    assert record["exit_code"] == EXIT_NUMERICAL_ERROR
    assert "Nishimori-line softmax of the batch from sample 0" in record["message"]
    assert not (tmp_path / "runs").exists()


@pytest.mark.filterwarnings("error")
def test_a_stencil_overflow_exits_four_without_a_warning(tmp_path, capsys):
    # beta (E - E_min) overflows in the a2 stencil's field-shifted thermal
    # states, which the batch's own state does not cover
    shipped = pathlib.Path(__file__).parents[1] / "configs" / "bounds_mc.json"
    payload = json.loads(shipped.read_text())
    payload["method"]["n_samples"] = 20
    payload["bounds"]["checks"] = ["a2"]
    payload["beta"] = 1e308
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "runs")]) == (
        EXIT_NUMERICAL_ERROR
    )
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    record = json.loads(line)["error"]
    assert "field-shifted thermal state of the batch from sample 0" in record["message"]
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "method, key",
    [({"kind": "mc", "n_samples": 1}, "n_samples"),
     ({"kind": "quadrature", "nodes_per_dim": 1}, "nodes_per_dim")],
    ids=["mc", "quadrature"],
)
def test_method_schema_error_names_the_key_of_its_kind(tmp_path, method, key):
    payload = single_site_identity_config()
    payload["method"] = method
    with pytest.raises(ConfigError, match=rf"\['method', '{key}'\]: 1 is less than the minimum of 2"):
        load_config(write_config(tmp_path, "c.json", payload))
    # a key of the other kind is unexpected, not a wrong kind
    payload["method"] = {**method, ("nodes_per_dim" if key == "n_samples" else "n_samples"): 4}
    payload["method"][key] = 4
    with pytest.raises(ConfigError, match="was unexpected"):
        load_config(write_config(tmp_path, "c.json", payload))


def test_resolved_tolerances_are_the_table_defaults():
    assert resolve_config({"seed": 1}, None)["tolerances"] == dataclasses.asdict(Tolerances())
    cfg = resolve_config({"seed": 1, "tolerances": {"z_max": 3}}, None)
    assert cfg["tolerances"] == {"z_max": 3, "quadrature_abs": 1e-8, "clip_fraction_max": 0.01}


def test_residual_pass_rule():
    tol = Tolerances(z_max=4.0, quadrature_abs=1e-8)
    assert tol.residual("r", "mc", 1.0, -4.0) == (True, {"kind": "z_score", "value": 4.0})
    assert not tol.residual("r", "mc", 0.0, 4.5)[0]
    assert not tol.residual("r", "mc", 0.0, math.inf)[0]
    assert tol.residual("r", "quadrature", -1e-8, math.nan) == (
        True, {"kind": "absolute", "value": 1e-8}
    )
    assert not tol.residual("r", "quadrature", 2e-8, 0.0)[0]
    # a mean that is not finite gets no verdict, whatever its z
    for method in ("mc", "quadrature"):
        for mean in (math.nan, math.inf):
            with pytest.raises(ArithmeticError, match="one-point identity"):
                tol.residual("one-point identity", method, mean, 0.0)


def test_flip_symmetry_rule():
    assert flip_symmetric(1e-9)
    assert flip_symmetric(-1e-8)
    assert not flip_symmetric(1e-6)
    for second in (math.nan, -math.inf):
        with pytest.raises(ArithmeticError, match="not finite"):
            flip_symmetric(second)


def identities_numerical_error(tmp_path, capsys, changes, threads=1):
    """The one numerical error record of identities_mc at 20 samples with
    each config entry at a path of `changes` set to its value."""
    shipped = pathlib.Path(__file__).parents[1] / "configs" / "identities_mc.json"
    payload = json.loads(shipped.read_text())
    payload["method"]["n_samples"] = 20
    for path, value in changes.items():
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    cfg = write_config(tmp_path, "c.json", payload)
    argv = ["verify-identities", "--config", cfg, "--threads", str(threads)]
    assert main(argv + ["--out", str(tmp_path / "runs")]) == EXIT_NUMERICAL_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    record = json.loads(line)["error"]
    assert record["kind"] == "numerical"
    assert record["exit_code"] == EXIT_NUMERICAL_ERROR
    assert not (tmp_path / "runs").exists()
    return record


_HUGE_Z = {"mu": 1.5e308, "delta": 0}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "changes, stage",
    [
        # beta (E - E_min) overflows: the thermal weights, the partition sum
        # and the Duhamel kernel would all be inf or NaN
        ({("beta",): 1e308}, "thermal state"),
        # the z couplings are not transformed under a z gauge, so a point mass
        # may sit there; their sum on the diagonal overflows
        (
            {
                ("gauge_axis",): "z", ("observables", "axis"): "x",
                ("couplings", "1", "z"): _HUGE_Z, ("couplings", "2", "z"): _HUGE_Z,
            },
            "Hamiltonian build",
        ),
    ],
    ids=["huge-beta", "z-gauge-sum-overflows"],
)
def test_identity_residuals_that_are_not_finite_exit_four(tmp_path, capsys, changes, stage):
    # the batch stage raises on its overflow, in worker threads too, and
    # warns nothing: no residual gets a verdict on a number that is not finite
    for threads in (1, 2):
        record = identities_numerical_error(tmp_path, capsys, changes, threads)
        assert f"{stage} of the batch from sample 0" in record["message"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", [1, 2])
def test_a_softmax_overflow_exits_four_without_a_warning(tmp_path, capsys, threads):
    # the Nishimori-line softmax raises on its overflow, in worker threads
    # too, before any residual sees the classical columns
    record = identities_numerical_error(
        tmp_path, capsys, {("couplings", "2", "z"): {"mu": 1e154, "delta": 1}}, threads
    )
    assert "Nishimori-line softmax of the batch from sample 0" in record["message"]


_SHIPPED = pathlib.Path(__file__).parents[1] / "configs"

_SUBCOMMANDS = {
    "bounds_mc": "verify-bounds",
    "identities_mc": "verify-identities",
    "identities_quadrature": "verify-identities",
    "order_params": "order-params",
    "phase_region": "phase-region",
}


def shrunk_config(name):
    """A shipped config at 20 samples or 2 nodes a dimension, with a 5-point
    phase grid; every shipped lattice has at most 4 sites."""
    payload = json.loads((_SHIPPED / f"{name}.json").read_text())
    assert payload.get("lattice", {"L": 1})["L"] <= 4
    method = payload.get("method", {})
    if "n_samples" in method:
        method["n_samples"] = 20
    if "nodes_per_dim" in method:
        method["nodes_per_dim"] = 2
    for axis in payload.get("phase_grid", {}).values():
        axis[2] = 5
    return payload


def config_paths(node, path=()):
    """The key path of every entry of a config tree, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from config_paths(child, path + (key,))


def sets_a_size(path):
    """Whether the entry sizes an allocation: the lattice, the sample count,
    the quadrature grid or a phase grid's point count. The fuzz test leaves
    them alone."""
    sizes = {("lattice", "L"), ("lattice", "d"), ("method", "n_samples"), ("method", "nodes_per_dim")}
    return path in sizes or (path[0] == "phase_grid" and path[2:] == (2,))


#: One change of one config entry: name -> the new value from the old one.
#: 4 is a site past every shrunk lattice.
_FUZZ_CHANGES = {
    "zero": lambda old: 0,
    "negative": lambda old: -1,
    "1e300": lambda old: 1e300,
    "1e-300": lambda old: 1e-300,
    "1e154": lambda old: 1e154,
    "1e-154": lambda old: 1e-154,
    "wrong type": lambda old: 1 if isinstance(old, str) else "x",
    "out-of-range site": lambda old: 4 if isinstance(old, int) else [4],
    "empty list": lambda old: [],
}


@st.composite
def fuzzed_configs(draw):
    """(subcommand, config, threads): a shrunk shipped config with one entry
    changed, and at most 2 threads."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    payload = shrunk_config(name)
    path = draw(st.sampled_from([p for p in config_paths(payload) if not sets_a_size(p)]))
    change = draw(st.sampled_from(sorted(_FUZZ_CHANGES)))
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = _FUZZ_CHANGES[change](target[path[-1]])
    return _SUBCOMMANDS[name], payload, draw(st.integers(1, 2))


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(fuzzed_configs())
def test_a_fuzzed_config_ends_in_a_typed_exit(case):
    # in process and with warnings as errors: every run ends in a report or
    # in exactly one JSON error record, never in a traceback
    subcommand, payload, threads = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(pathlib.Path(tmp), "c.json", payload)
        out = pathlib.Path(tmp) / "runs"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([subcommand, "--config", cfg, "--threads", str(threads), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_CAPACITY_ERROR,
                        EXIT_NUMERICAL_ERROR)
        assert "Traceback" not in err.getvalue()
        if code in (EXIT_OK, EXIT_CHECK_FAILED):
            assert err.getvalue() == ""
        else:
            (line,) = err.getvalue().strip().splitlines()
            assert json.loads(line)["error"]["exit_code"] == code
            assert not out.exists()
