"""Tests of the benchmark's own machinery: the correctness gate, the span
wrappers and the metric lists. They do not run the workloads.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _scale_floats(obj, factor):
    if isinstance(obj, dict):
        return {k: _scale_floats(v, factor) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_scale_floats(v, factor) for v in obj]
    if isinstance(obj, float):
        return obj * factor
    return obj


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_accepts_reference_and_last_bit_changes(name):
    ref = gate.load_reference(name)
    assert ref["report"]["passed"] is True
    assert gate.check_run(0, copy.deepcopy(ref), ref) == []
    assert gate.check_run(0, _scale_floats(ref, 1.0 + 4e-16), ref) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_flags_perturbed_reference(name):
    ref = gate.load_reference(name)
    assert gate.check_run(0, _scale_floats(ref, 1.0 + 1e-6), ref)
    flipped = copy.deepcopy(ref)
    flipped["report"]["checks"][0]["passed"] = False
    assert gate.check_run(0, flipped, ref)
    shorter = copy.deepcopy(ref)
    shorter["report"]["checks"].pop()
    assert gate.check_run(0, shorter, ref)
    assert gate.check_run(1, copy.deepcopy(ref), ref) == ["exit code 1"]


def test_gate_off_reference_seed_checks_verdicts():
    ref = gate.load_reference("mc-small")
    assert gate.check_run(0, ref, None) == []
    failed = copy.deepcopy(ref)
    failed["report"]["checks"][1]["passed"] = False
    assert gate.check_run(0, failed, None)
    assert gate.check_run(0, None, None) == ["no report"]


def test_wrappers_pass_arguments_results_and_exceptions_through():
    import xyzglass
    from xyzglass import identities, quantum_gibbs
    from xyzglass.lattice import chain_pair_shape

    originals = (quantum_gibbs.spectral_decompose, identities.spectral_decompose)
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        assert quantum_gibbs.spectral_decompose is not originals[0]
        assert identities.spectral_decompose is quantum_gibbs.spectral_decompose
        assert xyzglass.spectral_decompose is quantum_gibbs.spectral_decompose
        h = np.diag([2.0, -1.0]).astype(complex)
        got = xyzglass.spectral_decompose(h)
        want = originals[0](h)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        with pytest.raises(ValueError, match="not Hermitian"):
            xyzglass.spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
        lattice = xyzglass.build_lattice(1, 2)
        families = {2: xyzglass.generate_bonds(lattice, chain_pair_shape(), "open")}
        assert xyzglass.HamiltonianBuilder(lattice, families).dim == 4
    finally:
        tracer.uninstall()
    assert (quantum_gibbs.spectral_decompose, identities.spectral_decompose) == originals
    names = [s[0] for s in tracer.spans]
    assert names.count("quantum_gibbs.spectral_decompose") == 2  # the raising call too
    assert "quantum_gibbs.HamiltonianBuilder.__init__" in names
    assert all(s[2] is not None and s[2] >= s[1] for s in tracer.spans)
    assert tracer.absent == []


def test_missing_target_is_reported_absent(tmp_path):
    tracer = spans.Tracer("test")
    tracer.install(spans.TARGETS + (
        ("draw", "xyzglass.disorder", "renamed_away"),
        ("eval", "xyzglass.no_such_module", "f"),
        ("eval", "xyzglass.classical_gibbs", "NoSuchTable.pair_matrix"),
    ))
    tracer.uninstall()
    assert tracer.absent == [
        "disorder.renamed_away",
        "no_such_module.f",
        "classical_gibbs.NoSuchTable.pair_matrix",
    ]
    tracer.dump(str(tmp_path / "spans.json"))
    dumped = json.loads((tmp_path / "spans.json").read_text())
    assert dumped["absent"] == tracer.absent and dumped["run_id"] == "test"


def test_layer_metrics_count_outermost_spans_and_self_time():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent, "run_id": "r"}

    trace = {"absent": [], "spans": [
        span("cli.main", 0.0, 10.0, None),
        span("identities.one_point_identity", 1.0, 9.0, 0),
        span("quantum_gibbs.spectral_decompose", 2.0, 5.0, 1),
        span("operators.pauli_site", 6.0, 8.0, 1),
        span("operators.pauli_product", 6.5, 7.5, 3),
        span("disorder.sample_disorder", 8.0, 8.5, 1),
    ]}
    m = spans.layer_metrics(trace, n_samples=1)
    assert m["operators.pauli_s"] == 2.0 and m["operators.pauli_calls"] == 1
    assert m["quantum_gibbs.decompose_calls"] == 1
    assert m["identities.self_s"] == pytest.approx(8.0 - 3.0 - 2.0 - 0.5)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["identities.passes"] == 1.0


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(spans.layer_metrics({"spans": []}, 1)) | {
        "quantum_gibbs.builder_peak_mib", "identities.retries", "trace.overhead_frac"
    } | set(run.ladder.metric_names()) == set(run.PER_LAYER)
