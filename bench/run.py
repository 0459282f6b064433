"""Certification benchmark for xyzglass.

    python3 bench/run.py --workload mc-small [--seed N] [--seconds S] [--trace 0|1]

Writes the workload's config from the seed, then for about `--seconds` (and
at least a few rounds) runs the CLI in fresh child processes with
`--threads 1` and one BLAS thread, checking every run's report with `gate.py`.

--trace 0 runs a CLI child each round (certify_s, peak_rss_mib) and a set-up
child (setup_s) every second round, and reports medians. Each child also
times a fixed calibration loop, and times are scaled by it to the machine's
usual speed (README, Noise); the raw wall times go in the summary line.
--trace 1 runs the layer ladder (`ladder.py`) once, then alternates an
untraced CLI child with a traced one, splits the traced time across the
package's modules (`spans.py`), and reports the per-layer metrics.

The last stdout line is the result object; the line before it holds the
provenance and the raw samples. Everything is written under `.bench_work/`
in the checkout and removed at the end.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import ladder
import provenance
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Every run repeats at least this many rounds, however short --seconds is.
MIN_ROUNDS = 4
MIN_TRACED_ROUNDS = 2
CHILD_TIMEOUT_S = 150
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: `child.calibration_s` on the baseline's 2-core Intel Xeon at its usual
#: speed. Times are reported as wall time x CALIBRATION_REFERENCE_S /
#: calibration time of the same child.
CALIBRATION_REFERENCE_S = 0.2

END_TO_END = {
    "certify_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "pass_frac": "ratio",
}

PER_LAYER = {
    "disorder.draw_s": "s",
    "disorder.draw_calls": "count",
    "disorder.nishimori_s": "s",
    "disorder.nishimori_calls": "count",
    "operators.pauli_s": "s",
    "operators.pauli_calls": "count",
    "quantum_gibbs.builder_init_s": "s",
    "quantum_gibbs.builder_peak_mib": "MiB",
    "quantum_gibbs.build_s": "s",
    "quantum_gibbs.build_calls": "count",
    "quantum_gibbs.decompose_s": "s",
    "quantum_gibbs.decompose_calls": "count",
    "quantum_gibbs.thermal_s": "s",
    "quantum_gibbs.thermal_calls": "count",
    "classical_gibbs.table_init_s": "s",
    "classical_gibbs.eval_s": "s",
    "classical_gibbs.eval_calls": "count",
    "identities.self_s": "s",
    "identities.passes": "calls/sample",
    "identities.decompose_per_sample": "calls/sample",
    "identities.retries": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    **{
        name: "ratio" if ".eigh_ratio." in name else "ms"
        for name in ladder.metric_names()
    },
}


class Session:
    """Child processes of one benchmark run and the tally of their outcomes."""

    def __init__(self, work: str, workload: str, seed: int):
        self.work = work
        self.workload = workload
        self.seed = seed
        self.subcommand, cfg = workloads.make_config(workload, seed)
        self.config = os.path.join(work, "config.json")
        with open(self.config, "w") as fh:
            json.dump(cfg, fh, indent=2)
        self.reference = None
        if seed == workloads.DEFAULT_SEED:
            self.reference = gate.load_reference(workload)
        self.env = {
            **os.environ,
            **CHILD_ENV,
            "PYTHONPATH": os.path.join(ROOT, "src"),
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_outputs: dict | None = None
        self._count = 0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems[:5]]

    def child(self, mode: str, *args: str) -> dict | None:
        """Run one child to completion; its result, or None if it failed."""
        self._count += 1
        self.attempted += 1
        result = os.path.join(self.work, f"result_{self._count}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, *args, "--result", result]
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.fail(mode, [f"timed out after {CHILD_TIMEOUT_S} s"])
            return None
        if proc.returncode != 0 or not os.path.exists(result):
            tail = proc.stderr.strip().splitlines()[-3:]
            self.fail(mode, [f"child exited {proc.returncode}"] + tail)
            return None
        with open(result) as fh:
            return json.load(fh)

    def setup(self) -> dict | None:
        return self.child("setup", "--config", self.config, "--subcommand", self.subcommand)

    def certify(self, spans_path: str | None = None) -> tuple[dict, dict] | None:
        """One CLI run, gated; (child result, outputs) or None if it failed."""
        out = tempfile.mkdtemp(prefix="out_", dir=self.work)
        args = ["--config", self.config, "--subcommand", self.subcommand, "--out", out]
        if spans_path:
            args += ["--spans", spans_path, "--run-id", os.path.basename(out)]
        result = self.child("certify", *args)
        if result is None:
            return None
        reports = glob.glob(os.path.join(out, "run_*", "report*.json"))
        outputs = gate.load_outputs(reports[0]) if len(reports) == 1 else None
        problems = gate.check_run(result["exit_code"], outputs, self.reference)
        if not problems and self.first_outputs is not None:
            # the same config in the same conditions must reproduce its numbers
            problems = gate.differences(outputs, self.first_outputs)
        if problems:
            # counted against the child that did not fail to run
            self.fail("certify", problems)
            return None
        if self.first_outputs is None:
            self.first_outputs = outputs
        return result, outputs


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _another_round_fits(start: float, rounds: int, seconds: float) -> bool:
    """Whether a round of average length would end nearer to `seconds`
    than stopping now does."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds <= seconds


def _at_reference_speed(result: dict, key: str) -> float:
    return result[key] * CALIBRATION_REFERENCE_S / result["calibration_s"]


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    setups: list[dict] = []
    runs: list[dict] = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or _another_round_fits(start, rounds, seconds):
        rounds += 1
        if rounds % 2:
            s = session.setup()
            if s is not None:
                setups.append(s)
        c = session.certify()
        if c is not None:
            runs.append(c[0])
    certify_s = _median([_at_reference_speed(r, "certify_s") for r in runs])
    n = workloads.n_samples(session.workload)
    metrics = {
        "certify_s": certify_s,
        "samples_per_s": n / certify_s if certify_s else 0.0,
        "setup_s": _median([_at_reference_speed(s, "setup_s") for s in setups]),
        "peak_rss_mib": _median([r["peak_rss_mib"] for r in runs]),
        "pass_frac": (session.attempted - session.failed) / session.attempted,
    }
    samples = {
        "rounds": rounds,
        "certify_s_wall": [r["certify_s"] for r in runs],
        "certify_calibration_s": [r["calibration_s"] for r in runs],
        "setup_s_wall": [s["setup_s"] for s in setups],
        "setup_calibration_s": [s["calibration_s"] for s in setups],
        "peak_rss_mib": [r["peak_rss_mib"] for r in runs],
        "blas_threads": sorted({r["blas_threads"] for r in runs}, key=str),
    }
    return {k: _metric(v, END_TO_END[k]) for k, v in metrics.items()}, samples


def traced(session: Session, seconds: float) -> tuple[dict, dict]:
    n = workloads.n_samples(session.workload)
    plain: list[float] = []
    timed: list[float] = []
    layers: list[dict] = []
    retries: list[int] = []
    peaks: list[float] = []
    absent: set[str] = set()
    start = time.perf_counter()
    metrics = session.child("ladder", "--seed", str(session.seed)) or {}
    rounds = 0
    while rounds < MIN_TRACED_ROUNDS or _another_round_fits(start, rounds, seconds):
        rounds += 1
        untraced = session.certify()
        spans_path = os.path.join(session.work, f"spans_{rounds}.json")
        run = session.certify(spans_path)
        if untraced is None or run is None:
            continue
        result, outputs = run
        diff = gate.differences(outputs, untraced[1], rtol=0.0, atol=0.0)
        if diff:
            session.fail("traced report differs from untraced", diff)
            continue
        plain.append(untraced[0]["certify_s"])
        timed.append(result["certify_s"])
        peaks.append(result["builder_peak_mib"])
        with open(spans_path) as fh:
            trace = json.load(fh)
        absent.update(trace["absent"])
        layers.append(spans.layer_metrics(trace, n))
        retries.append(
            sum(bool(c.get("retried")) for c in outputs["report"]["checks"])
        )
    for name in layers[0] if layers else ():
        metrics[name] = _median([layer[name] for layer in layers])
    metrics["quantum_gibbs.builder_peak_mib"] = _median(peaks)
    metrics["identities.retries"] = _median(retries)
    metrics["trace.overhead_frac"] = (
        _median(timed) / _median(plain) - 1.0 if plain and timed else 0.0
    )
    missing = [name for name in PER_LAYER if name not in metrics]
    if missing:
        session.problems.append(f"per-layer metrics not measured: {missing[:5]}")
    samples = {
        "rounds": rounds,
        "certify_s_untraced": plain,
        "certify_s_traced": timed,
        "absent": sorted(absent),
    }
    return {k: _metric(metrics.get(k, 0.0), u) for k, u in PER_LAYER.items()}, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "xyzglass", "cli.py")):
        sys.stderr.write(f"no xyzglass sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=WORK_ROOT)
    try:
        session = Session(work, args.workload, args.seed)
        measure = traced if args.trace else end_to_end
        metrics, samples = measure(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it
    for line in session.problems:
        sys.stderr.write(line + "\n")
    print(json.dumps({
        "workload": args.workload,
        "subcommand": session.subcommand,
        "seed": args.seed,
        "n_samples": workloads.n_samples(args.workload),
        "threads": 1,
        "blas_threads_requested": int(CHILD_ENV["OPENBLAS_NUM_THREADS"]),
        "gate": "reference" if session.reference is not None else "verdicts",
        "provenance": provenance.collect(ROOT),
        "samples": samples,
    }))
    print(json.dumps({
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
