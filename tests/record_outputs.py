"""Record what a tree's CLI writes, so that two trees can be compared byte
for byte: the five shipped configs at full size, `verify-identities
--extended-multipoint` on `identities_quadrature`, `selftest`, and the four
benchmark workloads at seed 1 (`bench/workloads.make_config`). Each run
goes through `record_golden.outputs`, a fresh interpreter with one BLAS
thread, on the package under SRC (this tree's `src/` by default); its
timestamp-free report, its CSVs and its exit code are written under
OUT/<run>/.

    python tests/record_outputs.py OUT [SRC]

To compare a change with its parent, export the parent's `src/` (`git
archive`), run this script once with each tree's `src/` and `diff -r` the
two outputs. The runs take about 15 s each.
"""

import json
import pathlib
import sys
import tempfile

from record_golden import CONFIGS, SRC, outputs

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "bench"))
import workloads  # noqa: E402

#: shipped config name -> subcommand
SHIPPED = {
    "identities_mc": "verify-identities",
    "identities_quadrature": "verify-identities",
    "bounds_mc": "verify-bounds",
    "order_params": "order-params",
    "phase_region": "phase-region",
}


def runs():
    """(name, subcommand, config or None, extra arguments) of every run."""
    shipped = {name: json.loads((CONFIGS / f"{name}.json").read_text()) for name in SHIPPED}
    yield from ((name, SHIPPED[name], cfg, []) for name, cfg in shipped.items())
    yield ("identities_quadrature_extended", "verify-identities",
           shipped["identities_quadrature"], ["--extended-multipoint"])
    yield ("selftest", "selftest", None, [])
    for name in workloads.WORKLOADS:
        yield (f"bench_{name}", *workloads.make_config(name, 1), [])


def main(out: str, src: str) -> int:
    root = pathlib.Path(out)
    for name, subcommand, cfg, extra in runs():
        with tempfile.TemporaryDirectory() as tmp:
            code, files = outputs(subcommand, cfg, extra, tmp, pathlib.Path(src).resolve())
        directory = root / name
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "exit_code").write_text(f"{code}\n")
        for file_name, text in files.items():
            (directory / file_name).write_text(text)
        print(f"{name}: exit {code}, {sorted(files)}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(f"usage: {sys.argv[0]} OUT [SRC]")
    sys.exit(main(sys.argv[1], sys.argv[2] if len(sys.argv) == 3 else SRC))
