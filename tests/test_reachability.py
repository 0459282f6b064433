"""Every function in src/ is reached by a CLI run, or is retained API named
below with the reason it is kept."""

import contextlib
import inspect
import io
import pathlib
import sys

from record_golden import RUNS, argv
from xyzglass import cli

PACKAGE = pathlib.Path(cli.__file__).parent

#: Functions that no CLI run calls, each with why it stays. A reason names
#: one of the kinds below; a wrapper kept only for tests is no reason.
RETAINED_KINDS = ("oracle:", "protocol stub:", "bench:")
_TRACED = "bench: bench/spans.py traces it; no run or test calls it"
RETAINED = {
    "classical_gibbs.BondProductTable._probabilities_of_one":
        "bench: bench/ladder.py reaches it through BondProductTable.expectations",
    "classical_gibbs.BondProductTable.expectations":
        "bench: bench/ladder.py times one sample's softmax and products with it",
    "classical_gibbs.BondProductTable.pair_matrix":
        "bench: bench/spans.py traces it as a classical evaluation span",
    "classical_gibbs.classical_energy": "oracle: the energy the enumerators' weights come from",
    "classical_gibbs.product_expectations": "oracle: the per-bond enumerator's product pass",
    "disorder.nishimori_transform":
        "bench: bench/ladder.py times one sample's Nishimori transform with it, and "
        "bench/spans.py traces it",
    "identities.Block.bind": "protocol stub: every block implements it",
    "identities._a2_differences": _TRACED,
    "identities.a1_sum": _TRACED,
    "identities.duhamel_identity": _TRACED,
    "identities.finite_size_order_parameters": _TRACED,
    "identities.magnetization_bound_check": _TRACED,
    "identities.mean_pair_correlation": _TRACED,
    "identities.one_point_identity": _TRACED,
    "identities.susceptibility_bound_check": _TRACED,
    "identities.three_point_identity": _TRACED,
    "identities.two_point_identities": _TRACED,
}


def package_functions():
    """(file, first line, qualified name) -> module.qualname for every named
    function and method in the package's source, nested ones included."""
    found = {}

    def walk(code, module):
        for const in code.co_consts:
            if inspect.iscode(const):
                # class bodies run at import and are not functions
                if not const.co_name.startswith("<") and const.co_flags & inspect.CO_OPTIMIZED:
                    key = (const.co_filename, const.co_firstlineno, const.co_qualname)
                    found[key] = f"{module}.{const.co_qualname}"
                walk(const, module)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return found


def test_every_src_function_is_reached_or_retained(tmp_path):
    runs = [
        *((subcommand, cfg, extra) for _, subcommand, cfg, extra in RUNS),
        ("verify-identities", None, []),  # no config: the error record
    ]
    # a CLI process starts with empty memo caches; calls of earlier tests
    # would otherwise hide the ones these runs make
    for module in [m for name, m in sys.modules.items() if name.startswith("xyzglass")]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    for k, (subcommand, cfg, extra) in enumerate(runs):
        directory = tmp_path / str(k)
        directory.mkdir()
        args = argv(subcommand, cfg, extra, directory)
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(args))
        finally:
            sys.setprofile(previous)
    assert codes == [0, 0, 1, 1, 0, 0, 0, 0, 0, 2]

    reached = {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in called}
    never = {name for key, name in package_functions().items() if key not in reached}
    assert sorted(never - set(RETAINED)) == []
    # an entry whose function is gone or now reached is stale
    assert sorted(set(RETAINED) - never) == []
    assert [name for name, why in RETAINED.items() if not why.startswith(RETAINED_KINDS)] == []
