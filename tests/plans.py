"""Running one block in the tests, the way every subcommand runs its blocks:
a plan built over them, evaluated once into a value table."""

from xyzglass.identities import Plan


def evaluate_alone(config, block, u, method):
    """The value table of a plan that holds `block` alone; `u` is the gauge
    axis, None for a block without a classical side."""
    return Plan(config, [block], u).evaluate(method)
