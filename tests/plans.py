"""Running one block in the tests, the way every subcommand runs its blocks:
a plan built over them, evaluated once into a value table; and counting
the disorder rows a plan draws."""

from xyzglass import identities
from xyzglass.identities import Plan


def evaluate_alone(config, block, u, method):
    """The value table of a plan that holds `block` alone; `u` is the gauge
    axis, None for a block without a classical side."""
    return Plan(config, [block], u).evaluate(method)


def count_draws(monkeypatch):
    """Patch the plans' `draw_rows` to record the sample index of every row
    it draws, in draw order: one entry a row, however the rows are stacked."""
    drawn = []
    real = identities.draw_rows

    def counting(mu, delta, seed, first, last):
        drawn.extend(range(first, last))
        return real(mu, delta, seed, first, last)

    monkeypatch.setattr(identities, "draw_rows", counting)
    return drawn
