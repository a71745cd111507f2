"""Work counted, not timed: a budget of expensive calls per command.

Each of the twelve commands runs once in-process at its default arguments,
with every function that ``perfbench/layers.py`` traces wrapped at every
module binding by the benchmark's own tracer.  A count above its budget
fails, and a (command, function) pair that the table does not name has a
budget of 0.  Counts are exact and do not depend on the machine, so added
work shows here even where it is below the benchmark's timing noise.  A
change that lowers a count lowers its budget; one that raises a budget says
why in CHANGES.md.
"""
import contextlib
import io

import pytest

from perfbench import layers
from perfbench.tracer import Tracer
from pnsqkd import cli

COMMANDS = tuple(f"curve {curve_id}" for curve_id in cli.CURVE_IDS) + (
    "report geneva-lausanne", "validate")

# (command, function, budget); cli.main, called once by each, is left out
BUDGETS = (
    ("curve figiepr", "attacks.fourstate_combined_info", 121),
    ("curve muopt", "keyrate.optimal_mu", 40),
    ("curve muopt", "attacks.fourstate_combined_info", 3263),
    ("curve ieclon23", "cloning.make_ngs23", 1),
    ("curve ieclon23", "cloning.make_cerf23", 1),
    ("curve dcrit", "keyrate.nb_security_summary", 7),
    ("curve dcrit", "attacks.nb_critical_usd", 7),
    ("curve dcrit", "discrimination.usd_optimal_pok", 7),
    ("curve dcrit", "qmath.eig_hermitian", 7),
    ("curve dcrit", "attacks.nb_storing_ladder", 7),
    ("curve dcrit", "photonics.qber_total", 169),
    ("curve stattnb", "attacks.nb_storing_ladder", 4),
    ("curve stattnb", "photonics.qber_total", 488),
    ("report geneva-lausanne", "attacks.fourstate_combined_info", 1),
    ("report geneva-lausanne", "cloning.make_ngs23", 1),
    ("validate", "attacks.fourstate_combined_info", 1),
    ("validate", "discrimination.usd_optimal_pok", 3),
    ("validate", "qmath.eig_hermitian", 10),
    ("validate", "qmath.helstrom_error", 2),
    ("validate", "qmath.partial_trace", 8),
    ("validate", "cloning.make_ng12", 1),
    ("validate", "cloning.make_ng23", 1),
    ("validate", "cloning.make_ngs23", 1),
    ("validate", "cloning.make_cerf23", 1),
)


def test_the_table_names_commands_and_traced_functions():
    assert {command for command, _, _ in BUDGETS} <= set(COMMANDS)
    assert {function for _, function, _ in BUDGETS} <= set(layers.TARGETS) - {"cli.main"}
    assert len({(command, function) for command, function, _ in BUDGETS}) == len(BUDGETS)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_stays_within_its_budget(command):
    budget = {function: n for c, function, n in BUDGETS if c == command}
    tracer = Tracer()
    tracer.prepare(dict.fromkeys(layers.TARGETS))
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(command.split()) == 0
    counts = {name: n for name, n in tracer.calls.items() if name != "cli.main"}
    assert {name: n for name, n in counts.items() if n > budget.get(name, 0)} == {}
