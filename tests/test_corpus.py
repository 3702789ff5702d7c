"""Sets whose clique threshold a product state beats.

Each ``core_*`` file is a width-3 set whose no-cut row is open: its
clique number is 2, its chromatic number 3, and the oracle finds a state
at 2.0938.  pad4's core is pad4 less its idle site D; the four others
came from a census of 29 999 random width-3 sets.  Lifted to width 4 by
the same letter on D in every member, identity or z, the members commute
on D, so the ``ABC|D`` row is the core's no-cut problem again.
"""

from pathlib import Path

import pytest

from paulicrit import (
    OperatorSet,
    OracleConfig,
    Partition,
    build_graph,
    criteria_report,
    cut_anticommute,
    parse_partition,
)
from paulicrit.bounds import SOUNDNESS_TOL
from paulicrit.graphs import _assign_colours, chromatic_number
from paulicrit.oracle import maximize_q_product

DATA = Path(__file__).parent / "data"
CORES = ("pad4", "census1", "census2", "census3", "census4")


def _row(core: str, lift: str | None) -> tuple[OperatorSet, Partition]:
    texts = (DATA / f"core_{core}.txt").read_text().split()
    if lift is None:
        return OperatorSet.from_strings(texts), Partition.single_block(3)
    sigma = OperatorSet.from_strings([t + lift for t in texts])
    return sigma, parse_partition("ABC|D", 4)


@pytest.mark.parametrize("lift", [None, "1", "z"], ids=["core", "D=1", "D=z"])
@pytest.mark.parametrize("core", CORES)
def test_a_product_state_beats_the_clique_number_of_the_row(core, lift):
    sigma, part = _row(core, lift)
    report = criteria_report(sigma)
    bound = report.quantum_lower if lift is None else report.per_partition[part].bound
    assert bound == 2

    g = build_graph(sigma, part, "commute")
    count, colours = chromatic_number(g)
    assert count == 3
    members = sigma.members
    for i, a in enumerate(members):
        for j in range(i + 1, len(members)):
            if colours[i] == colours[j]:
                assert cut_anticommute(a, members[j], part)

    # DSATUR greedy: the first descent of the search with a colour to spare
    # for every vertex never backtracks
    greedy = [-1] * len(members)
    assert _assign_colours(g.adjacency, greedy, len(members), 0, 0)
    assert len(set(greedy)) == 3

    value = maximize_q_product(sigma, part, OracleConfig(restarts=8, seed=0)).best_value
    assert bound + SOUNDNESS_TOL < value <= count
