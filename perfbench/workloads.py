"""Seeded workloads: each is a *round*, a list of CLI argv lists.

A run repeats its workload's round until the measuring time is used up.
Every round of one seed holds the same multiset of argv lists (only their
order may change), so any count summed over a complete round is exact and
repeats across runs of that seed. The seed reaches the program only through
the generated argv lists.

The seed must not change how much work a run does, or the spread between
seeds would hide the spread a change makes. ``solve-n32`` therefore ignores
the seed: it always runs ordering 1 with the default sign convention, the
configuration of the ROADMAP baseline. Across the three orderings and two
sign conventions its BiCGSTAB total ranges over 4,626-5,806 iterations from
roundoff alone and its op time over 9.0-10.4 s. For the same reason a
``tables-small`` or ``exports`` round runs every op under all three
orderings and the seed only draws their order: with orderings drawn per op,
round means differed by seed (ordering 2 is the slowest table run at n = 8
and 9, and the exports' mean op time fell into seed clusters of about 1.0 s
and 1.2 s). An ``orderings-re300`` op runs all three orderings itself, and
its round runs the study under both sign conventions.
"""

from __future__ import annotations

import random

WORKLOADS = ("solve-n32", "tables-small", "orderings-re300", "exports")

ORDERINGS = (1, 2, 3)
# paper table runs: (command argv prefix, mesh sizes)
TABLE_KINDS = (
    (("solve-biharmonic", "--nqp", "4"), (3, 5, 9)),
    (("solve-nse", "--nqp", "6"), (3, 5, 9)),
    (("solve-biharmonic", "--load", "stokes", "--minimal-bc", "--nqp", "12"), (4, 6, 8)),
)
EXPORTS = (
    ("export-sparsity", "--n", "16"),
    ("export-sparsity", "--n", "12", "--with-convection"),
    ("export-contours", "--n", "8", "--problem", "nse", "--grid-size", "128"),
    ("export-contours", "--n", "8", "--problem", "biharmonic", "--grid-size", "96"),
)


def _base_round(name: str) -> list[list[str]]:
    if name == "solve-n32":
        return [["solve-nse", "--n", "32", "--re", "1", "--nqp", "6", "--ordering", "1"]]
    if name == "tables-small":
        return [
            [prefix[0], "--n", str(n), *prefix[1:], "--ordering", str(ordering)]
            for prefix, sizes in TABLE_KINDS
            for n in sizes
            for ordering in ORDERINGS
        ]
    if name == "orderings-re300":
        study = ["compare-orderings", "--n", "16", "--re", "300", "--nqp", "6"]
        return [study, [*study, "--flip-sign-convention"]]
    if name == "exports":
        return [
            [*export, "--ordering", str(ordering)]
            for export in EXPORTS
            for ordering in ORDERINGS
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


class Workload:
    """The argv lists of one workload and seed, round by round."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self._rng = random.Random(f"{name}:{seed}")
        self.base = _base_round(name)

    @property
    def round_len(self) -> int:
        return len(self.base)

    def next_round(self) -> list[list[str]]:
        """The next round: the base argv lists in a freshly drawn order."""
        order = list(self.base)
        self._rng.shuffle(order)
        return [list(argv) for argv in order]
