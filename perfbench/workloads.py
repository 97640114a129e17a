"""Workload case lists and their seeded inputs.

Every case is one CLI argument vector, run in-process through
``wordmaplab.cli.run``.  No case passes ``--workers``: each runs with the CLI
default, which is what users get, and a later change may drop the flag
without breaking a case.

Stand-ins: ``verify-theorem`` on D60 (about 170 s) and the endomorphism search
on S3xS3 (about 35 s) or A5 (about 9 s) are left out on purpose; D20 and C6xS3
exercise the same code paths in a time that allows many repeated runs, as
C30xC30 does for the C40xC40 build (about 2 s a case).

No case takes much over 2 s, so that a run of a minute times every case seven
times or more and the per-case medians hold still on a shared machine.  In
each list the slowest case stands well clear of the next, so that
``case_s.max`` stays on one case, and an odd number of cases puts
``case_s.p50`` on a case rather than halfway between two.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Two workloads, each the union of two case groups: ``search`` runs the
# hom-set search and group construction cases, ``count`` the census and
# set-family cases.  Each roadmap item is exercised by one workload and
# nearly bypassed by the other.  Two 60-second runs average the machine's
# speed drift better than four 30-second ones in the same time budget.
WORKLOADS = ("search", "count")

# Seed for which ``expected.json`` records each case's digest.
DEFAULT_SEED = 0

# (X, I, rho numerator, rho denominator) of the saved lemma family.
FAMILY = (1000, 600, 1, 2)


def _family_text(x_size: int, i_size: int, num: int, den: int,
                 rng: np.random.Generator) -> str:
    """A family in the ``load_family`` text format: i_size uniform subsets
    of size ceil(rho X), one sorted line of member ids per set."""
    k = -(-x_size * num // den)
    members = np.sort(np.argsort(rng.random((i_size, x_size)), axis=1)[:, :k],
                      axis=1)
    rho = f"{num}/{den}" if den != 1 else str(num)
    lines = [f"X={x_size} I={i_size} rho={rho}"]
    lines += [" ".join(map(str, row)) for row in members.tolist()]
    return "\n".join(lines) + "\n"


def write_family(seed: int, workdir: Path) -> str:
    """Write the lemma family for ``seed``; return its path."""
    x_size, i_size, num, den = FAMILY
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"family-seed{seed}-x{x_size}.txt"
    path.write_text(_family_text(x_size, i_size, num, den,
                                 np.random.default_rng(seed)))
    return str(path)


Case = tuple[str, list[str], bool]


def cases(workload: str, seed: int, workdir: Path) -> list[Case]:
    """(label, argv, seeded) for each case of one workload, in run order.

    ``seeded`` marks the cases whose results depend on the seed; the others
    must reproduce the digest in ``expected.json`` at every seed.
    """
    if workload == "search":
        return _homsearch(seed) + _groups()
    if workload == "count":
        return _census(seed) + _lemma(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _homsearch(seed: int) -> list[Case]:
    return [
        # 36^3 = 46,656 candidate images of three generators, 216 of them
        # endomorphisms: the candidate loop is nearly all of the case.  It
        # stands in for A5 (60^3 = 216,000 candidates, about 9 s).
        ("C6xS3-x1^2",
         ["verify-theorem", "--group", "C6xS3", "--word", "x1^2"], False),
        ("D20-x1^2",
         ["verify-theorem", "--group", "D20", "--word", "x1^2"], False),
        ("D20-x1*x2-d2-sampled",
         ["verify-theorem", "--group", "D20", "--word", "x1*x2", "--d", "2",
          "--samples", "250000", "--seed", str(seed)], True),
        # Refused with exit code 3 after the hom search: the exact census
        # needs 32^6 > 10^9 iterations.
        ("D16-x1*x2-d2-refused",
         ["verify-theorem", "--group", "D16", "--word", "x1*x2", "--d", "2"],
         False),
    ]


def _groups() -> list[Case]:
    # Each group is built once per pass: S6 (closure of 720 permutations)
    # by the commuting-probability case, C30xC30 (direct product of 900
    # elements, a word table of 810,000 cells) by the fiber-stats case.
    return [
        ("cp-S6", ["commuting-probability", "--group", "S6"], False),
        ("fibers-C30xC30-x1*x2-d2",
         ["fiber-stats", "--group", "C30xC30", "--word", "x1*x2", "--d", "2"],
         False),
        # The only caller of verify_commuting_corollary; small enough not to
        # shift the weight off the group layer.
        ("commuting-S4", ["verify-commuting", "--group", "S4"], False),
    ]


def _census(seed: int) -> list[Case]:
    return [
        ("S4-x1*x2-d2",
         ["verify-theorem", "--group", "S4", "--word", "x1*x2", "--d", "2"],
         False),
        # Abelian control: every inner-automorphism orbit is one element.
        ("C24-x1*x2-d2",
         ["verify-theorem", "--group", "C24", "--word", "x1*x2", "--d", "2"],
         False),
        # 10^7 samples take about 1 s, which puts this case in the middle of
        # the list, between the lemma cases and the exact censuses.
        ("S4-x1*x2-d2-sampled",
         ["verify-theorem", "--group", "S4", "--word", "x1*x2", "--d", "2",
          "--samples", "10000000", "--seed", str(seed)], True),
    ]


def _lemma(seed: int, workdir: Path) -> list[Case]:
    family = write_family(seed, workdir)
    # The fuzz seed is fixed: it draws each instance's size, so the work of
    # a fuzz run varies from seed to seed (by 17 %, IQR over median, at 400
    # instances).  The workload seed varies the family file instead, whose
    # size is fixed.
    # 50 instances take about 0.75 s; 400 take 6 to 8 s, of which too few
    # runs fit in one measurement for a steady median.
    return [
        ("fuzz-50", ["verify-lemma", "--fuzz", "50", "--seed", "0"], False),
        ("file-x1000", ["verify-lemma", "--file", family], True),
    ]
