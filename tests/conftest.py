"""Shared fixtures and independent oracle helpers.

The oracles here deliberately avoid the library's vectorized code paths:
they re-derive expected values with plain loops so the tests pin behaviour
from a second, slower direction.
"""

from __future__ import annotations

import itertools

import pytest

from wordmaplab import build

# The verification battery: every group spec used by the acceptance suite.
BATTERY_SPECS = [
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
    "C2xC2", "C2xC4", "S3", "D4", "Q8", "A4",
]
EXTENDED_SPECS = BATTERY_SPECS + ["D8", "C16", "C4xC4", "C2xC2xC2xC2"]


@pytest.fixture(scope="session")
def groups():
    """One shared table per battery spec (construction is deterministic)."""
    return {spec: build(spec) for spec in BATTERY_SPECS}


@pytest.fixture(scope="session")
def extended_groups(groups):
    out = dict(groups)
    for spec in EXTENDED_SPECS:
        if spec not in out:
            out[spec] = build(spec)
    return out


def naive_census(w, G, d):
    """Solution count of the triple equation by direct double evaluation."""
    n = G.n
    mul, inv = G.mul.tolist(), G.inv.tolist()

    def evaluate(tup):
        acc = 0
        for var, exp in w.syllables:
            x = tup[var - 1] if exp > 0 else inv[tup[var - 1]]
            for _ in range(abs(exp)):
                acc = mul[acc][x]
        return acc

    count = 0
    domain = list(itertools.product(range(n), repeat=d))
    for s in domain:
        s_inv = [inv[x] for x in s]
        ws = evaluate(s)
        for t in domain:
            st = [mul[s_inv[i]][t[i]] for i in range(d)]
            wt = evaluate(t)
            prefix = mul[inv[ws]][wt]
            for u in domain:
                arg = [mul[st[i]][u[i]] for i in range(d)]
                lhs = evaluate(arg)
                rhs = mul[prefix][evaluate(u)]
                count += lhs == rhs
    return count


def brute_force_endos(G):
    """Every function G -> G that is a homomorphism, by raw enumeration."""
    n = G.n
    mul = G.mul.tolist()
    out = []
    for vals in itertools.product(range(n), repeat=n):
        if all(
            vals[mul[a][b]] == mul[vals[a]][vals[b]]
            for a in range(n) for b in range(n)
        ):
            out.append(vals)
    return out


def hom_value_table(G, comps):
    """Values of the hom G^d -> G with component tables ``comps`` (d lists
    of n ids) on every tuple of G^d, in index order, by plain loops."""
    mul = G.mul.tolist()
    out = []
    for tup in itertools.product(range(G.n), repeat=len(comps)):
        acc = 0
        for c, g in zip(comps, tup):
            acc = mul[acc][c[g]]
        out.append(acc)
    return tuple(out)
