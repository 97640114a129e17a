"""Finite groups as Cayley tables.

Elements are the ids 0..n-1, with no names, and 0 is always the identity.
Groups built from permutation generators get their ids from breadth-first
closure order, so a given generator list always yields the same table.
Construction goes through ``build`` with a small spec grammar:

    spec := atom ('x' atom)*
    atom := C<n> | D<n> (order 2n) | S<n> (n<=8) | A<n> (n<=8) | Q8
          | perm:(a b c)(d e), ...   (cycles on points 1..12)

Every constructor takes a table budget and refuses, before it allocates
them, the n^2 cells of a table over budget, and writes its table once.
Every table is a group by construction, whatever the input, so none is
checked at runtime: C<n>, D<n> and Q8 are formulas, a product multiplies two
groups componentwise, and a closure's table is the Cayley table of the
permutation group its generators span.  A closure finds its elements by
exact permutation codes, and fills its table a BFS level of rows at a time:
the row of an element found as a g is the row of a, read at the ids of the
products g b.  Inverses come from formulas too, not from a scan of the
table: -i mod n, each reflection itself, componentwise in a product, and
argsort of each permutation in a closure.  The test suite checks the group
axioms of every constructor's output with an independent oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DEFAULT_TABLE_BUDGET, check_budget, row_blocks


class GroupSpecError(ValueError):
    """Malformed or unsupported group spec text."""


@dataclass(eq=False)
class GroupTable:
    """A finite group of order n: multiplication table and inverses.

    ``mul`` (n x n) and ``inv`` (n) are read-only int64 arrays.  Whatever is
    passed in is converted without a copy where possible and frozen in place.
    """

    mul: np.ndarray
    inv: np.ndarray
    name: str = ""

    def __post_init__(self):
        for attr in ("mul", "inv"):
            table = np.asarray(getattr(self, attr), dtype=np.int64)
            table.flags.writeable = False
            setattr(self, attr, table)

    @property
    def n(self) -> int:
        return len(self.mul)


@dataclass(frozen=True, eq=False)
class CosetWalk:
    """How the walk of ``greedy_generators`` reaches the subgroup K that
    one more generator spans with the subgroup H reached before it, one
    right coset H t at a time.

    ``reps`` are the coset representatives in walk order, reps[0] = 0.  The
    levels of ``tree`` are pairs of arrays ``(parents, gen_idx)``: level by
    level, the reps after reps[0] are reps[parents[i]] * gens[gen_idx[i]].
    Every other product of a rep and a generator is a relation
    reps[a] * gens[gen_idx] = h * reps[b], with h in H, held as the arrays
    ``relations = (a, gen_idx, h, b)``.  ``elems`` are the elements of K
    outside H, elems[i] = h[i] * reps[rep[i]].
    """

    reps: np.ndarray
    tree: list[tuple[np.ndarray, np.ndarray]]
    relations: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    elems: np.ndarray
    h: np.ndarray
    rep: np.ndarray


def greedy_generators(G: GroupTable) -> tuple[list[int], list[CosetWalk]]:
    """Greedy generators, with the walk that finds them.

    Adjoin the smallest element not yet reached from 0 by right
    multiplication by the generators so far, until every element is.  After
    gens[j] is adjoined, the walk multiplies each new coset representative
    by every generator so far, breadth first, and ``walks[j]`` records it.
    The cosets it reaches are closed under right multiplication by those
    generators, so their union is the subgroup <gens[0], ..., gens[j]>.
    The walk takes one step per product and one per element reached.
    """
    n, M = G.n, G.mul
    sub = [0]  # the elements reached so far
    gens: list[int] = []
    walks = []
    while len(sub) < n:
        coset = [-1] * n  # e = h_of[e] * reps[coset[e]] once reached
        h_of = [0] * n
        for e in sub:
            coset[e], h_of[e] = 0, e
        gens.append(coset.index(-1))
        reps, tree, rels, elems = [0], [], [], []
        start = 0
        while start < len(reps):
            level, parents, gen_idx = reps[start:], [], []
            for a, t in enumerate(level, start):
                for i, g in enumerate(gens):
                    u = M.item(t, g)
                    if coset[u] >= 0:
                        rels.append((a, i, h_of[u], coset[u]))
                        continue
                    for h in sub:
                        e = M.item(h, u)
                        coset[e], h_of[e] = len(reps), h
                        elems.append(e)
                    reps.append(u)
                    parents.append(a)
                    gen_idx.append(i)
            start += len(level)
            if parents:
                tree.append((np.array(parents), np.array(gen_idx)))
        rels = np.array(rels, dtype=np.int64).reshape(-1, 4).T
        elems = np.array(elems, dtype=np.int64)
        walks.append(CosetWalk(
            reps=np.array(reps), tree=tree, relations=tuple(rels),
            elems=elems, h=np.array(h_of)[elems],
            rep=np.array(coset)[elems]))
        sub += elems.tolist()
    return gens, walks


def cyclic(n: int, budget: int = DEFAULT_TABLE_BUDGET) -> GroupTable:
    if n < 1:
        raise GroupSpecError("cyclic group needs n >= 1")
    check_budget(n * n, budget, f"building C{n}")
    ids = np.arange(n, dtype=np.int64)
    mul = ids[:, None] + ids
    mul %= n
    return GroupTable(mul=mul, inv=-ids % n, name=f"C{n}")


def dihedral(n: int, budget: int = DEFAULT_TABLE_BUDGET) -> GroupTable:
    """Dihedral group of order 2n: ids 0..n-1 are r^i, n..2n-1 are s r^i."""
    if n < 1:
        raise GroupSpecError("dihedral group needs n >= 1")
    check_budget(4 * n * n, budget, f"building D{n}")
    ids = np.arange(n, dtype=np.int64)
    mul = np.empty((2 * n, 2 * n), dtype=np.int64)
    add, sub = mul[:n, :n], mul[n:, n:]
    np.add(ids[:, None], ids, out=add)       # r^i r^j = r^(i+j)
    add %= n
    np.subtract(ids, ids[:, None], out=sub)  # (s r^i)(s r^j) = r^(j-i)
    sub %= n
    np.add(add, n, out=mul[n:, :n])          # (s r^i) r^j = s r^(i+j)
    np.add(sub, n, out=mul[:n, n:])          # r^i (s r^j) = s r^(j-i)
    # every reflection is its own inverse
    return GroupTable(mul=mul, inv=np.concatenate([-ids % n, n + ids]),
                      name=f"D{n}")


def quaternion(budget: int = DEFAULT_TABLE_BUDGET) -> GroupTable:
    """The quaternion group Q8: id 2u + s is (-1)^s times unit u of 1, i, j, k.

    Units multiply as u XOR v up to sign (i j = k, j k = i, k i = j).
    """
    check_budget(64, budget, "building Q8")
    # neg[u, v] = 1 where the unit product u v is negative
    neg = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    u, s = np.arange(8) >> 1, np.arange(8) & 1
    mul = 2 * (u[:, None] ^ u) + (s[:, None] ^ s ^ neg[u[:, None], u])
    # +-1 are their own inverses; every other unit u has inverse -u
    return GroupTable(mul=mul, inv=2 * u + (s ^ (u > 0)), name="Q8")


# -- permutation machinery (p[i] = image of point i; p q applies q first) ----

def closure(
    generators: list[tuple],
    budget: int = DEFAULT_TABLE_BUDGET,
    name: str = "",
) -> GroupTable:
    """Breadth-first closure of permutation generators.

    Element 0 is the identity; ids follow BFS discovery order (each element in
    turn is right-multiplied by the generators in their given order), so the
    ids are a pure function of the generator list.  The search runs a
    level at a time: the products of one level, in row-major (element,
    generator) order, come in the order in which a queue would meet them, so
    keeping each new product at its first occurrence gives the same ids, and
    that occurrence names the element's parent a and generator g, a g = e.
    The table is then filled a level at a time by rows: e b = a (g b).
    """
    degree = max((len(g) for g in generators), default=1)
    gens = np.array([tuple(g) + tuple(range(len(g), degree))
                     for g in generators], dtype=np.int64).reshape(-1, degree)
    k = len(gens)
    # A permutation's key is its base-degree code; degree <= 12 fits int64.
    weights = degree ** np.arange(degree - 1, -1, -1, dtype=np.int64)
    level = np.arange(degree, dtype=np.int64)[None, :]
    levels, parents, gen_idx = [level], [], []
    known = level @ weights  # sorted codes of every element found so far
    n = 1
    while True:
        prods = level[:, gens].reshape(-1, degree)  # (e g)[i] = e[g[i]]
        codes = prods @ weights
        fresh = np.flatnonzero(
            known.take(np.searchsorted(known, codes), mode="clip") != codes)
        new_codes, first = np.unique(codes[fresh], return_index=True)
        if not new_codes.size:
            break
        check_budget((n + new_codes.size) ** 2, budget,
                     f"closure of {name or 'the generators'}")
        first = fresh[np.sort(first)]
        parents.append(n - len(level) + first // k)  # the level's ids end at n
        gen_idx.append(first % k)
        level = prods[first]
        levels.append(level)
        known = np.insert(known, np.searchsorted(known, new_codes),
                          new_codes)
        n += new_codes.size
    elems = np.concatenate(levels)
    codes = elems @ weights
    order = np.argsort(codes)

    def ids(perms):
        return order[np.searchsorted(known, perms @ weights)]

    left = ids(gens[:, elems])  # left[j, b] = id of g_j b
    mul = np.empty((n, n), dtype=np.int64)
    mul[0] = np.arange(n)
    lo = 1
    for parent, gen in zip(parents, gen_idx):
        # Reading only the rows above this level, take needs no copy of out.
        above = mul[:lo].reshape(-1)
        for i, j in row_blocks(len(parent), n):
            index = left[gen[i:j]]
            index += n * parent[i:j, None]
            np.take(above, index, out=mul[lo + i:lo + j], mode="clip")
            del index  # so that the next block is not gathered beside it
        lo += len(parent)
    # The inverse of a permutation p is argsort(p).
    return GroupTable(mul=mul, inv=ids(np.argsort(elems, axis=1)),
                      name=name or "perm-closure")


def symmetric(n: int, budget: int = DEFAULT_TABLE_BUDGET) -> GroupTable:
    if not 1 <= n <= 8:
        raise GroupSpecError("S n supported for 1 <= n <= 8")
    if n == 1:
        return cyclic(1, budget)
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return closure(gens, budget, name=f"S{n}")


def alternating(n: int, budget: int = DEFAULT_TABLE_BUDGET) -> GroupTable:
    if not 1 <= n <= 8:
        raise GroupSpecError("A n supported for 1 <= n <= 8")
    if n <= 2:
        return cyclic(1, budget)
    gens = []
    for i in range(n - 2):
        p = list(range(n))
        p[i], p[i + 1], p[i + 2] = p[i + 1], p[i + 2], p[i]
        gens.append(tuple(p))
    return closure(gens, budget, name=f"A{n}")


def direct_product(A: GroupTable, B: GroupTable,
                   budget: int = DEFAULT_TABLE_BUDGET) -> GroupTable:
    """Componentwise product; id of (a, b) is a * B.n + b, so (0,0) = 0."""
    n = A.n * B.n
    check_budget(n * n, budget, f"building {A.name}x{B.name}")
    mul = (A.mul[:, None, :, None] * B.n + B.mul[None, :, None, :])
    inv = A.inv[:, None] * B.n + B.inv
    return GroupTable(mul=mul.reshape(n, n), inv=inv.reshape(n),
                      name=f"{A.name}x{B.name}")


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_CYCLES_FULL_RE = re.compile(r"(?:\s*\(\s*\d+(?:\s+\d+)*\s*\))+\s*")


def parse_cycles(text: str) -> tuple:
    """One generator in cycle notation, e.g. '(1 2 3)(4 5)', points 1..12."""
    if not _CYCLES_FULL_RE.fullmatch(text):
        raise GroupSpecError(f"bad cycle notation: {text!r}")
    cycles = []
    maxpt = 0
    for body in _CYCLE_RE.findall(text):
        pts = [int(t) for t in body.split()]
        if any(p < 1 or p > 12 for p in pts):
            raise GroupSpecError("permutation points must lie in 1..12")
        if len(set(pts)) != len(pts):
            raise GroupSpecError(f"repeated point inside a cycle: {text!r}")
        cycles.append(pts)
        maxpt = max(maxpt, max(pts))
    perm = list(range(maxpt))
    # the leftmost cycle acts first: perm becomes perm * cycle, last to first
    for cyc in reversed(cycles):
        nxt = perm[:]
        for i, p in enumerate(cyc):
            q = cyc[(i + 1) % len(cyc)]
            nxt[p - 1] = perm[q - 1]
        perm = nxt
    return tuple(perm)


def _build_atom(atom: str, budget: int) -> GroupTable:
    atom = atom.strip()
    if atom.startswith("perm:"):
        gen_text = atom[len("perm:"):]
        gens = [parse_cycles(part) for part in gen_text.split(",")]
        return closure(gens, budget, name=atom)
    m = re.fullmatch(r"([CDSA])\s*(\d+)", atom)
    if atom == "Q8":
        return quaternion(budget)
    if not m:
        raise GroupSpecError(f"unrecognised group atom: {atom!r}")
    kind, num = m.group(1), int(m.group(2))
    if kind == "C":
        return cyclic(num, budget)
    if kind == "D":
        return dihedral(num, budget)
    if kind == "S":
        return symmetric(num, budget)
    return alternating(num, budget)


def build(spec: str, budget: int = DEFAULT_TABLE_BUDGET) -> GroupTable:
    """Build a group from spec text (see module docstring for the grammar)."""
    spec = spec.strip()
    if not spec:
        raise GroupSpecError("empty group spec")
    atoms = spec.split("x")
    if any(not a.strip() for a in atoms):
        raise GroupSpecError(f"empty atom in spec: {spec!r}")
    G = _build_atom(atoms[0], budget)
    for atom in atoms[1:]:
        G = direct_product(G, _build_atom(atom, budget), budget)
    G.name = "x".join(a.strip() for a in atoms)
    return G


# -- elementary queries -------------------------------------------------------

def power_table(G: GroupTable, e: int) -> np.ndarray:
    """The e-th power map as a table over all elements, by square-and-multiply
    on whole arrays; negative exponents via the inverse."""
    base = G.inv if e < 0 else np.arange(G.n, dtype=np.int64)
    e = abs(e)
    acc = np.zeros(G.n, dtype=np.int64)
    while e:
        if e & 1:
            acc = G.mul[acc, base]
        base = G.mul[base, base]
        e >>= 1
    return acc


def commuting_probability(G: GroupTable) -> Fraction:
    """Exact proportion of commuting ordered pairs, |{(a,b): ab=ba}| / n^2."""
    return Fraction(int((G.mul == G.mul.T).sum()), G.n * G.n)
