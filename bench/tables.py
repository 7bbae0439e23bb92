"""Finite group tables generated for the benchmark in plain Python.

The benchmark writes these tables to disk as inputs and also uses them as an
independent oracle (factor multiplication, generating-set sizes), so nothing
here imports gpkit.  Every table has the identity at index 0.
"""

from __future__ import annotations

import itertools


def _compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def perm_group(gens):
    """Multiplication table of the permutation group generated by gens."""
    ident = tuple(range(len(gens[0])))
    elems = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = _compose(p, g)
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    perms = sorted(elems)
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[_compose(p, q)] for q in perms] for p in perms]


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def direct_product(t1, t2):
    n2 = len(t2)
    pairs = [(a, b) for a in range(len(t1)) for b in range(n2)]
    return [[t1[a1][b1] * n2 + t2[a2][b2] for (b1, b2) in pairs] for (a1, a2) in pairs]


def relabel(table, rng):
    """Isomorphic copy under a random renaming of the non-identity elements."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    name = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[name[a]][name[b]] = name[table[a][b]]
    return out


def s3():
    return perm_group([(1, 0, 2), (1, 2, 0)])


def d4():
    return perm_group([(1, 2, 3, 0), (1, 0, 3, 2)])


def s4():
    return perm_group([(1, 0, 2, 3), (1, 2, 3, 0)])


def order48():
    """Z2 x S4."""
    return direct_product(cyclic(2), s4())


def closure(table, gens):
    seen = {0} | set(gens)
    frontier = list(seen)
    while frontier:
        a = frontier.pop()
        for b in list(seen):
            for c in (table[a][b], table[b][a]):
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
    return seen


def min_generators(table):
    """Size of a smallest generating set."""
    n = len(table)
    for size in range(1, n):
        for combo in itertools.combinations(range(1, n), size):
            if len(closure(table, combo)) == n:
                return size
    return 0


def random_generators(table, rng, max_size=2):
    """A random list of non-identity elements that generates the group."""
    n = len(table)
    while True:
        gens = [rng.randrange(1, n) for _ in range(rng.randint(1, max_size))]
        if len(closure(table, gens)) == n:
            return gens


def corrupt(table, rng):
    """A Latin square with identity 0 that is not a group: one intercalate of
    non-identity entries is swapped, so only the associativity scan can
    reject it."""
    n = len(table)
    spots = [
        (a, b, c, d)
        for a, b in itertools.combinations(range(1, n), 2)
        for c, d in itertools.combinations(range(1, n), 2)
        if table[a][c] == table[b][d] and table[a][d] == table[b][c]
        and 0 not in (table[a][c], table[a][d])
    ]
    rng.shuffle(spots)
    for a, b, c, d in spots:
        out = [row[:] for row in table]
        out[a][c], out[a][d] = out[a][d], out[a][c]
        out[b][c], out[b][d] = out[b][d], out[b][c]
        if not is_associative(out):
            return out
    raise ValueError("no intercalate swap breaks associativity")


def is_associative(table):
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def table_text(table):
    return f"{len(table)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in table)
