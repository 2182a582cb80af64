"""Scalar test oracles for code enumeration, sign-orbit representatives,
collision grouping and the scan's keying of sig rows.

They share only LinearCode's canonical rows and weight_distribution with
the library, and none of the scan's pivot-pattern enumeration, support
tables, codeword tables, bucket grouping or packed orbit code, so
agreement with toriso.search is evidence rather than circularity.
"""

import itertools
import math

import numpy as np

from toriso.codes import LinearCode, weight_distribution


def monomial_images(code):
    """Every image of the code under signed coordinate permutations."""
    q, n = code.modulus, code.length
    signs = (1,) if q == 2 else (1, q - 1)
    for perm in itertools.permutations(range(n)):
        for sign in itertools.product(signs, repeat=n):
            rows = tuple(tuple(sign[i] * r[perm[i]] % q for i in range(n)) for r in code.rows)
            yield LinearCode(q, n, rows)


def sign_images(code):
    """Canonical rows of every image of the code under column signs, which
    is its orbit under the row and column signs that keep its pivots."""
    q, n = code.modulus, code.length
    signs = (1,) if q == 2 else (1, q - 1)
    return {LinearCode(q, n, tuple(tuple(d[j] * r[j] % q for j in range(n)) for r in code.rows)).rows for d in itertools.product(signs, repeat=n)}


def kruskal_forest(rows):
    """The entries (i, j) of canonical rows, in row-major order, that join
    two components of the graph whose vertices are the rows and the
    non-pivot columns and whose edges are the nonzero non-pivot entries."""
    pivots = {next(j for j, x in enumerate(r) if x) for r in rows}
    parent = {}

    def root(v):
        while v in parent:
            v = parent[v]
        return v

    forest = []
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            a, b = root(("row", i)), root(("column", j))
            if x and j not in pivots and a != b:
                parent[b] = a
                forest.append((i, j))
    return forest


def sign_canonical(code):
    """The code's sign-orbit representative, by brute force over all 2**n
    column sign patterns, and the size of its sign orbit: the one image
    whose Kruskal forest entries all lie in 1..(q - 1)/2.  Over GF(2),
    where -1 = 1, the code itself."""
    q, images = code.modulus, sign_images(code)
    if q == 2:
        return code.rows, 1
    reps = [rows for rows in images if all(rows[i][j] <= (q - 1) // 2 for i, j in kruskal_forest(rows))]
    assert len(reps) == 1, reps
    return reps[0], len(images)


def sign_least_orbit(code):
    """One sign-orbit representative per column permutation, sorted: the
    images of monomial_images under each permutation share one, so every
    len / n!-th of their sorted representatives, each sign orbit
    brute-forced once."""
    reps, out = {}, []
    for img in monomial_images(code):
        if img.rows not in reps:
            rep, _ = sign_canonical(img)
            reps.update(dict.fromkeys(sign_images(img), rep))
        out.append(reps[img.rows])
    return sorted(out)[:: len(out) // math.factorial(code.length)]


def permuted_reductions(rows, q):
    """RREF(G P) of a rank-k generator matrix G (k lists of n residues mod
    a prime q) under every column permutation P, in itertools.permutations
    order: n! reductions from scratch, each LinearCode's canonical rows of
    the permuted columns, image column j being column P(j) of G."""
    n = len(rows[0])
    return [LinearCode(q, n, tuple(tuple(r[p] for p in perm) for r in rows)).rows for perm in itertools.permutations(range(n))]


def expanded_canonical_form(code):
    """The least canonical rows over the whole 2**n * n! expansion: one
    reduction per signed permutation image."""
    return min(img.rows for img in monomial_images(code))


def all_codes(q, n, k):
    """Every k-dimensional code of length n over Z_q, brute force: all
    k-subsets of nonzero vectors, kept when they span rank k."""
    nonzero = [v for v in itertools.product(range(q), repeat=n) if any(v)]
    seen = {}
    for rows in itertools.combinations(nonzero, k):
        code = LinearCode(q, n, rows)
        if len(code.rows) == k:
            seen.setdefault(code.rows, code)
    return [seen[rows] for rows in sorted(seen)]


def dual_code(code):
    """C^perp under the standard product mod a prime q, read off the
    canonical rows R: one word per non-pivot column f, 1 at f and
    -R[i][f] at the pivot of each row i."""
    q, n, rows = code.modulus, code.length, code.rows
    pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
    words = []
    for f in (f for f in range(n) if f not in pivots):
        word = [0] * n
        word[f] = 1
        for r, p in zip(rows, pivots):
            word[p] = -r[f] % q
        words.append(tuple(word))
    return LinearCode(q, n, tuple(words))


def subtract_orbits(q, n, members):
    """Split canonical rows into monomial classes by subtracting one
    member's full scalar orbit at a time.  Returns the sorted (least
    canonical rows of the orbit, class size) pairs."""
    rest = list(members)
    classes = []
    while rest:
        orbit = {img.rows for img in monomial_images(LinearCode(q, n, min(rest)))}
        classes.append((min(orbit), sum(rows in orbit for rows in rest)))
        rest = [rows for rows in rest if rows not in orbit]
    return sorted(classes)


def collide_codes(codes, min_tuple=2):
    """Bucket codes by weight distribution, then split each bucket into
    monomial classes with subtract_orbits.  Returns (class
    representatives, bucket size, class sizes) per bucket with at least
    min_tuple classes, everything sorted."""
    buckets = {}
    for c in codes:
        buckets.setdefault(weight_distribution(c), []).append(c)
    out = []
    for members in buckets.values():
        if len(members) < min_tuple:
            continue
        classes = subtract_orbits(members[0].modulus, members[0].length, [c.rows for c in members])
        if len(classes) >= min_tuple:
            out.append((tuple(rows for rows, _ in classes), len(members), tuple(size for _, size in classes)))
    out.sort()
    return out


def count_row(code, dtype):
    """The scan's bucket key of a code, from its scalar weight
    distribution: entry s counts the words in which each folded value
    w = 1..q//2 occurs c_w times, s = sum of c_w * (n + 1)**(w - 1)."""
    q, n = code.modulus, code.length
    row = np.zeros((n + 1) ** (q // 2), dtype=np.int64)
    for sig in weight_distribution(code):
        row[sum(sig.count(w) * (n + 1) ** (w - 1) for w in range(1, q // 2 + 1))] += 1
    return row.astype(dtype)


def group_rows(rows, ids):
    """Group ids by equal count rows with a lexicographic np.unique over
    whole rows (the scan's former grouping).  Returns {row bytes: sorted
    ids}."""
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    return {row.tobytes(): np.sort(ids[inverse == u]) for u, row in enumerate(uniq)}


def void_row_keys(sig):
    """Keys and labels of sig rows by sorting each row (a stable, radix,
    sort for 1-byte sigs) and running np.unique over the rows read as void,
    which compares them bytewise.  Returns the sorted distinct rows as one
    void array and each row's index into them."""
    sig = np.sort(sig, axis=1, kind="stable" if sig.itemsize == 1 else None)
    return np.unique(sig.view(np.dtype((np.void, sig.shape[1] * sig.itemsize))).ravel(), return_inverse=True)
