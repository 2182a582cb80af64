"""Bulk collision search over linear codes: find tuples of pairwise
monomially inequivalent codes sharing one folded weight distribution.

The scan is exact end to end.  Codes are generated per reduced-echelon
pivot pattern, one per sign orbit (below), and their codewords weighed
in vectorized batches (a word's coordinate c . g[:, j] depends only on
the code's column j, so each coordinate adds one row of a q**k-row term
table to all of a code's words).  A word's sig is the sum of c_w * (n +
1)**(w - 1) over the counts c_w <= n of its folded values w = 1..q//2,
so it spells the word's folded composition in base n + 1, and a search
needs (n + 1)**(q//2) < 2**63 so that the int64 terms cannot wrap.
Since fold(-v) = fold(v), the words c . G and -c . G have one sig, and
the zero word's sig is 0.  So the sorted sigs of all q**k words are a 0
followed by the sigs of one word of each +-pair, each taken twice (over
GF(2) every word is its own pair and taken once), and the scan weighs
only the coefficient vectors c != 0 with index(c) <= index(-c): (q**k -
1) / 2 of them for odd q, q**k - 1 for q = 2.  A code's sorted row of
those sigs is thus its weight distribution; read as one opaque byte
string, it is an exact bucket key: two codes share one if and only if
their weight distributions are equal.  A partition returns its sorted
distinct keys and one label, an index into them, per code; packed code
ids and weights are computed from the representative ranges at the
merge.  A code's 1-byte sigs are sorted as uint32, in blocks of rows,
since numpy's SIMD sorts take 32-bit keys with AVX2 or AVX-512 but 8-bit
keys with neither; wider sigs are sorted as they are.  np.unique over
the sorted rows read as void then gives the distinct keys in bytewise
order.
Buckets are then partitioned into monomial equivalence classes by orbit
subtraction: the sign-orbit representatives in one member's class, one
per column permutation (below), are packed and intersected with the
bucket, which removes that class exactly.  Buckets with at least
min_tuple classes survive as collision tuples and are re-verified through
the scalar code path and the lattice correspondence before being
reported.

Sign orbits.  Every pivot pattern is closed under row signs s_i (with the
matching pivot column sign, which keeps the pivot 1) and non-pivot column
signs t_j, which map a free entry A[i, j] to s_i t_j A[i, j]; these maps
are monomial, so they keep the weight distribution and the class.  Read
the support of A as a bipartite graph on the k rows and the n - k
non-pivot columns, and take its entries in row-major order, as in
Kruskal's algorithm: an entry that joins two components is a forest
entry.  The signs that fix A are constant on each component, so A's sign
orbit has 2**(n - c) members, c being the number of components with
isolated vertices counted, and it holds exactly one code whose forest
entries all lie in 1..(q - 1)/2 (fix each forest entry in turn by
flipping the component on its column side, which no earlier entry
crosses).  The scan enumerates those representatives only and weighs
each by its orbit size: per support mask (the free positions in
row-major order, the first one the most significant bit) the
representatives are a product set, forest entries in 1..(q - 1)/2 and
other support entries in 1..q - 1, numbered by mask and then in mixed
radix, the last free position the least significant digit; _supports
caches each pattern's forest masks and the numbers of the masks' first
representatives.  A mask's representatives times their weight are (q -
1)**|support|, so the weights sum to q**|free| on every pattern, and
run_search checks that they sum to the family's size.  Over GF(2), where
-1 = 1, every code is its own representative, of weight 1, and its
number is its base-2 code number.  A bucket holds representative ids
and their weights; a code lies in a class exactly when its id lies in
the class's packed orbit, so a class's size is the weight of the
bucket's representatives its orbit holds.

Partitions keep the code-number split: pattern p has ceil(q**|free_p| /
chunk_size) partitions keyed "p:c", and partition c holds its
representatives c * R_p // P_p up to (c + 1) * R_p // P_p, R_p being
their number and P_p the pattern's partitions.  So a search has as many
partitions and progress calls as over codes, and a partition may be
empty.

An orbit costs C(n, k) row reductions and n! sign-least images, not
n! * 2**n reductions.  Let R = RREF(G P) for a column permutation P, with
pivot column p(i) in row i.  Its pivots pick the greedy basis S of G's
columns in P's order, the basis whose sorted places under P are
lexicographically least, and R = G[:, S]^-1 G P with the rows ordered by
the places of their pivots.  So each of the C(n, k) column subsets S is
reduced once, as [G[:, S] | G]: it is a basis exactly when its block
reduces to I, and then the rest is G[:, S]^-1 G.  The greedy basis of
every P is then found column by column from the masks of the columns that
lie inside some basis, and R is gathered from its reduced subset.  Let D
be a diagonal matrix of signs s_j = +-1.  R D is still in echelon form
with the same pivots; only the pivot entry s_p(i) of each row needs
scaling back to 1, and s^-1 = s because (q - 1)**2 = 1 mod q.  So
RREF(G P D)[i, j] = s_p(i) * s_j * R[i, j] mod q: the images under P are
R's sign orbit, and only its representative is built.  That
representative is also the orbit's least packed id.  A packed id reads
the entries in row-major order, the first the most significant; fixing
each forest entry in turn to the smaller of x and q - x, by flipping the
component on its column side, changes no entry before it, and every other
entry is fixed by the entries before it.  So the canonical id of a class,
the least id of its orbit, is the least of its n! representatives, and a
bucket, which holds representatives only, meets the class in some of
them.  _sign_least builds the representatives of a block of images at
once, in k * n steps of one union-find over the k row and n column
vertices of every image: a nonzero entry that joins two components (each
row's pivot entry, 1, among them) flips the column side when its value
under the signs so far exceeds (q - 1)/2, and each vertex's sign is
applied to the entries at the end.  Over GF(2) the only sign is 1, and R
is its own representative.

Orbit subtraction runs in rounds across all buckets that hold at least
min_tuple representatives: each round takes the least id left in every
bucket not yet empty, and one numpy pass packs the orbits of a block of
representatives, as many as fit a few MiB by the orbit estimate.
Membership is a binary search in each sorted orbit.  Each bucket's
classes come out as its own loop would give them, so the rounds change
no class.

Codes are tracked as packed base-q integers of their canonical generator
rows; the orbit minimum of those ids is the canonical monomial form, so
class representatives come out canonical for free.  Determinism: bucket
keys, class representatives, and reported tuples are all sorted, so a
finished search is byte-for-byte reproducible.

A checkpoint is a sequence of gzip members, one JSON line each: a header
{"schema": 6, "params": ...} naming the search, then one [key, [hex
bucket keys], hex little-endian labels] record per finished partition,
one label per representative, in partition order.  Each record is encoded and compressed once, when
its partition finishes, and appended; every save writes the whole byte
string to a sibling temporary file and renames it over the checkpoint,
so a crash leaves the previous checkpoint intact.  A resumed search
reads the file once, skips the partitions it holds and appends the rest,
so its final checkpoint is byte-identical to that of an uninterrupted
run.  A key is _half_words(q, k) sigs of _sig_dtype; schema 3 keyed
buckets by count rows, schema 4 by the sigs of all q**k words and schema
5 labelled every code rather than every representative, so their files
are refused by the schema.

Duality: (q, n, n - k) repeats (q, n, k), so only k <= n/2 needs a run.
lift(C)* = (1/q) lift(C^perp) for the dual code under the product mod q:
the dual lies in (1/q) Z^n, and z/q pairs integrally with C + qZ^n
exactly when z mod q is orthogonal to C.  By Poisson summation theta(L*)
is a function of theta(L), and L, L' are isometric exactly when L*, L'*
are.  A signed permutation M has M^-T = M, so (C M)^perp = C^perp M, and
by MacWilliams the dual's weight distribution is an invertible function
of the code's.  So C -> C^perp carries buckets, classes and tuples one to
one, on the systematic family too once [I | A]^perp = [-A^T | I] has its
two column blocks swapped.

_patterns, _free_positions, _supports and _entries are the library's one
enumeration of codes.  The scalar orbit in toriso.codes repeats the packed orbit here
on purpose, as verify_tuple's independent re-check (see that module).
"""

from __future__ import annotations

import collections
import dataclasses
import gzip
import itertools
import json
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, log2
from pathlib import Path

import numpy as np

from .codes import (
    CodeError,
    LinearCode,
    _is_prime,
    canonical_monomial_form,
    lift,
    weight_distribution,
)
from .isometry import EquivalenceWitness, integral_equivalence
from .lattices import Lattice, gram
from .spectra import IsoCertificate, Verdict, certify

MAX_TOTAL_CODES = 50_000_000
MAX_PARTITION_BYTES = 1 << 28  # largest table one scan partition or orbit may allocate
_ORBIT_BLOCK_BYTES = 1 << 22  # orbit estimates of the representatives stacked in one _orbit_rows call
CHECKPOINT_SCHEMA = 6
_SORT_BLOCK = 1024  # rows of 1-byte sigs sorted at a time as uint32


class TupleVerificationError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class CollisionTuple:
    """Pairwise inequivalent codes sharing one weight distribution.

    certificates and pairwise hold the verification artifacts for each
    unordered pair (i, j), i < j, in row-major order; both are empty on
    candidates that have not been verified.
    """

    codes: tuple[LinearCode, ...]
    lattices: tuple[Lattice, ...]
    weight_distribution: tuple[tuple[int, ...], ...]
    certificates: tuple[IsoCertificate, ...] = ()
    pairwise: tuple[EquivalenceWitness, ...] = ()
    bucket_size: int = 0
    class_sizes: tuple[int, ...] = ()

    @property
    def verified(self) -> bool:
        pairs = len(self.codes) * (len(self.codes) - 1) // 2
        return len(self.certificates) == pairs and len(self.pairwise) == pairs


@dataclass(frozen=True)
class SearchReport:
    modulus: int
    length: int
    dimension: int
    family: str
    min_tuple: int
    codes_scanned: int
    distinct_distributions: int
    collisions: tuple[CollisionTuple, ...]
    verified: bool


def _patterns(n: int, k: int, family: str):
    if family == "systematic":
        return [tuple(range(k))]
    if family == "all":
        return list(itertools.combinations(range(n), k))
    raise CodeError(f"unknown family {family!r}")


def _free_positions(n: int, k: int, pivots) -> list[tuple[int, int]]:
    return [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]


# holds every pattern of a search: the orbit guard admits n <= 9, C(9, 4) = 126
@lru_cache(maxsize=128)
def _supports(q, n, k, pivots):
    """Support table of one pivot pattern, for odd q: per support mask
    (bit F - 1 - f set when free position f is nonzero, F free positions),
    its Kruskal forest as such a mask, and the number of its first
    representative, with the pattern's representative count appended."""
    free = _free_positions(n, k, pivots)
    masks = np.arange(1 << len(free), dtype=np.int64)
    forest = np.zeros_like(masks)
    # vertices: the k rows, then the non-pivot columns; comp labels each
    # vertex with its component
    vertex = dict(zip((j for j in range(n) if j not in pivots), range(k, n)))
    comp = np.tile(np.arange(n, dtype=np.int8), (len(masks), 1))
    for f, (i, j) in enumerate(free):
        bit = len(free) - 1 - f
        row, col = comp[:, i].copy(), comp[:, vertex[j]].copy()
        join = (masks >> bit & 1).astype(bool) & (row != col)
        forest[join] |= 1 << bit
        np.copyto(comp, row[:, None], where=join[:, None] & (comp == col[:, None]))
    trees = np.bitwise_count(forest).astype(np.int64)
    counts = ((q - 1) // 2) ** trees * (q - 1) ** (np.bitwise_count(masks) - trees)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    forest.setflags(write=False)  # every caller of the cache shares them
    offsets.setflags(write=False)
    return forest, offsets


def _representatives(q, n, k, pivots) -> int:
    """Sign-orbit representatives of one pivot pattern; over GF(2), where
    -1 = 1, every code."""
    return 2 ** len(_free_positions(n, k, pivots)) if q == 2 else int(_supports(q, n, k, pivots)[1][-1])


def _locate(q, n, k, pivots, start, stop):
    """Support mask, forest mask and place in the mask's product set of
    each representative start..stop-1 of one pivot pattern.  Over GF(2) a
    representative's number is its mask, as a base-2 code number."""
    number = np.arange(start, stop, dtype=np.int64)
    if q == 2:
        return number, np.zeros_like(number), np.zeros_like(number)
    forests, offsets = _supports(q, n, k, pivots)
    mask = np.searchsorted(offsets, number, side="right") - 1
    return mask, forests[mask], number - offsets[mask]


def _entries(q, n, k, pivots, start, stop):
    """(free position, entry of each representative start..stop-1) pairs
    of one pivot pattern, the last free position first: the place in the
    mask's product set is read in mixed radix, the last free position its
    least significant digit, a forest entry taking 1..(q - 1)/2, any other
    support entry 1..q - 1 and an entry off the support 0."""
    mask, forest, place = _locate(q, n, k, pivots, start, stop)
    radix = np.array([1, q - 1, (q - 1) // 2])  # off the support, on it, in the forest
    for bit, pos in enumerate(reversed(_free_positions(n, k, pivots))):
        on = mask >> bit & 1
        place, digit = np.divmod(place, radix[on + (forest >> bit & 1)])
        yield pos, on * (digit + 1)


@lru_cache(maxsize=8)
def _permutations(n: int) -> np.ndarray:
    """The n! column permutations in itertools.permutations order."""
    return np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))), np.intp, n * factorial(n)).reshape(-1, n)


@lru_cache(maxsize=8)
def _subset_tables(n: int, k: int):
    """The k-subsets of the n columns in combinations order as a (C(n, k), k)
    array; the number of the subset each column bit mask is, -1 if it is
    none; which subsets contain each mask, (2**n, C(n, k)); and the number
    of columns of each mask below each column, (2**n, n)."""
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    masks = np.arange(1 << n)
    subset_masks = (1 << subsets).sum(axis=1)
    number = np.full(1 << n, -1, np.intp)
    number[subset_masks] = np.arange(len(subsets))
    contains = (masks[:, None] & ~subset_masks[None, :]) == 0
    bits = masks[:, None] >> np.arange(n) & 1
    return subsets, number, contains, np.cumsum(bits, axis=1) - bits


def _batch_rref(mats: np.ndarray, q: int) -> np.ndarray:
    """Reduced row echelon form mod prime q of a stack of matrices."""
    work = np.mod(mats, q).astype(np.int16)
    bsz, k, n = work.shape
    inv = np.zeros(q, np.int16)
    for v in range(1, q):
        inv[v] = pow(v, -1, q)
    row = np.zeros(bsz, np.int64)
    rng_k = np.arange(k)
    for col in range(n):
        cand = (work[:, :, col] != 0) & (rng_k[None, :] >= row[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        b = np.nonzero(has)[0]
        r = row[b]
        f = np.argmax(cand, axis=1)[b]
        saved = work[b, r, :].copy()
        work[b, r, :] = work[b, f, :]
        work[b, f, :] = saved
        pv = work[b, r, col]
        work[b, r, :] = (work[b, r, :] * inv[pv][:, None]) % q
        factors = work[b, :, col].copy()
        factors[np.arange(len(b)), r] = 0
        work[b] = (work[b] - factors[:, :, None] * work[b, r, :][:, None, :]) % q
        row[b] = r + 1
    return work


def _pack_powers(q: int, k: int, n: int) -> np.ndarray:
    if (k * n) * log2(q) > 62:
        raise CodeError("code id does not fit a 64-bit pack; space too large")
    return (q ** np.arange(k * n - 1, -1, -1, dtype=np.int64)).astype(np.int64)


def _pack(mats: np.ndarray, powers: np.ndarray) -> np.ndarray:
    # einsum casts the entries to int64 in buffered chunks, not as one copy
    return np.einsum("ij,j->i", mats.reshape(len(mats), -1), powers)


def _unpack(ids: np.ndarray, q: int, n: int, powers: np.ndarray) -> np.ndarray:
    """Generator rows (codes, k, n) of packed code ids."""
    return (ids[:, None] // powers % q).reshape(len(ids), -1, n)


def _permuted_rrefs(reps: np.ndarray, q: int) -> np.ndarray:
    """RREF(G P) of each rank-k code G in reps (codes, k, n) under each
    column permutation P of _permutations, as int16 (codes, n!, k, n).

    Only the C(n, k) column subsets S of each code are row-reduced, each
    as [G[:, S] | G]: S is a basis exactly when its block reduces to I,
    and the rest is then R_S = G[:, S]^-1 G (module docstring)."""
    b, k, n = reps.shape
    perms = _permutations(n)
    subsets, number, contains, below = _subset_tables(n, k)
    work = np.concatenate([reps[:, :, subsets].transpose(0, 2, 1, 3), np.repeat(reps[:, None], len(subsets), axis=1)], axis=3)
    reduced = _batch_rref(work.reshape(-1, k, k + n), q).reshape(b, len(subsets), k, k + n)
    basis = (reduced[:, :, :, :k] == np.eye(k, dtype=np.int16)).all(axis=(2, 3))
    independent = (contains[None] & basis[:, None, :]).any(axis=2)  # (codes, 2**n): inside some basis
    # the greedy basis in each permutation's column order, as a column mask,
    # and the places it takes its columns at
    mask = np.zeros((b, len(perms)), np.intp)
    taken = np.empty((b, len(perms), n), bool)
    offset = np.arange(b)[:, None] << n
    for place in range(n):
        grown = mask | (1 << perms[:, place])
        taken[:, :, place] = independent.ravel()[offset + grown]
        np.copyto(mask, grown, where=taken[:, :, place])
    pivots = (np.flatnonzero(taken) % n).reshape(b, len(perms), k)
    # row i of RREF(G P) is the row of R_S whose 1 sits in the column of
    # pivot i, column j gathered from column P(j)
    columns = perms[np.arange(len(perms))[:, None], pivots]
    first = (np.arange(b)[:, None] * len(subsets) + number[mask]) * k  # R_S's first row in the stack
    rows = first[:, :, None] + below[mask[:, :, None], columns]
    return reduced[:, :, :, k:].reshape(-1, n)[rows[:, :, :, None], perms[None, :, None, :]]


def _sign_least(images: np.ndarray, q: int) -> None:
    """Each reduced image in images (m, k, n) over an odd prime q replaced
    by its sign-orbit representative, in place.  The entries are taken in
    row-major order as the steps of one union-find over the k row and n
    column vertices of every image; a nonzero entry joining two components
    flips the column side when its value under the signs so far exceeds
    (q - 1)/2 (module docstring)."""
    m, k, n = images.shape
    comp = np.tile(np.arange(k + n, dtype=np.int8), (m, 1))  # each vertex's component
    flip = np.zeros((m, k + n), bool)  # each vertex's sign, True for -1
    for i in range(k):
        for j in range(i, n):  # row i's entries left of column i are 0
            x = images[:, i, j]
            row, col = comp[:, i].copy(), comp[:, k + j].copy()
            join = (x != 0) & (row != col)
            # the entry is x or q - x as the signs of its row and column agree
            turn = join & ((x > q // 2) != (flip[:, i] != flip[:, k + j]))
            side = comp == col[:, None]
            flip ^= side & turn[:, None]
            np.copyto(comp, row[:, None], where=side & join[:, None])
    negated = flip[:, :k, None] != flip[:, None, k:]
    np.subtract(q, images, out=images, where=negated & (images != 0))


def _orbit_rows(reps: np.ndarray, q: int, powers: np.ndarray) -> np.ndarray:
    """Packed ids of the sign-orbit representatives of RREF(G P), one per
    column permutation P, of each code G in reps (codes, k, n), as one
    sorted row of n! ids per code; a row may repeat an id.  Its first id
    is the code's canonical id, and it holds every representative of the
    code's class (module docstring)."""
    b, k, n = reps.shape
    images = _permuted_rrefs(reps, q).reshape(-1, k, n)
    if q > 2:  # over GF(2) every code is its own representative
        _sign_least(images, q)
    ids = _pack(images, powers).reshape(b, -1)
    ids.sort(axis=1)
    return ids


def _orbit_bytes(q, n, k, reps):
    """Bytes _orbit_rows allocates at most for reps representatives and
    its cached tables: per column permutation of each representative, the
    int64 mask of its greedy basis and the temporaries that grow it, the n
    places it takes, the int64 pivots, columns and rows of the basis, k
    each, with their temporaries, its int16 image and its id; per column
    subset, [G[:, S] | G] as int64 and int16 and the masks inside S; once,
    the n! permutations, the subset tables and 256 KiB of numpy buffers
    and small arrays.  The sign step's int8 components and bool signs and
    temporaries, 4 * (k + n) bytes an image, and the 3 * k * n bools of
    its negated entries come after the basis data is freed, and take less
    than it for every n <= 9, all the guard admits."""
    perms, subsets = factorial(n), comb(n, k)
    orbit = perms * (2 * k * n + 40 * k + n + 48) + subsets * (48 * k * (k + n) + (1 << n))
    return reps * orbit + 8 * n * perms + (subsets + 10 * n) * (1 << n) + (1 << 18)


def _label_dtype(keys: int) -> np.dtype:
    return np.dtype("<u1" if keys <= 1 << 8 else "<u2" if keys <= 1 << 16 else "<u4")


def _sig_dtype(q: int, n: int) -> np.dtype:  # holds every word sig
    return np.min_scalar_type((n + 1) ** (q // 2) - 1)


def _half_words(q: int, k: int) -> int:
    """Words of a code's key: one nonzero word of each +-pair, every nonzero
    word over GF(2)."""
    return (q**k - 1) // (1 if q == 2 else 2)


def _columns(q, n, k, pivots, start, stop):
    """column[:, j] of the representatives start..stop-1 of one pivot
    pattern: code column j as a row of _scan_partition's term table, sum of
    g[i, j] * q**(k - 1 - i).  Its entries die with the call, not with the
    scan."""
    column = np.zeros((stop - start, n), dtype=np.int64)
    column[:, list(pivots)] = q ** np.arange(k - 1, -1, -1)  # a pivot column holds a single 1
    for (i, j), entry in _entries(q, n, k, pivots, start, stop):
        column[:, j] += entry * q ** (k - 1 - i)
    return column


@lru_cache(maxsize=8)
def _term_table(q, n, k):
    """Row a holds the sig terms of a code column coeffs[a] in the words of
    one coefficient vector c of each +-pair: c != 0 with index(c) <=
    index(-c), index(c) being its place in coeffs (module docstring)."""
    coeffs = np.indices((q,) * k, dtype=np.int64).reshape(k, -1)  # in product(range(q), repeat=k) order
    index = np.arange(q**k)
    half = coeffs[:, (index > 0) & (index <= q ** np.arange(k - 1, -1, -1) @ (-coeffs % q))]
    fold = np.minimum(np.arange(q), q - np.arange(q))
    term = np.where(fold > 0, (n + 1) ** np.maximum(fold - 1, 0), 0).astype(_sig_dtype(q, n))
    dots = coeffs.T @ half
    table = term[np.remainder(dots, q, out=dots)]
    table.setflags(write=False)  # every caller of the cache shares it
    return table


def _scan_partition(q, n, k, pivots, start, stop):
    """(keys, labels) of one range of representatives of one pivot pattern:
    the sorted distinct rows of the sorted sigs of _half_words(q, k) words
    of each code, as one void array, and each code's index into keys, in
    representative order, as _label_dtype(len(keys))."""
    column = _columns(q, n, k, pivots, start, stop)
    table = _term_table(q, n, k)
    sig = table[column[:, 0]]
    for j in range(1, n):
        sig += table[column[:, j]]
    return _key_rows(sig)


def _key_rows(sig):
    """(keys, labels) of rows of code sigs: the sorted distinct rows of the
    codes' sorted sigs, as one void array, and each row's index into keys,
    as _label_dtype(len(keys)).  The rows are sorted in place."""
    if sig.itemsize == 1:
        # as uint32 for numpy's SIMD sorts (module docstring)
        block = np.empty((min(len(sig), _SORT_BLOCK), sig.shape[1]), np.uint32)
        for lo in range(0, len(sig), _SORT_BLOCK):
            part = block[: len(sig) - lo]
            part[...] = sig[lo : lo + len(part)]
            part.sort(axis=1)
            sig[lo : lo + len(part)] = part
    else:
        sig.sort(axis=1)
    keys, labels = np.unique(sig.view(np.dtype((np.void, sig.shape[1] * sig.itemsize))).ravel(), return_inverse=True)
    return keys, labels.astype(_label_dtype(len(keys)))


def _scan_bytes(q, n, k, rows):
    """Bytes _scan_partition allocates at most for rows codes, its cached
    term table and the support table of the largest pivot pattern: per
    code, n int64 column indices, 4 rows of _half_words(q, k) sigs,
    np.unique's 3 int64 and 1 bool indices, and 11 int64 words of its
    place, masks and digits; per coefficient vector, a table row of int64
    products and sigs, its k int64 coefficients and their negatives, and
    its int64 index; for odd q, per support mask of the k * (n - k) free
    positions, 12 int64 words of its forest, offset, count and their
    temporaries and 3 bytes a vertex of component labels; once, the uint32
    sort block of 1-byte sigs and 64 KiB."""
    size, half = _sig_dtype(q, n).itemsize, _half_words(q, k)
    block = 4 * half * min(rows, _SORT_BLOCK) if size == 1 else 0
    supports = 0 if q == 2 else (96 + 3 * n) << k * (n - k)
    return rows * (8 * n + 4 * half * size + 113) + q**k * (half * (8 + size) + 16 * k + 8) + supports + block + (1 << 16)


def _partition_ids(q, n, k, pivots, start, stop, powers):
    """Packed ids and weights of the representatives start..stop-1 of one
    pivot pattern, in representative order: the pivots' constant plus each
    entry times its free position's power, and 2**(number of forest
    entries), the size of the sign orbit."""
    ids = np.full(stop - start, sum(int(powers[i * n + p]) for i, p in enumerate(pivots)), dtype=np.int64)
    for (i, j), entry in _entries(q, n, k, pivots, start, stop):
        ids += entry * powers[i * n + j]
    # a forest on the n vertices has at most n - 1 entries
    weight = np.min_scalar_type(1 << (n - 1))
    return ids, np.left_shift(1, np.bitwise_count(_locate(q, n, k, pivots, start, stop)[1]), dtype=weight)


def _scan_partition_job(args):
    return _scan_partition(*args)


def _pool_scans(pool, jobs, arg_list):
    """Scan results in partition order, with at most jobs partitions
    submitted past the one being read, so a caller that stops reading
    leaves little work behind."""
    queued = collections.deque()
    for args in arg_list:
        queued.append(pool.submit(_scan_partition_job, args))
        if len(queued) > jobs:
            yield queued.popleft().result()
    while queued:
        yield queued.popleft().result()


def verify_tuple(codes) -> CollisionTuple:
    """Verify a collision claim about a sequence of codes from scratch
    and return the tuple with all artifacts attached; raises
    TupleVerificationError naming the failing stage.

    Stages: shape (arity, matching parameters), distribution (equal
    sizes, scalar recomputation of every weight distribution),
    inequivalence (canonical monomial forms pairwise distinct), and
    lattice (the lifted lattices are pairwise isospectral yet integrally
    inequivalent).
    """
    codes = tuple(codes)
    if len(codes) < 2:
        raise TupleVerificationError("shape", "fewer than two codes")
    q = codes[0].modulus
    n = codes[0].length
    if any(c.modulus != q or c.length != n for c in codes):
        raise TupleVerificationError("shape", "mixed modulus or length")

    if len({c.size for c in codes}) != 1:
        raise TupleVerificationError("distribution", "sizes differ")
    dists = [weight_distribution(c) for c in codes]
    if any(d != dists[0] for d in dists):
        raise TupleVerificationError("distribution", "weight distributions differ")

    canons = [canonical_monomial_form(c) for c in codes]
    if len({c.rows for c in canons}) != len(canons):
        raise TupleVerificationError("inequivalence", "two codes are monomially equivalent")

    lattices = tuple(lift(c) for c in codes)
    forms = [gram(l) for l in lattices]
    certificates = []
    witnesses = []
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            cert = certify(forms[i], forms[j])
            if cert.verdict is not Verdict.ISOSPECTRAL:
                raise TupleVerificationError(
                    "lattice", f"pair ({i}, {j}) not certified isospectral: {cert.verdict.value}"
                )
            certificates.append(cert)
            witness = integral_equivalence(forms[i], forms[j])
            if witness.found:
                raise TupleVerificationError("lattice", f"pair ({i}, {j}) is integrally equivalent")
            witnesses.append(witness)

    return CollisionTuple(
        codes=codes,
        lattices=lattices,
        weight_distribution=dists[0],
        certificates=tuple(certificates),
        pairwise=tuple(witnesses),
    )


def _checkpoint_member(obj) -> bytes:
    return gzip.compress(json.dumps(obj).encode() + b"\n", compresslevel=6, mtime=0)


def _checkpoint_load(path, params, sizes, width):
    """Finished partitions (keys, labels) of a checkpoint and its bytes, to
    be appended to; a missing file yields none and a fresh header.  sizes
    maps each partition of the search to its code count."""
    try:
        state = Path(path).read_bytes()
    except FileNotFoundError:
        return {}, _checkpoint_member({"schema": CHECKPOINT_SCHEMA, "params": params})
    try:
        header, *records = (json.loads(line) for line in gzip.decompress(state).decode().splitlines())
    except (EOFError, gzip.BadGzipFile, zlib.error, ValueError) as exc:  # ValueError: decoding, JSON, empty
        raise CodeError(f"checkpoint is unreadable ({exc})") from None
    if not isinstance(header, dict) or header.get("schema") != CHECKPOINT_SCHEMA:
        raise CodeError(f"checkpoint schema is missing or not {CHECKPOINT_SCHEMA}")
    if header.get("params") != params:
        raise CodeError("checkpoint was written by a different search")
    done = {}
    for record in records:
        # the partition is checked before anything is decoded
        if not (isinstance(record, list) and len(record) == 3 and isinstance(record[0], str) and isinstance(record[1], list)):
            raise CodeError("checkpoint is malformed")
        key, hex_keys, hex_labels = record
        if key not in sizes:
            raise CodeError(f"checkpoint holds partition {key!r}, which this search does not have")
        if key in done:
            raise CodeError(f"checkpoint holds partition {key!r} twice")
        try:
            keys = [bytes.fromhex(h) for h in hex_keys]
            # ValueError too on a byte count that is no multiple of the width
            labels = np.frombuffer(bytes.fromhex(hex_labels), _label_dtype(len(keys)))
            if any(len(kb) != width for kb in keys) or any(a >= b for a, b in zip(keys, keys[1:])):
                raise ValueError("keys are not distinct sorted rows")
            if len(labels) != sizes[key] or np.any(labels >= len(keys)):
                raise ValueError("labels do not index the keys once a code")
        except (TypeError, ValueError):
            raise CodeError("checkpoint is malformed") from None
        done[key] = np.frombuffer(b"".join(keys), np.dtype((np.void, width))), labels
    return done, state


def _checkpoint_save(path, state: bytes):
    # a crash mid-save must leave the previous checkpoint intact
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(state)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _monomial_classes(buckets, q, n, powers, min_tuple, block):
    """{bucket key: sorted (canonical id, class size) pairs} for every
    bucket with at least min_tuple monomial classes, by orbit subtraction
    in rounds.  A bucket is its sorted representative ids and their
    weights; one with fewer than min_tuple representatives cannot hold
    min_tuple classes.  Each round takes the least id left in every
    bucket not yet empty, stacks up to block of them per _orbit_rows
    call, and removes from each bucket the representatives in its
    representative's orbit, whose weights sum to the class size."""
    left = {kb: bucket for kb, bucket in buckets.items() if len(bucket[0]) >= min_tuple}
    classes = {kb: [] for kb in left}
    active = sorted(left)
    while active:
        for lo in range(0, len(active), block):
            keys = active[lo : lo + block]
            reps = np.array([left[kb][0][0] for kb in keys])
            orbits = _orbit_rows(_unpack(reps, q, n, powers), q, powers)
            for kb, orbit in zip(keys, orbits):
                ids, weights = left[kb]
                member = orbit[np.minimum(np.searchsorted(orbit, ids), orbit.size - 1)] == ids
                if not member[0]:
                    raise ArithmeticError("representative must lie in its own orbit")
                classes[kb].append((int(orbit[0]), int(weights[member].sum())))
                left[kb] = ids[~member], weights[~member]
        active = [kb for kb in active if len(left[kb][0])]
    return {kb: sorted(found) for kb, found in sorted(classes.items()) if len(found) >= min_tuple}


def run_search(
    q: int,
    n: int,
    k: int,
    *,
    family: str = "all",
    min_tuple: int = 2,
    verify: bool = True,
    chunk_size: int = 5**6,
    jobs: int = 1,
    checkpoint_path=None,
    progress=None,
) -> SearchReport:
    """Scan every code of the family, one per sign orbit, and report
    collision tuples, each verified from scratch unless verify=False.

    The scan is split into fixed partitions of each pivot pattern's
    sign-orbit representatives (checkpoint granularity; a resumed search
    skips finished partitions).  jobs > 1 distributes partitions over
    processes; results are merged in partition order either way, so the
    outcome does not depend on jobs.
    """
    if not 0 < k <= n:
        raise CodeError("dimension k must lie in 1..n")
    if (q - 1) ** 2 >= 2**15:  # _batch_rref multiplies two int16 residues
        raise CodeError(f"(q - 1)**2 = {(q - 1) ** 2} overflows the orbit's 16-bit words")
    if not _is_prime(q):
        raise CodeError("search requires a prime modulus")
    if (n + 1) ** (q // 2) >= 1 << 63:  # bounds every word sig; q < 182 here
        raise CodeError(f"word sigs up to (n + 1)**(q // 2) = {n + 1}**{q // 2} do not fit the 63 bits of the term table")
    if min_tuple < 2:
        raise CodeError("min_tuple must be at least 2")
    if jobs < 1:
        raise CodeError("jobs must be at least 1")
    # the systematic family holds exactly q**(k*(n-k)) codes and "all" at
    # least as many; bound that before any pattern is built, in logarithms
    # so no huge integer is formed (the exact count is checked below)
    if k * (n - k) * log2(q) > log2(MAX_TOTAL_CODES):
        raise CodeError(f"family holds at least {q}**{k * (n - k)} codes, above the {MAX_TOTAL_CODES} guard")
    powers = _pack_powers(q, k, n)  # bounds k * n before the patterns are listed
    patterns = _patterns(n, k, family)
    totals = [q ** len(_free_positions(n, k, piv)) for piv in patterns]
    if sum(totals) > MAX_TOTAL_CODES:
        raise CodeError(f"family holds {sum(totals)} codes, above the {MAX_TOTAL_CODES} guard")

    scan = _scan_bytes(q, n, k, min(chunk_size, max(totals)))
    if scan > MAX_PARTITION_BYTES:
        raise CodeError(f"one scan partition needs a {scan}-byte table, above the {MAX_PARTITION_BYTES} guard")
    # the orbit estimate also sizes the blocks of representatives, and a
    # search it refuses is never scanned
    orbit = _orbit_bytes(q, n, k, 1)
    if orbit > MAX_PARTITION_BYTES:
        raise CodeError(f"one monomial orbit needs about {orbit} bytes, above the {MAX_PARTITION_BYTES} guard")
    params = {"q": q, "n": n, "k": k, "family": family, "chunk": chunk_size}

    # pattern p keeps ceil(total / chunk_size) partitions, its representatives
    # dealt over them in order, so a partition may be empty
    partitions = []
    for p, (piv, total) in enumerate(zip(patterns, totals)):
        reps, parts = _representatives(q, n, k, piv), -(-total // chunk_size)
        partitions += [(f"{p}:{c}", (q, n, k, piv, c * reps // parts, (c + 1) * reps // parts)) for c in range(parts)]

    done, state = {}, b""
    if checkpoint_path:
        sizes = {key: args[5] - args[4] for key, args in partitions}
        done, state = _checkpoint_load(checkpoint_path, params, sizes, _half_words(q, k) * _sig_dtype(q, n).itemsize)
    pending = [(key, args) for key, args in partitions if key not in done]

    arg_list = [a for _, a in pending]
    # a fork pool starts all its workers at the first submit
    workers = min(jobs, len(pending), os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        scans = _pool_scans(pool, workers, arg_list) if pool else map(_scan_partition_job, arg_list)
        for (key, _), result in zip(pending, scans):
            done[key] = result
            if checkpoint_path:
                keys, labels = result
                state += _checkpoint_member([key, [kb.tobytes().hex() for kb in keys], labels.tobytes().hex()])
                _checkpoint_save(checkpoint_path, state)
            if progress:
                progress(len(done), len(partitions))
    finally:
        if pool:
            # an exception from progress or a save must not wait for the
            # partitions nobody will read
            pool.shutdown(cancel_futures=True)

    # labels become global bucket numbers, their keys' places among all sorted
    # distinct keys; a sort by id, then a stable radix sort by bucket, groups ids
    parts = [done[key] for key, _ in partitions]
    keys, where = np.unique(np.concatenate([part_keys for part_keys, _ in parts]), return_inverse=True)
    starts = np.cumsum([0] + [len(part_keys) for part_keys, _ in parts])
    labels = np.concatenate([where[start:][part_labels] for start, (_, part_labels) in zip(starts, parts)])
    labels = labels.astype(_label_dtype(len(keys)))
    ids, weights = (np.concatenate(part) for part in zip(*(_partition_ids(*args, powers) for _, args in partitions)))
    scanned = int(weights.sum())
    if scanned != sum(totals):  # raised, not asserted, so it holds under python -O
        raise ArithmeticError(f"sign-orbit weights sum to {scanned}, not to the family's {sum(totals)} codes")
    order = np.argsort(ids)
    order = order[np.argsort(labels[order], kind="stable")]
    ids, weights = ids[order], weights[order]
    cuts = np.cumsum(np.bincount(labels, minlength=len(keys)))[:-1]
    buckets = dict(enumerate(zip(np.split(ids, cuts), np.split(weights, cuts))))

    collisions = []
    fixed = _orbit_bytes(q, n, k, 0)
    block = max(1, (_ORBIT_BLOCK_BYTES - fixed) // (orbit - fixed))
    for kb, classes in _monomial_classes(buckets, q, n, powers, min_tuple, block).items():
        gens = _unpack(np.array([cid for cid, _ in classes]), q, n, powers).tolist()
        codes = tuple(LinearCode(q, n, tuple(map(tuple, g))) for g in gens)
        sizes = tuple(sz for _, sz in classes)
        if verify:
            tup = verify_tuple(codes)
        else:
            tup = CollisionTuple(codes, tuple(lift(c) for c in codes), weight_distribution(codes[0]))
        collisions.append(dataclasses.replace(tup, bucket_size=int(buckets[kb][1].sum()), class_sizes=sizes))

    collisions.sort(key=lambda t: tuple(c.rows for c in t.codes))
    return SearchReport(q, n, k, family, min_tuple, scanned, len(buckets), tuple(collisions), verify)
