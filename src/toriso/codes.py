"""Linear codes over Z_q and their lattice correspondence.

A code C of length n corresponds to the preimage lattice
Lambda = {x in Z^n : x mod q in C}, which always satisfies
q Z^n <= Lambda <= Z^n.  The canonical generator matrix of a code is
read off the row Hermite form of its stacked generators over [G; qI]:
those rows reduced mod q (zero rows dropped) are a canonical generating
set for any modulus, and for prime q they coincide with the reduced row
echelon form over the field.  Code equality is equality of these rows.

Weights are folded: a residue c contributes min(c, q - c), matching the
squared-length contribution of the shortest integer representative, so
equal weight distributions transfer directly to lattice norm data.

Two paths here overlap with toriso.search on purpose.  The scalar
monomial orbit behind canonical_monomial_form repeats what the packed
orbit in search computes; verify_tuple uses it as the independent
re-check of the scan's inequivalence verdict, so it must not share code
with the scan.  It row-reduces one image per column permutation P: with
R the canonical rows of G P, pivot columns p(i) and signs s_j = +-1, the
rows s_p(i) * s_j * R[i][j] mod q of the signed image are echelon with
the same positive pivots.  When every pivot is 1, as over a field, the
entries above the pivots are 0, the signed rows are canonical as they
stand, and only the least of them is built.  Read R's entries in
row-major order.  The signs that keep the entries read so far are
constant on the components of the graph on the columns that joins each
such nonzero entry's column to its row's pivot column; an entry x with
x + x = q keeps its value under every sign and joins nothing.  An entry
that joins two components can be turned to the smaller of x and q - x by
flipping its column's component, which changes no entry read before it,
and every other entry is fixed by those before it.  With a pivot other
than 1 (composite moduli only) the entries above it need reducing back
into [0, pivot) once the signs are applied, which the greedy rule does
not see, so every sign pattern's image is built and reduced, pivots in
increasing column order.  _canonical_data keeps a prime-modulus branch
(_rref_mod_prime) next to the general Hermite-form branch: the modulus
selects the branch, both give the same rows where both apply, and the
field branch takes about two thirds of the Hermite branch's time on the
triplet codes' canonical forms.  Only moduli below 2**15 take it,
because its primality test is trial division.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .lattices import Lattice, LatticeError
from .linalg import Mat, ShapeError, _row_hnf_int, hnf


class CodeError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def _rref_mod_prime(q: int, rows, n: int) -> tuple[tuple[int, ...], ...]:
    mat = [[x % q for x in r] for r in rows]
    mat = [r for r in mat if any(r)]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, q)
        mat[r] = [(x * inv) % q for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(a - c * b) % q for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r])


@lru_cache(maxsize=4096)
def _canonical_data(modulus: int, length: int, rows: tuple[tuple[int, ...], ...]):
    """Canonical rows and per-row coefficient spans.  Primes below 2**15
    go through reduced echelon form over the field; the general case reads
    the same data off the stacked Hermite form of [rows; modulus * I],
    and the two agree when both apply."""
    if modulus < 2**15 and _is_prime(modulus):
        canon = _rref_mod_prime(modulus, rows, length)
        return canon, tuple(modulus for _ in canon)
    stacked = [list(r) for r in rows] + [
        [modulus * int(i == j) for j in range(length)] for i in range(length)
    ]
    reduced = _row_hnf_int(stacked)
    canon = []
    spans = []
    for row in reduced:
        pivot = next(x for x in row if x != 0)
        modded = tuple(x % modulus for x in row)
        if any(modded):
            canon.append(modded)
            spans.append(modulus // pivot)
    return tuple(canon), tuple(spans)


@dataclass(frozen=True)
class LinearCode:
    """Code over Z_modulus of the given length; rows are stored in
    canonical form, so equal codes compare equal."""

    modulus: int
    length: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise CodeError("modulus must be at least 2")
        if self.length < 1:
            raise CodeError("length must be positive")
        cleaned = []
        for r in self.rows:
            r = tuple(int(x) % self.modulus for x in r)
            if len(r) != self.length:
                raise CodeError("generator row of wrong length")
            cleaned.append(r)
        canon, _ = _canonical_data(self.modulus, self.length, tuple(cleaned))
        object.__setattr__(self, "rows", canon)

    @property
    def size(self) -> int:
        _, spans = _canonical_data(self.modulus, self.length, self.rows)
        return prod(spans) if spans else 1

    def codewords(self):
        """All codewords, each exactly once."""
        canon, spans = _canonical_data(self.modulus, self.length, self.rows)
        q, n = self.modulus, self.length
        for coeffs in itertools.product(*[range(s) for s in spans]):
            word = [0] * n
            for a, row in zip(coeffs, canon):
                if a:
                    for i in range(n):
                        word[i] = (word[i] + a * row[i]) % q
            yield tuple(word)


def weight_distribution(code: LinearCode, cap: int = 10**6) -> tuple[tuple[int, ...], ...]:
    """Multiset of codeword weight signatures, sorted; refuses to expand
    codes larger than cap.  A word's signature is its sorted folded
    residues min(c, q - c)."""
    if code.size > cap:
        raise CodeError(f"code has {code.size} words, above the cap {cap}")
    q = code.modulus
    return tuple(sorted(tuple(sorted(min(c, q - c) for c in w)) for w in code.codewords()))


def equal_weight_distribution(a: LinearCode, b: LinearCode, cap: int = 10**6) -> bool:
    if a.modulus != b.modulus or a.length != b.length or a.size != b.size:
        return False
    return weight_distribution(a, cap) == weight_distribution(b, cap)


def project(l: Lattice, modulus: int) -> LinearCode:
    """The code L mod q Z^n of an integral lattice containing q Z^n."""
    if modulus < 2:
        raise CodeError("modulus must be at least 2")
    if not l.basis.is_integral():
        raise ShapeError("projection needs an integral lattice")
    n = l.dimension
    # q Z^n <= L exactly when q * B^{-1} is integral
    if not l.basis.inverse().scaled(modulus).is_integral():
        raise LatticeError(f"{modulus} Z^n is not contained in the lattice")
    rows = [tuple(int(l.basis.at(i, j)) % modulus for i in range(n)) for j in range(n)]
    return LinearCode(modulus, n, tuple(rows))


def lift(code: LinearCode) -> Lattice:
    """The preimage lattice {x in Z^n : x mod q in code}."""
    n = code.length
    cols = [list(r) for r in code.rows] + [
        [code.modulus * int(i == j) for j in range(n)] for i in range(n)
    ]
    basis = hnf(Mat.from_columns([list(map(int, c)) for c in cols]))
    return Lattice(basis)


def _sign_least_rows(q: int, rows, pivots) -> tuple[tuple[int, ...], ...]:
    """The least image of canonical rows with unit pivots under the
    column signs (module docstring): each row's sign is its pivot
    column's, and its entries are read in row-major order, an entry with
    x + x != q joining the components of its pivot column and its column
    and, when it joins two, flipping its column's component first if that
    makes the entry smaller."""
    n = len(rows[0])
    comp = list(range(n))  # each column's component
    flip = [False] * n  # each column's sign, True for -1
    image = []
    for r, p in zip(rows, pivots):
        out = list(r)
        for j in range(p + 1, n):
            x = r[j]
            if not x or 2 * x % q == 0:
                continue
            if flip[p] != flip[j]:
                x = q - x
            if comp[p] != comp[j]:
                old, turn = comp[j], x > q - x
                for v in range(n):
                    if comp[v] == old:
                        comp[v] = comp[p]
                        flip[v] ^= turn
                if turn:
                    x = q - x
            out[j] = x
        image.append(tuple(out))
    return tuple(image)


def canonical_monomial_form(code: LinearCode) -> LinearCode:
    """Least canonical representative of the code's orbit under signed
    coordinate permutations; two codes are monomially equivalent exactly
    when these forms coincide.  One reduction per column permutation,
    then one sign-least image when its pivots are units, or every sign
    pattern's image when they are not (module docstring)."""
    q, n = code.modulus, code.length
    if n > 8:
        raise CodeError("monomial orbit restricted to length <= 8")
    # s and -s give the same image, so the first sign stays 1
    patterns = [(1,) + s for s in itertools.product((1,) if q == 2 else (1, q - 1), repeat=n - 1)]

    def images():
        for perm in itertools.permutations(range(n)):
            rows, _ = _canonical_data(q, n, tuple(tuple(r[j] for j in perm) for r in code.rows))
            pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
            if all(r[p] == 1 for r, p in zip(rows, pivots)):
                yield _sign_least_rows(q, rows, pivots)
                continue
            for s in patterns:
                image = [[s[p] * s[j] * x % q for j, x in enumerate(r)] for r, p in zip(rows, pivots)]
                for i, p in enumerate(pivots):
                    for above in image[:i]:
                        t = above[p] // image[i][p]
                        if t:
                            above[:] = [(a - t * b) % q for a, b in zip(above, image[i])]
                yield tuple(map(tuple, image))

    return LinearCode(q, n, min(images()))
