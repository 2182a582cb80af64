"""Bundled reference triplet: three six-dimensional lattices that are
isospectral, pairwise non-isometric, and irreducible.

The lattices arise from three ternary codes of length 6 over Z/5 via the
mod-q lift, and they drive the `paper-triplet` CLI verb plus a large part
of the regression suite.  Everything in this module is frozen data; the
library recomputes all of it from scratch in tests.
"""

from __future__ import annotations

from functools import lru_cache

from .codes import LinearCode
from .lattices import GramForm, Lattice
from .linalg import Mat

# Basis matrices; columns generate the lattices.
A1_ROWS = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (1, 1, 0, 5, 0, 0),
    (2, 0, 1, 0, 5, 0),
    (1, 2, 1, 0, 0, 5),
)
A2_ROWS = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (2, 1, 0, 5, 0, 0),
    (0, 1, 1, 0, 5, 0),
    (3, 2, 1, 0, 0, 5),
)
A3_ROWS = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (2, 1, 0, 5, 0, 0),
    (0, 1, 1, 0, 5, 0),
    (2, 3, 1, 0, 0, 5),
)

# Gram matrices Q_i = A_i^T A_i.
Q1_ROWS = (
    (7, 3, 3, 5, 10, 5),
    (3, 6, 2, 5, 0, 10),
    (3, 2, 3, 0, 5, 5),
    (5, 5, 0, 25, 0, 0),
    (10, 0, 5, 0, 25, 0),
    (5, 10, 5, 0, 0, 25),
)
Q2_ROWS = (
    (14, 8, 3, 10, 0, 15),
    (8, 7, 3, 5, 5, 10),
    (3, 3, 3, 0, 5, 5),
    (10, 5, 0, 25, 0, 0),
    (0, 5, 5, 0, 25, 0),
    (15, 10, 5, 0, 0, 25),
)
Q3_ROWS = (
    (9, 8, 2, 10, 0, 10),
    (8, 12, 4, 5, 5, 15),
    (2, 4, 3, 0, 5, 5),
    (10, 5, 0, 25, 0, 0),
    (0, 5, 5, 0, 25, 0),
    (10, 15, 5, 0, 0, 25),
)

# Representation numbers R(2Q_i, t) for even t = 0, 2, ..., 92; identical
# for i = 1, 2, 3.  Odd arguments are zero because 2Q_i is even.
REP_TABLE_DOUBLED = {
    0: 1, 2: 0, 4: 0, 6: 2, 8: 2, 10: 2, 12: 2, 14: 10, 16: 8,
    18: 4, 20: 12, 22: 16, 24: 22, 26: 18, 28: 20, 30: 32, 32: 30,
    34: 34, 36: 46, 38: 52, 40: 48, 42: 28, 44: 78, 46: 102,
    48: 54, 50: 70, 52: 68, 54: 120, 56: 124, 58: 64,
    60: 104, 62: 124, 64: 160, 66: 112, 68: 110, 70: 184,
    72: 108, 74: 162, 76: 230, 78: 164, 80: 200, 82: 132,
    84: 220, 86: 366, 88: 202, 90: 170, 92: 236,
}

DOUBLED_DET = 10**6
DOUBLED_LEVEL = 100
DOUBLED_MU0 = 180
DOUBLED_THRESHOLD = 92

# Published lower bound for the smallest eigenvalue of Q1 (a valid bound,
# though not within 1/1000 of the true minimum; see the regression tests).
LAMBDA_BOUND_PUBLISHED = "263/400"

# Greedy ladder of shortest vectors of L1 independent of the previous
# stages, in ambient coordinates; stage four is the tie {V4, W4}.
V1 = (0, 0, 1, 0, 1, 1)   # norm^2 3
V2 = (1, 0, -1, 1, 1, 0)  # norm^2 4
V3 = (0, 1, -1, 1, -1, 1) # norm^2 5
V4 = (2, -1, 0, 1, -1, 0) # norm^2 7
W4 = (1, -1, 1, 0, -2, 0) # norm^2 7
V5 = (0, 1, 1, 1, 1, -2)  # norm^2 8, unique independent pair at this stage
V6 = (2, 1, 1, -2, 0, 0)  # norm^2 10
LADDER_NORMS = (3, 4, 5, 7, 8, 10)

# Generator rows of the length-6 codes over Z/5 whose lifts are L_i;
# these are the nonzero columns of A_i read mod 5.
C1_GENERATOR_ROWS = ((1, 0, 0, 1, 2, 1), (0, 1, 0, 1, 0, 2), (0, 0, 1, 0, 1, 1))
C2_GENERATOR_ROWS = ((1, 0, 0, 2, 0, 3), (0, 1, 0, 1, 1, 2), (0, 0, 1, 0, 1, 1))
C3_GENERATOR_ROWS = ((1, 0, 0, 2, 0, 2), (0, 1, 0, 1, 1, 3), (0, 0, 1, 0, 1, 1))
CODE_Q = 5


@lru_cache(maxsize=None)
def basis_matrix(i: int) -> Mat:
    return Mat.from_rows({1: A1_ROWS, 2: A2_ROWS, 3: A3_ROWS}[i])


@lru_cache(maxsize=None)
def gram_matrix(i: int) -> Mat:
    return Mat.from_rows({1: Q1_ROWS, 2: Q2_ROWS, 3: Q3_ROWS}[i])


@lru_cache(maxsize=None)
def lattice(i: int) -> Lattice:
    return Lattice(basis_matrix(i))


@lru_cache(maxsize=None)
def gram_form(i: int) -> GramForm:
    return GramForm(gram_matrix(i))


@lru_cache(maxsize=None)
def code(i: int) -> LinearCode:
    rows = {1: C1_GENERATOR_ROWS, 2: C2_GENERATOR_ROWS, 3: C3_GENERATOR_ROWS}[i]
    return LinearCode(CODE_Q, 6, rows)
