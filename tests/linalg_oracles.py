"""Test oracles for linalg: the Sturm eigenvalue bound and the
recompute-everything LLL that the library replaced.

sturm_lower_bound decides each bisection step by counting the roots of
the characteristic polynomial in (0, mid] with a Sturm chain; it shares no
code with the library's Bareiss positive-definiteness test, so equal
bounds are evidence that both decide "lambda_min(q) > mid" alike.
recompute_lll runs the same reductions and swaps as lll_reduce but
rebuilds the whole Gram-Schmidt data after each of them, so equal bases
are evidence that the in-place mu/B updates are exact.
"""

from fractions import Fraction

from toriso.linalg import DimensionError, Mat, RankError, _positive_definite_data


def char_poly(m):
    """Characteristic polynomial det(xI - m), coefficients leading-first.

    Faddeev-LeVerrier recursion; the only divisions are by 1..n and exact.
    """
    if not m.is_square:
        raise DimensionError("char_poly of non-square matrix")
    n = m.rows
    coeffs = [Fraction(1)]
    mk = Mat.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        trace = sum((mk.at(i, i) for i in range(n)), Fraction(0))
        ck = -trace / k
        coeffs.append(ck)
        if k < n:
            mk = mk + Mat.identity(n).scaled(ck)
    return tuple(coeffs)


def poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _poly_rem(num, den):
    num = list(num)
    while len(num) >= len(den) and any(num):
        if num[0] == 0:
            num.pop(0)
            continue
        f = num[0] / den[0]
        for i in range(len(den)):
            num[i] -= f * den[i]
        num.pop(0)
    while num and num[0] == 0:
        num.pop(0)
    return num


def sturm_chain(coeffs):
    p0 = [Fraction(c) for c in coeffs]
    n = len(p0) - 1
    p1 = [c * (n - i) for i, c in enumerate(p0[:-1])]
    chain = [p0, p1]
    while any(chain[-1]):
        r = _poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def sign_variations(chain, x):
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(coeffs, a, b):
    """Number of distinct real roots in the half-open interval (a, b]."""
    chain = sturm_chain(coeffs)
    return sign_variations(chain, a) - sign_variations(chain, b)


def sturm_lower_bound(q, eps):
    """eigenvalue_lower_bound with each step decided by a Sturm count."""
    eps = Fraction(eps)
    _positive_definite_data(q)  # raises unless q is positive definite
    p = char_poly(q)
    chain = sturm_chain(p)
    lo = Fraction(0)
    hi = min(q.at(i, i) for i in range(q.rows))
    v0 = sign_variations(chain, lo)
    while lo == 0 or hi - lo > eps:
        mid = (lo + hi) / 2
        if poly_eval(p, mid) == 0 or v0 - sign_variations(chain, mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo


def recompute_lll(basis, delta=Fraction(3, 4)):
    """lll_reduce, recomputing Gram-Schmidt after every change of basis."""
    b = [list(basis.column(j)) for j in range(basis.cols)]
    n = len(b)

    def dot(u, v):
        return sum((x * y for x, y in zip(u, v)), Fraction(0))

    def gram_schmidt():
        star = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            v = list(b[i])
            for j in range(i):
                mu[i][j] = dot(b[i], star[j]) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            norms.append(dot(v, v))
            if norms[i] == 0:
                raise RankError("basis is rank-deficient")
        return mu, norms

    if n == 0:
        return basis
    mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                t = round(mu[k][j])
                b[k] = [x - t * y for x, y in zip(b[k], b[j])]
                mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] * mu[k][k - 1]) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return Mat.from_columns(b)
