"""Isospectrality certification by finite theta-coefficient comparison.

Two positive-definite forms are isospectral exactly when their theta
series agree.  For even integral forms of even dimension 2k and common
level N the theta series are modular of weight k on Gamma_0(N), so
agreement of all coefficients up to the cutoff

    mu0(N) * k / 6 + 2,      mu0(N) = N * prod_{p | N} (1 + 1/p),

forces the series to coincide; the comparison below is therefore a
certificate, not a heuristic.  Inputs that are rational, odd, or of odd
dimension are first moved into that setting by a common denominator
scale, a doubling, and a direct sum with themselves, none of which
changes the verdict (theta of q + q is theta(q)^2, and a square root of
a q-series with constant term 1 is unique).

Neither the scaled form nor the direct sum is formed.  c * q, for the
scale c of the first two steps, has q's counts on a grid c times q's, an
integer grid as c * q is integral: each form is walked as given, and
only its level is taken from the scaled matrix.  q + q has the value
grid of q and the level of q (its inverse is block-diagonal), and its
theta coefficients are the self-convolution of q's own counts,

    r_{q+q}(k * step) = sum_{i + j = k} r_q(i * step) * r_q(j * step),

so an odd-dimensional comparison enumerates the n-dimensional ball up to
the cutoff of dimension 2n and squares the counts as one packed integer
(Kronecker substitution), checked against the raw counts at their first
difference; the certificate records the same levels, cutoff and table as
the 2n-dimensional enumeration would.  Each form is enumerated once, up
to the larger of that cutoff and the raw pre-scan's bound (over c), and
the pre-scan reads its prefix.

When the levels of the two forms disagree the cutoff does not apply; the
verdict is then Inconclusive unless a bounded scan already exhibits a
differing coefficient, which is always conclusive evidence against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .enumeration import rep_spectrum
from .lattices import GramForm, _form_det, _level, is_even, level
from .linalg import DimensionError, ShapeError, _denominator_scale, _normalize


class Verdict(enum.Enum):
    ISOSPECTRAL = "Isospectral"
    NOT_ISOSPECTRAL = "NotIsospectral"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class IsoCertificate:
    verdict: Verdict
    dimension: int
    dets: tuple[Fraction | int, Fraction | int]
    scaled_by: int
    doubled: bool
    summed: bool
    levels: tuple[int, int] | None
    threshold: Fraction | int | None
    compared_up_to: Fraction | int | None
    first_difference: Fraction | int | None
    notes: tuple[str, ...]
    # rows (value, count in a, count in b) of the comparison that settled
    # the verdict; empty when no spectra were compared
    table: tuple[tuple[Fraction | int, int, int], ...] = ()


def mu0(n: int) -> int:
    """n * prod over distinct primes p | n of (1 + 1/p), always an integer."""
    if n < 1:
        raise ValueError("mu0 needs a positive integer")
    out = n
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            out = out // p * (p + 1)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        out = out // rest * (rest + 1)
    return out


def hecke_threshold(q: GramForm):
    """Coefficient cutoff certifying theta equality at the form's level.

    Defined for even integral forms of even dimension 2k as
    mu0(level) * k / 6 + 2."""
    if not q.matrix.is_integral():
        raise ShapeError("threshold requires an integral form")
    if not is_even(q):
        raise ShapeError("threshold requires an even form")
    if q.dimension == 0 or q.dimension % 2 != 0:
        raise DimensionError("threshold requires even dimension")
    return _threshold(level(q), q.dimension)


def _threshold(lev: int, dimension: int):
    return _normalize(Fraction(mu0(lev) * (dimension // 2), 6) + 2)


_SQUARE_BUDGET = 1 << 24  # bits of packed counts; squaring this many takes about 8 s


def _squared_counts(r) -> list[int]:
    """Representation counts of q + q from those of q, on q's grid.

    r holds q's count at i * step at index i, zero counts included, so
    the direct sum's count at index k is a convolution: the low slots of
    the square of the counts packed into one int, each slot wider than
    len * max^2 (Kronecker substitution).  Raises ValueError past
    _SQUARE_BUDGET packed bits."""
    width = ((2 * max(r, default=0) ** 2 * len(r)).bit_length() + 8) // 8  # bytes, at least bits + 1
    if 8 * width * len(r) > _SQUARE_BUDGET:
        raise ValueError(f"squaring budget exceeded: {len(r)} counts of {8 * width} bits, over {_SQUARE_BUDGET} bits")
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in r), "little")
    square = (packed * packed).to_bytes(2 * width * len(r), "little")
    return [int.from_bytes(square[k * width : (k + 1) * width], "little") for k in range(len(r))]


def _rows(cap: int, pair):
    """(value, count in a, count in b) for each value up to cap on either
    grid of pair, ((step_a, counts_a), (step_b, counts_b)), walking the
    grid of the gcd of the two integer steps."""
    (ga, ra), (gb, rb) = pair
    for v in range(0, cap + 1, gcd(ga, gb)):
        ka, off_a = divmod(v, ga)
        kb, off_b = divmod(v, gb)
        if not (off_a and off_b):
            yield v, 0 if off_a else ra[ka], 0 if off_b else rb[kb]


def _spectra_differ(pair, cap: int, squared=False):
    """Smallest value up to cap where the representation counts of the
    two spectra differ, plus the full merged comparison table; squared
    compares the counts of a + a and b + b instead.  pair holds each
    spectrum as (step, counts) on an integer grid reaching cap; larger
    values are left out.  Both count the zero vector once, so squares
    must first differ where the raw counts do, by twice as much."""
    raw = [(g, r[: cap // g + 1]) for g, r in pair]
    compared = raw
    if squared:
        (ga, ra), (gb, rb) = raw
        square = _squared_counts(ra)
        # equal raw spectra, as of a form against itself, are squared once
        compared = [(ga, square), (gb, square if (ga, ra) == (gb, rb) else _squared_counts(rb))]
    table = tuple(_rows(cap, compared))
    first, diff = next(((t, x - y) for t, x, y in table if x != y), (None, 0))
    if squared and (first, diff) != next(((t, 2 * (x - y)) for t, x, y in _rows(cap, raw) if x != y), (None, 0)):
        raise ArithmeticError("squared counts disagree with the raw counts at their first difference")
    return first, table


def certify(a: GramForm, b: GramForm, *, max_compare_t=None, fallback_scan_cap: int = 50) -> IsoCertificate:
    """Decide isospectrality of two forms with an explicit certificate.

    Returns Isospectral only when coefficient agreement reaches the
    modular cutoff; NotIsospectral as soon as any compared coefficient
    differs (or a cheaper invariant does); Inconclusive otherwise.
    max_compare_t caps the comparison range, in units of the internally
    scaled forms."""
    notes: list[str] = []
    dim = a.dimension if a.dimension == b.dimension else -1
    det_a, det_b = _form_det(a), _form_det(b)
    s = 1
    doubled = summed = False

    def finish(verdict, levels=None, threshold=None, compared=None, first=None, table=()):
        dets = (_normalize(det_a), _normalize(det_b))
        return IsoCertificate(verdict, dim, dets, s, doubled, summed, levels, threshold, compared, first, tuple(notes), table)

    if dim < 0:
        notes.append("dimensions differ")
        return finish(Verdict.NOT_ISOSPECTRAL)
    if dim == 0:
        raise DimensionError("cannot certify empty forms")

    s = _denominator_scale(a.matrix.entries + b.matrix.entries)
    if s != 1:
        notes.append(f"cleared denominators with scale {s}")

    if det_a != det_b:
        notes.append("determinants differ")
        return finish(Verdict.NOT_ISOSPECTRAL)

    # s * q is integral, so it is even exactly when its diagonal is
    doubled = any(s * q.matrix.at(i, i) % 2 for q in (a, b) for i in range(dim))
    if doubled:
        notes.append("doubled both forms to reach even entries")
    c = 2 * s if doubled else s

    # no certificate of the raw pre-scan carries the levels, so they can
    # come first and fix the one enumeration bound each form needs
    lev_a, lev_b = _level(a.matrix.scaled(c)), _level(b.matrix.scaled(c))
    threshold = None
    cap = fallback_scan_cap
    if lev_a == lev_b:
        threshold = _threshold(lev_a, 2 * dim if dim % 2 else dim)  # hecke_threshold, reusing the level
        cap = Fraction(threshold) // 1
        if max_compare_t is not None:
            cap = min(cap, Fraction(max_compare_t) // 1)
    if cap < 0:
        raise ValueError("comparison bound must be nonnegative")
    pre_cap = fallback_scan_cap if dim % 2 else cap
    # each form is walked once, as given: c * q has q's counts on c times q's grid
    bound = Fraction(max(cap, pre_cap), c)
    pair = [(int(c * sp.step), sp.counts) for sp in (rep_spectrum(a, bound), rep_spectrum(b, bound))]

    if dim % 2 != 0:
        first, table = _spectra_differ(pair, pre_cap)
        if first is not None:
            notes.append("raw spectra differ before the direct-sum step")
            return finish(Verdict.NOT_ISOSPECTRAL, compared=pre_cap, first=first, table=table)
        # a + a is never built; _spectra_differ squares a's counts
        summed = True
        notes.append("direct-summed each form with itself to reach even dimension")

    first, table = _spectra_differ(pair, cap, summed)
    verdict = Verdict.INCONCLUSIVE if first is None else Verdict.NOT_ISOSPECTRAL
    if lev_a != lev_b:
        notes.append(f"levels differ ({lev_a} vs {lev_b}); no shared cutoff")
    elif first is None and cap < Fraction(threshold) // 1:
        notes.append("agreement verified only below the cutoff")
    elif first is None:
        verdict = Verdict.ISOSPECTRAL
    return finish(verdict, levels=(lev_a, lev_b), threshold=threshold, compared=cap, first=first, table=table)
