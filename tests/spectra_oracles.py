"""Test oracles for certify: the direct-sum comparison it replaced, and
the convolution loop that its packed squaring replaced.

direct_sum_certify decides a pair the way certify did before it learned
to square theta series: an odd-dimensional pair is replaced by q + q and
b + b, whose levels, cutoff and representation counts are computed from
the 2n-dimensional forms themselves (form_direct_sum, level,
hecke_threshold, rep_spectrum).  It shares no squaring code with certify,
so equal certificates are evidence that the convolution is exact.
loop_squared_counts sums each convolution entry over the integer lists
directly, where _squared_counts squares one packed integer.
"""

from fractions import Fraction
from operator import mul

from toriso.enumeration import rep_spectrum
from toriso.lattices import GramForm, _block_diag, is_even, level
from toriso.linalg import _denominator_scale, _normalize, det
from toriso.spectra import IsoCertificate, Verdict, hecke_threshold


def loop_squared_counts(r):
    """_squared_counts by the quadratic loop: the count at index k is the
    sum of r_i * r_(k-i)."""
    return [sum(map(mul, r[: k + 1], reversed(r[: k + 1]))) for k in range(len(r))]


def form_direct_sum(a, b):
    return GramForm(_block_diag(a.matrix, b.matrix))


def _spectra_differ(a, b, cap):
    ta = dict(rep_spectrum(a, cap).entries)
    tb = dict(rep_spectrum(b, cap).entries)
    values = sorted(set(ta) | set(tb), key=Fraction)
    table = tuple((_normalize(Fraction(t)), ta.get(t, 0), tb.get(t, 0)) for t in values)
    diffs = [t for t, ra, rb in table if ra != rb]
    return (min(diffs) if diffs else None), table


def direct_sum_certify(a, b, *, max_compare_t=None, fallback_scan_cap=50):
    """certify for two forms of one positive dimension, building q + q."""
    dim = a.dimension
    det_a, det_b = det(a.matrix), det(b.matrix)
    s = _denominator_scale(a.matrix.entries + b.matrix.entries)
    qa = GramForm(a.matrix.scaled(s)) if s != 1 else a
    qb = GramForm(b.matrix.scaled(s)) if s != 1 else b
    notes = [f"cleared denominators with scale {s}"] if s != 1 else []
    doubled = summed = False

    def finish(verdict, levels=None, threshold=None, compared=None, first=None, table=()):
        return IsoCertificate(
            verdict, dim, (_normalize(det_a), _normalize(det_b)), s, doubled, summed,
            levels, threshold, compared, first, tuple(notes), table,
        )

    if det_a != det_b:
        notes.append("determinants differ")
        return finish(Verdict.NOT_ISOSPECTRAL)
    if not (is_even(qa) and is_even(qb)):
        qa, qb = GramForm(qa.matrix.scaled(2)), GramForm(qb.matrix.scaled(2))
        doubled = True
        notes.append("doubled both forms to reach even entries")
    if dim % 2:
        first, table = _spectra_differ(qa, qb, fallback_scan_cap)
        if first is not None:
            notes.append("raw spectra differ before the direct-sum step")
            return finish(Verdict.NOT_ISOSPECTRAL, compared=fallback_scan_cap, first=first, table=table)
        qa, qb = form_direct_sum(qa, qa), form_direct_sum(qb, qb)
        summed = True
        notes.append("direct-summed each form with itself to reach even dimension")

    levels = (level(qa), level(qb))
    if levels[0] != levels[1]:
        notes.append(f"levels differ ({levels[0]} vs {levels[1]}); no shared cutoff")
        first, table = _spectra_differ(qa, qb, fallback_scan_cap)
        verdict = Verdict.INCONCLUSIVE if first is None else Verdict.NOT_ISOSPECTRAL
        return finish(verdict, levels=levels, compared=fallback_scan_cap, first=first, table=table)

    threshold = hecke_threshold(qa)
    cap = Fraction(threshold) // 1
    if max_compare_t is not None:
        cap = min(cap, Fraction(max_compare_t) // 1)
    first, table = _spectra_differ(qa, qb, cap)
    if first is not None:
        return finish(Verdict.NOT_ISOSPECTRAL, levels, threshold, _normalize(cap), first, table)
    if cap < Fraction(threshold) // 1:
        notes.append("agreement verified only below the cutoff")
        return finish(Verdict.INCONCLUSIVE, levels, threshold, _normalize(cap), table=table)
    return finish(Verdict.ISOSPECTRAL, levels, threshold, _normalize(cap), table=table)
