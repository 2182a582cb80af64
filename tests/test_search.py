import gzip
import hashlib
import json
import tracemalloc
from concurrent.futures import Future
from math import comb, factorial, log2

import numpy as np
import pytest

from code_oracles import (
    all_codes,
    collide_codes,
    count_row,
    dual_code,
    expanded_canonical_form,
    group_rows,
    monomial_images,
    sign_canonical,
    sign_images,
    sign_least_orbit,
    subtract_orbits,
)
from toriso import search, triplet
from toriso.cli import main
from toriso.codes import CodeError, LinearCode, _is_prime, canonical_monomial_form, weight_distribution
from toriso.search import (
    TupleVerificationError,
    _batch_rref,
    _orbit_rows,
    _pack,
    _pack_powers,
    _unpack,
    run_search,
    verify_tuple,
)
from toriso.spectra import Verdict


def rref_oracle(rows, q, n):
    # scalar canonical form via the code constructor
    return LinearCode(q, n, tuple(tuple(r) for r in rows)).rows


def pad_to(rows, k, n):
    out = [tuple(r) for r in rows]
    while len(out) < k:
        out.append((0,) * n)
    return tuple(out)


def test_batch_rref_matches_scalar_path():
    rng = np.random.default_rng(7)
    mats = rng.integers(0, 5, size=(200, 3, 6), dtype=np.int16)
    mats[17] = 0  # rank 0
    mats[18, 1] = mats[18, 0]  # forced rank drop
    got = _batch_rref(mats, 5)
    for i in range(len(mats)):
        want = pad_to(rref_oracle(mats[i].tolist(), 5, 6), 3, 6)
        assert tuple(tuple(int(x) for x in row) for row in got[i]) == want


def test_pack_unpack_roundtrip():
    powers = _pack_powers(5, 3, 6)
    rng = np.random.default_rng(3)
    mats = rng.integers(0, 5, size=(50, 3, 6), dtype=np.int16)
    assert np.array_equal(_unpack(_pack(mats, powers), 5, 6, powers), mats)


def test_pack_guard_rejects_oversized_space():
    with pytest.raises(CodeError):
        _pack_powers(5, 4, 7)


def _orbit_representatives(q, n, k, rng):
    """Rank-k codes of length n >= 4: a random one, one with a zero first
    column (so no systematic pivots), and one whose columns 1 and 2 agree
    up to sign (a non-trivial stabilizer); for k = n only the first
    exists."""
    shapes = {
        "random": lambda g: g,
        "zero-column": lambda g: np.concatenate([0 * g[:, :1], g[:, 1:]], axis=1),
        "repeated-columns": lambda g: np.concatenate([g[:, :2], (q - 1) * g[:, 1:2], g[:, 3:]], axis=1),
    }
    reps = {}
    for name, shape in shapes.items():
        for _ in range(50):
            code = LinearCode(q, n, tuple(map(tuple, shape(rng.integers(0, q, size=(k, n))).tolist())))
            if len(code.rows) == k:
                reps[name] = code
                break
    return reps


def test_orbit_ids_match_scalar_orbit():
    n = 4
    for q in (2, 3, 5, 7):
        for k in range(1, n + 1):
            powers = _pack_powers(q, k, n)
            reps = _orbit_representatives(q, n, k, np.random.default_rng(10 * q + k))
            assert len(reps) == (1 if k == n else 3)
            assert k == n or reps["zero-column"].rows[0][0] == 0  # a non-systematic pivot pattern
            codes = list(reps.values())
            rows = _orbit_rows(np.array([code.rows for code in codes]), q, powers)  # all in one call
            assert rows.shape == (len(codes), factorial(n))
            for code, row in zip(codes, rows):
                assert row.tolist() == _pack(np.array(sign_least_orbit(code)), powers).tolist(), (q, k, code.rows)
                assert row[0] == _pack(np.array([expanded_canonical_form(code)]), powers)[0]


def representatives(q, n, k, family="all"):
    """Packed ids and weights of every representative the scan enumerates,
    over whole representative ranges of each pivot pattern."""
    powers = _pack_powers(q, k, n)
    parts = [search._partition_ids(q, n, k, piv, 0, search._representatives(q, n, k, piv), powers) for piv in search._patterns(n, k, family)]
    return np.concatenate([ids for ids, _ in parts]), np.concatenate([weights for _, weights in parts])


def test_orbit_rounds_match_per_bucket_oracle():
    # the 36 representatives of the 130 codes of (3, 4, 2) dealt into three
    # buckets by rank, so each bucket holds several classes and is split over
    # several rounds; one more bucket holds one representative of each of
    # three classes, and a one-representative bucket stays below every
    # min_tuple.  The oracle splits the codes of each bucket's sign orbits.
    q, n, k = 3, 4, 2
    powers = _pack_powers(q, k, n)
    ids, weights = representatives(q, n, k)
    order = np.argsort(ids)
    ids, weights = ids[order], weights[order]

    def code_rows(ids):
        return [tuple(map(tuple, g)) for g in _unpack(np.asarray(ids), q, n, powers).tolist()]

    buckets = {bytes([r]): (ids[r::3], weights[r::3]) for r in range(3)}
    three = sorted(sign_canonical(LinearCode(q, n, rows))[0] for rows, _ in subtract_orbits(q, n, [c.rows for c in all_codes(q, n, k)])[:3])
    picked = np.searchsorted(ids, _pack(np.array(three), powers))
    buckets[b"three"] = ids[picked], weights[picked]
    assert len(ids) == 36 and weights.sum() == 130 and len(set(three)) == 3
    want = {}
    for kb, (bucket, _) in buckets.items():
        members = [img for rows in code_rows(bucket) for img in sign_images(LinearCode(q, n, rows))]
        want[kb] = subtract_orbits(q, n, members)
    buckets[b"one"] = ids[:1], weights[:1]
    assert min(len(classes) for classes in want.values()) == 3
    # every class count is tried as min_tuple
    for min_tuple in sorted({2} | {len(classes) for classes in want.values()}):
        for block in (1, 2, 8):
            got = search._monomial_classes(buckets, q, n, powers, min_tuple, block)
            got = {kb: [(code_rows([cid])[0], size) for cid, size in classes] for kb, classes in got.items()}
            assert got == {kb: classes for kb, classes in want.items() if len(classes) >= min_tuple}, (min_tuple, block)


def test_orbit_blocks_change_no_output(tmp_path, monkeypatch, capsys):
    # (2, 6, 3, all): 21 buckets; the collision's bucket of 35 codes is
    # split over two rounds.  One representative per call, four per call,
    # every open bucket in one call and the default block agree byte for byte
    def codesearch(name):
        out = tmp_path / name
        assert main(["codesearch", "--q", "2", "--n", "6", "--k", "3", "--out", str(out)]) == 0
        files = {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}
        return capsys.readouterr().out, files

    want = codesearch("default")
    assert "collisions: 1" in want[0] and len(want[1]) > 2
    for block in (1, 4, 21):
        monkeypatch.setattr(search, "_ORBIT_BLOCK_BYTES", search._orbit_bytes(2, 6, 3, block))
        assert codesearch(f"block-{block}") == want


def test_representative_outside_its_orbit_raises(monkeypatch):
    orbit_rows = search._orbit_rows

    def drop_representative(reps, q, powers):
        rows = orbit_rows(reps, q, powers)
        return np.sort(np.where(rows == _pack(reps, powers)[:, None], -1, rows), axis=1)

    monkeypatch.setattr(search, "_orbit_rows", drop_representative)
    # a raised ArithmeticError, not an assert, so the check holds under python
    # -O; over GF(3) the buckets hold sign-orbit representatives
    for q, n, k in ((2, 6, 3), (3, 4, 2)):
        with pytest.raises(ArithmeticError, match="representative must lie in its own orbit"):
            run_search(q, n, k, family="all", verify=False)


def test_weights_that_miss_the_family_size_raise(monkeypatch):
    partition_ids = search._partition_ids

    def heavier(*args):
        ids, weights = partition_ids(*args)
        return ids, weights + (args[4] == 0)  # one more code in each pattern's first partition

    monkeypatch.setattr(search, "_partition_ids", heavier)
    # raised, not asserted, so the check holds under python -O
    with pytest.raises(ArithmeticError, match="not to the family's 130 codes"):
        run_search(3, 4, 2, family="all", verify=False)


def test_collide_codes_positive_control():
    # the test-side grouping oracle finds the bundled triple among padding
    padding = [
        LinearCode(5, 6, ((1, 0, 0, 0, 0, 0),)),
        LinearCode(5, 6, ((1, 1, 1, 1, 1, 1), (0, 1, 2, 3, 4, 0))),
    ]
    tuples = collide_codes([triplet.code(1), triplet.code(2), triplet.code(3)] + padding, min_tuple=3)
    want = tuple(sorted(canonical_monomial_form(triplet.code(i)).rows for i in (1, 2, 3)))
    assert tuples == [(want, 3, (1, 1, 1))]


def test_collide_codes_collapses_monomial_images():
    c1 = triplet.code(1)
    image = next(im for im in monomial_images(c1) if im.rows != c1.rows)
    assert collide_codes([triplet.code(1), image], min_tuple=2) == []  # same class, no collision
    tuples = collide_codes([c1, image, triplet.code(2)], min_tuple=2)
    assert len(tuples) == 1
    assert sorted(tuples[0][2], reverse=True) == [2, 1]


def test_run_search_matches_brute_force_oracle():
    # (2, 6, 3) is the smallest space tried with a collision: 1,395 codes
    # in 21 buckets, one 2-tuple from a bucket of 35
    codes = all_codes(2, 6, 3)
    rep = run_search(2, 6, 3, family="all", verify=False)
    assert rep.codes_scanned == len(codes) == 1395
    assert rep.distinct_distributions == len({weight_distribution(c) for c in codes}) == 21
    got = [(tuple(c.rows for c in t.codes), t.bucket_size, t.class_sizes) for t in rep.collisions]
    assert got == collide_codes(codes) == [(got[0][0], 35, (20, 15))]


@pytest.mark.parametrize(
    "q, n, k, family, chunk, dtype, limit",
    [
        # 36 representatives of 130 codes in 11 partitions
        pytest.param(3, 4, 2, "all", 20, np.uint8, None, id="3-4-2-all-20-uint8"),
        # 353 representatives of 6,561 codes in partitions of 117, 118 and 118
        pytest.param(3, 6, 2, "systematic", 2500, np.uint8, None, id="3-6-2-systematic-2500-uint8"),
        # 64 representatives of 343 words each: the oracle's counts need uint16
        pytest.param(7, 4, 3, "systematic", 100, np.uint16, None, id="7-4-3-systematic-100-uint16"),
        # GF(2): no signs, so every code is a representative; one folded
        # value, sigs 0..n
        pytest.param(2, 6, 3, "all", 100, np.uint8, None, id="2-6-3-all-100-uint8"),
        # sigs below 36 over a 125 x 125 term table; representatives below
        # 3,000, which are all 1,161 of the 15,625 codes, since the scalar
        # oracles take about 2 ms a representative
        pytest.param(5, 5, 3, "systematic", 1100, np.uint8, 3000, id="5-5-3-systematic-1100-uint8-first3000"),
        # sigs below 4**5 = 1,024: the term table and the keys are uint16
        pytest.param(11, 3, 2, "systematic", 50, np.uint8, None, id="11-3-2-systematic-50-uint8"),
        # k = 1: a 5 x 5 term table, one word per coefficient
        pytest.param(5, 4, 1, "all", 40, np.uint8, None, id="5-4-1-all-40-uint8"),
    ],
)
def test_scan_partition_groups_like_row_oracle(q, n, k, family, chunk, dtype, limit):
    bins = (n + 1) ** (q // 2)
    sig_dtype = search._sig_dtype(q, n)
    assert sig_dtype == (np.uint16 if q == 11 else np.uint8)
    powers = _pack_powers(q, k, n)
    seen, scanned, family_size = [], 0, 0
    for piv in search._patterns(n, k, family):
        # run_search's partitions of the pattern: ceil(codes / chunk) of
        # them, the representatives dealt over them in order
        codes = q ** len(search._free_positions(n, k, piv))
        reps, parts = search._representatives(q, n, k, piv), -(-codes // chunk)
        family_size += codes
        for c in range(parts):
            start, stop = c * reps // parts, min((c + 1) * reps // parts, limit or np.inf)
            if start >= stop:
                if limit is None:  # an empty partition still keys
                    keys, labels = search._scan_partition(q, n, k, piv, start, stop)
                    assert len(keys) == len(labels) == 0
                continue
            keys, labels = search._scan_partition(q, n, k, piv, start, stop)
            ids, weights = search._partition_ids(q, n, k, piv, start, stop, powers)
            gens = _unpack(ids, q, n, powers)
            # each is a canonical code of the pattern and its own sign-orbit
            # representative, weighing its sign orbit
            members = [LinearCode(q, n, tuple(map(tuple, g))) for g in gens.tolist()]
            assert all(code.rows == tuple(map(tuple, g)) for code, g in zip(members, gens.tolist()))
            assert np.all(gens[:, range(k), piv] == 1)
            assert [sign_canonical(code) for code in members] == [(code.rows, w) for code, w in zip(members, weights.tolist())]
            full = np.array([count_row(code, dtype) for code in members])
            # two codes share a label exactly when their oracle rows are equal
            assert labels.dtype == search._label_dtype(len(keys)) and len(labels) == len(ids)
            got = sorted(np.sort(ids[labels == u]).tolist() for u in range(len(keys)))
            assert got == sorted(group.tolist() for group in group_rows(full, ids).values())
            # keys are distinct, increasing and one word of each +-pair wide
            # (every nonzero word over GF(2)); each, with the zero word's 0
            # prepended and every sig doubled for odd q, spells its codes'
            # oracle row as sorted sigs
            half = (q**k - 1) // (1 if q == 2 else 2)
            assert keys.dtype.itemsize == half * sig_dtype.itemsize
            spelled = [kb.tobytes() for kb in keys]
            assert all(a < b for a, b in zip(spelled, spelled[1:]))
            rows = [np.concatenate([[0], np.repeat(np.frombuffer(kb, sig_dtype), 1 if q == 2 else 2)]) for kb in spelled]
            assert [rows[u].astype(sig_dtype).tobytes() for u in labels] == [np.repeat(np.arange(bins), row).astype(sig_dtype).tobytes() for row in full]
            seen += ids.tolist()
            scanned += int(weights.sum())
    # distinct representatives whose sign orbits hold every code once
    assert len(set(seen)) == len(seen)
    assert scanned == family_size == (len(all_codes(q, n, k)) if family == "all" else q ** (k * (n - k)))


def test_support_tables_are_built_once_a_pattern():
    # the cache holds every pivot pattern of any search the guards admit,
    # n <= 9 (the orbit guard refuses 10! images), so the 21 tables of an
    # "all" search are built once each, not when planned, scanned and merged
    search._supports.cache_clear()
    run_search(3, 7, 2, family="all", verify=False)
    assert search._supports.cache_info().misses == comb(7, 2)
    assert search._supports.cache_info().maxsize >= max(comb(9, k) for k in range(10))


def test_support_tables_weigh_every_code_once():
    # from the support tables alone, no code enumerated: over the support
    # masks of every pivot pattern (the systematic one among them) the
    # representative counts times their sign-orbit sizes sum to q**|free|,
    # for every prime q < 30, n <= 8 and k whose ids fit the 64-bit pack
    for n in range(1, 9):
        for k in range(1, n + 1):
            for q in (q for q in range(2, 30) if _is_prime(q) and k * n * log2(q) <= 62):
                for piv in search._patterns(n, k, "all"):
                    free = len(search._free_positions(n, k, piv))
                    if q == 2:  # no signs: every code is a representative
                        assert search._representatives(q, n, k, piv) == 2**free
                        continue
                    forest, offsets = search._supports(q, n, k, piv)
                    masks = np.arange(1 << free)
                    assert len(forest) == len(masks) and not np.any(forest & ~masks)  # the forest lies in the support
                    counts, weights = np.diff(offsets), np.left_shift(1, np.bitwise_count(forest), dtype=np.int64)
                    assert counts.min() >= 1 and int(counts @ weights) == q**free, (q, n, k, piv)
                    assert search._representatives(q, n, k, piv) == offsets[-1]


def test_62_bit_sigs_bucket_like_the_scalar_distribution():
    # 79 is the largest prime q whose length-2 sigs, below 3**39, fit under
    # 2**63; they take uint64
    assert 3**39 < 2**63 < 3**41 and search._sig_dtype(79, 2) == np.uint64
    codes = all_codes(79, 2, 1)
    rep = run_search(79, 2, 1, family="all", verify=False)
    assert rep.codes_scanned == len(codes) == 80
    assert rep.distinct_distributions == len({weight_distribution(c) for c in codes}) == 21
    got = [(tuple(c.rows for c in t.codes), t.bucket_size, t.class_sizes) for t in rep.collisions]
    assert got == collide_codes(codes)


@pytest.mark.parametrize(
    "q, n, k, family",
    [(17, 3, 1, "all"), (7, 5, 2, "systematic"), (5, 6, 3, "systematic"), (11, 5, 2, "systematic"), (17, 4, 2, "systematic")],
)
def test_scan_partition_peaks_within_the_guard_estimate(q, n, k, family):
    # the first min(5**6, all) representatives of the largest pivot pattern,
    # more than any of its partitions holds: 81 codes of 8 uint16 sigs, then
    # 7,984 codes of 24 uint8 sigs, 15,625 of 62 uint8 sigs and of 60 uint16
    # sigs, and 10,657 of 144 uint32 sigs; 1-byte sigs are sorted through
    # the uint32 block.  The cached term and support tables are rebuilt.
    piv = search._patterns(n, k, family)[0]
    rows = min(5**6, search._representatives(q, n, k, piv))
    search._scan_partition(q, n, k, piv, 0, rows)  # numpy's first-call caches
    search._term_table.cache_clear()
    search._supports.cache_clear()
    tracemalloc.start()
    try:
        search._scan_partition(q, n, k, piv, 0, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= search._scan_bytes(q, n, k, rows) <= search.MAX_PARTITION_BYTES


@pytest.mark.parametrize("q, n, k", [(7, 5, 2), (5, 6, 3), (2, 8, 4)])
def test_orbit_block_peaks_within_the_guard_estimate(q, n, k):
    # one block of systematic representatives, as many as run_search stacks
    # in one _orbit_rows call (154, 21 and 1), with the cached tables rebuilt
    fixed, orbit = search._orbit_bytes(q, n, k, 0), search._orbit_bytes(q, n, k, 1)
    block = max(1, (search._ORBIT_BLOCK_BYTES - fixed) // (orbit - fixed))
    free = np.random.default_rng(q).integers(0, q, size=(block, k, n - k))
    reps = np.concatenate([np.broadcast_to(np.eye(k, dtype=np.int64), (block, k, k)), free], axis=2)
    powers = _pack_powers(q, k, n)
    _orbit_rows(reps, q, powers)  # numpy's first-call caches
    search._permutations.cache_clear()
    search._subset_tables.cache_clear()
    tracemalloc.start()
    try:
        _orbit_rows(reps, q, powers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= search._orbit_bytes(q, n, k, block) <= search.MAX_PARTITION_BYTES


@pytest.mark.parametrize(
    "q, n, k, family", [(5, 5, 2, "systematic"), (7, 5, 2, "systematic"), (2, 7, 3, "all"), (3, 5, 2, "all")]
)
def test_dual_families_have_matching_buckets_and_classes(q, n, k, family):
    # C -> C^perp carries the buckets and classes of (q, n, k) one to one
    # onto those of (q, n, n - k) (module docstring), tuples onto tuples
    rep = run_search(q, n, k, family=family, verify=False)
    dual = run_search(q, n, n - k, family=family, verify=False)

    def sizes(report):
        return sorted((t.bucket_size, tuple(sorted(t.class_sizes))) for t in report.collisions)

    assert (rep.codes_scanned, rep.distinct_distributions) == (dual.codes_scanned, dual.distinct_distributions)
    assert sizes(rep) == sizes(dual)
    duals = sorted(sorted(canonical_monomial_form(dual_code(c)).rows for c in t.codes) for t in rep.collisions)
    assert duals == sorted(sorted(c.rows for c in t.codes) for t in dual.collisions)


def test_verify_tuple_accepts_bundled_triple():
    t = verify_tuple([triplet.code(i) for i in (1, 2, 3)])
    assert t.verified
    assert len(t.certificates) == 3
    assert all(c.verdict is Verdict.ISOSPECTRAL for c in t.certificates)
    assert len(t.pairwise) == 3
    assert not any(w.found for w in t.pairwise)
    assert [l.dimension for l in t.lattices] == [6, 6, 6]


def test_verify_tuple_rejects_duplicates():
    with pytest.raises(TupleVerificationError) as err:
        verify_tuple([triplet.code(1), triplet.code(1)])
    assert err.value.stage == "inequivalence"


def test_verify_tuple_rejects_size_mismatch():
    zero = LinearCode(5, 6, ())
    with pytest.raises(TupleVerificationError) as err:
        verify_tuple([triplet.code(1), zero])
    assert err.value.stage == "distribution"


def test_verify_tuple_rejects_single_code():
    with pytest.raises(TupleVerificationError) as err:
        verify_tuple([triplet.code(1)])
    assert err.value.stage == "shape"


def test_verify_tuple_rejects_mixed_length():
    with pytest.raises(TupleVerificationError) as err:
        verify_tuple([triplet.code(1), LinearCode(5, 3, ((1, 0, 2),))])
    assert err.value.stage == "shape"


def test_verify_tuple_rejects_equivalent_pair():
    c1 = triplet.code(1)
    image = next(im for im in monomial_images(c1) if im.rows != c1.rows)
    with pytest.raises(TupleVerificationError) as err:
        verify_tuple([c1, image])
    assert err.value.stage == "inequivalence"


def test_run_search_counts_all_subspaces():
    # [3 choose 1] over GF(2) = 7, [4 choose 2] over GF(3) = 130
    rep = run_search(2, 3, 1, family="all", min_tuple=2, verify=False)
    assert rep.codes_scanned == 7
    rep = run_search(3, 4, 2, family="all", min_tuple=2, verify=False, chunk_size=10)
    assert rep.codes_scanned == 130
    assert rep.distinct_distributions >= 1


def test_run_search_is_deterministic():
    a = run_search(3, 4, 2, family="all", min_tuple=2, verify=False, chunk_size=7)
    b = run_search(3, 4, 2, family="all", min_tuple=2, verify=False, chunk_size=31)
    assert a.collisions == b.collisions
    assert a.codes_scanned == b.codes_scanned
    assert a.distinct_distributions == b.distinct_distributions


def test_run_search_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "scan.json.gz"
    a = run_search(3, 4, 2, family="all", min_tuple=2, verify=False, checkpoint_path=path)
    assert path.exists()
    b = run_search(3, 4, 2, family="all", min_tuple=2, verify=False, checkpoint_path=path)
    assert a == b
    with pytest.raises(CodeError):
        run_search(3, 4, 1, family="all", min_tuple=2, verify=False, checkpoint_path=path)


def _codesearch(tmp_path, checkpoint):
    return main(["codesearch", "--q", "3", "--n", "4", "--k", "2", "--out", str(tmp_path / "out"), "--checkpoint", str(checkpoint)])


def test_corrupt_checkpoint_exits_2(tmp_path, capsys):
    path = tmp_path / "scan.json.gz"
    run_search(3, 4, 2, family="all", min_tuple=2, verify=False, checkpoint_path=path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    assert _codesearch(tmp_path, path) == 2
    assert capsys.readouterr().err.startswith("error:")
    with gzip.open(path, "wt") as fh:
        json.dump([1, 2], fh)
    assert _codesearch(tmp_path, path) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_interrupted_checkpoint_save_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "scan.json.gz"
    want = run_search(3, 4, 2, family="all", min_tuple=2, verify=False, checkpoint_path=path)
    before = path.read_bytes()

    write_bytes = search.Path.write_bytes

    def crash(self, data):
        write_bytes(self, data[: len(data) // 2])  # interrupted halfway through the write
        raise KeyboardInterrupt

    monkeypatch.setattr(search.Path, "write_bytes", crash)
    with pytest.raises(KeyboardInterrupt):
        search._checkpoint_save(path, before + search._checkpoint_member(["0:9", {}]))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scan.json.gz"]
    assert run_search(3, 4, 2, family="all", min_tuple=2, verify=False, checkpoint_path=path) == want


class Stop(Exception):
    pass


def _record(change):
    """An edit of the first partition record of (3, 4, 2, all)."""

    def edit(lines):
        key, keys, labels = json.loads(lines[1])
        return [lines[0], json.dumps(change(key, keys, labels))] + lines[2:]

    return edit


@pytest.mark.parametrize(
    "edit, problem",
    [
        # a single-object checkpoint of the format without a schema
        (lambda lines: [json.dumps({"params": json.loads(lines[0])["params"], "partitions": {}})], "schema"),
        (lambda lines: [lines[0].replace(f'"schema": {search.CHECKPOINT_SCHEMA}', f'"schema": {search.CHECKPOINT_SCHEMA + 1}')] + lines[1:], "schema"),
        # both are caught before the record's keys and labels are decoded
        (lambda lines: lines + [json.dumps(["0:99", ["not hex"], "not hex"])], "does not have"),
        (lambda lines: lines + [json.dumps([json.loads(lines[-1])[0], ["not hex"], "not hex"])], "twice"),
        (_record(lambda key, keys, labels: [key, keys]), "malformed"),
        (_record(lambda key, keys, labels: {key: [keys, labels]}), "malformed"),
        (_record(lambda key, keys, labels: [key, ["zz" + keys[0][2:]] + keys[1:], labels]), "malformed"),
        (_record(lambda key, keys, labels: [key, keys, "zz" + labels[2:]]), "malformed"),
        (_record(lambda key, keys, labels: [key, dict.fromkeys(keys, 0), labels]), "malformed"),
        (_record(lambda key, keys, labels: [key, [keys[0] + "00"] + keys[1:], labels]), "malformed"),
        (_record(lambda key, keys, labels: [key, [keys[1], keys[0]] + keys[2:], labels]), "malformed"),
        (_record(lambda key, keys, labels: [key, [keys[0]] + keys, labels]), "malformed"),
        (_record(lambda key, keys, labels: [key, keys, labels + "00"]), "malformed"),
        (_record(lambda key, keys, labels: [key, keys, labels[2:]]), "malformed"),
        (_record(lambda key, keys, labels: [key, keys, f"{len(keys):02x}" + labels[2:]]), "malformed"),
    ],
    ids=[
        "no-schema",
        "unknown-schema",
        "foreign-partition",
        "repeated-partition",
        "short-record",
        "record-not-a-list",
        "key-not-hex",
        "labels-not-hex",
        "keys-not-a-list",
        "key-width",
        "keys-out-of-order",
        "key-repeated",
        "labels-too-long",
        "labels-too-short",
        "label-past-keys",
    ],
)
def test_checkpoint_schema_and_records_are_checked(tmp_path, capsys, edit, problem):
    path = tmp_path / "scan.json.gz"
    run_search(3, 4, 2, family="all", min_tuple=2, verify=False, checkpoint_path=path)
    assert _codesearch(tmp_path, path) == 0
    capsys.readouterr()
    lines = gzip.decompress(path.read_bytes()).decode().splitlines()
    assert len(json.loads(lines[1])[1]) > 2  # the first partition's keys
    path.write_bytes(gzip.compress("".join(line + "\n" for line in edit(lines)).encode()))
    assert _codesearch(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and problem in err and "Traceback" not in err


def test_schema_2_checkpoint_is_refused(tmp_path, capsys):
    # checkpoints of the four previous formats: schema 2 held bucket keys
    # over all bins, each with its packed code ids, schema 3 count rows over
    # the reachable bins and one label per code, schema 4 keys of all q**k
    # sorted sigs and one label per code, and schema 5 keys of one word of
    # each +-pair and one label per code, where schema 6 has one per
    # sign-orbit representative; each record below is the first partition
    # of (3, 4, 2, all)
    path = tmp_path / "scan.json.gz"
    params = {"q": 3, "n": 4, "k": 2, "family": "all", "chunk": 5**6}
    count_rows = ["0100000800", "0100020402", "0100040004", "0100060200", "0102000204", "0102020400", "0104040000"]
    labels = "0605050504040504040503030201010201010503030201010201010502020301010301010401010101000100010401010100010101"
    labels += "00050202030101030101040101010001010100040101010100010001"
    sig_rows = ["000101010102020202", "000101020203030303", "000101030304040404", "000202020202020303"]
    sig_rows += ["000202020204040404", "000202030303030404", "000303030303030303"]
    sig_labels = "000101010202010202010303040505040505010303040505040505010404030505030505020505050506050605"
    sig_labels += "020505050605050506010404030505030505020505050605050506020505050506050605"
    half_rows = ["01010202", "01020303", "01030404", "02020203", "02020404", "02030304", "03030303"]
    records = {2: ["0:0", {"0100000000": [1, 2]}], 3: ["0:0", count_rows, labels], 4: ["0:0", sig_rows, sig_labels], 5: ["0:0", half_rows, sig_labels]}
    assert search.CHECKPOINT_SCHEMA == 6
    for schema, record in records.items():
        header = search._checkpoint_member({"schema": schema, "params": params})
        path.write_bytes(header + search._checkpoint_member(record))
        assert _codesearch(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "schema" in err and "6" in err and "Traceback" not in err


def test_checkpoint_of_7_5_2_is_small_and_reproducible(tmp_path):
    # (7, 5, 2, systematic) in 8 partitions: 370,053 bytes when each record
    # held every packed code id
    kwargs = dict(family="systematic", verify=False)
    full = tmp_path / "full.json.gz"
    want = run_search(7, 5, 2, checkpoint_path=full, **kwargs)
    assert full.stat().st_size < 100_000
    path = tmp_path / "jobs2.json.gz"
    assert run_search(7, 5, 2, checkpoint_path=path, jobs=2, **kwargs) == want
    assert path.read_bytes() == full.read_bytes()
    for cut in range(1, 8):
        path = tmp_path / f"cut{cut}.json.gz"

        def stop(done, total, cut=cut):
            if done == cut:
                raise Stop

        with pytest.raises(Stop):
            run_search(7, 5, 2, checkpoint_path=path, progress=stop, **kwargs)
        assert run_search(7, 5, 2, checkpoint_path=path, **kwargs) == want
        assert path.read_bytes() == full.read_bytes()


# SHA-256 of codesearch --json stdout, of the results directory (each file's
# relative path, a NUL, its bytes and a NUL, in path order) and of the
# decompressed checkpoint, so that they do not depend on the zlib build.
# Resumed runs are compared with uninterrupted ones of the same version;
# these digests also catch a change of key order or of checkpoint bytes
# from one version to the next.
PINNED_OUTPUTS = {
    ("7", "5", "2", "systematic"): (
        "36d036e5bd0870be2eb76a70e0efb84ae721159281c0c60650f9be8d116916fe",
        "2117bbac4b47dce4b266d8d6a2899d7e7370124407230e11bef2d2a793fae851",
        "56ce49fecf4b4f03f52964bc7c855e3ffbd850483d82d67c769bb1064848b8d5",
    ),
    ("3", "5", "2", "all"): (
        "5017e995d1f757d577a15d9199b94baab435920d5d89a0d4e5674cdd9e1cc3f3",
        "1faccc5b430f8236a9c4b47ac5e5cb2e964272533a5dd4e52721b95dc783a306",
        "9da7f24f925bf717884777448c4f912ca057d5b54219f627106f612c07870bf9",
    ),
    ("11", "4", "2", "systematic"): (
        "2f93e372bfdd5da2fd695f7d9411f9373a0ab28c3af1df39b706db8dcdf39c6c",
        "9fee04487279d31c35b662e4d5dc4591cf93523e3619fefe0d44d1a4085fcdea",
        "2280feb94fad85e78af01fa9f5596acd05dfd5937702f512449332fb3ab76b90",
    ),
}


@pytest.mark.parametrize("q, n, k, family", PINNED_OUTPUTS)
def test_codesearch_outputs_are_pinned(tmp_path, capsys, q, n, k, family):
    out, checkpoint = tmp_path / "out", tmp_path / "checkpoint.json.gz"
    args = ["--q", q, "--n", n, "--k", k, "--family", family, "--json", "--out", str(out), "--checkpoint", str(checkpoint)]
    assert main(["codesearch", *args]) == 0
    results = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        results.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (stdout, results.hexdigest(), hashlib.sha256(gzip.decompress(checkpoint.read_bytes())).hexdigest()) == PINNED_OUTPUTS[q, n, k, family]


def test_resumed_search_is_byte_identical(tmp_path):
    kwargs = dict(family="all", min_tuple=2, verify=False, chunk_size=20)
    full = tmp_path / "full.json.gz"
    totals = []
    want = run_search(3, 4, 2, checkpoint_path=full, progress=lambda done, total: totals.append(total), **kwargs)
    partitions = totals[0]
    assert partitions == len(totals) == 11
    for jobs in (1, 2):
        path = tmp_path / f"jobs{jobs}.json.gz"
        assert run_search(3, 4, 2, checkpoint_path=path, jobs=jobs, **kwargs) == want
        assert path.read_bytes() == full.read_bytes()
        for cut in range(1, partitions):
            path = tmp_path / f"jobs{jobs}-cut{cut}.json.gz"

            def stop(done, total, cut=cut):
                if done == cut:
                    raise Stop

            with pytest.raises(Stop):
                run_search(3, 4, 2, checkpoint_path=path, jobs=jobs, progress=stop, **kwargs)
            assert run_search(3, 4, 2, checkpoint_path=path, jobs=jobs, **kwargs) == want
            assert path.read_bytes() == full.read_bytes()


def test_empty_partitions_keep_their_records(tmp_path):
    # partitions of 3 codes: pattern (0, 1) of (3, 4, 2) keeps its 27
    # partitions for 17 representatives and (0, 2) its 9 for 8, so 10 and 1
    # of them are empty, and each still has its record, its progress call
    # and its place in a resume
    kwargs = dict(family="all", min_tuple=2, verify=False, chunk_size=3)
    full, totals = tmp_path / "full.json.gz", []
    want = run_search(3, 4, 2, checkpoint_path=full, progress=lambda done, total: totals.append(total), **kwargs)
    assert totals == [44] * 44
    records = [json.loads(line) for line in gzip.decompress(full.read_bytes()).decode().splitlines()[1:]]
    assert [key for key, _, _ in records] == [f"{p}:{c}" for p, parts in enumerate((27, 9, 3, 3, 1, 1)) for c in range(parts)]
    assert sum(keys == [] and labels == "" for _, keys, labels in records) == 11
    assert want == run_search(3, 4, 2, family="all", min_tuple=2, verify=False)
    for cut in (1, 2, 3):  # partition 0:0 is empty, 0:1 is not, 0:2 is empty
        path = tmp_path / f"cut{cut}.json.gz"

        def stop(done, total, cut=cut):
            if done == cut:
                raise Stop

        with pytest.raises(Stop):
            run_search(3, 4, 2, checkpoint_path=path, progress=stop, **kwargs)
        assert run_search(3, 4, 2, checkpoint_path=path, jobs=2, **kwargs) == want
        assert path.read_bytes() == full.read_bytes()


def test_progress_exception_stops_a_parallel_scan(tmp_path, monkeypatch):
    # workers are forked, so they inherit the logging wrapper
    log = tmp_path / "scans.log"
    scan = search._scan_partition

    def logged_scan(*args):
        with open(log, "a") as fh:
            fh.write(f"{args[4]}\n")
        return scan(*args)

    def stop(done, total):
        if done == 1:
            raise Stop

    kwargs = dict(family="systematic", verify=False)
    want_path, path = tmp_path / "full.json.gz", tmp_path / "cut.json.gz"
    want = run_search(7, 5, 2, checkpoint_path=want_path, **kwargs)
    monkeypatch.setattr(search, "_scan_partition", logged_scan)
    jobs = 2
    with pytest.raises(Stop):
        run_search(7, 5, 2, checkpoint_path=path, jobs=jobs, progress=stop, **kwargs)
    monkeypatch.undo()
    scanned = log.read_text().split()
    assert 1 < len(scanned) <= 1 + jobs  # the failing partition and at most jobs more, of 8
    assert run_search(7, 5, 2, checkpoint_path=path, jobs=jobs, **kwargs) == want
    assert path.read_bytes() == want_path.read_bytes()


def test_pool_is_sized_by_pending_partitions_and_cores(tmp_path, monkeypatch):
    # a fork pool starts every worker at the first submit, so max_workers
    # must not follow --jobs alone; the fake runs each scan in this process
    made = []

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    kwargs = dict(family="all", min_tuple=2, verify=False, chunk_size=20)
    want = run_search(3, 4, 2, **kwargs)  # 11 partitions
    monkeypatch.setattr(search, "ProcessPoolExecutor", FakePool)
    for cores, workers in ((4, 4), (64, 11), (None, None), (1, None)):
        monkeypatch.setattr(search.os, "cpu_count", lambda cores=cores: cores)
        made.clear()
        assert run_search(3, 4, 2, jobs=100_000, **kwargs) == want
        assert made == ([workers] if workers else [])
    # a resumed search sizes the pool by the partitions it has left
    monkeypatch.setattr(search.os, "cpu_count", lambda: 64)
    for left in (2, 1):
        path = tmp_path / f"left{left}.json.gz"

        def stop(done, total, left=left):
            if done == total - left:
                raise Stop

        with pytest.raises(Stop):
            run_search(3, 4, 2, checkpoint_path=path, progress=stop, **kwargs)
        made.clear()
        assert run_search(3, 4, 2, checkpoint_path=path, jobs=100_000, **kwargs) == want
        assert made == ([left] if left > 1 else [])


def test_run_search_parallel_matches_serial(tmp_path):
    a = run_search(2, 4, 2, family="all", min_tuple=2, verify=False, chunk_size=3)
    b = run_search(2, 4, 2, family="all", min_tuple=2, verify=False, chunk_size=3, jobs=2)
    assert a == b


def test_run_search_guards():
    with pytest.raises(CodeError):
        run_search(4, 4, 2)  # modulus not prime
    with pytest.raises(CodeError):
        run_search(5, 6, 3, min_tuple=1)
    with pytest.raises(CodeError):
        run_search(5, 8, 4)  # 20 patterns of up to 5**16 codes, over the guard
    with pytest.raises(CodeError):
        run_search(5, 6, 3, family="short")
    with pytest.raises(CodeError, match="jobs must be at least 1"):
        run_search(3, 4, 2, jobs=0)


def test_orbit_guard_refuses_before_any_scan(monkeypatch):
    def expand(*args):
        raise AssertionError("nothing may be scanned or expanded")

    monkeypatch.setattr(search, "_scan_partition", expand)
    monkeypatch.setattr(search, "_orbit_rows", expand)
    # (3, 10, 1) has 29,524 codes, and one orbit holds 10! images
    with pytest.raises(CodeError, match="one monomial orbit needs about"):
        run_search(3, 10, 1, verify=False)


def test_systematic_family_on_small_space():
    # q=2, n=4, k=2 systematic: 2^4 = 16 codes, all with pivots 0,1
    rep = run_search(2, 4, 2, family="systematic", min_tuple=2, verify=False)
    assert rep.codes_scanned == 16
    assert rep.family == "systematic"
    for t in rep.collisions:
        assert len(t.codes) >= 2
        assert sum(t.class_sizes) == t.bucket_size


def random_monomial_image(code, rng):
    q, n = code.modulus, code.length
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, q - 1)) for _ in range(n)]
    rows = tuple(
        tuple(signs[j] * row[perm[j]] % q for j in range(n)) for row in code.rows
    )
    return LinearCode(q, n, rows)


def test_spectrum_transfer_on_monomial_pairs():
    # equal weight distributions force equal lift spectra
    import random

    from toriso.codes import lift, weight_distribution
    from toriso.enumeration import rep_spectrum
    from toriso.lattices import gram

    rng = random.Random(11)
    base = [triplet.code(1), triplet.code(2), LinearCode(5, 6, ((1, 2, 3, 0, 0, 4), (0, 1, 0, 2, 1, 0)))]
    for c in base:
        other = random_monomial_image(c, rng)
        assert weight_distribution(c) == weight_distribution(other)
        sa = rep_spectrum(gram(lift(c)), 30)
        sb = rep_spectrum(gram(lift(other)), 30)
        assert sa.entries == sb.entries
