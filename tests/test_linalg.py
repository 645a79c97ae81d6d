import random
from math import gcd
from fractions import Fraction

import pytest

from avw.errors import InternalError
from avw.linalg import PRIME, Vec, frac, full_rank_mod_p, nullspace, rank, row_echelon_ff
from linalg_helpers import map_keys, mat_mul, mat_vec


def rref_nullspace(rows):
    """Plain Fraction Gauss-Jordan; independent check of the Bareiss path."""
    if not rows:
        return None
    m = [[Fraction(x) for x in r] for r in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for row_i, c in enumerate(pivots):
            v[c] = -m[row_i][fcol]
        basis.append(v)
    return basis


def test_nullspace_simple():
    rows = [[frac(1), frac(2)], [frac(2), frac(4)]]
    basis = nullspace(rows)
    assert len(basis) == 1
    assert basis[0][0] * 1 + basis[0][1] * 2 == 0


def test_nullspace_empty_matrix_needs_ncols():
    assert nullspace([], ncols=3) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(InternalError):
        nullspace([])


def test_rank_zero_matrix():
    assert rank([[frac(0), frac(0)]]) == 0
    assert nullspace([[frac(0), frac(0)]]) == [[1, 0], [0, 1]]


def test_nullspace_matches_fraction_rref_on_random_matrices():
    rng = random.Random(20240517)
    for trial in range(120):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                 for _ in range(ncols)] for _ in range(nrows)]
        ours = nullspace(rows)
        theirs = rref_nullspace(rows)
        assert len(ours) == len(theirs)
        # same kernel: every vector of one lies in the span of the other
        for v in ours:
            assert all(sum(r[j] * v[j] for j in range(ncols)) == 0 for r in rows)
        assert rank(rows) == ncols - len(ours)


def test_nullspace_on_sparse_and_degenerate_matrices():
    rng = random.Random(777)
    for trial in range(80):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 10)
        rows = [[Fraction(rng.randint(-3, 3)) if rng.random() < 0.4 else Fraction(0)
                 for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5 and nrows >= 2:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[min(1, nrows - 1)])]
        ours = nullspace(rows)
        theirs = rref_nullspace(rows)
        assert len(ours) == len(theirs)
        for v in ours:
            assert all(sum(r[j] * v[j] for j in range(ncols)) == 0 for r in rows)


def test_row_echelon_integer_entries():
    ech, piv = row_echelon_ff([[Fraction(1, 2), frac(1)], [frac(1), frac(3)]])
    assert piv == [0, 1]
    assert all(isinstance(x, int) for row in ech for x in row)


def test_mat_helpers():
    a = [[frac(1), frac(2)], [frac(0), frac(1)]]
    assert mat_vec(a, [frac(1), frac(1)]) == [3, 1]
    assert mat_mul(a, a) == [[1, 4], [0, 1]]


def test_vec_arithmetic():
    v = Vec({"x": 1, "y": 2})
    w = Vec({"y": -2, "z": 5})
    assert (v + w).terms == {"x": 1, "z": 5}
    assert not (v - v)
    assert not v.scaled(0)
    assert v.scaled(Fraction(1, 2))["y"] == 1
    assert Vec.basis("x") + Vec.basis("x", -1) == Vec()
    assert map_keys(v, str.upper).terms == {"X": 1, "Y": 2}


# --- dense Bareiss reference ------------------------------------------------
# The dense fraction-free elimination that ``row_echelon_ff`` used before the
# sparse insertion rewrite, kept verbatim as an oracle: pivots and kernel
# bases must agree Fraction for Fraction.

def _bareiss_integer_rows(rows):
    out = []
    for row in rows:
        mult = 1
        for x in row:
            d = x.denominator
            mult = mult * d // gcd(mult, d)
        out.append([int(x * mult) for x in row])
    return out


def bareiss_row_echelon(rows):
    a = _bareiss_integer_rows(rows)
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            head = a[i][c]
            for j in range(c, ncols):
                a[i][j] = (a[i][j] * a[r][c] - head * a[r][j]) // prev
        prev = a[r][c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], pivots


def bareiss_nullspace(rows):
    n = len(rows[0])
    ech, pivots = bareiss_row_echelon(rows)
    free_cols = [c for c in range(n) if c not in set(pivots)]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = Fraction(0)
            for j in range(c + 1, n):
                if v[j]:
                    s += Fraction(ech[r][j]) * v[j]
            v[c] = -s / ech[r][c]
        basis.append(v)
    return basis


def assert_matches_bareiss(rows):
    ech, pivots = row_echelon_ff(rows)
    _, ref_pivots = bareiss_row_echelon(rows)
    assert pivots == ref_pivots
    ncols = len(rows[0])
    for row, c in zip(ech, pivots):
        assert len(row) == ncols and all(isinstance(x, int) for x in row)
        assert row[c] != 0 and not any(row[:c])
    ours, ref = nullspace(rows), bareiss_nullspace(rows)
    assert ours == ref
    assert all(type(x) is Fraction for v in ours for x in v)
    assert rank(rows) == len(ref_pivots)
    return ours


def _sparse_matrix(rng, nrows, ncols, zero_row_frac, density, den=5):
    rows = []
    for _ in range(nrows):
        if rng.random() < zero_row_frac:
            rows.append([Fraction(0)] * ncols)
        else:
            rows.append([Fraction(rng.randint(-6, 6), rng.randint(1, den))
                         if rng.random() < density else Fraction(0)
                         for _ in range(ncols)])
    return rows


def test_sparse_insertion_matches_bareiss_on_tall_sparse_matrices():
    rng = random.Random(624039)
    for nrows, ncols, density in ((624, 39, 0.12), (300, 24, 0.06), (160, 39, 0.03)):
        rows = _sparse_matrix(rng, nrows, ncols, 0.76, density)
        assert sum(1 for r in rows if not any(r)) > 0.7 * nrows
        assert_matches_bareiss(rows)


def test_sparse_insertion_matches_bareiss_on_rank_deficient_tall_matrices():
    # few independent rows: most columns stay free and the kernel is large
    rng = random.Random(31)
    for trial in range(6):
        ncols = 39
        base = _sparse_matrix(rng, 12, ncols, 0.0, 0.15)
        rows = []
        for _ in range(200):
            if rng.random() < 0.75:
                rows.append([Fraction(0)] * ncols)
            else:
                i, j = rng.randrange(12), rng.randrange(12)
                s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3))
                rows.append([s * x + t * y for x, y in zip(base[i], base[j])])
        kernel = assert_matches_bareiss(rows)
        assert len(kernel) >= ncols - 12


def test_sparse_insertion_matches_bareiss_on_duplicate_and_dependent_rows():
    rng = random.Random(5)
    for trial in range(40):
        ncols = rng.randint(2, 9)
        rows = _sparse_matrix(rng, rng.randint(2, 6), ncols, 0.1, 0.5)
        rows.append(list(rows[0]))
        rows.insert(1, [Fraction(-3, 7) * x for x in rows[-1]])
        rows.append([x + 2 * y for x, y in zip(rows[0], rows[-2])])
        rng.shuffle(rows)
        assert_matches_bareiss(rows)


def test_sparse_insertion_matches_bareiss_with_eleven_digit_denominators():
    rng = random.Random(11)
    for trial in range(25):
        ncols = rng.randint(2, 8)
        rows = [[Fraction(rng.randint(-10**11, 10**11), rng.randint(10**10, 10**11 - 1))
                 if rng.random() < 0.5 else Fraction(0) for _ in range(ncols)]
                for _ in range(rng.randint(1, ncols + 2))]
        if len(rows) >= 2:
            rows.append([x * Fraction(98765432101, 12345678901) - y
                         for x, y in zip(rows[0], rows[1])])
        assert_matches_bareiss(rows)


def test_sparse_insertion_stops_reading_at_full_column_rank():
    rng = random.Random(3)
    for ncols in (1, 5, 13):
        rows = [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
        rows += _sparse_matrix(rng, 3 * ncols, ncols, 0.5, 0.4)
        assert assert_matches_bareiss(rows) == []

    class Unread(list):
        def __iter__(self):
            raise AssertionError("row read after full column rank")

    rows = [[frac(2), Fraction(1, 3)], [frac(0), Fraction(-5, 2)], Unread([frac(1), frac(1)])]
    ech, pivots = row_echelon_ff(rows)
    assert pivots == [0, 1] and len(ech) == 2


def test_sparse_insertion_on_all_zero_matrices():
    for nrows, ncols in ((1, 1), (5, 3), (40, 7)):
        rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        assert row_echelon_ff(rows) == ([], [])
        assert rank(rows) == 0
        assert assert_matches_bareiss(rows) == [
            [Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]


def test_sparse_insertion_matches_bareiss_on_dense_rank_deficient_40x40():
    rng = random.Random(40)
    left = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(31)]
            for _ in range(40)]
    right = [[Fraction(rng.randint(-5, 5)) for _ in range(40)] for _ in range(31)]
    rows = mat_mul(left, right)
    kernel = assert_matches_bareiss(rows)
    assert len(kernel) == 9
    assert all(not any(x for x in mat_vec(rows, v)) for v in kernel)


def test_nullspace_and_rank_use_the_module_global_echelon(monkeypatch):
    import avw.linalg
    calls = []
    real = avw.linalg.row_echelon_ff

    def spy(rows, ncols=None):
        calls.append(len(rows))
        return real(rows, ncols)

    monkeypatch.setattr(avw.linalg, "row_echelon_ff", spy)
    rows = [[frac(1), frac(2)], [frac(2), frac(4)]]
    assert len(nullspace(rows)) == 1
    assert rank(rows) == 1
    assert calls == [2, 2]


def test_nullspace_matches_sympy_property():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies

    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)))
    shape = st.tuples(st.integers(1, 9), st.integers(1, 7))
    matrices = shape.flatmap(lambda s: st.lists(
        st.lists(entry, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(matrices)
    def check(rows):
        m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                          for r in rows])
        theirs = [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
        assert nullspace(rows) == theirs
        assert rank(rows) == m.rank()

    check()


def test_nullspace_same_on_int_and_fraction_zeros_property():
    # window columns hold structural zeros as the int 0; stacked into rows
    # (lists or the tuples of zip) they must give what Fraction zeros give
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    nonzero = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 12))
    entry = st.one_of(st.just(0), st.just(0), nonzero)
    shape = st.tuples(st.integers(1, 12), st.integers(1, 7))
    matrices = shape.flatmap(lambda s: st.lists(
        st.lists(entry, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(matrices)
    def check(rows):
        as_fractions = [[Fraction(x) for x in row] for row in rows]
        expect = nullspace(as_fractions)
        assert all(type(x) is Fraction for v in expect for x in v)
        for variant in (rows, [tuple(row) for row in rows]):
            got = nullspace(variant)
            assert got == expect
            assert all(type(x) is Fraction for v in got for x in v)
            assert row_echelon_ff(variant) == row_echelon_ff(as_fractions)
            assert rank(variant) == rank(as_fractions)

    check()


# -- sparse dict rows ---------------------------------------------------------

def _as_dicts(rows, int_coeffs=False):
    """Rows as dicts of their nonzeros, integral entries optionally as int
    (the form highest-weight columns hand out)."""
    def coeff(x):
        return x.numerator if int_coeffs and x.denominator == 1 else x
    return [{j: coeff(x) for j, x in enumerate(row) if x} for row in rows]


def assert_dict_rows_match(rows):
    ncols = len(rows[0])
    ref = bareiss_nullspace(rows)
    assert nullspace(rows) == ref
    for sparse in (_as_dicts(rows), _as_dicts(rows, int_coeffs=True),
                   [row for row in _as_dicts(rows) if row]):
        got = nullspace(sparse, ncols)
        assert got == ref
        assert all(type(x) is Fraction for v in got for x in v)
        assert row_echelon_ff(sparse, ncols)[1] == row_echelon_ff(rows)[1]
    return ref


def test_dict_rows_match_bareiss_on_tall_sparse_matrices():
    rng = random.Random(624039)
    for nrows, ncols, density in ((624, 39, 0.12), (300, 24, 0.06), (160, 39, 0.03)):
        assert_dict_rows_match(_sparse_matrix(rng, nrows, ncols, 0.76, density))


def test_dict_rows_match_bareiss_on_rank_deficient_tall_matrices():
    rng = random.Random(31)
    for trial in range(4):
        ncols = 39
        base = _sparse_matrix(rng, 12, ncols, 0.0, 0.15)
        rows = []
        for _ in range(200):
            i, j = rng.randrange(12), rng.randrange(12)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3))
            rows.append([s * x + t * y for x, y in zip(base[i], base[j])])
        assert len(assert_dict_rows_match(rows)) >= ncols - 12


def test_dict_rows_match_bareiss_on_duplicate_and_dependent_rows():
    rng = random.Random(5)
    for trial in range(40):
        ncols = rng.randint(2, 9)
        rows = _sparse_matrix(rng, rng.randint(2, 6), ncols, 0.1, 0.5)
        rows.append(list(rows[0]))
        rows.insert(1, [Fraction(-3, 7) * x for x in rows[-1]])
        rows.append([x + 2 * y for x, y in zip(rows[0], rows[-2])])
        rng.shuffle(rows)
        assert_dict_rows_match(rows)


def test_dict_rows_with_explicit_zeros_and_an_empty_stack():
    rows = [{0: 0, 2: Fraction(1, 2)}, {}, {1: 3, 2: 0}]
    assert nullspace(rows, 3) == [[Fraction(1), Fraction(0), Fraction(0)]]
    assert nullspace([{}, {1: 0}], 2) == [[1, 0], [0, 1]]
    assert nullspace([], 2) == [[1, 0], [0, 1]]


def test_nullspace_feeds_the_echelon_its_rows_sparsest_first(monkeypatch):
    import avw.linalg
    seen = []
    real = avw.linalg.row_echelon_ff

    def spy(rows, ncols=None):
        seen.append((list(rows), ncols))
        return real(rows, ncols)

    monkeypatch.setattr(avw.linalg, "row_echelon_ff", spy)
    rows = [{0: 1, 1: 2, 2: 3}, {1: 5}, {0: 1, 2: 1}, {2: 7}, {}]
    assert nullspace(rows, 4) == [[0, 0, 0, 1]]
    assert seen == [([{}, {1: 5}, {2: 7}, {0: 1, 2: 1}, {0: 1, 1: 2, 2: 3}], 4)]


def test_sparse_insertion_of_dict_rows_stops_reading_at_full_column_rank():
    class Unread(dict):
        def items(self):
            raise AssertionError("row read after full column rank")

        def __iter__(self):
            raise AssertionError("row read after full column rank")

    rows = [{0: frac(2), 1: Fraction(1, 3)}, {1: Fraction(-5, 2)}, Unread({0: 1, 1: 1})]
    ech, pivots = row_echelon_ff(rows, 2)
    assert pivots == [0, 1] and len(ech) == 2
    # nullspace sorts by length only, so it reads no more than the echelon does
    rows = [{0: 1}, Unread({0: 1, 1: 1, 2: 1}), {1: 4, 2: 1}, {2: Fraction(3, 4)}]
    assert nullspace(rows, 3) == []


def test_dict_row_outside_the_columns_is_an_internal_error():
    for bad in ({3: 1}, {0: 1, 5: 2}, {-1: 1}):
        with pytest.raises(InternalError, match="outside"):
            nullspace([{0: 1}, bad], 3)
    with pytest.raises(InternalError):
        row_echelon_ff([{2: 1}], 2)


def test_nullspace_shape_checks_are_internal_errors():
    with pytest.raises(InternalError, match="disagrees"):
        nullspace([[frac(1), frac(2)]], ncols=3)
    with pytest.raises(InternalError, match="required"):
        nullspace([{0: 1}])
    with pytest.raises(InternalError) as err:
        nullspace([])
    assert not isinstance(err.value, ValueError)


def test_nullspace_ignores_the_row_order_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), nonzero)
    shape = st.tuples(st.integers(1, 14), st.integers(1, 8))
    matrices = shape.flatmap(lambda s: st.lists(
        st.lists(entry, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(matrices, st.randoms(use_true_random=False))
    def check(rows, rnd):
        ncols = len(rows[0])
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        expect_pivots = row_echelon_ff(rows)[1]
        expect = nullspace(rows)
        assert row_echelon_ff(shuffled)[1] == expect_pivots
        assert row_echelon_ff(_as_dicts(shuffled), ncols)[1] == expect_pivots
        assert nullspace(shuffled) == expect
        assert nullspace(_as_dicts(shuffled), ncols) == expect

    check()


# -- the full-rank certificate mod p -----------------------------------------

def bareiss_rank(rows):
    return len(bareiss_row_echelon(rows)[1])


def _spy_echelon(monkeypatch):
    import avw.linalg
    calls = []
    real = avw.linalg.row_echelon_ff

    def spy(rows, ncols=None):
        calls.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(avw.linalg, "row_echelon_ff", spy)
    return calls


def test_certificate_matches_bareiss_on_random_sparse_matrices():
    rng = random.Random(61)
    full = deficient = 0
    for trial in range(60):
        ncols = rng.randint(1, 12)
        rows = _sparse_matrix(rng, rng.randint(1, 3 * ncols), ncols, 0.3, rng.choice((0.2, 0.5)))
        if trial % 3 == 0:  # a diagonal block makes the column rank full
            rows += [[Fraction(rng.randint(1, 9), rng.randint(1, 5)) if i == j else Fraction(0)
                      for j in range(ncols)] for i in range(ncols)]
            rng.shuffle(rows)
        full_rank = bareiss_rank(rows) == ncols
        full, deficient = full + full_rank, deficient + (not full_rank)
        assert full_rank_mod_p(rows, ncols) == full_rank
        assert full_rank_mod_p(_as_dicts(rows, int_coeffs=True), ncols) == full_rank
        assert nullspace(rows) == bareiss_nullspace(rows)
        assert nullspace(_as_dicts(rows), ncols) == bareiss_nullspace(rows)
    assert full >= 20 and deficient >= 10


def test_a_rank_drop_only_mod_p_goes_to_the_exact_path(monkeypatch):
    calls = _spy_echelon(monkeypatch)
    for rows in ([[1, 1], [1, 1 + PRIME]],  # det = PRIME
                 [[PRIME, 0], [0, 1]],  # a row scaled by PRIME
                 [[Fraction(3, 7), Fraction(2 * PRIME + 1)], [Fraction(3, 7), Fraction(1)]]):
        assert bareiss_rank(rows) == 2
        assert not full_rank_mod_p(rows, 2)
        calls.clear()
        assert nullspace(rows) == bareiss_nullspace(rows) == []
        assert calls == [2]
        assert rank(rows) == 2


def test_a_denominator_divisible_by_p_declines_the_certificate(monkeypatch):
    calls = _spy_echelon(monkeypatch)
    for rows in ([[Fraction(1, PRIME), 0], [0, 1]],
                 [{0: 1, 1: Fraction(5, 2 * PRIME)}, {1: 1}],
                 [[Fraction(PRIME + 1, PRIME * 3)]]):
        assert not full_rank_mod_p(rows, 2 if len(rows) == 2 else 1)
        calls.clear()
        assert nullspace(rows, 2 if len(rows) == 2 else 1) == []
        assert calls, "the exact path must answer"
    # the same matrices with a denominator p does not divide are certified
    assert full_rank_mod_p([[Fraction(1, PRIME - 1), 0], [0, 1]], 2)


def test_certificate_is_never_true_below_full_rank_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # entries that vanish mod p, have p in the denominator, or sit next to
    # a multiple of p, so the rank mod p often differs from the rank over Q
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                      st.builds(lambda a, b: Fraction(a * PRIME + b), st.integers(-2, 2),
                                st.integers(-1, 1)),
                      st.builds(lambda a: Fraction(a, PRIME), st.integers(-3, 3)))
    shape = st.tuples(st.integers(1, 7), st.integers(1, 5), st.integers(1, 5))

    def product(s):
        n_left, inner, ncols = s
        left = st.lists(st.lists(entry, min_size=inner, max_size=inner),
                        min_size=n_left, max_size=n_left)
        right = st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=inner, max_size=inner)
        return st.tuples(left, right)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(shape.flatmap(product))
    def check(factors):
        rows = mat_mul(*factors)  # rank <= inner, often below ncols
        ncols = len(rows[0])
        certified = full_rank_mod_p(rows, ncols)
        assert not certified or bareiss_rank(rows) == ncols
        assert full_rank_mod_p(_as_dicts(rows), ncols) == certified
        assert nullspace(rows) == bareiss_nullspace(rows)

    check()


def test_full_rank_never_reaches_the_exact_elimination(monkeypatch):
    calls = _spy_echelon(monkeypatch)
    rng = random.Random(7)
    for ncols in (1, 4, 9):
        rows = [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
        rows += _sparse_matrix(rng, 2 * ncols, ncols, 0.5, 0.4)
        assert nullspace(rows) == []
        assert nullspace(_as_dicts(rows), ncols) == []
    assert calls == []
    deficient = [[frac(1), frac(2), frac(0)], [frac(2), frac(4), frac(0)]]
    assert nullspace(deficient) == bareiss_nullspace(deficient)
    assert nullspace(_as_dicts(deficient), 3) == bareiss_nullspace(deficient)
    assert calls == [3, 3]


def test_rank_of_sparse_rows_needs_ncols():
    assert rank([{0: Fraction(1)}, {3: Fraction(1)}], ncols=4) == 2
    assert rank([{0: 1, 3: 2}, {0: 2, 3: 4}, {}], ncols=5) == 1
    assert rank([], ncols=3) == rank([]) == 0
    with pytest.raises(InternalError, match="ncols required"):
        rank([{0: Fraction(1)}, {3: Fraction(1)}])
    with pytest.raises(InternalError, match="outside"):
        rank([{0: 1}, {3: 1}], ncols=3)
    with pytest.raises(InternalError, match="disagrees"):
        rank([[frac(1), frac(2)]], ncols=3)
    rng = random.Random(4)
    for trial in range(20):
        ncols = rng.randint(1, 8)
        rows = _sparse_matrix(rng, rng.randint(1, 10), ncols, 0.3, 0.4)
        assert rank(_as_dicts(rows), ncols) == rank(rows) == bareiss_rank(rows)
