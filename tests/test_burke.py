"""Tests for the lattice field recursion and its row/column properties."""

import hashlib
import json
import os
import tracemalloc
from itertools import count

import numpy as np
import pytest

from ipmaps import burke, cli
from ipmaps.burke import (
    LatticeField, check_recursion, field_rows, require_field_shape,
    simulate_field, verify_burke,
)
from ipmaps.involutions import (
    BLOCK, POSITIVE_REAL, InvolutionPair, _deviations, catalog_get,
)
from ipmaps.kernels import KernelError
from ipmaps.laws import (
    Gamma, Geometric, GIG, ShiftGeom, ThreePoint, TruncGeom,
)
from ipmaps.rng import RandomStream


def _rrw_field(seed, N=50, T=50, nu=None):
    pair = catalog_get("reflecting_rw")
    mu = Geometric(0.4)
    nu = nu or ThreePoint(0.2, 0.5, 0.3)
    return simulate_field(pair, mu, nu, N, T, RandomStream(seed))


def _my_field(seed, N=50, T=50):
    pair = catalog_get("matsumoto_yor")
    return simulate_field(pair, GIG(2, 1), Gamma(2, 1), N, T,
                          RandomStream(seed))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_field_shapes():
    field = _rrw_field(1, N=40, T=35)
    assert field.X.shape == (40, 36)
    assert field.U.shape == (41, 35)
    assert field.shape == (40, 35)


def test_single_site_field_is_one_application_of_h():
    pair = catalog_get("reflecting_rw")
    field = simulate_field(pair, Geometric(0.4), ThreePoint(0.2, 0.5, 0.3),
                           1, 1, RandomStream(3))
    x0, u0 = field.X[0, 0], field.U[0, 0]
    assert field.X[0, 1] == pair.f(x0, u0)
    assert field.U[1, 0] == pair.g(x0, u0)


def _scalar_field(pair, mu, nu, N, T, rng):
    """Row-major site-by-site recursion: the reference for the wavefront."""
    mu_rng, nu_rng = rng.split(2)
    X = np.empty((N, T + 1))
    U = np.empty((N + 1, T))
    X[:, 0] = np.asarray(mu.sample(mu_rng, N), dtype=float)
    U[0, :] = np.asarray(nu.sample(nu_rng, T), dtype=float)
    for n in range(N):
        for t in range(T):
            X[n, t + 1] = pair.f(X[n, t], U[n, t])
            U[n + 1, t] = pair.g(X[n, t], U[n, t])
    return X, U


_WAVEFRONT_MAPS = {
    "reflecting_rw": (Geometric(0.4), ThreePoint(0.2, 0.5, 0.3)),
    "matsumoto_yor": (GIG(2, 1), Gamma(2, 1)),
    "kdv_g1": (TruncGeom(0.5, 2), ShiftGeom(0.5, 2)),
}


@pytest.mark.parametrize("name", sorted(_WAVEFRONT_MAPS))
@pytest.mark.parametrize(
    "N, T", [(23, 9), (7, 31), (1, 1), (1, 17), (1, 0), (0, 3), (3, 0),
              (0, 0)])
def test_wavefront_matches_scalar_recursion(name, N, T):
    pair = catalog_get(name)
    mu, nu = _WAVEFRONT_MAPS[name]
    field = simulate_field(pair, mu, nu, N, T, RandomStream(29))
    X, U = _scalar_field(pair, mu, nu, N, T, RandomStream(29))
    assert np.array_equal(field.X, X)
    assert np.array_equal(field.U, U)


@pytest.mark.parametrize("N, T", [(400, 400), (3000, 30), (30, 3000)])
def test_long_fields_take_memory_in_proportion_to_their_sites(N, T):
    pair = catalog_get("matsumoto_yor")
    mu, nu = _WAVEFRONT_MAPS["matsumoto_yor"]
    tracemalloc.start()
    try:
        field = simulate_field(pair, mu, nu, N, T, RandomStream(31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    X, U = _scalar_field(pair, mu, nu, N, T, RandomStream(31))
    assert np.array_equal(field.X, X)
    assert np.array_equal(field.U, U)
    # X and U alone are 2 N T float64s, and the f and g steps of one
    # anti-diagonal add O(min(N, T)) more; no copy of either is made
    assert peak < 3 * N * T * 8


class _RowStarts:
    """State law stub whose n-th draw is 100 n, so X[n, t] = 100 n + t."""

    def sample(self, rng, size):
        return 100.0 * np.arange(1, size + 1)


class _Ones:
    def sample(self, rng, size):
        return np.ones(size)


def test_escape_reports_row_major_first_site():
    # (n=5, t=2) lies on anti-diagonal 5, (n=1, t=9) on the later 8, but
    # (n=1, t=9) comes first in row-major order
    bad = (100 * 1 + 9, 100 * 5 + 2)

    def f(x, u):
        y = x + 1.0
        return np.where(np.isin(y, bad), -1.0, y)

    pair = InvolutionPair("escaping", POSITIVE_REAL, POSITIVE_REAL,
                          f, lambda x, u: u)
    with pytest.raises(KernelError, match=r"\(n=1, t=9\)"):
        simulate_field(pair, _RowStarts(), _Ones(), 6, 10, RandomStream(0))


def test_rrw_states_stay_nonnegative_integers():
    field = _rrw_field(5)
    assert np.all(field.X >= 0)
    assert np.array_equal(field.X, np.round(field.X))


def test_my_field_stays_positive():
    field = _my_field(7)
    assert np.all(field.X > 0)
    assert np.all(field.U > 0)


def test_fields_are_reproducible():
    a = _rrw_field(11)
    b = _rrw_field(11)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.U, b.U)


def test_recursion_invariant():
    assert check_recursion(_rrw_field(13)).details["worst_deviation"] == 0.0
    rep = check_recursion(_my_field(13))
    assert rep.passed
    assert rep.details["worst_deviation"] <= 1e-9


def _nan_in_x(field):
    field.X[5, 10] = np.nan


def _nan_in_u(field):
    field.U[7, 20] = np.nan


def _nan_and_shift_in_one_row(field):
    field.X[5, 10] = np.nan
    field.X[5, 30] += 1.0


@pytest.mark.parametrize("make", [_rrw_field, _my_field])
@pytest.mark.parametrize("corrupt", [_nan_in_x, _nan_in_u,
                                     _nan_and_shift_in_one_row])
def test_recursion_fails_on_a_nan(make, corrupt):
    field = make(1, N=60, T=60)
    corrupt(field)
    rep = check_recursion(field)
    assert not rep.passed
    assert np.isnan(rep.details["worst_deviation"])
    details = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    assert details["details"]["worst_deviation"] is None


def _whole_field_worst(field):
    """The worst deviation by one whole-field pass, the banded check's
    reference."""
    X, U, pair = field.X, field.U, field.pair
    y, v = pair.f(X[:, :-1], U[:-1]), pair.g(X[:, :-1], U[:-1])
    return float(np.max(np.maximum(_deviations(y, X[:, 1:], pair.x_space),
                                   _deviations(v, U[1:], pair.u_space)),
                        initial=0.0))


# T = 100 makes bands of 81 rows, so N = 200 ends on a band of 38
_BAND = BLOCK // 8 // 101


@pytest.mark.parametrize("make", [_rrw_field, _my_field])
@pytest.mark.parametrize("row", [0, _BAND - 1, _BAND, 199])
@pytest.mark.parametrize("corrupt", ["shift", "nan"])
def test_banded_recursion_check_finds_every_site(make, row, corrupt):
    # rows on both sides of a band boundary, and the last row, whose band
    # is shorter than the others
    field = make(2, N=200, T=100)
    if corrupt == "shift":
        field.X[row, 37] += 1.0
    else:
        field.X[row, 37] = np.nan
    rep = check_recursion(field)
    assert not rep.passed
    worst = rep.details["worst_deviation"]
    if corrupt == "nan":
        assert np.isnan(worst)
    else:
        assert worst == _whole_field_worst(field) > 0


@pytest.mark.parametrize("make", [_rrw_field, _my_field])
def test_banded_recursion_check_reads_the_last_noise_row(make):
    # U[N] is read only by the last band, one row past its states
    field = make(2, N=200, T=100)
    field.U[200, 11] += 1.0
    rep = check_recursion(field)
    assert not rep.passed
    assert rep.details["worst_deviation"] == _whole_field_worst(field) > 0


@pytest.mark.parametrize("make", [_rrw_field, _my_field])
def test_banded_recursion_check_equals_the_whole_field_pass(make):
    field = make(4, N=200, T=100)
    rep = check_recursion(field)
    assert rep.details["worst_deviation"] == _whole_field_worst(field)


def test_recursion_check_works_a_band_at_a_time():
    field = _my_field(5, N=400, T=400)
    tracemalloc.start()
    try:
        check_recursion(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below one whole-field array of float64
    assert peak < 400 * 400 * 8


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_burke_rrw_passes():
    report = verify_burke(_rrw_field(1))
    assert report.passed, report.details


def test_verify_burke_my_passes():
    report = verify_burke(_my_field(1))
    assert report.passed, report.details


def test_corrupted_boundary_rejects():
    # noise drawn from ThreePoint(.5, .2, .3) but declared as (.2, .5, .3):
    # the declared laws pass the cell identity, and the boundary GOF sees
    # the swap
    rejected = 0
    for seed in range(100, 130):
        field = _rrw_field(seed, nu=ThreePoint(0.5, 0.2, 0.3))
        field.nu = ThreePoint(0.2, 0.5, 0.3)
        report = verify_burke(field)
        assert report.details["exact"]["failing_cells"] == 0
        rejected += not report.passed
    assert rejected >= 29


# ---------------------------------------------------------------------------
# integer maps: the exact cell identity and the boundary GOFs
# ---------------------------------------------------------------------------

_KDV_LAWS = (TruncGeom(0.5, 2), ShiftGeom(0.5, 2))
_RRW_LAWS = (Geometric(0.4), ThreePoint(0.2, 0.5, 0.3))


def _square_field(name, mu, nu, size, seed):
    return simulate_field(catalog_get(name), mu, nu, size, size,
                          RandomStream(seed))


def test_kdv_g2_fails_burke_through_the_exact_block():
    # kdv_g2 moves TruncGeom (x) ShiftGeom, while its chain 0 and noise
    # column 0 follow their kernels all the same
    failing = []
    for seed in range(1, 21):
        report = verify_burke(_square_field("kdv_g2", *_KDV_LAWS, 50, seed))
        exact = report.details["exact"]
        assert not report.passed
        assert exact["failing_cells"] > 0, (seed, report.details)
        assert exact["witness_cell"] is not None
        failing.append(exact["failing_cells"])
    assert failing[:3] == [80, 110, 85]


@pytest.mark.parametrize("size", [50, 100, 200])
@pytest.mark.parametrize("name", ["kdv_g1", "reflecting_rw"])
def test_product_preserving_fields_have_no_failing_cell(name, size):
    laws = _KDV_LAWS if name == "kdv_g1" else _RRW_LAWS
    details = verify_burke(_square_field(name, *laws, size, 1)).details
    exact = details["exact"]
    assert exact["checked_cells"] > 0
    assert exact["failing_cells"] == 0 and exact["witness_cell"] is None
    assert {"x_boundary", "u_boundary"} <= set(details)
    assert not {"column_kernel", "dual_column_kernel"} & set(details)


def test_rrw_off_its_forced_law_fails_at_the_first_cell():
    # (0, 1) -> (1, -1): mu(1) nu(-1) = mu(0) nu(1) needs theta = p / q = 0.4
    field = _square_field("reflecting_rw", Geometric(0.5), _RRW_LAWS[1], 50,
                          1)
    report = verify_burke(field)
    assert not report.passed
    assert report.details["exact"]["witness_cell"] == [0, 1]


def _jump_in_a_chain(field):
    field.X[3, 10] = field.X[3, 9] + 5       # no step of the walk


def _noise_off_the_support(field):
    field.U[0, 7] = 2.0                      # ThreePoint lives on {-1, 0, 1}


def test_impossible_transition_fails_with_a_reason_and_strict_json(
        monkeypatch):
    stanza = cli._validate_stanza({
        "kind": "burke", "map": "reflecting_rw",
        "mu": {"kind": "geometric", "params": {"theta": 0.4}},
        "nu": {"kind": "three_point",
               "params": {"p": 0.2, "q": 0.5, "r": 0.3}}}, 0)
    for edit, failed in ((_jump_in_a_chain, {"recursion"}),
                         (_noise_off_the_support, {"recursion",
                                                   "u_boundary"})):
        field = _rrw_field(1)
        edit(field)
        # what a `burke` stanza reports on this field
        monkeypatch.setattr(burke, "simulate_field", lambda *args: field)
        entry, = cli.run({"seed": 1, "checks": [stanza]})["checks"]
        assert entry["passed"] is False
        details = json.loads(json.dumps(entry, allow_nan=False))["details"]
        assert {k for k, v in details.items() if isinstance(v, dict)
                and v.get("passed") is False} == failed
        assert details["recursion"]["details"]["worst_deviation"] > 0
        if "u_boundary" in failed:
            flags = details["u_boundary"]["flags"]
            assert details["u_boundary"]["statistic"] is None
            assert flags["outside_support"] == 1 and "reason" in flags


def test_verify_burke_size_floor():
    with pytest.raises(KernelError):
        verify_burke(_rrw_field(1, N=10, T=50))


@pytest.mark.parametrize("N,T,ok", [
    (30, 30, False), (40, 40, False), (48, 48, False), (50, 50, True),
    (30, 69, False), (30, 70, True), (66, 30, False), (68, 30, True),
])
def test_field_shape_floor_is_the_row_pair_count(N, T, ok):
    # (N // 2) * (T // 10) same-slice row pairs, at least 100
    if ok:
        require_field_shape(N, T)
        for field in (_rrw_field(1, N=N, T=T), _my_field(1, N=N, T=T)):
            assert set(verify_burke(field).details) >= {"row_independence"}
    else:
        with pytest.raises(KernelError, match="row pairs"):
            require_field_shape(N, T)


def _written(field, path):
    """The bytes `field_rows` writes through `cli._rewrite` to `path`,
    which the file object's position must end at."""
    ends = []

    def write(fh):
        field_rows(field, fh)
        ends.append(fh.tell())

    cli._rewrite(path, write)
    written = path.read_bytes()
    assert ends == [len(written)]
    return written


def test_field_rows_layout(tmp_path):
    field = _rrw_field(17, N=5, T=4)
    lines = _written(field, tmp_path / "field.csv").decode().split("\r\n")
    # every line CRLF-ended: the header, T noise lines for the boundary
    # noise row n = 0, then N rows of T+1 site lines, in row order
    assert lines[0] == "n,t,x,u" and lines[-1] == ""
    assert not any("\r" in line or "\n" in line for line in lines)
    sites = [line.split(",") for line in lines[1:-1]]
    assert [int(site[0]) for site in sites] == [0] * 4 + \
        [n for n in range(1, 6) for _ in range(5)]
    rows = [sites[:4]] + [sites[4 + 5 * k:9 + 5 * k] for k in range(5)]
    assert all([int(site[1]) for site in row] == list(range(len(row)))
               for row in rows)
    assert rows[0][0] == ["0", "0", "nan", repr(float(field.U[0, 0]))]
    assert rows[2][3] == ["2", "3", repr(float(field.X[1, 3])),
                          repr(float(field.U[2, 3]))]
    assert rows[5][4][3] == "nan"


def _field_rows_reference(field):
    """The rows of field.csv as one f-string per site, the layout's
    reference."""
    X, U = field.X.tolist(), field.U.tolist()
    rows = ["".join([f"0,{t},nan,{u}\r\n" for t, u in enumerate(U[0])])]
    for n, (xs, us) in enumerate(zip(X, U[1:]), start=1):
        rows.append("".join([f"{n},{t},{x},{u}\r\n" for t, x, u
                             in zip(count(), xs, us + ["nan"])]))
    return rows


def _reference(field, rows=None):
    """field.csv, or its header and first `rows` rows, from the reference."""
    return ("n,t,x,u\r\n"
            + "".join(_field_rows_reference(field)[:rows])).encode()


@pytest.mark.parametrize("make", [_rrw_field, _my_field])
def test_field_rows_match_the_per_site_reference(make, tmp_path):
    field = make(3, N=37, T=41)
    assert _written(field, tmp_path / "field.csv") == _reference(field)


@pytest.mark.parametrize("name", ["reflecting_rw", "matsumoto_yor"])
def test_field_rows_keep_every_float_repr(name, tmp_path):
    # -0.0 and 0.0 share a value but not a repr; on the integer branch the
    # table of reprs must tell them apart
    values = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e16, 1e-05, 5e-324, 3.0]
    X = np.resize(values, (4, 8))
    U = np.resize(values[::-1], (5, 7))
    field = LatticeField(X=X, U=U, pair=catalog_get(name), mu=None, nu=None)
    written = _written(field, tmp_path / "field.csv")
    assert written == _reference(field)
    text = written.decode()
    for v in values:
        assert f",{v!r}\r\n" in text and f",{v!r}," in text


def _kdv_g1_field():
    # the field of the kdv_g1 golden field.csv: states -2.0 to 2.0, 90 of
    # them -0.0, and noise -2.0 to 11.0
    return simulate_field(catalog_get("kdv_g1"), TruncGeom(0.5, 2),
                          ShiftGeom(0.5, 2), 60, 60, RandomStream(1).split(1)[0])


def _wide_integer_field():
    # integer values from 0 to 10**9 on far fewer sites
    rng = np.random.default_rng(3)
    X = rng.integers(0, 10**9, (30, 41)).astype(float)
    U = rng.integers(0, 10**9, (31, 40)).astype(float)
    X[0, 0], U[0, 0] = 0.0, 1e9
    return LatticeField(X=X, U=U, pair=catalog_get("reflecting_rw"),
                        mu=None, nu=None)


def _integer_field_with_a_half():
    field = _rrw_field(11, N=68, T=30)
    field.X[40, 3] = 2.5   # its block is not in the table
    return field


@pytest.mark.parametrize("make", [_kdv_g1_field, _wide_integer_field,
                                  _integer_field_with_a_half])
def test_integer_field_rows_match_the_per_site_reference(make, tmp_path):
    field = make()
    assert _written(field, tmp_path / "field.csv") == _reference(field)


def test_kdv_g1_field_rows_are_the_golden_bytes(tmp_path):
    # the digest CI pins for `ipmaps verify` of this field, taken from the
    # writer that keyed its table on np.unique of the float64 bits
    field = _kdv_g1_field()
    assert field.X.min() < 0
    assert (np.signbit(field.X) & (field.X == 0)).sum() == 90
    written = _written(field, tmp_path / "field.csv")
    assert hashlib.sha256(written).hexdigest() == (
        "d2e691f9b725f43feb29117e8c2915a68b2f105c4bb6a9b10f6e764ab6f07ed1")


def test_a_wide_integer_range_makes_no_table(tmp_path):
    field = _wide_integer_field()
    assert burke._integer_table(field.X, field.U) is None
    burke.repr_words(np.ones(1))   # its tables are made once a process
    with open(tmp_path / "field.csv", "wb") as fh:
        tracemalloc.start()
        try:
            field_rows(field, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a table of the range would take gigabytes
    assert peak < 4e6


# ---------------------------------------------------------------------------
# field rows at any shape, a block at a time, in this process
# ---------------------------------------------------------------------------

@pytest.fixture
def no_fork(monkeypatch):
    """An os.fork that fails the test: field rows are made in this
    process."""
    def fork():
        raise AssertionError("field_rows called os.fork")

    monkeypatch.setattr(os, "fork", fork, raising=False)


@pytest.mark.parametrize("N, T", [(1, 5), (30, 70), (68, 30), (31, 40),
                                  (100, 100), (10001, 2), (2, 10001),
                                  (0, 3), (3, 0)])
def test_field_rows_match_the_per_site_reference_at_any_shape(
        no_fork, N, T, tmp_path):
    # 10001 rows and 10001 sites a row: five-digit n and t; with T = 0 the
    # noise row has no line
    field = _my_field(11, N=N, T=T)
    assert _written(field, tmp_path / "field.csv") == _reference(field)


def test_integer_field_rows_are_never_forked(no_fork, tmp_path):
    field = _rrw_field(11, N=30, T=70)
    assert _written(field, tmp_path / "field.csv") == _reference(field)


def test_field_rows_on_one_core_are_not_forked(no_fork, monkeypatch,
                                               tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    field = _my_field(11, N=68, T=30)
    assert _written(field, tmp_path / "field.csv") == _reference(field)


def test_field_rows_without_fork_are_the_same(monkeypatch, tmp_path):
    monkeypatch.delattr(os, "fork")
    field = _my_field(11, N=68, T=30)
    assert _written(field, tmp_path / "field.csv") == _reference(field)


@pytest.mark.parametrize("integer", [False, True])
def test_field_rows_over_a_longer_file_leave_no_stale_byte(tmp_path,
                                                           integer):
    field = (_rrw_field if integer else _my_field)(11, N=68, T=30)
    path = tmp_path / "field.csv"
    path.write_bytes(b"\xff" * 2 * len(_reference(field)))
    assert _written(field, path) == _reference(field)


@pytest.mark.parametrize("first_block_written", [False, True])
def test_a_failed_write_leaves_no_byte_of_the_old_file(
        monkeypatch, tmp_path, first_block_written):
    # the file is cut where writing stopped: after the header if the
    # formatter failed on the first block, after that block's rows if it
    # failed on the second
    field = _my_field(11, N=1000, T=30)
    path = tmp_path / "field.csv"
    path.write_bytes(b"\xff" * 2 * len(_reference(field)))
    calls, words = [], burke.repr_words

    def failing(values):
        calls.append(1)
        if len(calls) > first_block_written:
            raise ValueError("formatting failed")
        return words(values)

    monkeypatch.setattr(burke, "repr_words", failing)
    with pytest.raises(ValueError, match="formatting failed"):
        _written(field, path)
    written = path.read_bytes()
    assert _reference(field).startswith(written)
    row_ends = np.cumsum([len(_reference(field, 0))] + [
        len(row) for row in _field_rows_reference(field)])
    # the first block holds whole rows, but not all of them
    assert len(written) in (row_ends[1:-1] if first_block_written
                            else row_ends[:1])


@pytest.mark.parametrize("N", [400, 1000])
def test_field_rows_write_a_block_at_a_time(N, tmp_path):
    field = _my_field(5, N=N, T=400)
    burke.repr_words(np.ones(1))   # its tables are made once a process
    with open(tmp_path / "field.csv", "wb") as fh:
        tracemalloc.start()
        try:
            field_rows(field, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = fh.tell()
    # one bound at both sizes: a block's words and temporaries, below the
    # 7.4 MB of text of the 400 x 400 field alone
    assert peak < 4e6 < size
