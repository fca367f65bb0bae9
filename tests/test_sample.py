import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drpredict import (
    ExperimentalSample,
    ParseError,
    ValidationError,
    load_sample,
)
from drpredict import sample as sample_module
from drpredict.sample import _load_rows, load_mask, order_statistic
from oracles import central_moments, empirical_cdf, empirical_quantile, quantile_at


# ---------------------------------------------------------------- container


def test_sample_basic_counts():
    s = ExperimentalSample(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1, 0, 1, 0]))
    assert s.n == 4
    assert s.n1 == 2
    assert s.n0 == 2
    np.testing.assert_array_equal(s.treated, [1.0, 3.0])
    np.testing.assert_array_equal(s.control, [2.0, 4.0])


def test_sample_accepts_lists_and_is_immutable():
    s = ExperimentalSample([0.5, -1.5, 2.0], [0, 1, 1])
    assert s.outcomes.dtype == np.float64
    with pytest.raises(ValueError):
        s.outcomes[0] = 99.0
    with pytest.raises(ValueError):
        s.treatments[0] = 0


def test_sorted_arms_are_cached_and_read_only():
    s = ExperimentalSample(np.array([3.0, 1.0, 2.0, 0.5, -1.0]), np.array([1, 1, 0, 1, 0]))
    assert s.arms is s.arms
    y1, y0 = s.arms.values[: s.n1], s.arms.values[s.n1 :]
    np.testing.assert_array_equal(y1, [0.5, 1.0, 3.0])
    np.testing.assert_array_equal(y0, [-1.0, 2.0])
    for arm in (y1, y0):
        with pytest.raises(ValueError):
            arm[0] = 9.0
    assert s.arms.moments.T.tolist() == [list(central_moments(s.treated)), list(central_moments(s.control))]


@pytest.mark.parametrize(
    "y,t,msg",
    [
        ([1.0, 2.0], [1], "mismatch"),
        ([1.0], [1], "at least 2"),
        ([1.0, np.nan], [1, 0], "non-finite"),
        ([1.0, np.inf], [1, 0], "non-finite"),
        ([1.0, 2.0], [1, 2], "0 or 1"),
        ([1.0, 2.0], [1, 1], "empty control"),
        ([1.0, 2.0], [0, 0], "empty treated"),
    ],
)
def test_sample_validation_errors(y, t, msg):
    with pytest.raises(ValidationError, match=msg):
        ExperimentalSample(np.asarray(y, dtype=float), np.asarray(t))


@pytest.mark.parametrize(
    "t,message",
    [
        ([0, 1, 0.5, 1], "treatment must be 0 or 1, got np.float64(0.5) at index 2"),
        ([0, 1, 2, 0, 2], "treatment must be 0 or 1, got np.int64(2) at index 2"),
        ([0, -1, 1, 2], "treatment must be 0 or 1, got np.int64(-1) at index 1"),
    ],
)
def test_bad_treatment_code_names_first_index_and_value(t, message):
    with pytest.raises(ValidationError) as err:
        ExperimentalSample(np.arange(float(len(t))), np.asarray(t))
    assert str(err.value) == message


def test_sample_2d_rejected():
    with pytest.raises(ValidationError, match="1-dimensional"):
        ExperimentalSample(np.ones((2, 2)), np.array([1, 0]))


# ---------------------------------------------------------------- CSV loading


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_sample_roundtrip(tmp_path):
    p = _write(tmp_path, "y,treat\n1.5,1\n-0.5,0\n2.25,1\n0.0,0\n")
    s = load_sample(p, "y", "treat")
    assert s.n == 4 and s.n1 == 2
    np.testing.assert_allclose(s.treated, [1.5, 2.25])


def test_load_sample_extra_columns_ignored(tmp_path):
    p = _write(tmp_path, "id,y,treat,site\na,1.0,1,x\nb,2.0,0,y\n")
    s = load_sample(p, "y", "treat")
    assert s.n == 2


def test_load_sample_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_sample(tmp_path / "nope.csv", "y", "t")


def test_load_sample_missing_column(tmp_path):
    p = _write(tmp_path, "y,t\n1.0,1\n")
    with pytest.raises(ParseError) as exc:
        load_sample(p, "y", "treat")
    assert exc.value.column == "treat"
    assert exc.value.row == 1


def test_load_sample_bad_number_reports_row(tmp_path):
    p = _write(tmp_path, "y,t\n1.0,1\noops,0\n")
    with pytest.raises(ParseError) as exc:
        load_sample(p, "y", "t")
    assert exc.value.row == 3
    assert exc.value.column == "y"


def test_load_sample_bad_treatment_code(tmp_path):
    p = _write(tmp_path, "y,t\n1.0,1\n2.0,0.5\n")
    with pytest.raises(ParseError) as exc:
        load_sample(p, "y", "t")
    assert exc.value.row == 3


def test_load_sample_missing_cell(tmp_path):
    p = _write(tmp_path, "y,t\n1.0,1\n,0\n")
    with pytest.raises(ParseError) as exc:
        load_sample(p, "y", "t")
    assert exc.value.row == 3 and exc.value.column == "y"


def test_load_sample_treatment_out_of_range(tmp_path):
    p = _write(tmp_path, "y,t\n1.0,1\n2.0,2\n")
    with pytest.raises(ValidationError, match="0 or 1"):
        load_sample(p, "y", "t")


def test_load_sample_empty_data(tmp_path):
    p = _write(tmp_path, "y,t\n")
    with pytest.raises(ValidationError, match="no data rows"):
        load_sample(p, "y", "t")


def test_load_sample_nonfinite_outcome(tmp_path):
    p = _write(tmp_path, "y,t\ninf,1\n1.0,0\n")
    with pytest.raises(ValidationError, match="non-finite"):
        load_sample(p, "y", "t")


# ------------------------------------------------- cdf / quantile mechanics


def test_cdf_step_values():
    v = np.array([1.0, 2.0, 2.0, 5.0])
    assert empirical_cdf(v, 0.0) == 0.0
    assert empirical_cdf(v, 1.0) == 0.25  # right-continuous: jump included
    assert empirical_cdf(v, 1.5) == 0.25
    assert empirical_cdf(v, 2.0) == 0.75
    assert empirical_cdf(v, 5.0) == 1.0
    assert empirical_cdf(v, 99.0) == 1.0
    # the quantile at each step's height is the point of the step
    assert v[order_statistic(4, [0.25, 0.75, 1.0])].tolist() == [1.0, 2.0, 5.0]


def test_quantile_order_statistics():
    v = np.array([10.0, 20.0, 30.0, 40.0])
    # u in ((k-1)/4, k/4] picks the k-th order statistic
    u = [0.25, 0.2500001, 0.5, 0.75, 1.0, 1e-12]
    assert v[order_statistic(4, u)].tolist() == [10.0, 20.0, 20.0, 30.0, 40.0, 10.0]


def test_quantile_at_and_empirical_quantile_agree_on_every_breakpoint():
    # u * m can round up past the integer k at u = k/m (7/25 does);
    # order_statistic must still return k - 1, as the breakpoint search of
    # empirical_quantile does
    for m in range(2, 301):
        values = np.arange(m, dtype=float)
        u = np.arange(1, m + 1) / m
        np.testing.assert_array_equal(order_statistic(m, u), np.arange(m))
        np.testing.assert_array_equal(quantile_at(values, u), values)
        assert [int(order_statistic(m, x)) for x in u] == list(range(m))
        assert [empirical_quantile(values, x) for x in u] == values.tolist()
    assert order_statistic(25, 7 / 25) == 6  # a scalar level


@pytest.mark.parametrize("u", [0.0, -0.2, 1.0000001, 2.0])
def test_quantile_domain(u):
    with pytest.raises(ValidationError):
        empirical_quantile(np.array([1.0, 2.0]), u)


# ------------------------------------------------------------ property tests

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(finite_floats, min_size=1, max_size=50),
    u=st.floats(min_value=1e-9, max_value=1.0),
)
@example(values=[0.0] * 14 + [1.0] * 11, u=1.0)  # F(0) = 0.56, and 0.56 * 25 > 14
def test_galois_pair(values, u):
    """Quantile and CDF form a Galois connection: Q(u) <= y  iff  u <= F(y)."""
    v = np.sort(values)
    q = v[order_statistic(v.size, u)]
    assert q == empirical_quantile(v, u)
    # F(Q(u)) >= u: the CDF at the u-quantile covers u
    assert empirical_cdf(v, q) >= u - 1e-15
    # Q(F(y)) <= y for any observed y with F(y) > 0
    y = values[0]
    f = empirical_cdf(v, y)
    if f > 0:
        assert v[order_statistic(v.size, f)] <= y + 1e-15


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(finite_floats, min_size=1, max_size=50),
    u1=st.floats(min_value=1e-9, max_value=1.0),
    u2=st.floats(min_value=1e-9, max_value=1.0),
)
def test_quantile_monotone(values, u1, u2):
    lo, hi = sorted((u1, u2))
    assert order_statistic(len(values), lo) <= order_statistic(len(values), hi)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(finite_floats, min_size=1, max_size=50))
def test_quantile_range_is_support(values):
    v = np.sort(values)
    assert v[order_statistic(v.size, 1e-9)] == min(values)
    assert v[order_statistic(v.size, 1.0)] == max(values)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(finite_floats, min_size=1, max_size=30),
    y1=finite_floats,
    y2=finite_floats,
)
def test_cdf_monotone_and_bounded(values, y1, y2):
    v = np.sort(values)
    lo, hi = sorted((y1, y2))
    f_lo, f_hi = empirical_cdf(v, lo), empirical_cdf(v, hi)
    assert 0.0 <= f_lo <= f_hi <= 1.0


def test_cdf_quantile_exact_inverse_on_grid():
    # On the grid u = k/m the quantile is the k-th order statistic and the
    # CDF of that order statistic is at least k/m, with equality when the
    # value is unique.
    rng = np.random.default_rng(7)
    v = np.sort(rng.normal(size=23))
    for k in range(1, 24):
        u = k / 23
        q = v[order_statistic(23, u)]
        assert empirical_cdf(v, q) >= u - 1e-12


# ------------------------------------------- CSV fast path against row parser

_Y_ODD = [" 2.5 ", '"3.5"', ".5", "5.", "3e2", "nan", "inf", "-inf", "1_000.5", "1e400", "", "oops", "0x10"]
_T_ODD = ["1.0", "+1", " 1 ", "01", "1_0", "-1", "2", "300", '"1"', ""]
_M_ODD = [" 1", "0 ", '"1"', "01", "+1", "1.0", "10", "2", "-0", "", "o"]
_OTHER_CELLS = ["a", "7", "", '"a,1,0,b"', '"x""y"', '"p\nq"']
_HEADER_NAMES = ["y", "t", "id", "z", '"i,d"', '"i\nd"']
_ODD_LINES = ["", " ", "\t", "#note", "#1,0", "# 1.5,1"]


@st.composite
def _csv_texts(draw, columns=("y", "t")):
    """CSV text around ``columns``, y and t or the mask column m. Each cell and line is odd with a
    small probability, so that numpy's reader accepts many files whole and
    many others differ from one it accepts in one place: extra, reordered
    and duplicated names, blank, whitespace and #-lines, quoted cells,
    ragged rows, unusual numerals and a UTF-8 BOM."""
    names = draw(st.lists(st.sampled_from(_HEADER_NAMES), min_size=1, max_size=5))
    if draw(st.integers(0, 3)):
        names += columns  # the usual case: every column present
    names = draw(st.permutations(names))
    odd = draw(st.sampled_from([0.0, 0.02, 0.05, 0.15]))

    def is_odd():
        return draw(st.floats(0.0, 1.0)) < odd

    def cell(name):
        if name == "y":
            return draw(st.sampled_from(_Y_ODD)) if is_odd() else repr(draw(st.floats(-1e6, 1e6)))
        if name == "t":
            return draw(st.sampled_from(_T_ODD)) if is_odd() else draw(st.sampled_from(["0", "1"]))
        if name == "m":
            return draw(st.sampled_from(_M_ODD)) if is_odd() else draw(st.sampled_from(["0", "1"]))
        return draw(st.sampled_from(_OTHER_CELLS))

    lines = []
    for _ in range(draw(st.integers(1, 12))):
        cells = [cell(name) for name in names]
        if is_odd():
            lines.append(draw(st.sampled_from(_ODD_LINES)))
        elif is_odd():  # ragged
            lines.append(",".join(cells[: draw(st.integers(0, len(cells)))] + ["9"] * draw(st.integers(0, 2))))
        else:
            lines.append(",".join(cells))
    bom = "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return bom + end.join([",".join(names)] + lines) + draw(st.sampled_from([end, ""]))


def _outcome(load, path):
    try:
        s = load(path, "y", "t")
    except (ParseError, ValidationError) as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None), str(exc)
    return s.outcomes.tolist(), s.treatments.tolist()


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_texts())
@example(text='id,y,t\n"a,1,0,b",1.5,1\nc,2.5,0\n')  # a delimiter inside quotes
@example(text="y,t,y\n1,0,2\n3,1,4\n")  # the last of duplicated names counts
@example(text="y,t\n1.5,2\n2.5,0\n")  # a treatment outside {0, 1}
@example(text="y,t\n1.5,1.0\n2.5,0\n")  # int() rejects 1.0
@example(text="y,t\n1.5,1\n-inf,0\n")  # a non-finite outcome
@example(text="y,t\n1_000.5,1\n2.5,0\n")  # float() accepts 1_000.5
@example(text="\ufeffy,t\n1.5,1\n2.5,0\n")  # the BOM stays in the first name
@example(text="y,t\n1.5,1\n \n2.5,0\n")  # a whitespace line is a row
def test_load_sample_agrees_with_row_parser(tmp_path, text):
    """numpy's reader plus its fallback give what the row parser gives:
    equal arrays, or the same exception with the same row and column."""
    p = tmp_path / "data.csv"
    p.write_bytes(text.encode("utf-8"))
    assert _outcome(load_sample, p) == _outcome(_load_rows, p)


def test_load_sample_fast_path_skips_row_parser(tmp_path, monkeypatch):
    """A clean file never reaches the row parser; a bad one does."""
    calls = []
    monkeypatch.setattr(sample_module, "_load_rows", lambda *a: calls.append(a))
    p = _write(tmp_path, "id,t,y\r\nu,1,1.5\r\n\r\nv,0,-2e-3\r\n")
    s = load_sample(p, "y", "t")
    np.testing.assert_array_equal(s.outcomes, [1.5, -2e-3])
    np.testing.assert_array_equal(s.treatments, [1, 0])
    assert calls == []
    load_sample(_write(tmp_path, "y,t\n1.5,1.0\n", "bad.csv"), "y", "t")
    assert len(calls) == 1


def _mask_outcome(path):
    try:
        return load_mask(path, "m").tolist()
    except ParseError as exc:
        return exc.row, exc.column, str(exc)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_texts(columns=("m",)))
@example(text="m,y\n 1,2\n0,3\n")  # stripped by the row reading
@example(text="m\n1\n\n0\n")  # a blank line is no row
@example(text="y,m\n1,0\n \n2,1\n")  # a whitespace line is a row without m
@example(text="m\n1\n10\n")  # two characters, read whole
def test_load_mask_agrees_with_its_row_reading(tmp_path, monkeypatch, text):
    """numpy's reader plus the row reading give what the row reading alone
    gives: equal masks, or the same error with the same row and column."""
    p = tmp_path / "mask.csv"
    p.write_bytes(text.encode("utf-8"))
    want = _mask_outcome(p)
    with monkeypatch.context() as patch:
        patch.setattr(sample_module, "_read_columns", lambda *args: None)
        assert _mask_outcome(p) == want

