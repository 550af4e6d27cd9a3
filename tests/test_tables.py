"""The one table format of every report: byte-exact text from each writer,
the readers' tolerance of re-saved files, and bit-exact round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covband.bench import (
    ExperimentReport,
    ExperimentSpec,
    ReplicationRecord,
    parse_spec,
    read_experiment_report,
    write_experiment_report,
    write_ratio_table,
)
from covband.errors import DataFormatError
from covband.forecast import write_forecast_report
from covband.matcore import read_table, write_table
from covband.selection import RiskCurve, read_risk_curve, write_risk_curve
from covband.simgen import CovarianceModel
from covband.spectral import EigenComparison, write_comparison_csv

# numpy scalars at the edges of float64: a writer that lets numpy 2's repr
# through writes "np.float64(-0.0)" and fails the golden texts below
NEG_ZERO, TINY, HUGE = np.float64(-0.0), np.float64(5e-324), np.float64(1.7976931348623157e308)
EDGE_TEXT = "-0.0,5e-324,1.7976931348623157e+308"


def make_curve(ks, risks, **meta):
    fields = dict(estimator_kind="banded", N=None, n1=None, n2=None, norm="one_one", seed=None)
    return RiskCurve(k_grid=ks, risk=risks, **{**fields, **meta})


def make_report(records, k0=np.int64(1), p=np.int64(3), parameter=np.float64(0.5)):
    spec = ExperimentSpec(model=CovarianceModel("ma1", parameter), n=np.int64(10), p=p,
                          reps=len(records), N=2, seed=4)
    return ExperimentReport(spec=spec, k_grid=np.arange(3), k0=k0, true_risk=np.zeros(3),
                            est_risk_single=make_curve([0, 1, 2], [1.0, 0.5, 0.75]),
                            records=records)


EDGE_RECORD = ReplicationRecord(np.int64(0), np.int64(1), np.int64(2), NEG_ZERO, TINY, HUGE,
                                np.float64(0.1))


# ---------------------------------------------------------------------------
# golden text of each writer
# ---------------------------------------------------------------------------


def test_risk_curve_text(tmp_path):
    path = tmp_path / "curve.csv"
    write_risk_curve(path, make_curve(np.array([0, 2, 5]), [NEG_ZERO, TINY, HUGE]),
                     k_hat=np.int64(2))
    assert path.read_bytes() == (
        b"k,risk\n0,-0.0\n2,5e-324\n5,1.7976931348623157e+308\n# k_hat=2\n")


def test_experiment_report_text(tmp_path):
    path = tmp_path / "report.csv"
    write_experiment_report(path, make_report([EDGE_RECORD]))
    assert path.read_text(encoding="utf-8") == (
        "# covband simulation report\n"
        "# spec model=ma1:rho=0.5 n=10 p=3 reps=1 N=2 n1=default k_grid=default kind=banded"
        " norm=one_one seed=4\n"
        "# k0 1\n"
        "# k0 is computed from the same replication set as the records\n"
        "# agg k_hat mean=1.0 sd=0.0\n"
        "# agg k1 mean=2.0 sd=0.0\n"
        "# agg k1_minus_k_hat mean=1.0 sd=0.0\n"
        "# agg loss_k_hat mean=0.0 sd=0.0\n"
        "# agg loss_k0 mean=5e-324 sd=0.0\n"
        "# agg loss_k1 mean=1.7976931348623157e+308 sd=0.0\n"
        "# agg loss_sample mean=0.1 sd=0.0\n"
        "rep,k_hat,k1,loss_k_hat,loss_k0,loss_k1,loss_sample\n"
        f"0,1,2,{EDGE_TEXT},0.1\n"
    )


def test_ratio_table_text(tmp_path):
    # k0 / p of two numpy integers is a numpy float
    path = tmp_path / "ratio.csv"
    write_ratio_table(path, [make_report([EDGE_RECORD], parameter=NEG_ZERO),
                             make_report([EDGE_RECORD], k0=np.int64(2), p=np.int64(8))])
    assert path.read_bytes() == (
        b"model,parameter,p,n,k0,k0_over_p,k_hat_mean,k_hat_mean_over_p\n"
        b"ma1,-0.0,3,10,1,0.3333333333333333,1.0,0.3333333333333333\n"
        b"ma1,0.5,8,10,2,0.25,1.0,0.125\n")


def test_forecast_report_text(tmp_path):
    path = tmp_path / "fc.csv"
    write_forecast_report(path, [NEG_ZERO, TINY, HUGE], start_index=np.int64(13))
    assert path.read_bytes() == b"j,E_j\n13,-0.0\n14,5e-324\n15,1.7976931348623157e+308\n"


def test_comparison_csv_text(tmp_path):
    path = tmp_path / "spectrum.csv"
    cmp = EigenComparison(
        m=np.int64(2), eigenvalue_errors=np.array([NEG_ZERO, TINY]),
        projection_errors=np.array([HUGE, 0.25]), gap=np.float64(1.0),
        lambda_true=np.array([3.0, 1.0]), lambda_est=np.array([3.0, 1.0 + 2.0**-52]))
    write_comparison_csv(path, cmp)
    assert path.read_bytes() == (
        b"j,lambda_true,lambda_est,abs_err,proj_err\n"
        b"1,3.0,3.0,-0.0,1.7976931348623157e+308\n"
        b"2,1.0,1.0000000000000002,5e-324,0.25\n")


def test_write_table_writes_floats_by_repr_and_the_rest_by_str(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, "a,b,c", [(np.float32(0.1), np.int64(-3), "x"), (1, 2.5, True)],
                comments=["first", "second"], trailer=["end"])
    assert path.read_bytes() == (
        b"# first\n# second\na,b,c\n0.10000000149011612,-3,x\n1,2.5,True\n# end\n")


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def plain(result):
    return [x.tolist() if isinstance(x, np.ndarray) else x for x in result]


WRITTEN = {
    "risk_curve": (lambda path: write_risk_curve(
        path, make_curve([0, 1, 2], [2.5, 0.125, 1.0 / 3.0]), k_hat=1), read_risk_curve),
    "experiment_report": (lambda path: write_experiment_report(
        path, make_report([ReplicationRecord(0, 1, 2, 0.5, 0.25, 1.0 / 3.0, 0.1),
                           ReplicationRecord(1, 3, 2, 0.75, 0.5, 0.125, 2.0)])),
                          read_experiment_report),
}


@pytest.mark.parametrize("name", WRITTEN)
def test_readers_take_a_resaved_file(tmp_path, name):
    # a spreadsheet may save a BOM, CRLF line ends, blank lines and its own comments
    write, read = WRITTEN[name]
    path, resaved = tmp_path / "a.csv", tmp_path / "b.csv"
    write(path)
    text = path.read_text(encoding="utf-8")
    resaved.write_bytes(("\ufeff# exported\r\n\r\n" + text.replace("\n", "\r\n\r\n")).encode())
    assert plain(read(resaved)) == plain(read(path))


def test_read_table_returns_every_line_but_the_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\xef\xbb\xbf# a\n\n  a,b  \n1,2\n\n# b\n3,4 \n")
    assert read_table(path, "a,b") == [(1, "# a", True), (4, "1,2", False),
                                       (6, "# b", True), (7, "3,4", False)]


@pytest.mark.parametrize("content, message", [
    (b"# only a comment\n\n", "no header"),
    (b"# a\nb,a\n1,2\n", ":2: expected 'a,b', got 'b,a'"),
    (b"a,b\n\xff\n", "not UTF-8"),
])
def test_read_table_errors_name_the_file(tmp_path, content, message):
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(DataFormatError, match=message) as info:
        read_table(path, "a,b")
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# bit-exact round trips
# ---------------------------------------------------------------------------


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def risk_curves(draw):
    ks = sorted(draw(st.sets(st.integers(0, 2**40), min_size=1, max_size=12)))
    risk = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)
    risks = draw(st.lists(risk, min_size=len(ks), max_size=len(ks)))
    return make_curve(ks, risks), draw(st.none() | st.integers(0, 2**40))


@given(risk_curves())
def test_risk_curve_round_trips_every_float(tmp_path_factory, case):
    curve, k_hat = case
    path = tmp_path_factory.mktemp("curve") / "curve.csv"
    write_risk_curve(path, curve, k_hat)
    ks, risks, k_hat_read = read_risk_curve(path)
    assert ks.tolist() == curve.k_grid.tolist() and k_hat_read == k_hat
    assert bits(risks) == bits(curve.risk)


records = st.builds(ReplicationRecord, st.integers(0, 10**6), st.integers(0, 10**6),
                    st.integers(0, 10**6), finite, finite, finite, finite)


@given(st.lists(records, min_size=1, max_size=5), st.integers(0, 10**6))
def test_experiment_report_round_trips_every_float(tmp_path_factory, recs, k0):
    report = make_report(recs, k0=k0)
    path = tmp_path_factory.mktemp("report") / "report.csv"
    with np.errstate(over="ignore", invalid="ignore"):  # aggregates of huge losses
        write_experiment_report(path, report)
        emitted = report.aggregates()
    spec_text, k0_read, aggregates, recs_read = read_experiment_report(path)
    assert parse_spec(spec_text) == report.spec and k0_read == k0
    assert [(r.rep, r.k_hat, r.k1) for r in recs_read] == [(r.rep, r.k_hat, r.k1) for r in recs]
    fields = ("loss_k_hat", "loss_k0", "loss_k1", "loss_sample")
    assert ([bits([getattr(r, f) for f in fields]) for r in recs_read]
            == [bits([getattr(r, f) for f in fields]) for r in recs])
    # an aggregate may overflow to inf or nan; repr tells apart every finite float
    assert {name: tuple(map(repr, v)) for name, v in aggregates.items()} == {
        name: tuple(map(repr, v)) for name, v in emitted.items()}
