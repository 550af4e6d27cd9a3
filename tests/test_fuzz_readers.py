"""Fuzz tests of the file readers: arbitrary bytes give a result or a
DataFormatError, never another exception or a stray warning."""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covband.bench import RECORD_HEADER, read_experiment_report
from covband.errors import DataFormatError
from covband.estimators import load_data_csv
from covband.forecast import ingest_counts
from covband.matcore import load_matrix_csv
from covband.selection import read_risk_curve

READERS = [load_data_csv, load_matrix_csv, ingest_counts, read_risk_curve, read_experiment_report]

# Tokens the readers look for, so that generated files get past the first line.
TOKENS = ["0", "1", "-2.5", "1e3", "nan", "inf", ",", "\n", "\r\n", "\r", " ", '"', "#",
          "k,risk\n", "# k_hat=", "# spec ", "# k0 ", "# agg k_hat mean=1 sd=", "=",
          RECORD_HEADER + "\n", "\x00", "\ufeff", "\u00e9"]

file_bytes = st.one_of(
    st.binary(max_size=300),
    st.lists(st.sampled_from(TOKENS), max_size=60).map(lambda t: "".join(t).encode("utf-8")),
    st.lists(st.sampled_from(TOKENS), max_size=60).map(lambda t: "".join(t).encode("utf-16")),
)


@pytest.mark.parametrize("reader", READERS, ids=lambda f: f.__name__)
def test_reader_gives_a_result_or_data_format_error(reader, tmp_path_factory):
    path = tmp_path_factory.mktemp(reader.__name__) / "input.csv"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(file_bytes)
    def check(data):
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                reader(path)
            except DataFormatError as exc:
                assert str(path) in str(exc)

    check()
