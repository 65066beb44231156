"""Property tests: any short series of finite floats, and any bytes given to
`analyze`, end in a documented exit code, with no traceback, no numpy
warning and no NaN or Infinity; the Toeplitz solve matches a dense one at
any diagonal scale; and the estimate and verdict do not depend on the
scale of the series; and any nested list or array of floats, NaN, inf or
strings given to a public function that takes an array ends in a result or
an AnalysisError."""

import json
import re
from datetime import datetime, timedelta

import numpy as np
import pytest
from click.testing import CliRunner
from oracles import dense_quadratic_form

import fbmpower.hypothesis as hyp
from fbmpower.cli import main
from fbmpower.correlation import _dense_toeplitz, build_correlation, quadratic_form_logdet
from fbmpower.errors import AnalysisError
from fbmpower.hurst import estimate_hurst
from fbmpower.simulate import _fgn_circulant

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402
from test_gaussianize import ARRAY_ENTRY_POINTS  # noqa: E402

# Arguments of each command and the exit codes it may end with.
COMMANDS = {
    "estimate": (["estimate"], {0, 2, 3}),
    "test-0.3": (["test", "--hurst", "0.3"], {0, 2, 3}),
    "test-0.7": (["test", "--hurst", "0.7"], {0, 2, 3}),
    "gaussianize": (["gaussianize"], {0, 1, 2, 3}),
}

NON_FINITE = re.compile(r"\b(nan|NaN|inf|Infinity)\b")

finite_series = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=40
)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=finite_series)
def test_finite_series_end_in_a_documented_exit(tmp_path_factory, command, values):
    args, codes = COMMANDS[command]
    path = tmp_path_factory.getbasetemp() / f"{command}.csv"
    path.write_text("\n".join(repr(v) for v in values) + "\n", encoding="utf-8")
    result = CliRunner().invoke(main, [args[0], "--input", str(path), *args[1:]])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exception
    )
    assert result.exit_code in codes
    assert not NON_FINITE.search(result.stdout)


START = datetime(2024, 1, 1)
HEADER = b"timestamp,building,quantity,value\n"
BAD_STAMPS = ["2024-02-30T00:00:00", "noon", ""]

# A gap (blank or non-finite) or a finite value, as a CSV cell.
value_cells = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e999"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(repr),
)
# One building's rows: hourly steps of 1 or 2 hours, each with a value cell.
building_rows = st.lists(st.tuples(st.integers(1, 2), value_cells), max_size=30)


@st.composite
def csv_files(draw):
    lines = []
    for building in ("a", "b"):
        stamp = START
        for step, value in draw(building_rows):
            stamp += timedelta(hours=step)
            lines.append(f"{stamp.isoformat()},{building},P,{value}")
    if draw(st.booleans()):
        bad = f"{draw(st.sampled_from(BAD_STAMPS))},a,P,{draw(value_cells)}"
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return HEADER + "".join(line + "\n" for line in lines).encode()


BYTE_ORDER_MARK = b"\xef\xbb\xbf"
HOURLY_ROWS = b"".join(
    f"{(START + timedelta(hours=k)).isoformat()},a,P,{k * k % 7}\n".encode() for k in range(12)
)


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    data=st.one_of(st.binary(max_size=200), csv_files()),
    gap_policy=st.sampled_from(["drop", "interpolate-linear"]),
    fmt=st.sampled_from(["json", "csv", "md"]),
)
# A value field past the csv module's 131072-character limit, and a file
# that starts with a UTF-8 byte-order mark.
@example(data=HEADER + b"2024-01-01T00:00:00,a,P," + b"1" * 131_073 + b"\n",
         gap_policy="drop", fmt="json")
@example(data=BYTE_ORDER_MARK + HEADER + HOURLY_ROWS, gap_policy="drop", fmt="json")
def test_any_bytes_given_to_analyze_end_in_a_documented_exit(tmp_path_factory, data,
                                                              gap_policy, fmt):
    path = tmp_path_factory.getbasetemp() / "analyze.csv"
    path.write_bytes(data)
    result = CliRunner().invoke(
        main, ["analyze", "--input", str(path), "--gap-policy", gap_policy, "--format", fmt]
    )
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exception
    )
    assert result.exit_code in {0, 2, 3}
    assert sum(line.startswith("error:") for line in result.stderr.splitlines()) <= 1
    assert "Traceback" not in result.output
    if result.exit_code == 0 and fmt == "json":
        json.loads(result.stdout, parse_constant=_reject_constant)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    h=st.floats(0.05, 0.95),
    m=st.integers(2, 200),
    j=st.integers(-20, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_scaled_correlation_row_matches_a_dense_solve(h, m, j, seed):
    # The grid passes only unit diagonals; a scaled row checks the division
    # by row[0] in the quadratic form and the m log row[0] term of logdet.
    row = 2.0**j * 1.3 * build_correlation(h, m)
    z = np.random.default_rng(seed).standard_normal(m)
    quad, logdet = quadratic_form_logdet(row, z)
    assert quad == pytest.approx(dense_quadratic_form(row, z), rel=1e-10)
    sign, expected_logdet = np.linalg.slogdet(_dense_toeplitz(row))
    assert sign == 1.0
    assert logdet == pytest.approx(expected_logdet, abs=1e-10 * m)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    h=st.sampled_from([0.3, 0.7]),
    seed=st.integers(0, 2**32 - 1),
    # From the scale of a nearly linear ramp's Gaussianized increments
    # (mean square about 1e-278) up to where degree-5 statistics overflow.
    k=st.integers(-140, 50),
)
def test_estimate_and_verdict_do_not_depend_on_scale(h, seed, k):
    z = _fgn_circulant(h, 256, np.random.default_rng(seed))
    est = estimate_hurst(z)
    scaled = z * 10.0**k
    scaled_est = estimate_hurst(scaled)
    assert scaled_est.h_hat == est.h_hat
    assert (hyp.test_hypothesis(scaled, scaled_est.h_hat).verdict
            == hyp.test_hypothesis(z, est.h_hat).verdict)


# Any float or a short string, and nestings of them; arrays of the lengths
# the entry points need (64 for RawSeries and the quadratic form) or not.
cells = st.one_of(st.floats(), st.text(max_size=3))
array_inputs = st.one_of(
    st.recursive(cells, lambda inner: st.lists(inner, max_size=10), max_leaves=80),
    hnp.arrays(float, st.sampled_from([(0,), (9,), (64,), (8, 8), (70,)]),
               elements=st.floats()),
    hnp.arrays(float, 64, elements=st.floats(allow_nan=False, allow_infinity=False)),
)


@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRY_POINTS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(values=array_inputs)
def test_any_array_ends_in_a_result_or_an_analysis_error(entry, values):
    try:
        ARRAY_ENTRY_POINTS[entry](values)
    except AnalysisError:
        pass
