"""Property tests: any short series of finite floats ends in a documented
exit code, with no traceback, no numpy warning and no NaN or Infinity."""

import re

import pytest
from click.testing import CliRunner

from fbmpower.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
