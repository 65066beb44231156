import json
from datetime import datetime, timedelta

import numpy as np
import pytest
from click.testing import CliRunner

from fbmpower.cli import main
from fbmpower.simulate import _fgn_circulant, simulate_fbm


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


def write_increments(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n", encoding="utf-8")
    return str(path)


def analysis_csv(tmp_path, n=256):
    lines = ["timestamp,building,quantity,value"]
    for building, h, seed in (("low", 0.3, 104), ("high", 0.7, 1001)):
        values = simulate_fbm(h, n, seed, "circulant").values
        for k, v in enumerate(values):
            lines.append(
                f"2024-01-{1 + k // 24:02d}T{k % 24:02d}:00:00,{building},P,{float(v)!r}"
            )
    path = tmp_path / "buildings.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestSimulateCommand:
    def test_writes_path_csv(self, runner, tmp_path):
        out = tmp_path / "path.csv"
        result = invoke(runner, "simulate", "--hurst", 0.7, "--n", 64, "--seed", 3,
                        "--method", "cholesky", "--out", out)
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 66
        assert lines[1] == "0.0,0.0"

    def test_deterministic_output(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            invoke(runner, "simulate", "--hurst", 0.4, "--n", 32, "--seed", 9, "--out", out)
        assert a.read_bytes() == b.read_bytes()

    def test_matches_library(self, runner, tmp_path):
        out = tmp_path / "path.csv"
        invoke(runner, "simulate", "--hurst", 0.6, "--n", 16, "--seed", 5,
               "--method", "circulant", "--out", out)
        values = [float(line.split(",")[1]) for line in
                  out.read_text().strip().splitlines()[1:]]
        expected = simulate_fbm(0.6, 16, 5, "circulant").values
        assert np.allclose(values, expected, rtol=0, atol=0)

    def test_bad_hurst_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--hurst", "1.5", "--n", "32",
                                      "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 3

    def test_stdout_default(self, runner):
        result = invoke(runner, "simulate", "--hurst", 0.5, "--n", 8, "--seed", 0)
        assert result.output.startswith("t,value\n0.0,0.0\n")


class TestGaussianizeCommand:
    def test_transforms_and_reports_exponent(self, runner, tmp_path):
        xi = np.random.default_rng(40).standard_normal(5000)
        src = write_increments(tmp_path / "incs.csv", np.sign(xi) * xi**2)
        out = tmp_path / "z.csv"
        result = invoke(runner, "gaussianize", "--input", src, "--out", out)
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        lam = float(lines[0].split("=")[1])
        ratio = float(lines[1].split("=")[1])
        assert abs(lam - 0.5) < 0.1
        assert abs(ratio - 2 / np.pi) <= 1e-3
        assert lines[3] == "value"
        assert len(lines) == 4 + 5000

    def test_accepts_two_column_input(self, runner, tmp_path):
        # The reader takes the last field per row, so (t, value) files work.
        incs = np.diff(simulate_fbm(0.5, 512, 2, "cholesky").values)
        src = tmp_path / "incs.csv"
        src.write_text(
            "t,value\n" + "\n".join(f"{k},{float(v)!r}" for k, v in enumerate(incs)),
            encoding="utf-8",
        )
        result = invoke(runner, "gaussianize", "--input", src)
        assert result.exit_code == 0

    def test_unfittable_exits_one(self, runner, tmp_path):
        src = write_increments(tmp_path / "bad.csv", [1.0, -1.0] * 8)
        result = runner.invoke(main, ["gaussianize", "--input", src])
        assert result.exit_code == 1
        assert "cannot be assumed Gaussian" in result.stderr

    def test_garbage_input_exits_two(self, runner, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("value\n1.0\noops\n", encoding="utf-8")
        result = runner.invoke(main, ["gaussianize", "--input", str(src)])
        assert result.exit_code == 2
        assert "line 3" in result.stderr


class TestEstimateCommand:
    def test_estimates_white_noise(self, runner, tmp_path):
        src = write_increments(tmp_path / "incs.csv",
                               np.random.default_rng(1).standard_normal(1024))
        result = invoke(runner, "estimate", "--input", src)
        doc = json.loads(result.output)
        assert doc["schema_version"] == 1
        assert abs(doc["h_hat"] - 0.5) <= 0.05
        assert len(doc["grid"]) == 19
        assert doc["m"] == 1024
        assert doc["r1"] > 0

    def test_bad_grid_is_config_error(self, runner, tmp_path):
        src = write_increments(tmp_path / "incs.csv", np.ones(16))
        result = runner.invoke(main, ["estimate", "--input", src, "--grid-step", "0.5"])
        assert result.exit_code == 3

    def test_empty_input_exits_two(self, runner, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("", encoding="utf-8")
        result = runner.invoke(main, ["estimate", "--input", str(src)])
        assert result.exit_code == 2


class TestHypothesisCommand:
    def test_reports_stats(self, runner, tmp_path):
        z = simulate_fbm(0.3, 1024, 7, "circulant").increments
        src = write_increments(tmp_path / "incs.csv", z)
        result = invoke(runner, "test", "--input", src, "--hurst", 0.3)
        doc = json.loads(result.output)
        assert doc["schema_version"] == 1
        assert doc["branch"] == "antipersistent_branch"
        assert doc["verdict"] in ("accepted", "rejected")
        assert doc["b_n"] is not None
        assert doc["d_n_stat"] is None
        assert doc["a_limit"] == pytest.approx(-1.5 * doc["c"] ** 2, rel=1e-9)

    def test_persistent_branch(self, runner, tmp_path):
        z = simulate_fbm(0.7, 1024, 8, "circulant").increments
        src = write_increments(tmp_path / "incs.csv", z)
        result = invoke(runner, "test", "--input", src, "--hurst", 0.7)
        doc = json.loads(result.output)
        assert doc["branch"] == "persistent_branch"
        assert doc["d_n_stat"] is not None and doc["beta2"] is not None

    def test_hurst_out_of_range(self, runner, tmp_path):
        src = write_increments(tmp_path / "incs.csv", np.ones(16))
        result = runner.invoke(main, ["test", "--input", src, "--hurst", "0"])
        assert result.exit_code == 3

    def test_alpha_out_of_range(self, runner, tmp_path):
        src = write_increments(tmp_path / "incs.csv", np.random.default_rng(3).standard_normal(16))
        result = runner.invoke(main, ["test", "--input", src, "--hurst", "0.3", "--alpha", "2"])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: alpha")


@pytest.mark.parametrize("args", [["estimate"], ["test", "--hurst", "0.7"]])
def test_non_finite_input_exits_two(runner, tmp_path, args):
    values = np.random.default_rng(4).standard_normal(64)
    values[10] = np.nan
    src = write_increments(tmp_path / "incs.csv", values)
    result = runner.invoke(main, [args[0], "--input", src, *args[1:]])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == "error: line 11: non-finite value nan\n"


class TestAnalyzeCommand:
    def test_json_output(self, runner, tmp_path):
        src = analysis_csv(tmp_path)
        result = invoke(runner, "analyze", "--input", src)
        doc = json.loads(result.output[result.output.index("{"):])
        assert doc["schema_version"] == 1
        assert [r["building_id"] for r in doc["reports"]] == ["high", "low"]
        low = doc["reports"][1]
        assert low["lambda"] is not None
        assert low["verdict"] in ("accepted", "rejected")

    def test_quantity_filter(self, runner, tmp_path):
        src = analysis_csv(tmp_path)
        result = invoke(runner, "analyze", "--input", src, "--quantity", "S")
        doc = json.loads(result.output[result.output.index("{"):])
        assert doc["reports"] == []

    def test_markdown_format(self, runner, tmp_path):
        src = analysis_csv(tmp_path)
        result = invoke(runner, "analyze", "--input", src, "--format", "md")
        assert "| building |" in result.output

    def test_csv_format(self, runner, tmp_path):
        src = analysis_csv(tmp_path)
        result = invoke(runner, "analyze", "--input", src, "--format", "csv")
        assert result.output.splitlines()[0].startswith("building_id,quantity,")

    def test_deterministic_file_output(self, runner, tmp_path):
        src = analysis_csv(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            invoke(runner, "analyze", "--input", src, "--out", out)
        assert a.read_bytes() == b.read_bytes()

    def test_degenerate_series_warns_but_succeeds(self, runner, tmp_path):
        lines = ["timestamp,building,quantity,value"]
        lines += [f"2024-01-01T{k:02d}:00:00,flat,P,5.0" for k in range(12)]
        src = tmp_path / "flat.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = invoke(runner, "analyze", "--input", str(src))
        assert result.exit_code == 0
        assert "degenerate" in result.stderr
        doc = json.loads(result.output[result.output.index("{"):])
        assert doc["reports"][0]["verdict"] is None

    def test_missing_input_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["analyze", "--input", str(tmp_path / "nope.csv")])
        assert result.exit_code == 2

    def test_malformed_input_exits_two(self, runner, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("wrong,header\n1,2\n", encoding="utf-8")
        result = runner.invoke(main, ["analyze", "--input", str(src)])
        assert result.exit_code == 2

    def test_bad_config_exits_three(self, runner, tmp_path):
        src = analysis_csv(tmp_path)
        result = runner.invoke(main, ["analyze", "--input", src, "--grid-step", "0.5"])
        assert result.exit_code == 3


def long_csv(path, buildings):
    t0 = datetime(2024, 1, 1)
    lines = ["timestamp,building,quantity,value"]
    for building, values in buildings:
        lines += [f"{(t0 + timedelta(hours=k)).isoformat()},{building},P,{float(v)!r}"
                  for k, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def ramp(eps, m=2048):
    """A nearly linear ramp: after detrending, its increments Gaussianize
    only at an exponent near 19, which leaves them so small that the later
    statistics underflow."""
    rng = np.random.default_rng(0)
    steps = 1 + eps * rng.choice([-1, 1], m) * (1 + 0.1 * rng.random(m))
    return 100 + np.concatenate([[0.0], np.cumsum(steps)])


def normal_file(tmp_path):
    return write_increments(tmp_path / "z.csv", np.random.default_rng(3).standard_normal(64))


def non_utf8_file(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"timestamp,building,quantity,value\n2024-01-01T00:00:00,caf\xe9,P,1.0\n")
    return str(path)


def mixed_offset_file(tmp_path):
    path = tmp_path / "mixed.csv"
    lines = ["timestamp,building,quantity,value"] + [
        f"2024-01-01T{k:02d}:00:00{'+00:00' if k % 2 else ''},b,P,{k}" for k in range(12)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def tiny_file(tmp_path):
    # Unit-variance increments whose mean square c is so small that c^2.5 underflows.
    z = _fgn_circulant(0.3, 1024, np.random.default_rng(3)) * 1e-100
    return write_increments(tmp_path / "tiny.csv", z)


def scaled_draw_file(scale):
    def make(tmp_path):
        z = _fgn_circulant(0.7, 512, np.random.default_rng(3)) * scale
        return write_increments(tmp_path / "scaled.csv", z)
    return make


def lone_spike_file(tmp_path):
    # Seven zeros and one value whose mean square c is finite but c^2.5 is not.
    return write_increments(tmp_path / "spike.csv", [0.0] * 7 + [6.372319131631858e153])


def ramp_fleet(eps):
    def make(tmp_path):
        good = simulate_fbm(0.7, 2048, 1).values
        return long_csv(tmp_path / "fleet.csv", [("good", good), ("ramp", ramp(eps))])
    return make


@pytest.mark.parametrize(
    "make_input, args, code",
    [
        pytest.param(normal_file, ["gaussianize", "--ratio-tol", "-1"], 3, id="ratio-tol"),
        pytest.param(normal_file, ["gaussianize", "--max-iter", "0"], 3, id="max-iter"),
        pytest.param(normal_file, ["estimate", "--q-constant", "-1"], 3, id="q-constant"),
        pytest.param(normal_file, ["test", "--hurst", "0.3", "--beta0", "-1"], 3, id="beta0"),
        pytest.param(normal_file, ["test", "--hurst", "0.3", "--alpha", "2", "--paper-constants"],
                     3, id="alpha-paper-constants"),
        pytest.param(None, ["simulate", "--hurst", "0.5", "--n", "8", "--seed", "-1"], 3,
                     id="seed"),
        pytest.param(lambda tmp_path: write_increments(tmp_path / "pm.csv", [1.0, -1.0] * 8),
                     ["gaussianize"], 1, id="unfittable"),
        pytest.param(non_utf8_file, ["analyze"], 2, id="analyze-non-utf8"),
        pytest.param(non_utf8_file, ["estimate"], 2, id="estimate-non-utf8"),
        pytest.param(tiny_file, ["test", "--hurst", "0.3"], 2, id="underflow"),
        pytest.param(mixed_offset_file, ["analyze"], 2, id="analyze-mixed-utc-offsets"),
        pytest.param(scaled_draw_file(1e61), ["test", "--hurst", "0.3"], 2,
                     id="overflow-statistics"),
        pytest.param(lone_spike_file, ["test", "--hurst", "0.7"], 2, id="overflow-c"),
        pytest.param(scaled_draw_file(1e200), ["estimate"], 2, id="overflow-mean-square"),
        pytest.param(ramp_fleet(1e-4), ["analyze"], 0, id="ramp-1e-4"),
        pytest.param(ramp_fleet(1e-6), ["analyze"], 0, id="ramp-1e-6"),
    ],
)
def test_one_error_path(runner, tmp_path, make_input, args, code):
    """Every subcommand applies the stage rules and exits through the group
    handler; one underflowing building leaves the rest of a batch intact."""
    input_args = [] if make_input is None else ["--input", make_input(tmp_path)]
    result = runner.invoke(main, [args[0], *input_args, *args[1:]])
    assert result.exit_code == code
    if code:
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        return
    reports = json.loads(result.stdout)["reports"]
    assert [r["building_id"] for r in reports] == ["good", "ramp"]
    assert reports[1]["verdict"] is None
    assert reports[1]["warnings"][0].startswith("no verdict: ")
    alone = long_csv(tmp_path / "good.csv", [("good", simulate_fbm(0.7, 2048, 1).values)])
    assert reports[0] == json.loads(invoke(runner, "analyze", "--input", alone).stdout)["reports"][0]
