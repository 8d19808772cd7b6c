"""Output checks for the benchmark's workloads.

Every check compares a program output against a computation made here,
from the raw input, with numpy and scipy, or against a property the method
must have. None compares against a stored copy of an earlier output. Each
``check_*`` function returns a list of error strings; an empty list means
the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats as sps

TRADING_DAYS = 252
# Tolerances, chosen from float64 rounding of the quantities involved.
EXACT_MEAN_TOL = 1e-13  # benchmark return: mean of ~250 returns of size ~1e-2
REL_TOL = 1e-9  # recomputed statistics and metric blocks
ADF_REL_TOL = 1e-6  # closed-form slope standard error against the program's fit


class Panel:
    """Quote panel read straight from the CSV, independent of the program."""

    def __init__(self, dates: np.ndarray, assets: list[str], bids: np.ndarray, asks: np.ndarray):
        self.dates = dates
        self.assets = assets
        self.bids = bids
        self.asks = asks
        self.mids = 0.5 * (bids + asks)
        self.returns = self.mids[1:] / self.mids[:-1] - 1.0


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def read_panel_csv(path: Path) -> Panel:
    """Pivot a long-form ``date,asset,bid,ask,...`` CSV into (n, d) arrays.

    The rows must come date-major with one fixed set of assets per date,
    which is how ``seqrank synth`` writes them; columns are sorted by asset
    name, as the program orders them.
    """
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    col = {name: header.index(name) for name in ("date", "asset", "bid", "ask")}
    prices = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(col["bid"], col["ask"]), ndmin=2)
    keys = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(col["date"], col["asset"]), dtype="S16", ndmin=2)
    first_date = keys[0, 0]
    d = int(np.argmax(keys[:, 0] != first_date)) or len(keys)
    if len(keys) % d:
        raise ValueError(f"{path}: {len(keys)} rows do not split into dates of {d} assets")
    n = len(keys) // d
    dates = keys[:, 0].reshape(n, d)
    names = keys[:, 1].reshape(n, d)
    if not (dates == dates[:, :1]).all() or not (names == names[:1]).all():
        raise ValueError(f"{path}: rows are not date-major with one asset set per date")
    order = np.argsort(names[0], kind="stable")
    day_keys = dates[:, 0]
    if not (day_keys[1:] > day_keys[:-1]).all():
        raise ValueError(f"{path}: dates are not strictly increasing")
    return Panel(
        dates=day_keys.astype(str),
        assets=[name.decode() for name in names[0][order]],
        bids=prices[:, 0].reshape(n, d)[:, order],
        asks=prices[:, 1].reshape(n, d)[:, order],
    )


def _close(a, b, rel: float = REL_TOL, abs_: float = 1e-15) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def metric_block(r: np.ndarray) -> dict:
    """The report's metric block recomputed from a daily return series."""
    n = len(r)
    std = float(np.std(r, ddof=1))
    growth = 1.0 + r
    cagr = float(np.exp(np.log(growth).sum() * TRADING_DAYS / n) - 1.0) if (growth > 0).all() else None
    sr = float(r.mean() / std * math.sqrt(TRADING_DAYS)) if std > 0 else None
    equity = np.concatenate([[0.0], np.cumsum(r)])
    max_dd = float((np.maximum.accumulate(equity) - equity).max())
    win = float(np.count_nonzero(r > 0) / n)
    return {
        "days": n,
        "mean": float(r.mean()),
        "std": std,
        "min": float(r.min()),
        "25%": float(np.quantile(r, 0.25)),
        "50%": float(np.median(r)),
        "75%": float(np.quantile(r, 0.75)),
        "max": float(r.max()),
        "sum": float(r.sum()),
        "cagr": cagr,
        "sr": sr,
        "pr(pnl>0)": float(sps.norm.cdf(sr)) if sr is not None else None,
        "max_dd": max_dd,
        "pnl_over_max_dd": float(r.sum()) / max_dd if max_dd > 0 else None,
        "win_ratio": win,
        "loss_ratio": 1.0 - win,
    }


def _check_metrics(label: str, reported: dict, series: np.ndarray) -> list[str]:
    errors = []
    expected = metric_block(series)
    for key, want in expected.items():
        got = reported.get(key)
        # the metrics pass through sums in another order and exp/log, so a
        # looser tolerance than the element-wise checks
        if not _close(got, want, rel=1e-8, abs_=1e-12):
            errors.append(f"{label} metric {key}: report {got}, recomputed {want}")
    return errors


def check_backtest(
    report: dict,
    panel: Panel,
    spread: float,
    equity_csv: str | None = None,
) -> list[str]:
    """Accounting identities and recomputations for one backtest report."""
    errors: list[str] = []
    days = report["days"]
    mode = report["config"]["mode"]
    n_ret = panel.returns.shape[0]
    d = panel.returns.shape[1]
    if len(days) != n_ret - 1:
        return [f"report has {len(days)} days, the panel gives {n_ret - 1}"]
    gross = np.array([day["gross"] for day in days])
    cost = np.array([day["cost"] for day in days])
    net = np.array([day["net"] for day in days])
    turnover = np.array([day["turnover"] for day in days])
    bench = np.array([day["benchmark"] for day in days])
    next_ret = panel.returns[1:]

    wrong_dates = [i for i, day in enumerate(days) if day["date"] != panel.dates[i + 1]]
    if wrong_dates:
        errors.append(f"{len(wrong_dates)} records carry the wrong date, first at day {wrong_dates[0]}")
    bad = np.flatnonzero(np.abs(bench - next_ret.mean(axis=1)) > EXACT_MEAN_TOL)
    if bad.size:
        errors.append(f"benchmark return differs from the mean next-day mid return on {bad.size} days, first {days[bad[0]]['date']}")
    bad = np.flatnonzero(net != gross - cost)
    if bad.size:
        errors.append(f"net != gross - cost on {bad.size} days, first {days[bad[0]]['date']}")
    if report["config"]["cost_model"] == "half-spread":
        expected_cost = 0.5 * spread * turnover
        bad = np.flatnonzero(np.abs(cost - expected_cost) > 1e-15 + REL_TOL * expected_cost)
        if bad.size:
            errors.append(f"cost != (spread/2) * turnover on {bad.size} days, first {days[bad[0]]['date']}")
    entry = 1.0 if mode == "long-only" else 2.0
    if abs(turnover[0] - entry) > 1e-12:
        errors.append(f"day-one turnover is {turnover[0]}, entering from flat needs {entry}")
    k = max(1, math.floor(report["config"]["decile_fraction"] * d))
    want_short = 0 if mode == "long-only" else k
    bad_sizes = [i for i, day in enumerate(days) if day["n_long"] != k or day["n_short"] != want_short]
    if bad_sizes:
        errors.append(f"slice sizes differ from ({k}, {want_short}) on {len(bad_sizes)} days")
    # weights of each leg sum to one, so the gross return is bounded by the
    # next-day cross-section
    lo, hi = next_ret.min(axis=1), next_ret.max(axis=1)
    if mode == "long-short":
        lo, hi = lo - hi, hi - lo
    bad = np.flatnonzero((gross < lo - 1e-12) | (gross > hi + 1e-12))
    if bad.size:
        errors.append(f"gross return outside the next-day cross-section on {bad.size} days")
    errors += _check_metrics("strategy", report["metrics"]["strategy"], net)
    errors += _check_metrics("benchmark", report["metrics"]["benchmark"], bench)
    if equity_csv is not None:
        lines = equity_csv.splitlines()
        last = lines[-1].split(",")
        if len(lines) != len(days) + 1 or last[0] != days[-1]["date"]:
            errors.append("equity.csv does not hold one row per day")
        elif not (_close(float(last[1]), float(np.cumsum(net)[-1]), abs_=1e-12)
                  and _close(float(last[2]), float(np.cumsum(bench)[-1]), abs_=1e-12)):
            errors.append(f"equity.csv last row {last[1:]} differs from the cumulative sums")
    return errors


def check_manifest(manifest: dict, panel_path: Path, panel_sha: str) -> list[str]:
    got = manifest.get("inputs", {}).get(panel_path.name)
    return [] if got == panel_sha else [f"manifest input digest {got} != {panel_sha}"]


def check_backtest_dir(out_dir: Path, panel: Panel, panel_path: Path, panel_sha: str, spread: float) -> list[str]:
    payload = json.loads((out_dir / "backtest.json").read_text(encoding="utf-8"))
    errors = check_manifest(payload["manifest"], panel_path, panel_sha)
    equity = (out_dir / "equity.csv").read_text(encoding="utf-8")
    return errors + check_backtest(payload, panel, spread, equity_csv=equity)


def _month_shift(label: str, shift: int) -> str:
    total = int(label[:4]) * 12 + int(label[5:7]) - 1 - shift
    return f"{total // 12:04d}-{total % 12 + 1:02d}"


def _adf_t(y: np.ndarray) -> float:
    """t value of the lagged level in an OLS of diff(y) on [1, y_lagged]."""
    dy = np.diff(y)
    x = y[:-1]
    X = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(X, dy, rcond=None)
    resid = dy - X @ coef
    sigma2 = resid @ resid / (len(dy) - 2)
    return float(coef[1] / math.sqrt(sigma2 / ((x - x.mean()) ** 2).sum()))


def check_stationarity(
    report: dict,
    panel: Panel,
    min_month_obs: int,
    rng: np.random.Generator,
    scipy_pairs: int = 300,
) -> list[str]:
    """Recompute month groups, Welch, Levene and ADF statistics and the tallies."""
    errors: list[str] = []
    alpha = report["alpha"]
    tail = alpha if report["sidedness"] == "one-sided" else alpha / 2.0
    adf_key = f"{report['adf_level']:g}"
    months = np.array([day[:7] for day in panel.dates[1:]])
    labels = sorted(set(months.tolist()))
    assets = report["assets"]
    if [a["asset"] for a in assets] != panel.assets:
        return ["report assets differ from the panel's"]

    pair_rows = []  # (t, dof, cv, reject, n1, m1, v1, n2, m2, v2, shift)
    pair_samples = []  # (asset index, month, prior)
    groups_by_asset = []
    price_flags, return_flags, levene_flags = [], [], []
    for j, diag in enumerate(assets):
        rets = panel.returns[:, j]
        groups = {m: rets[months == m] for m in labels}
        groups = {m: g for m, g in groups.items() if len(g) >= min_month_obs}
        groups_by_asset.append(groups)
        moments = {m: (len(g), float(g.mean()), float(g.var(ddof=1))) for m, g in groups.items()}
        reported = {g["month"]: g for g in diag["month_groups"]}
        if list(reported) != list(groups):
            errors.append(f"{diag['asset']}: month groups {list(reported)[:3]}... differ from the CSV's")
            continue
        for m, (count, mean, var) in moments.items():
            r = reported[m]
            if r["count"] != count or not _close(r["mean"], mean) or not _close(r["var"], var):
                errors.append(f"{diag['asset']} {m}: month group {r} differs from the CSV")
                break

        expected_pairs = {(m, s) for m in groups for s in range(1, report["max_shift"] + 1) if _month_shift(m, s) in groups}
        seen = set()
        for test in diag["t_tests"]:
            m, prior, s = test["month"], test["prior_month"], test["shift"]
            if prior != _month_shift(m, s) or (m, s) not in expected_pairs:
                errors.append(f"{diag['asset']}: unexpected pair {m} vs {prior} at shift {s}")
                continue
            seen.add((m, s))
            pair_rows.append((test["t_stat"], test["dof"], test["critical_value"], test["reject"],
                              *moments[m], *moments[prior], s))
            pair_samples.append((j, m, prior))
        missing = len(expected_pairs - seen)
        if missing and missing > report["skipped"]["t_test"]:
            errors.append(f"{diag['asset']}: {missing} month pairs were neither tested nor skipped")

        lev = diag["levene"]
        if lev is not None:
            stat = sps.levene(*groups.values(), center="mean").statistic
            k, total = len(groups), sum(len(g) for g in groups.values())
            cv = sps.f.ppf(1.0 - alpha, k - 1, total - k)
            if not _close(lev["w_stat"], float(stat), rel=1e-8):
                errors.append(f"{diag['asset']}: Levene W {lev['w_stat']} != scipy {stat}")
            if (lev["dof_between"], lev["dof_within"]) != (k - 1, total - k) or not _close(lev["critical_value"], float(cv)):
                errors.append(f"{diag['asset']}: Levene degrees of freedom or critical value are wrong")
            if lev["reject"] != (lev["w_stat"] > lev["critical_value"]):
                errors.append(f"{diag['asset']}: Levene reject flag contradicts W and its critical value")
            levene_flags.append(lev["reject"])

        for key, series, flags, stationary in (
            ("adf_price", panel.mids[:, j], price_flags, False),
            ("adf_return", rets, return_flags, True),
        ):
            adf = diag[key]
            if adf is None:
                continue
            t_ref = _adf_t(series)
            if not _close(adf["t_stat"], t_ref, rel=ADF_REL_TOL):
                errors.append(f"{diag['asset']}: {key} t {adf['t_stat']} != lstsq fit {t_ref}")
            for level, cv in adf["critical_values"].items():
                if adf["reject_unit_root"][level] != (adf["t_stat"] < cv):
                    errors.append(f"{diag['asset']}: {key} reject flag at {level} contradicts t")
            rejected = adf["reject_unit_root"][adf_key]
            flags.append(rejected if stationary else not rejected)

    if pair_rows:
        t, dof, cv, reject, n1, m1, v1, n2, m2, v2, shift = (np.array(col) for col in zip(*pair_rows))
        se2 = v1 / n1 + v2 / n2
        t_ref = (m1 - m2) / np.sqrt(se2)
        dof_ref = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
        cv_ref = sps.t.ppf(1.0 - tail, dof_ref)
        for name, got, want in (("t", t, t_ref), ("dof", dof, dof_ref), ("critical value", cv, cv_ref)):
            bad = np.flatnonzero(np.abs(got - want) > 1e-12 + REL_TOL * np.abs(want))
            if bad.size:
                errors.append(f"Welch {name} differs from the recomputation on {bad.size} pairs, first {pair_samples[bad[0]]}")
        bad = np.flatnonzero(reject != (np.abs(t) > cv))
        if bad.size:
            errors.append(f"Welch reject flag contradicts |t| > cv on {bad.size} pairs, first {pair_samples[bad[0]]}")
        for i in rng.choice(len(pair_rows), size=min(scipy_pairs, len(pair_rows)), replace=False):
            j, m, prior = pair_samples[i]
            res = sps.ttest_ind(groups_by_asset[j][m], groups_by_asset[j][prior], equal_var=False)
            if not (_close(t[i], float(res.statistic), rel=1e-8) and _close(dof[i], float(res.df), rel=1e-8)):
                errors.append(f"Welch pair {pair_samples[i]}: t, dof ({t[i]}, {dof[i]}) != scipy ({res.statistic}, {res.df})")
                break
        for item in report["rejection_by_shift"]:
            s = item["shift"]
            tests, rejections = int((shift == s).sum()), int(reject[shift == s].sum())
            if (item["tests"], item["rejections"]) != (tests, rejections):
                errors.append(f"rejection_by_shift[{s}] = {item['rejections']}/{item['tests']}, pairs tally {rejections}/{tests}")
            elif tests and not _close(item["frequency"], rejections / tests):
                errors.append(f"rejection_by_shift[{s}] frequency {item['frequency']} != {rejections}/{tests}")
    for key, flags in (
        ("price_nonstationary_fraction", price_flags),
        ("return_stationary_fraction", return_flags),
        ("levene_rejection_fraction", levene_flags),
    ):
        want = float(np.mean(flags)) if flags else None
        if not _close(report[key], want):
            errors.append(f"{key} {report[key]} != {want} from the per-asset flags")
    return errors


def check_stationarity_dir(
    out_dir: Path, panel: Panel, panel_path: Path, panel_sha: str, min_month_obs: int, seed: int
) -> list[str]:
    payload = json.loads((out_dir / "stationarity.json").read_text(encoding="utf-8"))
    errors = check_manifest(payload["manifest"], panel_path, panel_sha)
    if not (out_dir / "stationarity.txt").read_text(encoding="utf-8").startswith("monthly return diagnostics"):
        errors.append("stationarity.txt does not hold the report table")
    rng = np.random.Generator(np.random.PCG64(seed))
    return errors + check_stationarity(payload["report"], panel, min_month_obs, rng)
