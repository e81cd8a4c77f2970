import csv
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughdyn import cli, paths, solver, spectral


SMALL = """
[problem]
n_steps = 32
n_modes = 4
m_phys = 32
horizon = 0.5

[solver]
n_starts = 2
"""


@pytest.fixture
def small_cfg(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(SMALL)
    return str(p)


def _csv_table(path):
    """The `t, mode_1..mode_N` rows of a series CSV as floats, read with
    the csv module; '#' lines are skipped.  The times must lie on a uniform
    grid."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert rows[0] == ["t"] + [f"mode_{i}" for i in range(1, len(rows[0]))]
    table = np.array(rows[1:], dtype=float)
    steps = np.diff(table[:, 0])
    assert np.allclose(steps, steps.mean(), rtol=1e-8, atol=1e-12)
    return table


def test_sample_path_smoke_and_roundtrip(tmp_path, small_cfg):
    rc = cli.main(
        ["sample-path", "--config", small_cfg, "--seed", "3", "--out", str(tmp_path)]
    )
    assert rc == 0
    back = _csv_table(tmp_path / "path.csv")
    assert back.shape == (33, 5)  # 32 steps, 4 modes
    om = cli._driver(cli._load_config(small_cfg, 3, None))
    assert np.array_equal(back[:, 1:], om.values)
    doc = json.loads((tmp_path / "sample_path.json").read_text())
    assert doc["report"]["n_steps"] == 32
    assert "config_hash" in doc


@pytest.mark.parametrize("command", ["sample-path", "solve", "cocycle", "usc"])
def test_report_determinism(tmp_path, small_cfg, command):
    # identical (config, seed): byte-identical JSON report and CSV files
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        rc = cli.main(
            [command, "--config", small_cfg, "--seed", "9", "--out", str(out)]
        )
        assert rc == 0
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir())
    assert any(n.endswith(".json") for n in names)
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_artifacts_identical_with_warm_and_cleared_caches(tmp_path):
    # solve (3 starts at 2^8 steps) and cocycle twice in one process, the
    # second time on the plans and cell moments the first cached, then once
    # more after clearing both caches: byte-identical artifacts all three times
    runs = {
        "solve": ("[solver]\nn_starts = 3\nfp_tol = 1e-8\n", ["--grid-pow", "8"]),
        "cocycle": ("[solver]\nn_starts = 2\n", []),
    }

    def artifacts(k):
        found = {}
        for command, (text, extra) in runs.items():
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text(text)
            out = tmp_path / f"run{k}" / command
            argv = [command, "--config", str(cfg), "--seed", "1", "--out", str(out)]
            assert cli.main(argv + extra) == 0
            found.update({(command, p.name): p.read_bytes() for p in out.iterdir()})
        return found

    first = artifacts(1)
    assert paths._weighted_plan.cache_info().currsize > 0
    assert solver._cell_moments.cache_info().currsize > 0
    second = artifacts(2)
    paths._weighted_plan.cache_clear()
    solver._cell_moments.cache_clear()
    third = artifacts(3)
    assert len(first) > 2 and first == second == third


def test_grid_pow_override(tmp_path, small_cfg):
    cli.main(
        [
            "sample-path",
            "--config",
            small_cfg,
            "--seed",
            "1",
            "--out",
            str(tmp_path),
            "--grid-pow",
            "6",
        ]
    )
    assert _csv_table(tmp_path / "path.csv").shape[0] == 65  # 64 steps


def test_integrate_constant_identity(tmp_path, small_cfg):
    rc = cli.main(
        ["integrate", "--config", small_cfg, "--seed", "2", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "integrate.json").read_text())
    assert doc["report"]["constant_identity_error"] < 1e-12


def test_integrate_time_linear_by_parts_identity(tmp_path):
    # int t domega = T omega(T) - t0 omega(t0) - trapezoid int omega dt,
    # exact for the trapezoid Stieltjes sum on piecewise-linear data
    cfg = tmp_path / "lin.ini"
    cfg.write_text("[experiment]\nintegrand = time-linear\n")
    argv = ["integrate", "--config", str(cfg), "--seed", "3", "--grid-pow", "10"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "integrate.json").read_text())["report"]
    assert "constant_identity_error" not in rep
    assert rep["by_parts_identity_error"] <= 1e-12 * (1.0 + rep["norm"])


def test_solve_writes_solutions(tmp_path, small_cfg):
    rc = cli.main(
        ["solve", "--config", small_cfg, "--seed", "4", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "solve.json").read_text())
    assert doc["report"]["converged"] is True
    assert max(doc["report"]["residuals"]) < 1e-8
    sol = _csv_table(tmp_path / doc["report"]["solution_files"][0])
    assert sol.shape[0] == 33  # 32 steps


@pytest.mark.parametrize(
    "command, report",
    [("solve", "solve.json"), ("cocycle", "cocycle.json"), ("usc", "usc.json")],
)
def test_solver_failure_exit_code(tmp_path, capsys, command, report):
    # one Picard step from one start cannot reach fp_tol: SolverError -> exit 3
    cfg_path = tmp_path / "fail.ini"
    cfg_path.write_text("[solver]\nmax_iters = 1\nn_starts = 1\n")
    out = tmp_path / "out"
    rc = cli.main(
        [command, "--config", str(cfg_path), "--grid-pow", "5", "--out", str(out)]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failed:") and err.count("\n") == 1
    assert "Traceback" not in err
    if command == "solve":
        doc = json.loads((out / report).read_text())
        assert doc["report"]["converged"] is False
    else:
        assert not (out / report).exists()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[params]\nhurst = 0.3\n")
    assert cli.main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text("[params]\nnope = 1\n")
    assert cli.main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert (
        cli.main(["solve", "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path)])
        == 2
    )


def test_usc_subcommand(tmp_path, small_cfg):
    rc = cli.main(
        ["usc", "--config", small_cfg, "--seed", "6", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "usc.json").read_text())
    e = doc["report"]["e"]
    assert len(e) == 3 and doc["report"]["failures"] == 0


def test_cocycle_subcommand(tmp_path, small_cfg):
    rc = cli.main(
        ["cocycle", "--config", small_cfg, "--seed", "7", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "cocycle.json").read_text())
    for chk in doc["report"]["checks"]:
        assert max(chk["d1_lhs_to_rhs"], chk["d2_rhs_to_lhs"]) < 5e-3


def test_verify_all_uses_the_resolved_solver_config(tmp_path):
    # a valid distinct_tol above the default reaches the battery's solve
    cfg = tmp_path / "loose.ini"
    cfg.write_text("[solver]\nfp_tol = 1e-3\ndistinct_tol = 1e-2\n")
    rc = cli.main(
        ["verify-all", "--config", str(cfg), "--grid-pow", "4", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "verify_all.json").read_text())
    assert doc["report"]["all_pass"] and doc["report"]["checks"]["mild_solve"]["pass"]


@pytest.mark.parametrize(
    "body",
    [
        "[experiment]\nu0_mode = 99\n",  # outside 1..n_modes
        "[experiment]\nu0_mode = 0\n",
        "[problem]\nn_modes = 300\n",  # more modes than physical nodes
        "[problem]\nn_steps = 64.9\n",  # integer keys must be integers
        "[solver]\nn_starts = 2.5\n",
        "[problem]\nm_phys = 0\n",
        "[problem]\nhorizon = -1\n",
        "[problem]\nhorizon = nan\n",  # numbers must be finite
        "[solver]\nfp_tol = 0\n",
        "[solver]\ndistinct_tol = 1e-9\n",  # below the default fp_tol
        "[experiment]\nradii = 0.1,abc\n",
        "[experiment]\nradii = 0.01,0.1\n",  # must strictly decrease
        "[experiment]\nintegrand = foo\n",
        # |u0_scale| > 1e150: the Hölder norms square node values, and a
        # float64 square overflows above about 1.34e154; such a run warned
        # of overflow and reported an infinite ball radius, vacuously ok
        "[experiment]\nu0_scale = 1e300\n",
        "[experiment]\nu0_scale = 1e160\n",
        "[experiment]\nu0_scale = -1e160\n",
        # the same rule holds for every float key: at these amplitudes the
        # run printed two numpy RuntimeWarnings (overflow in L_G's square)
        # and exited 3; under -W error it exited 1 with a traceback
        "[problem]\nkernel_amplitude = 1e160\n",
        "[problem]\nkernel_amplitude = 1e300\n",
    ],
)
def test_config_validated_at_parse_time(tmp_path, capsys, body):
    bad = tmp_path / "bad.ini"
    bad.write_text(body)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()  # rejected before anything runs


def test_integer_keys_accept_integral_floats(tmp_path):
    cfg_path = tmp_path / "ok.ini"
    cfg_path.write_text("[problem]\nn_steps = 64.0\nn_modes = 4\n")
    cfg = cli._load_config(str(cfg_path), 0, None)
    assert cfg["problem"]["n_steps"] == 64
    assert isinstance(cfg["problem"]["n_steps"], int)


_INT_KEYS = [
    (sec, key)
    for sec, vals in cli._DEFAULTS.items()
    for key, default in vals.items()
    if type(default) is int
]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.sampled_from(_INT_KEYS), st.floats())
def test_property_integer_keys_accept_exactly_integral_floats(sec_key, x):
    sec, key = sec_key
    if x.is_integer():
        got = cli._parse_value(sec, key, repr(x))
        assert type(got) is int and got == x
    else:
        with pytest.raises(ValueError):
            cli._parse_value(sec, key, repr(x))


def test_negative_grid_pow_is_config_error(tmp_path):
    assert cli.main(["solve", "--grid-pow", "-1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("grid_pow", ["70", "40"])
def test_grid_beyond_physical_memory_is_config_error(tmp_path, capsys, grid_pow):
    # the O(n) working set of a run at 2^40 or 2^70 steps exceeds any
    # machine's memory: rejected at parse time, before anything is allocated
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        rc = cli.main(["sample-path", "--grid-pow", grid_pow, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()
    assert peak < 1 << 20


def test_grid_within_physical_memory_parses():
    cfg = cli._load_config(None, 0, 12)
    assert cfg["problem"]["n_steps"] == 4096


def test_large_grid_parses_with_linear_memory_budget():
    # an n x n covariance at 2^16 steps would take 32 GiB; the run itself
    # holds a few hundred MB
    cfg = cli._load_config(None, 0, 16)
    assert cfg["problem"]["n_steps"] == 65536
    need = cli._memory_bytes(cfg["problem"], cfg["solver"]["n_starts"])
    assert need < 1 << 30


def test_memory_budget_is_linear_in_grid_size():
    # the diffusion's node blocks are a fixed term once the path outgrows one
    pb = dict(cli._DEFAULTS["problem"])
    sizes = []
    for n in (1 << 10, 1 << 11, 1 << 12):
        pb["n_steps"] = n
        sizes.append(cli._memory_bytes(pb, 8))
    assert sizes[2] - sizes[1] == 2 * (sizes[1] - sizes[0])


def test_memory_budget_is_affine_in_mode_count():
    # the diffusion acts on increments: no (n+1) x N x N term
    pb = dict(cli._DEFAULTS["problem"], n_steps=1 << 10, m_phys=256)
    f = []
    for N in (16, 32, 48):
        pb["n_modes"] = N
        f.append(cli._memory_bytes(pb, 8))
    assert f[1] - f[0] == f[2] - f[1]


def _peak_and_budget(tmp_path, command, config, grid_pow):
    """tracemalloc peak of one CLI run at --grid-pow grid_pow, after a
    --grid-pow 4 run that pays the one-off allocations (lazy imports,
    caches), and the parse-time budget of that run."""
    cfg_path = tmp_path / "mem.ini"
    cfg_path.write_text(config)
    argv = [command, "--config", str(cfg_path), "--seed", "1"]
    argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv + ["--grid-pow", "4"]) == 0
    cfg = cli._load_config(str(cfg_path), 1, grid_pow)
    budget = cli._memory_bytes(cfg["problem"], cfg["solver"]["n_starts"])
    tracemalloc.start()
    try:
        rc = cli.main(argv + ["--grid-pow", str(grid_pow)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak, budget


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_peak_memory_within_budget(tmp_path, command):
    # the parse-time budget bounds what a run holds: integrate held 8.7x it
    # when it built the identity as an (n+1) x N x N array, solve 1.4x and
    # cocycle 1.1x while the budget left out the probes, their images and
    # the synthesized fields.  usc's peak is that of one solve; two
    # perturbed starts per radius keep the traced run short
    config = (
        "[problem]\nn_modes = 64\nm_phys = 256\n[solver]\nn_starts = 1\n"
        "[experiment]\nm_per_radius = 2\n"
    )
    peak, budget = _peak_and_budget(tmp_path, command, config, 8)
    assert peak <= budget


@pytest.mark.parametrize(
    "command, config, grid_pow",
    [
        # one mode on one physical node: the Hölder pair search's fixed
        # working set is most of the run (1.82 MB against a 0.23 MB budget
        # while the budget did not count it)
        ("solve", "[problem]\nn_modes = 1\nm_phys = 1\n[solver]\nn_starts = 1\n", 10),
        # the CLI's default N = 16: kummer_decay's whole (5121, 64) table
        # took verify-all to 2.99 MB against 1.44 MB
        ("verify-all", "", 8),
        # the battery's own working set, 1.20 MB at any N, took verify-all
        # at one mode to 1.20 MB against 1.11 MB while the budget left it out
        ("verify-all", "[problem]\nn_modes = 1\nm_phys = 1\n", 8),
    ],
    ids=["solve-one-mode", "verify-all-default-modes", "verify-all-one-mode"],
)
def test_peak_memory_within_budget_at_few_modes(tmp_path, command, config, grid_pow):
    peak, budget = _peak_and_budget(tmp_path, command, config, grid_pow)
    assert peak <= budget


def test_defaults_are_the_library_defaults():
    cfg = cli._load_config(None, 5, None)
    assert cli._params(cfg) == paths.HolderParams()
    assert cli._solver_cfg(cfg) == solver.SolverConfig(seed=5)
    # radii are checked at parse time but kept as written, so the
    # resolved config (and its hash) is unchanged
    assert cfg["experiment"]["radii"] == "0.1,0.01,0.001"


def test_resolved_config_names_the_sampler():
    cfg = cli._load_config(None, 0, None)
    assert cfg["sampler"] == "circulant"
    assert "sampler" not in cli._DEFAULTS


def _assert_rejected_before_running(capsys, out):
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    # and a seed past the documented 64 bits
    for seed in ("-1", str(2**64)):
        out = tmp_path / "out"
        assert cli.main([command, "--seed", seed, "--out", str(out)]) == 2
        _assert_rejected_before_running(capsys, out)


@pytest.mark.parametrize(
    "command, grid_pow, body",
    [
        ("cocycle", "0", ""),  # checks at T/4, T/2 and 3T/4
        ("cocycle", "1", ""),
        ("cocycle", None, "[problem]\nn_steps = 6\n"),
        ("usc", "0", ""),  # checks at T/2
        ("solve", None, "[problem]\nhorizon = 1e300\n"),  # fGn variance overflows
    ],
    ids=["cocycle-pow0", "cocycle-pow1", "cocycle-n6", "usc-pow0", "horizon-1e300"],
)
def test_grid_and_horizon_rules_are_config_errors(
    tmp_path, capsys, command, grid_pow, body
):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(body)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if grid_pow is not None:
        argv += ["--grid-pow", grid_pow]
    assert cli.main(argv) == 2
    _assert_rejected_before_running(capsys, out)


@pytest.mark.parametrize(
    "body",
    [
        "n_steps = 64\n[problem]\n",  # a key before any section header
        "[problem]\nn_steps = 64\n[problem]\nn_modes = 4\n",  # duplicate section
        "[problem]\nn_steps = 64\nn_steps = 32\n",  # duplicate key
        "[problem]\nn_steps\n",  # no '='
        "[problem]\ndrift = %(x)s\n",  # interpolation of an unknown key
        "[foo]\nbar = 1\n",
        "[problem]\ndrift = cubic\n",
    ],
    ids=[
        "no-section",
        "duplicate-section",
        "duplicate-key",
        "no-equals",
        "interpolation",
        "unknown-section",
        "unknown-drift",
    ],
)
def test_bad_config_file_is_rejected_before_running(tmp_path, capsys, body):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(body)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
    _assert_rejected_before_running(capsys, out)


@pytest.mark.parametrize("under", [False, True], ids=["is-a-file", "under-a-file"])
def test_unusable_out_is_config_error(tmp_path, capsys, under):
    # --out names an existing regular file, or a directory below one
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "run" if under else blocker
    argv = ["sample-path", "--grid-pow", "4", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert blocker.read_text() == "keep\n"


def test_huge_step_solver_failure_is_one_stderr_line(tmp_path, capsys):
    # the largest accepted horizon: lambda*dt exceeds 1e150 on 12 of the 16
    # modes, the mild operator's cell moments stay finite and warning-free,
    # and no contractive weight exists on this grid
    cfg_path = tmp_path / "huge.ini"
    cfg_path.write_text("[problem]\nhorizon = 1e150\n")
    argv = ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--grid-pow", "4"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failed:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["cocycle", "usc"])
def test_huge_step_needs_a_contractive_weight_only_to_solve(tmp_path, command):
    # the grid of test_huge_step_solver_failure_is_one_stderr_line, where
    # solve finds no contractive weight and exits 3; Phi is the set of fixed
    # points, which converge, so the commands that need no rho succeed
    cfg_path = tmp_path / "huge.ini"
    cfg_path.write_text("[problem]\nhorizon = 1e150\n[experiment]\nm_per_radius = 1\n")
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--grid-pow", "4"]) == 0


def test_tiny_horizon_solves_to_u0(tmp_path):
    # at horizon 1e-300 both probe differences are far below 1e-12, so an
    # absolute floor skipped every pair and no weight was ever informative;
    # the floor is relative to the pair's own size
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text("[problem]\nhorizon = 1e-300\n")
    out = tmp_path / "out"
    argv = ["solve", "--config", str(cfg_path), "--out", str(out), "--grid-pow", "4"]
    assert cli.main(argv) == 0
    doc = json.loads((out / "solve.json").read_text())
    rep = doc["report"]
    assert rep["rho"] == 1.0
    assert rep["n_distinct"] == 1
    # the element is T(u0), accepted on start 0's first step, and its
    # residual is ||T(u0) - u0||_{beta,beta}.  The difference is about
    # 1e-303, so its squares underflow; the oracle measures it scaled by a
    # power of two with the direct per-gap pass and scales back
    assert len(rep["residual_traces"][0]) == 1
    sol = _csv_table(out / "solution_0.csv")[:, 1:]
    diff = sol - sol[0]
    e = math.frexp(np.max(np.abs(diff)))[1]
    d = np.ldexp(diff, -e)
    beta, n = doc["config"]["params"]["beta"], d.shape[0] - 1
    span_pow = (1e-300 / n * np.arange(n + 1)) ** beta
    sup = np.max(np.sqrt(np.sum(d * d, axis=1)))
    inc = max(
        np.max(span_pow[: n + 1 - g] * np.sqrt(np.sum((d[g:] - d[:-g]) ** 2, axis=1)))
        / span_pow[g]
        for g in range(1, n + 1)
    )
    oracle = math.ldexp(sup + inc, e)
    assert oracle > 0.0
    assert rep["residuals"] == [pytest.approx(oracle, rel=1e-12, abs=0.0)]


@pytest.mark.parametrize(
    "command, scale",
    [
        ("solve", 1e150),
        ("solve", -1e150),
        ("cocycle", 1e150),
        ("usc", 1e150),
        ("cocycle", -1e150),
        ("usc", -1e150),
    ],
)
def test_u0_scale_at_the_bound_runs_without_warnings(tmp_path, command, scale):
    # the largest accepted size: a finite ball radius and no numpy warning,
    # which the suite's filterwarnings turns into an error
    cfg_path = tmp_path / "edge.ini"
    cfg_path.write_text(f"[experiment]\nu0_scale = {scale!r}\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out", str(out), "--grid-pow", "4"]
    assert cli.main(argv) == 0
    if command == "solve":
        rep = json.loads((out / "solve.json").read_text())["report"]
        assert rep["ball_radius"] == 1.0 + 2.0 * abs(scale)
        assert all(rep["ball_ok"]) and all(np.isfinite(rep["residuals"]))


@pytest.mark.parametrize("drift", sorted(cli._DRIFTS))
def test_drift_table_declares_valid_constants(drift):
    cfg = cli._load_config(None, 0, 4)
    cfg["problem"]["drift"] = drift
    spec = cli._problem(cfg)
    assert spec.L_F == cli._DRIFTS[drift][1]
    rep = spec.spot_check_growth(rng=0)
    # identity measures -5.3e-15: round-off of the sine synthesis round trip
    assert rep["drift_growth_slack"] >= -1e-12
    assert rep["diffusion_lipschitz_slack"] >= -1e-12


def test_usc_runs_on_an_even_grid_off_quarters(tmp_path):
    cfg_path = tmp_path / "six.ini"
    cfg_path.write_text(SMALL.replace("n_steps = 32", "n_steps = 6"))
    rc = cli.main(["usc", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "usc.json").read_text())["report"]["failures"] == 0


# ------------------------------------------------------ the verify-all battery

_BATTERY = {
    "fbm_covariance",
    "constant_integrand",
    "smooth_young",
    "additivity",
    "integral_norm_bound",
    "kummer_decay",
    "semigroup_bounds",
    "heat_hs_lipschitz",
    "mild_solve",
    "translation",
    "concatenation",
    "cocycle",
}


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_battery_names_and_passes(seed):
    checks = cli._verify_battery(cli._load_config(None, seed, None))
    assert set(checks) == _BATTERY
    assert [n for n, c in checks.items() if not c["pass"]] == []


def test_verify_battery_translation_fails_on_an_early_shift(monkeypatch):
    # the shifted driver starts one step before u(T/2) but keeps its length
    real = paths.wiener_shift

    def early(omega, k):
        sh = real(omega, max(k - 1, 0))
        return paths.SampledPath(sh.t0, sh.dt, sh.values[: omega.n_nodes - k])

    monkeypatch.setattr(solver, "wiener_shift", early)
    checks = cli._verify_battery(cli._load_config(None, 0, None))
    assert not checks["translation"]["pass"]
    assert checks["translation"]["residual"] > 100.0 * solver.SolverConfig().fp_tol


@pytest.mark.parametrize("rate", [0.5, 2.0])
def test_verify_battery_semigroup_bounds_fail_on_a_wrong_rate(monkeypatch, rate):
    # the check measures the library's S(t): at half the rate S(1)e_1 is
    # e^{1/2} over the smoothing envelope, at double the rate
    # ||(S(t) - I)e_1|| / t = (1 - e^{-0.02}) / 0.01 ~ 1.98 at t = 0.01
    real = spectral.semigroup_apply
    monkeypatch.setattr(
        spectral, "semigroup_apply", lambda op, t, u: real(op, rate * t, u)
    )
    rep = cli._verify_battery(cli._load_config(None, 0, None))["semigroup_bounds"]
    assert not rep["pass"]
    if rate < 1.0:
        assert rep["smoothing_constant"] > 1.6
    else:
        assert rep["difference_constants"]["theta=0,sigma=1"] > 1.9


def _patch_tail_solve(monkeypatch, tail):
    # the battery's first solve_mild call solves on [0, T], the second the
    # tail from u(T/2); tail(real, u, omega, spec, cfg) answers the second,
    # with real the library solver and u the path of the first solve
    real = solver.solve_mild
    first = []

    def patched(u0, omega, spec, cfg):
        if first:
            return tail(real, first[0].elements[0], omega, spec, cfg)
        first.append(real(u0, omega, spec, cfg))
        return first[0]

    monkeypatch.setattr(solver, "solve_mild", patched)


def test_verify_battery_concatenation_fails_on_a_misplaced_tail(monkeypatch):
    # the tail is solved from u at node k - 1 but pasted at node k
    def from_one_node_early(real, u, omega, spec, cfg):
        return real(u.values[u.n_steps // 2 - 1], omega, spec, cfg)

    _patch_tail_solve(monkeypatch, from_one_node_early)
    checks = cli._verify_battery(cli._load_config(None, 0, None))
    assert checks["translation"]["pass"] and not checks["concatenation"]["pass"]
    assert checks["concatenation"]["residual"] > 100.0 * solver.SolverConfig().fp_tol


def test_verify_battery_tail_solver_failure_fails_its_checks(monkeypatch):
    def failing(real, u, omega, spec, cfg):
        raise solver.SolverError("no start converged within max_iters")

    _patch_tail_solve(monkeypatch, failing)
    checks = cli._verify_battery(cli._load_config(None, 0, None))
    assert set(checks) == _BATTERY and checks["mild_solve"]["pass"]
    for name in ("translation", "concatenation", "cocycle"):
        assert checks[name] == {
            "pass": False,
            "error": "no start converged within max_iters",
        }
