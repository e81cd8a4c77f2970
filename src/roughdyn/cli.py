"""Batch experiment runner.

Subcommands mirror the pipeline stages: sample a driving path, evaluate a
pathwise integral, solve the mild equation, check the cocycle identity,
probe upper semicontinuity, or run the whole invariant battery.  All
outputs are deterministic functions of (config, seed) and carry the
resolved-config hash.

Exit codes: 0 success (tolerance breaches are reported inside the JSON,
not via the exit code), 2 config validation failure, 3 solver
non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from . import dynsys, fracint, heat, io, paths, solver, spectral

_DEFAULTS = {
    "params": {"hurst": 0.75, "beta": 0.55, "beta_prime": 0.65, "alpha": 0.5},
    "problem": {
        "horizon": 1.0,
        "n_steps": 256,
        "n_modes": 16,
        "m_phys": 256,
        "drift": "tanh",
        "kernel_amplitude": 0.1,
    },
    "solver": {
        "fp_tol": 1e-8,
        "max_iters": 60,
        "n_starts": 8,
        "distinct_tol": 1e-4,
    },
    "experiment": {
        "u0_mode": 1,
        "u0_scale": 1.0,
        "radii": "0.1,0.01,0.001",
        "m_per_radius": 10,
        "integrand": "constant",
    },
}

_DRIFTS = {"tanh": np.tanh, "zero": lambda z: np.zeros_like(z), "identity": lambda z: z}


def _load_config(path: str | None, seed: int, grid_pow: int | None) -> dict:
    cfg = {sec: dict(vals) for sec, vals in _DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ValueError(f"config file not readable: {path}")
        for sec in parser.sections():
            if sec not in cfg:
                raise ValueError(f"unknown config section [{sec}]")
            for key, raw in parser.items(sec):
                if key not in cfg[sec]:
                    raise ValueError(f"unknown config key {sec}.{key}")
                cfg[sec][key] = _parse_value(sec, key, raw)
    if grid_pow is not None:
        if grid_pow < 0:
            raise ValueError("--grid-pow must be nonnegative")
        cfg["problem"]["n_steps"] = 2**grid_pow
    cfg["seed"] = int(seed)
    pb = cfg["problem"]
    if pb["drift"] not in _DRIFTS:
        raise ValueError(f"unknown drift '{pb['drift']}'")
    for sec, vals in _DEFAULTS.items():
        for key, default in vals.items():
            if type(default) is int and cfg[sec][key] < 1:
                raise ValueError(f"{sec}.{key} must be at least 1")
    # the exact sampler factors the n x n float64 grid covariance
    cov_bytes = 8 * pb["n_steps"] ** 2
    phys_bytes = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if cov_bytes > phys_bytes:
        raise ValueError(
            f"problem.n_steps = {pb['n_steps']} needs a {cov_bytes}-byte fBm "
            f"covariance, more than the {phys_bytes} bytes of physical memory"
        )
    if pb["n_modes"] > pb["m_phys"]:
        raise ValueError("problem.n_modes must not exceed problem.m_phys")
    if cfg["experiment"]["u0_mode"] > pb["n_modes"]:
        raise ValueError("experiment.u0_mode must lie in 1..problem.n_modes")
    # constructing HolderParams validates the exponent chain at parse time
    _params(cfg)
    return cfg


def _parse_value(sec: str, key: str, raw: str):
    """Typed value of one config entry; integer keys reject fractions."""
    kind = type(_DEFAULTS[sec][key])
    if kind is str:
        return raw
    val = float(raw)
    if kind is int:
        if not val.is_integer():
            raise ValueError(f"{sec}.{key} must be an integer, got {raw!r}")
        return int(val)
    return val


def _params(cfg) -> paths.HolderParams:
    p = cfg["params"]
    return paths.HolderParams(
        hurst=p["hurst"],
        beta=p["beta"],
        beta_prime=p["beta_prime"],
        alpha=p["alpha"],
    )


def _problem(cfg) -> solver.ProblemSpec:
    pb = cfg["problem"]
    kernel = heat.default_kernel(amplitude=pb["kernel_amplitude"])
    return heat.build_heat_problem(
        f=_DRIFTS[pb["drift"]],
        kernel=kernel,
        params=_params(cfg),
        horizon=pb["horizon"],
        n_steps=pb["n_steps"],
        n_modes=pb["n_modes"],
        m_phys=pb["m_phys"],
        L_F=1.0 if pb["drift"] != "zero" else 0.0,
    )


def _solver_cfg(cfg) -> solver.SolverConfig:
    sv = cfg["solver"]
    return solver.SolverConfig(
        fp_tol=sv["fp_tol"],
        max_iters=sv["max_iters"],
        n_starts=sv["n_starts"],
        distinct_tol=sv["distinct_tol"],
        seed=cfg["seed"],
    )


def _driver(cfg, spec) -> paths.SampledPath:
    return paths.sample_qfbm(
        spec.operator,
        cfg["params"]["hurst"],
        spec.n_steps,
        spec.dt,
        cfg["seed"],
    )


def _u0(cfg, spec) -> np.ndarray:
    u0 = np.zeros(spec.operator.n_modes)
    u0[cfg["experiment"]["u0_mode"] - 1] = cfg["experiment"]["u0_scale"]
    return u0


def cmd_sample_path(cfg, out: str) -> int:
    spec = _problem(cfg)
    om = _driver(cfg, spec)
    io.write_series(os.path.join(out, "path.csv"), om, cfg)
    pp = _params(cfg)
    io.write_report(
        os.path.join(out, "sample_path.json"),
        cfg,
        {
            "n_steps": om.n_steps,
            "n_modes": om.n_modes,
            "holder_seminorm_beta_prime": paths.holder_seminorm(om, pp.beta_prime),
            "terminal_norm": float(np.linalg.norm(om.values[-1])),
        },
    )
    return 0


def cmd_integrate(cfg, out: str) -> int:
    spec = _problem(cfg)
    om = _driver(cfg, spec)
    pp = _params(cfg)
    kind = cfg["experiment"]["integrand"]
    N = spec.operator.n_modes
    if kind == "constant":
        g = fracint.IntegrandPath.constant(np.eye(N), om)
        expected = om.values[-1] - om.values[0]
    elif kind == "time-linear":
        tt = om.times[:, None, None]
        g = fracint.IntegrandPath(om.t0, om.dt, tt * np.eye(N))
        expected = None
    else:
        raise ValueError(f"unknown integrand '{kind}'")
    val = fracint.pathwise_integral(g, om, pp)
    report = {
        "integrand": kind,
        "value": val,
        "norm": float(np.linalg.norm(val)),
    }
    if expected is not None:
        report["constant_identity_error"] = float(
            np.linalg.norm(val - expected)
        )
    io.write_report(os.path.join(out, "integrate.json"), cfg, report)
    return 0


def cmd_solve(cfg, out: str) -> int:
    spec = _problem(cfg)
    om = _driver(cfg, spec)
    try:
        sols = solver.solve_mild(_u0(cfg, spec), om, spec, _solver_cfg(cfg))
    except solver.SolverError as exc:
        io.write_report(
            os.path.join(out, "solve.json"),
            cfg,
            {"converged": False, "residual_traces": exc.residual_traces},
        )
        print(f"solver failed: {exc}", file=sys.stderr)
        return 3
    refs = []
    for i, u in enumerate(sols.elements):
        name = f"solution_{i}.csv"
        io.write_series(os.path.join(out, name), u, cfg)
        refs.append(name)
    io.write_report(
        os.path.join(out, "solve.json"),
        cfg,
        {
            "converged": True,
            "rho": sols.rho,
            "contraction_factor": sols.contraction_factor,
            "n_distinct": len(sols),
            "residuals": sols.residuals,
            "residual_traces": sols.residual_traces,
            "ball_radius": sols.ball_radius,
            "ball_ok": sols.ball_ok,
            "solution_files": refs,
        },
    )
    return 0


def cmd_cocycle(cfg, out: str) -> int:
    spec = _problem(cfg)
    om = _driver(cfg, spec)
    scfg = _solver_cfg(cfg)
    u0 = _u0(cfg, spec)
    T = spec.horizon
    try:
        reports = [
            dynsys.check_cocycle(T / 4, T / 4, om, u0, spec, scfg),
            dynsys.check_cocycle(T / 2, T / 4, om, u0, spec, scfg),
        ]
    except solver.SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 3
    io.write_report(os.path.join(out, "cocycle.json"), cfg, {"checks": reports})
    return 0


def cmd_usc(cfg, out: str) -> int:
    spec = _problem(cfg)
    om = _driver(cfg, spec)
    radii = [float(r) for r in str(cfg["experiment"]["radii"]).split(",")]
    try:
        report = dynsys.usc_probe(
            spec.horizon / 2,
            om,
            _u0(cfg, spec),
            spec,
            _solver_cfg(cfg),
            radii=radii,
            m_per_radius=cfg["experiment"]["m_per_radius"],
            seed=cfg["seed"],
        )
    except solver.SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 3
    io.write_report(os.path.join(out, "usc.json"), cfg, report)
    return 0


def _verify_battery(cfg) -> dict:
    """Small deterministic instance of every invariant suite."""
    seed = cfg["seed"]
    pp = _params(cfg)
    checks = {}

    # exact sampling: factor of the grid covariance reproduces it
    n, dt, H = 64, 1.0 / 64, pp.hurst
    L = paths.fbm_cholesky_factor(H, n, dt)
    tt = dt * np.arange(1, n + 1)
    cov = paths.fbm_covariance(tt[:, None], tt[None, :], H)
    err = float(np.max(np.abs(L @ L.T - cov)))
    checks["fbm_covariance"] = {"max_error": err, "pass": err < 1e-10}

    # constant-integrand identity on fBm drivers
    worst = 0.0
    for k in range(3):
        om = paths.sample_fbm_1d(H, 256, 1.0 / 256, [seed, 100 + k])
        g = fracint.IntegrandPath.constant([[2.5]], om)
        val = fracint.pathwise_integral(g, om, pp)[0]
        ref = 2.5 * (om.values[-1, 0] - om.values[0, 0])
        wnorm = paths.holder_seminorm(om, pp.beta_prime)
        worst = max(worst, abs(val - ref) / (2.5 * wnorm))
    checks["constant_integrand"] = {"worst_rel_error": worst, "pass": worst < 1e-6}

    # smooth Young agreement: int_0^1 r d(r^2) = 2/3
    tt = np.linspace(0.0, 1.0, 513)
    om = paths.SampledPath(0.0, tt[1], tt**2)
    g = fracint.IntegrandPath(0.0, tt[1], tt)
    val = fracint.pathwise_integral(g, om, pp)[0]
    checks["smooth_young"] = {
        "value": val,
        "error": abs(val - 2.0 / 3.0),
        "pass": abs(val - 2.0 / 3.0) < 1e-3,
    }

    # additivity and shift of the integral on an fBm driver
    om = paths.sample_fbm_1d(H, 128, 1.0 / 128, [seed, 200])
    g = fracint.IntegrandPath(0.0, om.dt, np.cos(om.times))
    full = fracint.pathwise_integral(g, om, pp, 0.0, 1.0)[0]
    scale = 1.0 + abs(full)
    worst = 0.0
    for tau in (0.25, 0.5, 0.75):
        a = fracint.pathwise_integral(g, om, pp, 0.0, tau)[0]
        b = fracint.pathwise_integral(g, om, pp, tau, 1.0)[0]
        worst = max(worst, abs(a + b - full) / scale)
    checks["additivity"] = {"worst_rel_defect": worst, "pass": worst < 1e-6}

    # Kummer decay function: monotone in rho, closed form at rho = 0
    a, b, d = -pp.alpha, pp.alpha - 1.0, pp.beta_prime - pp.beta
    ks = [solver.kummer_decay(r, a, b, d, 1.0) for r in (0.0, 1.0, 10.0, 100.0)]
    from scipy.special import betaln

    k0_ref = float(np.exp(betaln(1.0 - pp.alpha, pp.alpha)))
    mono = all(x > y for x, y in zip(ks, ks[1:]))
    checks["kummer_decay"] = {
        "values": ks,
        "k0_error": abs(ks[0] - k0_ref),
        "pass": mono and abs(ks[0] - k0_ref) < 1e-6,
    }

    # semigroup smoothing constants stay under the analytic envelope
    op = spectral.laplacian_1d(n_modes=16)
    rep = spectral.verify_semigroup_bounds(op, pp.beta_prime, [0.01, 0.1, 1.0])
    env_ok = bool(
        np.all(rep["smoothing_per_t"] <= rep["smoothing_envelope_per_t"] * (1 + 1e-12))
    )
    diff_ok = all(v <= 1.0 + 1e-12 for v in rep["difference_constants"].values())
    checks["semigroup_bounds"] = {
        "smoothing_constant": rep["smoothing_constant"],
        "difference_constants": rep["difference_constants"],
        "pass": env_ok and diff_ok,
    }

    # heat example: Hilbert-Schmidt Lipschitz bound and projection round-trip
    basis = heat.SineBasis(n_modes=8, m_phys=64)
    kern = heat.default_kernel()
    lnorm = heat.lipschitz_norm(kern, basis)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 300]))
    worst = -np.inf
    for _ in range(20):
        u1 = rng.standard_normal(8)
        u2 = rng.standard_normal(8)
        lhs = np.linalg.norm(
            heat.kernel_matrix(kern, u1, basis) - heat.kernel_matrix(kern, u2, basis)
        )
        worst = max(worst, lhs - lnorm * np.linalg.norm(u1 - u2))
    rt = rng.standard_normal(8)
    rt_err = float(
        np.max(np.abs(heat.project(basis, heat.synthesize(basis, rt)) - rt))
    )
    checks["heat_hs_lipschitz"] = {
        "worst_excess": worst,
        "lipschitz_norm": lnorm,
        "roundtrip_error": rt_err,
        "pass": worst <= 1e-6 and rt_err < 1e-10,
    }

    # small end-to-end solve: residual below tolerance, geometric decay
    spec_small = heat.build_heat_problem(
        params=pp, horizon=0.5, n_steps=64, n_modes=4, m_phys=32
    )
    om = paths.sample_qfbm(spec_small.operator, H, 64, 0.5 / 64, seed)
    scfg = solver.SolverConfig(
        fp_tol=cfg["solver"]["fp_tol"], n_starts=2, max_iters=60, seed=seed
    )
    u0 = np.zeros(4)
    u0[0] = 1.0
    try:
        sols = solver.solve_mild(u0, om, spec_small, scfg)
        trace = sols.residual_traces[0]
        geo = all(b < 0.75 * a for a, b in zip(trace[1:-1], trace[2:]))
        checks["mild_solve"] = {
            "residual": max(sols.residuals),
            "rho": sols.rho,
            "contraction_factor": sols.contraction_factor,
            "geometric_decay": geo,
            "pass": max(sols.residuals) < scfg.fp_tol and geo,
        }
        rep = dynsys.check_cocycle(0.125, 0.125, om, u0, spec_small, scfg)
        worst_d = max(rep["d1_lhs_to_rhs"], rep["d2_rhs_to_lhs"])
        checks["cocycle"] = {**rep, "pass": worst_d < 5e-3}
    except solver.SolverError as exc:
        checks["mild_solve"] = {"pass": False, "error": str(exc)}
        checks["cocycle"] = {"pass": False, "error": "solver failed"}
    return checks


def cmd_verify_all(cfg, out: str) -> int:
    checks = _verify_battery(cfg)
    payload = {
        "checks": checks,
        "all_pass": all(c.get("pass", False) for c in checks.values()),
    }
    io.write_report(os.path.join(out, "verify_all.json"), cfg, payload)
    for name, c in sorted(checks.items()):
        print(f"{name}: {'PASS' if c.get('pass') else 'FAIL'}")
    return 0


_COMMANDS = {
    "sample-path": cmd_sample_path,
    "integrate": cmd_integrate,
    "solve": cmd_solve,
    "cocycle": cmd_cocycle,
    "usc": cmd_usc,
    "verify-all": cmd_verify_all,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughdyn",
        description="Pathwise solver and verifier for rough-driven evolution equations.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="INI-style run config")
    parser.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--grid-pow", type=int, default=None, help="override n_steps = 2^k"
    )
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config, args.seed, args.grid_pow)
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    return _COMMANDS[args.command](cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
