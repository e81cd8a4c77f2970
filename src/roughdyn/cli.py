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
import dataclasses
import os
import sys

import numpy as np

from . import dynsys, fracint, heat, io, paths, solver, spectral

_DEFAULTS = {
    "params": dataclasses.asdict(paths.HolderParams()),
    "problem": {
        "horizon": 1.0,
        "n_steps": 256,
        "n_modes": 16,
        "m_phys": 256,
        "drift": "tanh",
        "kernel_amplitude": 0.1,
    },
    "solver": {
        f.name: f.default
        for f in dataclasses.fields(solver.SolverConfig)
        if f.name != "seed"
    },
    "experiment": {
        "u0_mode": 1,
        "u0_scale": 1.0,
        "radii": "0.1,0.01,0.001",
        "m_per_radius": 10,
        "integrand": "constant",
    },
}

_DRIFTS = {  # name -> (F, its declared constant L_F)
    "tanh": (np.tanh, 1.0),
    "zero": (np.zeros_like, 0.0),
    "identity": (lambda z: z, 1.0),
}

_INTEGRANDS = ("constant", "time-linear")

# the Hölder norms a run reports square node values and their differences,
# and a float64 square overflows above sqrt(max double) ~ 1.34e154; bounding
# every float key by 1e150 leaves a factor 1e4 for differences and mode sums
_FLOAT_MAX = 1e150

# commands that solve up to multiples of horizon/d need d | n_steps: cocycle
# checks at T/4, T/2 and 3T/4, usc at T/2
_GRID_DIVISORS = {"cocycle": 4, "usc": 2}


def _load_config(path: str | None, seed: int, grid_pow: int | None) -> dict:
    cfg = {sec: dict(vals) for sec, vals in _DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
            entries = {sec: parser.items(sec) for sec in parser.sections()}
        except configparser.Error as exc:
            # configparser spreads some messages over several lines
            raise ValueError(" ".join(str(exc).split())) from None
        if not read:
            raise ValueError(f"config file not readable: {path}")
        for sec, items in entries.items():
            if sec not in cfg:
                raise ValueError(f"unknown config section [{sec}]")
            for key, raw in items:
                if key not in cfg[sec]:
                    raise ValueError(f"unknown config key {sec}.{key}")
                cfg[sec][key] = _parse_value(sec, key, raw)
    if grid_pow is not None:
        if grid_pow < 0:
            raise ValueError("--grid-pow must be nonnegative")
        cfg["problem"]["n_steps"] = 2**grid_pow
    if not 0 <= seed < 2**64:
        raise ValueError("--seed must lie in [0, 2^64)")
    cfg["seed"] = int(seed)
    # the fBm sampling method fixes the seed -> path map
    cfg["sampler"] = "circulant"
    pb = cfg["problem"]
    if pb["drift"] not in _DRIFTS:
        raise ValueError(f"unknown drift '{pb['drift']}'")
    if not pb["horizon"] > 0:
        raise ValueError("problem.horizon must be positive")
    for sec, vals in _DEFAULTS.items():
        for key, default in vals.items():
            if type(default) is int and cfg[sec][key] < 1:
                raise ValueError(f"{sec}.{key} must be at least 1")
    need = _memory_bytes(pb, cfg["solver"]["n_starts"])
    phys_bytes = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > phys_bytes:
        raise ValueError(
            f"problem.n_steps = {pb['n_steps']} needs about {need} bytes, more "
            f"than the {phys_bytes} bytes of physical memory"
        )
    if pb["n_modes"] > pb["m_phys"]:
        raise ValueError("problem.n_modes must not exceed problem.m_phys")
    ex = cfg["experiment"]
    if ex["u0_mode"] > pb["n_modes"]:
        raise ValueError("experiment.u0_mode must lie in 1..problem.n_modes")
    if ex["integrand"] not in _INTEGRANDS:
        raise ValueError(f"unknown integrand '{ex['integrand']}'")
    _radii(cfg)
    # the library constructors validate the exponent chain and the
    # tolerances at parse time
    _params(cfg)
    _solver_cfg(cfg)
    return cfg


def _memory_bytes(pb: dict, n_starts: int) -> int:
    """Upper bound on the bytes a run holds: affine in N, and in n once a
    path outgrows one node block.  Per stage, in float64s, rounded up from
    tracemalloc peaks of every command (N <= 64, m_phys <= 256, n <= 1024)
    and summed, with P = spectral._BLOCK_FLOATS the piece size: the
    diffusion's three node-block fields, at most
    3 max(m_phys, min((n+1) m_phys, P)); ten (n+1) x N paths (driver,
    probes, images, apply_mild's result, scratch path and F and G values)
    and one kept solution per start; and the largest of the working sets
    never held at once.  Those are 10 P whatever n and N: verify-all's
    battery (7.4 P, its Hölder pair search; its sampler check maps the
    identity a piece at a time in 4.0 P) and the Hölder pair search (8 P;
    3.0 to 7.5 P measured at n <= 65537 and 1 or 16 modes, the boxes its
    levels keep included, at most about a float a node past that, under
    the sampler's 11 (n+1)); the CSV writer, which
    formats pieces of at most 4096 values, holds under 5 P at any n below
    4096 modes; and the fBm sampler past its path, 11 (n+1) + 2 P: its 2n
    circulant factors and one piece of modes, each with 4n normals, a 2n-point
    complex FFT row and n+1 values (one mode a piece past n = 2048), and
    the FFT's buffers (11.0 floats a step measured at n = 2^14 and 2^16,
    14.1 at 2^12).  The search's plans, 4 to 5 floats per node (4.2 at 512
    nodes on one level; 4.8 at 1025, 4.6 at 4097, 4.8 at 16385 and 4.4 at
    65537, where the levels below the top keep their units' weight maxima
    and divisors), are cached for at most paths._PLANS = 8 (grid, beta,
    rho) keys; a solve at rho = 1 keeps two per grid, which sit under the
    path terms and the sampler's 11 (n+1) (solve at N = 1, one start:
    2.93 MB peak against a 3.54 MB budget at n = 2^14, 10.97 MB against
    12.19 MB at n = 2^16)."""
    n, N, M = pb["n_steps"], pb["n_modes"], pb["m_phys"]
    P = spectral._BLOCK_FLOATS
    block = max(M, min((n + 1) * M, P))
    apart = max(10 * P, 11 * (n + 1) + 2 * P)
    return 8 * (3 * block + (n + 1) * (10 + n_starts) * N + apart)


def _parse_value(sec: str, key: str, raw: str):
    """Typed value of one config entry: finite numbers, integral int keys."""
    kind = type(_DEFAULTS[sec][key])
    if kind is str:
        return raw
    val = float(raw)
    if not np.isfinite(val):
        raise ValueError(f"{sec}.{key} must be finite, got {raw!r}")
    if kind is float and abs(val) > _FLOAT_MAX:
        raise ValueError(f"{sec}.{key} = {raw!r} exceeds {_FLOAT_MAX:g} in size")
    if kind is int:
        if not val.is_integer():
            raise ValueError(f"{sec}.{key} must be an integer, got {raw!r}")
        return int(val)
    return val


def _params(cfg) -> paths.HolderParams:
    return paths.HolderParams(**cfg["params"])


def _radii(cfg) -> list:
    """experiment.radii as floats; the string stays in the resolved config."""
    raw = cfg["experiment"]["radii"]
    try:
        return dynsys._checked_radii(float(r) for r in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"experiment.radii = {raw!r}: {exc}") from None


def _problem(cfg) -> solver.ProblemSpec:
    pb = cfg["problem"]
    kernel = heat.default_kernel(amplitude=pb["kernel_amplitude"])
    f, L_F = _DRIFTS[pb["drift"]]
    return heat.build_heat_problem(
        f=f,
        kernel=kernel,
        params=_params(cfg),
        n_modes=pb["n_modes"],
        m_phys=pb["m_phys"],
        L_F=L_F,
    )


def _solver_cfg(cfg) -> solver.SolverConfig:
    return solver.SolverConfig(**cfg["solver"], seed=cfg["seed"])


def _driver(cfg) -> paths.SampledPath:
    """The fBm driver, on the trace weights of the heat problem's operator."""
    pb = cfg["problem"]
    return paths.sample_qfbm(
        spectral.laplacian_1d(pb["n_modes"]),
        cfg["params"]["hurst"],
        pb["n_steps"],
        pb["horizon"] / pb["n_steps"],
        cfg["seed"],
    )


def _u0(cfg) -> np.ndarray:
    u0 = np.zeros(cfg["problem"]["n_modes"])
    u0[cfg["experiment"]["u0_mode"] - 1] = cfg["experiment"]["u0_scale"]
    return u0


def cmd_sample_path(cfg, out: str) -> int:
    om = _driver(cfg)
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
    om = _driver(cfg)
    pp = _params(cfg)
    kind = cfg["experiment"]["integrand"]
    w = om.values
    if kind == "constant":  # the identity as a broadcast view: N^2 floats
        g = fracint.IntegrandPath.constant(np.eye(om.n_modes), om)
        val = fracint.pathwise_integral(g, om, pp)
        key, expected = "constant_identity_error", w[-1] - w[0]
    else:  # t I as the scalar t against each mode; by parts is exact for it
        t = fracint.IntegrandPath(om.t0, om.dt, om.times)
        modes = (paths.SampledPath(om.t0, om.dt, wi) for wi in w.T)
        val = np.concatenate([fracint.pathwise_integral(t, wi, pp) for wi in modes])
        key = "by_parts_identity_error"
        trapezoid = 0.5 * om.dt * np.sum(w[:-1] + w[1:], axis=0)
        expected = om.t_end * w[-1] - om.t0 * w[0] - trapezoid
    report = {
        "integrand": kind,
        "value": val,
        "norm": float(np.linalg.norm(val)),
        key: float(np.linalg.norm(val - expected)),
    }
    io.write_report(os.path.join(out, "integrate.json"), cfg, report)
    return 0


def cmd_solve(cfg, out: str) -> int:
    spec = _problem(cfg)
    om = _driver(cfg)
    try:
        sols = solver.solve_mild(_u0(cfg), om, spec, _solver_cfg(cfg))
    except solver.SolverError as exc:
        io.write_report(
            os.path.join(out, "solve.json"),
            cfg,
            {"converged": False, "residual_traces": exc.residual_traces},
        )
        raise
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
    om = _driver(cfg)
    scfg = _solver_cfg(cfg)
    u0 = _u0(cfg)
    T = cfg["problem"]["horizon"]
    reports = dynsys.check_cocycle((T / 4, T / 2), T / 4, om, u0, spec, scfg)
    io.write_report(os.path.join(out, "cocycle.json"), cfg, {"checks": reports})
    return 0


def cmd_usc(cfg, out: str) -> int:
    spec = _problem(cfg)
    om = _driver(cfg)
    report = dynsys.usc_probe(
        cfg["problem"]["horizon"] / 2,
        om,
        _u0(cfg),
        spec,
        _solver_cfg(cfg),
        radii=_radii(cfg),
        m_per_radius=cfg["experiment"]["m_per_radius"],
    )
    io.write_report(os.path.join(out, "usc.json"), cfg, report)
    return 0


def _verify_battery(cfg) -> dict:
    """Small deterministic instance of every invariant suite."""
    seed = cfg["seed"]
    pp = _params(cfg)
    checks = {}
    # each random check draws from its own stream
    rngs = [paths.stream(seed, "battery", k) for k in range(7)]

    # exact sampling: the sampler's linear map from normals to the grid
    # values, A, satisfies A A^T = grid covariance.  Its rows in A^T, the
    # images of the 4n unit normals, are mapped a piece of the identity at
    # a time
    n, dt, H = 64, 1.0 / 64, pp.hurst
    sqrt_eigs = paths._sqrt_eigs(H, n, dt)
    At = np.empty((4 * n, n))
    for rows in spectral._row_blocks(4 * n, 4 * n):
        piece = At[rows]
        units = np.eye(len(piece), 4 * n, rows.start)
        piece[:] = paths._fbm_from_normals(sqrt_eigs, units)[:, 1:]
    A = At.T
    tt = dt * np.arange(1, n + 1)
    cov = paths.fbm_covariance(tt[:, None], tt[None, :], H)
    err = float(np.max(np.abs(A @ A.T - cov)))
    checks["fbm_covariance"] = {"max_error": err, "pass": err < 1e-10}

    # constant-integrand identity on fBm drivers
    worst = 0.0
    for k in range(3):
        om = paths.sample_fbm_1d(H, 256, 1.0 / 256, rngs[k])
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
    om = paths.sample_fbm_1d(H, 128, 1.0 / 128, rngs[3])
    g = fracint.IntegrandPath(0.0, om.dt, np.cos(om.times))
    full = fracint.pathwise_integral(g, om, pp, 0.0, 1.0)[0]
    scale = 1.0 + abs(full)
    worst = 0.0
    for tau in (0.25, 0.5, 0.75):
        a = fracint.pathwise_integral(g, om, pp, 0.0, tau)[0]
        b = fracint.pathwise_integral(g, om, pp, tau, 1.0)[0]
        worst = max(worst, abs(a + b - full) / scale)
    checks["additivity"] = {"worst_rel_defect": worst, "pass": worst < 1e-6}

    # a-priori Hölder bound of the same integral, on [0, 1] and [1/4, 3/4]
    reps = [fracint.integral_norm_bound(g, om, pp, *w) for w in ((0, 1), (0.25, 0.75))]
    checks["integral_norm_bound"] = {
        "measured": [r["measured"] for r in reps],
        "bound": [r["bound"] for r in reps],
        "pass": all(r["measured"] <= r["bound"] for r in reps),
    }

    # Kummer decay function: monotone in rho, closed form at rho = 0
    a, b, d = -pp.alpha, pp.alpha - 1.0, pp.beta_prime - pp.beta
    ks = [solver.kummer_decay(r, a, b, d, 1.0) for r in (0.0, 1.0, 10.0, 100.0)]
    k0_ref = fracint.beta_fn(1.0 - pp.alpha, pp.alpha)
    mono = all(x > y for x, y in zip(ks, ks[1:]))
    checks["kummer_decay"] = {
        "values": ks,
        "k0_error": abs(ks[0] - k0_ref),
        "pass": mono and abs(ks[0] - k0_ref) < 1e-6,
    }

    # the solver's S(t) on the unit vectors e_i, in the D((-A)^delta) norms:
    # smoothing ||S(t)e_i||_gamma <= sup_{lam >= lam_1} lam^gamma e^{-lam t}
    # (the constant reported is t^gamma e^{lam_1 t} times the left side) and
    # the difference bound ||(S(t) - I)e_i||_theta <= t^{sigma-theta} ||e_i||_sigma
    op = spectral.laplacian_1d(n_modes=16)
    gam, lam1 = pp.beta_prime, op.eigenvalues[0]
    smooth, env_ok = 0.0, True
    diff = {}
    for t in (0.01, 0.1, 1.0):
        lam_max = max(gam / t, lam1)  # the sup's maximiser
        envelope = lam_max**gam * np.exp(-lam_max * t)
        for e in np.eye(op.n_modes):
            st = spectral.semigroup_apply(op, t, e)
            norm = spectral.frac_power_norm(op, gam, st)
            env_ok = env_ok and norm <= envelope * (1 + 1e-12)
            smooth = max(smooth, t**gam * np.exp(lam1 * t) * norm)
            for th, sg in ((0.0, 1.0), (0.0, gam), (gam, 1.0)):
                key = f"theta={th:g},sigma={sg:g}"
                scale = t ** (sg - th) * spectral.frac_power_norm(op, sg, e)
                ratio = spectral.frac_power_norm(op, th, st - e) / scale
                diff[key] = max(diff.get(key, 0.0), ratio)
    checks["semigroup_bounds"] = {
        "smoothing_constant": smooth,
        "difference_constants": diff,
        "pass": env_ok and all(v <= 1.0 + 1e-12 for v in diff.values()),
    }

    # heat example: the declared growth and HS-Lipschitz constants, the
    # kernel's Lipschitz profile and the projection round-trip
    slacks = heat.build_heat_problem(n_modes=8, m_phys=64).spot_check_growth(rngs[4])
    slacks["profile_slack"] = heat.default_kernel().spot_check_profile(rngs[5])
    basis = heat.SineBasis(n_modes=8, m_phys=64)
    rt = rngs[6].standard_normal(8)
    rt_err = np.max(np.abs(heat.project(basis, heat.synthesize(basis, rt)) - rt))
    checks["heat_hs_lipschitz"] = {
        **slacks,
        "roundtrip_error": rt_err,
        "pass": min(slacks.values()) >= -1e-6 and rt_err < 1e-10,
    }

    # small end-to-end solve: residual below tolerance, geometric decay
    spec_small = heat.build_heat_problem(params=pp, n_modes=4, m_phys=32)
    om = paths.sample_qfbm(spec_small.operator, H, 64, 0.5 / 64, seed)
    scfg = dataclasses.replace(_solver_cfg(cfg), n_starts=2, max_iters=60)
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
        # translation: u(T/2 + .) solves the problem driven by the shifted
        # omega from u(T/2); concatenation: u on [0, T/2] pasted to the
        # solution from u(T/2) on the shifted driver solves from u0
        u, k = sols.elements[0].values, om.n_steps // 2
        om_k = paths.wiener_shift(om, k)
        tail = solver.solve_mild(u[k], om_k, spec_small, scfg).elements[0].values
        for name, path, s, tol in (
            ("translation", u, k * om.dt, 2.0),
            ("concatenation", np.vstack([u[: k + 1], tail[1:]]), 0.0, 3.0),
        ):
            v = paths.SampledPath(0.0, om.dt, path)
            res = solver.translate_check(v, s, om, spec_small)
            checks[name] = {"residual": res, "pass": res < tol * scfg.fp_tol}
        (rep,) = dynsys.check_cocycle((0.125,), 0.125, om, u0, spec_small, scfg)
        worst_d = max(rep["d1_lhs_to_rhs"], rep["d2_rhs_to_lhs"])
        checks["cocycle"] = {**rep, "pass": worst_d < 5e-3}
    except solver.SolverError as exc:
        for name in ("mild_solve", "translation", "concatenation", "cocycle"):
            checks.setdefault(name, {"pass": False, "error": str(exc)})
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
        d = _GRID_DIVISORS.get(args.command, 1)
        if cfg["problem"]["n_steps"] % d:
            raise ValueError(f"{args.command} needs problem.n_steps divisible by {d}")
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"config error: --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, args.out)
    except solver.SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
