"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py JOB.json

JOB.json names the workload, the input seed, the output directory, whether
to trace, and whether to stop after set-up.  The pass times the import of
roughdyn plus config resolution (set-up), then runs the workload's pipeline
in a closed loop (each op starts when the previous one returns), reads peak
RSS, checks every op's output, and writes RESULT.json next to the job.
Outputs are checked after the pipeline so that the checks' own memory and
time stay out of the measurement.  Times are reported both unscaled and
scaled to a nominal host speed (see REF_NOMINAL_S).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "configs")

# (op name, CLI command, config file, --grid-pow); an op with no command
# is run by the benchmark itself
PIPELINES = {
    "solve": [("solve", "solve", "solve.ini", 10)],
    "dynamics": [
        ("cocycle", "cocycle", "cocycle.ini", None),
        ("usc", "usc", "usc.ini", None),
    ],
    "drivers": [
        ("sample_path", "sample-path", "drivers.ini", 12),
        ("integrate", "integrate", "drivers.ini", 12),
        ("crosscheck", None, "drivers.ini", 12),
    ],
}

# Host speed on a shared machine drifts by up to 1.7x within minutes, the
# same on fixed work in CPU time as in wall time.  A fixed reference loop,
# timed after set-up and after every op, measures the current speed; op
# and set-up times are scaled by REF_NOMINAL_S / (reference time) to
# seconds at a nominal speed.  The reference runs no roughdyn code.
REF_NOMINAL_S = 0.05
REF_REPS = 3
COCYCLE_TOL = 5e-3
CROSSCHECK_CELLS = 512
SMOOTH_CELLS = 256


def _reference_s():
    """Median time of the reference loop: small numpy matvecs and ufuncs
    like the solver's per-node calls, and plain Python arithmetic."""
    import numpy as np

    times = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        basis = np.sin(0.01 * np.outer(np.arange(1, 65), np.arange(1, 17)))
        x = np.linspace(0.1, 1.0, 16)
        for _ in range(6000):
            x = (basis.T @ np.tanh(basis @ x)) / 64.0 + 0.1
        acc = 0
        for i in range(400000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return sorted(times)[REF_REPS // 2]


def _direct_holder_seminorm(values, dt, beta):
    """max over node pairs of ||u[k]-u[j]|| / ((k-j) dt)^beta by direct
    differences, one gap at a time (no Gram expansion)."""
    import numpy as np

    best = 0.0
    for gap in range(1, values.shape[0]):
        d = values[gap:] - values[:-gap]
        top = float(np.sqrt(np.max(np.einsum("ij,ij->i", d, d))))
        best = max(best, top / (gap * dt) ** beta)
    return best


def _read_path_csv(path):
    """Node values of a path CSV, read without roughdyn's own reader so
    that the gates check the file as written."""
    import numpy as np

    with open(path) as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    return np.array([[float(x) for x in ln.split(",")] for ln in rows[1:]])


def _dt(cfg):
    return cfg["problem"]["horizon"] / cfg["problem"]["n_steps"]


def _report(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)["report"]


def _crosscheck(out, cfg):
    """Window quadrature against the composite scheme: timed on a diagonal
    cos(t) integrand over the driver's first cells, gated on w = t^2, g = t
    where both must agree."""
    import numpy as np
    from roughdyn import fracint, paths

    table = _read_path_csv(os.path.join(out, "path.csv"))
    pp = paths.HolderParams(**cfg["params"])
    om = paths.SampledPath(0.0, _dt(cfg), table[: CROSSCHECK_CELLS + 1, 1:])
    g = fracint.IntegrandPath(
        0.0, om.dt, np.cos(om.times)[:, None] * np.ones(om.n_modes)
    )
    tt = np.linspace(0.0, 1.0, SMOOTH_CELLS + 1)
    g_s = fracint.IntegrandPath(0.0, tt[1], tt)
    om_s = paths.SampledPath(0.0, tt[1], tt**2)
    t0 = time.perf_counter()
    win = fracint.pathwise_integral_window(g, om, pp)
    comp = fracint.pathwise_integral(g, om, pp)
    w_s = fracint.pathwise_integral_window(g_s, om_s, pp)[0]
    c_s = fracint.pathwise_integral(g_s, om_s, pp)[0]
    elapsed = time.perf_counter() - t0
    return elapsed, {
        "fbm_rel_diff": float(np.linalg.norm(win - comp) / np.linalg.norm(comp)),
        "smooth_rel_diff": float(abs(w_s - c_s) / abs(c_s)),
    }


def _check(op, out, cfg, info, state):
    """Correctness gate of one op; returns (ok, detail)."""
    fp_tol = cfg["solver"]["fp_tol"]
    if op == "solve":
        r = _report(out, "solve.json")
        ok = r["converged"] and max(r["residuals"]) < fp_tol and all(r["ball_ok"])
        return ok, {"max_residual": max(r["residuals"]), "n_distinct": r["n_distinct"]}
    if op == "cocycle":
        r = _report(out, "cocycle.json")
        worst = max(max(c["d1_lhs_to_rhs"], c["d2_rhs_to_lhs"]) for c in r["checks"])
        return worst <= COCYCLE_TOL, {"worst_semidist": worst}
    if op == "usc":
        r = _report(out, "usc.json")
        e = r["e"]
        mono = all(b <= a for a, b in zip(e, e[1:]))
        e_small = e[r["radii"].index(1e-3)]
        ok = r["failures"] == 0 and mono and e_small <= 10 * 2 * fp_tol
        return ok, {"e": e, "failures": r["failures"]}
    if op == "sample_path":
        r = _report(out, "sample_path.json")
        table = _read_path_csv(os.path.join(out, "path.csv"))
        direct = _direct_holder_seminorm(table[:, 1:], _dt(cfg), cfg["params"]["beta_prime"])
        state["seminorm"] = direct
        rel = abs(r["holder_seminorm_beta_prime"] - direct) / direct
        return rel <= 1e-9, {"seminorm_rel_diff": rel}
    if op == "integrate":
        r = _report(out, "integrate.json")
        scale = state["seminorm"] * cfg["problem"]["horizon"] ** cfg["params"]["beta_prime"]
        err = r["constant_identity_error"]
        return err <= 1e-6 * scale, {"identity_error": err, "holder_scale": scale}
    if op == "crosscheck":
        return info["smooth_rel_diff"] <= 1e-4, info
    raise ValueError(f"no check for op {op}")


def _digests(out):
    result = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    out = job["out"]
    pipeline = PIPELINES[job["workload"]]
    seed = job["seed"]

    t0 = time.perf_counter()
    import roughdyn
    from roughdyn import cli

    cfgs = {
        ini: cli._load_config(os.path.join(CONFIGS, ini), seed, gp)
        for _, _, ini, gp in pipeline
    }
    setup_s = time.perf_counter() - t0
    refs = [_reference_s()]
    result = {"setup_raw_s": setup_s, "setup_s": setup_s * REF_NOMINAL_S / refs[0]}
    if not job["setup_only"]:
        import numpy
        import scipy

        result["env"] = {
            "kernel_backend": roughdyn.kernel_backend,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        tracer = None
        if job["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        ops, infos = [], {}
        for op, command, ini, gp in pipeline:
            rc, info = 0, None
            t = time.perf_counter()
            try:
                if command is None:
                    elapsed, info = _crosscheck(out, cfgs[ini])
                else:
                    argv = [command, "--config", os.path.join(CONFIGS, ini),
                            "--seed", str(seed), "--out", out]
                    if gp is not None:
                        argv += ["--grid-pow", str(gp)]
                    rc = cli.main(argv)
                    elapsed = time.perf_counter() - t
            except Exception:
                traceback.print_exc()
                rc, elapsed = None, time.perf_counter() - t
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            refs.append(_reference_s())
            speed = REF_NOMINAL_S / (0.5 * (refs[-2] + refs[-1]))
            ops.append({"op": op, "raw_s": elapsed, "s": elapsed * speed, "rc": rc})
            infos[op] = info
        result["wall_raw_s"] = sum(o["raw_s"] for o in ops)
        result["wall_s"] = sum(o["s"] for o in ops)
        result["peak_rss_mb"] = peak_rss_mb
        result["reference_s"] = refs
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
        state = {}
        for o, (op, _, ini, _) in zip(ops, pipeline):
            ok, detail = False, None
            if o["rc"] == 0:
                try:
                    ok, detail = _check(op, out, cfgs[ini], infos[op], state)
                except Exception:
                    traceback.print_exc()
            o["ok"] = bool(ok)
            o["detail"] = detail
        result["ops"] = ops
        result["digests"] = _digests(out)
    with open(os.path.join(os.path.dirname(job_path), "RESULT.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
