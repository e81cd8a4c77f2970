"""Set-valued solution map, cocycle verification, and semicontinuity probes.

The solution map sends (t, omega, u0) to the set of time-t values of all
fixed points found by the mild solver.  Its defining identity over the
Wiener shift,

    Phi(t + s, omega, u0) = Phi(t, shifted omega, Phi(s, omega, u0)),

is checked numerically through two one-sided Hausdorff semidistances (the
identity is an inclusion in each direction; the directions can fail
independently, so they are reported separately, never merged).

Phi is the set of fixed points itself: the weight rho of the existence
proof plays no part in it, so the solves here skip the solver's rho report
and fail only when no start converges; the fixed points, and so Phi, are
the same bits as with the report.
"""

from __future__ import annotations

import numpy as np

from .paths import SampledPath, stream, wiener_shift
from .solver import ProblemSpec, SolverConfig, SolverError, solve_mild

__all__ = [
    "solution_map",
    "hausdorff_semidist",
    "check_cocycle",
    "usc_probe",
]


def solution_map(
    t: float,
    omega: SampledPath,
    u0: np.ndarray,
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> list:
    """Phi(t, omega, u0): time-t values of every fixed point found when
    solving on [0, t], the first t/dt cells of omega, without the rho
    report.  t = 0 returns [u0] without solving."""
    u0 = np.asarray(u0, dtype=float)
    if omega.index_of(omega.t0 + t) == 0:
        return [u0.copy()]
    sols = solve_mild(u0, omega.window(t=omega.t0 + t), spec, cfg, report=False)
    return [u.values[-1].copy() for u in sols.elements]


def hausdorff_semidist(A, B) -> float:
    """sup over a in A of the distance from a to B.  Not symmetric."""
    A = [np.asarray(a, dtype=float) for a in A]
    B = [np.asarray(b, dtype=float) for b in B]
    if not A or not B:
        raise ValueError("semidistance needs nonempty sets")
    Am = np.stack(A)
    Bm = np.stack(B)
    # direct differences (not the Gram expansion): exact matches must give 0
    d = np.linalg.norm(Am[:, None, :] - Bm[None, :, :], axis=2)
    return float(np.max(d.min(axis=1)))


def check_cocycle(
    ts,
    s: float,
    omega: SampledPath,
    u0: np.ndarray,
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> list:
    """For each t in ts, both one-sided semidistances between
    Phi(t+s, omega, u0) and Phi(t, theta_s omega, Phi(s, omega, u0)): one
    report per t, all sharing one solve of Phi(s, omega, u0)."""
    mid = solution_map(s, omega, u0, spec, cfg)
    om_s = wiener_shift(omega, omega.index_of(omega.t0 + s))
    reports = []
    for t in ts:
        lhs = solution_map(t + s, omega, u0, spec, cfg)
        rhs = []
        for x in mid:
            rhs.extend(solution_map(t, om_s, x, spec, cfg))
        reports.append({
            "t": t,
            "s": s,
            "d1_lhs_to_rhs": hausdorff_semidist(lhs, rhs),
            "d2_rhs_to_lhs": hausdorff_semidist(rhs, lhs),
            "n_lhs": len(lhs),
            "n_rhs": len(rhs),
        })
    return reports


def _checked_radii(radii) -> list:
    """Probe radii as a list: finite, positive and strictly decreasing."""
    radii = list(radii)
    if not all(0.0 < r < np.inf for r in radii) or radii != sorted(set(radii))[::-1]:
        raise ValueError("radii must be finite, positive and strictly decreasing")
    return radii


def usc_probe(
    t: float,
    omega: SampledPath,
    u0: np.ndarray,
    spec: ProblemSpec,
    cfg: SolverConfig,
    radii=(1e-1, 1e-2, 1e-3),
    m_per_radius: int = 10,
) -> dict:
    """Upper-semicontinuity probe of u0 -> Phi(t, omega, u0).

    For each radius r, m initial values at distance exactly r from u0 are
    sampled, in directions drawn from paths.stream(cfg.seed, "usc"); e(r)
    and e_lsc(r) are the max over samples of the semidistance from the
    perturbed set to the unperturbed one and back.  Solver
    failures (SolverError) are counted, not fatal, and a radius where every
    solve failed reports None; any other exception propagates.
    """
    u0 = np.asarray(u0, dtype=float)
    radii = _checked_radii(radii)
    base = solution_map(t, omega, u0, spec, cfg)
    rng = stream(cfg.seed, "usc")
    e_vals, e_lsc, failures = [], [], 0
    for r in radii:
        psets = []
        for _ in range(m_per_radius):
            direction = rng.standard_normal(u0.size)
            direction /= np.linalg.norm(direction)
            try:
                psets.append(solution_map(t, omega, u0 + r * direction, spec, cfg))
            except SolverError:
                failures += 1
        e_vals.append(max((hausdorff_semidist(p, base) for p in psets), default=None))
        e_lsc.append(max((hausdorff_semidist(base, p) for p in psets), default=None))
    return {
        "t": t,
        "radii": radii,
        "e": e_vals,
        "e_lsc": e_lsc,
        "failures": failures,
        "m_per_radius": m_per_radius,
    }
