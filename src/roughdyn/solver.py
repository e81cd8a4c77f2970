"""Mild-equation operator, weighted fixed-point solver, translation residual.

The mild form of du = (Au + F(u))dt + G(u)domega is

    T(u)(t) = S(t)u0 + int_0^t S(t-r)F(u(r))dr + int_0^t S(t-r)G(u(r))domega.

Both time integrals are computed per grid cell with exact exponential
moments of e^{-lambda(t-r)} against the piecewise-linear interpolants of
F(u(.)), G(u(.)) and omega, accumulated by a log2(n)-pass doubling scan of
the semigroup recursion.
At lambda = 0 the noise term reduces exactly to the trapezoid Stieltjes
sum of fracint.pathwise_integral.

Fixed points of T are found by Picard iteration and accepted in the
unweighted Hölder norm; the weight rho, doubled until the contraction
factor measured on probe pairs drops below 1/2, only scales the report.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import betaln, hyp1f1

from .paths import HolderParams, SampledPath, weighted_holder_norm, wiener_shift
from .spectral import SpectralOperator, semigroup_apply

__all__ = [
    "ProblemSpec",
    "SolverConfig",
    "SolutionSet",
    "SolverError",
    "kummer_decay",
    "apply_mild",
    "solve_mild",
    "translate_check",
]


class SolverError(RuntimeError):
    """Fixed-point iteration failed from every start; carries the residual
    traces for diagnosis (too-coarse grid or too-wild driver)."""

    def __init__(self, message, residual_traces=None):
        super().__init__(message)
        self.residual_traces = residual_traces or []


@dataclass
class ProblemSpec:
    """The equation du = (Au + F(u))dt + G(u)domega: operator A, drift F,
    diffusion G and the Hölder exponents.

    A spec carries no time grid.  The grid is the driver's: apply_mild and
    solve_mild read n and dt from the omega they are given, so the same
    spec solves on any window of a path, and a window is a slice of omega.

    F and G act node by node along the leading axes of a whole path:
    drift(u) maps (..., N) to (..., N), and diffusion(u, v) is G(u)v for
    fields u (..., N) and noise vectors v (..., M), leading axes broadcast,
    result (..., N).  A single field (N,) is the case with no leading axes;
    the mild operator calls each once per application, on the whole path.
    The declared constants |F(u)| <= c_F + L_F|u| and
    |G(u) - G(v)| <= L_G|u - v| are keyword-only and unread by the solver;
    verify-all's heat check reports their slacks from spot_check_growth.
    """

    operator: SpectralOperator
    drift: callable
    diffusion: callable
    params: HolderParams
    _: KW_ONLY
    c_F: float = 0.0
    L_F: float = 0.0
    L_G: float = 0.0

    def spot_check_growth(self, rng) -> dict:
        """Worst slacks of the declared constants on 20 random field pairs
        drawn from rng, a seed or a Generator (negative = violated).  G's
        HS norm is that of G on the N unit noise vectors, G transposed, so
        the noise must have the operator's N modes, as any driver
        sample_qfbm(spec.operator, ...) has; for M != N, G raises."""
        rng = np.random.default_rng(rng)
        N = self.operator.n_modes
        units = np.eye(N)
        worst_f, worst_g = np.inf, np.inf
        for _ in range(20):
            u = rng.standard_normal(N) * rng.uniform(0.1, 3.0)
            v = rng.standard_normal(N) * rng.uniform(0.1, 3.0)
            fu = np.linalg.norm(self.drift(u))
            worst_f = min(
                worst_f, self.c_F + self.L_F * np.linalg.norm(u) - fu
            )
            dg = np.linalg.norm(self.diffusion(u, units) - self.diffusion(v, units))
            worst_g = min(
                worst_g, self.L_G * np.linalg.norm(u - v) - dg
            )
        return {"drift_growth_slack": worst_f, "diffusion_lipschitz_slack": worst_g}


# cap of the doubling search for a contractive weight rho
_RHO_MAX = 2.0**16


@dataclass
class SolverConfig:
    fp_tol: float = 1e-8
    max_iters: int = 60
    n_starts: int = 8
    distinct_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not self.fp_tol > 0:
            raise ValueError("fp_tol must be positive")
        if not self.distinct_tol > self.fp_tol:
            raise ValueError("distinct_tol must exceed fp_tol")
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolutionSet:
    """Finite approximation of the solution set from one initial value."""

    elements: list
    residuals: list
    rho: float
    contraction_factor: float
    residual_traces: list
    ball_radius: float
    ball_ok: list

    def __len__(self):
        return len(self.elements)


def kummer_decay(
    rho: float, a: float, b: float, d: float, horizon: float
) -> float:
    """sup over t in [0, horizon] of t^d int_0^1 e^{-rho t(1-v)} v^a (1-v)^b dv.

    The inner integral is Beta(a+1, b+1) M(b+1, a+b+2, -rho t) with M the
    confluent hypergeometric function; the outer sup is a dense grid
    search (the function is smooth and the grid includes the endpoint,
    where the rho = 0 sup is attained).  Nonincreasing in rho, -> 0 as
    rho -> infinity.

    Substituting s = rho t gives the scaling identity

        K(rho) = rho^-d sup_{0 <= s <= rho*horizon} f(s),
        f(s) = s^d B(a+1, b+1) M(b+1, a+b+2, -s).

    For d < b + 1 the sup over s is attained at a finite s*, so once
    rho*horizon >= s* the constant is exactly K(rho) = C_inf rho^-d with
    C_inf = sup_{s >= 0} f(s): the decay in rho is algebraic, not
    geometric (a = b = -1/2, d = 0.1: s* ~ 0.2111, C_inf ~ 2.42643, and
    four decades of rho shrink K by exactly 10^-0.4).
    """
    if not (a > -1.0 and b > -1.0 and a + b >= -1.0):
        raise ValueError("need a > -1, b > -1, a + b >= -1")
    if not d > 0:
        raise ValueError("need d > 0")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    # linear grid plus a log-spaced refinement near 0: for large rho the
    # sup migrates toward t ~ 1/rho and a uniform grid would miss it
    t = np.concatenate(
        [
            np.linspace(0.0, horizon, 4097),
            np.geomspace(1e-12 * horizon, horizon, 1024),
        ]
    )
    beta_ab = np.exp(betaln(a + 1.0, b + 1.0))
    vals = t**d * beta_ab * hyp1f1(b + 1.0, a + b + 2.0, -rho * t)
    return float(np.max(vals))


def _phi_weights(z: np.ndarray):
    """Exact exponential cell moments: with z = lambda*dt,

        phi0 = int_0^1 (1-x) e^{-z(1-x)} dx,  phi1 = int_0^1 x e^{-z(1-x)} dx,

    so a cell contributes dt*(phi0*f_k + phi1*f_{k+1}) to the semigroup
    convolution of a piecewise-linear f.  Series branch below z = 1e-4
    avoids catastrophic cancellation; both reduce to 1/2 at z = 0.  Above
    z = 1, phi0 = (1 - (1+z)e^{-z})/z^2 directly, as (1 - e^{-z})/z - phi1
    cancels to ~1/z^2.  Above z = 1e150 the leading terms in 1/z are exact
    to machine precision.
    """
    z = np.asarray(z, dtype=float)
    phi0 = np.empty_like(z)
    phi1 = np.empty_like(z)
    small = z < 1e-4
    huge = z > 1e150
    mid = ~(small | huge)
    zs = z[small]
    phi1[small] = 0.5 - zs / 6.0 + zs**2 / 24.0 - zs**3 / 120.0
    phi0[small] = 0.5 - zs / 3.0 + zs**2 / 8.0 - zs**3 / 30.0
    zb = z[mid]
    em = -np.expm1(-zb)  # 1 - e^{-z}
    phi1[mid] = (zb - em) / zb**2
    phi0[mid] = np.where(
        zb > 1.0, (em - zb * np.exp(-zb)) / zb**2, em / zb - phi1[mid]
    )
    # e^{-z} = 0 here and z**2 would overflow: phi1 = 1/z - 1/z^2 rounds
    # to 1/z, phi0 = 1/z^2 (underflowing to 0 past z ~ 1e154)
    zinv = 1.0 / z[huge]
    phi1[huge] = zinv
    phi0[huge] = zinv * zinv
    return phi0, phi1


def apply_mild(
    u: SampledPath, omega: SampledPath, u0: np.ndarray, spec: ProblemSpec
) -> SampledPath:
    """Evaluate the mild operator T(u, omega, u0) on the shared grid.

    Exact for piecewise-linear F(u(.)), G(u(.)) and omega: per cell the
    semigroup kernel is integrated in closed form (phi-weights above).
    F and G are evaluated once each on the whole path.  The cell terms c_m
    are accumulated as D[m+1] = e^{-lambda dt} D[m] + c_m, i.e.
    D[k] = sum_{m<k} e^{-lambda dt (k-1-m)} c_m, by a doubling scan: pass s
    (s = 1, 2, 4, ...) adds e^{-lambda dt s} D[k-s] to D[k].  That is
    log2(n) vectorized passes, O(n log n) per mode; every factor is a power
    of e^{-lambda dt} <= 1, so large lambda underflows to 0, never to inf.
    """
    if u.n_nodes != omega.n_nodes or not u.same_step(omega):
        raise ValueError("candidate and driver must share the grid")
    lam = spec.operator.eigenvalues
    N = lam.size
    if u.n_modes != N:
        raise ValueError("candidate path has wrong mode count")
    u0 = np.asarray(u0, dtype=float)
    n = u.n_steps
    dt = u.dt
    z = lam * dt
    phi0, phi1 = _phi_weights(z)

    dw = np.zeros((n + 2, omega.n_modes))
    np.subtract(omega.values[1:], omega.values[:-1], out=dw[1:-1])
    # one diffusion call on the n+1 nodes, each meeting the increments of
    # both its cells: gv[k] = (G(u_k)dw[k-1], G(u_k)dw[k]) on the padded dw.
    # It runs before the drift: its temporaries are freed before fvals
    # exists (drift first holds one more path at the solve's peak)
    pairs = sliding_window_view(dw, 2, axis=0).swapaxes(-1, -2)
    gv = spec.diffusion(u.values[:, None, :], pairs)
    g_lo, g_hi = gv[:-1, 1], gv[1:, 0]  # cell m: G(u_m)dw[m], G(u_{m+1})dw[m]
    fvals = spec.drift(u.values)
    acc = np.zeros((n + 1, N))
    acc[1:] = (
        dt * (phi0 * fvals[:-1] + phi1 * fvals[1:]) + phi0 * g_lo + phi1 * g_hi
    )
    decay = np.exp(-z)
    s = 1
    while s < n:
        acc[s + 1 :] += decay * acc[1 : n + 1 - s]
        decay = decay * decay
        s *= 2
    acc += semigroup_apply(spec.operator, dt * np.arange(n + 1), u0)
    return SampledPath(t0=u.t0, dt=dt, values=acc)


def _residual_norm(a: SampledPath, b: SampledPath, beta: float, rho: float):
    diff = SampledPath(t0=a.t0, dt=a.dt, values=a.values - b.values)
    return weighted_holder_norm(diff, beta, rho)


def _start_family(u0, omega, spec, cfg):
    """Contraction probes u0, S(t)u0 and S(t)u0 + 0.3 sqrt(t) xi (xi from
    default_rng(seed)), and an iterator over the n_starts Picard starts: the
    first two probes themselves, then S(t)u0 + s t^beta xi (s, xi from
    SeedSequence([seed, 7])), each built when it is reached."""
    n, dt = omega.n_steps, omega.dt
    tt = dt * np.arange(n + 1)
    base = semigroup_apply(spec.operator, tt, u0)
    xi = np.random.default_rng(cfg.seed).standard_normal(spec.operator.n_modes)
    probe = base + 0.3 * np.sqrt(tt)[:, None] * xi
    probes = [SampledPath(0.0, dt, p) for p in (np.tile(u0, (n + 1, 1)), base, probe)]
    plain = probes[: min(2, cfg.n_starts)]
    rough = (tt**spec.params.beta)[:, None]

    def starts():
        yield from plain
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
        for _ in range(cfg.n_starts - 2):
            bump = rng.standard_normal(spec.operator.n_modes)
            scale = rng.uniform(0.05, 0.5)
            yield SampledPath(0.0, dt, base + scale * rough * bump)

    return probes, starts()


def _choose_rho(probes, images, beta) -> tuple:
    """Double rho from 1 until the contraction factor q of T, measured on
    S(t)u0 paired with each other probe and on their rho-free images, drops
    below 1/2.  q is a measurement on two pairs, not a proof of contraction."""
    rho = 1.0
    while rho <= _RHO_MAX:
        q = 0.0
        informative = False
        for j in (0, 2):  # S(t)u0 against u0, then against the bump probe
            den = _residual_norm(probes[1], probes[j], beta, rho)
            if not den > 1e-12:
                # the exponential weight underflowed the probe difference;
                # this rho measures nothing and must not count as contractive
                continue
            informative = True
            ratio = _residual_norm(images[1], images[j], beta, rho) / den
            q = max(q, ratio) if np.isfinite(ratio) else np.inf  # max() drops NaN
        if informative and np.isfinite(q) and q < 0.5:
            return rho, q
        rho *= 2.0
    raise SolverError(
        f"no contractive weight found up to rho = {_RHO_MAX}"
    )


def solve_mild(
    u0: np.ndarray, omega: SampledPath, spec: ProblemSpec, cfg: SolverConfig
) -> SolutionSet:
    """Picard-iterate T from several starts; collect distinct fixed points.

    A path u is accepted when ||T(u) - u||_{beta,beta} < fp_tol in the
    unweighted norm, which also measures the residual traces and
    distinct_tol.  rho only scales the report: the contraction factor and
    ball invariance ||u||_{beta,beta;rho} <= 1 + 2 c_S ||u0|| (c_S = 1 for
    this contraction semigroup).
    """
    u0 = np.asarray(u0, dtype=float)
    beta = spec.params.beta
    probes, starts = _start_family(u0, omega, spec, cfg)
    images = [apply_mild(p, omega, u0, spec) for p in probes]
    rho, qfac = _choose_rho(probes, images, beta)
    # T(u0) and T(S(t)u0) are the first Picard steps of starts 0 and 1
    firsts = images[: min(2, cfg.n_starts)]
    del probes, images
    radius = 1.0 + 2.0 * np.linalg.norm(u0)
    elements, residuals, traces, ball_ok = [], [], [], []
    for u in starts:
        trace = []
        converged = False
        for k in range(cfg.max_iters):
            tu = apply_mild(u, omega, u0, spec) if k or not firsts else firsts.pop(0)
            res = _residual_norm(tu, u, beta, 0.0)
            trace.append(res)
            u = tu
            if not (np.isfinite(res) and np.all(np.isfinite(u.values))):
                break
            if res < cfg.fp_tol:
                converged = True
                break
        traces.append(trace)
        if not converged:
            continue
        is_new = all(
            _residual_norm(u, v, beta, 0.0) > cfg.distinct_tol
            for v in elements
        )
        if is_new:
            elements.append(u)
            residuals.append(trace[-1])
            unorm = weighted_holder_norm(u, beta, rho)
            ball_ok.append(bool(unorm <= radius * (1.0 + 1e-6)))
    if not elements:
        raise SolverError(
            "no start converged within max_iters", residual_traces=traces
        )
    return SolutionSet(
        elements=elements,
        residuals=residuals,
        rho=rho,
        contraction_factor=qfac,
        residual_traces=traces,
        ball_radius=radius,
        ball_ok=ball_ok,
    )


def translate_check(
    u: SampledPath,
    s: float,
    omega: SampledPath,
    spec: ProblemSpec,
) -> float:
    """Unweighted residual of v = u(s + .) as a solution on [0, T-s]: v must
    satisfy the mild equation with driver omega(s + .) - omega(s) and
    initial value u(s).  s = 0 gives the residual of u itself, e.g. of a
    concatenation of two solutions, in the norm solve_mild accepts in."""
    v = u.window(u.t0 + s)
    om = wiener_shift(omega, u.n_steps - v.n_steps)
    tv = apply_mild(v, om, v.values[0], spec)
    return _residual_norm(tv, v, spec.params.beta, 0.0)
