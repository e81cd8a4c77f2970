"""Heat equation on (0, pi) with Nemytskii drift and integral-kernel noise.

Dirichlet Laplacian eigenpairs lambda_i = i^2, e_i(x) = sqrt(2/pi) sin(ix).
Fields move between sine coefficients and M physical nodes x_a = a pi/(M+1)
through the discrete sine transform, whose quadrature (weight pi/(M+1)) is
exactly orthogonal on the first M modes - so projection o synthesis is the
identity, not an approximation.

Every field operation acts along the last axis, so one call handles a
single field of shape (N,) or a whole grid path of shape (n+1, N).

The diffusion G(u) is the integral operator v -> int g(x, y, u(y)) v(y) dy,
discretized as an N x N matrix by the same quadrature.  Kernels with a
profile bound |g(x,y,z1) - g(x,y,z2)| <= L(x)|z1 - z2| make G Lipschitz in
the Hilbert-Schmidt norm with constant ||L||; that bound survives the
discretization exactly (the quadrature is a Parseval pairing).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .paths import HolderParams
from .solver import ProblemSpec
from .spectral import SpectralOperator, laplacian_1d

__all__ = [
    "SineBasis",
    "KernelSpec",
    "synthesize",
    "project",
    "nemytskii_apply",
    "kernel_matrix",
    "lipschitz_norm",
    "default_kernel",
    "build_heat_problem",
]


@dataclass(frozen=True)
class SineBasis:
    """Sine synthesis on M interior nodes of (0, pi), first N modes.

    The node and synthesis arrays are built on first access and cached on
    the instance.
    """

    n_modes: int
    m_phys: int

    def __post_init__(self):
        if self.n_modes > self.m_phys:
            raise ValueError("need n_modes <= m_phys for exact round-trip")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.pi * np.arange(1, self.m_phys + 1) / (self.m_phys + 1)

    @property
    def weight(self) -> float:
        return np.pi / (self.m_phys + 1)

    @cached_property
    def synth_matrix(self) -> np.ndarray:
        i = np.arange(1, self.n_modes + 1)
        return np.sqrt(2.0 / np.pi) * np.sin(np.outer(self.nodes, i))


def synthesize(basis: SineBasis, coeffs: np.ndarray) -> np.ndarray:
    """Values u(x_a) = sum_i c_i e_i(x_a), along the last axis."""
    return np.asarray(coeffs, dtype=float) @ basis.synth_matrix.T


def project(basis: SineBasis, values: np.ndarray) -> np.ndarray:
    """Coefficients c_i = w sum_a u(x_a) e_i(x_a); exact inverse of
    synthesize for fields in the first N modes.  Acts along the last axis."""
    return basis.weight * (np.asarray(values, dtype=float) @ basis.synth_matrix)


def nemytskii_apply(f, u: np.ndarray, basis: SineBasis) -> np.ndarray:
    """Coefficients of x -> f(u(x)): synthesize, compose, project."""
    return project(basis, f(synthesize(basis, u)))


@dataclass
class KernelSpec:
    """Integral kernel g(x, y, z) with Lipschitz profile L(x).

    g must vectorize over (x, y, z) arrays.  When the kernel factors as
    g(x,y,z) = phi(x) * psi(y, z), pass (phi, psi) as `separable` and the
    operator matrix is assembled rank-one in O(M N) instead of O(M^2 N);
    psi must then broadcast nodes y (M,) against values z (..., M).
    """

    g: callable
    lipschitz_profile: callable
    separable: tuple | None = None

    def spot_check_profile(self, rng=None, n_samples: int = 200) -> float:
        """Worst slack of |g(x,y,z1)-g(x,y,z2)| <= L(x)|z1-z2| on random
        triples; negative means the declared profile is wrong."""
        rng = np.random.default_rng(rng)
        x = rng.uniform(0.0, np.pi, n_samples)
        y = rng.uniform(0.0, np.pi, n_samples)
        z1 = rng.uniform(-5.0, 5.0, n_samples)
        z2 = rng.uniform(-5.0, 5.0, n_samples)
        lhs = np.abs(self.g(x, y, z1) - self.g(x, y, z2))
        rhs = self.lipschitz_profile(x) * np.abs(z1 - z2)
        return float(np.min(rhs - lhs))


def kernel_matrix(kspec: KernelSpec, u: np.ndarray, basis: SineBasis) -> np.ndarray:
    """Entries (e_j, G(u) e_i) = w^2 sum_{a,b} e_j(x_a) g(x_a, y_b, u(y_b)) e_i(y_b).

    u of shape (..., N) gives matrices of shape (..., N, N).
    """
    S = basis.synth_matrix
    w = basis.weight
    x = basis.nodes
    uy = synthesize(basis, u)
    if kspec.separable is not None:
        phi, psi = kspec.separable
        left = w * (phi(x) @ S)
        right = w * (psi(x, uy) @ S)
        return left[:, None] * right[..., None, :]

    def one(row):
        gv = kspec.g(x[:, None], x[None, :], row[None, :])
        return w**2 * (S.T @ gv @ S)

    # one (M, M) kernel table at a time: a path never holds (n+1, M, M)
    flat = uy.reshape(-1, uy.shape[-1])
    return np.array([one(row) for row in flat]).reshape(
        uy.shape[:-1] + (S.shape[1], S.shape[1])
    )


def lipschitz_norm(kspec: KernelSpec, basis: SineBasis) -> float:
    """Quadrature value of ||L|| = sqrt(int_0^pi L(x)^2 dx)."""
    L = kspec.lipschitz_profile(basis.nodes)
    return float(np.sqrt(basis.weight * np.sum(L**2)))


def default_kernel(amplitude: float = 0.1) -> KernelSpec:
    """Demo kernel g(x,y,z) = amplitude sin(x) sin(y) tanh(z), profile
    L(x) = amplitude sin(x) (tanh is 1-Lipschitz)."""
    a = amplitude

    def g(x, y, z):
        return a * np.sin(x) * np.sin(y) * np.tanh(z)

    return KernelSpec(
        g=g,
        lipschitz_profile=lambda x: a * np.sin(x),
        separable=(np.sin, lambda y, z: a * np.sin(y) * np.tanh(z)),
    )


def build_heat_problem(
    f=np.tanh,
    kernel: KernelSpec | None = None,
    params: HolderParams | None = None,
    horizon: float = 1.0,
    n_steps: int = 256,
    n_modes: int = 16,
    m_phys: int = 256,
    c_F: float = 0.0,
    L_F: float = 1.0,
) -> ProblemSpec:
    """Assemble the heat problem as a ProblemSpec for the mild solver.

    Defaults: drift f = tanh (c_F = 0, L_F = 1), the demo kernel above,
    trace weights q_i = 1/i^2.  The declared L_G is the quadrature value
    of the kernel's profile norm.
    """
    kernel = default_kernel() if kernel is None else kernel
    params = HolderParams() if params is None else params
    basis = SineBasis(n_modes=n_modes, m_phys=m_phys)
    op = laplacian_1d(n_modes=n_modes)
    L_G = lipschitz_norm(kernel, basis)
    return ProblemSpec(
        operator=op,
        drift=lambda u: nemytskii_apply(f, u, basis),
        diffusion=lambda u: kernel_matrix(kernel, u, basis),
        params=params,
        horizon=horizon,
        n_steps=n_steps,
        c_F=c_F,
        L_F=L_F,
        L_G=L_G,
    )
