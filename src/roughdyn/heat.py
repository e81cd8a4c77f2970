"""Heat equation on (0, pi) with Nemytskii drift and integral-kernel noise.

Dirichlet Laplacian eigenpairs lambda_i = i^2, e_i(x) = sqrt(2/pi) sin(ix).
Fields move between sine coefficients and M physical nodes x_a = a pi/(M+1)
through the discrete sine transform, whose quadrature (weight pi/(M+1)) is
exactly orthogonal on the first M modes - so projection o synthesis is the
identity, not an approximation.

Every field operation acts along the last axis, so one call handles a
single field of shape (N,) or a whole grid path of shape (n+1, N).  The
drift and the diffusion evaluate a path's physical-node fields one piece
at a time (_through_nodes, spectral._row_blocks), so the memory they hold
does not grow with m_phys times the path length.

The diffusion G(u) is the integral operator v -> int g(x, y, u(y)) v(y) dy
with g(x, y, z) = phi(x) psi(y, z), discretized by the same quadrature and
applied to noise coefficients v directly (kernel_apply): no matrix per node.
Kernels with a profile bound |g(x,y,z1) - g(x,y,z2)| <= L(x)|z1 - z2| make
G Lipschitz in the Hilbert-Schmidt norm with constant ||L||; that bound
survives the discretization exactly (the quadrature is a Parseval pairing).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .paths import HolderParams
from .solver import ProblemSpec
from .spectral import _row_blocks, laplacian_1d

__all__ = [
    "SineBasis",
    "KernelSpec",
    "synthesize",
    "project",
    "nemytskii_apply",
    "kernel_apply",
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


def _through_nodes(basis: SineBasis, g, coeffs: np.ndarray) -> np.ndarray:
    """project(basis, g(synthesize(basis, coeffs))) over the fields of
    coeffs (..., N), one piece of their node fields at a time (_row_blocks)."""
    coeffs = np.asarray(coeffs, dtype=float)
    flat = coeffs.reshape(-1, coeffs.shape[-1])
    out = np.empty(flat.shape)
    for rows in _row_blocks(len(flat), basis.m_phys):
        out[rows] = project(basis, g(synthesize(basis, flat[rows])))
    return out.reshape(coeffs.shape)


def nemytskii_apply(f, u: np.ndarray, basis: SineBasis) -> np.ndarray:
    """Coefficients of x -> f(u(x)): synthesize, compose, project, over the
    fields of u (..., N) in node blocks."""
    return _through_nodes(basis, f, u)


@dataclass
class KernelSpec:
    """Integral kernel g(x, y, z) = phi(x) psi(y, z), Lipschitz profile L(x).

    phi must vectorize over nodes x (M,) and psi must broadcast nodes y (M,)
    against values z (..., M); G(u)v is then phi's coefficients times one
    inner product with v, O(N) per field after synthesis.
    """

    phi: callable
    psi: callable
    lipschitz_profile: callable

    def g(self, x, y, z):
        """Kernel value phi(x) * psi(y, z)."""
        return self.phi(x) * self.psi(y, z)

    def spot_check_profile(self, rng) -> float:
        """Worst slack of |g(x,y,z1)-g(x,y,z2)| <= L(x)|z1-z2| on 200 random
        triples drawn from rng, a seed or a Generator; negative means the
        declared profile is wrong."""
        rng = np.random.default_rng(rng)
        x = rng.uniform(0.0, np.pi, 200)
        y = rng.uniform(0.0, np.pi, 200)
        z1 = rng.uniform(-5.0, 5.0, 200)
        z2 = rng.uniform(-5.0, 5.0, 200)
        lhs = np.abs(self.g(x, y, z1) - self.g(x, y, z2))
        rhs = self.lipschitz_profile(x) * np.abs(z1 - z2)
        return float(np.min(rhs - lhs))


def kernel_apply(
    kspec: KernelSpec, u: np.ndarray, v: np.ndarray, basis: SineBasis
) -> np.ndarray:
    """(e_i, G(u)v) = (e_i, phi) w sum_b psi(y_b, u(y_b)) sum_j e_j(y_b) v_j.

    u (..., N) and v (..., N) broadcast along their leading axes to a result
    (..., N); each field u is synthesized once, however many v it meets, and
    the psi table is projected in node blocks, so no (..., M) array of all
    fields is ever held.  On the unit vectors, kernel_apply(k, u, np.eye(N),
    basis) is G(u)^T.
    """
    left = project(basis, kspec.phi(basis.nodes))
    right = _through_nodes(basis, lambda z: kspec.psi(basis.nodes, z), u)
    return left * np.sum(right * v, axis=-1, keepdims=True)


def lipschitz_norm(kspec: KernelSpec, basis: SineBasis) -> float:
    """Quadrature value of ||L|| = sqrt(int_0^pi L(x)^2 dx)."""
    L = kspec.lipschitz_profile(basis.nodes)
    return float(np.sqrt(basis.weight * np.sum(L**2)))


def default_kernel(amplitude: float = 0.1) -> KernelSpec:
    """Demo kernel g(x,y,z) = amplitude sin(x) sin(y) tanh(z), profile
    L(x) = amplitude sin(x) (tanh is 1-Lipschitz)."""
    a = amplitude
    return KernelSpec(
        phi=np.sin,
        psi=lambda y, z: a * np.sin(y) * np.tanh(z),
        lipschitz_profile=lambda x: a * np.sin(x),
    )


def build_heat_problem(
    f=np.tanh,
    kernel: KernelSpec | None = None,
    params: HolderParams | None = None,
    n_modes: int = 16,
    m_phys: int = 256,
    L_F: float = 1.0,
) -> ProblemSpec:
    """Assemble the heat equation as a ProblemSpec for the mild solver; the
    time grid is the driver path's.

    Defaults: drift f = tanh (L_F = 1; c_F = 0, as f(0) = 0 for every CLI
    drift), the demo kernel above, trace weights q_i = 1/i^2.  The declared
    L_G is the quadrature value of the kernel's profile norm.
    """
    kernel = default_kernel() if kernel is None else kernel
    params = HolderParams() if params is None else params
    basis = SineBasis(n_modes=n_modes, m_phys=m_phys)
    op = laplacian_1d(n_modes=n_modes)
    L_G = lipschitz_norm(kernel, basis)
    return ProblemSpec(
        operator=op,
        drift=lambda u: nemytskii_apply(f, u, basis),
        diffusion=lambda u, v: kernel_apply(kernel, u, v, basis),
        params=params,
        L_F=L_F,
        L_G=L_G,
    )
