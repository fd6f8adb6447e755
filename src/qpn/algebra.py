"""Finite-dimensional complex linear algebra and quantum-channel primitives.

Channels are kept in Kraus form throughout; the Choi matrix is only built
on demand for complete-positivity validation.  All values are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadIndex, BadPermutation, DimensionMismatch
from .outcome import CheckOutcome

# Absolute eigenvalue tolerance for positivity verdicts (double precision
# eigensolvers on dims <= 256).
TOL_PSD = 1e-9
# Hermiticity tolerance (max entry of |M - M^dagger|).
TOL_HERM = 1e-9
# Hard cap on the total dimension of any single operator.
MAX_TOTAL_DIM = 4096


def _check_total_dim(n: int) -> None:
    if n > MAX_TOTAL_DIM:
        raise DimensionMismatch(
            f"operator dimension {n} exceeds the supported maximum {MAX_TOTAL_DIM}"
        )


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={a.ndim}")
    return a


def is_hermitian(m: np.ndarray, tol: float = TOL_HERM) -> bool:
    m = as_matrix(m)
    return m.shape[0] == m.shape[1] and np.abs(m - m.conj().T).max() <= tol


def hermitize(m: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Symmetrize (M + M^dagger)/2 after asserting Hermiticity within tol."""
    m = as_matrix(m)
    if not is_hermitian(m, tol):
        raise DimensionMismatch("matrix is not Hermitian within tolerance")
    return (m + m.conj().T) / 2


def min_eigenvalue(m: np.ndarray, tol: float = TOL_HERM) -> float:
    """Smallest eigenvalue of a Hermitian matrix (symmetrized first)."""
    h = hermitize(m, tol)
    if h.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(h).min())


def tensor(a, b) -> np.ndarray:
    """Kronecker product; the matrix form of every tensor in this library."""
    return np.kron(as_matrix(a), as_matrix(b))


@dataclass(frozen=True)
class FactorPermutation:
    """Reordering of tensor factors.

    ``order[j] = i`` means output slot j carries input factor i; the induced
    matrix P satisfies P (v_0 x ... x v_{n-1}) = v_{order[0]} x ... x
    v_{order[n-1]}.  :meth:`permute` applies P by reshape and transpose;
    :meth:`matrix` builds P densely and is its reference.
    """

    dims: tuple
    order: tuple

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.dims))):
            raise BadPermutation(f"not a bijection on factor indices: {self.order}")
        _check_total_dim(math.prod(self.dims))

    @staticmethod
    def between(now, want, dim) -> "FactorPermutation":
        """The reordering that takes factors listed as ``now`` to the order
        listed as ``want``; ``dim`` maps a factor to its dimension."""
        return FactorPermutation(tuple(dim(x) for x in now),
                                 tuple(now.index(x) for x in want))

    @property
    def out_dims(self) -> tuple:
        return tuple(self.dims[i] for i in self.order)

    def permute(self, m, two_sided: bool = False) -> np.ndarray:
        """P·m, or P·m·P† if ``two_sided``, without building P.

        ``m`` has shape (..., n, k), or (..., n, n) if ``two_sided``, where n
        is the product of ``dims``; leading axes are a batch.
        """
        m = np.asarray(m, dtype=complex)
        n = math.prod(self.dims)
        if m.ndim < 2 or m.shape[-2] != n or (two_sided and m.shape[-1] != n):
            raise DimensionMismatch(
                f"operator shape {m.shape} does not match factor dims {self.dims}")
        # Factors of dim 1 do not move any entry; leaving them out keeps the
        # axis count within numpy's limit for markings with many of them.
        big = [i for i, d in enumerate(self.dims) if d > 1]
        rank = {i: r for r, i in enumerate(big)}
        dims = tuple(self.dims[i] for i in big)
        order = [rank[i] for i in self.order if i in rank]
        b, k = m.ndim - 2, len(dims)
        axes = list(range(b)) + [b + i for i in order]
        if two_sided:
            shape = m.shape[:b] + dims + dims
            axes += [b + k + i for i in order]
        else:
            shape = m.shape[:b] + dims + m.shape[-1:]
            axes.append(b + k)
        return m.reshape(shape).transpose(axes).reshape(m.shape)

    def matrix(self) -> np.ndarray:
        n = int(np.prod(self.dims)) if self.dims else 1
        p = np.zeros((n, n), dtype=complex)
        if n == 0:
            return p
        cols = np.arange(n)
        multi = np.unravel_index(cols, self.dims) if self.dims else ()
        if self.dims:
            rows = np.ravel_multi_index(
                tuple(multi[i] for i in self.order), self.out_dims
            )
        else:
            rows = cols
        p[rows, cols] = 1
        return p

    def inverse(self) -> "FactorPermutation":
        inv = [0] * len(self.order)
        for j, i in enumerate(self.order):
            inv[i] = j
        return FactorPermutation(self.out_dims, tuple(inv))


@dataclass(frozen=True)
class Channel:
    """A CPTNI-map candidate in Kraus form.

    ``kraus`` is a nonempty tuple of (dim_out x dim_in) matrices.  The Kraus
    list is never pruned or canonicalized; channel equality is always tested
    extensionally (see :func:`channels_close`).
    """

    dim_in: int
    dim_out: int
    kraus: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.kraus:
            raise DimensionMismatch("a channel needs at least one Kraus operator")
        _check_total_dim(max(self.dim_in, self.dim_out))
        ks = tuple(as_matrix(k) for k in self.kraus)
        for k in ks:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatch(
                    f"Kraus operator shape {k.shape} does not match "
                    f"({self.dim_out}, {self.dim_in})"
                )
        object.__setattr__(self, "kraus", ks)

    @staticmethod
    def identity(dim: int) -> "Channel":
        return Channel(dim, dim, (np.eye(dim, dtype=complex),))

    @staticmethod
    def from_unitary(u) -> "Channel":
        u = as_matrix(u)
        return Channel(u.shape[1], u.shape[0], (u,))

    def scaled(self, factor: float) -> "Channel":
        """Channel with every Kraus operator scaled by sqrt(factor)."""
        s = np.sqrt(factor)
        return Channel(self.dim_in, self.dim_out, tuple(s * k for k in self.kraus))


def apply(f: Channel, rho) -> np.ndarray:
    """Apply the channel: sum_k K rho K^dagger."""
    rho = as_matrix(rho)
    if rho.shape != (f.dim_in, f.dim_in):
        raise DimensionMismatch(
            f"state shape {rho.shape} does not match channel input dim {f.dim_in}"
        )
    out = np.zeros((f.dim_out, f.dim_out), dtype=complex)
    for k in f.kraus:
        out += k @ rho @ k.conj().T
    return out


def effect(f: Channel) -> np.ndarray:
    """The effect operator sum_k K^dagger K; tr(f(rho)) = tr(effect . rho)."""
    out = np.zeros((f.dim_in, f.dim_in), dtype=complex)
    for k in f.kraus:
        out += k.conj().T @ k
    return out


def choi(f: Channel) -> np.ndarray:
    """Choi matrix sum_k vec(K) vec(K)^dagger; PSD iff f is completely positive."""
    n = f.dim_in * f.dim_out
    _check_total_dim(n)
    out = np.zeros((n, n), dtype=complex)
    for k in f.kraus:
        v = k.reshape(-1, 1)
        out += v @ v.conj().T
    return out


def kraus_compose(g: Channel, f: Channel) -> Channel:
    """Sequential composition g after f, as the Kraus set {G_j K_i}."""
    if f.dim_out != g.dim_in:
        raise DimensionMismatch(
            f"cannot compose: inner dims {f.dim_out} != {g.dim_in}"
        )
    ks = tuple(gj @ ki for gj in g.kraus for ki in f.kraus)
    return Channel(f.dim_in, g.dim_out, ks)


def kraus_tensor(f: Channel, g: Channel) -> Channel:
    """Parallel composition, Kraus set {K_i x G_j}."""
    _check_total_dim(f.dim_in * g.dim_in)
    _check_total_dim(f.dim_out * g.dim_out)
    ks = tuple(np.kron(ki, gj) for ki in f.kraus for gj in g.kraus)
    return Channel(f.dim_in * g.dim_in, f.dim_out * g.dim_out, ks)


def partial_trace(m, dims, traced) -> np.ndarray:
    """Partial trace over the selected factors; remaining order preserved."""
    m = as_matrix(m)
    dims = [int(d) for d in dims]
    n = int(np.prod(dims)) if dims else 1
    if m.shape != (n, n):
        raise DimensionMismatch(
            f"matrix shape {m.shape} does not match factor dims {dims}"
        )
    traced = sorted(set(traced))
    for t in traced:
        if not 0 <= t < len(dims):
            raise BadIndex(f"traced factor index {t} out of range")
    arr = m.reshape(tuple(dims) * 2) if dims else m.reshape(1, 1)
    cur = list(dims)
    for t in reversed(traced):
        arr = np.trace(arr, axis1=t, axis2=t + len(cur))
        del cur[t]
    rem = int(np.prod(cur)) if cur else 1
    return arr.reshape(rem, rem)


def is_cptni(f: Channel, tol_psd: float = TOL_PSD) -> CheckOutcome:
    """Verdict on complete positivity and trace non-increase.

    Passes iff min-eig(Choi) >= -tol and min-eig(I - effect) >= -tol; the
    outcome carries both eigenvalues for caller-side re-judging.
    """
    choi_min = min_eigenvalue(choi(f), tol=1e-7)
    tni = np.eye(f.dim_in, dtype=complex) - effect(f)
    tni_min = min_eigenvalue(tni, tol=1e-7)
    passed = choi_min >= -tol_psd and tni_min >= -tol_psd
    reason = "" if passed else (
        "not completely positive" if choi_min < -tol_psd else "trace increasing"
    )
    return CheckOutcome(passed, reason, {"choi_min_eig": choi_min, "tni_min_eig": tni_min})


def loewner_geq(a, b, tol_psd: float = TOL_PSD) -> CheckOutcome:
    """Verdict on a >= b in the Loewner order; reports min-eig(a - b)."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incomparable shapes {a.shape} and {b.shape}")
    ev = min_eigenvalue(a - b, tol=1e-7)
    return CheckOutcome(ev >= -tol_psd, "" if ev >= -tol_psd else "not Loewner-positive",
                        {"min_eig": ev})


def embed_operator(op, factor_dims, positions) -> np.ndarray:
    """Embed a local operator acting on ``positions`` into the full space.

    ``op`` is a square matrix on the tensor of factor_dims[positions] taken
    in the order given; identity everywhere else.
    """
    op = as_matrix(op)
    positions = list(positions)
    dims = tuple(int(d) for d in factor_dims)
    rest = [i for i in range(len(dims)) if i not in positions]
    front = FactorPermutation(dims, tuple(positions + rest))
    local_dim = math.prod(dims[i] for i in positions)
    if op.shape != (local_dim, local_dim):
        raise DimensionMismatch(
            f"local operator shape {op.shape} does not match factors {positions}"
        )
    rest_dim = math.prod(dims[i] for i in rest)
    full = np.kron(op, np.eye(rest_dim, dtype=complex))
    return front.inverse().permute(full, two_sided=True)


def channels_close(f: Channel, g: Channel, tol: float = 1e-10) -> CheckOutcome:
    """Extensional equality on the matrix-unit basis of the input space."""
    if f.dim_in != g.dim_in or f.dim_out != g.dim_out:
        return CheckOutcome.fail(
            f"signature mismatch: ({f.dim_in}->{f.dim_out}) vs ({g.dim_in}->{g.dim_out})"
        )
    d = f.dim_in
    dev = 0.0
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            dev = max(dev, float(np.abs(apply(f, unit) - apply(g, unit)).max()))
    return CheckOutcome(dev <= tol * max(1, d), "" if dev <= tol * max(1, d)
                        else f"channels differ by {dev:.3e}", {"max_deviation": dev})

