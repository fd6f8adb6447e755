"""Finite-dimensional complex linear algebra and quantum-channel primitives.

Channels are kept in Kraus form throughout, so every channel is
completely positive by construction (Choi 1975): validating one is the
trace non-increase check I - sum_k K^dagger K >= 0 alone.  All values are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadIndex, BadPermutation, BoundExceeded, DimensionMismatch, SignatureMismatch
from .outcome import CheckOutcome

# Absolute eigenvalue tolerance for positivity verdicts (double precision
# eigensolvers on dims <= 256).
TOL_PSD = 1e-9
# Hermiticity tolerance (max entry of |M - M^dagger|).
TOL_HERM = 1e-9
TOL_TNI_HERM = 1e-7  # the same for I - effect in the trace non-increase check
# Equality of operators (channels on the matrix units, drop effects): largest entry
# deviation, scaled by max(1, d) for their dimension d.
TOL_CHANNEL_EQ = 1e-10
# Hard cap on the total dimension of any single operator.
MAX_TOTAL_DIM = 4096
BATCH_ENTRIES = 1 << 16  # the most entries (1 MiB) in one batched call, unless one matrix


def _check_total_dim(n: int) -> None:
    if n > MAX_TOTAL_DIM:
        raise BoundExceeded(
            f"operator dimension {n} exceeds the supported maximum {MAX_TOTAL_DIM}"
        )


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={a.ndim}")
    return a


def is_hermitian(m: np.ndarray, tol: float = TOL_HERM) -> bool:
    m = as_matrix(m)
    return m.shape[0] == m.shape[1] and np.abs(m - m.conj().T).max(initial=0) <= tol


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


def min_eigenvalues(stack, tol: float = TOL_HERM) -> np.ndarray:
    """:func:`min_eigenvalue` of each matrix of a (k, n, n) stack, bit for bit,
    by one eigvalsh call; NaN for each matrix not Hermitian within tol."""
    s = np.asarray(stack, dtype=complex)
    if s.shape[1] == 0:
        return np.zeros(len(s))
    sh = s.conj().transpose(0, 2, 1)
    bad = ~(np.maximum.reduce(np.abs(s - sh), axis=(1, 2)) <= tol)
    h = (s + sh) / 2
    if bad.any():
        h[bad] = 0
    lo = np.minimum.reduce(np.linalg.eigvalsh(h), axis=1)
    lo[bad] = np.nan
    return lo


@dataclass(frozen=True)
class FactorPermutation:
    """Reordering of tensor factors.

    ``order[j] = i`` means output slot j carries input factor i; the induced
    matrix P satisfies P (v_0 x ... x v_{n-1}) = v_{order[0]} x ... x
    v_{order[n-1]}.  :meth:`permute` applies P by reshape and transpose;
    :meth:`matrix` builds P densely and is its reference.  The reduction
    that :meth:`permute` works on, ``_reduced`` = (n, dims, order) with the
    factors of dim 1 left out, is computed once, when the permutation is
    made: such factors move no entry, and leaving them out keeps the axis
    count within numpy's limit for markings with many of them.
    """

    dims: tuple
    order: tuple
    _reduced: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.dims))):
            raise BadPermutation(f"not a bijection on factor indices: {self.order}")
        n, dims, order = math.prod(self.dims), tuple(self.dims), tuple(self.order)
        _check_total_dim(n)
        if 1 in dims:
            big = [i for i, d in enumerate(dims) if d > 1]
            order = tuple([big.index(i) for i in order if dims[i] > 1])
            dims = tuple([dims[i] for i in big])
        object.__setattr__(self, "_reduced", (n, dims, order))

    @staticmethod
    def between(now, want, dim) -> "FactorPermutation":
        """The reordering that takes factors listed as ``now`` to the order
        listed as ``want``; ``dim`` maps a factor to its dimension."""
        return FactorPermutation(tuple(map(dim, now)), tuple(map(now.index, want)))

    @property
    def out_dims(self) -> tuple:
        return tuple(self.dims[i] for i in self.order)

    def permute(self, m, two_sided: bool = False) -> np.ndarray:
        """P·m, or P·m·P† if ``two_sided``, without building P.

        ``m`` has shape (..., n, k), or (..., n, n) if ``two_sided``, where n
        is the product of ``dims``; leading axes are a batch.
        """
        m = np.asarray(m, dtype=complex)
        n, dims, order = self._reduced
        if m.ndim < 2 or m.shape[-2] != n or (two_sided and m.shape[-1] != n):
            raise DimensionMismatch(
                f"operator shape {m.shape} does not match factor dims {self.dims}")
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


@dataclass(frozen=True)
class Channel:
    """A CPTNI-map candidate in Kraus form.

    ``kraus`` is given as a nonempty sequence of (dim_out x dim_in)
    matrices, or as one (k, dim_out, dim_in) array.  It is kept once, as
    the read-only array ``stack``; ``kraus`` becomes a tuple of views into
    it.  The Kraus list is never pruned or canonicalized; channel equality
    is always tested extensionally (see :func:`channels_close`).
    """

    dim_in: int
    dim_out: int
    kraus: tuple = field(default_factory=tuple)
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    # min-eig(I - effect), once `tni_min_eigenvalues` has solved it under
    # TOL_HERM: a singleton family's drop on its pre-places
    tni_min: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise DimensionMismatch("a channel needs at least one Kraus operator")
        _check_total_dim(max(self.dim_in, self.dim_out))
        want = (self.dim_out, self.dim_in)
        try:
            stack = np.asarray(self.kraus, dtype=complex)
        except ValueError:  # operators of unequal shapes
            stack = None
        if stack is self.kraus:  # the caller's array: share it, read-only here
            stack = stack.view()
        if stack is None or stack.shape[1:] != want:
            raise DimensionMismatch(
                f"Kraus operators do not all have shape {want}")
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "kraus", tuple(stack))

    @functools.cached_property
    def _effect(self) -> np.ndarray:
        out = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for k in self.kraus:
            out += k.conj().T @ k
        out.flags.writeable = False
        return out

    @staticmethod
    def identity(dim: int) -> "Channel":
        return Channel(dim, dim, (np.eye(dim, dtype=complex),))

    @staticmethod
    def from_unitary(u) -> "Channel":
        u = as_matrix(u)
        return Channel(u.shape[1], u.shape[0], (u,))

    def scaled(self, factor: float) -> "Channel":
        """Channel with every Kraus operator scaled by sqrt(factor)."""
        return Channel(self.dim_in, self.dim_out, np.sqrt(factor) * self.stack)


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


def apply_leading(f: Channel, rho) -> np.ndarray:
    """Sum_k (K⊗I) rho (K⊗I)† for rho whose leading factors are f's input,
    without building K⊗I: K acts on the row index by one batched matmul,
    then K̄ on the column index after one transpose."""
    rho = as_matrix(rho)
    n, rest = rho.shape[0], rho.shape[0] // f.dim_in
    if rho.shape != (n, n) or rest * f.dim_in != n:
        raise DimensionMismatch(
            f"state shape {rho.shape} does not lead with channel input dim {f.dim_in}")
    _check_total_dim(f.dim_out * rest)
    ks = f.stack
    rows = (ks @ rho.reshape(f.dim_in, -1)).reshape(len(ks), -1, f.dim_in, rest)
    cols = (ks.conj() @ rows.transpose(0, 2, 1, 3).reshape(len(ks), f.dim_in, -1)).sum(0)
    m = f.dim_out * rest
    return cols.reshape(f.dim_out, m, rest).transpose(1, 0, 2).reshape(m, m)


def compose_leading(f: Channel, kraus) -> np.ndarray:
    """Kraus stack of (f⊗id)∘g for g's stack (n, d, d_g) whose row index
    leads with f's input, as the (K⊗I)·G by one broadcast matmul."""
    ks = f.stack
    n, _, d_g = kraus.shape
    out = ks[:, None] @ kraus.reshape(n, f.dim_in, -1)[None]
    return out.reshape(len(ks) * n, -1, d_g)


def thread(wires, steps, out_wires, dim) -> Channel:
    """The channel of ``steps`` fired in order on the factors listed as
    ``wires``, as one Kraus stack grown from the identity.

    Each step (channel, consumed, produced) brings its consumed factors in
    front of the untouched rest and applies the channel to them; its
    produced factors then lead.  The factors left are permuted to
    ``out_wires``.  All factor orders are lists; ``dim`` maps a factor to
    its dimension.  The input dimension is checked against the cap before
    the identity is built.
    """
    n = math.prod(map(dim, wires))
    if n > MAX_TOTAL_DIM:
        raise BoundExceeded(f"interval space dimension {n} exceeds {MAX_TOTAL_DIM}")
    kraus = np.eye(n, dtype=complex)[None]
    for chan, consumed, produced in steps:
        rest = [w for w in wires if w not in consumed]
        perm = FactorPermutation.between(wires, consumed + rest, dim)
        kraus = compose_leading(chan, perm.permute(kraus))
        wires = produced + rest
    if len(wires) != len(out_wires) or set(wires) != set(out_wires):
        raise SignatureMismatch(f"factors {wires} do not close on {out_wires}")
    kraus = FactorPermutation.between(wires, out_wires, dim).permute(kraus)
    _, dout, din = kraus.shape
    return Channel(din, dout, kraus)


def effect(f: Channel) -> np.ndarray:
    """The effect operator sum_k K^dagger K; tr(f(rho)) = tr(effect . rho).
    Computed once per channel and read-only."""
    return f._effect


def fill_effects(chans) -> None:
    """Form the effect of each channel of ``chans`` that has none yet: per
    Kraus stack shape, one batched product K_j^dagger K_j for each Kraus
    index j, added from zero in Kraus order, bit for bit the loop of
    ``Channel._effect`` (``sum`` over a Kraus axis is not: it may add in
    another order).  One index at a time keeps the work space that of the
    effects, however long the Kraus lists."""
    groups = {}
    for f in chans:
        if "_effect" not in f.__dict__:
            groups.setdefault(f.stack.shape, []).append(f)
    for (k, _, d), group in groups.items():
        s = np.array([f.stack for f in group])
        sh = s.conj().swapaxes(-1, -2)
        effs = np.zeros((len(group), d, d), dtype=complex)
        for j in range(k):
            effs += sh[:, j] @ s[:, j]
        effs.flags.writeable = False
        for f, e in zip(group, effs):
            f.__dict__["_effect"] = e


def tni_min_eigenvalues(chans) -> np.ndarray:
    """min-eig(I - effect) of each channel, bit for bit :func:`is_cptni`'s
    value (NaN where I - effect is not Hermitian within TOL_TNI_HERM), by
    one batched solve per input dimension under the drop stage's guard,
    TOL_HERM, whose values are kept as the channels' ``tni_min``; a second
    solve under TOL_TNI_HERM takes the matrices that fail it."""
    fill_effects(chans)
    groups, lows = {}, np.empty(len(chans))
    for i, f in enumerate(chans):
        groups.setdefault(f.dim_in, []).append(i)
    for d, idx in groups.items():
        ops = np.eye(d, dtype=complex) - [effect(chans[i]) for i in idx]
        lo = min_eigenvalues(ops)
        for i, v in zip(idx, lo):
            if v == v:
                object.__setattr__(chans[i], "tni_min", float(v))
        if (skewed := np.isnan(lo)).any():
            lo[skewed] = min_eigenvalues(ops[skewed], TOL_TNI_HERM)
        lows[idx] = lo
    return lows


def partial_trace(m, dims, traced) -> np.ndarray:
    """Partial trace over the selected factors; remaining order preserved."""
    m = as_matrix(m)
    dims = [int(d) for d in dims]
    n = math.prod(dims)
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
        arr = arr.trace(axis1=t, axis2=t + len(cur))
        del cur[t]
    rem = math.prod(cur)
    return arr.reshape(rem, rem)


def is_cptni(f: Channel) -> CheckOutcome:
    """Verdict on trace non-increase: min-eig(I - effect) >= -TOL_PSD.

    A Kraus-form channel is completely positive by construction, so this
    is the whole CPTNI verdict; the outcome carries the eigenvalue for
    caller-side re-judging.
    """
    tni_min = min_eigenvalue(np.eye(f.dim_in, dtype=complex) - effect(f), TOL_TNI_HERM)
    passed = tni_min >= -TOL_PSD
    return CheckOutcome(passed, "" if passed else "trace increasing",
                        {"tni_min_eig": tni_min})


def embed_operator(op, factor_dims, positions) -> np.ndarray:
    """Embed a local operator acting on ``positions`` into the full space.

    ``op`` is a square matrix on the tensor of factor_dims[positions] taken
    in the order given; identity everywhere else.
    """
    op = as_matrix(op)
    positions = list(positions)
    dims = tuple(int(d) for d in factor_dims)
    rest = [i for i in range(len(dims)) if i not in positions]
    front = positions + rest  # a bijection only if positions are distinct indices
    back = FactorPermutation.between(front, range(len(dims)), dict(enumerate(dims)).get)
    local_dim = math.prod(dims[i] for i in positions)
    if op.shape != (local_dim, local_dim):
        raise DimensionMismatch(
            f"local operator shape {op.shape} does not match factors {positions}"
        )
    rest_dim = math.prod(dims[i] for i in rest)
    return back.permute(_kron(op, np.eye(rest_dim, dtype=complex)), two_sided=True)


def _kron(a, b) -> np.ndarray:
    """np.kron(a, b) for matrices, the same bytes by one broadcast product:
    np.kron's shape handling costs more than the product on a few dims."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def channels_close(f: Channel, g: Channel, tol: float = TOL_CHANNEL_EQ) -> CheckOutcome:
    """Extensional equality on the matrix-unit basis of the input space."""
    if f.dim_in != g.dim_in or f.dim_out != g.dim_out:
        return CheckOutcome.fail(
            f"signature mismatch: ({f.dim_in}->{f.dim_out}) vs ({g.dim_in}->{g.dim_out})"
        )
    d = f.dim_in
    devs = []  # folded by np.max, which propagates a NaN deviation
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            devs.append(np.abs(apply(f, unit) - apply(g, unit)).max())
    dev = float(np.max(devs, initial=0.0))
    return CheckOutcome(dev <= tol * max(1, d), "" if dev <= tol * max(1, d)
                        else f"channels differ by {dev:.3e}", {"max_deviation": dev})


def identity_deviation(f: Channel) -> float:
    """The largest entry of |C_f - C_id| for the Choi tensor (Choi 1975)
    C[i, a, j, b] = Σ_k K_k[a, i]·conj(K_k[b, j]), entry (a, b) of f applied
    to |i><j|: what `channels_close` reads against the identity from d²
    `apply` calls, by one einsum per block of input indices i (at most
    BATCH_ENTRIES entries).  f is square; a NaN entry gives NaN."""
    ks, d = f.stack, f.dim_in
    step = max(1, BATCH_ENTRIES // d ** 3)
    devs = []
    for i in range(0, d, step):
        c = np.einsum("kai,kbj->iajb", ks[:, :, i:i + step], ks.conj())
        n = np.arange(len(c))
        c[n, n + i] -= np.eye(d)  # the identity's Choi tensor: a = i, b = j
        devs.append(np.abs(c).max())
    return float(np.max(devs))
