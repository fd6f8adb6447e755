import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpn.algebra import (
    TOL_HERM,
    TOL_PSD,
    Channel,
    FactorPermutation,
    apply,
    apply_leading,
    channels_close,
    compose_leading,
    effect,
    embed_operator,
    hermitize,
    is_cptni,
    is_hermitian,
    kraus_compose,
    kraus_tensor,
    min_eigenvalue,
    min_eigenvalues,
    partial_trace,
    thread,
)
from qpn import algebra
from qpn.errors import BadPermutation, BoundExceeded, DimensionMismatch, SignatureMismatch

rng = np.random.default_rng(42)


def rand_state(d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestFactorPermutation:
    def test_identity_order_gives_identity_matrix(self):
        p = FactorPermutation((2, 3), (0, 1))
        assert np.allclose(p.matrix(), np.eye(6))

    def test_swap_acts_on_kron_vectors(self):
        p = FactorPermutation((2, 3), (1, 0))
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert np.allclose(p.matrix() @ np.kron(u, v), np.kron(v, u))

    def test_empty_dims_is_scalar_identity(self):
        assert np.allclose(FactorPermutation((), ()).matrix(), [[1.0]])

    def test_rejects_non_bijection(self):
        with pytest.raises(BadPermutation):
            FactorPermutation((2, 2), (0, 0))

    @given(st.permutations(range(4)))
    @settings(max_examples=25, deadline=None)
    def test_matrix_is_unitary_and_inverse_composes(self, order):
        dims = (2, 1, 3, 2)
        p = FactorPermutation(dims, tuple(order))
        m = p.matrix()
        assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]))
        back = FactorPermutation.between(list(order), range(4), dims.__getitem__)
        assert np.allclose(back.matrix() @ m, np.eye(m.shape[0]))

    def test_one_reduction_serves_every_input_form(self):
        """One permutation with dim-1 factors, used in turn one-sided,
        two-sided and on batches of rank 3 and 4, matches its matrix each
        time, and using it leaves its equality and hash alone."""
        p, twin = (FactorPermutation((2, 1, 3, 1, 2), (4, 1, 0, 3, 2)) for _ in range(2))
        u = p.matrix()
        for shape, two_sided in [((12, 5), False), ((12, 12), True), ((3, 12, 12), True),
                                 ((2, 3, 12, 4), False), ((2, 3, 12, 12), True)]:
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            want = u @ m @ u.conj().T if two_sided else u @ m
            np.testing.assert_allclose(p.permute(m, two_sided), want, rtol=0, atol=1e-12)
        for shape, two_sided in [((6, 6), False), ((12, 5), True), ((12,), False)]:
            with pytest.raises(DimensionMismatch) as err:
                p.permute(np.zeros(shape), two_sided)
            assert str(err.value) == (f"operator shape {shape} does not match "
                                      "factor dims (2, 1, 3, 1, 2)")
        assert p == twin and hash(p) == hash(twin) and {p: 1}[twin] == 1

    def test_three_factor_cycle_on_vectors(self):
        dims = (2, 3, 2)
        vs = [rng.normal(size=d) for d in dims]
        p = FactorPermutation(dims, (2, 0, 1))
        want = np.kron(vs[2], np.kron(vs[0], vs[1]))
        got = p.matrix() @ np.kron(vs[0], np.kron(vs[1], vs[2]))
        assert np.allclose(got, want)


@st.composite
def reorderings(draw):
    """A factor permutation, an operator for it, and the kernel's form."""
    dims = tuple(draw(st.lists(st.integers(1, 4), max_size=5)))
    order = tuple(draw(st.permutations(range(len(dims)))))
    two_sided = draw(st.booleans())
    batch = draw(st.sampled_from([(), (3,)]))
    n = math.prod(dims)
    cols = n if two_sided else draw(st.integers(1, 3))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = r.normal(size=batch + (n, cols)) + 1j * r.normal(size=batch + (n, cols))
    return FactorPermutation(dims, order), m, two_sided


class TestPermuteKernel:
    @given(reorderings())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_dense_permutation_matrix(self, case):
        p, m, two_sided = case
        u = p.matrix()
        want = u @ m @ u.conj().T if two_sided else u @ m
        np.testing.assert_allclose(p.permute(m, two_sided), want, rtol=0, atol=1e-12)

    def test_many_unit_factors(self):
        # more axes than numpy allows, were every dim-1 factor kept
        dims = (1,) * 40 + (2, 3)
        m = rng.normal(size=(6, 6))
        p = FactorPermutation(dims, tuple(reversed(range(42))))
        u = FactorPermutation((2, 3), (1, 0)).matrix()
        assert np.allclose(p.permute(m, two_sided=True), u @ m @ u.T)

    def test_rejects_wrong_operator_shape(self):
        with pytest.raises(DimensionMismatch):
            FactorPermutation((2, 3), (1, 0)).permute(np.eye(5))


class TestHermitian:
    def test_hermitize_rejects_non_hermitian(self):
        with pytest.raises(DimensionMismatch):
            hermitize(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_min_eigenvalue_of_diag(self):
        assert min_eigenvalue(np.diag([3.0, -0.5, 1.0])) == pytest.approx(-0.5)

    def test_empty_operator_has_least_eigenvalue_zero(self):
        assert is_hermitian(np.zeros((0, 0)))
        assert min_eigenvalue(np.zeros((0, 0))) == 0.0
        assert min_eigenvalues(np.zeros((3, 0, 0))).tolist() == [0.0] * 3
        assert min_eigenvalues(np.zeros((0, 0, 0))).tolist() == []


def _hermitian_stack(r, k, n, skew):
    """k Hermitian n x n matrices, each plus an anti-Hermitian part whose
    largest entry is about ``skew`` (round-off, or worse)."""
    a = r.normal(size=(k, n, n)) + 1j * r.normal(size=(k, n, n))
    b = r.normal(size=(k, n, n)) + 1j * r.normal(size=(k, n, n))
    b = b - b.conj().transpose(0, 2, 1)
    b *= skew / np.abs(b).max(axis=(1, 2))[:, None, None]
    return a + a.conj().transpose(0, 2, 1) + b


class TestMinEigenvalues:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_each_matrix_as_min_eigenvalue_reads_it(self, n):
        r = np.random.default_rng(n)
        for k in (1, 2, 7, 40):
            stack = _hermitian_stack(r, k, n, TOL_HERM / 10)
            got = min_eigenvalues(stack)
            assert got.shape == (k,)
            assert [float(x).hex() for x in got] == [min_eigenvalue(m).hex() for m in stack]

    def test_a_matrix_beyond_the_tolerance_raises_where_the_scan_meets_it(self):
        """NaN marks each matrix min_eigenvalue refuses; a scan that asks
        min_eigenvalue about NaN alone stops at the same matrix with the
        same error, after the same values."""
        r = np.random.default_rng(3)
        stack = _hermitian_stack(r, 9, 4, TOL_HERM / 10)
        stack[[4, 7]] = _hermitian_stack(r, 2, 4, 10 * TOL_HERM)
        stack[6, 0, 1] = np.nan
        lows = min_eigenvalues(stack)
        assert np.flatnonzero(np.isnan(lows)).tolist() == [4, 6, 7]

        def scan(read):
            seen = []
            with pytest.raises(DimensionMismatch) as err:
                for m, lo in zip(stack, lows):
                    seen.append(read(m, lo).hex())
            return seen, str(err.value)

        assert scan(lambda m, lo: min_eigenvalue(m)) == \
            scan(lambda m, lo: float(lo) if lo == lo else min_eigenvalue(m))
        assert scan(lambda m, lo: min_eigenvalue(m))[1] == \
            "matrix is not Hermitian within tolerance"


class TestChannel:
    def test_kraus_shape_validated(self):
        with pytest.raises(DimensionMismatch):
            Channel(2, 3, (np.eye(2),))

    def test_apply_and_effect_of_identity(self):
        f = Channel.identity(3)
        rho = rand_state(3)
        assert np.allclose(apply(f, rho), rho)
        assert np.allclose(effect(f), np.eye(3))

    def test_effect_traces_the_application(self):
        f = Channel(2, 4, (rng.normal(size=(4, 2)) * 0.4,
                           rng.normal(size=(4, 2)) * 0.3))
        rho = rand_state(2)
        assert np.trace(apply(f, rho)) == pytest.approx(
            np.trace(effect(f) @ rho))

    def test_kraus_of_unequal_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            Channel(2, 2, (np.eye(2), np.eye(3)))
        with pytest.raises(DimensionMismatch):
            Channel(2, 2, np.eye(2))  # one matrix, not a sequence of them

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_effect_is_the_sum_of_kraus_products(self, d_in, d_out, n_kraus, as_stack,
                                                 seed):
        r = np.random.default_rng(seed)
        ks = r.normal(size=(n_kraus, d_out, d_in)) + 1j * r.normal(size=(n_kraus, d_out, d_in))
        f = Channel(d_in, d_out, ks if as_stack else tuple(ks))
        np.testing.assert_allclose(effect(f), sum(k.conj().T @ k for k in ks),
                                   rtol=1e-12, atol=1e-12)
        assert effect(f) is effect(f)
        assert f.stack.shape == (n_kraus, d_out, d_in)
        assert all(np.shares_memory(k, f.stack) for k in f.kraus)

    def test_stored_operators_are_read_only(self):
        f = Channel(2, 3, (rng.normal(size=(3, 2)), rng.normal(size=(3, 2))))
        for arr in (f.stack, f.kraus[1], effect(f)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    def test_scaled_halves_the_effect(self):
        f = Channel.identity(2).scaled(0.5)
        assert np.allclose(effect(f), 0.5 * np.eye(2))

    def test_compose_matches_sequential_application(self):
        f = Channel(2, 3, (rng.normal(size=(3, 2)) * 0.5,))
        g = Channel(3, 2, (rng.normal(size=(2, 3)) * 0.5,))
        rho = rand_state(2)
        assert np.allclose(apply(kraus_compose(g, f), rho),
                           apply(g, apply(f, rho)))

    def test_tensor_matches_kron_application(self):
        f, g = Channel.identity(2).scaled(0.7), Channel.identity(3).scaled(0.2)
        rho, sig = rand_state(2), rand_state(3)
        assert np.allclose(apply(kraus_tensor(f, g), np.kron(rho, sig)),
                           0.7 * 0.2 * np.kron(rho, sig))


class TestLeadingKernels:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 8),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_match_kron_by_identity(self, d_in, d_out, rest, n_kraus, seed):
        r = np.random.default_rng(seed)
        ks = r.normal(size=(n_kraus, d_out, d_in)) + 1j * r.normal(size=(n_kraus, d_out, d_in))
        f = Channel(d_in, d_out, tuple(ks))
        n = d_in * rest
        rho = r.normal(size=(n, n)) + 1j * r.normal(size=(n, n))  # not Hermitian
        lifted = [np.kron(k, np.eye(rest)) for k in ks]
        np.testing.assert_allclose(apply_leading(f, rho),
                                   sum(k @ rho @ k.conj().T for k in lifted),
                                   rtol=1e-12, atol=1e-12)
        g = r.normal(size=(2, n, 3)) + 1j * r.normal(size=(2, n, 3))
        np.testing.assert_allclose(compose_leading(f, g),
                                   np.stack([k @ x for k in lifted for x in g]),
                                   rtol=1e-12, atol=1e-12)

    def test_rejects_a_state_that_does_not_lead_with_the_input(self):
        with pytest.raises(DimensionMismatch):
            apply_leading(Channel.identity(2), np.eye(3))
        with pytest.raises(DimensionMismatch):
            apply_leading(Channel.identity(2), np.ones((4, 2)))

    def test_output_past_the_cap_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceeded, match="exceeds the supported maximum"):
                # a 64-dim output beside 128 untouched dims is 8192-dim
                apply_leading(Channel(1, 64, (np.ones((64, 1)),)), np.eye(128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_thread_rejects_output_factors_it_does_not_leave(self):
        dims = {"x": 2, "y": 3, "z": 2}
        steps = [(Channel(2, 3, (np.eye(3, 2),)), ["x"], ["y"])]
        assert thread(["x", "z"], steps, ["z", "y"], dims.get).dim_out == 6
        with pytest.raises(SignatureMismatch):
            thread(["x", "z"], steps, ["x", "z"], dims.get)


class TestCptni:
    def test_identity_is_cptni(self):
        out = is_cptni(Channel.identity(4))
        assert out
        assert out.data["tni_min_eig"] == pytest.approx(0.0, abs=1e-12)

    def test_trace_increasing_fails(self):
        f = Channel(2, 2, (np.sqrt(2) * np.eye(2),))
        out = is_cptni(f)
        assert not out
        assert "trace increasing" in out.reason

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 1e6])
    def test_kraus_form_is_cp_and_verdict_is_trace_non_increase(self, scale):
        # a Kraus list's Choi matrix sum_k vec(K) vec(K)^dagger is PSD by
        # construction, so the verdict rests on I - sum_k K^dagger K alone
        r = np.random.default_rng(int(scale * 10))
        for _ in range(40):
            n, din, dout = (int(x) for x in r.integers(1, [7, 9, 9]))
            ks = r.normal(size=(n, dout, din)) + 1j * r.normal(size=(n, dout, din))
            e = np.einsum("kij,kil->jl", ks.conj(), ks)
            ks *= np.sqrt(scale / np.linalg.eigvalsh(e).max())
            vecs = ks.reshape(n, -1)
            c = vecs.T @ vecs.conj()
            assert np.linalg.eigvalsh(c).min() >= -1e-12 * max(1, np.linalg.norm(c, 2))
            f = Channel(din, dout, ks)
            tni = np.linalg.eigvalsh(np.eye(din) - effect(f)).min()
            out = is_cptni(f)
            assert bool(out) == (tni >= -TOL_PSD)
            assert out.reason == ("" if out else "trace increasing")

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_contractions_pass(self, seed):
        r = np.random.default_rng(seed)
        k1 = r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3))
        k2 = r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3))
        s = k1.conj().T @ k1 + k2.conj().T @ k2
        norm = np.sqrt(np.linalg.eigvalsh(s).max())
        f = Channel(3, 3, (k1 / norm, k2 / norm))
        assert is_cptni(f)


class TestPartialTrace:
    def test_traces_product_state_factor(self):
        rho, sig = rand_state(2), rand_state(3)
        assert np.allclose(partial_trace(np.kron(rho, sig), [2, 3], [1]), rho)
        assert np.allclose(partial_trace(np.kron(rho, sig), [2, 3], [0]), sig)

    def test_trace_of_everything_is_scalar_trace(self):
        m = rand_state(6)
        out = partial_trace(m, [2, 3], [0, 1])
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(np.trace(m))

    def test_middle_factor(self):
        a, b, c = rand_state(2), rand_state(2), rand_state(2)
        full = np.kron(a, np.kron(b, c))
        assert np.allclose(partial_trace(full, [2, 2, 2], [1]), np.kron(a, c))


class TestEmbedding:
    def test_embed_on_leading_factors_is_kron(self):
        op = rng.normal(size=(2, 2))
        assert np.allclose(embed_operator(op, [2, 3], [0]),
                           np.kron(op, np.eye(3)))

    def test_embed_on_trailing_factor(self):
        op = rng.normal(size=(3, 3))
        assert np.allclose(embed_operator(op, [2, 3], [1]),
                           np.kron(np.eye(2), op))

    def test_disjoint_embeddings_commute(self):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ea = embed_operator(a, [2, 2, 3], [0])
        eb = embed_operator(b, [2, 2, 3], [2])
        assert np.allclose(ea @ eb, eb @ ea)
        assert np.allclose(ea @ eb, np.kron(a, np.kron(np.eye(2), b)))


    @pytest.mark.parametrize("dims, positions", [
        ((2, 3), [0]), ((2, 3), [1]), ((2, 1, 3), [1]), ((3, 2, 2), [2, 0]),
        ((2, 1, 3, 2), [3, 1]), ((1, 1), [1]), ((2, 3, 2), [2, 1, 0]), ((4,), [0])])
    def test_embedding_is_the_kron_and_permutation_construction(self, dims, positions):
        """Byte for byte what np.kron and the inverse of the permutation
        that brings ``positions`` to the front gave before."""
        rest = [i for i in range(len(dims)) if i not in positions]
        front = FactorPermutation(dims, tuple(positions + rest))
        inv = [0] * len(dims)
        for j, i in enumerate(front.order):
            inv[i] = j
        back = FactorPermutation(front.out_dims, tuple(inv))
        n = math.prod(dims[i] for i in positions)
        op = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        want = back.permute(np.kron(op, np.eye(math.prod(dims[i] for i in rest))),
                            two_sided=True)
        assert embed_operator(op, dims, positions).tobytes() == want.tobytes()

    @pytest.mark.parametrize("positions", [[2], [0, 0], [-1]])
    def test_embedding_rejects_positions_that_are_no_factors(self, positions):
        with pytest.raises(BadPermutation):
            embed_operator(np.eye(2 ** len(positions)), [2, 2], positions)

    def test_dimension_cap_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceeded, match="exceeds the supported maximum"):
                embed_operator(np.eye(2), [2] * 13, [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the 8192-dim operator would take 1 GiB


class TestChannelsClose:
    def test_same_channel_different_kraus_presentations(self):
        # identity split into two half-weight copies
        f = Channel.identity(2)
        g = Channel(2, 2, (np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)))
        assert channels_close(f, g)

    def test_detects_difference(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert not channels_close(Channel.identity(2), Channel.from_unitary(x))


def test_environment_join_is_np_kron():
    """The broadcast product behind `embed_operator` and the sampler's
    environment join gives np.kron's bytes."""
    r = np.random.default_rng(4)
    for shape_a, shape_b in [((1, 1), (2, 2)), ((4, 4), (3, 3)), ((8, 8), (2, 2)),
                             ((2, 2), (3, 2))]:
        a, b = (r.normal(size=s) + 1j * r.normal(size=s) for s in (shape_a, shape_b))
        got, want = algebra._kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
