import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpn.algebra import (
    Channel,
    FactorPermutation,
    apply,
    channels_close,
    choi,
    effect,
    embed_operator,
    hermitize,
    is_cptni,
    kraus_compose,
    kraus_tensor,
    loewner_geq,
    min_eigenvalue,
    partial_trace,
)
from qpn.errors import BadPermutation, DimensionMismatch

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
        assert np.allclose(p.inverse().matrix() @ m, np.eye(m.shape[0]))

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

    def test_loewner_identity_dominates_half(self):
        assert loewner_geq(np.eye(3), 0.5 * np.eye(3))
        assert not loewner_geq(0.5 * np.eye(3), np.eye(3))


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

    def test_choi_of_unitary_is_rank_one(self):
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        c = choi(Channel.from_unitary(u))
        evs = np.linalg.eigvalsh(c)
        assert np.sum(evs > 1e-9) == 1

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


    def test_dimension_cap_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch, match="exceeds the supported maximum"):
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
