"""Each input check of the library, reached once: the exception it raises
and its full text, or the reason of the failing outcome it returns."""

import numpy as np
import pytest

from qpn import algebra
from qpn.algebra import Channel, FactorPermutation
from qpn.annotation import GlobalValuation, LocalAnnotation, validate_signatures
from qpn.checker import drop_effect
from qpn.compose import AnnotatedNet, single_join
from qpn.demo import branching_demo
from qpn.errors import (
    BadIndex,
    DimensionMismatch,
    IncompatibleExtension,
    NotEnabled,
    QpnError,
)
from qpn.nets import Net
from qpn.semantics import sub_probability_check
from qpn.unfolding import UnfoldBudget


def _pair(p_pre, n_pre, extra=()):
    """A positive event p and a negative event n, each with signal
    dimension 2, taking a token from the given places to a place of their
    own; ``extra`` places stand by."""
    places = {"a", "b", "u", "v", *extra}
    flow = {(p_pre, "p"), ("p", "u"), (n_pre, "n"), ("n", "v")}
    net = Net(places, {"p", "n"}, flow, {"a", "b"}, {"p": "+", "n": "-"})
    ann = LocalAnnotation(dict.fromkeys(places, 2),
                          {"p": Channel(2, 4, np.zeros((1, 4, 2))),
                           "n": Channel(4, 2, np.zeros((1, 2, 4)))},
                          {"p": 2, "n": 2})
    return AnnotatedNet(net, ann)


def _demo_with(dims=None, h=None):
    bd = branching_demo()
    ann = bd.ann
    return validate_signatures(bd.net, LocalAnnotation(
        ann.dims if dims is None else dims, ann.channels, ann.h if h is None else h))


def _drop_off_the_configuration():
    bd = branching_demo()
    return drop_effect(GlobalValuation(bd.net, bd.ann), {"a"}, [{"b"}])


def _not_enabled():
    bd = branching_demo()
    return sub_probability_check(bd.net, bd.ann, {"p0"}, ["b"])


@pytest.mark.parametrize("call, error, text", [
    pytest.param(lambda: algebra.as_matrix(np.zeros(3)), DimensionMismatch,
                 "expected a matrix, got ndim=1", id="as_matrix-vector"),
    pytest.param(lambda: Channel(2, 2, ()), DimensionMismatch,
                 "a channel needs at least one Kraus operator", id="channel-no-kraus"),
    pytest.param(lambda: algebra.apply(Channel.identity(2), np.eye(3)), DimensionMismatch,
                 "state shape (3, 3) does not match channel input dim 2",
                 id="apply-state-shape"),
    pytest.param(lambda: algebra.partial_trace(np.eye(3), [2], [0]), DimensionMismatch,
                 "matrix shape (3, 3) does not match factor dims [2]",
                 id="partial_trace-shape"),
    pytest.param(lambda: algebra.partial_trace(np.eye(2), [2], [1]), BadIndex,
                 "traced factor index 1 out of range", id="partial_trace-index"),
    pytest.param(lambda: algebra.embed_operator(np.eye(3), [2], [0]), DimensionMismatch,
                 "local operator shape (3, 3) does not match factors [0]",
                 id="embed_operator-shape"),
    pytest.param(_drop_off_the_configuration, IncompatibleExtension,
                 "['b'] does not extend ['a']", id="drop_effect-extension"),
    pytest.param(lambda: single_join(_pair("a", "a"), "p", "n"), QpnError,
                 "p and n share places; join is ambiguous", id="single_join-shared"),
    pytest.param(lambda: single_join(_pair("a", "b", ["p*n"]), "p", "n"), QpnError,
                 "id p*n already taken", id="single_join-taken"),
    pytest.param(_not_enabled, NotEnabled, "b is not enabled at ['p0']",
                 id="sub_probability-not-enabled"),
    pytest.param(lambda: UnfoldBudget(-1, 3), ValueError,
                 "budget values must be non-negative", id="unfold-budget"),
])
def test_raises(call, error, text):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == text


@pytest.mark.parametrize("call, reason", [
    pytest.param(lambda: algebra.channels_close(Channel.identity(2), Channel.identity(3)),
                 "signature mismatch: (2->2) vs (3->3)", id="channels_close-signature"),
    pytest.param(lambda: _demo_with(dims={"p0": 4}),
                 "places without dimension: ['p1', 'p2', 'p3', 'p4']",
                 id="signatures-missing-dimension"),
    pytest.param(lambda: _demo_with(dims=dict(branching_demo().ann.dims, p0=0)),
                 "dimension of p0 is 0", id="signatures-zero-dimension"),
    pytest.param(lambda: _demo_with(h=dict(branching_demo().ann.h, c=0)),
                 "signal dimension of c is 0", id="signatures-zero-signal"),
])
def test_fails(call, reason):
    out = call()
    assert not out and out.reason == reason


def test_a_permutation_of_an_empty_factor_is_the_empty_matrix():
    m = FactorPermutation((0,), (0,)).matrix()
    assert m.shape == (0, 0) and m.dtype == complex
