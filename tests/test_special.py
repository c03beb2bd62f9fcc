import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import spherical_in, spherical_jn, spherical_kn, spherical_yn

import qcloak as qc
from qcloak.errors import ConfigurationError, DomainError
from qcloak.special import (_sph_ik_pair_scaled, _sph_ik_pair_scaled_array,
                            _sph_jy_orders_array, _sph_jy_pair,
                            _sph_jy_pair_array, spherical_bessel)


def test_j0_closed_form():
    for x in (0.3, 1.7, 9.2):
        assert spherical_bessel(0, x).j == pytest.approx(math.sin(x) / x,
                                                         rel=1e-14)


def test_j1_at_one_independent_value():
    # j_1(x) = sin x / x^2 - cos x / x evaluated directly
    expected = math.sin(1.0) - math.cos(1.0)
    assert spherical_bessel(1, 1.0).j == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.301169, abs=1e-6)


@pytest.mark.parametrize("l", [0, 1, 2, 5, 12, 25, 40])
@pytest.mark.parametrize("x", [1e-4, 3e-2, 0.8, 2.1, 6.0, 2.0 * math.pi,
                               33.0, 400.0])
def test_accuracy_against_scipy(l, x):
    # 2 pi is a zero of j_0 = sin x / x, which must not normalise j_l
    s = spherical_bessel(l, x)
    assert s.j == pytest.approx(spherical_jn(l, x), rel=1e-10, abs=1e-280)
    assert s.y == pytest.approx(spherical_yn(l, x), rel=1e-10)
    assert s.jp == pytest.approx(spherical_jn(l, x, derivative=True),
                                 rel=1e-10, abs=1e-280)
    assert s.yp == pytest.approx(spherical_yn(l, x, derivative=True),
                                 rel=1e-10)
    ik = _sph_ik_pair_scaled(l, x)
    assert ik[1] == pytest.approx(spherical_in(l, x) * math.exp(-x),
                                  rel=1e-10, abs=1e-280)
    assert ik[3] == pytest.approx(spherical_kn(l, x) * math.exp(x),
                                  rel=1e-10)


@settings(max_examples=200, deadline=None)
@given(l=st.integers(min_value=0, max_value=40),
       x=st.floats(min_value=1e-4, max_value=500.0))
def test_wronskian_identity(l, x):
    assert spherical_bessel(l, x).wronskian_defect() < 1e-10


def test_domain_and_configuration_errors():
    with pytest.raises(DomainError):
        spherical_bessel(0, 0.0)
    with pytest.raises(DomainError):
        spherical_bessel(3, -1.0)
    with pytest.raises(ConfigurationError):
        spherical_bessel(qc.special.L_MAX_SUPPORTED + 1, 1.0)


def branch_points(l: int) -> list:
    """Arguments at and around the scalar pairs' branch points for order l:
    the renormalising Miller range (x ~ 1e-6), x = l + 1 where j_l turns
    upward, x = l(l+1) where i_l takes its closed series, and both sides of
    each; and the zeros n pi (n <= 19) of j_0 = sin x / x with their
    float neighbours, where a Miller pair normalised by j_0 would divide
    by zero."""
    pts = [1e-7, 1e-6, 3e-6, 1e-3, 0.5, 3.0 * (l + 1), 4000.0]
    for x in ([float(l + 1), l * (l + 1.0)]
              + [n * math.pi for n in range(1, 20)]):
        if x > 0.0:
            pts += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return pts


def assert_twin_bits(ls, xs: list) -> None:
    """Both array twins, called once for the orders ls (an int is one
    order), equal their scalar pairs at every order and element, bit for
    bit."""
    ls = [ls] if isinstance(ls, int) else ls
    x = np.array(xs)
    for scalar, twin in ((_sph_jy_pair, _sph_jy_pair_array),
                         (_sph_ik_pair_scaled, _sph_ik_pair_scaled_array)):
        arrays = twin(ls, x)
        assert arrays.shape == (4, len(ls), len(xs))
        for o, l in enumerate(ls):
            for e, xe in enumerate(xs):
                assert [float(a[o, e]).hex() for a in arrays] == \
                    [v.hex() for v in scalar(l, xe)], (scalar.__name__, l,
                                                       xe)


@pytest.mark.parametrize("l", range(qc.special.L_MAX_SUPPORTED + 1))
def test_array_twins_at_branch_points(l):
    assert_twin_bits(l, branch_points(l))
    # below the turning point, x < l + 1, j_l comes from the Miller pair
    # normalised by the Wronskian: within 1e-12 of scipy there, at the
    # branch points and on a grid, scalar (through `spherical_bessel`)
    # and array alike
    xs = [x for x in branch_points(l)
          + np.linspace(1e-3, l + 1.0, 501).tolist() if x < l + 1]
    ref = spherical_jn(l, xs)
    # relative error means nothing once j_l leaves the normal range
    normal = np.abs(ref) > 1e-290
    for j in (np.array([spherical_bessel(l, x).j for x in xs]),
              _sph_jy_pair_array([l], np.array(xs))[1, 0]):
        assert np.all(np.abs(j - ref)[normal]
                      <= 1e-12 * np.abs(ref[normal]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), l=st.integers(0, qc.special.L_MAX_SUPPORTED))
def test_array_twins_equal_the_scalar_pairs(data, l):
    # one array mixes every branch, and (for the evanescent pair) Miller
    # start orders that differ between elements
    xs = data.draw(st.lists(
        st.floats(1e-7, 4000.0) | st.floats(1e-7, 1e-5)
        | st.sampled_from(branch_points(l)), min_size=1, max_size=24))
    assert_twin_bits(l, xs)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_array_twins_share_one_pass_over_many_orders(data):
    # one call for several orders, repeated and unsorted ones included:
    # the shared upward recurrences and one Miller run over every order's
    # elements give each order's scalar values
    ls = data.draw(st.lists(st.integers(0, qc.special.L_MAX_SUPPORTED),
                            min_size=1, max_size=6))
    xs = data.draw(st.lists(
        st.floats(1e-7, 4000.0) | st.floats(1e-7, 1e-5)
        | st.sampled_from(branch_points(max(ls))), min_size=1, max_size=16))
    assert_twin_bits(ls, xs)


def test_array_twins_take_no_orders():
    x = np.array([0.5, 2.0])
    for twin in (_sph_jy_pair_array, _sph_ik_pair_scaled_array):
        assert twin([], x).shape == (4, 0, 2)


def test_all_orders_against_scipy():
    # every order up to l_max at once, for each l_max <= 60, to 1e-12 of
    # sqrt(j_l^2 + y_l^2); the grid includes the zeros of sin x, where a
    # normalisation of the top pair by j_0 would divide by zero
    x = np.concatenate([np.linspace(0.15, 40.0, 1001),
                        np.pi * np.arange(1.0, 13.0)])
    ref = {l: (spherical_jn(l, x), spherical_yn(l, x))
           for l in range(qc.special.L_MAX_SUPPORTED + 1)}
    for l_max in range(qc.special.L_MAX_SUPPORTED + 1):
        j, y = _sph_jy_orders_array(l_max, x)
        assert j.shape == y.shape == (l_max + 1, x.size)
        for l in range(l_max + 1):
            js, ys = ref[l]
            scale = np.hypot(js, ys)
            assert np.max(np.abs(j[l] - js) / scale) < 1e-12, (l_max, l)
            assert np.max(np.abs(y[l] - ys) / scale) < 1e-12, (l_max, l)
