import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonon_forge import phonon_stats as ps
from phonon_forge.errors import ConfigError, TruncationError

from oracles import fock_oracle, nbinom_tail


def spec(nbar):
    return ps.ThermalSpec(nbar)


class TestThermalPmf:
    def test_ground_state(self):
        pmf = ps.thermal_pmf(spec(0.0), m_max=10)
        assert pmf.probs[0] == 1.0
        assert np.all(pmf.probs[1:] == 0.0)
        assert pmf.tail_mass == 0.0

    def test_geometric_half(self):
        pmf = ps.thermal_pmf(spec(1.0), m_max=20)
        assert pmf.probs[0] == pytest.approx(0.5)
        assert pmf.probs[1] == pytest.approx(0.25)

    def test_large_nbar_mean(self):
        pmf = ps.thermal_pmf(spec(453.0), m_max=20 * 453)
        assert pmf.mean() == pytest.approx(453.0, rel=1e-6)

    @pytest.mark.parametrize("nbar", [1e-6, 1.0, 3.0, 453.0, 1e5])
    def test_order_zero_is_the_geometric_law_bit_for_bit(self, nbar):
        # the thermal law is order 0 of the subtracted one, whose
        # log-binomial is exactly 0 there: (1-x) x^m and x^(m_max+1) from logs
        x = spec(nbar).x
        for m_max in (0, 7, 200, ps.default_m_max(nbar, 0)):
            m = np.arange(m_max + 1)
            for pmf in (ps.thermal_pmf(spec(nbar), m_max),
                        ps.added_pmf(spec(nbar), 0, m_max)):
                assert np.array_equal(pmf.probs, np.exp(np.log1p(-x) + m * np.log(x)))
                assert pmf.tail_mass == math.exp((m_max + 1) * math.log(x))

    def test_negative_nbar_rejected(self):
        with pytest.raises(ConfigError):
            spec(-0.1)

    def test_nbar_whose_ratio_rounds_to_one_rejected(self):
        # above about 9e15, nbar/(1+nbar) is 1.0 in double precision
        for nbar in (1e16, 1e17, 1e300):
            with pytest.raises(ConfigError, match="too large"):
                spec(nbar)
        assert spec(1e15).x < 1.0
        assert ps.subtracted_pmf(spec(1e15), 1, m_max=10).total_mass() \
            == pytest.approx(1.0, abs=1e-12)


class TestSubtractedPmf:
    def test_zero_order_is_thermal(self):
        a = ps.subtracted_pmf(spec(3.0), 0, m_max=200)
        b = ps.thermal_pmf(spec(3.0), m_max=200)
        np.testing.assert_allclose(a.probs, b.probs, rtol=0, atol=1e-15)

    def test_means_double_and_triple(self):
        s = spec(453.0)
        assert ps.subtracted_pmf(s, 1).mean() == pytest.approx(906.0, rel=1e-8)
        assert ps.subtracted_pmf(s, 2).mean() == pytest.approx(1359.0, rel=1e-8)

    def test_matches_fock_oracle(self):
        s = spec(2.0)
        closed = ps.subtracted_pmf(s, 1)
        oracle = fock_oracle(s, 1)
        assert np.max(np.abs(closed.probs - oracle.probs)) < 1e-10

    def test_ground_state_subtraction_is_the_ground_state(self):
        # nbar = 0 is the limit nbar -> 0 of every order: the subtracted
        # state is delta_0 and the added one delta_n, whose mean is the
        # closed form's n
        for n in (1, 3):
            sub = ps.subtracted_pmf(spec(0.0), n, m_max=10)
            assert sub.probs[0] == 1.0 and np.all(sub.probs[1:] == 0.0)
            assert sub.tail_mass == 0.0
            add = ps.added_pmf(spec(0.0), n)
            assert add.probs[n] == 1.0 and np.sum(add.probs) == 1.0
            assert add.tail_mass == 0.0
            assert add.mean() == ps.mean_occupation(spec(0.0), n, ps.ADD) == n

    def test_negative_order_rejected(self):
        with pytest.raises(ConfigError):
            ps.subtracted_pmf(spec(1.0), -1)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_negative_truncation_rejected(self, n):
        with pytest.raises(ConfigError, match="m_max"):
            ps.subtracted_pmf(spec(1.0), n, m_max=-1)


@pytest.mark.parametrize("m_max", [math.nan, math.inf, True, 2.7, -1])
@pytest.mark.parametrize("func", [ps.subtracted_pmf, ps.added_pmf, ps.add_sub_fidelity],
                         ids=lambda f: f.__name__)
def test_truncation_is_an_integer_or_refused(func, m_max):
    # no truncation to an integer, no raw ValueError or OverflowError
    with pytest.raises(ConfigError, match="m_max"):
        func(spec(3.0), 1, m_max)


class TestSubtractedTail:
    @pytest.mark.parametrize("nbar", [1e-3, 0.5, 7.0, 453.0])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_exact_rational_sum(self, nbar, n):
        # the same finite sum in exact rational arithmetic of the float x
        s = spec(nbar)
        x = Fraction(s.x)
        for m_max in (0, 1, 7, 60, 200):
            trials = m_max + n + 1
            exact = float(sum(math.comb(trials, k) * (1 - x) ** k * x ** (trials - k)
                              for k in range(n + 1)))
            assert ps._subtracted_tail(s, n, m_max) == pytest.approx(exact, rel=1e-12)

    def test_matches_nbinom_survival(self):
        # scipy's nbinom.sf is itself off by up to 3.2e-10 relative here (at
        # x = 1e-6, n = 6, m_max = 10, against a 40-digit sum), which sets
        # the tolerance; tails that underflow to subnormals are compared
        # absolutely
        for x in np.geomspace(1e-6, 0.9999, 13):
            s = spec(x / (1.0 - x))
            for n in range(1, 9):
                for m_max in (0, 1, 10, 1000, 10**5, 2 * 10**5):
                    assert ps._subtracted_tail(s, n, m_max) == pytest.approx(
                        nbinom_tail(s, n, m_max), rel=1e-9, abs=1e-300)

    def test_tail_completes_the_pmf(self):
        pmf = ps.subtracted_pmf(spec(3.0), 2, m_max=40)
        assert pmf.tail_mass > 1e-6
        assert pmf.total_mass() == pytest.approx(1.0, rel=1e-14)


class TestAddedPmf:
    def test_zero_order_is_thermal(self):
        a = ps.added_pmf(spec(3.0), 0, m_max=200)
        b = ps.thermal_pmf(spec(3.0), m_max=200)
        np.testing.assert_allclose(a.probs, b.probs, rtol=0, atol=1e-15)

    def test_shift_identity(self):
        s = spec(5.0)
        sub = ps.subtracted_pmf(s, 2, m_max=400)
        add = ps.added_pmf(s, 2, m_max=402)
        np.testing.assert_allclose(add.probs[2:], sub.probs, rtol=0, atol=1e-15)
        assert np.all(add.probs[:2] == 0.0)

    def test_mean_with_offset(self):
        assert ps.added_pmf(spec(1.0), 2).mean() == pytest.approx(5.0, rel=1e-8)


class TestMeanOccupation:
    def test_paper_values(self):
        s = spec(453.0)
        assert ps.mean_occupation(s, 1, "subtract") == 906.0
        assert ps.mean_occupation(s, 2, "subtract") == 1359.0

    def test_ground_state(self):
        assert ps.mean_occupation(spec(0.0), 3, "subtract") == 0.0

    def test_against_pmf_summation(self):
        s = spec(766.0)
        expected = ps.mean_occupation(s, 2, "subtract")
        assert expected == 2298.0
        pmf = ps.subtracted_pmf(s, 2)
        assert pmf.mean() == pytest.approx(expected, rel=1e-8)

    def test_add_kind(self):
        assert ps.mean_occupation(spec(10.0), 2, "add") == 32.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ps.mean_occupation(spec(1.0), 1, "remove")


class TestFidelity:
    def test_approaches_one_from_below(self):
        vals = [ps.add_sub_fidelity(spec(nb), 1) for nb in (1.0, 10.0, 100.0, 1000.0)]
        assert all(v < 1.0 for v in vals)
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] > 0.999

    def test_strict_bounds_nbar_one(self):
        f = ps.add_sub_fidelity(spec(1.0), 1)
        assert (0.5) ** 0.5 < f < 1.0

    def test_against_direct_summation(self):
        s = spec(10.0)
        f = ps.add_sub_fidelity(s, 2)
        sub = ps.subtracted_pmf(s, 2, m_max=2000)
        add = ps.added_pmf(s, 2, m_max=2000)
        brute = np.sum(np.sqrt(sub.probs * add.probs))
        assert f == pytest.approx(brute, rel=1e-12)
        assert f > (10.0 / 11.0) ** 1

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            ps.add_sub_fidelity(spec(100.0), 1, m_max=50)


class TestSimilarityThreshold:
    def test_exact_values(self):
        assert ps.similarity_threshold(0) == 0.0
        assert ps.similarity_threshold(1) == pytest.approx((-2 + 12 ** 0.5) / 4)

    def test_sqrt_n_asymptotics(self):
        n = 10 ** 6
        assert ps.similarity_threshold(n) / np.sqrt(n) == pytest.approx(1.0, rel=1e-2)

    def test_monotone(self):
        vals = [ps.similarity_threshold(n) for n in range(8)]
        assert np.all(np.diff(vals) > 0)


class TestFockOracle:
    def test_identity_at_zero_order(self):
        s = spec(4.0)
        orc = fock_oracle(s, 0)
        th = ps.thermal_pmf(s, orc.m_max)
        np.testing.assert_allclose(orc.probs, th.probs, rtol=0, atol=1e-12)

    def test_added_state(self):
        s = spec(2.0)
        orc = fock_oracle(s, 2, kind="add")
        closed = ps.added_pmf(s, 2, m_max=orc.m_max)
        assert np.max(np.abs(orc.probs - closed.probs)) < 1e-10

    def test_insufficient_truncation(self):
        with pytest.raises(TruncationError):
            fock_oracle(spec(100.0), 1, m_max=100)


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------

nbars = st.floats(min_value=1e-3, max_value=1e3)
orders = st.integers(min_value=0, max_value=4)


@settings(max_examples=60, deadline=None)
@given(nbar=nbars, n=orders)
def test_normalization_and_mean(nbar, n):
    pmf = ps.subtracted_pmf(spec(nbar), n)
    assert abs(pmf.total_mass() - 1.0) < 1e-10
    # the mean check needs a deeper cut than the default truncation rule
    deep = ps.subtracted_pmf(spec(nbar), n,
                             m_max=max(64, int(46 * (n + 1) * max(nbar, 1.0))))
    assert deep.mean() == pytest.approx((n + 1) * nbar, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(nbar=nbars, n=st.integers(min_value=1, max_value=4))
def test_shift_identity_property(nbar, n):
    sub = ps.subtracted_pmf(spec(nbar), n)
    add = ps.added_pmf(spec(nbar), n, m_max=sub.m_max + n)
    np.testing.assert_allclose(add.probs[n:], sub.probs, rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(nbar=st.floats(min_value=1e-2, max_value=1e3),
       n=st.integers(min_value=1, max_value=4))
def test_fidelity_bound_property(nbar, n):
    f = ps.add_sub_fidelity(spec(nbar), n)
    x = nbar / (1.0 + nbar)
    assert x ** (n / 2.0) < f < 1.0


@settings(max_examples=30, deadline=None)
@given(nbar=st.floats(min_value=1e-2, max_value=1e3),
       n=st.integers(min_value=1, max_value=4))
def test_variance_equality_property(nbar, n):
    sub = ps.subtracted_pmf(spec(nbar), n)
    add = ps.added_pmf(spec(nbar), n, m_max=sub.m_max + n)
    assert add.variance() == pytest.approx(sub.variance(), rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(nbar=st.floats(min_value=1e-2, max_value=50.0),
       n=st.integers(min_value=0, max_value=3),
       kind=st.sampled_from(["subtract", "add"]))
def test_fock_oracle_matches_closed_forms(nbar, n, kind):
    s = spec(nbar)
    orc = fock_oracle(s, n, kind=kind)
    if kind == "subtract":
        closed = ps.subtracted_pmf(s, n, m_max=orc.m_max)
    else:
        closed = ps.added_pmf(s, n, m_max=orc.m_max)
    assert np.max(np.abs(orc.probs - closed.probs)) < 1e-10
