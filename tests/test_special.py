"""Exact combinatorics and scalar special functions."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from truncgauss import special
from truncgauss.ball import MultiIndex, Spectrum, ball_integral_mc, ball_integrals
from truncgauss.errors import DomainError, NumericError
from truncgauss.eta import (asymptotic_checks, coefficient_table,
                            eta_combinatorial, eta_fd_oracle, q_polynomial,
                            radial_derivative_envelope)
from truncgauss.expansion import convergence_estimate, expand_alpha
from truncgauss.xi import enumerate_exponents, omega_inequality_scan, xi_product
from truncgauss.special import (
    _lower_incomplete_gamma_vec,
    double_factorial,
    lower_incomplete_gamma,
    raising_factorial,
    stirling_first_unsigned,
    stirling_second,
)


class TestDoubleFactorial:
    def test_basic_values(self):
        assert double_factorial(5) == 15
        assert double_factorial(7) == 105
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(1) == 1
        assert double_factorial(6) == 48

    def test_below_domain(self):
        with pytest.raises(DomainError):
            double_factorial(-2)

    def test_non_integral_argument_raises(self):
        # 4.5 used to give 4.5 * 2.5 = 11.25
        with pytest.raises(DomainError):
            double_factorial(4.5)
        assert double_factorial(5.0) == 15

    @given(st.integers(min_value=1, max_value=120))
    def test_strides_compose(self, n):
        assert double_factorial(n) == n * double_factorial(n - 2)


class TestStirling:
    def test_second_kind_values(self):
        assert stirling_second(3, 2) == 3
        assert stirling_second(4, 2) == 7
        for k in range(13):
            assert stirling_second(k, k) == 1
        assert stirling_second(2, 3) == 0

    def test_first_kind_values(self):
        assert stirling_first_unsigned(3, 1) == 2
        assert stirling_first_unsigned(4, 2) == 11
        for n in range(13):
            assert stirling_first_unsigned(n, n) == 1
        assert stirling_first_unsigned(2, 5) == 0

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
    @settings(max_examples=60)
    def test_second_kind_recurrence(self, n, m):
        assert stirling_second(n + 1, m) == (
            m * stirling_second(n, m) + stirling_second(n, m - 1)
        )

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
    @settings(max_examples=60)
    def test_first_kind_recurrence(self, n, m):
        assert stirling_first_unsigned(n + 1, m) == (
            n * stirling_first_unsigned(n, m) + stirling_first_unsigned(n, m - 1)
        )

    def test_inversion_identity_exhaustive(self):
        """Signed composition of the two kinds is the identity, indices <= 12."""
        for j in range(13):
            for k in range(13):
                total = sum(
                    (-1) ** (t - k) * stirling_second(j, t)
                    * stirling_first_unsigned(t, k)
                    for t in range(0, max(j, k) + 1)
                )
                assert total == (1 if j == k else 0)

    def test_concurrent_growth_keeps_tables_consistent(self):
        # Four threads grow both tables from scratch at once; a lost race
        # appends a row twice and shifts every later row.
        k = 150
        want = ([stirling_second(k, t) for t in range(k + 1)],
                [stirling_first_unsigned(k, t) for t in range(k + 1)])
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                del special._S2_ROWS[1:]
                del special._C1_ROWS[1:]
                got, errors = [], []

                def grow():
                    try:
                        got.append(([stirling_second(k, t) for t in range(k + 1)],
                                    [stirling_first_unsigned(k, t)
                                     for t in range(k + 1)]))
                    except Exception as exc:  # reported by the assertion below
                        errors.append(exc)

                threads = [threading.Thread(target=grow) for _ in range(4)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30)
                assert not any(th.is_alive() for th in threads)
                assert not errors and got == [want] * 4
                assert len(special._S2_ROWS) == len(special._C1_ROWS) == k + 1
        finally:
            sys.setswitchinterval(old)
            del special._S2_ROWS[1:]
            del special._C1_ROWS[1:]


class TestRaisingFactorial:
    def test_values(self):
        assert raising_factorial(0.5, 2) == 0.75
        assert raising_factorial(3.0, 0) == 1
        for n in range(8):
            assert raising_factorial(1, n) == math.factorial(n)

    def test_exact_on_fractions(self):
        from fractions import Fraction

        assert raising_factorial(Fraction(-3, 2), 3) == Fraction(3, 8)

    @given(st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=10))
    def test_shift_identity(self, x, n):
        # x^(n+1 rising) = x * (x+1)^(n rising)
        assert raising_factorial(x, n + 1) == x * raising_factorial(x + 1, n)


@st.composite
def _lanes(draw):
    """An s, ascending lanes mixing 0, series-range, continued-fraction-range
    and inf, a subset mask and a permutation of them."""
    s = draw(st.sampled_from([0.5, 1.5, 2.5, 3.7, 9.5]))
    cut = s + special._SERIES_CUTOFF_OFFSET
    lane = st.one_of(st.just(0.0), st.just(math.inf),
                     st.floats(0.0, cut, exclude_max=True), st.just(cut),
                     st.floats(cut, 1e4))
    x = np.sort(draw(st.lists(lane, min_size=2, max_size=64)))
    keep = np.array(draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size)))
    return s, x, keep, np.array(draw(st.permutations(range(x.size))))


class TestLowerIncompleteGamma:
    def test_limits(self):
        assert lower_incomplete_gamma(0.5, 1e6) == pytest.approx(
            math.sqrt(math.pi), rel=1e-13)
        assert lower_incomplete_gamma(0.5, math.inf) == pytest.approx(
            math.sqrt(math.pi), rel=1e-15)
        assert lower_incomplete_gamma(3.2, 0.0) == 0.0

    def test_unit_shape_antiderivative(self):
        for x in (0.1, 0.9, 3.0, 17.5, 80.0):
            assert lower_incomplete_gamma(1.0, x) == pytest.approx(
                1.0 - math.exp(-x), rel=1e-13)

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            s = float(rng.uniform(0.05, 40.0))
            x = float(rng.uniform(0.0, 120.0))
            ref = gammainc(s, x) * math.gamma(s)
            assert lower_incomplete_gamma(s, x) == pytest.approx(ref, rel=2e-13, abs=1e-300)

    def test_monotone_and_normalized(self):
        # Grid stops before float64 saturation so strictness is testable.
        for s in (0.5, 1.5, 2.5, 7.5):
            xs = np.linspace(1e-3, 25.0, 100)
            vals = [lower_incomplete_gamma(s, float(x)) for x in xs]
            ratios = np.array(vals) / math.gamma(s)
            assert np.all(ratios >= 0.0) and np.all(ratios <= 1.0)
            assert np.all(np.diff(vals) > 0.0)

    def test_power_over_s_bound(self):
        # gamma(a, x) < x^a / a on a broad grid
        for a in np.arange(0.5, 10.0, 1.0):
            for x in np.linspace(0.05, 50.0, 120):
                assert lower_incomplete_gamma(float(a), float(x)) < x ** a / a

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(1.0, -0.5)

    def test_overflowing_arguments_raise(self):
        with pytest.raises(NumericError):
            lower_incomplete_gamma(200.0, 180.0)

    @pytest.mark.parametrize("s, x, error", [(200.0, 180.0, NumericError),
                                             (1e-320, 1.0, NumericError),
                                             (math.inf, 1.0, DomainError)])
    def test_typed_error_under_warnings_as_errors(self, s, x, error):
        # each let numpy's RuntimeWarning out ahead of its typed error; an
        # infinite s was a NumericError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                lower_incomplete_gamma(s, x)

    def test_vectorized_limits(self):
        got = _lower_incomplete_gamma_vec(0.5, np.array([0.0, math.inf]))
        assert got[0] == 0.0
        assert got[1] == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        with pytest.raises(NumericError):  # the infinite lane needs Gamma(200.5)
            _lower_incomplete_gamma_vec(200.5, np.array([1.0, math.inf]))

    def test_series_lanes_need_no_gamma(self):
        # Gamma(200) overflows float64, but a series lane never reads it:
        # this used to raise NumericError; the reference is mpmath's
        # gammainc(200, 0, 1) = 1.84859396312271e-3
        assert lower_incomplete_gamma(200, 1.0) == pytest.approx(
            1.84859396312271e-3, rel=1e-13)
        got = _lower_incomplete_gamma_vec(200.5, np.array([0.0, 1.0, 10.0]))
        assert got[0] == 0.0 and np.all(np.isfinite(got))

    def test_nan_is_domain_error(self):
        with pytest.raises(DomainError):
            lower_incomplete_gamma(1.5, math.nan)
        with pytest.raises(DomainError):  # used to return 0.0
            lower_incomplete_gamma(math.nan, 1.0)
        with pytest.raises(DomainError):
            _lower_incomplete_gamma_vec(1.5, np.array([1.0, math.nan]))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        for s in (0.5, 1.5, 4.5, 9.5):
            x = np.sort(rng.uniform(0.0, 90.0, size=500))
            vec = _lower_incomplete_gamma_vec(s, x)
            ref = gammainc(s, x) * math.gamma(s)
            np.testing.assert_allclose(vec, ref, rtol=1e-13, atol=1e-300)

    @given(_lanes())
    @settings(max_examples=80, deadline=None)
    def test_lane_order_and_shape_change_no_bits(self, case):
        # the lanes arrive ascending: any ascending subset of them keeps
        # each lane's bits, and an order or a shape that is not one
        # ascending vector is refused, never silently re-sorted
        s, x, keep, perm = case
        got = _lower_incomplete_gamma_vec(s, x)
        assert _lower_incomplete_gamma_vec(s, x[keep]).tobytes() == got[keep].tobytes()
        shuffled = x[perm]
        if np.any(shuffled[1:] < shuffled[:-1]):
            with pytest.raises(DomainError):
                _lower_incomplete_gamma_vec(s, shuffled)
        else:  # ties: the permutation left the lanes ascending
            assert _lower_incomplete_gamma_vec(s, shuffled).tobytes() == got.tobytes()
        half = x.size // 2
        with pytest.raises(DomainError):
            _lower_incomplete_gamma_vec(s, x[:2 * half].reshape(2, half).T)

    def test_unordered_lanes_are_domain_errors(self):
        for lanes in ([2.0, 1.0], [0.0, 5.0, 30.0, 20.0], [[1.0, 2.0]], 1.0):
            with pytest.raises(DomainError, match="ascending"):
                _lower_incomplete_gamma_vec(1.5, np.array(lanes))
        # ties are ascending, and a negative lane is refused as such first
        assert _lower_incomplete_gamma_vec(1.5, np.array([1.0, 1.0])).size == 2
        with pytest.raises(DomainError, match="x >= 0"):
            _lower_incomplete_gamma_vec(1.5, np.array([2.0, -1.0]))

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5, 9.5])
    def test_lanes_converge_independently(self, s):
        # lanes that end at the first term, at the cutoff, in the continued
        # fraction, at zero and at infinity, mixed in one call: each lane
        # must keep the bits it gets alone, however long its neighbours run
        rng = np.random.default_rng(17)
        x = np.concatenate([
            [0.0, 1e-300, 1e-20, 1e-9, s + 12.0, np.nextafter(s + 12.0, 0.0),
             math.inf, 1e4],
            np.exp(rng.uniform(-30.0, math.log(s + 20.0), 300)),
        ])
        x.sort()
        together = _lower_incomplete_gamma_vec(s, x)
        alone = [_lower_incomplete_gamma_vec(s, np.array([xi]))[0] for xi in x]
        assert together.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("s", [0.5, 2.5, 9.5])
    @pytest.mark.parametrize("arrangement", ["descending", "shuffled"])
    def test_series_lanes_ending_out_of_order(self, s, arrangement):
        # lanes passed straight to the series, not ascending, end out of
        # order inside the running range; the zeroed terms of the lanes that
        # ended keep every lane's bits alone
        rng = np.random.default_rng(23)
        x = np.sort(rng.uniform(0.0, s + 12.0, 400))[::-1]
        if arrangement == "shuffled":
            x = rng.permutation(x)
        together = special._kummer_sum(s, x)
        alone = [special._kummer_sum(s, np.array([xi]))[0] for xi in x]
        assert together.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("s, orders", [(0.5, (0, 3)), (0.5, (3, 0)),
                                           (1.5, (0, 1, 2)), (2.5, (4,))])
    def test_orders_share_one_call(self, s, orders):
        # zero, series, continued-fraction and infinite lanes in one block,
        # each order cut at its own s + m + 12 (the lanes between two cuts
        # are series lanes of one order and continued-fraction lanes of
        # another): every row keeps the bits of its own one-order call
        rng = np.random.default_rng(31)
        cuts = [s + m + special._SERIES_CUTOFF_OFFSET for m in orders]
        x = np.sort(np.concatenate([
            [0.0, 0.0, 1e-300, 1e-9, math.inf, math.inf, 1e4],
            cuts, [np.nextafter(c, 0.0) for c in cuts],
            rng.uniform(0.0, max(cuts) + 10.0, 500)]))
        rows = _lower_incomplete_gamma_vec(s, x, orders)
        assert rows.shape == (len(orders), x.size)
        for m, row in zip(orders, rows):
            assert row.tobytes() == _lower_incomplete_gamma_vec(s + m, x).tobytes()

    @given(_lanes(), st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_any_order_set_matches_one_order_calls(self, case, orders):
        s, x, _, _ = case
        rows = _lower_incomplete_gamma_vec(s, x, orders)
        for m, row in zip(orders, rows):
            assert row.tobytes() == _lower_incomplete_gamma_vec(s + m, x).tobytes()

    def test_each_order_keeps_its_typed_error(self):
        # order 0 needs no Gamma at a series lane and Gamma(0.5) at the
        # infinite one; order 200 overflows Gamma(200.5) there
        x = np.array([0.0, 1.0, math.inf])
        assert np.all(np.isfinite(_lower_incomplete_gamma_vec(0.5, x, (0,))))
        with pytest.raises(NumericError, match=r"Gamma\(200.5\)"):
            _lower_incomplete_gamma_vec(0.5, x, (0, 200))
        # lanes that are not ascending are refused before any order runs
        with pytest.raises(DomainError, match="ascending"):
            _lower_incomplete_gamma_vec(0.5, np.array([2.0, 1.0]), (0, 3))

    @pytest.mark.parametrize("cap, x, route", [
        ("_SERIES_CAP", 5.0, "series hit the 2-term cap"),
        ("_CF_CAP", 20.0, "continued fraction hit the 2-iteration cap")])
    def test_iteration_cap_is_numeric_error(self, cap, x, route, monkeypatch):
        # x = 5 is a series lane and x = 20 a continued-fraction lane at
        # s = 1.5; neither converges in two steps
        monkeypatch.setattr(special, cap, 2)
        with pytest.raises(NumericError, match=f"{route} at s=1.5"):
            lower_incomplete_gamma(1.5, x)


_SPEC = Spectrum((1.0, 2.0, 3.0))
_ONE = {(0, (0,)): 1}


class TestIntegerArguments:
    @pytest.mark.parametrize("call", [
        lambda n: eta_combinatorial(n, 5.0, _SPEC),
        lambda n: eta_fd_oracle(n, 5.0, _SPEC),
        lambda n: expand_alpha({0: 0}, n, 5.0, _SPEC),
        lambda n: coefficient_table(n, 2),
        lambda n: coefficient_table(3, n),
        lambda n: q_polynomial(n, 1.0, 0.5),
        lambda n: asymptotic_checks(_SPEC, n, (20.0, 40.0, 80.0)),
        lambda n: raising_factorial(0.5, n),
        lambda n: stirling_second(n, 1),
        lambda n: stirling_first_unsigned(3, n),
    ], ids=["eta_combinatorial", "eta_fd_oracle",
            "expand_alpha", "coefficient_table_v", "coefficient_table_k_max",
            "q_polynomial", "asymptotic_checks", "raising_factorial",
            "stirling_second", "stirling_first_unsigned"])
    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_non_integral_order_is_domain_error(self, call, bad):
        # each leaked TypeError or a Fraction error, or ran on the bad value
        with pytest.raises(DomainError):
            call(bad)

    @pytest.mark.parametrize("call, message", [(call, None) for call in [
        lambda: Spectrum("12"),
        lambda: Spectrum(3),
        lambda: Spectrum(None),
        lambda: Spectrum((1, "a")),
        lambda: MultiIndex(3),
        lambda: ball_integrals([(0, 0)], 1.0, Spectrum((1, 2))),
        lambda: coefficient_table([3], 2),
        lambda: enumerate_exponents([2], 2),
        lambda: lower_incomplete_gamma("a", 1.0),
        lambda: lower_incomplete_gamma(None, 1.0),
        lambda: lower_incomplete_gamma(1.5, "a"),
        lambda: lower_incomplete_gamma(1.5, None),
        lambda: eta_fd_oracle(2, 1e-200, Spectrum((1.0, 2.0))),
        lambda: q_polynomial(2, "a", 1.0),
        lambda: q_polynomial(2, math.nan, 1.0),
        lambda: q_polynomial(2, 1.0, None),
        lambda: xi_product(_ONE, _ONE, "3"),
        lambda: xi_product(_ONE, _ONE, -1),
        lambda: xi_product({3: 1}, _ONE, 3),
        lambda: xi_product(_ONE, {(1, 5): 1}, 3),
        lambda: xi_product({(0, (0,), 1): 1}, _ONE, 3),
        lambda: xi_product([1], _ONE, 2),
        lambda: xi_product(_ONE, [1], 2),
        lambda: radial_derivative_envelope("2", 5.0, _SPEC),
        lambda: radial_derivative_envelope(2.5, 5.0, _SPEC),
        lambda: radial_derivative_envelope(0, 5.0, _SPEC),
    ]] + [
        (lambda: Spectrum((10**400, 1.0)),
         "variance must be a real number in float range, got 1000"),
        (lambda: MultiIndex.single(2, 2), r"dimension must be an integer in 0\.\.1, got 2$"),
        (lambda: ball_integral_mc(MultiIndex.zero(3), 1.0, _SPEC, 100, 0),
         r"n_total must be an integer in 10000\.\., got 100$"),
        (lambda: convergence_estimate(11, 1, 2), r"v must be an integer in 2\.\.10, got 11$"),
        (lambda: omega_inequality_scan(25), r"q_max must be an integer in 1\.\.24, got 25$"),
    ], ids=["spectrum_string", "spectrum_int", "spectrum_none",
            "spectrum_string_entry", "multiindex_int", "tuple_index",
            "coefficient_table_list", "enumerate_exponents_list",
            "igamma_string_s", "igamma_none_s", "igamma_string_x",
            "igamma_none_x", "eta_fd_oracle_step_underflow",
            "q_polynomial_string_x", "q_polynomial_nan_x", "q_polynomial_none_a",
            "xi_product_string_q_max", "xi_product_negative_q_max",
            "xi_product_bare_key", "xi_product_scalar_vector",
            "xi_product_triple_key", "xi_product_list_f", "xi_product_list_g",
            "envelope_string_k", "envelope_fraction_k",
            "envelope_zero_k", "spectrum_beyond_float", "dimension_out_of_range",
            "n_total_below_minimum", "convergence_v_out_of_range", "q_max_over_cap"])
    def test_malformed_input_is_domain_error(self, call, message):
        # a string or non-sequence spectrum, a non-real variance, a
        # non-sequence multiplicity, a bare tuple index, unhashable cache
        # keys, a non-real incomplete-gamma or polynomial argument, a
        # negative or non-integral count or order cap, an envelope order
        # that is not a positive integer, a coefficient operand that is not
        # a mapping, a key that is not an (order, vector) pair and a
        # finite-difference step whose power underflows are each a
        # DomainError, not a coerced value, a silent 0.0, {} or NaN, or a
        # bare TypeError, AttributeError, OverflowError or
        # ZeroDivisionError; an integer out of range names its range
        with pytest.raises(DomainError, match=message):
            call()

    def test_integer_caches_keep_their_handles(self):
        # the wrappers keep the handles a sweep clears, and 3.0 keys as 3
        for cached in (coefficient_table, enumerate_exponents):
            cached.cache_clear()
            cached(3, 2)
            cached(3.0, 2)
            assert cached.cache_info().hits == 1
