"""Ball integrals: closed form, quadrature, Monte Carlo, structural identities."""

import collections
import itertools
import math
import operator
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import numpy as np
import pytest
from scipy.special import gammainc
from test_acceptance import _oracle_agrees

from truncgauss import ball, conditional_moments
from truncgauss.ball import (
    MultiIndex,
    Spectrum,
    ball_integral,
    ball_integral_1d,
    ball_integral_mc,
    _index_family,
    ball_integrals,
    ball_integrals_mc,
    verify_structural,
)
from truncgauss.errors import (
    CapabilityError,
    DegenerateAcceptanceError,
    DomainError,
    NumericError,
)


# The order-2 family's (value, est_abs_error) as float.hex at one geometry
# per v, as (rho, lambdas, members).  At v <= 4 they were computed with one
# quadrature sweep per outer rule: the shared sweep of both rules must move
# neither number by a bit, and at v = 4 the leaf spans several blocks of
# outer nodes.  At v = 5 and 6 they are the chi-square mixture's.
PINNED_ORDER_TWO = {
    2: (3.0, (1.0, 2.0), [
        ((0, 0), '0x1.48d2aa2cba50ep-1', '0x1.191c601a08f12p-50'),
        ((0, 1), '0x1.c27e1df5fa440p-3', '0x1.0f66b542f9c75p-50'),
        ((0, 2), '0x1.4369c21677406p-3', '0x1.7b085f0397690p-51'),
        ((1, 0), '0x1.67d02b22f4992p-2', '0x1.ca8e8a7cddc7ep-51'),
        ((1, 1), '0x1.6ab7cb4c16b4bp-4', '0x1.c618951e12ad2p-52'),
        ((2, 0), '0x1.c7133e154c9aap-2', '0x1.70179f1f68bc2p-50'),
    ]),
    3: (5.0, (0.5, 1.0, 2.5), [
        ((0, 0, 0), '0x1.7474c928f437bp-1', '0x1.51ac983216847p-50'),
        ((0, 0, 1), '0x1.33778dc7e6003p-2', '0x1.668b55312c448p-50'),
        ((0, 0, 2), '0x1.0fdf9a92563bep-2', '0x1.4c868bfed8836p-50'),
        ((0, 1, 0), '0x1.0380f6a4ee117p-1', '0x1.52166f05cafd0p-50'),
        ((0, 1, 1), '0x1.4ce146e283d0cp-3', '0x1.7db287f184e82p-51'),
        ((0, 2, 0), '0x1.c2ef5c76077e9p-1', '0x1.8eed4a9fa5597p-49'),
        ((1, 0, 0), '0x1.4067e6d3fcf5dp-1', '0x1.745f5a0425d10p-50'),
        ((1, 0, 1), '0x1.c042fb9fc20d5p-3', '0x1.171653fc6de1dp-50'),
        ((1, 1, 0), '0x1.8d340cebbe5e7p-2', '0x1.1fcd8407702a2p-50'),
        ((2, 0, 0), '0x1.816df2ba3c416p+0', '0x1.f8fa3e22bc01fp-49'),
    ]),
    4: (7.0, (0.3, 1.1, 2.2, 0.9), [
        ((0, 0, 0, 0), '0x1.9fa9f515378c7p-1', '0x1.f4ffbd8238d1cp-49'),
        ((0, 0, 0, 1), '0x1.52179c3520a2dp-1', '0x1.8f2a1cca432a4p-49'),
        ((0, 0, 0, 2), '0x1.6f1eefc6c86a2p+0', '0x1.a755d84b40b43p-48'),
        ((0, 0, 1, 0), '0x1.cca572609b4f9p-2', '0x1.38d487fc533c8p-49'),
        ((0, 0, 1, 1), '0x1.376d731ed9a04p-2', '0x1.67a8b8169555cp-50'),
        ((0, 0, 2, 0), '0x1.2173d93f2d75ap-1', '0x1.b17940cf660bcp-49'),
        ((0, 1, 0, 0), '0x1.3dbe3792ce0efp-1', '0x1.996fcc74eeea7p-49'),
        ((0, 1, 0, 1), '0x1.c457e570b4d9dp-2', '0x1.ff52c5e9e7921p-50'),
        ((0, 1, 1, 0), '0x1.1dce759b9a7ffp-2', '0x1.b07287076f1cbp-50'),
        ((0, 2, 0, 0), '0x1.38f1d694ec168p+0', '0x1.a8160a6e38583p-48'),
        ((1, 0, 0, 0), '0x1.8c1839317cd88p-1', '0x1.bf7da022495b8p-49'),
        ((1, 0, 0, 1), '0x1.35174db6f28a2p-1', '0x1.67005b1e40123p-49'),
        ((1, 0, 1, 0), '0x1.984c2188a75c0p-2', '0x1.097676b2f67b1p-49'),
        ((1, 1, 0, 0), '0x1.205c76f74c845p-1', '0x1.812a9d13ed005p-49'),
        ((2, 0, 0, 0), '0x1.17966dbd2acfap+1', '0x1.3eb2691fdaf3ap-47'),
    ]),
    5: (4.0, (1.0, 1.5, 2.0, 2.5, 3.0), [
        ((0, 0, 0, 0, 0), '0x1.507a65bc67368p-3', '0x1.22b6cd6b6a0afp-48'),
        ((0, 0, 0, 0, 1), '0x1.0549d447ee51bp-5', '0x1.09f43612227aap-50'),
        ((0, 0, 0, 0, 2), '0x1.d6eb4f2bed6aap-7', '0x1.097f9c69b0462p-51'),
        ((0, 0, 0, 1, 0), '0x1.305a8b8a2840ap-5', '0x1.31be77aa184ffp-50'),
        ((0, 0, 0, 1, 1), '0x1.6fb1ffe66535cp-8', '0x1.98b69a1dbeccap-53'),
        ((0, 0, 0, 2, 0), '0x1.42f499dd71637p-6', '0x1.62ffc8c413a3ap-51'),
        ((0, 0, 1, 0, 0), '0x1.6c3696236f25cp-5', '0x1.6950a943d8cd0p-50'),
        ((0, 0, 1, 0, 1), '0x1.bb828487654c3p-8', '0x1.e6cceec0e7139p-53'),
        ((0, 0, 1, 1, 0), '0x1.03a9849432b16p-7', '0x1.1a71a1b207ad6p-52'),
        ((0, 0, 2, 0, 0), '0x1.d5a602dbc59acp-6', '0x1.ffa29690417c2p-51'),
        ((0, 1, 0, 0, 0), '0x1.c4ca721e67348p-5', '0x1.b9809c66033a6p-50'),
        ((0, 1, 0, 0, 1), '0x1.1724d9c5d5b9bp-7', '0x1.2e0007c9b8cb8p-52'),
        ((0, 1, 0, 1, 0), '0x1.46cac6af27492p-7', '0x1.5ed26527257e0p-52'),
        ((0, 1, 1, 0, 0), '0x1.89ec08ca1be0cp-7', '0x1.a29557e91565ap-52'),
        ((0, 2, 0, 0, 0), '0x1.73860c79c2725p-5', '0x1.833b47b4cc4d4p-50'),
        ((1, 0, 0, 0, 0), '0x1.29fee420c9649p-4', '0x1.0184d4e399d38p-49'),
        ((1, 0, 0, 0, 1), '0x1.77bf692c7056ep-7', '0x1.7be75b4122136p-52'),
        ((1, 0, 0, 1, 0), '0x1.b7b6e194da402p-7', '0x1.ba12f4ba5efc2p-52'),
        ((1, 0, 1, 0, 0), '0x1.08dec80a9703dp-6', '0x1.0548220437739p-51'),
        ((1, 1, 0, 0, 0), '0x1.4cc78bb020173p-6', '0x1.42812048a0dbap-51'),
        ((2, 0, 0, 0, 0), '0x1.4ec8413e96846p-4', '0x1.23e6a3c4e684ep-49'),
    ]),
    6: (2.0, (0.6, 0.9, 1.2, 1.5, 1.8, 2.1), [
        ((0, 0, 0, 0, 0, 0), '0x1.78965355c97bap-5', '0x1.6c0327a1b83a5p-50'),
        ((0, 0, 0, 0, 0, 1), '0x1.713d1fe26c3f4p-8', '0x1.9b199b449d8fbp-53'),
        ((0, 0, 0, 0, 0, 2), '0x1.ae8b67c655602p-10', '0x1.0416488aa40b9p-54'),
        ((0, 0, 0, 0, 1, 0), '0x1.a7e50d2bdcabap-8', '0x1.d7220f3c8bfdep-53'),
        ((0, 0, 0, 0, 1, 1), '0x1.4a6c814e4da70p-11', '0x1.8db0477b5f213p-56'),
        ((0, 0, 0, 0, 2, 0), '0x1.1d46c5dda5982p-9', '0x1.56221071487f0p-54'),
        ((0, 0, 0, 1, 0, 0), '0x1.f178dbeb0e366p-8', '0x1.10f584c9a0386p-52'),
        ((0, 0, 0, 1, 0, 1), '0x1.853e4e66baac6p-11', '0x1.d25f04b674fe8p-56'),
        ((0, 0, 0, 1, 1, 0), '0x1.c0101b7f27b19p-11', '0x1.0cd5e972958dbp-55'),
        ((0, 0, 0, 2, 0, 0), '0x1.8bd5887b52ce3p-9', '0x1.d5c592eea6288p-54'),
        ((0, 0, 1, 0, 0, 0), '0x1.2ce3feb598ed8p-7', '0x1.4661978c16d38p-52'),
        ((0, 0, 1, 0, 0, 1), '0x1.d97519607b7dbp-11', '0x1.1b721d2cee472p-55'),
        ((0, 0, 1, 0, 1, 0), '0x1.107cb2b4c9348p-10', '0x1.42ee79ed6c22ap-55'),
        ((0, 0, 1, 1, 0, 0), '0x1.40f157a9fe904p-10', '0x1.79070a6842b7bp-55'),
        ((0, 0, 2, 0, 0, 0), '0x1.24b7a59efce6bp-8', '0x1.54ebdc46d848dp-53'),
        ((0, 1, 0, 0, 0, 0), '0x1.7c73bb7cd837ap-7', '0x1.96fd00e34afc4p-52'),
        ((0, 1, 0, 0, 0, 1), '0x1.2df57a43e46cep-10', '0x1.63f1aa5c62e82p-55'),
        ((0, 1, 0, 0, 1, 0), '0x1.5b8a8d78239fdp-10', '0x1.966f1741ddb04p-55'),
        ((0, 1, 0, 1, 0, 0), '0x1.994bcd546b835p-10', '0x1.db3bae2981c15p-55'),
        ((0, 1, 1, 0, 0, 0), '0x1.f1a642fed8762p-10', '0x1.1eb828f560658p-54'),
        ((0, 2, 0, 0, 0, 0), '0x1.dbc6b64d128cap-8', '0x1.12a3b8557b59ap-52'),
        ((1, 0, 0, 0, 0, 0), '0x1.020b47191d26ep-6', '0x1.f427c7cf570eep-52'),
        ((1, 0, 0, 0, 0, 1), '0x1.a04151ecd6cfcp-10', '0x1.cd0bed544557ep-55'),
        ((1, 0, 0, 0, 1, 0), '0x1.df04163e42ceap-10', '0x1.0790194027bf2p-54'),
        ((1, 0, 0, 1, 0, 0), '0x1.1a0161dee93afp-9', '0x1.345c8addf08efp-54'),
        ((1, 0, 1, 0, 0, 0), '0x1.56c5bce3de346p-9', '0x1.740be1b9d6244p-54'),
        ((1, 1, 0, 0, 0, 0), '0x1.b4b85848502dcp-9', '0x1.d595680258bdap-54'),
        ((2, 0, 0, 0, 0, 0), '0x1.c28d69a3ed3cbp-7', '0x1.b7ae3ace96683p-52'),
    ]),
}


class TestTypes:
    def test_spectrum_validation(self):
        with pytest.raises(DomainError):
            Spectrum(())
        with pytest.raises(DomainError):
            Spectrum((1.0, 0.0))
        with pytest.raises(DomainError):
            Spectrum((1.0, -2.0))
        with pytest.raises(DomainError):
            Spectrum((1.0, math.inf))

    def test_spectrum_drop(self):
        spec = Spectrum((1.0, 2.0, 3.0))
        assert spec.drop(1).lambdas == (1.0, 3.0)
        with pytest.raises(DomainError):
            Spectrum((1.0,)).drop(0)

    def test_multiindex(self):
        idx = MultiIndex((1, 0, 2))
        assert idx.order == 3
        assert idx.bump(1).multiplicities == (1, 1, 2)
        assert MultiIndex.single(3, 2, 2).multiplicities == (0, 0, 2)
        assert idx.factorized_bound() == 1 * 1 * 3
        with pytest.raises(DomainError):
            MultiIndex((-1,))

    def test_non_integral_multiplicity_raises(self):
        # truncating would integrate a different index
        with pytest.raises(DomainError):
            MultiIndex((1.5, 0))
        assert MultiIndex((2.0, 0)).multiplicities == (2, 0)

    @pytest.mark.parametrize("call", [
        lambda n: Spectrum((1.0, 2.0, 3.0)).drop(n),
        lambda n: MultiIndex.single(3, n),
        lambda n: MultiIndex.zero(3).bump(n),
    ], ids=["drop", "single", "bump"])
    def test_non_integral_dimension_raises(self, call):
        # a list or slice index used to leak TypeError, even for 1.0
        with pytest.raises(DomainError):
            call(1.5)
        assert call(1.0) == call(1)

    def test_non_integral_length_raises(self):
        with pytest.raises(DomainError):  # leaked TypeError
            MultiIndex.zero(2.5)
        assert MultiIndex.zero(3.0) == MultiIndex.zero(3)

    def test_pair_mismatch(self):
        with pytest.raises(DomainError):
            ball_integral(MultiIndex((0, 0)), 1.0, Spectrum((1.0,)))

    def test_bad_rho(self):
        for rho in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                ball_integral(MultiIndex((0,)), rho, Spectrum((1.0,)))

    def test_divisor_whose_bar_reaches_zero_is_numeric_error(self):
        with pytest.raises(NumericError, match=r"divisor 0.5 \+- 0.5 is not bounded away from 0"):
            ball.IntegralValue(1.0, 0.1) / ball.IntegralValue(0.5, 0.5)

    def test_number_over_a_value_with_a_bar(self):
        # 3 / (2 +- 0.5): (0 + 1.5 x 0.5) / (2 - 0.5)
        assert 3.0 / ball.IntegralValue(2.0, 0.5) == ball.IntegralValue(1.5, 0.5)


class TestOneDimensional:
    def test_error_function_identity(self):
        # zero multiplicity reduces to the error function of sqrt(rho/2lambda)
        for rho, lam in [(0.5, 1.0), (1.7, 0.9), (8.0, 2.5)]:
            got = ball_integral_1d(0, rho, lam)
            assert got.value == pytest.approx(
                math.erf(math.sqrt(rho / (2.0 * lam))), rel=1e-14)
            assert got.est_abs_error <= 1e-12 * got.value

    def test_normalization_limit(self):
        assert ball_integral_1d(0, 1e9, 1.0).value == pytest.approx(1.0, abs=1e-12)

    def test_semifactorial_limit(self):
        assert ball_integral_1d(2, 1e9, 1.0).value == pytest.approx(3.0, rel=1e-12)
        assert ball_integral_1d(3, 1e9, 2.0).value == pytest.approx(15.0, rel=1e-12)
        # rho / (2 lambda) overflows to inf: the whole-line limit
        assert ball_integral_1d(2, 1e308, 1e-10).value == pytest.approx(3.0, rel=1e-12)

    def test_members_within_error_bars_of_50_digits(self):
        # x = rho / (2 lambda) log-uniform on [1e-30, 1e6], plus 1e100 and
        # 1e300: every member k = 0..6 lies within its est_abs_error of
        # (2k - 1)!! P(k + 1/2, x) at 50 digits
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        family = [MultiIndex((k,)) for k in range(7)]
        xs = np.exp(rng.uniform(math.log(1e-30), math.log(1e6), 403))
        for x in [*xs, 1e100, 1e300]:
            lam = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
            rho = 2.0 * lam * float(x)
            got = ball_integrals(family, rho, Spectrum((lam,)))
            with mpmath.workdps(50):
                for index in family:
                    k = index.multiplicities[0]
                    exact = index.factorized_bound() * mpmath.gammainc(
                        k + 0.5, 0, mpmath.mpf(rho) / (2 * mpmath.mpf(lam)),
                        regularized=True)
                    miss = abs(mpmath.mpf(got[index].value) - exact)
                    assert miss <= got[index].est_abs_error, (rho, lam, k)
        # far out P(k + 1/2, x) rounds to 1, so the moments take their
        # whole-line values to the bit
        for rho, lam in itertools.product((1e6, 1e100, 1e300), (1.0, 2.5)):
            moments = conditional_moments(rho, Spectrum((lam,)))
            assert moments.second == (lam,)
            assert moments.fourth == (3.0 * lam * lam,)
            assert ball_integral_1d(2, rho, lam).value == 3.0


class TestQuadrature:
    def test_equal_variance_exponential_identity(self):
        # lambda = (1,1): the squared norm is exponential with mean 2
        spec = Spectrum((1.0, 1.0))
        for rho in (0.3, 1.0, 2.0, 7.0):
            got = ball_integral(MultiIndex((0, 0)), rho, spec)
            assert got.value == pytest.approx(1.0 - math.exp(-rho / 2.0), abs=1e-12)

    def test_normalization_any_dimension(self):
        for lams in [(1.0,), (1.0, 2.0), (0.5, 1.0, 2.0), (1.0, 1.5, 2.0, 3.0)]:
            spec = Spectrum(lams)
            got = ball_integral(MultiIndex.zero(spec.v), 5e5 * max(lams), spec)
            assert got.value == pytest.approx(1.0, abs=1e-9)

    def test_gamma_overflow_is_numeric_error(self):
        # Gamma(200.5) overflows float64 on every route
        with pytest.raises(NumericError):
            ball_integral(MultiIndex((200, 0)), 1e4, Spectrum((1.0, 1.0)))
        with pytest.raises(NumericError):
            ball_integral(MultiIndex((200,)), 1e4, Spectrum((1.0,)))

    def test_leaf_past_float_range_is_numeric_error(self):
        # 2^k leaves float range at k = 1024 and leaked OverflowError
        with pytest.raises(NumericError, match="multiplicity 1024"):
            ball_integral(MultiIndex((1024, 0)), 5.0, Spectrum((1.0, 2.0)))

    def test_fold_overflow_is_numeric_error_under_warnings_as_errors(self):
        # (100, 100) overflows in the quadrature's fold: a caller that turns
        # warnings into errors still gets the typed error, not numpy's warning
        ball._alpha_quad.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="evaluated to inf"):
                ball_integral(MultiIndex((100, 100)), 1e4, Spectrum((1.0, 1.0)))

    def test_error_estimate_brackets_truth(self):
        spec = Spectrum((1.0, 2.0))
        got = ball_integral(MultiIndex((0, 0)), 2.0, spec)
        exact = None
        # independent oracle: adaptive quadrature of the slice integral
        from scipy.integrate import quad

        def outer(x):
            r = 2.0 - x * x
            inner = math.erf(math.sqrt(r / 2.0)) if r > 0 else 0.0
            return math.exp(-x * x / 4.0) / math.sqrt(4.0 * math.pi) * inner

        exact, _ = quad(outer, -math.sqrt(2.0), math.sqrt(2.0), limit=200)
        assert got.value == pytest.approx(exact, abs=1e-11)

    def test_monotone_in_radius(self):
        spec = Spectrum((1.0, 2.0, 3.0))
        idx = MultiIndex((1, 0, 0))
        vals = [ball_integral(idx, rho, spec).value
                for rho in np.geomspace(0.2, 40.0, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_each_variance(self):
        idx = MultiIndex((0, 1))
        rho = 3.0
        for dim in range(2):
            vals = []
            for lam in np.geomspace(0.4, 5.0, 8):
                lams = [1.0, 1.5]
                lams[dim] = float(lam)
                vals.append(ball_integral(idx, rho, Spectrum(tuple(lams))).value)
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_factorization_at_large_radius(self):
        rng = np.random.default_rng(17)
        for v in (2, 3, 4):
            lams = tuple(float(x) for x in rng.uniform(0.5, 2.5, size=v))
            ks = tuple(int(k) for k in rng.integers(0, 3, size=v))
            spec = Spectrum(lams)
            idx = MultiIndex(ks)
            gaps = []
            for rho in (30.0, 60.0, 120.0):
                joint = ball_integral(idx, rho, spec).value
                split = math.prod(
                    ball_integral_1d(k, rho, lam).value
                    for k, lam in zip(ks, lams))
                gaps.append(abs(joint - split))
            assert gaps[-1] < gaps[0]
            assert gaps[-1] < 1e-8

    def test_fractional_distance_ordering(self):
        # the relative distance to the infinite-radius limit grows with the
        # multiplicity: higher moments saturate more slowly
        for rho, lam in [(2.0, 1.0), (6.0, 0.7), (15.0, 2.0)]:
            dist = []
            for k in range(5):
                val = ball_integral_1d(k, rho, lam).value
                limit = float(MultiIndex((k,)).factorized_bound())
                dist.append((limit - val) / val)
            assert all(b >= a - 1e-12 for a, b in zip(dist, dist[1:]))

    def test_extreme_anisotropy_against_oracle(self):
        spec = Spectrum((1e-3, 1e3))
        idx = MultiIndex((1, 1))
        rho = 10.0
        quad = ball_integral(idx, rho, spec)
        mc = ball_integral_mc(idx, rho, spec, 2_000_000, seed=314)
        assert abs(quad.value - mc.mean) < 3.0 * mc.std_error

    def test_log_concavity_in_radius(self):
        spec = Spectrum((0.7, 1.8, 3.1))
        idx = MultiIndex.zero(3)
        rng = np.random.default_rng(23)
        for _ in range(25):
            r1, r2 = rng.uniform(0.3, 25.0, size=2)
            s = float(rng.uniform(0.0, 1.0))
            left = ball_integral(idx, float(s * r1 + (1 - s) * r2), spec).value
            right = (ball_integral(idx, float(r1), spec).value ** s
                     * ball_integral(idx, float(r2), spec).value ** (1 - s))
            assert left >= right * (1.0 - 1e-12)

    def test_high_dimensional_path(self):
        spec5 = Spectrum((1.0, 2.0, 3.0, 0.5, 1.5))
        got = ball_integral(MultiIndex((0, 1, 0, 0, 0)), 10.0, spec5)
        est = ball_integral_mc(MultiIndex((0, 1, 0, 0, 0)), 10.0, spec5,
                               200_000, seed=99)
        assert abs(got.value - est.mean) < 3.0 * est.std_error


def _ruben_weights(ks, lams, one):
    """Ruben's mixture weights of the member ``ks`` in integers of unit 1 /
    ``one``, one at a time, from their log-derivative recurrence k w_k =
    sum_m g_m w_(k-m), g_m = sum_j (k_j + 1/2) c_j^m, w_0 = prod_j (beta /
    lambda_j)^(k_j + 1/2), with c_j = 1 - beta / lambda_j and beta = min
    lambda_j.  ``lams`` are mpmath numbers, read at the caller's precision.
    Every weight is positive and below 1, and only the floor of each power
    and division rounds."""
    mpmath = pytest.importorskip("mpmath")
    beta = min(lams)
    nu, c_fixed = [2 * k + 1 for k in ks], [int(one * (1 - beta / lam)) for lam in lams]
    g, powers = [None], c_fixed
    w = [int(one * mpmath.fprod((beta / lam) ** (mpmath.mpf(n) / 2)
                                for lam, n in zip(lams, nu)))]
    yield w[0]
    for k in itertools.count(1):
        g.append(sum(map(operator.mul, nu, powers)) // 2)
        powers = [p * cj // one for p, cj in zip(powers, c_fixed)]
        w.append(sum(map(operator.mul, g[1:], reversed(w))) // (k * one))
        yield w[-1]


def _gammainc_ladder(s, x, top):
    """P(s + m, x) for m = 0..top at the caller's mpmath precision, summed
    down from mpmath's regularized gammainc at the top: P(t - 1, x) = P(t,
    x) + x^(t-1) e^-x / Gamma(t)."""
    mpmath = pytest.importorskip("mpmath")
    s = s + top
    ladder = [mpmath.gammainc(s, 0, x, regularized=True)]
    term = mpmath.exp(s * mpmath.log(x) - x - mpmath.loggamma(s + 1))
    for _ in range(top):
        term *= s / x
        s -= 1
        ladder.append(ladder[-1] + term)
    return ladder[::-1]


def _ruben_mp(family, lams, rho, dps=40):
    """Ruben's mixture for each member of ``family`` at ``dps`` digits, by a
    route the library does not take: each member's weights from their own
    recurrence (:func:`_ruben_weights`), with no weights shared between
    members; and the CDF ladder summed down from mpmath's gammainc at its
    top (:func:`_gammainc_ladder`).  The recurrence runs in integers of unit
    2^-256 (77 digits).  A member takes 64 more terms at a time until its
    truncation bound is below 1e-35 of its value."""
    mpmath = pytest.importorskip("mpmath")
    one = 1 << 256
    with mpmath.workdps(dps):
        lams = [mpmath.mpf(lam) for lam in lams]
        x = mpmath.mpf(rho) / (2 * min(lams))
        ladder, out = [], {}
        for ks in family:
            order, weights = sum(ks), _ruben_weights(ks, lams, one)
            w = [next(weights)]
            while True:
                w += itertools.islice(weights, 64)
                if len(ladder) <= order + len(w):
                    ladder = _gammainc_ladder(mpmath.mpf(len(lams)) / 2, x,
                                              2 * (order + len(w)))
                value = mpmath.fdot(w, ladder[order:]) / one
                if (one - sum(w)) * ladder[order + len(w)] <= 1e-35 * one * value:
                    break
            out[ks] = value * math.prod(math.prod(range(1, 2 * k, 2)) for k in ks)
        return out


def _within_bars_of_40_digits(family, lams, rho):
    """Assert that every member of ``family`` lies within its error bar of
    :func:`_ruben_mp`."""
    mpmath = pytest.importorskip("mpmath")
    got = ball_integrals(family, rho, Spectrum(lams))
    exact = _ruben_mp([index.multiplicities for index in family], lams, rho)
    for index in family:
        miss = abs(mpmath.mpf(got[index].value) - exact[index.multiplicities])
        assert miss <= got[index].est_abs_error, index


# A v = 5 geometry where the 24/16-node rule overshot the bound of
# (0, 0, 0, 0, 2): the narrow last variance carries k = 2.
NARROW5 = Spectrum((1.9636184801131922, 2.687901997421187, 0.19853898423447447,
                    0.5663099241805805, 0.0694934091695928))

# Members the v >= 5 quadrature got wrong, with their 40-digit mixture values:
# it raised on the first two (3.0054 and 3.000090497251652, above their bound
# of 3), and put the third 3.4e-7 off with an error bar of 4.06e-11.
WITNESSES = [
    (NARROW5.lambdas, 60.0, (0, 0, 0, 0, 2), "2.99998177948889647104347"),
    ((0.3, 0.5, 0.9, 1.4, 2.0, 3.0), 150.0, (0, 2, 0, 0, 0, 0),
     "2.99999999997722505235759"),
    ((1.9969779647191641, 0.4309042145354523, 0.7624649909553098,
      0.35529947562361974, 2.163516371647998), 49.17295778939401,
     (0, 0, 0, 2, 0), "2.99994827833472765309444"),
]

# A geometry whose members need more mixture terms than the route allows:
# lambda_max / lambda_min = 1000 and rho / lambda_min = 2e4.
BEYOND_BUDGET = (20.0, Spectrum((0.001, 1.0, 1.0, 1.0, 1.0)))


class TestMixture:
    @pytest.mark.parametrize("lams, rho, ks, exact", WITNESSES)
    def test_witness_within_its_error_bar(self, lams, rho, ks, exact):
        spec = Spectrum(lams)
        got = ball_integrals(_index_family(spec.v).values(), rho, spec)[MultiIndex(ks)]
        assert abs(Decimal(got.value) - Decimal(exact)) <= got.est_abs_error

    def test_witness_values(self):
        # the 40-digit reference gives the pinned witness values
        mpmath = pytest.importorskip("mpmath")
        for lams, rho, ks, exact in WITNESSES:
            value = _ruben_mp([ks], lams, rho)[ks]
            with mpmath.workdps(40):
                assert abs(value - mpmath.mpf(exact)) < 1e-23

    def test_members_within_error_bars_of_40_digits(self):
        # lambda log-uniform on [0.3, 3], rho / lambda_max log-uniform on
        # [0.5, 50]: every order-2 member of three geometries per v, and of
        # the witness geometries.  Holding 2e-14 relative needs the truncation
        # bound well below the rounding term (ball._MIXTURE_STOP).
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2026)
        geometries = []
        for v in range(5, 9):
            for _ in range(3):
                lams = tuple(float(x) for x in np.exp(rng.uniform(
                    math.log(0.3), math.log(3.0), v)))
                geometries.append((lams, max(lams) * float(np.exp(
                    rng.uniform(math.log(0.5), math.log(50.0))))))
        geometries += [(lams, rho) for lams, rho, _, _ in WITNESSES]
        worst = 0.0
        for lams, rho in geometries:
            family = list(_index_family(len(lams)).values())
            got = ball_integrals(family, rho, Spectrum(lams))
            exact = _ruben_mp([index.multiplicities for index in family], lams, rho)
            for index in family:
                member, want = got[index], exact[index.multiplicities]
                miss = abs(mpmath.mpf(member.value) - want)
                assert miss <= member.est_abs_error, (lams, rho, index)
                worst = max(worst, float(miss / want))
        assert worst <= 2e-14, worst

    @pytest.mark.parametrize("lams, rho", [
        ((0.4, 0.9, 1.3, 2.2, 2.8), 12.0),
        ((0.3, 0.3, 0.8, 1.7, 2.5, 3.0), 40.0),
        ((1.1, 0.6, 2.4, 0.9, 1.8, 0.5, 2.9), 3.0),
    ])
    def test_higher_orders_within_error_bars_of_40_digits(self, lams, rho):
        # chains of three to six bumps, on one coordinate and spread over
        # several, some on lambda_min: each member within its bar
        v = len(lams)
        _within_bars_of_40_digits([
            MultiIndex.single(v, 0, 3), MultiIndex.single(v, v - 1, 4),
            MultiIndex((1, 2) + (0,) * (v - 3) + (3,)),
            MultiIndex((2,) * 3 + (0,) * (v - 3)), MultiIndex((1,) * v)], lams, rho)

    def test_agrees_with_monte_carlo_above_six(self):
        # v = 7..20, three members each, under criterion 8's Bonferroni rule
        # (suite false-alarm rate 1e-3 over the 42 z scores)
        rng = np.random.default_rng(np.random.Philox(key=2027))
        zs = []
        for v in range(7, 21):
            lams = tuple(float(x) for x in np.exp(rng.uniform(
                math.log(0.3), math.log(3.0), v)))
            rho = float(rng.uniform(0.5, 1.5) * sum(lams))
            spec = Spectrum(lams)
            family = [MultiIndex.zero(v), MultiIndex.single(v, 0),
                      MultiIndex.single(v, v - 1, 2)]
            got = ball_integrals(family, rho, spec)
            sampled = ball_integrals_mc(family, rho, spec, 200_000, seed=700 + v)
            zs += [(got[index].value - sampled[index].mean) / sampled[index].std_error
                   for index in family]
        assert _oracle_agrees(zs), max(map(abs, zs))

    @pytest.mark.parametrize("v", range(5, 21))
    def test_isotropic_closed_form(self, v):
        # equal variances: alpha_k = prod (2 k_j - 1)!! P(v/2 + |k|, rho / 2 lambda)
        lam = 1.3
        spec = Spectrum((lam,) * v)
        family = [MultiIndex.zero(v), MultiIndex.single(v, 0),
                  MultiIndex.single(v, v - 1, 2),
                  MultiIndex.zero(v).bump(0).bump(v - 1)]
        for rho in (0.1 * lam, lam * v, 50.0 * lam * v):
            got = ball_integrals(family, rho, spec)
            for index in family:
                exact = index.factorized_bound() * gammainc(
                    v / 2 + index.order, rho / (2 * lam))
                assert abs(got[index].value - exact) <= got[index].est_abs_error, (
                    rho, index)

    @pytest.mark.parametrize("lams, rho", [
        ((0.5, 0.5, 1.0, 2.0, 3.0), 1.0),
        ((0.5, 0.5, 1.0, 2.0, 3.0), 10.0),
        ((0.5, 0.5, 1.0, 2.0, 3.0), 100.0),
        ((0.7, 0.7, 0.7, 1.3, 2.9, 2.9), 20.0),
    ])
    def test_ties_at_lambda_min_within_error_bars_of_40_digits(self, lams, rho):
        # coordinates tied at lambda_min take identity bumps (c = 0) beside
        # bumps off it, in the singles, the pairs and the pairs that mix them
        _within_bars_of_40_digits(list(_index_family(len(lams)).values()), lams, rho)

    def test_zero_index_series_built_once_per_term_count(self, monkeypatch):
        # an order-2 family at v = 8 (45 members) builds the zero index's
        # row, over each coordinate off lambda_min, once per term count; its
        # members take bumps from that row
        lams = tuple(float(lam) for lam in np.geomspace(0.3, 3.0, 8))
        built, real = collections.Counter(), ball._base_row

        def counted(ratio, c, size):
            for j in np.flatnonzero(c > 0):
                built[j, size] += 1
            return real(ratio, c, size)

        monkeypatch.setattr(ball, "_base_row", counted)
        ball_integrals(_index_family(8).values(), 150.0, Spectrum(lams))
        sizes = {size for _, size in built}
        assert len(sizes) > 1  # the family needs more than one term count
        assert built == {(j, size): 1 for j in range(1, 8) for size in sizes}

    @pytest.mark.parametrize("v", [1, 2, 3, 5, 8])
    def test_ladder_within_its_bounds_of_40_digits(self, v):
        # every entry within its bound of 40-digit regularized gammainc, with
        # top past the window; the entries below the window are P(s0, x) and
        # those above it 0, which the exact value rounds to
        mpmath = pytest.importorskip("mpmath")
        s0 = v / 2 % 1.0
        for x in (1e-6, 0.5, 3.0, 50.0, 1000.0, 6000.0, 1e4):
            lo = max(0, math.ceil(x - s0 - 40.0 * math.sqrt(x)))
            hi = math.ceil(x + 40.0 * math.sqrt(x) + 760.0) - lo  # past the window
            top = lo + hi + 40
            got, bound = ball._ladder(v, x, top)
            assert (got[:lo] == got[0]).all() and not got[lo + hi:].any()
            assert not bound[lo + hi:].any()
            with mpmath.workdps(40):
                exact = _gammainc_ladder(mpmath.mpf(s0), mpmath.mpf(x), top)
                assert all(value < mpmath.mpf(2) ** -1075 for value in exact[lo + hi:]), x
                # a subnormal entry's bound underflows with it (see _ladder)
                for m, want in enumerate(exact[:lo + hi]):
                    if want >= np.finfo(float).tiny:
                        assert abs(got[m] - want) <= bound[m], (x, m)

    @pytest.mark.parametrize("v", [2, 3, 5, 8, 13, 21, 40])
    def test_base_row_prefixes_and_rounding(self, v):
        # a longer row's prefix is the shorter row, bit for bit, which the
        # wave carried across term counts relies on; each entry is within
        # (3d + (d + 5) i) eps of the exact zero-index weight, d coordinates
        # off lambda_min, on weights of at least 1e-30, far above the
        # recurrence's unit of 2^-256
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3800 + v)
        lams = np.exp(rng.uniform(math.log(0.3), math.log(3.0), v))
        lams[rng.choice(v, size=min(2, v - 1), replace=False)] = lams.min()  # ties
        beta = lams.min()
        ratio, c = beta / lams, (lams - beta) / lams
        row = ball._base_row(ratio, c, 4098)
        for size in (33, 64, 66, 130, 258, 1026, 2049):
            assert np.array_equal(ball._base_row(ratio, c, size), row[:size]), size
        one, size, d = 1 << 256, 1026, int((c > 0).sum())
        with mpmath.workdps(40):
            weights = _ruben_weights((0,) * v, [mpmath.mpf(lam) for lam in lams.tolist()], one)
            for i, w in enumerate(itertools.islice(weights, size)):
                exact = mpmath.mpf(w) / one
                if exact >= 1e-30:
                    miss = abs(row[i] - exact)
                    assert miss <= (3 * d + (d + 5) * i) * ball._EPS * exact, i

    @pytest.mark.xfail(strict=True, raises=NumericError, reason=(
        "ROADMAP 4(l): the v = 2..4 quadrature overshoots the exact bound of "
        "a member of multiplicity k >= 4 on a sliced coordinate at large "
        "rho / lambda; stage B is the fix"))
    @pytest.mark.parametrize("ks, rho", [
        # reads 6.367298e117 against the bound 6.364520e117; the mixture
        # reads 6.364520e117 with a 2.6e104 bar
        ((40, 40), 1e4),
        # each reads 105.0000013 against the bound 105; the mixture reads
        # 105 with a bar near 1e-11
        ((0, 4), 1e3),
        ((0, 0, 0, 4), 1e3),
    ])
    def test_high_order_within_its_bar_of_the_mixture(self, ks, rho):
        index, spec = MultiIndex(ks), Spectrum((1.0,) * len(ks))
        got = ball_integral(index, rho, spec)
        (value,), _ = ball._alpha_mixture((index.multiplicities,), spec.lambdas, rho)
        assert abs(got.value - value) <= got.est_abs_error

    def test_capability_error_beyond_term_budget(self):
        rho, spec = BEYOND_BUDGET
        with pytest.raises(CapabilityError, match="ball_integrals_mc"):
            ball_integral(MultiIndex.zero(spec.v), rho, spec)

    @pytest.mark.parametrize("v", [1, 5])
    def test_order_beyond_term_budget(self, v):
        # a member above the term budget raises before it reads the ladder
        index = MultiIndex.single(v, 0, ball._MIXTURE_MAX_TERMS + 1)
        with pytest.raises(CapabilityError, match="ball_integrals_mc"):
            ball_integral(index, 5.0, Spectrum(tuple(range(1, v + 1))))

    @pytest.mark.parametrize("v", [1, 5])
    def test_scale_past_float_range_raises_no_warning(self, v):
        # (399)!! lies past the route's float scale: its array product raises
        # no RuntimeWarning (an error in this suite), whatever the member
        # then reads as
        index = MultiIndex.single(v, v - 1, 200)
        try:
            ball_integral(index, 1.0, Spectrum(tuple(range(1, v + 1))))
        except NumericError:
            pass

    @pytest.mark.xfail(strict=True, raises=NumericError, reason=(
        "ROADMAP 18: the mixture scales by (2k - 1)!! as a float, past float "
        "range from k = 151, so a finite member reads as nan (0 x inf)"))
    @pytest.mark.parametrize("v", [1, 5])
    def test_scale_past_float_range_within_its_bar(self, v):
        # equal variances: (2k - 1)!! P(v/2 + k, rho / 2), at v = 1 (399)!!
        # P(200.5, 1/2) = 1.2098385752e-03
        mpmath = pytest.importorskip("mpmath")
        index = MultiIndex.single(v, v - 1, 200)
        got = ball_integral(index, 1.0, Spectrum((1.0,) * v))
        with mpmath.workdps(30):
            exact = index.factorized_bound() * mpmath.gammainc(
                mpmath.mpf(v) / 2 + 200, 0, mpmath.mpf(1) / 2, regularized=True)
        assert abs(got.value - exact) <= got.est_abs_error


class TestFamily:
    @pytest.mark.parametrize("v", range(1, 9))
    def test_members_equal_one_member_evaluations(self, v):
        rng = np.random.default_rng(100 + v)
        family = [*_index_family(v).values(), MultiIndex.single(v, v - 1, 3)]
        for _ in range(2 if v < 5 else 1):
            spec = Spectrum(tuple(float(x) for x in rng.uniform(0.2, 3.0, v)))
            for rho in (0.3, 4.0, 40.0):
                rho *= float(rng.uniform(0.8, 1.25))
                together = ball_integrals(family, rho, spec)
                assert list(together) == family
                for index in family:
                    alone = ball_integrals([index], rho, spec)[index]
                    assert together[index] == alone
                    assert alone == ball_integral(index, rho, spec)

    def test_a_high_order_member_moves_no_other_bits(self):
        # every chain is padded with identity bumps to the family's most
        # bumps, and the blocks narrow, yet an order-12 member beside the
        # order-2 family changes no bit
        spec = Spectrum((0.7, 1.9, 0.4, 2.6, 1.2, 3.1))
        family = list(_index_family(spec.v).values())
        alone = ball_integrals(family, 25.0, spec)
        beside = ball_integrals(family + [MultiIndex((0, 5, 0, 7, 0, 0))], 25.0, spec)
        assert all(beside[index] == alone[index] for index in family)

    @pytest.mark.parametrize("block", [1, 7, 200])
    def test_mixture_blocks_move_no_bits(self, monkeypatch, block):
        # a block of one lane runs one term at a time, and the first block
        # its T extra waves alone; two families run past one doubling, and
        # one has no bumps off lambda_min (T = 0)
        cases = [(Spectrum((0.7, 1.9, 0.4, 2.6, 1.2, 3.1)), 25.0,
                  [*_index_family(6).values(), MultiIndex((0, 5, 0, 7, 0, 0))]),
                 (Spectrum((1.0,) + (100.0,) * 7), 7000.0,
                  [*_index_family(8).values(), MultiIndex.single(8, 7, 40)]),
                 (Spectrum((1.3,)), 5.0, [MultiIndex((k,)) for k in range(6)])]
        whole = [ball_integrals(family, rho, spec) for spec, rho, family in cases]
        monkeypatch.setattr(ball, "_LEAF_BLOCK", block)
        for (spec, rho, family), want in zip(cases, whole):
            assert ball_integrals(family, rho, spec) == want

    @pytest.mark.parametrize("v", [1, 3, 5])
    def test_empty_family(self, v):
        assert len(ball_integrals([], 5.0, Spectrum(tuple(range(1, v + 1))))) == 0

    def test_member_past_its_factorized_bound_is_numeric_error(self):
        # checked when the member is read; the error names the index
        index = MultiIndex((1, 2))
        family = ball.BallIntegrals({index: (1.01 * index.factorized_bound(), 0.0)})
        with pytest.raises(NumericError, match=r"exceeds its factorized bound 3 "
                                               r"for index \(1, 2\)$"):
            family[index]

    @pytest.mark.parametrize("k, rho", [(200, 1.0), (170, 50.0)])
    def test_factorized_bound_past_float_range(self, k, rho):
        # from k = 151, (2k - 1)!! lies past float range: the bound check
        # compares the value with the exact integer, where it overflowed
        mpmath = pytest.importorskip("mpmath")
        index = MultiIndex((k, 0))
        got = ball_integral(index, rho, Spectrum((1.0, 1.0)))
        with mpmath.workdps(30):  # equal variances: (2k - 1)!! P(1 + k, rho / 2)
            exact = index.factorized_bound() * mpmath.gammainc(
                1 + k, 0, mpmath.mpf(rho) / 2, regularized=True)
        assert abs(got.value - exact) <= got.est_abs_error

    def test_one_dimensional_family(self):
        spec = Spectrum((1.7,))
        family = [MultiIndex((k,)) for k in range(4)]
        together = ball_integrals(family, 2.5, spec)
        for index in family:
            assert together[index] == ball_integral_1d(
                index.multiplicities[0], 2.5, 1.7)

    @pytest.mark.parametrize("v, block", [(3, 1), (4, 100), (4, 11520)])
    def test_block_boundaries(self, monkeypatch, v, block):
        # at any block size members equal their one-member evaluations, and
        # agree with the whole leaf in one block to rounding; the family has
        # every leaf multiplicity, and powers on inner and outer levels.  A
        # block holds at least one outer node; five at v = 4 and 11520
        # lanes, so partial blocks end both rules.
        spec = Spectrum((1.0, 2.0, 0.3, 1.4)[:v])
        family = [MultiIndex.zero(v), MultiIndex.single(v, 0),
                  MultiIndex.single(v, 0, 2), MultiIndex.single(v, 0).bump(1),
                  MultiIndex.single(v, 1).bump(v - 1), MultiIndex.single(v, v - 1, 2)]
        monkeypatch.setattr(ball, "_LEAF_BLOCK", 1 << 30)
        ball._alpha_quad.cache_clear()
        whole = ball_integrals(family, 3.0, spec)
        monkeypatch.setattr(ball, "_LEAF_BLOCK", block)
        ball._alpha_quad.cache_clear()
        try:
            blocked = ball_integrals(family, 3.0, spec)
            for index in family:
                alone = ball_integrals([index], 3.0, spec)[index]
                assert blocked[index] == alone
                assert abs(alone.value - whole[index].value) <= (
                    1e-15 * whole[index].value)
        finally:
            ball._alpha_quad.cache_clear()

    def test_leaf_lanes_arrive_ascending(self, monkeypatch):
        # the quadrature orders each leaf block once, so every incomplete
        # gamma it calls gets one ascending vector and every leaf
        # multiplicity k_1 as an order; at v = 4 the leaf spans several
        # blocks, and each block is its own call.  v = 1 runs the
        # chi-square mixture, which calls none
        calls = []
        real = ball._lower_incomplete_gamma_vec

        def recorded(s, x, orders):
            calls.append((s, x.ndim == 1 and bool(np.all(x[1:] >= x[:-1])), orders))
            return real(s, x, orders)

        monkeypatch.setattr(ball, "_lower_incomplete_gamma_vec", recorded)
        ball._alpha_quad.cache_clear()
        lams = (1.0, 2.0, 0.3, 1.4)
        for v in range(1, 5):
            family = [*_index_family(v).values(), MultiIndex.single(v, 0, 3)]
            leaf_ks = tuple(dict.fromkeys(index.multiplicities[0] for index in family))
            calls.clear()
            ball_integrals(family, 3.0, Spectrum(lams[:v]))
            if v == 1:
                assert calls == []
            else:  # 12 blocks at v = 4: 7 of the value's 48 outer nodes, 5 of the check's 32
                assert calls == [(0.5, True, leaf_ks)] * (12 if v == 4 else 1)
        ball._alpha_quad.cache_clear()

    def test_threads_match_serial(self):
        # the blocked pass shares no buffer between calls, so four threads
        # over eight geometries give the serial bytes
        rng = np.random.default_rng(44)
        family = list(_index_family(4).values())
        geometries = [(float(rng.uniform(0.5, 20.0)),
                       Spectrum(tuple(float(x) for x in rng.uniform(0.3, 3.0, 4))))
                      for _ in range(8)]

        def evaluate(geometry):
            together = ball_integrals(family, *geometry)
            return [(together[index].value, together[index].est_abs_error)
                    for index in family]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ball._alpha_quad.cache_clear()
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(evaluate, g) for g in geometries]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(old)
        ball._alpha_quad.cache_clear()
        assert threaded == [evaluate(g) for g in geometries]

    def test_memory_is_bounded(self):
        # a v = 4 family holds one block of leaf lanes at a time (2.2 MB
        # peak), never its whole 80 x 48^2-lane leaf (17.5 MB peak)
        spec = Spectrum((1.0, 2.0, 0.3, 1.4))
        ball._alpha_quad.cache_clear()
        tracemalloc.start()
        try:
            ball_integrals(_index_family(4).values(), 3.0, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_failure_raises_only_when_read(self):
        # at rho = 1e-110 the order-2 members underflow, the others do not
        spec = Spectrum((1.0, 2.0))
        family = list(_index_family(2).values())
        together = ball_integrals(family, 1e-110, spec)
        for index in family:
            if index.order < 2:
                assert together[index].value > 0.0
                continue
            with pytest.raises(NumericError, match="evaluated to 0.0"):
                together[index]
            with pytest.raises(NumericError, match="evaluated to 0.0"):
                ball_integral(index, 1e-110, spec)

    def test_input_errors_raise_at_once(self):
        with pytest.raises(DomainError):
            ball_integrals([MultiIndex.zero(3)], 1.0, Spectrum((1.0, 2.0)))
        with pytest.raises(DomainError):
            ball_integrals([MultiIndex.zero(2)], -1.0, Spectrum((1.0, 2.0)))
        rho, spec = BEYOND_BUDGET
        with pytest.raises(CapabilityError):
            ball_integrals([MultiIndex.zero(spec.v)], rho, spec)

    @pytest.mark.parametrize("indices", [MultiIndex((0,)), None])
    def test_indices_must_be_iterable(self, indices):
        # a bare MultiIndex, or None, where an iterable of them belongs
        spec = Spectrum((1.0,))
        with pytest.raises(DomainError, match="iterable of MultiIndex"):
            ball_integrals(indices, 1.0, spec)
        with pytest.raises(DomainError, match="iterable of MultiIndex"):
            ball_integrals_mc(indices, 1.0, spec, 10_000, seed=1)

    def test_quadrature_cache_is_bounded(self):
        # a sweep that visits each geometry once keeps only the last 256
        # families (about 100 KB); 4096 entries kept all 2000, 860 KB.  Small
        # radii keep the series, and so the traced sweep, short.
        rng = np.random.default_rng(31)
        family = list(_index_family(3).values())
        ball._alpha_quad.cache_clear()
        tracemalloc.start()
        try:
            for _ in range(1000):
                spec = Spectrum(tuple(float(x) for x in rng.uniform(0.3, 3.0, 3)))
                ball_integrals(family, float(rng.uniform(0.2, 1.0)), spec)
            info = ball._alpha_quad.cache_info()
            held = tracemalloc.get_traced_memory()[0]
            ball._alpha_quad.cache_clear()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert info.currsize <= 256
        assert held < 512 * 1024

    def test_index_family_is_one_read_only_mapping(self):
        # every call gives the same mapping, which a caller cannot mutate
        family = _index_family(3)
        assert _index_family(3) is family
        assert len(family) == 1 + 3 + 6
        with pytest.raises(TypeError):
            family[(0, 0, 0)] = MultiIndex.single(3, 0, 3)

    def test_index_family_members_in_lexicographic_order(self):
        # keyed by each member's sorted dimensions, members in the order of
        # their multiplicities
        for v in range(1, 8):
            want = [ks for ks in itertools.product(range(3), repeat=v) if sum(ks) <= 2]
            family = _index_family(v)
            assert [idx.multiplicities for idx in family.values()] == want, v
            for dims, idx in family.items():
                assert list(dims) == sorted(dims)
                assert idx == MultiIndex(tuple(dims.count(d) for d in range(v)))

    @pytest.mark.parametrize("v", sorted(PINNED_ORDER_TWO))
    def test_order_two_family_is_pinned(self, v):
        rho, lams, pinned = PINNED_ORDER_TWO[v]
        family = list(_index_family(v).values())
        got = ball_integrals(family, rho, Spectrum(lams))
        assert [(index.multiplicities, got[index].value.hex(),
                 got[index].est_abs_error.hex()) for index in family] == pinned


class TestMonteCarlo:
    def test_all_kept_at_huge_radius(self):
        spec = Spectrum((1.0, 2.0))
        est = ball_integral_mc(MultiIndex((0, 0)), 1e6, spec, 50_000, seed=1)
        assert est.n_kept == est.n_total
        assert est.mean == pytest.approx(1.0, abs=1e-12)

    def test_against_closed_form_1d(self):
        est = ball_integral_mc(MultiIndex((1,)), 1.0, Spectrum((1.0,)),
                               1_000_000, seed=1234)
        ref = ball_integral_1d(1, 1.0, 1.0).value
        assert abs(est.mean - ref) < 3.0 * est.std_error

    def test_against_quadrature_3d(self):
        spec = Spectrum((1.0, 2.0, 3.0))
        idx = MultiIndex((0, 1, 1))
        est = ball_integral_mc(idx, 10.0, spec, 1_000_000, seed=77)
        ref = ball_integral(idx, 10.0, spec).value
        assert abs(est.mean - ref) < 3.0 * est.std_error

    def test_against_quadrature_2d_large_budget(self):
        spec = Spectrum((1.0, 2.0))
        idx = MultiIndex((1, 0))
        est = ball_integral_mc(idx, 4.0, spec, 10_000_000, seed=2024)
        ref = ball_integral(idx, 4.0, spec).value
        assert abs(est.mean - ref) < 3.0 * est.std_error
        assert est.n_kept <= est.n_total

    def test_reproducible_per_seed(self):
        spec = Spectrum((1.0, 2.0))
        a = ball_integral_mc(MultiIndex((1, 0)), 4.0, spec, 100_000, seed=42)
        b = ball_integral_mc(MultiIndex((1, 0)), 4.0, spec, 100_000, seed=42)
        assert (a.mean, a.std_error, a.n_kept) == (b.mean, b.std_error, b.n_kept)
        c = ball_integral_mc(MultiIndex((1, 0)), 4.0, spec, 100_000, seed=43)
        assert c.mean != a.mean

    def test_stream_is_sfc64_coordinate_major(self):
        # pins the draws, written out point by point: a block of `size`
        # draws at v = 3 is one flat run of 3 * size values of z^2, read
        # coordinate-major (every draw's first coordinate, then every
        # draw's second, ...), from m = (3 * size + 1) // 2 quarter-disc
        # points of SFC64(seed).  Slot i takes the i-th of m values of u and
        # the i-th of the m values of w after them; every slot with s = u^2
        # + w^2 outside (0, 1) is redrawn from rounds of ceil(4 r / 3)
        # values of u, then of w, for the r slots open, whose points inside
        # fill the open slots in order.  Slot i gives u^2 (-2 ln s) / s to
        # flat value i and w^2 (-2 ln s) / s to flat value m + i.  A full
        # block, and a partial one of odd size, whose last value is drawn
        # and not read.
        lams, rho, seed = (0.5, 1.0, 2.0), 3.0, 91
        n_total = 2 * ball._MC_BLOCK - 1233
        family = [MultiIndex((1, 0, 0)), MultiIndex((0, 1, 1)),
                  MultiIndex((0, 0, 2))]
        est = ball_integrals_mc(family, rho, Spectrum(lams), n_total, seed)
        rng = np.random.Generator(np.random.SFC64(seed))
        n_kept, totals = 0, [0.0] * len(family)
        for size in (ball._MC_BLOCK, n_total - ball._MC_BLOCK):
            m = (3 * size + 1) // 2
            points = list(zip(rng.random(m), rng.random(m)))
            open_slots = [i for i, (u, w) in enumerate(points)
                          if not 0.0 < u * u + w * w < 1.0]
            while open_slots:
                n = math.ceil(4 * len(open_slots) / 3)
                drawn = list(zip(rng.random(n), rng.random(n)))
                inside = [(u, w) for u, w in drawn if 0.0 < u * u + w * w < 1.0]
                for i, point in zip(open_slots, inside):
                    points[i] = point
                open_slots = open_slots[len(inside):]
            rows = [[], []]
            for u, w in points:
                s = u * u + w * w
                f = -2.0 * math.log(s) / s
                rows[0].append(u * u * f)
                rows[1].append(w * w * f)
            z = rows[0] + rows[1]
            for d in range(size):
                z0, z1, z2 = z[d], z[size + d], z[2 * size + d]
                if lams[0] * z0 + lams[1] * z1 + lams[2] * z2 < rho:
                    n_kept += 1
                    for i, y in enumerate((z0, z1 * z2, z2 * z2)):
                        totals[i] += y
        assert [est[index].n_kept for index in family] == [n_kept] * 3
        assert [est[index].mean for index in family] == pytest.approx(
            [total / n_total for total in totals], rel=1e-12)

    @pytest.mark.parametrize("v", [1, 3, 5, 7])
    def test_blocks_draw_at_most_one_value_they_do_not_read(self, monkeypatch, v):
        # a block of `size` draws fills 2 * ((v * size + 1) // 2) values:
        # one spare when v * size is odd, none when it is even.  A full
        # block and a partial one of odd size.
        sizes, calls = (ball._MC_BLOCK, 4321), []
        polar = ball._polar_squares

        def recorded(rng, out):
            calls.append(out.size)
            polar(rng, out)

        monkeypatch.setattr(ball, "_polar_squares", recorded)
        ball_integral_mc(MultiIndex.zero(v), 1e6, Spectrum((1.0,) * v),
                         sum(sizes), seed=v)
        assert [filled - v * size
                for filled, size in zip(calls, sizes, strict=True)] == [0, 1]

    @pytest.mark.parametrize("v", [3, 4, 5])
    def test_all_kept_draws_follow_the_normal_law(self, v):
        # every draw kept, so each member estimates E[prod z_j^(2 k_j)]:
        # E[z^2] = 1, E[z^4] = 3 and E[z_n^2 z_m^2] = 1.  A block's flat
        # values i and (v * size + 1) // 2 + i come from one point: at even
        # v they are coordinates j and v / 2 + j of one draw, at odd v they
        # fall in different draws
        family = list(_index_family(v).values())
        estimates = ball_integrals_mc(family, 1e6, Spectrum((1.0,) * v),
                                      200_000, seed=3 + v)
        for index in family:
            est = estimates[index]
            assert est.n_kept == est.n_total
            assert abs(est.mean - index.factorized_bound()) <= 4.0 * est.std_error

    def test_error_bars_cover_at_the_normal_rate(self):
        # 200 seeded 10k-draw estimates of a member that reads both
        # coordinates of one point, at rho = v lambda (so rho / 2 lambda =
        # v / 2): P(|z| <= 2) = 0.9545, and under
        # Binomial(200, 0.9545) a count below 181 or of 200 has
        # probability 4.4e-4
        v, lam = 3, 1.3
        spec, index = Spectrum((lam,) * v), MultiIndex((1, 0, 1))
        exact = gammainc(v / 2 + 2, v / 2)
        covered = 0
        for seed in range(200):
            est = ball_integral_mc(index, lam * v, spec, 10_000, seed)
            covered += abs(est.mean - exact) <= 2.0 * est.std_error
        assert 181 <= covered <= 199

    def test_point_at_the_origin_is_redrawn(self):
        # u = w = 0 gives s = 0, where -2 ln s / s is inf and u^2 times it
        # NaN: the slot is redrawn, and the first point inside of the
        # redraw round fills it
        class OriginFirst:
            def __init__(self):
                self.rng = np.random.Generator(np.random.SFC64(5))
                self.drawn = []

            def random(self, size=None, out=None):
                x = self.rng.random(size, out=out)
                if not self.drawn:
                    x[:, 0] = 0.0
                self.drawn.append(x.copy())
                return x

        rng, out = OriginFirst(), np.empty((2, 1000))
        with np.errstate(divide="raise", invalid="raise"):
            ball._polar_squares(rng, out)
        assert len(rng.drawn) >= 2 and np.isfinite(out).all()
        u, w = next((u, w) for u, w in rng.drawn[1].T if 0.0 < u * u + w * w < 1.0)
        s = u * u + w * w
        assert out[:, 0] == pytest.approx([u * u * -2 * math.log(s) / s,
                                           w * w * -2 * math.log(s) / s], rel=1e-14)

    def test_degenerate_acceptance(self):
        spec = Spectrum((1.0, 1.0, 1.0))
        with pytest.raises(DegenerateAcceptanceError):
            ball_integral_mc(MultiIndex.zero(3), 1e-12, spec, 10_000, seed=5)

    def test_empty_family_draws_nothing(self, monkeypatch):
        # no member reads a draw, so none is made, and a radius no draw
        # reaches does not raise; the result is empty, as ball_integrals([])'s
        def no_draw(rng, out):
            raise AssertionError("an empty family drew")

        monkeypatch.setattr(ball, "_polar_squares", no_draw)
        assert ball_integrals_mc([], 1e-300, Spectrum((1.0, 1.0)), 10_000, 1) == {}
        assert len(ball_integrals([], 1e-300, Spectrum((1.0, 1.0)))) == 0

    def test_budget_floor(self):
        with pytest.raises(DomainError):
            ball_integral_mc(MultiIndex((0,)), 1.0, Spectrum((1.0,)), 100, seed=0)

    def test_non_integral_budget_and_seed_raise(self):
        # 12345.7 draws used to run as 12345, and seed 1.5 as seed 1
        index, spec = MultiIndex((0,)), Spectrum((1.0,))
        with pytest.raises(DomainError):
            ball_integral_mc(index, 1.0, spec, 12345.7, seed=1)
        with pytest.raises(DomainError):
            ball_integral_mc(index, 1.0, spec, 12345, seed=1.5)
        assert ball_integral_mc(index, 1.0, spec, 20000.0, seed=3.0) == \
            ball_integral_mc(index, 1.0, spec, 20000, seed=3)

    @pytest.mark.parametrize("v", [2, 3, 7, 10])
    def test_members_equal_one_member_calls(self, v):
        # a partial last block, and a member of order 3
        n_total = 2 * ball._MC_BLOCK + 4321
        spec = Spectrum(tuple(0.4 + 0.3 * j for j in range(v)))
        family = [*_index_family(v).values(), MultiIndex.single(v, v - 1, 3)]
        together = ball_integrals_mc(family, 0.8 * sum(spec.lambdas), spec,
                                     n_total, seed=600 + v)
        assert list(together) == family
        for index in family:
            alone = ball_integral_mc(index, 0.8 * sum(spec.lambdas), spec,
                                     n_total, seed=600 + v)
            assert together[index] == alone

    @pytest.mark.parametrize("v", range(2, 11))
    def test_isotropic_closed_form(self, v):
        # equal variances: alpha_k = prod (2 k_j - 1)!! P(v/2 + |k|, rho / 2 lambda)
        lam, rho = 1.3, 1.3 * v
        spec = Spectrum((lam,) * v)
        family = [MultiIndex.zero(v), MultiIndex.single(v, 0),
                  MultiIndex.single(v, v - 1, 2),
                  MultiIndex.zero(v).bump(0).bump(v - 1)]
        estimates = ball_integrals_mc(family, rho, spec, 200_000, seed=70 + v)
        for index in family:
            exact = index.factorized_bound() * gammainc(
                v / 2 + index.order, rho / (2 * lam))
            est = estimates[index]
            assert abs(est.mean - exact) <= 4.0 * est.std_error

    def test_blocks_bound_memory(self):
        # draws are taken a cache-sized block at a time, so the traced peak
        # does not grow with n_total (a whole-budget draw would need 40 MB)
        spec = Spectrum(tuple(0.5 + 0.25 * j for j in range(10)))
        index = MultiIndex.zero(10).bump(2).bump(7)
        tracemalloc.start()
        try:
            ball_integral_mc(index, 9.0, spec, 500_000, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestStructuralReport:
    def test_identities_hold_2d(self):
        report = verify_structural(3.0, Spectrum((1.0, 2.0)))
        assert report.passed
        for check in report.checks:
            if "residual" in check.detail:
                assert check.margin > 0.0

    def test_identities_hold_3d(self):
        report = verify_structural(5.0, Spectrum((0.5, 1.0, 2.5)))
        assert report.passed

    def test_hierarchy_chain_present(self):
        # the chain runs through the order-2 family, k = 1 and 2
        report = verify_structural(2.0, Spectrum((1.0,)))
        names = [c.name for c in report.checks]
        assert [name for name in names if name.startswith("hierarchy")] == [
            "hierarchy[dim0,k=1]", "hierarchy[dim0,k=2]"]
        assert report.passed

    def test_power_dominance_past_float_range(self):
        # (rho / lambda)^2 past float range leaked OverflowError; such a
        # bound holds, with the largest float as its finite margin
        for rho, lams in ((1e200, (1.0, 2.0)), (1.0, (1e-300, 1.0))):
            report = verify_structural(rho, Spectrum(lams))
            assert report.passed
            assert all(math.isfinite(check.margin) for check in report.checks)

    @pytest.mark.parametrize("lams, reads", [((1.0, 2.0), 18),
                                             ((0.5, 1.0, 2.5), 22)])
    def test_one_family_read_per_geometry(self, monkeypatch, lams, reads):
        # the base point, the rho stencil, each lambda_r stencil and the far
        # radius with its stencil: 10 + 4v geometries, each read once
        families = []
        real = ball.ball_integrals

        def counted(indices, *args):
            families.append(list(indices))
            return real(indices, *args)

        monkeypatch.setattr(ball, "ball_integrals", counted)
        ball._alpha_quad.cache_clear()
        verify_structural(5.0, Spectrum(lams))
        assert len(families) == reads
        assert all(len(family) > 1 for family in families)
        assert ball._alpha_quad.cache_info().hits == 0

    @pytest.mark.parametrize("rho", [1e4, 1e5])
    def test_hierarchy_reads_error_bars(self, rho):
        # every slice is capped at sqrt(760 lambda), so alpha_(0,1) sits
        # 3.2e-11 above alpha_0 at both radii, inside error bars of 1.4e-7
        # and 3.6e-6: the check passes, and still reports that margin
        report = verify_structural(rho, Spectrum((1.0, 2.0)))
        assert report.passed
        margins = {check.name: check.margin for check in report.checks}
        assert margins["hierarchy[dim1,k=1]"] == -3.237343726425479e-11

    @pytest.mark.parametrize("k", [1, 2])
    def test_hierarchy_fails_member_raised_by_its_error_bars(self, monkeypatch, k):
        # the base read is the one family that holds order-3 members; raise
        # member (0, k) there by 100 of its error bars
        spec, target = Spectrum((1.0, 2.0)), MultiIndex.single(2, 1, k)
        real = ball.ball_integrals

        def raised(indices, rho, spectrum):
            got = real(indices, rho, spectrum)
            if max(index.order for index in got) < 3:
                return got
            out = {index: got[index] for index in got}
            value, err = out[target].value, out[target].est_abs_error
            out[target] = ball.IntegralValue(value + 100.0 * err, err)
            return out

        monkeypatch.setattr(ball, "ball_integrals", raised)
        report = verify_structural(1e5, spec)
        status = {check.name: check.ok for check in report.checks}
        assert not status[f"hierarchy[dim1,k={k}]"]

    def test_power_dominance_fails_member_above_two_steps(self, monkeypatch):
        # alpha_(2 e_0) above (rho / lambda_0)^2 alpha_0 at rho < lambda_0,
        # which the two-step bound 2->0 caught, fails the step 2->1
        spec, target, zero = Spectrum((1.0, 2.0)), MultiIndex.single(2, 0, 2), \
            MultiIndex.zero(2)
        real = ball.ball_integrals

        def raised(indices, rho, spectrum):
            got = real(indices, rho, spectrum)
            if max(index.order for index in got) < 3:
                return got
            out = {index: got[index] for index in got}
            out[target] = ball.IntegralValue(1.01 * rho * rho * got[zero].value,
                                             got[target].est_abs_error)
            return out

        monkeypatch.setattr(ball, "ball_integrals", raised)
        report = verify_structural(0.5, spec)
        status = {check.name: check.ok for check in report.checks}
        assert not status["power-dominance[dim0,2->1]"]

    def test_margins_are_pinned(self):
        # family reads and the shared difference rule must move no margin
        # by a single bit from the one-member, first-derivative evaluation
        report = verify_structural(3.0, Spectrum((1.0, 2.0)))
        margins = {check.name: check.margin.hex() for check in report.checks}
        assert margins["scaling[k=0,0]"] == "0x1.0c6db1decbf65p-20"
        assert margins["radial-derivative[k=1,1]"] == "0x1.0c6f459fd6944p-20"
        assert margins["variance-derivative[k=2,0,dim1]"] == "0x1.0c6ef281e94bcp-20"
        assert margins["hierarchy[dim1,k=2]"] == "0x1.010425f2dde2ep-1"
        assert margins["power-dominance[dim0,2->1]"] == "0x1.382ea1a9c8987p-1"
        assert margins["vanishing-radial-derivative[k=1,0]"] == "0x1.5726ff785e18fp-27"
