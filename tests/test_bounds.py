"""Tests for separable proportions, the i4/i3 bound chain, and the K solver."""

import itertools
import warnings
from fractions import Fraction
from math import comb

import pytest

from invgen import bounds
from invgen import (
    BoundReport,
    CapacityError,
    ClassicalFamily,
    ClassicalTag,
    ExperimentSpec,
    NoSolutionError,
    ValidationError,
    WeylFamily,
    exact_prob,
    i3_upper_bound,
    i4_lower_bound,
    run,
    separable_proportion,
    solve_K4,
    solver_proportion,
)
from invgen.exact import SIGNED_LIMIT, UNSIGNED_LIMIT

F = Fraction
T = ClassicalTag


def fam(tag, q):
    return ClassicalFamily(tag, q)


def bisection_K4(tag, b_J4):
    """Reference for `solve_K4`: its search before it called `bisect_left`,
    doubling then a hand-written binary search between a q known
    non-positive and one known positive."""
    b = bounds._as_fraction(b_J4)
    if not 0 < b <= 1:
        raise ValidationError(f"b_J4 must be in (0,1], got {b_J4!r}")

    def positive(q):
        return F(7, 8) * b - (1 - solver_proportion(tag, q) ** 4) > 0

    if positive(2):
        return 1
    hi = 4
    while not positive(hi):
        hi *= 2
        if hi > 1 << 60:
            raise NoSolutionError(
                f"no threshold below 2^60 for {tag.value} with b_J4={b_J4!r}; the bound stays non-positive"
            )
    lo = 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if positive(mid):
            hi = mid
        else:
            lo = mid
    return lo


class TestWeylFamilyOf:
    """The Weyl family of each classical tag, as a report shows it."""

    @pytest.mark.parametrize(
        "tag,expected",
        [
            (T.SL, WeylFamily.A),
            (T.SU, WeylFamily.A),
            (T.SP_ODD_Q, WeylFamily.C),
            (T.SP_EVEN_Q, WeylFamily.C),
            (T.SO_ODD_DIM, WeylFamily.B),
            (T.SO_EVEN_DIM_PLUS, WeylFamily.D_PLUS),
            (T.SO_EVEN_DIM_MINUS, WeylFamily.D_MINUS),
        ],
    )
    def test_map(self, tag, expected):
        q = 9 if tag is not T.SP_EVEN_Q else 8
        assert i4_lower_bound(fam(tag, q), F(1, 3)).weyl_family is expected

    @pytest.mark.parametrize("tag", ["SL", ["SL"], None])
    def test_unknown(self, tag):
        with pytest.raises(ValidationError, match="unknown classical family"):
            solver_proportion(tag, 3)


class TestSeparableProportion:
    def test_sl(self):
        assert separable_proportion(fam(T.SL, 12)) == F(11, 12)

    def test_su_matches_sl(self):
        assert separable_proportion(fam(T.SU, 12)) == F(11, 12)

    def test_sp_odd(self):
        assert separable_proportion(fam(T.SP_ODD_Q, 37)) == F(1263, 1369)

    def test_sp_even(self):
        assert separable_proportion(fam(T.SP_EVEN_Q, 8)) == F(25, 32)

    def test_so_odd_q(self):
        assert separable_proportion(fam(T.SO_ODD_DIM, 27)) == F(623, 676)

    def test_so_even_q(self):
        assert separable_proportion(fam(T.SO_EVEN_DIM_PLUS, 4)) == F(5, 8)

    def test_solver_truncates(self):
        # the solver's proportion drops the rescue terms
        assert solver_proportion(T.SP_ODD_Q, 37) == F(34, 37)
        assert solver_proportion(T.SP_EVEN_Q, 8) == F(3, 4)
        # the solver takes the odd-q row for SO at every q, even q included
        assert solver_proportion(T.SO_EVEN_DIM_PLUS, 4) == F(2, 9)

    def test_so_odd_q_never_truncated(self):
        # already a lower bound; the printed and the solver's proportion agree
        assert solver_proportion(T.SO_ODD_DIM, 27) == separable_proportion(fam(T.SO_ODD_DIM, 27)) == F(623, 676)

    def test_negative_clamped(self):
        # 1 - 2/2 - 1/4 < 0: returned as 0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert separable_proportion(fam(T.SO_ODD_DIM, 3)) == 0

    def test_parity_enforced(self):
        with pytest.raises(ValidationError):
            separable_proportion(fam(T.SP_ODD_Q, 4))
        with pytest.raises(ValidationError):
            separable_proportion(fam(T.SP_EVEN_Q, 5))

    @pytest.mark.parametrize("q", [1, 0, -3, "3"])
    def test_q_validated(self, q):
        with pytest.raises(ValidationError):
            separable_proportion(fam(T.SL, q))

    def test_monotone_in_q_within_parity(self):
        for tag, qs in [
            (T.SL, range(2, 40)),
            (T.SP_ODD_Q, range(5, 41, 2)),
            (T.SP_EVEN_Q, range(4, 40, 2)),
            (T.SO_EVEN_DIM_PLUS, range(4, 40, 2)),
            (T.SO_EVEN_DIM_MINUS, range(5, 41, 2)),
        ]:
            vals = [separable_proportion(fam(tag, q)) for q in qs]
            assert vals == sorted(vals), tag


def monic_irreducibles(q, d):
    """Monic irreducible polynomials of degree d over F_q: the Moebius sum
    (1/d) sum_{e | d} mu(e) q^(d/e)."""

    def mu(e):
        primes = [p for p in range(2, e + 1) if e % p == 0 and all(p % r for r in range(2, p))]
        return 0 if any(e % (p * p) == 0 for p in primes) else (-1) ** len(primes)

    return sum(mu(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


def wall_series(q, top):
    """s_0..s_top, s_n the proportion of separable (regular semisimple)
    elements of GL_n(q), from Wall's generating function
    1 + sum s_n u^n = prod_d (1 + u^d / (q^d - 1))^N*(q, d), where N*(q, d)
    counts the monic irreducibles of degree d other than z; each factor is
    expanded binomially and the product truncated at u^top."""
    s = [F(1)] + [F(0)] * top
    for d in range(1, top + 1):
        count = monic_irreducibles(q, d) - (d == 1)
        factor = [F(0)] * (top + 1)
        for k in range(top // d + 1):
            factor[k * d] = comb(count, k) * F(1, q**d - 1) ** k
        s = [sum(s[i] * factor[m - i] for i in range(m + 1)) for m in range(top + 1)]
    return s


def separable_in_gl3_2():
    """Direct count over GL_3(2): an element is separable when its
    characteristic polynomial z^3 + tr z^2 + c2 z + det (over F_2, as a bit
    mask) is coprime to its derivative."""

    def mod(a, b):
        while a and a.bit_length() >= b.bit_length():
            a ^= b << a.bit_length() - b.bit_length()
        return a

    group = separable = 0
    for a, b, c, d, e, f, g, h, i in itertools.product((0, 1), repeat=9):
        det = (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) & 1
        if det:
            c2 = (a * e - b * d + a * i - c * g + e * i - f * h) & 1
            poly, prime = 8 | (a + e + i) % 2 << 2 | c2 << 1 | det, 4 | c2  # 3z^2 + c2 = z^2 + c2
            while prime:
                poly, prime = prime, mod(poly, prime)
            group += 1
            separable += poly == 1
    return F(separable, group)


class TestWallSeries:
    """An independent check of the SL row: its value 1 - 1/q is the limit
    of s_n for GL_n(q), which approaches it from both sides."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
    def test_small_n(self, q):
        s = wall_series(q, 2)
        assert s[1] == 1
        assert s[2] == F(q * q - q - 1, q * q - 1)

    def test_gl3_2_by_direct_count(self):
        # 104 of the 168 elements; 13/21 is above the limit 1/2
        assert wall_series(2, 3)[3] == separable_in_gl3_2() == F(13, 21)

    @pytest.mark.parametrize(
        "q, n, value",
        [(3, 10, 0.6666824044472935), (5, 10, 0.8000000143935726), (2, 20, 0.5000013679408476)],
    )
    def test_tends_to_the_sl_row(self, q, n, value):
        s_n = wall_series(q, n)[n]
        assert float(s_n) == pytest.approx(value, rel=1e-12)
        assert separable_proportion(fam(T.SL, q)) == 1 - F(1, q)


class TestI4:
    def test_positive_at_13(self):
        rep = i4_lower_bound(fam(T.SL, 13), F(1, 3))
        assert rep.i4_lower == F(12127, 685464)
        assert rep.i4_lower > 0

    def test_nonpositive_at_12(self):
        rep = i4_lower_bound(fam(T.SL, 12), F(1, 3))
        assert rep.i4_lower == F(-47, 20736)
        assert rep.i4_lower <= 0

    def test_limit_is_seven_twentyfourths(self):
        rep = i4_lower_bound(fam(T.SL, 10**6), F(1, 3))
        assert F(7, 24) - rep.i4_lower < F(1, 10**5)

    def test_report_fields(self):
        rep = i4_lower_bound(fam(T.SO_EVEN_DIM_MINUS, 7), F(1, 3))
        assert isinstance(rep, BoundReport)
        assert rep.l == 4
        assert rep.weyl_family is WeylFamily.D_MINUS
        assert rep.s == separable_proportion(fam(T.SO_EVEN_DIM_MINUS, 7))
        d = rep.to_dict()
        assert d["family"] == "SO_even_dim_minus"
        assert d["q"] == 7
        assert d["s_exact"] == str(rep.s)
        assert d["i4_lower"] == pytest.approx(float(rep.i4_lower))

    def test_sharp_a_gains_an_eighth_of_b(self):
        plain = i4_lower_bound(fam(T.SL, 13), F(1, 3)).i4_lower
        sharp = i4_lower_bound(fam(T.SL, 13), F(1, 3), sharp_a=True).i4_lower
        assert sharp - plain == F(1, 3) / 8

    @pytest.mark.parametrize(
        "tag,q,available",
        [
            (T.SL, 13, True),
            (T.SU, 13, True),
            (T.SP_ODD_Q, 13, True),
            (T.SP_EVEN_Q, 8, False),
            (T.SO_ODD_DIM, 9, False),
            (T.SO_EVEN_DIM_PLUS, 13, True),
            (T.SO_EVEN_DIM_MINUS, 13, True),
        ],
    )
    def test_sharp_a_unavailable(self, tag, q, available):
        if not available:
            with pytest.raises(ValidationError):
                i4_lower_bound(fam(tag, q), F(1, 3), sharp_a=True)
            return
        rep = i4_lower_bound(fam(tag, q), F(1, 3), sharp_a=True)
        assert rep.i4_lower == F(1, 3) - (1 - rep.s**4)

    def test_b_validated(self):
        with pytest.raises(ValidationError):
            i4_lower_bound(fam(T.SL, 13), 2)
        with pytest.raises(ValidationError):
            i4_lower_bound(fam(T.SL, 13), -0.1)
        with pytest.raises(ValidationError):
            i4_lower_bound(fam(T.SL, 13), "nope")

    def test_accepts_string_and_float_b(self):
        assert i4_lower_bound(fam(T.SL, 13), "1/3").i4_lower == F(12127, 685464)
        approx = i4_lower_bound(fam(T.SL, 13), 1 / 3).i4_lower
        assert abs(approx - F(12127, 685464)) < F(1, 10**9)

    @pytest.mark.parametrize("tag", [T.SO_ODD_DIM, T.SO_EVEN_DIM_PLUS, T.SO_EVEN_DIM_MINUS])
    def test_negative_proportion_at_q3(self, tag):
        # s clamps to 0, so i4 = 7/8 * 1/3 - 1 and i3 = j3 + 1
        rep = i4_lower_bound(fam(tag, 3), F(1, 3))
        assert (rep.s, rep.i4_lower) == (0, F(-17, 24))
        assert solver_proportion(tag, 3) == 0
        assert i3_upper_bound(fam(tag, 3), F(1, 4)) == F(5, 4)

    def test_threshold_identity(self):
        # i4 > 0 at b=1/3 is exactly s^4 > 17/24
        for tag in T:
            start = 5 if tag is T.SP_ODD_Q else 4
            step = 1 if tag in (T.SL, T.SU) else 2
            for q in range(start, start + 20 * step, step):
                s = separable_proportion(fam(tag, q))
                rep = i4_lower_bound(fam(tag, q), F(1, 3))
                assert (rep.i4_lower > 0) == (s**4 > F(17, 24))


class TestI3:
    @pytest.mark.parametrize(
        "tag,q,expected",
        [
            # j3 + (1 - s^3) at j3 = 1/20; s is 1 - first/q + rescue/q^2, and
            # the SO rows take 1 - 2/(q-1) - 1/(q-1)^2 at odd q
            (T.SL, 100, F(79701, 10**6)),  # s = 99/100
            (T.SL, 10, F(321, 1000)),  # s = 9/10
            (T.SL, 11, F(7951, 26620)),  # s = 10/11
            (T.SU, 10, F(321, 1000)),
            (T.SU, 11, F(7951, 26620)),
            (T.SP_ODD_Q, 5, F(417, 500)),  # s = 1 - 3/5 + 5/25 = 3/5
            (T.SP_EVEN_Q, 10, F(62329, 125000)),  # s = 1 - 2/10 + 2/100 = 41/50
            (T.SO_ODD_DIM, 10, F(62329, 125000)),
            (T.SO_ODD_DIM, 11, F(556961, 10**6)),  # s = 1 - 2/10 - 1/100 = 79/100
            (T.SO_EVEN_DIM_PLUS, 10, F(62329, 125000)),
            (T.SO_EVEN_DIM_PLUS, 11, F(556961, 10**6)),
            (T.SO_EVEN_DIM_MINUS, 10, F(62329, 125000)),
            (T.SO_EVEN_DIM_MINUS, 11, F(556961, 10**6)),
        ],
    )
    def test_value(self, tag, q, expected):
        assert i3_upper_bound(fam(tag, q), F(1, 20)) == expected

    def test_j3_validated(self):
        with pytest.raises(ValidationError):
            i3_upper_bound(fam(T.SL, 100), 1.5)


class TestSolveK4:
    @pytest.mark.parametrize(
        "tag,expected",
        [
            (T.SL, 12),
            (T.SU, 12),
            (T.SP_ODD_Q, 36),
            (T.SP_EVEN_Q, 24),
            (T.SO_ODD_DIM, 25),
            (T.SO_EVEN_DIM_PLUS, 25),
            (T.SO_EVEN_DIM_MINUS, 25),
        ],
    )
    def test_table(self, tag, expected):
        assert solve_K4(tag) == expected

    @pytest.mark.parametrize("tag", list(T))
    def test_threshold_consistency(self, tag):
        K = solve_K4(tag)

        def positive(q):
            s = solver_proportion(tag, q)
            return F(7, 8) * F(1, 3) - (1 - s**4) > 0

        assert not positive(K)
        assert positive(K + 1)

    def test_b_as_string_and_float(self):
        assert solve_K4(T.SL, "1/3") == 12
        assert solve_K4(T.SL, 0.33333333) == 12

    def test_b_validated(self):
        with pytest.raises(ValidationError):
            solve_K4(T.SL, 0)
        with pytest.raises(ValidationError):
            solve_K4(T.SL, "junk")

    def test_tiny_b_has_no_solution(self):
        with pytest.raises(NoSolutionError):
            solve_K4(T.SL, F(1, 10**30))

    def test_larger_b_lowers_threshold(self):
        assert solve_K4(T.SL, F(2, 3)) < solve_K4(T.SL, F(1, 3))

    @pytest.mark.parametrize("tag", list(T))
    def test_matches_hand_bisection(self, tag):
        def outcome(solve, b):
            try:
                return solve(tag, b)
            except (NoSolutionError, ValidationError) as e:
                return f"error: {e}"

        grid = [F(k, 97) for k in range(1, 98)] + [F(1, 3), F(1, 10**6), F(1), F(0), "junk", 2]
        assert [outcome(solve_K4, b) for b in grid] == [outcome(bisection_K4, b) for b in grid]

    @pytest.mark.parametrize("tag", list(T))
    def test_never_positive_at_q_two(self, tag):
        # solve_K4's search starts at q = 3: with s <= 1/2, 1 - s^4 >= 15/16 > 7/8 >= 7b/8 for every b <= 1
        assert solver_proportion(tag, 2) <= F(1, 2), (
            "a row now has s > 1/2 at q = 2: restore solve_K4's `if positive(2): return 1` branch"
        )

    def test_solver_proportion_clamps(self):
        assert solver_proportion(T.SO_ODD_DIM, 2) == 0
        assert solver_proportion(T.SO_ODD_DIM, 3) == 0


class TestChainInput:
    """The chain's Weyl-level input, b = 1/3 (the K4 table's), checked on
    every route: b <= Prob(J^4) in each row's Weyl family (every family is
    one, see TestWeylFamilyOf), by the oracle at every n up to its cap and
    by Monte Carlo at large n.  Without --sharp-a the chain uses 7/8 b, the
    same-sign correction 7/8 = Prob(not N^4)."""

    B_CHAIN = F(1, 3)

    @pytest.mark.parametrize("family", list(WeylFamily))
    def test_oracle_up_to_the_cap(self, family):
        # J reads S_n in A and C, the signed group in B and D
        cap = UNSIGNED_LIMIT if family in (WeylFamily.A, WeylFamily.C) else SIGNED_LIMIT
        with pytest.raises(CapacityError):
            exact_prob(cap + 1, 4, family, "J")
        # the minimum, at the cap, is 0.6535 in A and C, 0.8460 in B, 0.8948 in D+ and D-
        assert min(exact_prob(n, 4, family, "J") for n in range(1, cap + 1)) >= self.B_CHAIN

    def test_same_sign_correction_exact_in_C(self):
        # J reads only the projection, and the signs are fair coins independent of it
        for n in range(1, SIGNED_LIMIT + 1):
            for l in range(2, 9):
                expected = (1 - F(1, 2 ** (l - 1))) * exact_prob(n, l, WeylFamily.C, "J")
                assert exact_prob(n, l, WeylFamily.C, "J_and_not_N") == expected, (n, l)

    def test_same_sign_correction_in_B(self):
        # not exact in B: Prob(J^4 and not N^4) / Prob(J^4) is 7/8 at n = 1
        # and falls to 0.8678 at n = 11, yet 7/8 b stays below it
        for n in range(1, SIGNED_LIMIT + 1):
            both = exact_prob(n, 4, WeylFamily.B, "J_and_not_N")
            assert both >= F(7, 8) * self.B_CHAIN, n
            ratio = both / exact_prob(n, 4, WeylFamily.B, "J")
            assert ratio == F(7, 8) if n == 1 else ratio < F(7, 8), (n, float(ratio))

    @pytest.mark.parametrize("n", [10**3, 10**6])
    @pytest.mark.parametrize("family", list(WeylFamily))
    def test_monte_carlo_lower_bound(self, family, n):
        # the 99% lower bounds read 0.518 (C) to 0.750 (D+) at 10^3 and 0.401
        # (A) to 0.676 (D-) at 10^6; should one fall to 1/3, add trials
        est = run(ExperimentSpec(n, 4, family, "J", 1000, 3), confidence=0.99)
        assert est.ci_low > self.B_CHAIN, (est.p_hat, est.ci_low)
