"""Ring arithmetic for UPoly and truncated Series."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kingmesh.series import (
    NonUnitConstantTermError,
    NotDivisibleError,
    Series,
    UPoly,
    format_upoly,
    parse_upoly,
)


def upolys(max_degree=4, max_coeff=50):
    return st.builds(
        UPoly,
        st.lists(
            st.integers(min_value=-max_coeff, max_value=max_coeff),
            max_size=max_degree + 1,
        ),
    )


def series(order=12, **kwargs):
    return st.builds(
        lambda cs: Series(order, cs),
        st.lists(upolys(**kwargs), max_size=order + 1),
    )


def unit_series(order=20, coefficients=upolys()):
    """Series with constant term +-1, the divisible ones."""
    return st.builds(
        lambda sign, cs: Series(order, [UPoly((sign,))] + cs),
        st.sampled_from((1, -1)),
        st.lists(coefficients, max_size=order),
    )


def sparse_upolys(max_degree=400, max_coeff=10**6):
    """Zero, monomial and two-term polynomials up to u-degree max_degree, the
    shapes subst_ut produces, with coefficients of either sign."""
    term = st.tuples(
        st.integers(min_value=0, max_value=max_degree),
        st.integers(min_value=-max_coeff, max_value=max_coeff),
    )
    return st.lists(term, max_size=2).map(upoly_of)


def sparse_series(order=8):
    return st.builds(
        lambda cs: Series(order, cs), st.lists(sparse_upolys(), max_size=order + 1)
    )


# Schoolbook reference: a polynomial is a dict {power: coefficient} without
# zero entries, a series a list of such dicts, one per power of t.


def upoly_of(terms):
    coeffs = {}
    for k, c in terms:
        coeffs[k] = coeffs.get(k, 0) + c
    return UPoly([coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)])


def as_dict(p):
    return {k: c for k, c in enumerate(p.coeffs) if c}


def dict_add_product(out, a, b):
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
            if not out[i + j]:
                del out[i + j]


def dict_series_mul(a, b):
    order = len(a) - 1
    out = [{} for _ in a]
    for i, x in enumerate(a):
        for j, y in enumerate(b[: order + 1 - i]):
            dict_add_product(out[i + j], x, y)
    return out


def as_dicts(s):
    return [as_dict(c) for c in s.coeffs]


class TestUPoly:
    def test_canonical_form_trims_trailing_zeros(self):
        assert UPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert UPoly((0, 0)).is_zero
        assert UPoly().degree == -1

    def test_arithmetic(self):
        p = UPoly((1, 2))  # 1 + 2u
        q = UPoly((0, 0, 3))  # 3u^2
        assert p + q == UPoly((1, 2, 3))
        assert p - p == UPoly()
        assert p * q == UPoly((0, 0, 3, 6))
        assert -p == UPoly((-1, -2))
        assert p * 0 == UPoly()
        assert 2 * p == UPoly((2, 4))
        assert p + 1 == UPoly((2, 2))

    def test_dense_times_dense(self):
        p = UPoly((1, 1))
        assert p * p == UPoly((1, 2, 1))
        assert p * UPoly((1, -1)) == UPoly((1, 0, -1))

    @pytest.mark.parametrize("c", [0, 1, 5, -3])
    def test_a_constant_hashes_as_the_int_it_equals(self, c):
        p = UPoly((c,))
        assert p == c and hash(p) == hash(c)
        assert {c: "int"}.get(p) == "int"
        assert {p: "upoly"}.get(c) == "upoly"
        assert len({p, c}) == 1

    def test_shift_and_evaluate(self):
        p = UPoly((1, 2))
        assert p.shift(2) == UPoly((0, 0, 1, 2))
        assert p.shift(2).shift(-2) == p
        with pytest.raises(ValueError):
            p.shift(-1)
        assert p.evaluate(10) == 21
        assert UPoly().evaluate(7) == 0

    @given(upolys(), upolys(), upolys())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(
        st.one_of(sparse_upolys(), upolys(max_coeff=10**6)),
        st.one_of(sparse_upolys(), upolys(max_coeff=10**6)),
    )
    def test_product_matches_schoolbook(self, a, b):
        expected = {}
        dict_add_product(expected, as_dict(a), as_dict(b))
        assert as_dict(a * b) == expected

    @given(upolys(max_degree=6, max_coeff=999))
    def test_string_round_trip(self, p):
        assert parse_upoly(format_upoly(p)) == p

    @pytest.mark.parametrize(
        "text", ["0", "1", "u", "-u", "2u^3", "12+2u^4", "500+136u+10u^2", "1-2u+u^3"]
    )
    def test_format_is_canonical(self, text):
        assert format_upoly(parse_upoly(text)) == text

    def test_parse_rejects_garbage(self):
        # a sign must stand between terms: "2u2" is not 2 + 2u, nor "1 2" 12
        for bad in ("", "u^", "++", "2x", "2u2", "1 2", "3u^2u", "u u"):
            with pytest.raises(ValueError):
                parse_upoly(bad)

    @pytest.mark.parametrize(
        "text, coeffs",
        [(" 500 + 136u ", (500, 136)), ("+3", (3,)), ("136 u ^ 2", (0, 0, 136)),
         ("u+u-1", (-1, 2)), ("1-1", ())],
    )
    def test_parse_accepts_spaces_a_leading_sign_and_repeated_powers(self, text, coeffs):
        assert parse_upoly(text) == UPoly(coeffs)


class TestSeries:
    def test_truncation_identities(self):
        one = Series.one(5)
        t = Series.t(5)
        assert (one + t) + (-t) == one
        assert (one + t) * (one - t) == one - t * t
        assert (one + t) * t == t + t * t

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series.one(3) + Series.one(4)
        with pytest.raises(ValueError):
            Series.one(3) * Series.one(4)

    def test_geometric_division(self):
        one = Series.one(6)
        t = Series.t(6)
        geo = one / (one + t)
        assert [c.evaluate(0) for c in geo.coeffs] == [1, -1, 1, -1, 1, -1, 1]

    def test_division_needs_unit_constant(self):
        order = 4
        u_plus_t = Series(order, [UPoly((0, 1)), UPoly((1,))])
        with pytest.raises(NonUnitConstantTermError) as err:
            Series.one(order) / u_plus_t
        assert err.value.coefficient == UPoly((0, 1))
        with pytest.raises(NonUnitConstantTermError):
            Series.one(order) / (Series.one(order) * 2)

    def test_division_by_negative_unit(self):
        one = Series.one(5)
        t = Series.t(5)
        q = (one + t) / (-one + t)
        assert q * (-one + t) == one + t

    @given(series(order=12, max_degree=3, max_coeff=20), series(order=12, max_degree=3, max_coeff=20), series(order=12, max_degree=3, max_coeff=20))
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(series(order=20), unit_series(order=20))
    @settings(max_examples=60, deadline=None)
    def test_division_inverts_multiplication(self, a, b):
        assert (a / b) * b == a
        assert (a * b) / b == a

    @given(sparse_series(), st.one_of(sparse_series(), unit_series(order=8)))
    @settings(max_examples=60, deadline=None)
    def test_product_matches_schoolbook(self, a, b):
        assert as_dicts(a * b) == dict_series_mul(as_dicts(a), as_dicts(b))

    @given(sparse_series(), sparse_upolys())
    @settings(max_examples=60, deadline=None)
    def test_coefficient_product_matches_schoolbook(self, a, f):
        expected = [{} for _ in a.coeffs]
        for n, c in enumerate(as_dicts(a)):
            dict_add_product(expected[n], c, as_dict(f))
        assert as_dicts(a * f) == as_dicts(f * a) == expected

    @given(sparse_series(order=6), unit_series(order=6, coefficients=sparse_upolys()))
    @settings(max_examples=60, deadline=None)
    def test_quotient_matches_schoolbook(self, a, b):
        # b is a unit, so q is the quotient exactly when b * q == a
        q = a / b
        assert dict_series_mul(as_dicts(b), as_dicts(q)) == as_dicts(a)

    def test_coefficients_must_be_ints_or_upolys(self):
        with pytest.raises(TypeError):
            Series(3, [object()])
        with pytest.raises(TypeError):
            Series(3, [1, 2.0])

    def test_subst_ut(self):
        s = Series(2, (1, 1, 1))
        assert s.subst_ut(1) == Series(
            2, [UPoly((1,)), UPoly((0, 1)), UPoly((0, 0, 1))]
        )
        assert s.subst_ut(0) == s

    def test_subst_is_ring_homomorphism(self):
        one = Series.one(8)
        t = Series.t(8)
        x = (one + t) / (one - t - t * t)
        y = one + t * t * 3
        assert (x * y).subst_ut(2) == x.subst_ut(2) * y.subst_ut(2)

    def test_eval_u(self):
        s = Series(1, [UPoly((1,)), UPoly((2, 1))])  # 1 + (2+u) t
        assert s.eval_u(0) == Series(1, (1, 2))
        assert s.eval_u(1) == Series(1, (1, 3))
        assert s.eval_u(-2) == Series(1, (1, 0))

    def test_t_shifts(self):
        s = Series(4, (1, 2, 3))
        assert s.mul_t(2) == Series(4, (0, 0, 1, 2, 3))
        assert s.mul_t(2).div_t(2) == Series(2, (1, 2, 3))
        with pytest.raises(ValueError):
            s.div_t(1)

    def test_div_t_rejects_a_negative_power(self):
        with pytest.raises(ValueError, match="power must be nonnegative"):
            Series.term(3, tpow=3).div_t(-1)

    def test_div_u(self):
        s = Series(2, [UPoly(), UPoly((0, 3)), UPoly((0, 1, 2))])
        assert s.div_u() == Series(2, [UPoly(), UPoly((3,)), UPoly((1, 2))])
        with pytest.raises(ValueError):
            Series.one(2).div_u()

    def test_failed_division_names_the_power_and_coefficient(self):
        with pytest.raises(NotDivisibleError) as info:
            Series(3, [UPoly(), UPoly((0, 3)), UPoly((-5, 0, 2))]).div_u()
        assert (info.value.power, info.value.coefficient, info.value.divisor) == (
            2, UPoly((-5, 0, 2)), "u",
        )
        assert str(info.value) == "t^2 coefficient -5+2u^2 is not divisible by u"
        with pytest.raises(NotDivisibleError) as info:
            Series(4, (0, 7, 1)).div_t(2)
        assert (info.value.power, info.value.coefficient, info.value.divisor) == (
            1, UPoly((7,)), "t^2",
        )

    def test_scale_u(self):
        s = Series(2, (1, 2))
        assert s.scale_u(3).coeff(0) == UPoly((0, 0, 0, 1))

    def test_coeff_bounds(self):
        s = Series.one(3)
        with pytest.raises(IndexError):
            s.coeff(4)

    def test_term_beyond_order_is_zero(self):
        assert Series.term(2, tpow=5).is_zero()
        assert Series.t(0).is_zero()

    def test_term_rejects_a_negative_power(self):
        with pytest.raises(ValueError, match="tpow must be nonnegative"):
            Series.term(3, tpow=-1)

    def test_str(self):
        s = Series(5, [UPoly((1,)), UPoly(), UPoly((0, 2))])
        assert str(s) == "1 + 2u*t^2"
