"""Closed-form generating functions for king-permutation statistics.

Everything here is an exact truncated series (see :mod:`kingmesh.series`).
Every closed form is built from six primitives: the counting series A, B, C
of the classes ALL, S/L and SL/LS, and their strong-point distributions Atu,
Btu, Ctu.  They are fields of one ``Terms`` per truncation order, which
:func:`terms` keeps, and ``_CLASS_SERIES`` says which of them each class
reads.  On top of them sit

* ``class_series`` / ``strong_point_series`` -- a class's counting series in
  t, and its counts refined by the number of strong points (occurrences of
  the length-1 catalog patterns X / X'), marked by u;
* ``avoidance_series`` / ``distribution_series`` -- per catalog pattern: the
  number of class members with zero occurrences, respectively the full
  occurrence distribution marked by u.

The closed forms exist only for the solved catalog entries, and ``SOLVED``
holds all that is known about each of them in one record; the open entries
have exhaustive data (see :mod:`kingmesh.oracle`) but no closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add
from typing import Callable

from .kings import BASE_NAMES, KingClass
from .series import Series, UPoly


class Terms:
    """The series the closed forms are built from, at one truncation order:
    1, t, u, ut and 1 + t, and, each built on first use from the others, A,
    B, C, Atu, Btu, Ctu, the strong-point avoiders S, and the denominators
    q = 1 + t + tA of S and qu = 1 + t(1 + u + ut + (1 - u)A) of the
    strong-point distributions.  :func:`terms` keeps one per order."""

    @cached_property
    def a(self) -> Series:
        # sum of n! t^n (1-t)^n / (1+t)^n on integer rows; term n is divisible
        # by t^n, so summing n = 0..order is exact at the truncation order.
        # Term n is the one before times n t (1-t) / (1+t): one pass from t^n
        # up takes the difference, the shift and the division by 1 + t at once.
        order = self.order
        total = term = [1] + [0] * order
        for n in range(1, order + 1):
            before, below, term = [0, *term], 0, [0] * (order + 1)
            for k in range(n, order + 1):
                below = term[k] = n * (before[k] - before[k - 1]) - below
                total[k] += below
        return Series(order, total)

    b = cached_property(lambda r: r.a / r.opt)
    c = cached_property(lambda r: r.t / r.opt + r.a / (r.opt * r.opt))
    atu = cached_property(lambda r: (r.one + r.ut) * r.opt * r.a / r.qu)
    btu = cached_property(lambda r: r.opt * r.a / r.qu)
    ctu = cached_property(lambda r: r.ut / (r.one + r.ut) + r.opt * r.a / ((r.one + r.ut) * r.qu))
    s = cached_property(lambda r: r.opt * r.a / r.q)
    q = cached_property(lambda r: r.one + r.t + r.t * r.a)
    qu = cached_property(lambda r: r.one + r.t * (r.one + r.u + r.ut + (r.one - r.u) * r.a))

    def __init__(self, order: int):
        self.order = order
        self.one = Series.one(order)
        self.t = Series.t(order)
        self.u = Series.term(order, upow=1)
        self.ut = Series.term(order, tpow=1, upow=1)
        self.opt = self.one + self.t


# One command reads at most four orders: `verify --all` its order, order + 1
# for the star identities, and the class counts to n = 10 and n = 11.
terms = lru_cache(maxsize=4)(Terms)

# The series each class reads: its counting series is the field named here,
# its strong-point distribution the same name followed by "tu".  S and L
# share one series because reverse-complement swaps them, SL and LS because
# complement does (and maps X onto X', so LS is measured with X').
_CLASS_SERIES = {
    KingClass.ALL: "a", KingClass.S: "b", KingClass.L: "b", KingClass.SL: "c", KingClass.LS: "c"
}


def king_series(order: int) -> Series:
    """Counting series of king permutations: sum of n! t^n (1-t)^n / (1+t)^n."""
    return terms(order).a


def class_series(king_class: KingClass, order: int) -> Series:
    """Counting series of a restricted king class, read from the class table.

    >>> class_series(KingClass.LS, 7) == class_series(KingClass.SL, 7)
    True
    >>> [row.evaluate(0) for row in class_series("ls", 7).coeffs]
    [1, 0, 0, 0, 2, 10, 68, 500]
    """
    return getattr(terms(order), _CLASS_SERIES[KingClass(king_class)])


def strong_point_series(king_class: KingClass, order: int) -> Series:
    """Distribution of strong points over a class, marked by u.

    Over the full class this is simultaneously the distribution of X and of
    X'; over S/L it is the distribution of X; over SL that of X and over LS
    that of X'.
    """
    return getattr(terms(order), _CLASS_SERIES[KingClass(king_class)] + "tu")


def strong_point_avoiders(order: int) -> Series:
    """Series of king permutations with no strong point at all; identical for
    every one of the five classes."""
    return terms(order).s


# ---------------------------------------------------------------------------
# The solved patterns.  Each record holds the pinned expansion of E, a builder
# of the avoidance series P and one of the distribution E, both taking the
# Terms of one order, and the pattern's proof identities.  P and E never call
# each other, so that E at u = 0 against P compares two routes.  An identity's
# residual (lhs - rhs) takes the Terms, P and E: "av" relates P to the class
# counts, "dist" E to P, "star" an auxiliary restricted distribution E*.  The
# auxiliaries are eliminated from one identity and checked in the other, so no
# check is satisfied by construction.
# ---------------------------------------------------------------------------

Residual = Callable[[Terms, Series, Series], Series]


@dataclass(frozen=True)
class SolvedPattern:
    """Everything known in closed form about one solved catalog pattern."""

    expansion: tuple[str, ...]  # the pinned row of E, ascending powers of t
    avoidance: Callable[[Terms], Series]
    distribution: Callable[[Terms], Series]
    av: Residual | None = None
    dist: Residual | None = None
    star: Residual | None = None
    star_margin: int = 0  # truncation orders the star construction consumes

    @property
    def identities(self) -> tuple[tuple[str, Residual, int], ...]:
        """(kind, residual, margin) of each identity, in the order AV, DIST, STAR."""
        kinds = (("AV", self.av, 0), ("DIST", self.dist, 0), ("STAR", self.star, self.star_margin))
        return tuple(kind for kind in kinds if kind[1] is not None)


def _distribution_16(r: Terms) -> Series:
    # E = sum_{i>=0} u^C(i,2) t^i (1+u^i t) * prod_{j<=i} F(u^j t) * prod_{k<=i, k>=1} G(u^k t)
    # with F = (1+t)A/(1+t+tA) and G = (A-1-t)/((1+t)A).  Consecutive partial
    # products differ by the factor (FG)(u^i t), and F*G telescopes to
    # H = (A-1-t)/(1+t+tA), so the running product only ever multiplies by a
    # substituted-univariate series (monomial coefficients, cheap).  H is
    # divisible by t^4, which makes the tail of the sum vanish quickly.
    one, t, a, order = r.one, r.t, r.a, r.order
    running = (one + t) * a / r.q
    h = (a - one - t) / r.q
    # the sum is added into one integer row per t-slot: term i puts each
    # coefficient of running, at t^k, into slot i + k at u^C(i,2) and into
    # slot i + k + 1 at u^(C(i,2) + i), the shift by 1 + u^i t
    rows: list[list[int]] = [[] for _ in range(order + 1)]
    for i in range(order + 1):
        if i:
            # term i needs running only through t^(order - i)
            running = running.truncated(order - i) * h.truncated(order - i).subst_ut(i)
            if running.is_zero():
                break
        low = math.comb(i, 2)
        for k, c in enumerate(running.coeffs):
            _add_at(rows[i + k], c.coeffs, low)
            if i + k < order:
                _add_at(rows[i + k + 1], c.coeffs, low + i)
    return Series(order, map(UPoly, rows))


def _add_at(row: list[int], coeffs: tuple[int, ...], power: int) -> None:
    """Add the polynomial with the given coefficients, times u^power, into row."""
    if not coeffs:
        return
    top = power + len(coeffs)
    if len(row) < top:
        row.extend([0] * (top - len(row)))
    row[power:top] = map(add, row[power:top], coeffs)


def _dist_16(r: Terms, p: Series, e: Series) -> Series:
    # E* from the STAR recurrence E* = t(E(ut) - E*(ut)), one coefficient at
    # a time (E*_0 = 0, E*_n = u^(n-1) (E_(n-1) - E*_(n-1))), so that E does
    # not cancel as it would with E* eliminated through the main identity
    estar = [UPoly()]
    for n in range(1, r.order + 1):
        estar.append((e.coeff(n - 1) - estar[-1]).shift(n - 1))
    return e - (p + (Series(r.order, estar) - r.t) * r.s)


def _star_16(r: Terms, p: Series, e: Series) -> Series:
    estar = (r.q / (r.opt * r.a)) * e - r.one
    return estar - (e.subst_ut(1) - estar.subst_ut(1)).mul_t(1)


def _av_22(r: Terms, p: Series, e: Series) -> Series:
    blk = r.a - r.b - r.t
    return p - (r.a - 2 * r.t * blk * r.a - blk * blk * r.a)


def _dist_22(r: Terms, p: Series, e: Series) -> Series:
    blk = r.a - r.b - r.t
    return e - (p + 2 * r.ut * blk * r.a + r.u * blk * blk * r.a)


def _dist_63(r: Terms, p: Series, e: Series) -> Series:
    # the main identity, cleared of its 1/t factor
    estar = (r.t + r.ut * (e - r.one)) / (r.one + r.ut)
    return (e - p).mul_t(1) - (estar - r.t) * (p - r.one) * r.opt


def _restricted(r: Terms, estar: Series, e: Series) -> Series:
    # E*, eliminated from the main identity at the order it keeps, must
    # satisfy E* = t + ut (E - 1 - E*)
    t, ut, one, e = (x.truncated(estar.order) for x in (r.t, r.ut, r.one, e))
    return estar - (t + ut * (e - one - estar))


def _star_63(r: Terms, p: Series, e: Series) -> Series:
    x = (e - p).div_t(1)
    y = (p - r.one).div_t(1)
    t, opt = (w.truncated(x.order) for w in (r.t, r.opt))
    return _restricted(r, t + (x / (y * opt)).mul_t(1), e)


# the king counts for n = 0..10
A_ROW = ("1", "1", "0", "0", "2", "14", "90", "646", "5242", "47622", "479306")
_X_ROW = ("1", "u", "0", "0", "2", "10+4u", "68+20u+2u^2", "500+136u+10u^2")

SOLVED: dict[str, SolvedPattern] = {
    "X": SolvedPattern(_X_ROW, lambda r: r.s, lambda r: r.atu),
    "X'": SolvedPattern(_X_ROW, lambda r: r.s, lambda r: r.atu),
    "10": SolvedPattern(
        ("1", "1", "0", "0", "1+u", "7+7u", "45+45u", "323+323u", "2621+2621u", "23811+23811u"),
        # exactly half the kings of each length n >= 2 avoid 10, and the other
        # half contain it once: it needs the outer entries increasing, and
        # reversal flips that
        lambda r: (r.a + r.opt).halved(),
        lambda r: r.opt + (r.one + r.u) * (r.a - r.opt).halved(),
    ),
    # no king permutation contains 11, 14, 30, 34, 36 or 45
    "11": SolvedPattern(A_ROW, lambda r: r.a, lambda r: r.a),
    "12": SolvedPattern(
        ("1", "1", "0", "0", "2", "12+2u^4", "78+12u^5", "568+78u^6", "4674+568u^7",
         "42948+4674u^8", "436358+42948u^9"),
        lambda r: r.t + r.a / r.opt,
        lambda r: r.a / r.opt + (r.a.subst_ut(1) / (r.one + r.ut)).mul_t(1),
        av=lambda r, p, e: p - (r.a - r.t * (r.b - r.one)),
        dist=lambda r, p, e: e - (p + (r.b.subst_ut(1) - r.one).mul_t(1)),
    ),
    "13": SolvedPattern(
        ("1", "1", "0", "0", "2", "14", "88+2u", "636+10u", "5174+68u", "47122+500u",
         "475132+4174u"),
        lambda r: r.t * r.t / r.opt + (r.one + 2 * r.t) * r.a / (r.opt * r.opt),
        lambda r: (r.t * r.t * (r.one - r.u)) / r.opt
            + (r.one + 2 * r.t + r.u * r.t * r.t) * r.a / (r.opt * r.opt),
        av=lambda r, p, e: p - (r.a - r.t * r.t * (r.c - r.one)),
        dist=lambda r, p, e: e - (p + r.u * r.t * r.t * (r.c - r.one)),
    ),
    "14": SolvedPattern(A_ROW, lambda r: r.a, lambda r: r.a),
    "16": SolvedPattern(
        ("1", "1", "0", "0", "2", "12+2u^4", "78+12u^5", "568+78u^6", "4674+568u^7",
         "42944+4u^4+4674u^8", "436314+20u^4+24u^5+42944u^9+4u^13"),
        lambda r: r.opt * r.opt * r.a / r.q,
        _distribution_16,
        av=lambda r, p, e: p - (r.a - r.t * (r.b - r.one) * r.s),
        dist=_dist_16,
        star=_star_16,
    ),
    "17": SolvedPattern(
        ("1", "1", "0", "0", "2", "14", "88+2u", "636+10u", "5174+68u", "47122+500u",
         "475128+4178u"),
        lambda r: (r.one / r.opt + r.t * r.opt / r.q) * r.a,
        lambda r: (r.one / r.opt + r.t * r.opt / r.qu) * r.a,
        av=lambda r, p, e: p - (r.b + r.t * r.s),
        dist=lambda r, p, e: e - (r.b + r.btu.mul_t(1)),
    ),
    "19": SolvedPattern(
        ("1", "1", "0", "0", "2", "12+2u", "76+14u", "556+90u", "4596+646u"),
        lambda r: (r.one + r.t - r.t * r.a / r.opt) * r.a,
        lambda r: (r.one + r.t - r.ut - r.t * (r.one - r.u) * r.a / r.opt) * r.a,
        av=lambda r, p, e: p
            - (r.a - r.t * (r.b - r.one) - r.t * (r.a - r.one) * (r.b - r.one)),
        dist=lambda r, p, e: e
            - (p + r.ut * (r.b - r.one) + r.ut * (r.a - r.one) * (r.b - r.one)),
    ),
    "20": SolvedPattern(
        ("1", "1", "0", "0", "2", "14", "88+2u", "634+12u", "5164+78u"),
        lambda r: (r.one + r.t * r.t / r.opt - r.t * r.t * r.a / (r.opt * r.opt)) * r.a,
        lambda r: (
            r.one
            + r.t * r.t * (r.one - r.u) / r.opt
            - r.t * r.t * (r.one - r.u) * r.a / (r.opt * r.opt)
        ) * r.a,
        av=lambda r, p, e: p - (r.a - (r.a - r.b - r.t) * (r.a - r.b)),
        dist=lambda r, p, e: e - (p + r.u * (r.a - r.b - r.t) * (r.a - r.b)),
    ),
    "22": SolvedPattern(
        ("1", "1", "0", "0", "2", "14", "86+4u", "618+28u", "5062+180u"),
        lambda r: (r.one + r.t * r.t - r.t * r.t * r.a * r.a / (r.opt * r.opt)) * r.a,
        lambda r: (r.one + r.t * r.t * (r.one - r.u) * (r.one - r.a * r.a / (r.opt * r.opt))) * r.a,
        av=_av_22,
        dist=_dist_22,
    ),
    "27": SolvedPattern(
        ("1", "1", "0", "0", "2", "14", "86+4u", "624+20u+2u^2", "5096+136u+10u^2"),
        lambda r: (r.t + r.one / r.opt - r.t * r.t * r.a * r.a / (r.opt * r.q)) * r.a,
        lambda r: (r.one + (r.t * r.t * (r.one - r.u) / r.opt) * (r.one - r.a * r.a / r.qu)) * r.a,
        av=lambda r, p, e: p - (r.a - (r.t * r.t * r.b * r.b * r.s - r.t * r.t * r.b)),
        dist=lambda r, p, e: e
            - (p + (r.u * r.t * r.t * r.b * r.s * r.btu - r.u * r.t * r.t * r.b)),
    ),
    "28": SolvedPattern(
        ("1", "1", "0", "0", "2", "14", "88+2u", "632+14u", "5152+90u"),
        lambda r: r.opt * r.opt * r.a / (r.opt * r.opt + r.t * r.t * (r.a - r.t - r.one) * r.a),
        lambda r: r.opt * r.opt * r.a / (
            r.one + r.t * (2 * r.one + r.t * (r.one + (r.one - r.u) * (r.a - r.t - r.one) * r.a))
        ),
        av=lambda r, p, e: p - (r.a - r.t * r.t * p * r.a * (r.c - r.one)),
        dist=lambda r, p, e: e - (p + r.u * r.t * r.t * p * (r.c - r.one) * e),
    ),
    "30": SolvedPattern(A_ROW, lambda r: r.a, lambda r: r.a),
    "33": SolvedPattern(
        ("1", "1", "0", "0", "2", "14", "88+2u", "636+10u", "5174+68u", "47122+500u",
         "475124+4182u"),
        lambda r: r.opt * (r.one + r.t + r.t * (2 * r.one + r.t) * r.a) * r.a / (r.q * r.q),
        lambda r: r.opt * (r.one + r.t * (r.one + r.u + r.ut + (2 * r.one - r.u + r.t) * r.a))
            * r.a / (r.q * r.qu),
        av=lambda r, p, e: p - (r.a - r.t * r.t * r.s * r.b * (r.ctu.eval_u(0) - r.one)),
        dist=lambda r, p, e: e
            - (p + r.u * r.t * r.t * r.s * r.btu * (r.ctu.eval_u(0) - r.one)),
    ),
    "34": SolvedPattern(A_ROW, lambda r: r.a, lambda r: r.a),
    "36": SolvedPattern(A_ROW, lambda r: r.a, lambda r: r.a),
    "45": SolvedPattern(A_ROW, lambda r: r.a, lambda r: r.a),
    "55": SolvedPattern(
        ("1", "1", "0", "0", "2", "14", "88+2u", "632+14u", "5152+88u+2u^2"),
        lambda r: r.opt * (r.a - r.t) / (r.one + r.t * (r.a - r.t - r.one)),
        lambda r: r.opt * (r.t * (r.one - r.u) - (r.one - r.ut) * r.a)
            / (-r.one + r.t * (r.one - r.u + r.t - (r.one - r.u) * r.a)),
        av=lambda r, p, e: p + (r.b - r.one) * (p - r.one) * (r.t + r.t * r.t) - r.a,
        dist=lambda r, p, e: e
            - (p + r.u * (e / r.opt - r.one) * (p - r.one) * (r.t + r.t * r.t)),
    ),
    "63": SolvedPattern(
        ("1", "1", "0", "0", "2", "12+2u", "76+14u", "556+88u+2u^2", "4592+636u+14u^2"),
        lambda r: (2 * r.a - r.t - r.one) / (r.a - r.t),
        lambda r: (r.opt * (r.one - r.u) + (r.u - 2 * r.one + r.u * r.t * r.t) * r.a)
            / (-r.u + r.t * (r.one - r.u + r.ut) - (r.one - r.u) * r.a),
        av=lambda r, p, e: p + (p - r.one) * (r.b - r.one) * r.opt - r.a,
        dist=_dist_63,
        star=_star_63,
        star_margin=1,
    ),
    "64": SolvedPattern(
        ("1", "1", "0", "0", "2", "10+4u", "68+20u+2u^2", "500+136u+10u^2", "4170+1004u+68u^2"),
        lambda r: r.one + r.t + r.one / r.opt - r.one / r.a,
        lambda r: (
            (r.u - r.one) * (r.one + r.ut) * r.opt
            + (2 * r.one - r.u + r.t * (2 * r.one + r.t + r.u - r.u * r.u)) * r.a
        ) / (r.u * (r.one + r.ut) * r.opt + (r.one - r.u) * (r.one + r.t + r.ut) * r.a),
        av=lambda r, p, e: p - (r.a - ((p - r.one) * (r.a - r.one) - r.t * r.t * r.b)),
        dist=lambda r, p, e: e - (
            p + r.u * (p - r.one) * (e - r.one) - r.ut * (r.t + r.ut * (e - r.one)) / (r.one + r.ut)
        ),
        star=lambda r, p, e: _restricted(
            r, (p + r.u * (p - r.one) * (e - r.one) - e).div_u().div_t(1), e
        ),
        star_margin=1,
    ),
}


def avoidance_series(ident: str | int, order: int) -> Series:
    """Counting series of king permutations avoiding a solved catalog pattern."""
    return _solved_series("avoidance", str(ident), order)


def distribution_series(ident: str | int, order: int) -> Series:
    """Occurrence distribution of a solved catalog pattern over king
    permutations, with u marking the number of occurrences.

    At u = 0 this reduces to :func:`avoidance_series`, and at u = 1 every
    coefficient collapses to the class count.
    """
    return _solved_series("distribution", str(ident), order)


@lru_cache(maxsize=4 * len(SOLVED))
def _solved_series(kind: str, ident: str, order: int) -> Series:
    # one build per kind, id and order in each command, whatever type the id
    # came in; a command reads both kinds of every pattern at two orders at most
    if ident not in SOLVED:
        raise ValueError(f"no closed {kind} form for pattern {ident!r}")
    return getattr(SOLVED[ident], kind)(terms(order))


def series_by_name(name: str, order: int) -> Series:
    """Resolve a CLI-style series name.

    ``A`` / ``B`` / ``C`` are the class counting series (full class, the
    not-beginning-with-smallest class, and the doubly restricted class);
    ``Atu`` / ``Btu`` / ``Ctu`` are the corresponding strong-point
    distributions; ``P:<id>`` and ``E:<id>`` are per-pattern avoidance and
    distribution series.
    """
    if name in BASE_NAMES:
        return getattr(terms(order), name.lower())
    if name.startswith("P:"):
        return avoidance_series(name[2:], order)
    if name.startswith("E:"):
        return distribution_series(name[2:], order)
    raise ValueError(
        f"unknown series {name!r}; expected one of {BASE_NAMES}, P:<id> or E:<id>"
    )
