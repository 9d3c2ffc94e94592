"""The per-subcarrier kernel: each SC's owner, power and split at given prices.

Given the dual prices, each (IR, SC) pair contributes
``L(p, a) = w * secrecy_rate(p, a) + p * omega``. Its maximizer is one of a
finite set of candidates: the closed-form real roots of the stationarity
quadratic with the split eliminated (a = optimal_split(p)), the roots of the
fixed-split stationarity cubic (a quadratic at split 0), and boundary
points; the (0, 0) skip is the fallback. An SC goes to its best pair's IR,
or to none where no pair scores above 0: one call solves every SC's
subproblem of the dual decomposition (Yu & Lui, 2006). The dual loop builds
one :class:`Kernel` per solve, which holds every price-independent quantity
of all K1*N pairs, and calls it at each price vector; one pair is a kernel
built from 1x1 gain arrays. A root is a candidate when its power lies in
(0, P_peak]. Below the zero-rate threshold a root scores p * omega, which
the cap (omega > 0) or the skip (omega <= 0) matches or beats, so no second
window on the threshold is needed.

All computations run in normalized units per element: power scaled by
sigma^2/sqrt(h2*b2), so the effective gains are sqrt(h2/b2) and its inverse
and the noise power is one. There the closed-form roots are accurate to
rounding; raw coefficients underflow in double precision at realistic
magnitudes (noise around 5e-12 W, gains spanning many decades).
"""

from __future__ import annotations

import numpy as np

from .model import GAIN_RTOL, LN2, _secrecy_rate, optimal_split

_TINY = 1e-300


class UnboundedSubproblemError(ValueError):
    """The per-SC Lagrangian grows without bound (infinite peak power, omega >= 0)."""


def normalized(H, B, sigma2):
    """Power unit p0 = sigma2/sqrt(H*B) and the normalized gains (h, 1/h)."""
    p0 = sigma2 / np.sqrt(H * B)
    h = np.sqrt(H / B)
    return p0, h, 1.0 / h


def _value(p, a, h, b, w, om):
    """w * secrecy_rate(p, a) + p * om in normalized units; NaN where p is
    NaN."""
    return w * _secrecy_rate(p, a, h, b, 1.0) + p * om


def _quad_roots(a2, b2, c2):
    """Real roots of a2 x^2 + b2 x + c2 elementwise; NaN where absent.

    The stable pairing q = -(b2 + sign(b2) sqrt(disc)) / 2 gives the roots
    q / a2 and c2 / q. Where a2 vanishes the first is absent and the second
    is the linear root -c2 / b2. Returns an array of shape (2,) + the
    coefficients' broadcast shape.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b2 * b2 - 4.0 * a2 * c2
        sq = np.sqrt(np.maximum(disc, 0.0))
        q = -0.5 * (b2 + np.where(b2 >= 0, sq, -sq))
        r1 = q / np.where(np.abs(a2) > _TINY, a2, np.nan)
        r2 = c2 / np.where(np.abs(q) > _TINY, q, np.nan)
    return np.where(disc >= 0, np.stack([r1, r2]), np.nan)


def _cubic_roots(a, b, c, d):
    """Real roots of a x^3 + b x^2 + c x + d elementwise; NaN-padded (3, ...)."""
    a, b, c, d = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c, d)))
    cubic = np.abs(a) > _TINY
    out = np.full((3,) + a.shape, np.nan)
    # quadratic/linear fallback
    qr = _quad_roots(b, c, d)
    out[0] = np.where(~cubic, qr[0], np.nan)
    out[1] = np.where(~cubic, qr[1], np.nan)
    # depressed cubic t^3 + pt + q with x = t - b/(3a)
    with np.errstate(divide="ignore", invalid="ignore"):
        an = np.where(cubic, a, 1.0)
        bb, cc, dd = b / an, c / an, d / an
        shift = bb / 3.0
        pp = cc - bb * bb / 3.0
        qq = 2.0 * bb ** 3 / 27.0 - bb * cc / 3.0 + dd
        disc = (qq / 2.0) ** 2 + (pp / 3.0) ** 3
        # one real root (disc > 0)
        sq = np.sqrt(np.maximum(disc, 0.0))
        u = np.cbrt(-qq / 2.0 + sq)
        v = np.cbrt(-qq / 2.0 - sq)
        t_single = u + v
        # three real roots (disc <= 0): trigonometric form
        m = np.sqrt(np.maximum(-pp / 3.0, 0.0))
        big = m > _TINY
        cosarg = np.clip(np.where(big, -qq / (2.0 * np.where(big, m ** 3, 1.0)), 0.0),
                         -1.0, 1.0)
        theta = np.arccos(cosarg) / 3.0
        t0 = 2.0 * m * np.cos(theta)
        t1 = 2.0 * m * np.cos(theta - 2.0 * np.pi / 3.0)
        t2 = 2.0 * m * np.cos(theta - 4.0 * np.pi / 3.0)
    three = cubic & (disc <= 0)
    single = cubic & (disc > 0)
    out[0] = np.where(three, t0 - shift, out[0])
    out[1] = np.where(three, t1 - shift, out[1])
    out[2] = np.where(three, t2 - shift, np.nan)
    out[0] = np.where(single, t_single - shift, out[0])
    return out


def _root_slopes(x, coef, d_coef):
    """dx/dom = -(dQ/dom) / (dQ/dx) at roots ``x`` (leading axis) of the
    polynomials Q with coefficients ``coef``, highest power first, that move
    with om at the rates ``d_coef``; NaN where a root is absent."""
    deg = len(coef) - 1
    num = dq = 0.0
    with np.errstate(all="ignore"):
        for i, (c, dc) in enumerate(zip(coef, d_coef)):
            num = num * x + dc
            if i < deg:
                dq = dq * x + (deg - i) * c
        return -num / dq


class Kernel:
    """The per-SC maximization of one solve, built from the gains, weights,
    cap and optional pinned split and owners, then called with each price
    vector.

    H, B: (K1, N) IR and eavesdropper gains; weights: (K1,); p_peak: scalar
    cap; owner_fixed: (N,) owners in [0, K1); a call takes the (N,) prices.
    An infinite cap needs a negative price on every pair, otherwise the
    objective is unbounded (the dual loop caps at min(P_peak, P_max), which
    the total-power constraint implies).

    Built once and read-only: the normalization, the h2 > b2 mask, the
    price-free parts of the root coefficients and their rates of change in
    the price, and the candidates whose power does not depend on the
    prices, with their splits and weighted secrecy rates. A call adds the
    price-dependent roots, their slopes and every value. Each coefficient
    keeps the association order of its one-piece formula, so the results
    are the same to the bit."""

    def __init__(self, H, B, sigma2, weights, p_peak, alpha_fixed=None,
                 owner_fixed=None):
        H, B = np.asarray(H, dtype=float), np.asarray(B, dtype=float)
        self.w = w = np.array(weights, dtype=float)[:, None]
        self.p_peak = p_peak
        self.p0, self.h, self.b = p0, h, b = normalized(H, B, sigma2)
        self.pk = pk = np.broadcast_to(p_peak / p0, H.shape)
        # flat index of each pair within one candidate's (K1, N) block
        self.pairs = np.arange(H.size).reshape(H.shape)
        self.cols = np.arange(H.shape[1])
        self.owner_fixed = (None if owner_fixed is None
                            else np.array(owner_fixed, dtype=int))
        self.free = alpha_fixed is None
        self.a = a = 0.0 if self.free else float(alpha_fixed)
        # the fixed-split cubic in p, ``c0 om a (a-1) p^3 + b (c1 + LN2 om c2)
        # p^2 + (c3 - LN2 om c4) p + c5 - LN2 om``
        self.cubic = np.stack([
            LN2 * h * b * b, b * h * w * a * (a - 1.0), h * a * a - b * a - h,
            2.0 * b * h * w * a * (a - 1.0), b * (1.0 + a) + h * (1.0 - a),
            (a - 1.0) * (h - b) * w])
        # the root coefficients' rates of change in the price, highest
        # power first
        c0, c2, c4 = self.cubic[[0, 2, 4]]
        d_fixed = [c0 * a * (a - 1.0), b * LN2 * c2, -LN2 * c4,
                   np.full_like(h, -LN2)]
        if self.free:
            self.hgb = (H > B) & ~np.isclose(H, B, rtol=GAIN_RTOL, atol=0.0)
            # the quadratic with alpha = optimal_split(p) (subregion i),
            # ``j0 om p^2 + b (j1 + LN2 om j2) p + j3 + LN2 om j4``
            self.joint = np.stack([LN2 * b * b * h, b * h * w, b + 2.0 * h,
                                   b * w * (h - b), b + h])
            j0, j2, j4 = self.joint[[0, 2, 4]]
            self.d_coef = np.stack([np.stack(c) for c in zip(
                [j0, b * LN2 * j2, LN2 * j4], d_fixed[1:])])
            # candidates in order: the two joint roots; the peak; the
            # alpha = 0 roots of subregion ii (h2 > b2); and the power where
            # optimal_split reaches zero, which bounds the two subregions
            p_fix = [pk, np.where(self.hgb, 1.0 / b - 1.0 / h, np.nan)]
            a_fix = [optimal_split(pk, h, b, 1.0), np.zeros_like(h)]
            self.order = np.array([0, 1, 4, 2, 3, 5])  # roots come first
        else:
            self.d_coef = np.stack(d_fixed)
            # the fixed-split roots, then the peak
            p_fix, a_fix = [pk], [np.full(H.shape, a)]
            self.order = slice(None)
        p_fix = np.stack(p_fix)
        self.p_fix = np.where(np.isfinite(p_fix) & (p_fix > 0) & (p_fix <= pk),
                              p_fix, np.nan)
        self.a_fix = np.stack(a_fix)
        self.rate_fix = w * _secrecy_rate(self.p_fix, self.a_fix, h, b, 1.0)
        if self.free:
            # a free split sends no noise without secrecy rate: an
            # energy-only pair (h2 < b2) at its peak reports split 0, not 1
            self.a_fix = np.where(self.rate_fix > 0.0, self.a_fix, 0.0)
        for v in vars(self).values():
            if isinstance(v, np.ndarray):
                v.setflags(write=False)

    def roots(self, om):
        """Price-dependent candidate powers at normalized prices ``om`` and
        their rates of change in ``om``, NaN where absent: with a free split
        the two roots of the quadratic with alpha = optimal_split(p), then
        the two alpha = 0 roots on h2 > b2 pairs; with a pinned split the
        roots of the fixed-split cubic, a quadratic at split 0. A root x of
        a stationarity polynomial Q moves at -(dQ/dom) / (dQ/dx)."""
        c0, c1, c2, c3, c4, c5 = self.cubic
        a, lom = self.a, LN2 * om
        fixed = (c0 * om * a * (a - 1.0), self.b * (c1 + lom * c2),
                 c3 - lom * c4, c5 - lom)
        if not self.free:
            r = _quad_roots(*fixed[1:]) if a == 0.0 else _cubic_roots(*fixed)
            return r, _root_slopes(r, fixed, self.d_coef)
        j0, j1, j2, j3, j4 = self.joint
        joint = (j0 * om, self.b * (j1 + lom * j2), j3 + lom * j4)
        coef = [np.stack(c) for c in zip(joint, fixed[1:])]
        r = _quad_roots(*coef)
        d = _root_slopes(r, coef, self.d_coef)
        return tuple(np.concatenate([x[:, 0], np.where(self.hgb, x[:, 1], np.nan)])
                     for x in (r, d))

    def __call__(self, omega):
        """Each SC's (owner, p, alpha, value, dp/domega) at the (N,) prices.
        Per pair the earliest best candidate wins, per SC the lowest row with
        the best value or the pinned owner; where that value is <= 0 the SC
        skips: all 0, and owner -1 unless pinned. dp/domega is -dQ/domega /
        dQ/dp of the stationarity polynomial Q whose root won, else 0."""
        om_in = np.broadcast_to(np.asarray(omega, dtype=float), self.pk.shape)
        if not np.isfinite(self.p_peak) and np.any(om_in >= 0.0):
            raise UnboundedSubproblemError(
                "per-SC objective grows without bound at infinite peak power")
        om = om_in * self.p0
        p, slope = self.roots(om)
        if self.free:
            a = np.concatenate([optimal_split(p[:2], self.h, self.b, 1.0),
                                np.zeros_like(p[2:])])
        else:
            a = np.full_like(p, self.a)
        p = np.where((p > 0) & (p <= self.pk), p, np.nan)
        P = np.concatenate([p, self.p_fix])[self.order]
        A = np.concatenate([a, self.a_fix])[self.order]
        V = np.concatenate([_value(p, a, self.h, self.b, self.w, om),
                            self.rate_fix + self.p_fix * om])[self.order]
        D = np.concatenate([slope, np.zeros_like(self.p_fix)])[self.order]
        # absent candidates (NaN power) and non-finite values never win
        V = np.where(np.isfinite(V), V, -np.inf)
        best = np.argmax(V, axis=0) * self.pairs.size + self.pairs
        row = (np.argmax(V.take(best), axis=0) if self.owner_fixed is None
               else self.owner_fixed)
        pair = row * self.cols.size + self.cols
        p, a, v, d = (X.take(best.take(pair)) for X in (P, A, V, D))
        # the skip fallback (0, 0) has value 0
        skip = ~(v > 0.0)
        owner = row if self.owner_fixed is not None else np.where(skip, -1, row)
        # normalized to physical units: p = p0 x and omega = om / p0
        p0 = self.p0.take(pair)
        return (owner, np.where(skip, 0.0, p) * p0, np.where(skip, 0.0, a),
                np.where(skip, 0.0, v), np.where(skip, 0.0, d) * (p0 * p0))
