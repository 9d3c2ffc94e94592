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

The candidates come in rows: the roots of one stationarity polynomial and
one price-free power. Every pair has one row; with a free split only a pair
with h2 > b2 has a second, for its split-0 subregion, because elsewhere
that subregion has no secrecy rate. Such an extra row
replaces its pair's best only where its value is strictly greater. On the
paper's draws the energy receivers sit near the base station and no pair
has h2 > b2, so a call there computes no split-0 candidates at all.

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
    return np.where(disc >= 0, [r1, r2], np.nan)


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

    The kernel works over candidate rows, each with its price-dependent
    roots and one candidate whose power does not depend on the prices.
    Every pair has one row, flat in (K1, N) order: with a free split the
    two roots of the quadratic with alpha = optimal_split(p) (subregion i)
    and the peak; with a pinned split the fixed-split roots and the peak.
    With a free split each h2 > b2 pair has one more row after those: the
    two alpha = 0 roots of subregion ii and the power 1/b - 1/h where
    optimal_split reaches zero, which bounds the two subregions. An extra
    row replaces its pair's best only where its value is strictly greater,
    so a tie goes to the first row. No extra rows (no pair with h2 > b2)
    means no extension work in a call.

    Built once and read-only: the rows' normalization, weights and caps,
    the price-free parts of their root coefficients and the rates of
    change of those in the price, and the price-free candidates with their
    splits and weighted secrecy rates. A call adds the price-dependent
    roots, their slopes and every value. Each kind of row keeps the
    association order of its one-piece coefficient formula, so the results
    are the same to the bit."""

    def __init__(self, H, B, sigma2, weights, p_peak, alpha_fixed=None,
                 owner_fixed=None):
        H, B = np.asarray(H, dtype=float), np.asarray(B, dtype=float)
        n, n_sc = H.size, H.shape[1]
        self.unbounded = not np.isfinite(p_peak)
        self.cols = np.arange(n_sc)
        self.owner_fixed = (None if owner_fixed is None
                            else np.array(owner_fixed, dtype=int))
        self.free = alpha_fixed is None
        self.a = a = 0.0 if self.free else float(alpha_fixed)
        # the pair of each row: every pair, then with a free split each
        # h2 > b2 pair again for its alpha = 0 row
        rows = np.arange(n)
        if self.free:
            hgb = (H > B) & ~np.isclose(H, B, rtol=GAIN_RTOL, atol=0.0)
            rows = np.concatenate([rows, np.flatnonzero(hgb)])
        self.extra = rows[n:]  # the pair of each extra row
        self.index = np.arange(rows.size)
        self.col = rows % n_sc
        p0, h, b = (x.ravel().take(rows) for x in normalized(H, B, sigma2))
        self.p0, self.h, self.b = p0, h, b
        self.w = w = np.array(weights, dtype=float).take(rows // n_sc)
        self.pk = pk = p_peak / p0
        # the quadratic with alpha = optimal_split(p) on the first rows,
        # ``j0 om p^2 + b (j1 + LN2 om j2) p + j3 + LN2 om j4``
        j = n if self.free else 0
        hj, bj, wj = h[:j], b[:j], w[:j]
        self.joint = np.stack([LN2 * bj * bj * hj, bj * hj * wj, bj + 2.0 * hj,
                               bj * wj * (hj - bj), bj + hj])
        # the fixed-split cubic in p on the other rows, ``c0 om a (a-1) p^3
        # + b (c1 + LN2 om c2) p^2 + (c3 - LN2 om c4) p + c5 - LN2 om``
        h, b, w = h[j:], b[j:], w[j:]
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
            j0, j2, j4 = self.joint[[0, 2, 4]]
            self.d_coef = np.concatenate([
                np.stack([j0, bj * LN2 * j2, LN2 * j4]),
                np.stack(d_fixed[1:])], axis=1)
        else:
            self.d_coef = np.stack(d_fixed)
        # the price-free candidate of each row: the peak on a pair's first
        # row, 1/b - 1/h on an alpha = 0 row
        h, b = self.h, self.b
        p_fix = np.concatenate([pk[:n], 1.0 / b[n:] - 1.0 / h[n:]])
        self.p_fix = np.where(np.isfinite(p_fix) & (p_fix > 0) & (p_fix <= pk),
                              p_fix, np.nan)[None]
        self.zero = np.zeros_like(self.p_fix)  # the price-free slopes
        a_fix = np.full(rows.size, a)
        if self.free:
            a_fix[:n] = optimal_split(pk[:n], h[:n], b[:n], 1.0)
        self.rate_fix = self.w * _secrecy_rate(self.p_fix, a_fix, h, b, 1.0)
        # a free split sends no noise without secrecy rate: an energy-only
        # pair (h2 < b2) at its peak reports split 0, not 1
        self.a_fix = (np.where(self.rate_fix > 0.0, a_fix, 0.0) if self.free
                      else a_fix[None])
        for v in vars(self).values():
            if isinstance(v, np.ndarray):
                v.setflags(write=False)

    def roots(self, om):
        """The rows' price-dependent candidate powers at their normalized
        prices ``om`` and the powers' rates of change in ``om``, each
        (roots, rows), NaN where absent: with a free split the two roots of
        the quadratic with alpha = optimal_split(p) on a pair's first row
        and the two alpha = 0 roots on an extra row; with a pinned split the
        roots of the fixed-split cubic, a quadratic at split 0. A root x of
        a stationarity polynomial Q moves at -(dQ/dom) / (dQ/dx)."""
        a, lom = self.a, LN2 * om
        if not self.free:
            c0, c1, c2, c3, c4, c5 = self.cubic
            fixed = (c0 * om * a * (a - 1.0), self.b * (c1 + lom * c2),
                     c3 - lom * c4, c5 - lom)
            r = _quad_roots(*fixed[1:]) if a == 0.0 else _cubic_roots(*fixed)
            return r, _root_slopes(r, fixed, self.d_coef)
        j0, j1, j2, j3, j4 = self.joint
        n = j0.size
        o, lo = om[:n], lom[:n]
        coef = (j0 * o, self.b[:n] * (j1 + lo * j2), j3 + lo * j4)
        if n < om.size:
            _, c1, c2, c3, c4, c5 = self.cubic
            lo = lom[n:]
            coef = [np.concatenate(c) for c in zip(coef, (
                self.b[n:] * (c1 + lo * c2), c3 - lo * c4, c5 - lo))]
        r = _quad_roots(*coef)
        return r, _root_slopes(r, coef, self.d_coef)

    def __call__(self, omega):
        """Each SC's (owner, p, alpha, value, dp/domega) at the (N,) prices.
        Per row the earliest best candidate wins, per pair its first row
        unless an extra row is strictly better, per SC the lowest pair with
        the best value or the pinned owner; where that value is <= 0 the SC
        skips: all 0, and owner -1 unless pinned. dp/domega is -dQ/domega /
        dQ/dp of the stationarity polynomial Q whose root won, else 0."""
        om = np.asarray(omega, dtype=float)
        if om.shape != self.cols.shape:
            om = np.broadcast_to(om, self.cols.shape)
        if self.unbounded and np.any(om >= 0.0):
            raise UnboundedSubproblemError(
                "per-SC objective grows without bound at infinite peak power")
        om = om.take(self.col) * self.p0
        p, slope = self.roots(om)
        a = (optimal_split(p, self.h, self.b, 1.0) if self.free
             else np.empty_like(p))
        a[:, self.joint.shape[1]:] = self.a  # the fixed-split rows' split
        p = np.where((p > 0) & (p <= self.pk), p, np.nan)
        P = np.concatenate([p, self.p_fix])
        A = np.concatenate([a, self.a_fix])
        V = np.concatenate([_value(p, a, self.h, self.b, self.w, om),
                            self.rate_fix + self.p_fix * om])
        D = np.concatenate([slope, self.zero])
        # absent candidates (NaN power) and non-finite values never win
        V = np.where(np.isfinite(V), V, -np.inf)
        best = np.argmax(V, axis=0) * self.index.size + self.index
        n = self.index.size - self.extra.size
        if self.extra.size:
            # an extra row replaces its pair's best only where strictly better
            v = V.take(best)
            win = v[n:] > v.take(self.extra)
            best[self.extra[win]] = best[n:][win]
        best = best[:n].reshape(-1, self.cols.size)
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
