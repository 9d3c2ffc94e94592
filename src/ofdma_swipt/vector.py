"""The per-subcarrier kernel: each SC's owner, power and split at given prices.

Given the dual prices, each (IR, SC) pair contributes
``L(p, a) = w * secrecy_rate(p, a) + p * omega``. Its maximizer is one of a
finite set of candidates: the closed-form real roots of a stationarity
polynomial and the peak power; the (0, 0) skip is the fallback. With a free
split the polynomial is the quadratic with the split eliminated (a =
optimal_split(p)), with a pinned split the fixed-split cubic (a quadratic
at split 0 or 1). Each SC's subproblem of the dual decomposition (Yu & Lui,
2006) is a maximum over the IRs that may own the SC: every IR, or only a
pinned one (FSA's round robin). An IR that another beats in weight and
both gains never wins that maximum, so the kernel keeps only each SC's
undominated IRs (on the paper's draws, with equal weights, its strongest
IR alone). It lists those pairs' candidates per SC in one table, and one
first maximum over it picks every SC's winner; an SC skips, owner -1,
where that value is not above 0. The dual loop builds one :class:`Kernel`
per solve, which holds every price-independent quantity of the table's
pairs, and calls it at each price vector; one pair is a
kernel built from 1x1 gain arrays. The cap is finite, and a root is a
candidate when its power lies in (0, P_peak]. Below the zero-rate threshold
a root scores p * omega, which the cap (omega > 0) or the skip (omega <= 0)
matches or beats, so no second window on the threshold is needed.

The roots come in rows, one polynomial each, whose coefficients are linear
in the price. The rows are the table's m pairs, SC by SC. With a free split
and a pair with h2 > b2 the same pairs repeat at rows m..2m-1 for the
alpha = 0 quadratic of the split-0 subregion; only an h2 > b2 pair takes
candidates from there, because elsewhere that subregion has no secrecy
rate, and any other pair's row there copies its own. On the paper's draws
the energy receivers sit near the base station and no pair has h2 > b2, so
a kernel there has one row per pair and computes no split-0 candidates at
all. Each row's candidates are its roots and its peak, every one priced by
one split rule and one value formula.

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
    """Real roots of a x^3 + b x^2 + c x + d elementwise; NaN-padded (3, ...).

    One case split: where |a| <= ``_TINY``, the quadratic's roots (see
    :func:`_quad_roots`); elsewhere, for the depressed cubic t^3 + pt + q
    with x = t - b/(3a), the three trigonometric roots where its
    discriminant is <= 0, else Cardano's one real root.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c, d)))
    cubic = np.abs(a) > _TINY
    nan = np.full(a.shape, np.nan)
    quad = [*_quad_roots(b, c, d), nan]
    with np.errstate(divide="ignore", invalid="ignore"):
        an = np.where(cubic, a, 1.0)
        bb, cc, dd = b / an, c / an, d / an
        shift = bb / 3.0
        pp = cc - bb * bb / 3.0
        qq = 2.0 * bb ** 3 / 27.0 - bb * cc / 3.0 + dd
        disc = (qq / 2.0) ** 2 + (pp / 3.0) ** 3
        sq = np.sqrt(np.maximum(disc, 0.0))
        cardano = [np.cbrt(-qq / 2.0 + sq) + np.cbrt(-qq / 2.0 - sq), nan, nan]
        m = np.sqrt(np.maximum(-pp / 3.0, 0.0))
        big = m > _TINY
        cosarg = np.clip(np.where(big, -qq / (2.0 * np.where(big, m ** 3, 1.0)), 0.0),
                         -1.0, 1.0)
        theta = np.arccos(cosarg) / 3.0
        trig = [2.0 * m * np.cos(theta - k * np.pi / 3.0) for k in (0.0, 2.0, 4.0)]
        # a NaN discriminant gives Cardano's NaN
        return np.where(cubic, np.where(disc <= 0, trig, cardano) - shift, quad)


def _horner(coef, x):
    """The polynomial with coefficients ``coef``, highest power first along
    the leading axis, at ``x``."""
    y = 0.0
    for c in coef:
        y = y * x + c
    return y


def _undominated(H, B, w):
    """(K1, N) mask of the pairs that no other IR on the same SC dominates.

    IR k' dominates pair (k, n) when w' >= w, H' >= H and B' <= B, with one
    of them strict or all three equal and k' < k. The secrecy rate rises
    with H and falls with B at every (p, alpha), so at every price the
    dominated pair's value is at most k''s, and the first maximum over the
    pairs in index order never needs it. Every SC keeps at least one IR.
    """
    # k' (first axis) at least as good as k (second axis); all three equal
    # where it holds both ways
    ge = (w[:, None] >= w)[..., None] & (H[:, None] >= H) & (B[:, None] <= B)
    earlier = np.arange(len(w))[:, None] < np.arange(len(w))
    dominated = ge & (~ge.swapaxes(0, 1) | earlier[..., None])
    return ~dominated.any(axis=0)


def _joint_coefs(h, b, w):
    """(k, d), each (3, rows): with alpha = optimal_split(p) the
    stationarity quadratic, coefficients k + om d, highest power first:
      LN2 om b^2 h p^2 + b (b h w + LN2 om (b + 2h)) p
        + b w (h - b) + LN2 om (b + h)."""
    return (np.array([np.zeros_like(h), b * b * h * w, b * w * (h - b)]),
            np.array([LN2 * b * b * h, LN2 * b * (b + 2.0 * h),
                      LN2 * (b + h)]))


def _fixed_coefs(h, b, w, a):
    """(k, d), each (4, rows), or (3, rows) where c = a (a - 1) is 0: at the
    fixed split ``a`` the stationarity cubic, coefficients k + om d:
      LN2 om b^2 h c p^3 + b (b h w c + LN2 om (h a^2 - b a - h)) p^2
        + (2 b h w c - LN2 om (b (1 + a) + h (1 - a))) p
        + (a - 1) (h - b) w - LN2 om,
    a quadratic where c = 0."""
    c = a * (a - 1.0)
    k = [b * b * h * w * c, 2.0 * b * h * w * c, (a - 1.0) * (h - b) * w]
    d = [LN2 * b * (h * a * a - b * a - h),
         -LN2 * (b * (1.0 + a) + h * (1.0 - a)), np.full_like(h, -LN2)]
    if c != 0.0:
        k.insert(0, np.zeros_like(h))
        d.insert(0, LN2 * b * b * h * c)
    return np.array(k), np.array(d)


class Kernel:
    """The per-SC maximization of one solve, built from the gains, weights,
    cap and optional pinned split and owners, then called with each price
    vector.

    H, B: (K1, N) IR and eavesdropper gains; weights: (K1,); p_peak: finite
    scalar cap (the dual loop caps at min(P_peak, P_max), which the
    total-power constraint implies); owner_fixed: (N,) owners in [0, K1); a
    call takes the (N,) prices.

    ``table``, (T, N), holds the IRs that may own each SC: with free owners
    its undominated IRs (see :func:`_undominated`) in index order, padded
    to the largest count T by repeating the SC's first IR; (1, N) when
    pinned. ``at``, (T, N), maps each table entry to its pair's row: the m
    table pairs are rows 0..m-1, SC by SC, and a padded entry maps to its
    SC's first pair. A row's stationarity polynomial is the joint one (the
    split eliminated, alpha = optimal_split(p)) with a free split, else the
    fixed-split one. With a free split and a pair with h2 > b2 the same m
    pairs repeat at rows m..2m-1 for their alpha = 0 roots: an h2 > b2
    pair's row there has the alpha = 0 polynomial, any other pair's is a
    copy of its own row (``joint``), whose candidates tie its own and so
    never win. Each row's candidates are its roots, then its peak.
    ``order``, (C, N), gathers each SC's candidates entry by entry in table
    order: the pair's roots and peak, then, where there is a second block,
    its roots there. One first maximum over it picks every SC's winner, so
    a tie goes to the earlier pair and, within a pair, to its own row; a
    padded entry never wins. A winner worth <= 0 is a skip, owner -1.

    Built once and read-only: the table and ``at``, the rows' normalization,
    IRs, weights and peaks, each row's coefficients as ``k + om d``, highest
    power first (``k`` the price-free part, ``d`` the rate of change in the
    price), and the order. A call adds the roots, their slopes, the splits
    and every value."""

    def __init__(self, H, B, sigma2, weights, p_peak, alpha_fixed=None,
                 owner_fixed=None):
        if not np.isfinite(p_peak):
            raise ValueError("the per-SC cap p_peak must be finite")
        H, B = np.asarray(H, dtype=float), np.asarray(B, dtype=float)
        weights = np.array(weights, dtype=float)
        k1, n_sc = H.shape
        self.cols = np.arange(n_sc)
        keep = (_undominated(H, B, weights) if owner_fixed is None
                else np.asarray(owner_fixed) == np.arange(k1)[:, None])
        self.free = alpha_fixed is None
        self.a = a = 0.0 if self.free else float(alpha_fixed)
        # the table pairs, SC by SC and each SC's in index order; entry t of
        # SC n is the SC's pair t, or its first where it has no pair t
        sc, ir = np.nonzero(keep.T)
        count = keep.sum(axis=0)
        t = np.arange(count.max())[:, None]
        self.at = at = np.cumsum(count) - count + np.where(t < count, t, 0)
        self.table = ir.take(at)
        pairs = ir * n_sc + sc
        self.m = m = pairs.size
        # with a free split, the pairs above b2 by more than GAIN_RTOL; where
        # there is one, the pairs repeat at rows m..2m-1
        h2, b2 = H.ravel().take(pairs), B.ravel().take(pairs)
        hgb = self.free & (h2 - b2 > GAIN_RTOL * b2)
        rows = np.tile(pairs, 1 + hgb.any())
        # the rows whose split is the optimal one
        self.joint = np.concatenate([np.full(m, self.free), ~hgb])[:rows.size]
        self.ir, self.col = np.divmod(rows, n_sc)
        p0, h, b = normalized(H.ravel().take(rows), B.ravel().take(rows), sigma2)
        self.p0, self.h, self.b = p0, h, b
        self.w = w = weights.take(self.ir)
        self.p_fix = p_peak / p0[None]  # the peak, the price-free candidate
        # the stationarity polynomials' coefficients, k + om d, and each
        # table pair's slots in the (slot, row) candidates: its roots and
        # peak, then its roots at offset m, whose rows have the alpha = 0
        # polynomial where h2 > b2 and copy the pair's own elsewhere
        self.k, self.d = (_joint_coefs(h, b, w) if self.free
                          else _fixed_coefs(h, b, w, a))
        n_root = len(self.k) - 1
        own = np.arange(n_root + 1)[:, None] * rows.size + np.arange(m)
        if rows.size > m:
            self.k, self.d = (np.where(self.joint, x, y) for x, y in
                              zip((self.k, self.d), _fixed_coefs(h, b, w, 0.0)))
            own = np.vstack([own, own[:n_root] + m])
        self.order = own[:, at].swapaxes(0, 1).reshape(-1, n_sc)
        for v in vars(self).values():
            if isinstance(v, np.ndarray):
                v.setflags(write=False)

    def roots(self, om):
        """The rows' price-dependent candidate powers at their normalized
        prices ``om`` and the powers' rates of change in ``om``, each
        (roots, rows), NaN where absent: the roots of each row's
        stationarity polynomial Q, coefficients ``k + om d``. A root x moves
        at -(dQ/dom) / (dQ/dx) = -d(x) / dQ/dx, both by :func:`_horner`."""
        coef = self.k + om * self.d
        r = (_quad_roots if len(coef) == 3 else _cubic_roots)(*coef)
        deg = len(coef) - 1
        with np.errstate(all="ignore"):
            dq = [(deg - i) * c for i, c in enumerate(coef[:-1])]
            return r, -_horner(self.d, r) / _horner(dq, r)

    def _split(self, x):
        """The rows' splits at normalized powers ``x`` (leading axes free):
        the optimal one on the ``joint`` rows, else the pinned one (0 on a
        free split's alpha = 0 rows)."""
        if self.free:
            return np.where(self.joint, optimal_split(x, self.h, self.b, 1.0),
                            self.a)
        return np.full_like(x, self.a)

    def marginal_rates(self, p):
        """Each SC's first best table IR at the power ``p`` (watts), that
        IR's weighted secrecy rate w R there and its weighted marginal
        secrecy rate w dR/dp, (N,) each. The best IR has the largest
        w R(p, alpha), with alpha the optimal split at p or the pinned one;
        by the envelope theorem its marginal rate is the derivative at that
        fixed split. It is read from the pair's stationarity row as the
        price at which p is a root, -om = k(x) / d(x) at x = p / p0 (with a
        free split, its row at offset m where optimal_split(p) is 0), and is
        0 where the rate at p is."""
        x = p / self.p0
        a = self._split(x)
        rate = self.w * _secrecy_rate(x, a, self.h, self.b, 1.0)
        slope = np.where(rate > 0.0, _horner(self.k, x) / _horner(self.d, x),
                         0.0) / self.p0
        first = np.argmax(rate.take(self.at), axis=0)
        pair = self.at.take(first * self.cols.size + self.cols)
        if slope.size > self.m:
            pair = np.where(a.take(pair) == 0.0, pair + self.m, pair)
        return self.ir.take(pair), rate.take(pair), slope.take(pair)

    def __call__(self, omega):
        """Each SC's (owner, p, alpha, value, dp/domega) at the (N,) prices:
        its first best candidate in ``order``, or the skip where that value
        is <= 0: all 0, owner -1. dp/domega is -dQ/domega / dQ/dp of the
        stationarity polynomial Q whose root won, else 0."""
        om = np.asarray(omega, dtype=float).take(self.col) * self.p0
        x, slope = self.roots(om)
        # the candidates: each row's roots in (0, P_peak], then its peak
        x = np.concatenate([np.where((x > 0) & (x <= self.p_fix), x, np.nan),
                            self.p_fix])
        slope = np.concatenate([slope, np.zeros_like(self.p_fix)])
        a = self._split(x)
        v = _value(x, a, self.h, self.b, self.w, om)
        # absent candidates (NaN power) and non-finite values never win
        v = np.where(np.isfinite(v), v, -np.inf)
        first = np.argmax(v.take(self.order), axis=0)
        best = self.order.take(first * self.cols.size + self.cols)
        row = best % self.ir.size
        p, a, v, d = (X.take(best) for X in (x, a, v, slope))
        # the skip fallback (0, 0) has value 0
        skip = ~(v > 0.0)
        # normalized to physical units: p = p0 x and omega = om / p0
        p0 = self.p0.take(row)
        return (np.where(skip, -1, self.ir.take(row)),
                np.where(skip, 0.0, p) * p0, np.where(skip, 0.0, a),
                np.where(skip, 0.0, v), np.where(skip, 0.0, d) * (p0 * p0))
