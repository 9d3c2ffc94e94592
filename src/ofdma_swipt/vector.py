"""The per-subcarrier kernel: optimal (power, split) for every (IR, SC) pair.

Given the dual prices, each pair contributes
``L(p, a) = w * secrecy_rate(p, a) + p * omega``. Its maximizer is one of a
finite set of candidates: the closed-form real roots of the stationarity
quadratic with the split eliminated (a = optimal_split(p)), the roots of the
fixed-split stationarity cubic, and boundary points; the (0, 0) skip is the
fallback. The dual loop calls :func:`solve_all` on all K1*N pairs at once;
one pair is the call with 1x1 gain arrays. A root is a candidate when its
power lies in (0, P_peak]. Below the zero-rate threshold a root scores
p * omega, which the cap (omega > 0) or the skip (omega <= 0) matches or
beats, so no second window on the threshold is needed.

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
    """w * secrecy_rate(p, a) + p * om in normalized units; -inf where p is
    not a finite positive power."""
    p = np.where(np.isfinite(p) & (p > 0), p, np.nan)
    v = w * _secrecy_rate(p, a, h, b, 1.0) + p * om
    return np.where(np.isnan(p), -np.inf, v)


def _quad_roots(a2, b2, c2):
    """Real roots of a2 x^2 + b2 x + c2 elementwise; NaN where absent.

    Falls back to the linear root where the leading coefficient vanishes.
    Returns an array of shape (2,) + a2.shape.
    """
    a2, b2, c2 = np.broadcast_arrays(a2, b2, c2)
    scale = np.maximum(np.maximum(np.abs(a2), np.abs(b2)), np.abs(c2))
    lead_ok = np.abs(a2) > 1e-14 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b2 * b2 - 4.0 * a2 * c2
        sq = np.sqrt(np.maximum(disc, 0.0))
        # numerically stable pairing: q = -(b + sign(b) sqrt(disc)) / 2
        q = -0.5 * (b2 + np.where(b2 >= 0, sq, -sq))
        r1 = q / np.where(np.abs(a2) > _TINY, a2, np.nan)
        r2 = c2 / np.where(np.abs(q) > _TINY, q, np.nan)
        lin = -c2 / np.where(np.abs(b2) > _TINY, b2, np.nan)
    r1 = np.where(lead_ok, np.where(disc >= 0, r1, np.nan), lin)
    r2 = np.where(lead_ok, np.where(disc >= 0, r2, np.nan), np.nan)
    return np.stack([r1, r2])


def _cubic_roots(a, b, c, d):
    """Real roots of a x^3 + b x^2 + c x + d elementwise; NaN-padded (3, ...)."""
    a, b, c, d = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c, d)))
    scale = np.max(np.stack([np.abs(a), np.abs(b), np.abs(c), np.abs(d)]), axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    cubic = np.abs(a) > 1e-14 * scale
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
        denom = np.where(m > _TINY, 2.0 * m ** 3, np.nan)
        cosarg = np.clip(np.where(np.isnan(denom), 0.0, -qq / (2.0 * np.where(m > _TINY, m ** 3, 1.0))), -1.0, 1.0)
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


def joint_roots(h, b, w, om):
    """Real roots of the stationarity quadratic with the split eliminated;
    NaN-padded (2, ...)."""
    return _quad_roots(LN2 * b * b * h * om,
                       b * (b * h * w + LN2 * om * (b + 2.0 * h)),
                       b * w * (h - b) + LN2 * om * (b + h))


def fixed_alpha_roots(a, h, b, w, om):
    """Real roots of the stationarity cubic in p at a fixed split ``a``;
    NaN-padded (3, ...). At a = 0 the cubic term vanishes."""
    return _cubic_roots(
        LN2 * h * b * b * om * a * (a - 1.0),
        b * (b * h * w * a * (a - 1.0) + LN2 * om * (h * a * a - b * a - h)),
        2.0 * b * h * w * a * (a - 1.0) - LN2 * om * (b * (1.0 + a) + h * (1.0 - a)),
        (a - 1.0) * (h - b) * w - LN2 * om)


def solve_all(H, B, sigma2, weights, omega, p_peak, alpha_fixed=None):
    """Optimal (p, alpha, value) for every (IR, SC) pair.

    H, B: (K1, N) IR and eavesdropper gains; weights: (K1,); omega: (N,)
    price vector; p_peak: scalar cap. An infinite cap needs a negative price
    on every pair, otherwise the objective is unbounded (the dual loop caps
    at min(P_peak, P_max), which the total-power constraint implies).
    With ``alpha_fixed`` the split ratio is pinned and only the power is
    optimized (fixed-alpha benchmark schemes).

    Returns arrays p (K1, N), alpha (K1, N), value (K1, N).
    """
    H = np.asarray(H, dtype=float)
    B = np.asarray(B, dtype=float)
    w = np.asarray(weights, dtype=float)[:, None]
    om_in = np.broadcast_to(np.asarray(omega, dtype=float), H.shape)
    if not np.isfinite(p_peak) and np.any(om_in >= 0.0):
        raise UnboundedSubproblemError(
            "per-SC objective grows without bound at infinite peak power")

    p0, h, b = normalized(H, B, sigma2)
    om = om_in * p0
    pk = np.broadcast_to(p_peak / p0, H.shape)

    if alpha_fixed is None:
        eq = np.isclose(H, B, rtol=GAIN_RTOL, atol=0.0)
        hgb = (H > B) & ~eq
        hlb = (H < B) & ~eq
        # subregion i: alpha = optimal_split(p)
        cands_p = list(joint_roots(h, b, w, om))
        cands_a = [optimal_split(r, h, b, 1.0) for r in cands_p]
        # zero-rate boundary (h2 < b2), listed before the peak pair so that
        # an energy-only pair, where both carry no secrecy rate, reports
        # split 0 rather than 1
        cands_p.append(np.where(hlb, pk, np.nan))
        cands_a.append(np.zeros_like(h))
        cands_p.append(pk)
        cands_a.append(optimal_split(pk, h, b, 1.0))
        # subregion ii (h2 > b2): alpha clamped to zero, and the power where
        # optimal_split reaches zero, which bounds the two subregions
        for r in fixed_alpha_roots(0.0, h, b, w, om):
            cands_p.append(np.where(hgb, r, np.nan))
            cands_a.append(np.zeros_like(h))
        cands_p.append(np.where(hgb, 1.0 / b - 1.0 / h, np.nan))
        cands_a.append(np.zeros_like(h))
    else:
        a0 = float(alpha_fixed)
        cands_p = list(fixed_alpha_roots(a0, h, b, w, om)) + [pk]
        cands_a = [np.full(H.shape, a0)] * len(cands_p)

    P = np.stack(cands_p)
    A = np.stack(cands_a)
    P = np.where((P > 0) & (P <= pk), P, np.nan)
    V = _value(P, A, h, b, w, om)
    V = np.where(np.isfinite(V), V, -np.inf)
    best = np.argmax(V, axis=0)
    idx = np.indices(H.shape)
    p_best = P[best, idx[0], idx[1]]
    a_best = A[best, idx[0], idx[1]]
    v_best = V[best, idx[0], idx[1]]
    # the skip fallback (0, 0) has value 0
    skip = ~(v_best > 0.0)
    p_best = np.where(skip, 0.0, p_best) * p0
    a_best = np.where(skip, 0.0, a_best)
    v_best = np.where(skip, 0.0, v_best)
    return p_best, a_best, v_best
