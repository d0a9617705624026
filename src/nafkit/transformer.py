"""Invertible scalar transformers and their exact log-derivatives.

Three families: affine (exp- or gate-parameterized scale), a single
hidden layer of softmax-weighted sigmoids behind an inverse-sigmoid
readout (dsf), and its multi-layer dense generalization with
row-stochastic mixing matrices (ddsf). Every forward returns both y and
log(dy/dx), and the log-derivative passes between sublayers as a log,
so stacked Jacobian chains neither vanish nor overflow. Each sum inside
is taken in linear space with one log per output (see _log_sum): the
sigmoid mixtures [D; 1-D] = w [s(C); s(-C)], from one exp(-|C|) per
unit, and each log-det chain link, from s(C) s(-C) and max-shifted
terms (see _chain_link). A sum below _FLOOR = 2**-960 falls back, for
that entry (a link, for its column), to the logsumexp of its log-space
terms. The floor sits above the saturation guard's e**-708, so the
guard decides every entry it can reject on log-space values, and a
mixture with no entry below it skips the guard. A ddsf sublayer with one
unit mixes by w = [[1]]: it is closed-form, h' = C with log-derivative
link log a + log(u @ exp r), and takes no sigmoid, so it has nothing to
guard.

A family is parameterized only by the block of pseudo-parameters a
conditioner emits (plus ddsf's trainable vu and vw); softmax, softplus
and conditional weight normalization (CWN) apply inside.

Everything here is plain numpy, batch-last: x is (..., n) and a block
(..., width, n), components leading and points trailing, so every
reduction over the d components runs over a leading axis and every
product over them is a matrix times a (d, n) slab. Each family is one
Family subclass in the FAMILIES registry; it owns its conditioner block
layout, any extra parameters, a kernel (core) that returns y,
log(dy/dx) and the intermediates its hand-derived adjoint reads, that
adjoint, and its inverse. Densities run the kernel; training runs it
with the conditioner and keeps what the adjoint reads, and its reverse
sweep calls the family's adjoint (see flow.FlowLayer). dsf and ddsf
each have one kernel, _dsf_core and _ddsf_core. The ddsf kernel never
forms CWN's (d_out, d_in) weights per point: it keeps them factored as
a (d_out, d_in) and a (d_in, n) exponential and works by matrix
products, forward and backward. Inversion runs the same guarded kernel
as densities without its log-det chain (logdet=False): the same y bits
and the same guard, so every x an inverse returns is one the density
path can score. dsf and ddsf have no closed-form inverse: invert_batch
brackets each target and refines it by safeguarded Newton, dsf on the
slope its y pass gives for about an eighth more, ddsf on secant slopes
through y-only evaluations: about 6 to 18 forward evaluations per
dimension, from [-1, 1]. A block column that every point shares (the
dimension of degree 1) is one scalar function for the whole batch, so
one forward call on a TABLE-point grid over the x its units' bound allows
(_grid) seats every target in a cell, and the refine starts there: 3 or 4
evaluations in all on the benchmark's stacks.
"""

from __future__ import annotations

import numpy as np

from . import diffgraph as dg
from . import stablemath as sm
from .conditioner import GATE_IDENTITY_OFFSET, SOFTNESS_IDENTITY_OFFSET
from .errors import DomainError, NumericError, RangeError, SaturationError

# Forward-path saturation: log(D) or log(1-D) below this exponent
# underflows float64, i.e. the pre-logit is numerically 0 or 1. Stays
# clear of the nominal regime |a*x + b| <= 310.
LOG_UNDERFLOW = -708.0

# Debug switch for fault-injection runs; leave True in normal operation.
SATURATION_GUARD = True

# Reach of every inverse: an x beyond it is a RangeError.
BRACKET_CAP = 1e6

# Points of the table that seats every target of a block all points share.
TABLE = 65

# Refinement steps after bracketing before an inverse is a NumericError.
SOLVER_ITERATIONS = 200

DSF_DEFAULT_D = 16
DDSF_DEFAULT_DIMS = (1, 16, 1)


# -- log-space kernels -----------------------------------------------------

# A sum taken in linear space keeps its log only at or above this floor;
# below it (or if not finite) the entry is recomputed as the logsumexp of its
# log-space terms. 2**-960 (about e**-665) sits above the saturation guard's
# e**-708, so every entry the guard can reject is decided on log-space values,
# and a sum of fewer than 2**60 terms above it has a dominant term that is a
# normal float, not a subnormal one.
_FLOOR = 2.0 ** -960


def _finite_exp(a):
    with np.errstate(over="ignore"):  # overflow is raised below, typed
        out = np.exp(a)
    if not np.all(np.isfinite(out)):
        raise NumericError("exp overflow")
    return out


def _shifted_exp(v):
    """exp(v - m) and m, v's max over its component axis (-2), non-finite maxima as 0."""
    m = np.max(v, axis=-2, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = v - m
    return np.exp(e, out=e), m  # in place: one temporary of v's size, not two


def _columns(v, pts):
    """The (k, components) columns of v (..., components, n) at the points
    pts = (*lead, point), np.nonzero's tuple of an (..., n) array."""
    return np.moveaxis(v, -2, -1)[pts]


def _points_last(v, idx):
    """The (k, components) rows of v (..., components, n) at the flagged
    entries idx = (*lead, unit, point) of an (..., units, n) array."""
    return _columns(v, (*idx[:-2], idx[-1]))


def _outer_sum(a, b, keep=0):
    """a @ b.T summed over the leading axes of a (..., rows, n) and b (..., cols, n)
    but the first keep. A one-column b (a block every point shares) takes a
    summed over the points."""
    if b.shape[-1] < a.shape[-1]:
        a = np.sum(a, axis=-1, keepdims=True)
    out = a @ np.swapaxes(b, -1, -2)
    return out.reshape(*out.shape[:keep], -1, *out.shape[-2:]).sum(axis=keep)


def _first_point(bad):
    """Point-major flat index of the first flagged point of bad (..., n)."""
    return int(np.argmax(np.moveaxis(bad, -1, 0)))


def _log_sum(lin, m, terms):
    """log(lin) + m for sums lin taken in linear space, and the entries taken in log space.

    lin holds sums scaled by exp(-m) (m broadcasts to lin; a max shift, or
    -DELTA for a sigmoid mixture, whose log-space terms carry softplus's
    DELTA). Each entry below _FLOOR (or NaN, or negative) is recomputed as
    the logsumexp of its log-space terms(idx), (k, terms), with idx
    np.nonzero's tuple of those entries. Returns (out, low), low = (idx,
    their terms) or None; one min decides that no entry is low. lin is
    overwritten. Every entry of a mixture pair that comes back with low =
    None is a log of at least -665.4, which the saturation guard's -708
    cannot reject, so the mixtures call the guard only on low entries' pairs.
    """
    if lin.min(initial=np.inf) >= _FLOOR:  # NaN fails
        out = np.log(lin, out=lin)
        out += m
        return out, None
    low = ~(lin >= _FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(lin, out=lin)
        out += m
        if not low.any():
            return out, None
        idx = np.nonzero(low)
        t = terms(idx)
        out[idx] = sm.logsumexp_over_axis(t, -1)
    return out, (idx, t)


def _chain_link(w, q, shift, terms, keep=False):
    """A log-det chain link log(w @ q) + shift, summed in linear space with one log.

    q (..., units, n) holds the link's terms scaled by exp(-shift), shift
    broadcasts as (..., 1, n), and w is None for a one-unit sublayer (w =
    [[1]], so the link is log q + shift). A column with a sum below _FLOOR,
    or NaN (a low CWN product's), is taken in log space: terms(pts) gives
    its (k, units) log-space terms at pts = (*lead, point), and its q and
    shift become exp(t - max t) and max t, so every sum is at least its
    largest weight. Returns (out, q, lin, low), the record _mix_grads reads:
    low is _log_sum's low entries, and lin, with keep, the sums w @ q before
    their log (else None).
    """
    lin = q.copy() if w is None else w @ q
    if lin.min(initial=np.inf) >= _FLOOR:  # NaN fails; _log_sum's fast path, one min
        saved = lin.copy() if keep else None
        out = np.log(lin, out=lin)
        out += shift
        return out, q, saved, None
    pts = np.nonzero(~np.all(lin >= _FLOOR, axis=-2))
    t = terms(pts)
    top = np.max(t, axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    e = np.exp(t - top)
    shift = np.array(np.broadcast_to(shift, (*lin.shape[:-2], 1, lin.shape[-1])))
    np.moveaxis(q, -2, -1)[pts] = e
    np.moveaxis(shift, -2, -1)[pts] = top
    np.moveaxis(lin, -2, -1)[pts] = e if w is None else e @ w.T
    saved = lin.copy() if keep else None
    out, low = _log_sum(lin, shift, lambda idx: (
        (0.0 if w is None else np.log(w[idx[-2]]))
        + np.log(_points_last(q, idx)) + _points_last(shift, idx)))
    return out, q, saved, low


# -- sigmoid mixtures --------------------------------------------------------


def _sigmoids(C, w=None):
    """e = exp(-|C|) and the linear pair [s(C); s(-C)], (2, *C.shape), or w times
    it, all from that one exponential."""
    e = np.abs(C)
    np.negative(e, out=e)
    np.exp(e, out=e)
    return e, sm.sigmoid_pair(C, e, w)


def _logsigmoid_at(C, half, points):
    """log s(C) where half is 0 and log s(-C) where it is 1, with softplus's DELTA,
    of C (..., units, n) at points = (*lead, point) index arrays: (k, units),
    the log-space terms of a sigmoid mixture's entries taken in log space."""
    c = np.moveaxis(C, -2, -1)[points]
    return sm.logsigmoid(np.where(half[:, None] == 0, c, -c))


# -- shared plumbing -------------------------------------------------------


def _check_saturation(pair, x, layer=None):
    """Raise once log(D) or log(1-D) underflows float64 (pre-logit 0 or 1).

    pair is the stacked [log D; log(1-D)], (2, ..., n) or per unit
    (2, ..., units, n), and x (..., n); passing takes one min. The kernels
    call it only for a pair with entries below _FLOOR (the others cannot
    reach LOG_UNDERFLOW), and not for a one-unit ddsf sublayer, which
    takes no log. The error
    names the largest offending input magnitude and the first offending
    entry of x, point-major (the index of x.T's flat layout).
    SATURATION_GUARD = False skips the check, for fault injection.
    """
    if not SATURATION_GUARD or not np.min(pair, initial=np.inf) < LOG_UNDERFLOW:  # NaN passes
        return
    bad = np.any(pair < LOG_UNDERFLOW, axis=(0, -2) if pair.ndim > x.ndim + 1 else 0)
    mag = float(np.max(np.abs(x[bad])))
    where = "" if layer is None else f" in layer {layer}"
    raise SaturationError(
        f"pre-logit saturated{where} (|x| up to {mag:.6g})",
        magnitude=mag,
        layer=layer,
        index=_first_point(bad),
    )


# -- dsf -------------------------------------------------------------------


def _dsf_core(x, p, logdet=True, a_w=None):
    """The dsf kernel: y, log(dy/dx) and the intermediates its adjoint reads.

    Plain numpy: x (..., n); p = (w, log_w, a, log_a, b), (..., d, n) each,
    so every sum over the d components runs over the leading axis of a
    (d, n) slab. With C = a*x + b and e = exp(-|C|), one exponential per
    unit, two sums are taken in linear space, each with one log per point
    (see _log_sum): the mixture pair [D; 1-D] = sum_j S_j, S = w [s(C);
    s(-C)], and R = sum_j q_j, q = w a s(C) s(-C) = w a e / (1 + e)^2.
    Less softplus's DELTA (once per log sigmoid), their logs are what the
    logsumexp of the log-space terms log w + [log s(C); log s(-C)] and log w
    + log a + log s(C) + log s(-C) give, and a sum below _FLOOR is that
    logsumexp instead. y = log D - log(1-D) and log(dy/dx) = log R - log D -
    log(1-D); the deltas cancel exactly in both. The third return value
    holds C, e and per sum its terms, the sum, _log_sum's low entries and
    the sum's log, which _dsf_adjoint reads its weights from.
    With logdet=False (the inversion solver) it returns y alone once the
    guard has passed, without R. Given a_w = a / w instead (the Newton
    solver, once per solve), it returns y and dy/dx = sum_j a_j/w_j S0_j
    S1_j / (D (1-D)) in linear space from the same sums: y keeps its bits,
    and a slope that underflows only costs a bisection.
    """
    w, log_w, a, log_a, b = p
    C = a * x[..., None, :] + b
    e, S = _sigmoids(C, w)
    lin = np.sum(S, axis=-2)
    if a_w is not None:
        den = lin[0] * lin[1]  # before _log_sum overwrites lin
    keep = logdet and a_w is None  # _dsf_adjoint reads the sums, which _log_sum overwrites
    pair, low = _log_sum(lin.copy() if keep else lin, -sm.DELTA, lambda idx: (
        _logsigmoid_at(C, idx[0], idx[1:])
        + np.moveaxis(np.broadcast_to(log_w, C.shape), -2, -1)[idx[1:]]))
    if low is not None:
        _check_saturation(pair, x)
    y = pair[0] - pair[1]
    if a_w is not None:  # past the guard, so den > 0
        slope = np.einsum("...jn,...jn,...jn->...n", S[0], S[1], a_w)
        slope /= den
        return y, slope
    if not logdet:
        return y
    q = 1.0 + e
    q *= q
    np.divide(e, q, out=q)
    q *= w
    q *= a

    def terms(pts):
        c = _columns(C, pts)
        t = sm.logsigmoid(c)
        t += sm.logsigmoid(-c)
        t += _columns(np.broadcast_to(log_w, C.shape), pts)
        t += _columns(np.broadcast_to(log_a, C.shape), pts)
        return t

    R = np.sum(q, axis=-2)
    log_r, low_r = _log_sum(R.copy(), -2.0 * sm.DELTA, terms)
    return y, log_r - (pair[0] + pair[1]), (C, e, (S, lin, low, pair), (q, R, low_r, log_r))


def _sum_weights(total, low, out):
    """What a linear sum's softmax weights are read from: 1 / total, the saved
    sums (..., n), which is 0 on the low entries of _log_sum's (out, low),
    and those entries' weights exp(t - out), (k, terms), from their log-space
    terms t (None if no entry is low). A term over its sum is the term times
    1 / total, so every weight lies in [0, 1] up to rounding, saturated or
    below the floor."""
    if low is None:
        return np.reciprocal(total), None
    idx, t = low
    total[idx] = np.inf  # 1 / inf = 0: their weights are exp(t - out)
    return np.reciprocal(total), np.exp(t - out[idx][:, None])


def _weights(v, total, low, out):
    """The softmax weights of a sum over units of the terms v (..., units, n)
    (_sum_weights)."""
    inv, low_w = _sum_weights(total, low, out)
    out_w = v * inv[..., None, :]
    if low is not None:
        np.moveaxis(out_w, -2, -1)[low[0]] = low_w
    return out_w


def _mix_grads(g, mix, mat, keep=0):
    """(mat times the gradient for mat, the gradient for log e) of out =
    log(mat @ e) + shift, for out's gradient g (..., rows, n).

    mix = (e, total, low, out), with total the saved sums mat @ e (..., rows,
    n) and low _log_sum's low entries. Each term's softmax weight is mat_ij
    e_jn / total_in, read through _sum_weights: so g / total in the products,
    and on low entries g times their weights exp(t - out). mat's gradient
    keeps the first keep leading axes (a stacked pair's) unsummed.
    """
    e, total, low, out = mix
    inv, low_w = _sum_weights(total, low, out)
    s = g * inv
    g_mat, g_e = mat * _outer_sum(s, e, keep), e * (mat.T @ s)
    if low is not None:
        idx = low[0]
        t = g[idx][:, None] * low_w
        np.add.at(g_mat, (*idx[:keep], idx[-2]), t)
        np.add.at(np.moveaxis(g_e, -2, -1), (*idx[:-2], idx[-1]), t)
    return g_mat, g_e


def _dsf_activate(block):
    """(w, log w, a, log a, b) from a (..., 3d, n) block of (w_pre, a_pre, b)."""
    d = block.shape[-2] // 3
    w_pre, a_pre, b = block[..., :d, :], block[..., d:2 * d, :], block[..., 2 * d:, :]
    log_w = w_pre - sm.logsumexp_over_axis(w_pre, -2)[..., None, :]
    a = sm.softplus(a_pre)
    return np.exp(log_w), log_w, a, np.log(a), b


def _dsf_adjoint(g_y, g_ld, x, block, p, saved):
    """Gradients of y and logdet for x and the block, by hand.

    With p, q and r the softmax weights of the log-space terms of D, 1-D
    and R, d/d log w = g_num p + g_den q + g_ld r, where g_num and g_den
    are the upstream gradients of log D and log(1-D); C collects
    (g_num p + g_ld r) s(-C) - (g_den q + g_ld r) s(C), and log a gets
    g_ld r. w_pre goes back through log-softmax, a_pre through softplus.
    The weights come from the kernel's saved sums (_weights): each term
    times its sum's reciprocal, and on a low entry exp(t - log sum) from
    the log-space terms _log_sum built, so nothing is rebuilt from C and
    each weight is at most 1 in every column, saturated or below the floor.
    The block gradient is written in place, its products into the weights'
    buffers: a training step's faults follow its adjoint's peak memory.
    """
    w, _, a, _, _ = p
    C, e, mix, link = saved
    g_y, g_ld = g_y[..., None, :], g_ld[..., None, :]
    t = _weights(*mix)
    t *= np.stack([g_y - g_ld, -g_y - g_ld])
    gr = _weights(*link)
    gr *= g_ld
    gp, gq = t
    gp += gr
    d = w.shape[-2]
    g_block = np.empty((*C.shape[:-2], 3 * d, C.shape[-1]))  # every row is written below
    g_log_w, g_a_pre, g_c = g_block[..., :d, :], g_block[..., d:2 * d, :], g_block[..., 2 * d:, :]
    np.add(gp, gq, out=g_log_w)  # (p + r) + q, the order the log-space terms' gradients add in
    gq += gr
    s_pos, s_neg = sm.sigmoid_pair(C, e)
    np.multiply(gp, s_neg, out=g_c)
    g_c -= np.multiply(gq, s_pos, out=s_pos)
    del s_pos, s_neg  # free the pair before the a_pre products
    g_log_w -= np.multiply(w, np.sum(g_log_w, axis=-2, keepdims=True), out=gp)  # w_pre's
    np.multiply(g_c, x[..., None, :], out=g_a_pre)
    g_a_pre += np.divide(gr, a, out=gr)
    g_a_pre *= sm.sigmoid(block[..., d:2 * d, :])
    return np.sum(np.multiply(g_c, a, out=gr), axis=-2), g_block


def dsf_from_preact(x, block):
    """dsf's (y, logdet) on a (..., 3d, n) block of conditioner pre-activations, x (..., n)."""
    return _dsf_core(x, _dsf_activate(block))[:2]


# -- ddsf ------------------------------------------------------------------


def _cwn_product(V, E, X, pieces=True, shared=None):
    """sum_j exp(V_ij + X_jn) as one max-shifted product, and its pieces.

    V (rows, cols) with E = exp(V), X (..., cols, n). With m the column
    max of X and G = exp(X - m), P = E @ G, so the sum is P exp(m). Given
    shared, the index of a leading slab of X that is the same in every
    column, that slab's P is its first column's product: a BLAS product's
    bits depend on its column count, and this is the product a one-column
    block of that slab takes. Returns
    (P, m), 1/P (0 on low entries), G, and the low entries: where P falls
    below _FLOOR (V and X peak in different columns, about 665 nats apart)
    P is NaN, and the entries' weights exp(V_ij + X_jn - log) with log the
    logsumexp of V + X come back as (index, weights) with index
    np.nonzero's tuple and weights (k, cols); else None. The CWN weights
    are u_ijn = E_ij G_jn / P_in on every other entry. No entry takes a
    log but the low ones. With pieces=False the pieces come back None, and
    1/P and the low weights are never built: (P, m) is all a kernel
    without adjoint reads.
    """
    G, m = _shifted_exp(X)
    P = E @ G
    if shared is not None and X.shape[-1] > 1:
        # contiguous, as a one-column block's G is: the product's bits follow its layout
        P[shared] = E @ np.ascontiguousarray(G[shared, ..., :1])
    low = None
    if not P.min(initial=np.inf) >= _FLOOR:
        idx = np.nonzero(~(P >= _FLOOR))
        P[idx] = np.nan
        if pieces:
            t = V[idx[-2]] + _points_last(X, idx)
            low = (idx, np.exp(t - sm.logsumexp_over_axis(t, -1)[:, None]))
    if not pieces:
        return (P, m), None, None, None
    inv = 1.0 / P
    if low is not None:
        inv[low[0]] = 0.0
    return (P, m), inv, G, low


def _low_at(low, cols, n):
    """A _cwn_product's low entries (idx, weights) at n points. A product of
    one column (a block every point shares) serves all n: each of its low
    entries stands for that row at every point."""
    idx, u = low
    if cols < n:
        idx = (*(np.repeat(i, n) for i in idx[:-1]), np.tile(np.arange(n), len(u)))
        u = np.repeat(u, n, axis=0)
    return idx, u


def _cwn_mix(h, E, cwn):
    """u @ h per point for the CWN weights u of a _cwn_product; h (..., cols, n)."""
    _, inv, G, low = cwn
    out = (E @ (G * h)) * inv
    if low is not None:
        idx, u = _low_at(low, inv.shape[-1], out.shape[-1])
        out[idx] = np.sum(u * _points_last(h, idx), axis=-1)
    return out


def _cwn_adjoint(g_uh, g_s, h, uh, E, cz, cq):
    """Gradients of uh = u @ h and s = log(u @ exp r) for V, eta, h and r.

    u = E F / Z and q = E G / Q are the weights of the two CWN products
    cz (over eta) and cq (over eta + r); s = log Q - log Z. Per point,
    duh/dV_ij = u_ij (h_j - uh), ds/dV_ij = q_ij - u_ij, and eta gets the
    same per column, so every term is a (rows, n) x (n, cols) product:
    g_V = E * [(g_uh/Z) (F h)' - ((g_uh uh + g_s)/Z) F' + (g_s/Q) G'].
    Low entries, whose 1/Z or 1/Q is 0, add their terms from their weights.
    cz may be of one column (a block every point shares).
    """
    _, inv_z, F, low_z = cz
    _, inv_q, G, low_q = cq
    k = g_uh * uh + g_s
    a, b, c = g_uh * inv_z, k * inv_z, g_s * inv_q
    g_v = E * (_outer_sum(a, F * h) - _outer_sum(b, F) + _outer_sum(c, G))
    Et = E.T
    g_h, g_r = F * (Et @ a), G * (Et @ c)
    g_eta = h * g_h - F * (Et @ b) + g_r
    if low_z is not None:
        idx, u = _low_at(low_z, inv_z.shape[-1], g_uh.shape[-1])
        pts = (*idx[:-2], idx[-1])
        t = u * (g_uh[idx][:, None] * _points_last(h, idx) - k[idx][:, None])
        np.add.at(g_v, idx[-2], t)
        np.add.at(np.moveaxis(g_eta, -2, -1), pts, t)
        np.add.at(np.moveaxis(g_h, -2, -1), pts, g_uh[idx][:, None] * u)
    if low_q is not None:
        idx, q = low_q
        pts = (*idx[:-2], idx[-1])
        t = g_s[idx][:, None] * q
        np.add.at(g_v, idx[-2], t)
        np.add.at(np.moveaxis(g_eta, -2, -1), pts, t)
        np.add.at(np.moveaxis(g_r, -2, -1), pts, t)
    return g_v, g_eta, g_h, g_r


def _ddsf_constants(v_u, v_w):
    """Per layer, what _ddsf_decode reads of vu and vw alone: V = vu - row max,
    E = exp(V) and w = softmax(vw) by rows. They are fixed while the block
    varies, so a flow layer takes them once per call."""
    out = []
    for vu, vw in zip(v_u, v_w):
        V = vu - np.max(vu, axis=1, keepdims=True)
        out.append((V, np.exp(V), np.exp(sm.logsoftmax_over_axis(vw, 1))))
    return out


def _ddsf_decode(block, slices, constants, shared=None):
    """Per-layer arrays from a (..., width, n) block and _ddsf_constants.

    They are fixed while x varies: a, b, w, and u's factors and
    normalizer Z, as a _cwn_product over eta (shared passes on to it). A
    one-column u is 1 once normalized, so it gets no CWN product, and a
    one-row w is [[1]], so it is None: that sublayer is closed-form.
    """
    layers = []
    for (eta, a_pre, b), (V, E, w) in zip(slices, constants):
        eta, a_pre, b = block[..., eta, :], block[..., a_pre, :], block[..., b, :]
        d_in, d_out = eta.shape[-2], b.shape[-2]
        if V.shape != (d_out, d_in) or w.shape != (d_out, d_out):
            raise DomainError(f"vu {V.shape} and vw {w.shape} do not fit a layer "
                              f"with {d_in} inputs and {d_out} outputs")
        layers.append({"V": V, "E": E, "eta": eta, "a": sm.softplus(a_pre), "b": b,
                       "w": None if d_out == 1 else w,
                       "Z": None if d_in == 1 else _cwn_product(V, E, eta, True, shared)})
    return layers


def _ddsf_core(x, layers, logdet=True, adjoint=True):
    """The ddsf kernel: y, log(dy/dx) and the intermediates its adjoint reads.

    Plain numpy; x (..., n), layers from _ddsf_decode, every per-unit
    array (..., units, n). Per layer, CWN's row-stochastic u =
    softmax_j(vu_ij + eta_jn) is never formed: with E = exp(vu - rowmax),
    F = exp(eta - column max) and Z = E @ F, u @ h = (E @ (F h)) / Z. Then
    C = a (u @ h) + b, [log D; log(1-D)] = log(w @ [s(C); s(-C)]) less
    softplus's DELTA, one product over the stacked pair, summed in linear
    space from one exp(-|C|) per unit (with _log_sum's fallback to log
    space), and h' = log D - log(1-D). r, the per-unit log(dh/dx), stays
    in log space between sublayers, but each chain link is one linear sum
    and one log (_chain_link): with Q the product over eta + r, G =
    exp(eta + r - its column max m_q), u @ exp r = (Q / Z) exp(m_q - m_z),
    q = s(C) s(-C) a Q / Z per unit, and r' = log(w @ q) + m_q - m_z -
    2 DELTA - log D - log(1-D) = log(dh'/dx). A column where Z, Q or w @ q
    falls below _FLOOR takes its link in log space. A one-unit sublayer
    (w = [[1]], decoded as None) is exact instead: h' = log s(C) - log s(-C)
    = C and r' = log(a Q / Z) + m_q - m_z, with no sigmoids, w product or
    guard on any path. r stays a (units, n) vector per point because the
    chain starts from a scalar. Only training
    (flow.FlowLayer.forward_saved) keeps adjoint state: with adjoint=False
    (the density path, Ddsf.forward) saved is None and Q's pieces are never
    built, so each sublayer's temporaries are freed as the next one runs.
    With logdet=False (the inversion solver) every layer stops at h' once
    its guard has passed, and y comes back alone: no Q, link, r or saved
    arrays.
    """
    h = x[..., None, :]
    r = np.zeros_like(h)  # log(dh0/dx) = log 1
    saved = [] if adjoint else None
    for li, lay in enumerate(layers):
        w, cz = lay["w"], lay["Z"]
        uh = h if cz is None else _cwn_mix(h, lay["E"], cz)
        C = lay["a"] * uh + lay["b"]
        if w is not None:
            _, sig = _sigmoids(C)
            lin = w @ sig
            pair, low = _log_sum(lin.copy() if logdet and adjoint else lin, -sm.DELTA, lambda idx: (
                np.log(w[idx[-2]]) + _logsigmoid_at(C, idx[0], (*idx[1:-2], idx[-1]))))
            if low is not None:
                _check_saturation(pair, x, layer=li)
        if not logdet:
            h = C if w is None else pair[0] - pair[1]
            continue
        if cz is None:  # u = 1: u @ exp r = exp r
            cq, shift = None, r
            q = np.ones_like(C) if w is None else sig[0] * sig[1]
        else:
            cq = _cwn_product(lay["V"], lay["E"], lay["eta"] + r, adjoint)
            (pq, mq), (pz, mz) = cq[0], cz[0]
            q, shift = pq / pz, mq - mz  # NaN where Q or Z is low
            if w is not None:
                q *= sig[0]
                q *= sig[1]
        q *= lay["a"]
        if w is not None:
            shift = shift - 2.0 * sm.DELTA  # one per log sigmoid of the log-space terms

        def terms(pts):
            """The link's log-space terms at the points pts: log a + log(u @ exp r),
            and with w, log s(C) + log s(-C)."""
            t = np.log(_columns(np.broadcast_to(lay["a"], C.shape), pts))
            if cz is None:
                t += _columns(r, pts)
            else:
                X = lay["V"] + _columns(np.broadcast_to(lay["eta"], r.shape), pts)[:, None, :]
                t += sm.logsumexp_over_axis(X + _columns(r, pts)[:, None, :], -1)
                t -= sm.logsumexp_over_axis(X, -1)
            if w is not None:
                c = _columns(C, pts)
                t += sm.logsigmoid(c)
                t += sm.logsigmoid(-c)
            return t

        link, q, link_sums, link_low = _chain_link(w, q, shift, terms, adjoint and w is not None)
        if w is None:  # w = [[1]]: h' = log s(C) - log s(-C) = C, r' = the link
            if adjoint:
                saved.append((h, uh, cq, None, None))
            h, r = C, link
            continue
        if adjoint:  # each w product's terms, linear sums, low entries and log
            saved.append((h, uh, cq, (sig, lin, low, pair), (q, link_sums, link_low, link)))
        h, r = pair[0] - pair[1], link - (pair[0] + pair[1])
    return (h[..., 0, :], r[..., 0, :], saved) if logdet else h[..., 0, :]


def _ddsf_adjoint(g_y, g_ld, block, slices, layers, saved):
    """Gradients of y and logdet for x, the block, vu and vw, by hand.

    Per layer, back to front, with g_h and g_r the upstream gradients of h'
    and r': the w products log D, log(1-D) and the chain link get
    g_h - g_r, -g_h - g_r and g_r, and pass them on to their arguments and
    to w (then through w's row softmax to vw) by their terms' softmax
    weights, read from the sums the kernel saved (_mix_grads), as dsf's
    are. C collects log s(C)'s and the link's through s(-C), minus
    log s(-C)'s and the link's through s(C), read from the saved linear
    pair; log a gets the link's, and a goes on through softplus. A one-unit sublayer (h' = C, r' = log a +
    the link) passes g_h to C and g_r to log a and the link, and its
    constant w gives vw a zero gradient. u @ h
    gets a g_C and log(u @ exp r) the link's, which _cwn_adjoint takes on
    to vu, eta, h and r. A one-column block (one every point shares) gets
    its gradient per point, (..., width, n).
    """
    g_h, g_r = g_y[..., None, :], g_ld[..., None, :]
    g_block = np.empty((*block.shape[:-1], g_y.shape[-1]))  # every row is written below
    g_vu, g_vw = [], []
    for lay, (eta, a_pre, b), (h, uh, cq, nd, col) in zip(
            reversed(layers), reversed(slices), reversed(saved)):
        w, a = lay["w"], lay["a"]
        if w is None:  # h' = C and r' = log a + s; w = [[1]] is constant
            g_c, g_col = g_h, g_r
            g_vw.append(np.zeros((1, 1)))
        else:
            wg_nd, (g_pos, g_neg) = _mix_grads(np.stack([g_h - g_r, -g_h - g_r]), nd, w, keep=1)
            wg_col, g_col = _mix_grads(g_r, col, w)
            wg = wg_nd[0] + wg_nd[1] + wg_col  # w times w's gradient
            g_vw.append(wg - w * np.sum(wg, axis=1, keepdims=True))
            s_pos, s_neg = nd[0]
            g_c = (g_pos + g_col) * s_neg - (g_neg + g_col) * s_pos
        g_block[..., a_pre, :] = (g_c * uh + g_col / a) * sm.sigmoid(block[..., a_pre, :])
        g_block[..., b, :] = g_c
        if cq is None:  # u = 1: u @ h = h and s = r
            g_h = np.sum(g_c * a, axis=-2, keepdims=True)
            g_r = np.sum(g_col, axis=-2, keepdims=True)
            g_block[..., eta, :] = 0.0
            g_vu.append(np.zeros_like(lay["V"]))
        else:
            g_v, g_block[..., eta, :], g_h, g_r = _cwn_adjoint(
                g_c * a, g_col, h, uh, lay["E"], lay["Z"], cq)
            g_vu.append(g_v)
    return (g_h[..., 0, :], g_block, *reversed(g_vu), *reversed(g_vw))


# -- inversion -------------------------------------------------------------


def invert_batch(y, forward, table=None) -> np.ndarray:
    """Vectorized root-finding: forward maps (n,) -> (n,), increasing per entry.

    forward(t) returns f(t), or the pair (f(t), df/dt). A non-finite y is a
    RangeError naming its entry, before any forward evaluation. Given a table
    (an increasing grid, for a forward that is one function for every
    entry), one forward call on the grid starts each entry from its cell,
    the first or last cell for a y beyond the grid (_seat); without one, or
    if that call trips the saturation guard or returns a non-finite value,
    each entry starts from [-1, 1]. Each bracket doubles outward from its start
    (a zero-width one from width 1) until it straddles its y (up to
    |x| = 1e6, else RangeError naming the first such entry). An expansion
    round takes one forward evaluation: an entry whose f(lo) is above y
    moves lo down, one whose f(hi) is below y moves hi up, and for an
    increasing forward no entry needs both, so one probe at each entry's
    own moving end serves the whole batch.

    Then all entries refine together by safeguarded Newton (Numerical
    Recipes' rtsafe), on the forward's slopes if it gives them, else on
    secant slopes: the chord through the bracket ends first, then the
    secant through the last two points. Each entry starts at its end
    nearer y and takes the Newton step when it lands in the bracket and is
    at most half the step before last (which stops oscillation across
    inflections), else bisects: a slope that is zero, negative, NaN, inf or
    tiny costs a bisection. An entry keeps its x once |f - y| is at most
    16 ulps of |y|, the forward's rounding where it is flat, and ends on a
    step within _tolerance, taken unevaluated. A non-finite forward value,
    or an entry that does not converge within SOLVER_ITERATIONS steps, is a
    NumericError naming the first such entry.
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise _unreachable(y, ~np.isfinite(y))
    seat = None if table is None else _seat(y, forward, table)
    if seat is None:
        lo, hi = np.full_like(y, -1.0), np.full_like(y, 1.0)
        flo = np.array(forward(lo), ndmin=2)  # rows [f], or [f; df/dx] from a pair
        fhi = np.array(forward(hi), ndmin=2)
    else:
        lo, hi, flo, fhi = seat
    w = np.where(hi > lo, hi - lo, 1.0)
    for _ in range(64):
        need_lo = flo[0] > y
        need_hi = fhi[0] < y
        moving = need_lo | need_hi
        if not moving.any():
            break
        stuck = (need_lo & (lo <= -BRACKET_CAP)) | (need_hi & (hi >= BRACKET_CAP))
        if stuck.any():
            raise _unreachable(y, stuck)
        w = w * 2.0
        end, f_end = np.where(need_lo, lo, hi), np.where(need_lo, flo, fhi)
        to = np.where(need_lo, np.maximum(lo - w, -BRACKET_CAP), np.minimum(hi + w, BRACKET_CAP))
        end, f_end, w = _probe(forward, end, f_end, to, moving, w)
        lo, flo = np.where(need_lo, end, lo), np.where(need_lo, f_end, flo)
        hi, fhi = np.where(need_hi, end, hi), np.where(need_hi, f_end, fhi)
    else:
        raise _unreachable(y, moving)
    r_hi, r_lo = _finite(fhi[0], hi) - y, _finite(flo[0], lo) - y
    near = np.abs(r_hi) <= np.abs(r_lo)  # on a tie hi
    x, f = np.where(near, hi, lo), np.where(near, r_hi, r_lo)
    half_tol, ftol = 0.5 * _tolerance(lo, hi), 16.0 * np.spacing(np.abs(y))
    half = half2 = 0.5 * (hi - lo)  # halves of the last two steps; first the bracket's
    live = np.ones(y.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = np.where(near, fhi[1], flo[1]) if len(fhi) == 2 else (r_hi - r_lo) / (hi - lo)
        for _ in range(SOLVER_ITERATIONS):
            live &= np.abs(f) > ftol
            inv = 1.0 / g  # 0 for an inf slope, NaN for NaN, inf for 0
            step = f * inv
            # x is the end whose side f - y gives, so a step with its sign
            # points inward and lands in the bracket if at most its width
            newton = (inv > 0.0) & (np.abs(step) <= np.minimum(hi - lo, half2))
            xn = np.where(live, np.where(newton, x - step, 0.5 * (lo + hi)), x)
            half2, half = half, 0.5 * np.abs(xn - x)
            live &= half > half_tol
            if not live.any():
                return xn
            out = np.array(forward(xn), ndmin=2)
            fn = _finite(out[0], xn) - y
            g = out[1] if len(out) == 2 else (fn - f) / (xn - x)  # else the secant
            x, f = xn, fn
            below = f < 0.0
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
    raise _no_convergence(y, live)


def _seat(y, forward, grid):
    """(lo, hi, f(lo), f(hi)) per entry from one forward call on an increasing
    grid: each y's cell, the grid's first or last for a y beyond its ends. None
    if that call trips the saturation guard or returns a non-finite value."""
    try:
        f = np.array(forward(grid), ndmin=2)
    except SaturationError:
        return None
    if not np.isfinite(f[0]).all():
        return None
    j = np.clip(np.searchsorted(f[0], y), 1, len(grid) - 1)
    return grid[j - 1], grid[j], f[:, j - 1], f[:, j]


def _tolerance(a, b):
    """1e-12, or four ulps of max(|a|, |b|), which exceed it only from 2048 up."""
    big = np.maximum(np.abs(a), np.abs(b))
    if big.max(initial=0.0) >= 2048.0:
        return np.maximum(1e-12, 4.0 * np.spacing(big))
    return 1e-12


def _no_convergence(y, live):
    i = int(np.argmax(live))
    return NumericError(f"inversion of y = {y[i]:.6g} (entry {i}) did not converge "
                        f"in {SOLVER_ITERATIONS} steps", index=i)


def _finite(f, x):
    """f, once every forward value in it is finite."""
    if not np.isfinite(f).all():
        i = int(np.argmax(~np.isfinite(f)))
        raise NumericError(f"inversion forward returned {f[i]} at x = {x[i]:.6g} "
                           f"(entry {i})", index=i)
    return f


def _probe(forward, end, f_end, to, moving, w):
    """Move the flagged ends to `to`; return the ends, forward there and w.

    Every argument is per entry: an entry moving down passes its lo end,
    one moving up its hi end, and an entry that is not moving is evaluated
    at its end, where the guarded forward already passed. A probe that
    trips the saturation guard pulls every moving end halfway back toward
    its own old end, and their w shrinks so that the next (doubled) step
    is a quarter of the one that tripped: midway between the new end and
    the tripping point. An end that cannot move without saturating
    re-raises the guard's error: no x the guarded forward accepts reaches
    its target.
    """
    new = np.where(moving, to, end)
    while True:
        try:
            return new, np.where(moving, np.array(forward(new), ndmin=2), f_end), w
        except SaturationError:
            back = np.where(moving, 0.5 * (end + new), end)
            if np.any(moving & ((back == end) | (back == new))):
                raise
            w = np.where(moving, 0.125 * np.abs(new - end), w)
            new = back


def _unreachable(y, entries):
    """RangeError naming the first flagged entry of y and its target."""
    i = int(np.argmax(entries))
    return RangeError(f"no |x| <= 1e6 reaches y = {y[i]:.6g}", index=i)


def _grid(y, units):
    """TABLE points over the x that can reach y's targets, for one block column.

    A sigmoid mixture's output lies between its units' smallest and largest
    pre-activation C = a h + b, and u @ h between h's extremes. So, walking
    from the last sublayer's (a, b) back to x, every root lies in [lo, hi]
    with lo = min (t - b) / a from the smallest target t and hi = max
    (t - b) / a from the largest, held to the solver's reach.
    """
    lo, hi = np.min(y), np.max(y)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a, b in reversed(units):
            lo, hi = np.min((lo - b) / a), np.max((hi - b) / a)
    lo = min(lo, BRACKET_CAP) if lo > -BRACKET_CAP else -BRACKET_CAP  # NaN: the cap
    hi = max(hi, -BRACKET_CAP) if hi < BRACKET_CAP else BRACKET_CAP
    return np.linspace(lo, hi, TABLE)


def _within_reach(y, x):
    """x from a closed-form inverse, held to invert_batch's reach."""
    far = ~(np.abs(x) <= BRACKET_CAP)  # also flags inf and nan
    if far.any():
        raise _unreachable(y, far)
    return x


# -- families --------------------------------------------------------------


class Family:
    """One transformer family, sized by (d, dims), behind a conditioner.

    Batch-last throughout: x is (..., n) and a block (..., width, n), one
    column per point, or (..., width, 1), one column every point shares, so
    reductions over components run over a leading axis. Every method takes
    either block: core broadcasts a one-column block's p over x's points,
    and adjoint returns its gradient per point. A flow layer passes the
    dimension of degree 1 (every dimension at m = 1) as one column to its
    density, training and inverse calls alike. An instance owns, all in
    numpy:
      width, offset  the per-dimension conditioner output count, and the
                     constants added so a fresh flow starts near identity;
      params         trainable leaves outside the conditioner;
      constants()    what decode reads of params alone (None but for ddsf);
                     a flow layer takes it once per call, not per block;
      decode(block, constants=None, shared=None)
                     core's arguments p, from a block and params (their
                     constants() unless given); shared indexes a leading
                     slab of a wider block that is the same in every
                     column, and it decodes to that slab's one-column bits
                     (for ddsf's CWN product; dsf's softmax and the
                     affine slices have them anyway);
      core(x, p)     (y, log dy/dx, saved) of an (..., n) x, or y alone
                     with logdet=False, for the solver;
      adjoint(g_y, g_ld, x, block, p, saved)
                     (g_x, g_block, *g_params), by hand from saved;
      forward        (y, log dy/dx): density on decode(block, constants);
      density(x, p)  (y, log dy/dx) from core, keeping no adjoint state;
      inverse        x with forward(x, block) = y: decode once, then solve
                     core's y with invert_batch (the same bits and guard),
                     which dsf's core hands dy/dx too, from [-1, 1], or
                     for a one-column block a table over its units' range;
      units(p)       (a, b) of each sublayer, first to last, whose
                     pre-activations bound that range (dsf and ddsf).
    random_row(rng) draws one (width,) block column for property checks (ddsf
    also redraws vu and vw); random_params pairs it with a fresh family.
    """

    dims = None
    params = ()

    def __init__(self, d=DSF_DEFAULT_D, dims=None, name="layer"):
        pass

    @staticmethod
    def constants():
        return None

    def forward(self, x, block, constants=None):
        return self.density(x, self.decode(block, constants))

    def density(self, x, p):
        return self.core(x, p)[:2]

    def inverse(self, y, block, constants=None):
        p = self.decode(block, constants)  # once, not per solver evaluation
        return invert_batch(y, lambda t: self.core(t, p, logdet=False),
                            table=self._table(y, block, p))

    def _table(self, y, block, p):
        """The grid of a table, when a one-column block serves every point of a
        non-empty (n,) y."""
        if np.shape(block)[-1] == 1 and np.ndim(y) == 1 and np.size(y):
            return _grid(y, self.units(p))
        return None


class AffineExp(Family):
    """y = mu + exp(s) x on block columns (mu, s)."""

    width = 2
    offset = np.zeros(2)

    @staticmethod
    def decode(block, constants=None, shared=None):
        return block[..., 0, :], block[..., 1, :]

    @staticmethod
    def core(x, p, logdet=True):
        mu, s = p
        scale = _finite_exp(s)
        y = mu + scale * x
        return (y, s, scale) if logdet else y

    @staticmethod
    def adjoint(g_y, g_ld, x, block, p, scale):
        return g_y * scale, np.stack([g_y, g_y * x * scale + g_ld], axis=-2)

    def inverse(self, y, block, constants=None):
        mu, s = self.decode(block)
        return _within_reach(y, (y - mu) * np.exp(-s))

    def random_row(self, rng):
        return rng.normal(size=2)


class AffineGate(AffineExp):
    """y = g x + (1 - g) mu with gate g = sigmoid(s), block columns (mu, s)."""

    offset = np.array([0.0, GATE_IDENTITY_OFFSET])

    @staticmethod
    def core(x, p, logdet=True):
        mu, s = p
        gate = sm.sigmoid(s)
        y = gate * x + (1.0 - gate) * mu
        return (y, sm.logsigmoid(s), gate) if logdet else y

    @staticmethod
    def adjoint(g_y, g_ld, x, block, p, gate):
        mu, s = p
        g_s = (g_y * x - g_y * mu) * gate * (1.0 - gate) + g_ld * sm.sigmoid(-s)
        return g_y * gate, np.stack([g_y * (1.0 - gate), g_s], axis=-2)

    def inverse(self, y, block, constants=None):
        mu, s = self.decode(block)
        sig = sm.sigmoid(s)  # the exact forward gate, not its log form
        return _within_reach(y, (y - (1.0 - sig) * mu) / sig)


class Dsf(Family):
    """d softmax-weighted sigmoids; block columns (w_pre, a_pre, b), d each."""

    core = staticmethod(_dsf_core)
    adjoint = staticmethod(_dsf_adjoint)

    def __init__(self, d=DSF_DEFAULT_D, dims=None, name="layer"):
        self.d = int(d)
        if self.d < 1:
            raise DomainError("dsf needs d >= 1")
        self.width = 3 * self.d
        self.offset = np.concatenate(
            [np.zeros(self.d), np.full(self.d, SOFTNESS_IDENTITY_OFFSET), np.zeros(self.d)]
        )

    @staticmethod
    def decode(block, constants=None, shared=None):
        return _dsf_activate(block)

    @staticmethod
    def forward(x, block, constants=None):
        return dsf_from_preact(x, block)  # looked up per call, so it can be wrapped

    @staticmethod
    def units(p):
        return [(p[2], p[4])]

    def inverse(self, y, block, constants=None):
        # A one-column block (the dimension of degree 1) is decoded on its one
        # column and broadcast over the points, table and batch alike: the same
        # bits as (d, n) copies, whose allocation per solve costs more page
        # faults than their faster reads save in a solve of few evaluations.
        p = self.decode(block)
        a_w = p[2] / np.maximum(p[0], _FLOOR)  # a unit whose w underflows adds 0, not NaN
        return invert_batch(y, lambda t: self.core(t, p, a_w=a_w), table=self._table(y, block, p))

    def random_row(self, rng):
        d = self.d
        return np.concatenate([rng.normal(size=d), rng.normal(size=d) + 0.5,
                               rng.normal(size=d) * 2.0])


class Ddsf(Family):
    """Dense sigmoid layers whose widths chain dims[0] = 1 -> dims[-1] = 1.

    Per layer the block holds (eta, a_pre, b) with d_in, d_out, d_out
    columns. CWN modulates the trainable vu{li} (d_out, d_in) by eta
    into the row-stochastic u = softmax(vu + eta), which the kernel keeps
    factored; vw{li} (d_out, d_out) row-normalizes into the mixing matrix
    w shared by every dimension. A one-unit sublayer's w (the last one's,
    and any inner width 1's), the softmax of one logit, is [[1]]: that
    sublayer is the affine C = a (u @ h) + b, taken without a sigmoid or
    a log, and its vw gets a zero gradient.
    """

    core = staticmethod(_ddsf_core)

    def __init__(self, d=DSF_DEFAULT_D, dims=None, name="layer"):
        dims = tuple(int(v) for v in (dims or DDSF_DEFAULT_DIMS))
        if len(dims) < 2 or dims[0] != 1 or dims[-1] != 1 or min(dims) < 1:
            raise DomainError("ddsf dims must be positive and chain from 1 to 1")
        self.dims = dims
        pairs = list(zip(dims[:-1], dims[1:]))
        self.slices, offsets, pos = [], [], 0
        for d_in, d_out in pairs:
            eta, a_pre, b = (pos, pos + d_in, pos + d_in + d_out)
            pos += d_in + 2 * d_out
            self.slices.append((slice(eta, a_pre), slice(a_pre, b), slice(b, pos)))
            offsets += [np.zeros(d_in), np.full(d_out, SOFTNESS_IDENTITY_OFFSET),
                        np.zeros(d_out)]
        self.width, self.offset = pos, np.concatenate(offsets)
        self.v_u = [dg.Parameter(np.zeros((d_out, d_in)), f"{name}.vu{li}")
                    for li, (d_in, d_out) in enumerate(pairs)]
        self.v_w = [dg.Parameter(np.zeros((d_out, d_out)), f"{name}.vw{li}")
                    for li, (_, d_out) in enumerate(pairs)]
        self.params = [*self.v_u, *self.v_w]

    def density(self, x, p):
        return self.core(x, p, adjoint=False)[:2]

    def constants(self):
        """V, E and w per layer, from vu and vw: read anew at every call,
        since training replaces the parameters' data every step."""
        return _ddsf_constants([v.data for v in self.v_u], [v.data for v in self.v_w])

    def decode(self, block, constants=None, shared=None):
        """Every array an inverse solve holds fixed, once per block: the
        constants, if not given, then a, b, w and the CWN normalizers Z."""
        return _ddsf_decode(block, self.slices, constants or self.constants(), shared)

    @staticmethod
    def units(p):
        return [(lay["a"], lay["b"]) for lay in p]

    def adjoint(self, g_y, g_ld, x, block, p, saved):
        return _ddsf_adjoint(g_y, g_ld, block, self.slices, p, saved)

    def random_row(self, rng):
        row = []
        for vu, vw in zip(self.v_u, self.v_w):
            vu.data, vw.data = rng.normal(size=vu.shape), rng.normal(size=vw.shape)
            d_out, d_in = vu.shape
            row += [np.zeros(d_in), rng.normal(size=d_out) + 0.5, rng.normal(size=d_out) * 2.0]
        return np.concatenate(row)


FAMILIES = {"affine-exp": AffineExp, "affine-gate": AffineGate, "dsf": Dsf, "ddsf": Ddsf}


def family(kind) -> type:
    """The Family subclass registered under a kind name."""
    try:
        return FAMILIES[kind]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown transformer kind {kind!r}; use one of {tuple(FAMILIES)}"
        ) from None


def random_params(kind: str, rng: np.random.Generator, d: int = DSF_DEFAULT_D,
                  dims=DDSF_DEFAULT_DIMS):
    """A fresh family of the kind and one random (width,) block column for it."""
    fam = family(kind)(d=d, dims=dims)
    return fam, fam.random_row(rng)


def forward_closure(fam: Family, row):
    """y(x) for scalar or (n,) x, with the block column broadcast over x."""
    def fn(x):
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        y, _ = fam.forward(xs, np.broadcast_to(np.asarray(row)[:, None], (len(row), xs.size)))
        return float(y[0]) if np.ndim(x) == 0 else y
    return fn
