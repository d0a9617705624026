"""Invertible scalar transformers and their exact log-derivatives.

Three families: affine (exp- or gate-parameterized scale), a single
hidden layer of softmax-weighted sigmoids behind an inverse-sigmoid
readout (dsf), and its multi-layer dense generalization with
row-stochastic mixing matrices (ddsf). Every forward returns both y and
log(dy/dx), with the log-derivative assembled entirely in log space so
stacked Jacobian chains neither vanish nor overflow.

The affine and ddsf cores are written against the diffgraph dispatch
layer: fed Values they record a differentiable graph, fed ndarrays they
run plain numpy. dsf has one numpy kernel, _dsf_core: densities and
inversion call it directly, and training records it as a single "dsf"
node over the whole conditioner block, whose adjoint is derived by hand
and reads the intermediates the kernel saved. Each family is one Family
subclass in the FAMILIES registry; it owns its conditioner block layout,
any extra parameters, its forward on a conditioner block and its
inverse. Densities and inversion evaluate the same guarded forward, so
every x an inverse returns is one the density path can score. dsf and
ddsf have no closed-form inverse: invert_batch brackets each target and
refines it with Chandrupatla's derivative-free interpolation, about a
dozen forward evaluations per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffgraph as dg
from . import stablemath as sm
from .conditioner import GATE_IDENTITY_OFFSET, SOFTNESS_IDENTITY_OFFSET, apply_cwn
from .errors import DomainError, NumericError, RangeError, SaturationError

# Forward-path saturation: log(D) or log(1-D) below this exponent
# underflows float64, i.e. the pre-logit is numerically 0 or 1. Stays
# clear of the nominal regime |a*x + b| <= 310.
LOG_UNDERFLOW = -708.0

# Debug switch for fault-injection runs; leave True in normal operation.
SATURATION_GUARD = True

# Reach of every inverse: an x beyond it is a RangeError.
BRACKET_CAP = 1e6

# Refinement steps after bracketing before an inverse is a NumericError.
SOLVER_ITERATIONS = 200

DSF_DEFAULT_D = 16
DDSF_DEFAULT_DIMS = (1, 16, 1)


# -- parameter containers ------------------------------------------------


@dataclass
class AffineParams:
    mu: float
    sigma_pre: float


@dataclass
class DsfParams:
    """Activated sigmoid-mixture parameters: simplex w, positive a."""

    w: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if not (self.w.shape == self.a.shape == self.b.shape):
            raise DomainError("w, a, b must share one length")
        if np.any(self.w <= 0) or abs(self.w.sum() - 1.0) > 1e-9:
            raise DomainError("w must be strictly positive and sum to 1")
        if np.any(self.a <= 0):
            raise DomainError("a must be strictly positive")


@dataclass
class DdsfLayerParams:
    """One dense layer: row-stochastic u and w, positive a, free b."""

    u: np.ndarray
    w: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.w = np.asarray(self.w, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        d_out, d_in = self.u.shape
        if self.w.shape != (d_out, d_out):
            raise DomainError(f"w must be {d_out}x{d_out}, got {self.w.shape}")
        if self.a.shape != (d_out,) or self.b.shape != (d_out,):
            raise DomainError("a and b must have the layer's output length")
        if np.any(self.u < 0) or np.any(np.abs(self.u.sum(axis=1) - 1.0) > 1e-9):
            raise DomainError("u rows must be nonnegative and sum to 1")
        if np.any(self.w < 0) or np.any(np.abs(self.w.sum(axis=1) - 1.0) > 1e-9):
            raise DomainError("w rows must be nonnegative and sum to 1")
        if np.any(self.a <= 0):
            raise DomainError("a must be strictly positive")

    @property
    def d_in(self):
        return self.u.shape[1]

    @property
    def d_out(self):
        return self.u.shape[0]


# -- shared plumbing -------------------------------------------------------


def _raw(x):
    return x.data if dg.is_value(x) else np.asarray(x, dtype=np.float64)


def _check_saturation(log_num, log_den, x, layer=None):
    """Raise once log(D) or log(1-D) underflows float64 (pre-logit 0 or 1).

    The error names the largest offending input magnitude and the flat
    index of the first offending input. SATURATION_GUARD = False skips
    the check, for fault injection.
    """
    if not SATURATION_GUARD:
        return
    bad = (_raw(log_num) < LOG_UNDERFLOW) | (_raw(log_den) < LOG_UNDERFLOW)
    if not np.any(bad):
        return
    xarr = np.atleast_1d(_raw(x))
    bad = np.atleast_1d(bad)
    if bad.ndim > xarr.ndim:  # per-unit flags: collapse trailing axes
        bad = bad.any(axis=tuple(range(xarr.ndim, bad.ndim)))
    mag = float(np.max(np.abs(xarr[bad])))
    index = int(np.argmax(bad))
    where = "" if layer is None else f" in layer {layer}"
    raise SaturationError(
        f"pre-logit saturated{where} (|x| up to {mag:.6g})",
        magnitude=mag,
        layer=layer,
        index=index,
    )


# -- dsf -------------------------------------------------------------------


def _dsf_core(x, log_w, a, log_a, b):
    """The dsf kernel: y, log(dy/dx) and the intermediates its adjoint reads.

    Plain numpy on activated logs: x (...,); log_w/a/log_a/b (..., d).
    With C = a*x + b, ls_pos = log s(C) and ls_neg = log s(-C),
    y = log D - log(1-D) where log D = LSE_j(log w_j + ls_pos_j) and
    log(1-D) = LSE_j(log w_j + ls_neg_j) (exact because w lies on the
    simplex), and log(dy/dx) = log R - log D - log(1-D) where
    log R = LSE_j[log w_j + log a_j + ls_pos_j + ls_neg_j]. The softplus
    deltas inside logsigmoid cancel exactly in both y and logdet. The
    third return value holds C, the three LSE arguments and their results;
    the numpy path drops it, the graph path saves it for _dsf_adjoint.
    """
    C = a * x[..., None] + b
    ls_pos = sm.logsigmoid(C)
    ls_neg = sm.logsigmoid(-C)
    t_num, t_den = log_w + ls_pos, log_w + ls_neg
    log_num = sm.logsumexp_over_axis(t_num, -1)
    log_den = sm.logsumexp_over_axis(t_den, -1)
    _check_saturation(log_num, log_den, x)
    t_r = log_w + log_a + ls_pos + ls_neg
    log_r = sm.logsumexp_over_axis(t_r, -1)
    saved = (C, t_num, t_den, t_r, log_num, log_den, log_r)
    return log_num - log_den, log_r - (log_num + log_den), saved


def _dsf_activate(block):
    """(log w, a, log a, b) from a (B, 3d) block of (w_pre, a_pre, b)."""
    w_pre, a_pre, b = np.split(block, 3, axis=-1)
    log_w = w_pre - sm.logsumexp_over_axis(w_pre, -1)[..., None]
    a = sm.softplus(a_pre)
    return log_w, a, np.log(a), b


def _dsf_forward(x, block):
    """The "dsf" op's forward: (y, logdet) stacked as (2, B), then saved arrays."""
    log_w, a, log_a, b = _dsf_activate(block)
    y, logdet, saved = _dsf_core(x, log_w, a, log_a, b)
    return (np.stack([y, logdet]), log_w, a, *saved)


def _dsf_adjoint(g, out, x, block):
    """Gradients of the stacked (y, logdet) for x and the block, by hand.

    g is (2, B). With p, q and r the softmax weights of the three LSE
    arguments, d/d log w = g_num p + g_den q + g_ld r, where g_num and
    g_den are the upstream gradients of log D and log(1-D); C collects
    (g_num p + g_ld r) s(-C) - (g_den q + g_ld r) s(C), and log a gets
    g_ld r. w_pre goes back through log-softmax, a_pre through softplus.
    """
    _, log_w, a, C, t_num, t_den, t_r, log_num, log_den, log_r = out
    g_y, g_ld = g[0][:, None], g[1][:, None]
    gp = (g_y - g_ld) * np.exp(t_num - log_num[:, None])
    gq = (-g_y - g_ld) * np.exp(t_den - log_den[:, None])
    gr = g_ld * np.exp(t_r - log_r[:, None])
    g_log_w = gp + gq + gr
    g_c = (gp + gr) * sm.sigmoid(-C) - (gq + gr) * sm.sigmoid(C)
    g_w_pre = g_log_w - np.exp(log_w) * np.sum(g_log_w, axis=-1, keepdims=True)
    _, a_pre, _ = np.split(block, 3, axis=-1)
    g_a_pre = (g_c * x[:, None] + gr / a) * sm.sigmoid(a_pre)
    return np.sum(g_c * a, axis=-1), np.concatenate([g_w_pre, g_a_pre, g_c], axis=-1)


def dsf_from_preact(x, block):
    """dsf on a (B, 3d) block of conditioner pre-activations, x (B,).

    Fed arrays it runs the kernel; fed a Value it records one "dsf" node
    holding (y, logdet), which the two returned takes read.
    """
    if not (dg.is_value(x) or dg.is_value(block)):
        return _dsf_core(x, *_dsf_activate(block))[:2]
    node = dg._op("dsf", _dsf_forward, _dsf_adjoint, x, block)
    return dg.take(node, 0), dg.take(node, 1)


def dsf_forward(x, p: DsfParams):
    """y and log(dy/dx) from activated DsfParams (numpy path)."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w, log_a = np.log(p.w), np.log(p.a)
    y, logdet, _ = _dsf_core(x, log_w, p.a, log_a, p.b)
    if x.ndim == 0:
        return float(y), float(logdet)
    return y, logdet


def dsf_prelogit(x, p: DsfParams):
    """The (0,1)-valued convex sigmoid combination before the logit."""
    x = np.asarray(x, dtype=np.float64)
    return sm.sigmoid(p.a * x[..., None] + p.b) @ p.w


# -- ddsf ------------------------------------------------------------------


def _ddsf_core(x, layers):
    """Dense multi-layer transformer with a log-space Jacobian chain.

    x: (B,). Each entry of `layers` is a dict with keys u (batched
    (B, d_out, d_in) or shared (d_out, d_in)), w ((d_out, d_out)), a,
    log_a, b ((..., d_out)); u and w are row-stochastic. The running
    quantity r = log(dh/dx) stays a (B, d_out) vector because the chain
    starts from a scalar, so each chain step is one max-shifted product
    log_dot_exp(M, r) = log(M @ exp(r)) instead of a full matrix product.
    """
    B = x.shape[0]
    h = dg.reshape(x, (B, 1))
    r = np.zeros((B, 1))  # log(dh0/dx) = log 1
    for li, lay in enumerate(layers):
        C = lay["a"] * dg.matvec(lay["u"], h) + lay["b"]
        ls_pos = dg.logsigmoid(C)
        ls_neg = dg.logsigmoid(dg.neg(C))
        log_num = dg.log_dot_exp(lay["w"], ls_pos)
        log_den = dg.log_dot_exp(lay["w"], ls_neg)
        _check_saturation(log_num, log_den, x, layer=li)
        h = log_num - log_den

        s = dg.log_dot_exp(lay["u"], r)
        col = ls_pos + ls_neg + lay["log_a"] + s
        r = dg.log_dot_exp(lay["w"], col) - (log_num + log_den)
    if r.shape[-1] != 1:
        raise DomainError("ddsf layer chain must end with output size 1")
    y = dg.take(h, (slice(None), 0))
    logdet = dg.take(r, (slice(None), 0))
    return y, logdet


def ddsf_forward(x, layers):
    """y and log(dy/dx) for a list of activated DdsfLayerParams."""
    if not layers:
        raise DomainError("ddsf needs at least one layer")
    if layers[0].d_in != 1 or layers[-1].d_out != 1:
        raise DomainError("layer dimensions must chain from 1 to 1")
    for prev, nxt in zip(layers[:-1], layers[1:]):
        if prev.d_out != nxt.d_in:
            raise DomainError("layer dimensions do not chain")
    scalar = np.ndim(x) == 0
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    prepared = [
        {"u": p.u, "w": p.w, "a": p.a, "log_a": np.log(p.a), "b": p.b}
        for p in layers
    ]
    y, logdet = _ddsf_core(xv, prepared)
    if scalar:
        return float(y[0]), float(logdet[0])
    return y, logdet


# -- inversion -------------------------------------------------------------


def invert_batch(y, forward, lo0: float = -1.0, hi0: float = 1.0) -> np.ndarray:
    """Vectorized root-finding: forward maps (n,) -> (n,), increasing per entry.

    Each bracket doubles outward from [lo0, hi0] until it straddles its y
    (up to |x| = 1e6, else RangeError naming the first such entry). Then
    all entries refine together by Chandrupatla's (1997) safeguarded
    inverse quadratic interpolation, which falls back to the midpoint
    whenever interpolation is not trusted and always shrinks the bracket.
    An entry is done when its bracket is at most 1e-12 (or four ulps of
    |x|) wide or forward hits y exactly; the bracket end nearer y is
    returned. A non-finite forward value, or an entry that does not
    converge within SOLVER_ITERATIONS steps, is a NumericError naming the
    first such entry.
    """
    y = np.asarray(y, dtype=np.float64)
    lo = np.full_like(y, lo0)
    hi = np.full_like(y, hi0)
    flo = forward(lo)
    fhi = forward(hi)
    w = hi - lo
    for _ in range(64):
        need_lo = flo > y
        need_hi = fhi < y
        if not (need_lo.any() or need_hi.any()):
            break
        stuck = (need_lo & (lo <= -BRACKET_CAP)) | (need_hi & (hi >= BRACKET_CAP))
        if stuck.any():
            raise _unreachable(y, stuck)
        w = w * 2.0
        lo, flo, w = _probe(forward, lo, flo, np.maximum(lo - w, -BRACKET_CAP), need_lo, w)
        hi, fhi, w = _probe(forward, hi, fhi, np.minimum(hi + w, BRACKET_CAP), need_hi, w)
    else:
        raise _unreachable(y, need_lo | need_hi)
    # a: newest point, b: the bracket's other end, c: the end replaced
    # last (first a itself, which makes the first step the midpoint).
    a, fa = hi, _finite(fhi, hi) - y
    b, fb = lo, _finite(flo, lo) - y
    c, fc = a, fa
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(SOLVER_ITERATIONS):
            width = np.abs(b - a)
            tol = np.maximum(1e-12, 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))
            live = (width > tol) & (fa != 0.0) & (fb != 0.0)
            if not live.any():
                return np.where(np.abs(fa) <= np.abs(fb), a, b)
            xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(iqi, fa / (fb - fa) * fc / (fb - fc)
                         + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb), 0.5)
            tl = 0.5 * tol / width  # a new point stays tol/2 inside the bracket
            xt = np.where(live, a + np.clip(t, tl, 1.0 - tl) * (b - a), a)
            ft = _finite(forward(xt), xt) - y
            same = np.sign(ft) == np.sign(fa)
            c, fc = np.where(same, a, b), np.where(same, fa, fb)
            b, fb = np.where(same, b, a), np.where(same, fb, fa)
            a, fa = xt, ft
    i = int(np.argmax(live))
    raise NumericError(f"inversion of y = {y[i]:.6g} (entry {i}) did not converge "
                       f"in {SOLVER_ITERATIONS} steps", index=i)


def _finite(f, x):
    """f, once every forward value in it is finite."""
    bad = ~np.isfinite(f)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(f"inversion forward returned {f[i]} at x = {x[i]:.6g} "
                           f"(entry {i})", index=i)
    return f


def _probe(forward, end, f_end, to, moving, w):
    """Move the flagged ends to `to`; return the ends, forward there and w.

    A probe that trips the saturation guard pulls the moving ends halfway
    back, and their w shrinks so that the next (doubled) step is a quarter
    of the one that tripped: midway between the new end and the tripping
    point. An end that cannot move without saturating re-raises the
    guard's error: no x the guarded forward accepts reaches its target.
    A call with no moving end evaluates nothing.
    """
    if not moving.any():
        return end, f_end, w
    new = np.where(moving, to, end)
    while True:
        try:
            return new, np.where(moving, forward(new), f_end), w
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


def _within_reach(y, x):
    """x from a closed-form inverse, held to invert_batch's reach."""
    far = ~(np.abs(x) <= BRACKET_CAP)  # also flags inf and nan
    if far.any():
        raise _unreachable(y, far)
    return x


# -- families --------------------------------------------------------------


class Family:
    """One transformer family, sized by (d, dims), behind a conditioner.

    An instance owns:
      width, offset  the per-dimension conditioner output count, and the
                     constants added to it so a fresh flow starts near
                     the identity map;
      params         trainable leaves outside the conditioner;
      forward        (y, log dy/dx) of a flat (B,) x under a (B, width)
                     block, recording a graph iff the block is a Value;
      inverse        x with forward(x, block) = y (numpy path).
    decode(block) reads the block into the arguments of core(x, p); the
    inverse solves that same guarded core with invert_batch.
    The static random_params / evaluate work on activated parameter
    containers (AffineParams, DsfParams, a list of DdsfLayerParams).
    """

    dims = None
    params = ()

    def __init__(self, d=DSF_DEFAULT_D, dims=None, name="layer"):
        pass

    def forward(self, x, block):
        return self.core(x, self.decode(block))

    def inverse(self, y, block):
        p = self.decode(block)  # once, not per solver evaluation
        return invert_batch(y, lambda t: self.core(t, p)[0])


class AffineExp(Family):
    """y = mu + exp(s) x on block columns (mu, s)."""

    width = 2
    offset = np.zeros(2)

    @staticmethod
    def decode(block):
        return dg.take(block, (slice(None), 0)), dg.take(block, (slice(None), 1))

    @staticmethod
    def core(x, p):
        mu, s = p
        return mu + dg.exp(s) * x, s + dg.mul(x, 0.0)  # broadcast s to y's shape

    def inverse(self, y, block):
        mu, s = self.decode(block)
        return _within_reach(y, (y - mu) * np.exp(-s))

    @staticmethod
    def random_params(rng, d, dims):
        return AffineParams(mu=float(rng.normal()), sigma_pre=float(rng.normal()))

    @classmethod
    def evaluate(cls, x, p):
        y, logdet = cls.core(np.asarray(x, dtype=np.float64), (p.mu, p.sigma_pre))
        if np.ndim(x) == 0:
            return float(y), float(logdet)
        return y, logdet


class AffineGate(AffineExp):
    """y = g x + (1 - g) mu with gate g = sigmoid(s), block columns (mu, s)."""

    offset = np.array([0.0, GATE_IDENTITY_OFFSET])

    @staticmethod
    def core(x, p):
        mu, s = p
        g = dg.sigmoid(s)
        return g * x + (1.0 - g) * mu, dg.logsigmoid(s) + dg.mul(x, 0.0)

    def inverse(self, y, block):
        mu, s = self.decode(block)
        sig = sm.sigmoid(s)  # the exact forward gate, not its log form
        return _within_reach(y, (y - (1.0 - sig) * mu) / sig)


class Dsf(Family):
    """d softmax-weighted sigmoids; block columns (w_pre, a_pre, b), d each."""

    def __init__(self, d=DSF_DEFAULT_D, dims=None, name="layer"):
        self.d = int(d)
        if self.d < 1:
            raise DomainError("dsf needs d >= 1")
        self.width = 3 * self.d
        self.offset = np.concatenate(
            [np.zeros(self.d), np.full(self.d, SOFTNESS_IDENTITY_OFFSET), np.zeros(self.d)]
        )

    @staticmethod
    def decode(block):
        return block  # the dsf op reads the whole block

    @staticmethod
    def core(x, p):
        return dsf_from_preact(x, p)

    @staticmethod
    def random_params(rng, d, dims):
        w = np.exp(sm.logsoftmax(rng.normal(size=d)))
        a = sm.softplus(rng.normal(size=d) + 0.5)
        b = rng.normal(size=d) * 2.0
        return DsfParams(w=w, a=a, b=b)

    evaluate = staticmethod(dsf_forward)


class Ddsf(Family):
    """Dense sigmoid layers whose widths chain dims[0] = 1 -> dims[-1] = 1.

    Per layer the block holds (eta, a_pre, b) with d_in, d_out, d_out
    columns. CWN modulates the trainable vu{li} (d_out, d_in) by eta
    into the row-stochastic u; vw{li} (d_out, d_out) row-normalizes into
    the mixing matrix w shared by every dimension.
    """

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

    def decode(self, block):
        graph = dg.is_value(block)
        rows = slice(None)
        layers = []
        for (eta, a_pre, b), vu, vw in zip(self.slices, self.v_u, self.v_w):
            log_u = apply_cwn(vu if graph else vu.data, dg.take(block, (rows, eta)))
            a = dg.softplus(dg.take(block, (rows, a_pre)))
            layers.append({
                "u": dg.exp(log_u),
                "w": dg.exp(dg.logsoftmax(vw if graph else vw.data, axis=-1)),
                "a": a,
                "log_a": dg.log(a),
                "b": dg.take(block, (rows, b)),
            })
        return layers

    @staticmethod
    def core(x, p):
        return _ddsf_core(x, p)

    @staticmethod
    def random_params(rng, d, dims):
        layers = []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            u = np.exp(sm.logsoftmax_over_axis(rng.normal(size=(d_out, d_in)), 1))
            w = np.exp(sm.logsoftmax_over_axis(rng.normal(size=(d_out, d_out)), 1))
            a = sm.softplus(rng.normal(size=d_out) + 0.5)
            b = rng.normal(size=d_out) * 2.0
            layers.append(DdsfLayerParams(u=u, w=w, a=a, b=b))
        return layers

    evaluate = staticmethod(ddsf_forward)


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
    """Draw parameters satisfying each family's validity invariants."""
    return family(kind).random_params(rng, d, dims)


def forward_closure(kind: str, params):
    """y(x) under activated parameters, for scalar or (n,) x."""
    evaluate = family(kind).evaluate
    return lambda x: evaluate(x, params)[0]


def affine_forward(x, p: AffineParams, kind: str = "exp"):
    """y and log(dy/dx) for the affine transformer; kind "exp" or "gate"."""
    return family(f"affine-{kind}").evaluate(x, p)
