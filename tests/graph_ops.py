"""Graph ops that only the op-by-op test composites record.

The library's kernels are numpy with hand adjoints, so these elementwise
ops have no caller in nafkit; the composites that the kernels are checked
against build the same transformers from them. Each is one diffgraph._op,
as the library's own ops are: a guarded forward and a pure adjoint.
"""

import numpy as np

from nafkit import diffgraph as dg
from nafkit import stablemath as sm
from nafkit.errors import NumericError


def _positive(a):
    if np.any(a <= 0.0):
        raise NumericError("log of a nonpositive value")
    return a


def exp(a):
    return dg._op("exp", dg._finite_exp, lambda g, out, a: (g * out,), a)


def log(a):
    return dg._op("log", lambda a: np.log(_positive(a)), lambda g, out, a: (g / a,), a)


def softplus(a):
    """Stable log(1+exp(x)) + delta; gradient is sigmoid(x)."""
    return dg._op("softplus", sm.softplus, lambda g, out, a: (g * sm.sigmoid(a),), a)


def logsigmoid(a):
    """-softplus(-x); inherits the softplus delta."""
    return dg.neg(softplus(dg.neg(a)))


def logsoftmax(a, axis: int = -1):
    return dg.sub(a, dg.logsumexp(a, axis=axis, keepdims=True))
