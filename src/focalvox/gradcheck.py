"""Finite-difference verification of vector-Jacobian products.

The harness reduces any tensor-valued computation to a scalar by
contracting with a fixed random cotangent, takes the analytic gradient from
a tape replay, and compares against central differences.  Checks always run
in float64; float32 rounding would drown the signal.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteGradient
from .tape import GradTape, Tensor, grad_of


def vjp_check(
    fn,
    inputs: list[np.ndarray],
    seed: int,
    max_coords: int = 64,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps a list of float64 Tensors to a single Tensor (any shape).
    The scalar under test is ``sum(v * fn(x))`` for a random cotangent v.
    Per sampled input coordinate, the step is ``1e-5 * (1 + |x|)`` and the
    error is ``|analytic - cd| / max(|analytic|, |cd|, 1e-8)``.
    """
    rng = np.random.default_rng(seed)
    base = [np.asarray(x, dtype=np.float64) for x in inputs]

    tape = GradTape(params=False)  # only ``inputs`` are differentiated
    tensors = [Tensor(x.copy(), tape) for x in base]
    out = fn(tensors)
    cotangent = rng.standard_normal(out.data.shape)

    grads = tape.gradients(out, cotangent)
    analytic = [grad_of(grads, t) for t in tensors]
    for g in analytic:
        if g is not None and not np.all(np.isfinite(g)):
            raise NonFiniteGradient("analytic gradient has non-finite entries")

    def scalar_at(values):
        result = fn([Tensor(v) for v in values])
        return float(np.sum(cotangent * result.data))

    worst = 0.0
    for idx, x in enumerate(base):
        flat_ga = None if analytic[idx] is None else analytic[idx].ravel()
        size = x.size
        if size <= max_coords:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords, replace=False)
        for c in coords:
            h = 1e-5 * (1.0 + abs(x.flat[c]))
            bumped = [v.copy() for v in base]
            bumped[idx].flat[c] += h
            s_plus = scalar_at(bumped)
            bumped[idx].flat[c] -= 2 * h
            s_minus = scalar_at(bumped)
            cd = (s_plus - s_minus) / (2 * h)
            ga = 0.0 if flat_ga is None else float(flat_ga[c])
            err = abs(ga - cd) / max(abs(ga), abs(cd), 1e-8)
            worst = max(worst, err)
    return worst
