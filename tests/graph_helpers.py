"""Scalar readouts for test graphs: primitives that only the tests use."""

import numpy as np

from peprime.autodiff import ShapeMismatchError, Var


def mul(a: Var, b: Var) -> Var:
    """Elementwise product of two same-shape nodes."""
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError("mul", a.data.shape, b.data.shape)

    def bwd(g):
        if a.requires_grad:
            a._accum(g * b.data)
        if b.requires_grad:
            b._accum(g * a.data)

    return Var(a.data * b.data, (a, b), bwd)


def sum_all(a: Var) -> Var:
    """The sum of every element, as a scalar node."""
    return Var(a.data.sum(), (a,), lambda g: a._accum(np.full_like(a.data, float(g))))
