"""Scalar readouts for test graphs: primitives that only the tests use."""

import numpy as np

from peprime.autodiff import ShapeMismatchError, Var


def mul(a: Var, b: Var) -> Var:
    """Elementwise product of two same-shape nodes."""
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError("mul", a.data.shape, b.data.shape)
    x, y, an, bn = a.data, b.data, a.node, b.node

    def bwd(g):
        if an.requires_grad:
            an._accum(g * y)
        if bn.requires_grad:
            bn._accum(g * x)

    return Var(x * y, (an, bn), bwd)


def sum_all(a: Var) -> Var:
    """The sum of every element, as a scalar node."""
    shape, an = a.data.shape, a.node
    return Var(a.data.sum(), (an,), lambda g: an._accum(np.full(shape, float(g))))
