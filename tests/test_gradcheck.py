import numpy as np
import pytest

from peprime import autodiff as ad
from peprime.autodiff import Partition, Var

from gradcheck import finite_difference_check
from graph_helpers import mul, sum_all


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        reg = ad.ParameterRegistry()
        reg.add("w", np.array([3.0, -2.0, 0.5]), Partition.HEAD)

        def loss_fn(registry):
            leaves = registry.leaf_vars()
            return ad.scale(sum_all(mul(leaves["w"], leaves["w"])), 0.5), leaves

        for eps in (1e-6, 1e-5, 1e-4):
            worst = finite_difference_check(loss_fn, reg, epsilon=eps)
            assert max(err for err, _ in worst.values()) < 1e-8

    def test_constant_loss_passes_with_zero_grads(self):
        reg = ad.ParameterRegistry()
        reg.add("w", np.ones(4), Partition.HEAD)

        def loss_fn(registry):
            leaves = registry.leaf_vars()
            return ad.scale(sum_all(leaves["w"]), 0.0), leaves

        worst = finite_difference_check(loss_fn, reg)
        assert [err for err, _ in worst.values()] == [0.0]

    def test_non_finite_loss_is_diagnosed(self):
        reg = ad.ParameterRegistry()
        reg.add("w", np.array([2.0]), Partition.HEAD)

        def loss_fn(registry):
            leaves = registry.leaf_vars()
            bad = Var(np.asarray(np.inf))
            return mul(sum_all(leaves["w"]), bad), leaves

        with pytest.raises(ad.ContractError, match="non-finite"):
            finite_difference_check(loss_fn, reg)
