"""The gradient oracle of the tests: central finite differences against ``backward``."""

import numpy as np

from peprime.autodiff import ContractError, grads_for


def finite_difference_check(loss_fn, registry, epsilon=1e-5):
    """{parameter id: (worst relative error, its index)} against central differences.

    ``loss_fn(registry)`` returns ``(loss Var, leaves dict)``, deterministic in the
    registry values. An element's relative error is ``|a - n| / max(|a|, |n|, 1e-4)``.
    """
    loss, leaves = loss_fn(registry)
    if not np.isfinite(loss.data):
        raise ContractError(f"non-finite loss {loss.data}")
    analytic = grads_for(loss, leaves)
    worst = {pid: (0.0, ()) for pid in registry.ids()}
    for pid in worst:
        arr = registry[pid].value.data
        flat, a = arr.reshape(-1), analytic[pid].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            lp = float(loss_fn(registry)[0].data)
            flat[k] = orig - epsilon
            lm = float(loss_fn(registry)[0].data)
            flat[k] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise ContractError(f"non-finite loss perturbing {pid}[{k}]")
            num = (lp - lm) / (2.0 * epsilon)
            rel = abs(a[k] - num) / max(abs(a[k]), abs(num), 1e-4)
            if rel >= worst[pid][0]:
                worst[pid] = (float(rel), np.unravel_index(k, arr.shape))
    return worst
