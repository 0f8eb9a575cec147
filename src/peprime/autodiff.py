"""Dense-tensor math with tape-based reverse-mode differentiation.

Everything is float64. A forward pass builds a graph of ``Var`` nodes;
``backward`` walks it once in reverse topological order and accumulates
gradients into ``Var.grad``. Parameters live in a ``ParameterRegistry``
keyed by stable string ids, each tagged with the partition it belongs to
(PRETRAINED / LIGHTWEIGHT / HEAD).

Every ``Var`` carries ``requires_grad``. A leaf sets it (default true); any
other node requires a gradient iff one of its parents does. ``backward``
visits only nodes that require a gradient, and each backward closure skips
the operands that do not, so a frozen partition costs no backward work.
The gradients of the nodes that do require one are computed by the same
ops in the same order as in a full backward, so they are bit-identical.

``grads_for`` returns an entry for every leaf that requires a gradient
(all zeros when the leaf is off the loss's tape) and none for the others.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class ShapeMismatchError(ValueError):
    """Raised when operand shapes do not conform for a primitive."""

    def __init__(self, primitive, *shapes):
        self.primitive = primitive
        self.shapes = shapes
        super().__init__(f"{primitive}: incompatible shapes {shapes}")


class ContractError(RuntimeError):
    """Raised when an operation is called outside its contract."""


class Partition(enum.Enum):
    PRETRAINED = "pretrained"
    LIGHTWEIGHT = "lightweight"
    HEAD = "head"


class Var:
    """One node on the tape: a value, a grad slot, and a backward closure.

    ``requires_grad`` is given for a leaf; a node with parents derives it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None, requires_grad=True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents = tuple(parents)
        if parents:
            requires_grad = False
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __add__(self, other):
        return add(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__


def constant(data):
    return Var(data)


def add(a: Var, b: Var) -> Var:
    """Elementwise add; a 1-d ``b`` broadcasts across the rows of a 2-d ``a``."""
    row_broadcast = a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]
    if not row_broadcast and a.data.shape != b.data.shape:
        raise ShapeMismatchError("add", a.data.shape, b.data.shape)
    out = Var(a.data + b.data, (a, b))

    def bwd(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(g.sum(axis=0) if row_broadcast else g)

    out._backward = bwd
    return out


def sub(a: Var, b: Var) -> Var:
    return add(a, scale(b, -1.0))


def mul(a: Var, b: Var) -> Var:
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError("mul", a.data.shape, b.data.shape)
    out = Var(a.data * b.data, (a, b))

    def bwd(g):
        if a.requires_grad:
            a._accum(g * b.data)
        if b.requires_grad:
            b._accum(g * a.data)

    out._backward = bwd
    return out


def scale(a: Var, c: float) -> Var:
    out = Var(a.data * c, (a,))
    out._backward = lambda g: a._accum(g * c)
    return out


def matmul(a: Var, b: Var) -> Var:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError("matmul", a.data.shape, b.data.shape)
    out = Var(a.data @ b.data, (a, b))

    def bwd(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    out._backward = bwd
    return out


def transpose(a: Var) -> Var:
    out = Var(a.data.T, (a,))
    out._backward = lambda g: a._accum(g.T)
    return out


def slice_cols(a: Var, lo: int, hi: int) -> Var:
    if a.data.ndim != 2 or not (0 <= lo < hi <= a.data.shape[1]):
        raise ShapeMismatchError("slice_cols", a.data.shape, (lo, hi))
    out = Var(a.data[:, lo:hi], (a,))

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[:, lo:hi] += g

    out._backward = bwd
    return out


def concat_cols(parts) -> Var:
    parts = list(parts)
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ShapeMismatchError("concat_cols", *[p.data.shape for p in parts])
    rows = parts[0].data.shape[0]
    if any(p.data.shape[0] != rows for p in parts):
        raise ShapeMismatchError("concat_cols", *[p.data.shape for p in parts])
    out = Var(np.concatenate([p.data for p in parts], axis=1), tuple(parts))
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accum(g[:, lo:hi])

    out._backward = bwd
    return out


def relu(a: Var) -> Var:
    out = Var(np.maximum(a.data, 0.0), (a,))
    out._backward = lambda g: a._accum(g * (a.data > 0))
    return out


def gelu(a: Var) -> Var:
    # exact erf form; backward uses d/dx [x*Phi(x)] = Phi(x) + x*phi(x)
    phi_cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out = Var(a.data * phi_cdf, (a,))

    def bwd(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * a.data * a.data)
        a._accum(g * (phi_cdf + a.data * pdf))

    out._backward = bwd
    return out


def dropout(a: Var, rate: float = 0.0) -> Var:
    """Identity. Kept as an explicit primitive so the model reads naturally."""
    return a


def sum_all(a: Var) -> Var:
    out = Var(a.data.sum(), (a,))
    out._backward = lambda g: a._accum(np.full_like(a.data, float(g)))
    return out


def embedding(table: Var, ids) -> Var:
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2 or ids.ndim != 1:
        raise ShapeMismatchError("embedding", table.data.shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ContractError(
            f"embedding: id out of range [0, {table.data.shape[0]}) in {ids.tolist()}"
        )
    out = Var(table.data[ids], (table,))

    def bwd(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    out._backward = bwd
    return out


def softmax_rows(a: Var, additive_mask=None) -> Var:
    """Row softmax of a 2-d input, optionally with an additive (mask) term."""
    if a.data.ndim != 2:
        raise ShapeMismatchError("softmax", a.data.shape)
    z = a.data if additive_mask is None else a.data + additive_mask
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)
    out = Var(s, (a,))

    def bwd(g):
        a._accum(s * (g - (g * s).sum(axis=1, keepdims=True)))

    out._backward = bwd
    return out


def layer_norm(x: Var, gain: Var, bias: Var, eps: float = 1e-5) -> Var:
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],) or bias.data.shape != (x.data.shape[1],):
        raise ShapeMismatchError("layer_norm", x.data.shape, gain.data.shape, bias.data.shape)
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Var(xhat * gain.data + bias.data, (x, gain, bias))

    def bwd(g):
        if gain.requires_grad:
            gain._accum((g * xhat).sum(axis=0))
        if bias.requires_grad:
            bias._accum(g.sum(axis=0))
        if x.requires_grad:
            gy = g * gain.data
            x._accum(inv * (gy - gy.mean(axis=1, keepdims=True) - xhat * (gy * xhat).mean(axis=1, keepdims=True)))

    out._backward = bwd
    return out


def cross_entropy_mean(logits: Var, gold, keep_mask=None) -> Var:
    """Softmax cross-entropy, mean over positions where ``keep_mask`` is true.

    ``gold`` holds one label index per row; masked-out rows contribute
    nothing to the loss or the gradient.
    """
    gold = np.asarray(gold, dtype=np.int64)
    if logits.data.ndim != 2 or gold.shape != (logits.data.shape[0],):
        raise ShapeMismatchError("cross_entropy", logits.data.shape, gold.shape)
    if keep_mask is None:
        keep_mask = np.ones(gold.shape, dtype=bool)
    keep_mask = np.asarray(keep_mask, dtype=bool)
    n_keep = int(keep_mask.sum())
    if n_keep == 0:
        raise ContractError("cross_entropy: no unmasked positions")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    nll = -logp[np.arange(gold.size), gold]
    out = Var(nll[keep_mask].mean(), (logits,))

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(gold.size), gold] -= 1.0
        p[~keep_mask] = 0.0
        logits._accum(p * (float(g) / n_keep))

    out._backward = bwd
    return out


def backward(loss: Var) -> None:
    """Reverse sweep from a scalar loss; fills ``.grad`` of the nodes that require one."""
    if loss.data.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.asarray(1.0)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def grads_for(loss: Var, leaves: dict) -> dict:
    """Run backward and return {id: gradient array} for the leaves that require one.

    Such leaves off the loss's tape get zeros; the other leaves get no entry.
    """
    backward(loss)
    return {
        pid: (v.grad if v.grad is not None else np.zeros_like(v.data))
        for pid, v in leaves.items() if v.requires_grad
    }


@dataclass
class Tensor:
    """A dense float64 array; read-only, and not replaceable, while frozen."""

    data: np.ndarray
    frozen: bool = False

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)

    def __setattr__(self, name, value):
        if name == "data" and self.frozen:
            raise ContractError("cannot replace a frozen parameter; unfreeze its partition first")
        object.__setattr__(self, name, value)

    def set_frozen(self, frozen: bool):
        self.data.flags.writeable = not frozen
        self.frozen = frozen

    @property
    def shape(self):
        return self.data.shape


@dataclass
class Parameter:
    id: str
    value: Tensor
    partition: Partition
    trainable: bool = True


class ParameterRegistry:
    """Insertion-ordered id -> Parameter map with bit-exact snapshots."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, pid: str, value, partition: Partition, trainable: bool = True) -> Parameter:
        if pid in self._params:
            raise ContractError(f"duplicate parameter id {pid!r}")
        p = Parameter(pid, Tensor(np.asarray(value, dtype=np.float64)), partition, trainable)
        self._params[pid] = p
        return p

    def __getitem__(self, pid: str) -> Parameter:
        return self._params[pid]

    def __contains__(self, pid: str) -> bool:
        return pid in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self):
        return len(self._params)

    def ids(self, partition: Partition | None = None):
        return [
            p.id for p in self._params.values()
            if partition is None or p.partition is partition
        ]

    def n_params(self, partition: Partition | None = None) -> int:
        return sum(
            p.value.data.size for p in self._params.values()
            if partition is None or p.partition is partition
        )

    def leaf_vars(self, frozen=()) -> dict:
        """Fresh graph leaves for every parameter, keyed by id.

        Leaves of the ``frozen`` partitions do not require a gradient.
        """
        return {p.id: Var(p.value.data, requires_grad=p.partition not in frozen)
                for p in self._params.values()}

    def snapshot(self) -> dict:
        return {pid: p.value.data.copy() for pid, p in self._params.items()}

    def restore(self, snap: dict):
        frozen = [pid for pid in snap if self._params[pid].value.frozen]
        if frozen:
            raise ContractError(f"cannot restore frozen parameters {frozen}; unfreeze them first")
        for pid, arr in snap.items():
            self._params[pid].value.data = arr.copy()

    def deep_copy(self) -> "ParameterRegistry":
        other = ParameterRegistry()
        for p in self._params.values():
            other.add(p.id, p.value.data.copy(), p.partition, p.trainable)
        return other


# --- checkpoint container -------------------------------------------------
#
# Layout: magic 'PPCK' | u32 version | u64 header_len | header JSON (utf-8)
# | concatenated little-endian float64 buffers in header order.

_CKPT_MAGIC = b"PPCK"
_CKPT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(registry: ParameterRegistry, path, config_hash: str):
    entries = [
        {"id": p.id, "partition": p.partition.value, "shape": list(p.value.data.shape)}
        for p in registry
    ]
    header = json.dumps(
        {"format_version": _CKPT_VERSION, "config_hash": config_hash, "params": entries},
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<IQ", _CKPT_VERSION, len(header)))
        f.write(header)
        for p in registry:
            f.write(np.ascontiguousarray(p.value.data, dtype="<f8").tobytes())


def load_checkpoint(path, expected_config_hash: str | None = None) -> ParameterRegistry:
    with open(path, "rb") as f:
        if f.read(4) != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version, hlen = struct.unpack("<IQ", f.read(12))
        if version != _CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        header = json.loads(f.read(hlen).decode("utf-8"))
        if expected_config_hash is not None and header["config_hash"] != expected_config_hash:
            raise CheckpointError(
                f"{path}: config hash mismatch "
                f"(checkpoint {header['config_hash']}, expected {expected_config_hash})"
            )
        reg = ParameterRegistry()
        for e in header["params"]:
            shape = tuple(e["shape"])
            n = int(np.prod(shape)) if shape else 1
            buf = np.frombuffer(f.read(8 * n), dtype="<f8").reshape(shape)
            reg.add(e["id"], buf.astype(np.float64), Partition(e["partition"]))
        return reg


def checkpoint_config_hash(path) -> str:
    with open(path, "rb") as f:
        f.read(4)
        _, hlen = struct.unpack("<IQ", f.read(12))
        return json.loads(f.read(hlen).decode("utf-8"))["config_hash"]


# --- gradient verification ------------------------------------------------

@dataclass
class GradCheckEntry:
    param_id: str
    max_rel_err: float
    worst_index: tuple
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    entries: list = field(default_factory=list)
    tolerance: float = 1e-4

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def failures(self):
        return [e for e in self.entries if e.max_rel_err > self.tolerance]

    @property
    def passed(self) -> bool:
        return not self.failures


def finite_difference_check(loss_fn, registry: ParameterRegistry,
                            epsilon: float = 1e-5, tolerance: float = 1e-4,
                            param_ids=None) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    ``loss_fn(registry)`` must return ``(loss Var, leaves dict)`` and be
    deterministic given the registry values. Relative error is
    ``|a - n| / max(|a|, |n|, 1e-4)`` per element.
    """
    loss, leaves = loss_fn(registry)
    if not np.isfinite(loss.data):
        raise ContractError(f"finite_difference_check: non-finite loss {loss.data}")
    analytic = grads_for(loss, leaves)
    if param_ids is None:
        param_ids = [p.id for p in registry if p.trainable]

    report = GradCheckReport(tolerance=tolerance)
    for pid in param_ids:
        arr = registry[pid].value.data
        a = analytic[pid]
        worst = GradCheckEntry(pid, 0.0, (), 0.0, 0.0)
        flat = arr.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            lp = float(loss_fn(registry)[0].data)
            flat[k] = orig - epsilon
            lm = float(loss_fn(registry)[0].data)
            flat[k] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise ContractError(f"finite_difference_check: non-finite loss perturbing {pid}[{k}]")
            num = (lp - lm) / (2.0 * epsilon)
            ana = a.reshape(-1)[k]
            rel = abs(ana - num) / max(abs(ana), abs(num), 1e-4)
            if rel >= worst.max_rel_err:
                worst = GradCheckEntry(pid, rel, np.unravel_index(k, arr.shape), float(ana), float(num))
        report.entries.append(worst)
    return report


def stable_hash(obj) -> str:
    """Short deterministic hash of any JSON-serializable object."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()[:16]
