"""Dense-tensor math with tape-based reverse-mode differentiation.

Everything is float64. A forward pass builds a graph of ``Var`` nodes;
``backward`` walks it once in reverse topological order and accumulates
gradients into ``Var.grad``. Parameters live in a ``ParameterRegistry``
keyed by stable string ids, each tagged with the partition it belongs to
(PRETRAINED / LIGHTWEIGHT / HEAD).

Batches: every primitive acts on the last axis (or the last two, for
``matmul`` and ``transpose``) and carries any leading axes along, so one
graph over a padded ``[B, L, d]`` batch replaces B per-sequence graphs.
A weight shared by the batch (``matmul`` by a 2-d operand, ``add`` of a
1-d operand, the gain and bias of ``layer_norm``) gets its gradient
summed over every leading position. Padding is the caller's business:
attention drops padded keys through an additive mask to
``softmax_rows``, and ``cross_entropy_mean`` drops padded positions
through its keep mask. 2-d inputs give the same results as a graph
built for one sequence.

Every ``Var`` carries ``requires_grad``. A leaf sets it (default true); any
other node requires a gradient iff one of its parents does. ``backward``
visits only nodes that require a gradient, and each backward closure skips
the operands that do not, so a frozen partition costs no backward work.
The gradients of the nodes that do require one are computed by the same
ops in the same order as in a full backward, so they are bit-identical.

No tape is kept where no gradient can flow: a node that requires none
keeps neither its parents nor its backward closure, so a forward pass
whose leaves are all frozen frees each intermediate as soon as it is
used. ``backward`` drops an inner node's ``.grad`` once it has passed it
on; only leaves keep theirs.

``grads_for`` returns an entry for every leaf that requires a gradient
(all zeros when the leaf is off the loss's tape) and none for the others.

Gradient ownership: a node keeps the first gradient it receives by
reference and sums each later one into a new array, so one gradient array
may be shared between nodes (``add`` hands the same array to both
operands; ``transpose`` and ``concat_cols`` pass views). A gradient array
is therefore never written in place: a backward that needs a buffer
(``slice_cols``, ``embedding``) allocates its own and passes it on.
Forward kernels write in place only into arrays they allocated.

``linear(x, w, b)`` is ``add(matmul(x, w), b)`` as one node, with the
same forward and backward operations, so the result is the same bit for
bit; the model's projections use it.
"""

from __future__ import annotations

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
    A node that requires no gradient keeps neither its parents nor its
    closure, so a forward pass without trainable leaves holds no tape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None, requires_grad=True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if parents:
            requires_grad = False
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        if requires_grad:
            self._parents = tuple(parents)
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None

    def _accum(self, g):
        """Take ``g`` by reference if it is the first gradient, else sum into a new array."""
        self.grad = g if self.grad is None else self.grad + g


def _sum_leading(g):
    """Sum over every axis but the last: the gradient of a broadcast 1-d operand."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def add(a: Var, b: Var) -> Var:
    """Elementwise add; a 1-d ``b`` broadcasts over the last axis of ``a``."""
    broadcast = a.data.ndim >= 2 and b.data.ndim == 1 and a.data.shape[-1] == b.data.shape[0]
    if not broadcast and a.data.shape != b.data.shape:
        raise ShapeMismatchError("add", a.data.shape, b.data.shape)

    def bwd(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(_sum_leading(g) if broadcast else g)

    return Var(a.data + b.data, (a, b), bwd)


def mul(a: Var, b: Var) -> Var:
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError("mul", a.data.shape, b.data.shape)

    def bwd(g):
        if a.requires_grad:
            a._accum(g * b.data)
        if b.requires_grad:
            b._accum(g * a.data)

    return Var(a.data * b.data, (a, b), bwd)


def scale(a: Var, c: float) -> Var:
    return Var(a.data * c, (a,), lambda g: a._accum(g * c))


def matmul(a: Var, b: Var) -> Var:
    """``[..., m, k] @ [k, n]`` (one weight shared by the batch) or ``[..., m, k] @ [..., k, n]``."""
    x, w = a.data, b.data
    shared = x.ndim >= 2 and w.ndim == 2
    batched = x.ndim == w.ndim > 2 and x.shape[:-2] == w.shape[:-2]
    if not (shared or batched) or x.shape[-1] != w.shape[-2]:
        raise ShapeMismatchError("matmul", x.shape, w.shape)

    def bwd(g):
        if a.requires_grad:
            a._accum(g @ w.swapaxes(-1, -2))
        if b.requires_grad:
            if shared:   # the weight's gradient sums over every row of the batch
                b._accum(x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            else:
                b._accum(x.swapaxes(-1, -2) @ g)

    return Var(x @ w, (a, b), bwd)


def linear(x: Var, w: Var, b: Var) -> Var:
    """``x @ w + b`` as one node: ``[..., m, k] @ [k, n]`` plus a 1-d bias of width n.

    The values and gradients are those of ``add(matmul(x, w), b)``, bit for bit.
    """
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or b.data.shape != wd.shape[1:]:
        raise ShapeMismatchError("linear", xd.shape, wd.shape, b.data.shape)
    out = xd @ wd
    out += b.data

    def bwd(g):
        if b.requires_grad:
            b._accum(_sum_leading(g))
        if x.requires_grad:
            x._accum(g @ wd.T)
        if w.requires_grad:
            w._accum(xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return Var(out, (x, w, b), bwd)


def transpose(a: Var) -> Var:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeMismatchError("transpose", a.data.shape)
    return Var(a.data.swapaxes(-1, -2), (a,),
               lambda g: a._accum(g.swapaxes(-1, -2)))


def slice_cols(a: Var, lo: int, hi: int) -> Var:
    """Columns ``lo:hi`` of the last axis."""
    if a.data.ndim < 2 or not (0 <= lo < hi <= a.data.shape[-1]):
        raise ShapeMismatchError("slice_cols", a.data.shape, (lo, hi))

    def bwd(g):
        full = np.zeros_like(a.data)
        full[..., lo:hi] = g
        a._accum(full)

    return Var(a.data[..., lo:hi], (a,), bwd)


def concat_cols(parts) -> Var:
    """Concatenate along the last axis; every other axis must agree."""
    parts = list(parts)
    if not parts or any(p.data.ndim < 2 for p in parts):
        raise ShapeMismatchError("concat_cols", *[p.data.shape for p in parts])
    lead = parts[0].data.shape[:-1]
    if any(p.data.shape[:-1] != lead for p in parts):
        raise ShapeMismatchError("concat_cols", *[p.data.shape for p in parts])
    offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accum(g[..., lo:hi])

    return Var(np.concatenate([p.data for p in parts], axis=-1), parts, bwd)


def relu(a: Var) -> Var:
    return Var(np.maximum(a.data, 0.0), (a,), lambda g: a._accum(g * (a.data > 0)))


def gelu(a: Var) -> Var:
    # exact erf form; backward uses d/dx [x*Phi(x)] = Phi(x) + x*phi(x)
    x = a.data
    phi_cdf = x * _INV_SQRT2
    erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5

    def bwd(g):
        d = x * -0.5
        d *= x
        np.exp(d, out=d)
        d *= _INV_SQRT2PI        # phi(x)
        d *= x
        d += phi_cdf
        d *= g
        a._accum(d)

    return Var(x * phi_cdf, (a,), bwd)


def sum_all(a: Var) -> Var:
    return Var(a.data.sum(), (a,), lambda g: a._accum(np.full_like(a.data, float(g))))


def embedding(table: Var, ids) -> Var:
    """Rows of a 2-d ``table`` for integer ``ids`` of any shape: ``ids.shape + (d,)``."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2 or ids.ndim < 1:
        raise ShapeMismatchError("embedding", table.data.shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ContractError(
            f"embedding: id out of range [0, {table.data.shape[0]}) in {ids.tolist()}"
        )

    def bwd(g):
        rows = np.zeros_like(table.data)
        np.add.at(rows, ids, g)
        table._accum(rows)

    return Var(table.data[ids], (table,), bwd)


def softmax_rows(a: Var, additive_mask=None) -> Var:
    """Softmax over the last axis, optionally with an additive (mask) term.

    The mask broadcasts against ``a``: a key mask ``[B, 1, L]`` drops
    the same keys from every query row of ``[B, L, L]`` scores.
    """
    if a.data.ndim < 2:
        raise ShapeMismatchError("softmax", a.data.shape)
    if additive_mask is None:
        s = a.data - a.data.max(axis=-1, keepdims=True)
    else:
        s = a.data + additive_mask
        s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def bwd(g):
        d = g * s
        d = g - d.sum(axis=-1, keepdims=True)
        d *= s
        a._accum(d)

    return Var(s, (a,), bwd)


def layer_norm(x: Var, gain: Var, bias: Var, eps: float = 1e-5) -> Var:
    """Normalize over the last axis; 1-d ``gain`` and ``bias`` of that width."""
    width = x.data.shape[-1:]
    if x.data.ndim < 2 or gain.data.shape != width or bias.data.shape != width:
        raise ShapeMismatchError("layer_norm", x.data.shape, gain.data.shape, bias.data.shape)
    n = width[0]
    # every mean is ndarray.mean's own sum(axis=-1) / n, without its Python wrapper
    mu = x.data.sum(axis=-1, keepdims=True)
    mu /= n
    xhat = x.data - mu
    sq = xhat * xhat
    inv = sq.sum(axis=-1, keepdims=True)
    inv /= n
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv

    def bwd(g):
        if gain.requires_grad:
            gain._accum(_sum_leading(g * xhat))
        if bias.requires_grad:
            bias._accum(_sum_leading(g))
        if x.requires_grad:
            gy = g * gain.data
            t = gy * xhat
            m2 = t.sum(axis=-1, keepdims=True)
            m2 /= n
            m1 = gy.sum(axis=-1, keepdims=True)
            m1 /= n
            gy -= m1
            np.multiply(xhat, m2, out=t)
            gy -= t
            gy *= inv
            x._accum(gy)

    out = xhat * gain.data
    out += bias.data
    return Var(out, (x, gain, bias), bwd)


def cross_entropy_mean(logits: Var, gold, keep_mask=None) -> Var:
    """Softmax cross-entropy over the last axis, mean over kept positions.

    ``logits`` is ``[..., C]``; ``gold`` holds one label index per
    position and ``keep_mask`` one flag, both of shape ``[...]``.
    Positions whose flag is false contribute nothing to the loss or the
    gradient, so padding and unlabelled tokens are dropped here.
    """
    gold = np.asarray(gold, dtype=np.int64)
    if logits.data.ndim < 2 or gold.shape != logits.data.shape[:-1]:
        raise ShapeMismatchError("cross_entropy", logits.data.shape, gold.shape)
    keep_mask = (np.ones(gold.shape, dtype=bool) if keep_mask is None
                 else np.asarray(keep_mask, dtype=bool))
    if keep_mask.shape != gold.shape:
        raise ShapeMismatchError("cross_entropy", logits.data.shape, keep_mask.shape)
    n_keep = int(keep_mask.sum())
    if n_keep == 0:
        raise ContractError("cross_entropy: no unmasked positions")
    n_classes = logits.data.shape[-1]
    rows = np.arange(gold.size)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    nll = -logp.reshape(-1, n_classes)[rows, gold.reshape(-1)]

    def bwd(g):
        p = np.exp(logp).reshape(-1, n_classes)
        p[rows, gold.reshape(-1)] -= 1.0
        p[~keep_mask.reshape(-1)] = 0.0
        logits._accum(p.reshape(logp.shape) * (float(g) / n_keep))

    return Var(nll[keep_mask.reshape(-1)].mean(), (logits,), bwd)


def backward(loss: Var) -> None:
    """Reverse sweep from a scalar loss; fills ``.grad`` of the leaves that require one.

    An inner node drops its ``.grad`` once it has passed it on, so the
    sweep holds only the gradients still in flight.
    """
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
        if node._parents:
            node.grad = None


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


@dataclass
class Parameter:
    id: str
    value: Tensor
    partition: Partition


class ParameterRegistry:
    """Insertion-ordered id -> Parameter map with bit-exact snapshots."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, pid: str, value, partition: Partition) -> Parameter:
        if pid in self._params:
            raise ContractError(f"duplicate parameter id {pid!r}")
        p = Parameter(pid, Tensor(np.asarray(value, dtype=np.float64)), partition)
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
            other.add(p.id, p.value.data.copy(), p.partition)
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
    """Read a checkpoint; any file that is not exactly one raises ``CheckpointError``."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(blob) < 16:
        raise CheckpointError(f"{path}: truncated header ({len(blob)} bytes)")
    version, hlen = struct.unpack_from("<IQ", blob, 4)
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    offset = 16 + hlen
    if len(blob) < offset:
        raise CheckpointError(f"{path}: truncated header ({len(blob)} of {offset} bytes)")
    try:
        header = json.loads(blob[16:offset].decode("utf-8"))
        config_hash, entries = header["config_hash"], header["params"]
        shapes = [tuple(int(d) for d in e["shape"]) for e in entries]
        partitions = [Partition(e["partition"]) for e in entries]
        ids = [e["id"] for e in entries]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from None
    if expected_config_hash is not None and config_hash != expected_config_hash:
        raise CheckpointError(
            f"{path}: config hash mismatch "
            f"(checkpoint {config_hash}, expected {expected_config_hash})"
        )
    expected_len = offset + 8 * sum(int(np.prod(shape)) for shape in shapes)
    if len(blob) != expected_len:
        kind = "truncated payload" if len(blob) < expected_len else "trailing bytes"
        raise CheckpointError(f"{path}: {kind} ({len(blob)} bytes, expected {expected_len})")
    reg = ParameterRegistry()
    for pid, shape, partition in zip(ids, shapes, partitions):
        n = int(np.prod(shape))
        buf = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
        reg.add(pid, buf.astype(np.float64), partition)
        offset += 8 * n
    return reg


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
                            epsilon: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    ``loss_fn(registry)`` must return ``(loss Var, leaves dict)`` and be
    deterministic given the registry values. Relative error is
    ``|a - n| / max(|a|, |n|, 1e-4)`` per element.
    """
    loss, leaves = loss_fn(registry)
    if not np.isfinite(loss.data):
        raise ContractError(f"finite_difference_check: non-finite loss {loss.data}")
    analytic = grads_for(loss, leaves)
    report = GradCheckReport(tolerance=tolerance)
    for pid in registry.ids():
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


def check_ranges(obj, minimum: dict, positive=()):
    """Raise ValueError naming each field of ``obj`` below its ``minimum`` or not > 0."""
    bad = [f"{k} must be >= {m} (got {getattr(obj, k)})"
           for k, m in minimum.items() if getattr(obj, k) < m]
    bad += [f"{k} must be > 0 (got {getattr(obj, k)})" for k in positive
            if not getattr(obj, k) > 0]
    if bad:
        raise ValueError("; ".join(bad))


def stable_hash(obj) -> str:
    """Short deterministic hash of any JSON-serializable object."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()[:16]
