"""Dense-tensor math with tape-based reverse-mode differentiation.

Everything is float64. A forward pass returns ``Var``s, each a value and
a tape ``Node``; ``backward`` walks the nodes once in reverse topological
order and accumulates gradients into ``Var.node.grad``. Parameters live
in a ``ParameterRegistry`` keyed by stable string ids, each tagged with
the partition it belongs to (PRETRAINED / LIGHTWEIGHT / HEAD).

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

Every node carries ``requires_grad``. A leaf sets it (default true); any
other node requires a gradient iff one of its parents does. ``backward``
visits only nodes that require a gradient, and each backward closure skips
the operands that do not, so a frozen partition costs no backward work.
The gradients of the nodes that do require one are computed by the same
ops in the same order as in a full backward, so they are bit-identical.

A node never holds a value. Its backward closure holds the parents'
nodes and exactly the arrays that backward reads: ``matmul`` and
``linear`` their two operands, ``relu`` and ``gelu`` their input (``gelu``
also Phi of it), ``softmax_rows`` its output, ``layer_norm`` the
normalized input, the inverse deviation and the gain, and
``cross_entropy_mean`` the log-probabilities and the masks. ``add``,
``scale``, ``transpose`` and ``concat_cols`` save no array, and
``slice_cols`` and ``embedding`` only a shape. So a value that no backward
reads (a head's attention scores, a residual sum, the logits) is freed as
soon as the forward code drops its ``Var``.

No tape is kept where no gradient can flow: every ``Var`` that requires
none shares the one node ``NO_GRAD``, which keeps neither parents nor a
closure, so a forward pass whose leaves are all frozen frees each
intermediate as soon as it is used. ``backward`` drops an inner node's
``.grad`` once it has passed it on; only leaves keep theirs. It leaves
the graph whole: the graph, and every array it saved, lives until the
caller drops the loss.

``grads_for`` returns an entry for every leaf that requires a gradient
(all zeros when the leaf is off the loss's tape) and none for the others.

Gradient ownership: a node keeps the first gradient it receives by
reference and sums each later one into a new array, so one gradient array
may be shared between nodes (``add`` hands the same array to both
operands; ``transpose`` and ``concat_cols`` pass views). A gradient array
is therefore never written in place: a backward that needs a buffer
(``slice_cols``, ``embedding``) allocates its own, from the shape it
saved, and passes it on.
Forward kernels write in place only into arrays they allocated.

``linear(x, w, b)`` is ``add(matmul(x, w), b)`` as one node, with the
same forward and backward operations, so the result is the same bit for
bit; the model's projections use it.
"""

from __future__ import annotations

import ctypes
import enum
import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3     # glibc's mallopt parameters


def _keep_freed_heap():
    """Ask glibc to keep freed memory in the heap rather than hand it back.

    Each training step frees graph-sized arrays that the next step or the
    next prediction allocates again. With glibc's default thresholds the
    heap top is trimmed in between and its pages are faulted in afresh:
    pretraining, priming, fine-tuning and evaluation on ``full_long`` took
    about 59,000 minor page faults, 11,000 of them in prediction. With this
    setting they take about 4,000, and 1 in prediction, at the same peak
    RSS. Arrays under 32 MiB come from the heap, and up to 64 MiB of free
    memory stays at its top. A no-op without glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()


class ShapeMismatchError(ValueError):
    """Raised when operand shapes do not conform for a primitive."""

    def __init__(self, primitive, *shapes):
        super().__init__(f"{primitive}: incompatible shapes {shapes}")


class ContractError(RuntimeError):
    """Raised when an operation is called outside its contract."""


class Partition(enum.Enum):
    PRETRAINED = "pretrained"
    LIGHTWEIGHT = "lightweight"
    HEAD = "head"


class Node:
    """The tape half of a ``Var``: a grad slot, and never a value.

    A node that requires a gradient and has parents also holds its
    parents' nodes and its backward closure; the closure holds exactly the
    arrays that backward reads. Every ``Var`` that requires no gradient
    shares the one node ``NO_GRAD``, which holds nothing and is never
    written.
    """

    __slots__ = ("grad", "requires_grad", "parents", "backward")

    def __init__(self, parents=(), backward=None, requires_grad=True):
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.backward = backward

    def _accum(self, g):
        """Take ``g`` by reference if it is the first gradient, else sum into a new array."""
        self.grad = g if self.grad is None else self.grad + g


NO_GRAD = Node(requires_grad=False)


class Var:
    """A value and its tape node.

    ``requires_grad`` is given for a leaf. A result passes its parents'
    nodes (not their ``Var``s) and its backward closure; it requires a
    gradient iff one of those nodes does, and otherwise gets ``NO_GRAD``
    and drops both. The value is referenced only from here, so it is freed
    when the forward code drops the ``Var``, unless a closure saved it.
    Its gradient and ``requires_grad`` are read from ``node``.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, parents=(), backward=None, requires_grad=True):
        self.data = np.asarray(data, dtype=np.float64)
        if parents:
            try:
                for p in parents:
                    if p.requires_grad:
                        break
                else:
                    self.node = NO_GRAD
                    return
            except AttributeError:
                pass        # a Var passed for its node: backward names the mistake
            self.node = Node(tuple(parents), backward)
        else:
            self.node = Node() if requires_grad else NO_GRAD


def _sum_leading(g):
    """Sum over every axis but the last: the gradient of a broadcast 1-d operand."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def add(a: Var, b: Var) -> Var:
    """Elementwise add; a 1-d ``b`` broadcasts over the last axis of ``a``."""
    broadcast = a.data.ndim >= 2 and b.data.ndim == 1 and a.data.shape[-1] == b.data.shape[0]
    if not broadcast and a.data.shape != b.data.shape:
        raise ShapeMismatchError("add", a.data.shape, b.data.shape)
    an, bn = a.node, b.node

    def bwd(g):
        if an.requires_grad:
            an._accum(g)
        if bn.requires_grad:
            bn._accum(_sum_leading(g) if broadcast else g)

    return Var(a.data + b.data, (an, bn), bwd)


def scale(a: Var, c: float) -> Var:
    an = a.node
    return Var(a.data * c, (an,), lambda g: an._accum(g * c))


def matmul(a: Var, b: Var) -> Var:
    """``[..., m, k] @ [k, n]`` (one weight shared by the batch) or ``[..., m, k] @ [..., k, n]``."""
    x, w = a.data, b.data
    shared = x.ndim >= 2 and w.ndim == 2
    batched = x.ndim == w.ndim > 2 and x.shape[:-2] == w.shape[:-2]
    if not (shared or batched) or x.shape[-1] != w.shape[-2]:
        raise ShapeMismatchError("matmul", x.shape, w.shape)
    an, bn = a.node, b.node

    def bwd(g):
        if an.requires_grad:
            an._accum(g @ w.swapaxes(-1, -2))
        if bn.requires_grad:
            if shared:   # the weight's gradient sums over every row of the batch
                bn._accum(x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            else:
                bn._accum(x.swapaxes(-1, -2) @ g)

    return Var(x @ w, (an, bn), bwd)


def linear(x: Var, w: Var, b: Var) -> Var:
    """``x @ w + b`` as one node: ``[..., m, k] @ [k, n]`` plus a 1-d bias of width n.

    The values and gradients are those of ``add(matmul(x, w), b)``, bit for bit.
    """
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or b.data.shape != wd.shape[1:]:
        raise ShapeMismatchError("linear", xd.shape, wd.shape, b.data.shape)
    out = xd @ wd
    out += b.data
    xn, wn, bn = x.node, w.node, b.node

    def bwd(g):
        if bn.requires_grad:
            bn._accum(_sum_leading(g))
        if xn.requires_grad:
            xn._accum(g @ wd.T)
        if wn.requires_grad:
            wn._accum(xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return Var(out, (xn, wn, bn), bwd)


def transpose(a: Var) -> Var:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeMismatchError("transpose", a.data.shape)
    an = a.node
    return Var(a.data.swapaxes(-1, -2), (an,), lambda g: an._accum(g.swapaxes(-1, -2)))


def slice_cols(a: Var, lo: int, hi: int) -> Var:
    """Columns ``lo:hi`` of the last axis."""
    shape = a.data.shape
    if len(shape) < 2 or not (0 <= lo < hi <= shape[-1]):
        raise ShapeMismatchError("slice_cols", shape, (lo, hi))
    an = a.node

    def bwd(g):
        full = np.zeros(shape)
        full[..., lo:hi] = g
        an._accum(full)

    return Var(a.data[..., lo:hi], (an,), bwd)


def concat_cols(parts) -> Var:
    """Concatenate along the last axis; every other axis must agree."""
    parts = list(parts)
    if not parts or any(p.data.ndim < 2 for p in parts):
        raise ShapeMismatchError("concat_cols", *[p.data.shape for p in parts])
    lead = parts[0].data.shape[:-1]
    if any(p.data.shape[:-1] != lead for p in parts):
        raise ShapeMismatchError("concat_cols", *[p.data.shape for p in parts])
    offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])
    nodes = [p.node for p in parts]

    def bwd(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n.requires_grad:
                n._accum(g[..., lo:hi])

    return Var(np.concatenate([p.data for p in parts], axis=-1), nodes, bwd)


def relu(a: Var) -> Var:
    x, an = a.data, a.node
    return Var(np.maximum(x, 0.0), (an,), lambda g: an._accum(g * (x > 0)))


def gelu(a: Var) -> Var:
    # exact erf form; backward uses d/dx [x*Phi(x)] = Phi(x) + x*phi(x)
    x, an = a.data, a.node
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
        an._accum(d)

    return Var(x * phi_cdf, (an,), bwd)


def embedding(table: Var, ids) -> Var:
    """Rows of a 2-d ``table`` for integer ``ids`` of any shape: ``ids.shape + (d,)``."""
    ids = np.asarray(ids, dtype=np.int64)
    shape = table.data.shape
    if len(shape) != 2 or ids.ndim < 1:
        raise ShapeMismatchError("embedding", shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= shape[0]):
        raise ContractError(f"embedding: id out of range [0, {shape[0]}) in {ids.tolist()}")
    tn = table.node

    def bwd(g):
        rows = np.zeros(shape)
        np.add.at(rows, ids, g)
        tn._accum(rows)

    return Var(table.data[ids], (tn,), bwd)


def softmax_rows(a: Var, additive_mask) -> Var:
    """Softmax over the last axis of ``a`` plus an additive (mask) term.

    The mask broadcasts against ``a``: a key mask ``[B, 1, L]`` drops
    the same keys from every query row of ``[B, L, L]`` scores.
    """
    if a.data.ndim < 2:
        raise ShapeMismatchError("softmax", a.data.shape)
    s = a.data + additive_mask
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    an = a.node

    def bwd(g):
        d = g * s
        d = g - d.sum(axis=-1, keepdims=True)
        d *= s
        an._accum(d)

    return Var(s, (an,), bwd)


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
    gd = gain.data
    xn, gn, bn = x.node, gain.node, bias.node

    def bwd(g):
        if gn.requires_grad:
            gn._accum(_sum_leading(g * xhat))
        if bn.requires_grad:
            bn._accum(_sum_leading(g))
        if xn.requires_grad:
            gy = g * gd
            t = gy * xhat
            m2 = t.sum(axis=-1, keepdims=True)
            m2 /= n
            m1 = gy.sum(axis=-1, keepdims=True)
            m1 /= n
            gy -= m1
            np.multiply(xhat, m2, out=t)
            gy -= t
            gy *= inv
            xn._accum(gy)

    out = xhat * gd
    out += bias.data
    return Var(out, (xn, gn, bn), bwd)


def cross_entropy_mean(logits: Var, gold, keep_mask) -> Var:
    """Softmax cross-entropy over the last axis, mean over kept positions.

    ``logits`` is ``[..., C]``; ``gold`` holds one label index per
    position and ``keep_mask`` one flag, both of shape ``[...]``.
    Positions whose flag is false contribute nothing to the loss or the
    gradient, so padding and unlabelled tokens are dropped here.
    """
    gold = np.asarray(gold, dtype=np.int64)
    if logits.data.ndim < 2 or gold.shape != logits.data.shape[:-1]:
        raise ShapeMismatchError("cross_entropy", logits.data.shape, gold.shape)
    keep_mask = np.asarray(keep_mask, dtype=bool)
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
    ln = logits.node

    def bwd(g):
        p = np.exp(logp).reshape(-1, n_classes)
        p[rows, gold.reshape(-1)] -= 1.0
        p[~keep_mask.reshape(-1)] = 0.0
        ln._accum(p.reshape(logp.shape) * (float(g) / n_keep))

    return Var(nll[keep_mask.reshape(-1)].mean(), (ln,), bwd)


def backward(loss: Var) -> None:
    """Reverse sweep from a scalar loss; fills ``.grad`` of the leaves that require one.

    An inner node drops its ``.grad`` once it has passed it on, so the
    sweep holds only the gradients still in flight. The graph itself is
    left whole: it is freed when the caller drops ``loss``.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    root = loss.node
    if not root.requires_grad:
        return
    order, seen, stack = [], set(), [(root, False)]
    try:
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
    except AttributeError:
        # caught here rather than checked in Var.__init__, which every forward op pays for
        if isinstance(p, Var):
            raise ContractError("a Var was passed as a parent: Var(data, parents, backward) "
                                "takes its parents' nodes (var.node), not their Vars") from None
        raise
    root.grad = np.asarray(1.0)
    for node in reversed(order):
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)
        if node.parents:
            node.grad = None


def grads_for(loss: Var, leaves: dict) -> dict:
    """Run backward and return {id: gradient array} for the leaves that require one.

    Such leaves off the loss's tape get zeros; the other leaves get no entry.
    """
    backward(loss)
    return {
        pid: (v.node.grad if v.node.grad is not None else np.zeros_like(v.data))
        for pid, v in leaves.items() if v.node.requires_grad
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

    def ids(self, partition: Partition | None = None):
        return [
            p.id for p in self._params.values()
            if partition is None or p.partition is partition
        ]

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
# | concatenated little-endian float64 buffers in header order
# | sha256 of every preceding byte (32 bytes).

_CKPT_MAGIC = b"PPCK"
_CKPT_VERSION = 2
_CKPT_DIGEST = 32


class CheckpointError(RuntimeError):
    pass


@contextmanager
def atomic_open(path, mode: str = "w"):
    """A file opened for writing that replaces ``path`` only when the block ends cleanly.

    It is a temporary file beside ``path``, renamed over it by ``os.replace``.
    If the block raises, the temporary file is removed and ``path`` keeps its
    old contents, so no reader sees a partly written file. Text is UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(registry: ParameterRegistry, path, config_hash: str):
    entries = [
        {"id": p.id, "partition": p.partition.value, "shape": list(p.value.data.shape)}
        for p in registry
    ]
    header = json.dumps(
        {"format_version": _CKPT_VERSION, "config_hash": config_hash, "params": entries},
        sort_keys=True,
    ).encode("utf-8")
    blob = b"".join([_CKPT_MAGIC, struct.pack("<IQ", _CKPT_VERSION, len(header)), header]
                    + [np.ascontiguousarray(p.value.data, dtype="<f8").tobytes() for p in registry])
    with atomic_open(path, "wb") as f:
        f.write(blob)
        f.write(hashlib.sha256(blob).digest())


def load_checkpoint(path, expected_config_hash: str) -> ParameterRegistry:
    """Read a checkpoint of config ``expected_config_hash``; any other file: ``CheckpointError``."""
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
        shapes = [e["shape"] for e in entries]
        partitions = [Partition(e["partition"]) for e in entries]
        ids = [e["id"] for e in entries]
        if not (all(type(s) is list and all(type(d) is int and d >= 0 for d in s) for s in shapes)
                and all(type(pid) is str for pid in ids) and len(set(ids)) == len(ids)):
            raise ValueError("ids must be unique strings and shapes lists of ints >= 0")
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from None
    expected_len = offset + 8 * sum(math.prod(shape) for shape in shapes) + _CKPT_DIGEST
    if len(blob) != expected_len:
        kind = "truncated payload" if len(blob) < expected_len else "trailing bytes"
        raise CheckpointError(f"{path}: {kind} ({len(blob)} bytes, expected {expected_len})")
    if hashlib.sha256(blob[:-_CKPT_DIGEST]).digest() != blob[-_CKPT_DIGEST:]:
        raise CheckpointError(f"{path}: checksum mismatch")
    if config_hash != expected_config_hash:     # only an intact file names another config
        raise CheckpointError(
            f"{path}: config hash mismatch "
            f"(checkpoint {config_hash}, expected {expected_config_hash})"
        )
    reg = ParameterRegistry()
    for pid, shape, partition in zip(ids, shapes, partitions):
        n = math.prod(shape)
        buf = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
        reg.add(pid, buf.astype(np.float64), partition)
        offset += 8 * n
    return reg


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
