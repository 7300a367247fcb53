"""Dense tensors with reverse-mode automatic differentiation on numpy arrays.

Two float modes: float64 for tests and gradient checks, float32 for training
throughput. Inputs are stated, never converted:

- ``Tensor`` wraps a float32 or float64 ndarray; anything else is a
  ``TypeError``. Parameters and inputs carry their dtype from the caller.
- Ops take ``Tensor`` operands; ``add`` and ``mul`` also take a python scalar
  as their second operand, a constant of the first operand's dtype.
- One broadcasting rule: in ``add`` and ``mul`` the second operand may
  broadcast to the first operand's shape by numpy rules, and the result
  always has the first operand's shape. ``masked_fill`` takes a bool mask
  that broadcasts to its input by the same rule. ``broadcast_to`` states any
  other expansion; all other shape adaptation is explicit
  (reshape/transpose/concat), which keeps every backward rule auditable.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NumericError",
    "set_debug_checks",
    "no_grad",
    "param",
    "add",
    "neg",
    "mul",
    "matmul",
    "broadcast_to",
    "concat",
    "slice_axis",
    "reshape",
    "transpose",
    "tanh",
    "relu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "reduce_sum",
    "embedding_lookup",
    "masked_fill",
    "gather_rows",
    "gather_last",
    "conv2d",
]


class ShapeError(ValueError):
    """Operands do not conform; message names the op and offending dims."""


class NumericError(ArithmeticError):
    """Non-finite values where the op's domain requires finite input."""


_debug_checks = False
_grad_enabled = True


class no_grad:
    """Context manager that skips graph construction (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


def set_debug_checks(enabled: bool) -> None:
    """Enable NaN/Inf verification after every forward op (slow; for tests)."""
    global _debug_checks
    _debug_checks = bool(enabled)


class Tensor:
    """A dense array plus the tape node that produced it.

    Graph edges live in ``_parents``; ``_backward`` reads ``self.grad`` and
    accumulates into each parent's ``grad``. Backward walks exact reverse
    topological order, so fan-out gradients add.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, op="leaf", name=None):
        if not isinstance(data, np.ndarray) or data.dtype not in (np.float32, np.float64):
            raise TypeError("Tensor wraps a float32 or float64 ndarray, got "
                            f"{getattr(data, 'dtype', type(data).__name__)}")
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.op = op
        self._parents = ()
        self._backward = None
        self.name = name

    # -- introspection ----------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        tag = self.name or self.op
        return f"Tensor({tag}, shape={self.data.shape}, dtype={self.data.dtype.name})"

    # -- autodiff ----------------------------------------------------------
    def backward(self, grad=None) -> None:
        """Accumulate gradients of a scalar (or given seed) into leaves."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward: implicit seed needs a scalar output, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"backward: seed shape {grad.shape} != output shape {self.data.shape}"
                )

        order = _toposort(self)
        self.grad = grad if self.grad is None else self.grad + grad
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative DFS post-order, reversed; recursion would overflow on long unrolls."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        nid = id(node)
        if nid in visited:
            continue
        visited.add(nid)
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def param(data, name=None) -> Tensor:
    """Leaf tensor holding learned weights."""
    return Tensor(data, requires_grad=True, op="param", name=name)


# -- op plumbing -------------------------------------------------------------


def _accum(t: Tensor, g: np.ndarray) -> None:
    # accumulation always allocates a fresh array, so sharing g is safe
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if isinstance(g, np.ndarray) else np.asarray(g)
    else:
        t.grad = t.grad + g


def _make(data: np.ndarray, parents: tuple[Tensor, ...], op: str, backward=None) -> Tensor:
    """The one builder of op outputs; an op's own array needs no re-checking."""
    if _debug_checks and not np.all(np.isfinite(data)):
        raise NumericError(f"{op}: non-finite values in forward output")
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.op, out.name = data, None, op, None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out._parents, out._backward = (parents, backward) if out.requires_grad else ((), None)
    return out


def _check_same_dtype(op: str, *ts: Tensor) -> None:
    dts = {t.data.dtype for t in ts}
    if len(dts) > 1:
        raise ShapeError(f"{op}: mixed dtypes {sorted(str(d) for d in dts)}; convert explicitly")


# -- arithmetic ---------------------------------------------------------------


def _operand(op: str, a: Tensor, b) -> tuple[Tensor, tuple[Tensor, ...]]:
    """``b`` as a Tensor that broadcasts to ``a``'s shape, and the op's parents.

    A python scalar becomes a constant of ``a``'s dtype and is no graph parent.
    """
    if isinstance(b, (int, float)):
        return Tensor(np.asarray(b, dtype=a.data.dtype)), (a,)
    _check_same_dtype(op, a, b)
    _check_broadcast(op, b.shape, a.shape)
    return b, (a, b)


def _check_broadcast(op: str, shape: tuple, target: tuple) -> None:
    lead = len(target) - len(shape)
    if shape != target and (lead < 0 or any(
            n not in (1, m) for n, m in zip(shape, target[lead:]))):
        raise ShapeError(f"{op}: shape {shape} does not broadcast to {target}")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` over the axes that broadcasting to ``g.shape`` stretched."""
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape) if axes else g


def add(a, b) -> Tensor:
    """Elementwise ``a + b``; ``b`` may broadcast to ``a``'s shape."""
    b, parents = _operand("add", a, b)

    def backward(g):
        _accum(a, g)
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, parents, "add", backward)


def neg(a) -> Tensor:
    def backward(g):
        _accum(a, -g)

    return _make(-a.data, (a,), "neg", backward)


def mul(a, b) -> Tensor:
    """Elementwise ``a * b``; ``b`` may broadcast to ``a``'s shape."""
    b, parents = _operand("mul", a, b)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, parents, "mul", backward)


def broadcast_to(a, shape) -> Tensor:
    """``a`` expanded to ``shape`` by numpy broadcasting (a read-only view)."""
    shape = tuple(shape)
    try:
        data = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast_to: {a.shape} does not broadcast to {shape}") from None

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))

    return _make(data, (a,), "broadcast_to", backward)


def matmul(a, b) -> Tensor:
    """Matrix product.

    Either both operands share identical leading dims, or ``b`` is a 2-D
    weight applied to the trailing axis of a (possibly batched) ``a``.
    """
    _check_same_dtype("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: need >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    weight_case = b.ndim == 2 and a.ndim > 2
    if not weight_case and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading dims differ, {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if not b.requires_grad:
            return
        if weight_case:
            k = a.shape[-1]
            n = b.shape[-1]
            _accum(b, np.matmul(a.data.reshape(-1, k).T, g.reshape(-1, n)))
        else:
            _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _make(data, (a, b), "matmul", backward)


# -- structure ----------------------------------------------------------------


def concat(tensors, axis: int) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat: empty input list")
    _check_same_dtype("concat", *ts)
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _make(data, tuple(ts), "concat", backward)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    n = a.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"slice_axis: [{start}:{stop}] out of range for dim {n} (axis {axis})")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum(a, full)

    return _make(a.data[idx], (a,), "slice_axis", backward)


def reshape(a, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None

    def backward(g):
        _accum(a, g.reshape(a.shape))

    return _make(data, (a,), "reshape", backward)


def transpose(a, axes) -> Tensor:
    axes = tuple(axes)
    inv = np.argsort(axes)

    def backward(g):
        _accum(a, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), "transpose", backward)


# -- pointwise nonlinearities -------------------------------------------------


def tanh(a) -> Tensor:
    y = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - y * y))

    return _make(y, (a,), "tanh", backward)


def relu(a) -> Tensor:
    y = np.maximum(a.data, 0.0)

    def backward(g):
        _accum(a, g * (a.data > 0.0))

    return _make(y, (a,), "relu", backward)


def sigmoid(a) -> Tensor:
    y = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                 np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
    y = y.astype(a.data.dtype)

    def backward(g):
        _accum(a, g * y * (1.0 - y))

    return _make(y, (a,), "sigmoid", backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Max-subtracted softmax; masked_fill(-1e9) entries get ~0 probability."""
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax: non-finite input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - dot))

    return _make(y, (a,), "softmax", backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    """Fused, stable log-softmax."""
    if not np.all(np.isfinite(a.data)):
        raise NumericError("log_softmax: non-finite input")
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    sm = np.exp(y)

    def backward(g):
        gsum = g.sum(axis=axis, keepdims=True)
        _accum(a, g - sm * gsum)

    return _make(y, (a,), "log_softmax", backward)


# -- reductions ---------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape, axis, keepdims) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def reduce_sum(a, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        _accum(a, _expand_reduced(g, a.shape, axis, keepdims).astype(a.data.dtype))

    return _make(data, (a,), "reduce_sum", backward)


# -- indexing -----------------------------------------------------------------


def embedding_lookup(table, ids) -> Tensor:
    """Rows of ``table`` (V, D) selected by an integer array of any shape."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"embedding_lookup: ids must be integers, got {ids.dtype}")
    if table.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding_lookup: id out of range [0, {table.shape[0]}): "
            f"[{ids.min()}, {ids.max()}]"
        )
    data = table.data[ids]

    def backward(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        _accum(table, dt)

    return _make(data, (table,), "embedding_lookup", backward)


def masked_fill(a, fill: np.ndarray, value: float) -> Tensor:
    """``value`` where the bool ``fill`` is True, ``a`` elsewhere.

    ``fill`` broadcasts to ``a``'s shape like ``b`` in ``add``/``mul``; filled
    entries pass no gradient.
    """
    if fill.dtype != bool:
        raise ShapeError(f"masked_fill: mask must be bool, got {fill.dtype}")
    _check_broadcast("masked_fill", fill.shape, a.shape)
    data = np.where(fill, a.data.dtype.type(value), a.data)

    def backward(g):
        _accum(a, g * ~fill)

    return _make(data, (a,), "masked_fill", backward)


def gather_rows(a, ids) -> Tensor:
    """Select per-batch rows: a (B, N, D) gathered with ids (B,) or (B, S)."""
    ids = np.asarray(ids)
    if a.ndim != 3:
        raise ShapeError(f"gather_rows: need (B, N, D) input, got {a.shape}")
    squeeze = ids.ndim == 1
    idx = ids[:, None] if squeeze else ids
    if idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"gather_rows: ids shape {ids.shape} vs data {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise ShapeError(f"gather_rows: index out of range [0, {a.shape[1]})")
    bidx = np.arange(a.shape[0])[:, None]
    data = a.data[bidx, idx]
    if squeeze:
        data = data[:, 0]

    def backward(g):
        da = np.zeros_like(a.data)
        gg = g[:, None, :] if squeeze else g
        np.add.at(da, (bidx, idx), gg)
        _accum(a, da)

    return _make(data, (a,), "gather_rows", backward)


def gather_last(a, ids) -> Tensor:
    """Pick one entry along the last axis: a (..., V) with ids (...)."""
    ids = np.asarray(ids)
    if ids.shape != a.shape[:-1]:
        raise ShapeError(f"gather_last: ids shape {ids.shape} vs data {a.shape}")
    v = a.shape[-1]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise ShapeError(f"gather_last: index out of range [0, {v})")
    flat = a.data.reshape(-1, v)
    fids = ids.reshape(-1)
    rows = np.arange(flat.shape[0])
    data = flat[rows, fids].reshape(ids.shape)

    def backward(g):
        da = np.zeros_like(flat)
        da[rows, fids] = g.reshape(-1)
        _accum(a, da.reshape(a.shape))

    return _make(data, (a,), "gather_last", backward)


# -- convolution --------------------------------------------------------------


def conv2d(x, w, stride: int = 1) -> Tensor:
    """Valid 2-D convolution, NHWC layout: x (B,H,W,Cin), w (kh,kw,Cin,Cout)."""
    _check_same_dtype("conv2d", x, w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: need x (B,H,W,C) and w (kh,kw,Cin,Cout), got {x.shape}, {w.shape}")
    b, h, wd, cin = x.shape
    kh, kw, wcin, cout = w.shape
    if cin != wcin:
        raise ShapeError(f"conv2d: channel mismatch, input {cin} vs kernel {wcin}")
    if h < kh or wd < kw:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than input {h}x{wd}")
    s = int(stride)
    oh = (h - kh) // s + 1
    ow = (wd - kw) // s + 1
    taps = [(i, j) for i in range(kh) for j in range(kw)]

    def window(i, j):
        return slice(None), slice(i, i + s * oh, s), slice(j, j + s * ow, s)

    out = np.zeros((b, oh, ow, cout), dtype=x.data.dtype)
    for i, j in taps:
        out += np.matmul(x.data[window(i, j)], w.data[i, j])

    def backward(g):
        if w.requires_grad:
            dw = np.zeros_like(w.data)
            g2 = g.reshape(-1, cout)
            for i, j in taps:
                dw[i, j] = x.data[window(i, j)].reshape(-1, cin).T @ g2
            _accum(w, dw)
        if x.requires_grad:     # the raw spatial input needs no gradient
            dx = np.zeros_like(x.data)
            for i, j in taps:
                dx[window(i, j)] += np.matmul(g, w.data[i, j].T)
            _accum(x, dx)

    return _make(out, (x, w), "conv2d", backward)
