"""LSTM cell and the residual wrapper used as the network core."""

from __future__ import annotations

import numpy as np

from . import core as T
from .core import ShapeError, Tensor


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, wx: Tensor, wh: Tensor, b: Tensor):
    """One step of a standard LSTM.

    x (B, I), h/c (B, H); wx (I, 4H), wh (H, 4H), b (4H) with gate order
    input, forget, cell, output. Returns (h', c').
    """
    hidden = h.shape[-1]
    if wx.shape[-1] != 4 * hidden or wh.shape != (hidden, 4 * hidden) or b.shape != (4 * hidden,):
        raise ShapeError(
            f"lstm_cell: inconsistent weights for hidden={hidden}: "
            f"wx {wx.shape}, wh {wh.shape}, b {b.shape}"
        )
    if x.shape[0] != h.shape[0] or h.shape != c.shape:
        raise ShapeError(f"lstm_cell: batch/state mismatch x {x.shape}, h {h.shape}, c {c.shape}")
    gates = T.add(T.add(T.matmul(x, wx), T.matmul(h, wh)), b)
    i = T.sigmoid(T.slice_axis(gates, 1, 0, hidden))
    f = T.sigmoid(T.slice_axis(gates, 1, hidden, 2 * hidden))
    g = T.tanh(T.slice_axis(gates, 1, 2 * hidden, 3 * hidden))
    o = T.sigmoid(T.slice_axis(gates, 1, 3 * hidden, 4 * hidden))
    c_new = T.add(T.mul(f, c), T.mul(i, g))
    h_new = T.mul(o, T.tanh(c_new))
    return h_new, c_new


class ResidualLSTM:
    """LSTM block whose output adds a linear projection of the block input."""

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator, dtype):
        self.input_dim = input_dim
        self.hidden = hidden
        sx = 1.0 / np.sqrt(input_dim)
        sh = 1.0 / np.sqrt(hidden)
        self.wx = T.param(rng.uniform(-sx, sx, (input_dim, 4 * hidden)).astype(dtype), "lstm.wx")
        self.wh = T.param(rng.uniform(-sh, sh, (hidden, 4 * hidden)).astype(dtype), "lstm.wh")
        self.b = T.param(np.zeros(4 * hidden, dtype=dtype), "lstm.b")
        self.w_proj = T.param(rng.uniform(-sx, sx, (input_dim, hidden)).astype(dtype), "lstm.w_proj")

    def parameters(self) -> dict[str, Tensor]:
        return {"wx": self.wx, "wh": self.wh, "b": self.b, "w_proj": self.w_proj}

    def initial_state(self, batch: int):
        z = np.zeros((batch, self.hidden), dtype=self.wx.data.dtype)
        return Tensor(z), Tensor(z.copy())

    def step(self, x: Tensor, state):
        h, c = state
        h_new, c_new = lstm_cell(x, h, c, self.wx, self.wh, self.b)
        out = T.add(h_new, T.matmul(x, self.w_proj))
        return out, (h_new, c_new)
