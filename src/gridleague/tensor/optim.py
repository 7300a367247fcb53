"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np

from .core import NumericError, Tensor


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, max_grad_norm: float | None = None) -> float:
        """Apply one update from accumulated grads; returns global grad norm.

        lr == 0 leaves parameter bytes untouched (update skipped entirely).
        A parameter whose grad is None takes a zero gradient: its moments
        decay and it moves by momentum alone, so an update does not depend on
        whether an op that would give it exact zeros was built. One that has
        never had a gradient keeps its bytes: its moments are zero, so its
        update is exactly 0.

        A non-finite gradient norm raises ``NumericError`` before any
        parameter, moment or the step count changes.
        """
        sq = 0.0
        for p in self.params.values():
            if p.grad is not None:
                sq += float((p.grad.astype(np.float64) ** 2).sum())
        norm = float(np.sqrt(sq))
        if not np.isfinite(norm):
            bad = [k for k, p in self.params.items()
                   if p.grad is not None and not np.isfinite(p.grad).all()]
            raise NumericError(f"adam step {self.t + 1}: gradient norm {norm} "
                               f"(non-finite gradients in {bad})")
        scale = 1.0
        if max_grad_norm is not None and norm > max_grad_norm > 0:
            scale = max_grad_norm / (norm + 1e-12)

        self.t += 1
        if self.lr == 0.0:
            return norm
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif scale != 1.0:
                g = g * scale
            m = self._m[k]
            v = self._v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (self.lr / bc1) * m / (np.sqrt(v / bc2) + self.eps)
            p.data -= update.astype(p.data.dtype)
        return norm
