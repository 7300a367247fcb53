"""Behavior cloning: head-masked cross-entropy over teacher-forced windows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..net import ObsBatch, PolicyNet
from ..tensor import Adam, NumericError, Tensor
from .dataset import Window


@dataclass
class BCConfig:
    lr: float = 1e-3
    lr_decay_step: int = 1500        # 10x decay past this step
    lr_decay_factor: float = 0.1
    betas: tuple[float, float] = (0.9, 0.999)
    max_grad_norm: float = 10.0
    window: int = 16
    batch_windows: int = 16


def window_forward(net: PolicyNet, windows: list[Window]):
    """Teacher-forced unroll over a batch of windows (time-major rows)."""
    b = len(windows)
    t = len(windows[0].observations)
    obs, zs, forced = [], [], []
    for step in range(t):
        for w in windows:
            obs.append(w.observations[step])
            zs.append(w.z)
            forced.append(w.actions[step])
    batch = ObsBatch(obs, zs)
    h0 = np.stack([w.h0 if w.h0 is not None else
                   np.zeros(net.cfg.lstm_width, dtype=net.dtype) for w in windows])
    c0 = np.stack([w.c0 if w.c0 is not None else
                   np.zeros(net.cfg.lstm_width, dtype=net.dtype) for w in windows])
    out = net.unroll(batch, b, t, (h0, c0), forced)
    step_mask = np.concatenate([
        np.stack([w.step_mask[step] for w in windows]) for step in range(t)
    ]).astype(net.dtype)
    return out, step_mask


def bc_loss(net: PolicyNet, windows: list[Window]):
    """Mean (over real timesteps) of the negated joint teacher logprob.

    The summed form equals -sum of joint logprobs over a whole trajectory,
    which is the teacher-forcing consistency contract. Each head's CE is the
    mean over the real rows whose action uses that head.
    """
    out, step_mask = window_forward(net, windows)
    masked = T.mul(out.joint_logprob, Tensor(step_mask))
    total = T.neg(T.reduce_sum(masked))
    count = float(step_mask.sum())
    loss = T.mul(total, 1.0 / max(count, 1.0))
    head_rows = {}
    for name, _, _, used in out.choices:
        head_rows[name] = head_rows.get(name, False) | used
    per_head = {}
    for name, lp in out.head_logprobs.items():
        used = head_rows[name] & (step_mask > 0)
        n_used = max(int(used.sum()), 1)
        per_head[name] = float(-(lp.data * used).sum() / n_used)
    return loss, total, per_head, count


class BCTrainer:
    def __init__(self, net: PolicyNet, cfg: BCConfig | None = None):
        self.net = net
        self.cfg = cfg or BCConfig()
        self.step_count = 0
        self.opt = Adam(net.parameters(), lr=self.current_lr(), betas=self.cfg.betas)

    def current_lr(self) -> float:
        if self.step_count >= self.cfg.lr_decay_step:
            return self.cfg.lr * self.cfg.lr_decay_factor
        return self.cfg.lr

    def train_step(self, windows: list[Window]) -> dict:
        self.opt.lr = self.current_lr()
        self.opt.zero_grad()
        loss, total, per_head, count = bc_loss(self.net, windows)
        if not np.isfinite(loss.data).all():
            raise NumericError(
                f"bc step {self.step_count}: non-finite loss "
                f"(per-head {per_head}, {len(windows)} windows, {count} steps)")
        loss.backward()
        norm = self.opt.step(max_grad_norm=self.cfg.max_grad_norm)
        self.step_count += 1
        metrics = {"step": self.step_count, "loss": float(loss.data),
                   "loss_sum": float(total.data), "timesteps": count,
                   "grad_norm": norm, "lr": self.opt.lr}
        for name, ce in per_head.items():
            metrics[f"ce_{name}"] = ce
        return metrics


def teacher_agreement(net: PolicyNet, windows: list[Window]) -> dict:
    """Per-head top-1 agreement with the teacher on the given windows.

    The context is teacher-forced, so every compared decision is made from
    the exact state the teacher saw. A head is scored on the real rows whose
    action uses it, the selected-units head on every autoregressive slot
    including the stop choice. Returns {head: (agreement, decisions)}.
    """
    with T.no_grad():
        out, step_mask = window_forward(net, windows)
    real = step_mask > 0
    hits = {name: [0, 0] for name in out.head_logprobs}
    for name, logp, ids, used in out.choices:
        rows = real & used
        hits[name][0] += int((logp.data.argmax(axis=1) == ids)[rows].sum())
        hits[name][1] += int(rows.sum())
    return {k: (h / n if n else float("nan"), n) for k, (h, n) in hits.items()}
