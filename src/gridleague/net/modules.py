"""Reusable network blocks: projections, group transformer, attention-based
pooling.

Every multi-head attention here is one ``T.attention`` op on projected
queries, keys and values, whose backward replays the primitive steps in
reverse. A transformer block is four autodiff ops: three projections and the
attention.

The group transformer keeps one row set per unit group: the batch rows where
the group holds units, or every row when that is more than half of them. It
takes each group's features to its rows once per call, runs every layer on
them and places the outputs back on all rows at the end. A skipped row loses
nothing: a block whose key group is empty in a row outputs exactly 0 there
(the attention's empty-group guard), and a group empty in a row has all its
features zeroed by the slot-mask multiply, so ``T.place_rows`` puts back the
zeros the full computation would have produced."""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..tensor import Tensor


class ParamStore:
    """Named parameter registry; initialization is uniform(+-1/sqrt(fan_in))."""

    def __init__(self, rng: np.random.Generator, dtype=np.float32):
        self.rng = rng
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}

    def _add(self, name: str, arr: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name}")
        p = T.param(arr.astype(self.dtype), name)
        self.params[name] = p
        return p

    def matrix(self, name: str, fan_in: int, fan_out: int) -> Tensor:
        s = 1.0 / np.sqrt(fan_in)
        return self._add(name, self.rng.uniform(-s, s, (fan_in, fan_out)))

    def bias(self, name: str, dim: int) -> Tensor:
        return self._add(name, np.zeros(dim))

    def table(self, name: str, rows: int, dim: int, scale: float = 0.1) -> Tensor:
        return self._add(name, self.rng.uniform(-scale, scale, (rows, dim)))


class Linear:
    def __init__(self, store: ParamStore, name: str, fan_in: int, fan_out: int):
        self.w = store.matrix(f"{name}.w", fan_in, fan_out)
        self.b = store.bias(f"{name}.b", fan_out)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.w), self.b)


class MLP:
    """Linear -> relu -> Linear."""

    def __init__(self, store: ParamStore, name: str, fan_in: int, hidden: int, fan_out: int):
        self.l1 = Linear(store, f"{name}.l1", fan_in, hidden)
        self.l2 = Linear(store, f"{name}.l2", hidden, fan_out)

    def __call__(self, x: Tensor) -> Tensor:
        return self.l2(T.relu(self.l1(x)))


class AttentionBlock:
    """Projections for one multi-head attention (queries vs one key group)."""

    def __init__(self, store: ParamStore, name: str, d_model: int, heads: int, width: int):
        self.heads = heads
        self.wq = store.matrix(f"{name}.wq", d_model, width)
        self.wk = store.matrix(f"{name}.wk", d_model, width)
        self.wv = store.matrix(f"{name}.wv", d_model, width)

    def __call__(self, x_q: Tensor, x_kv: Tensor, valid: np.ndarray) -> Tensor:
        return T.attention(T.matmul(x_q, self.wq), T.matmul(x_kv, self.wk),
                           T.matmul(x_kv, self.wv), valid, self.heads)


class GroupTransformer:
    """Per group and layer: self-attention plus cross-attention to the other
    two groups, outputs concatenated, then a position-wise feedforward.

    Each layer is residual (x + ffn(attn)); without the identity path the
    near-uniform attention at initialization collapses every unit's feature
    to the group mean and the pointer heads downstream get zero signal.

    Row sets: group g runs on its rows R_g, its feed-forward, residual add
    and slot-mask multiply included. Block (g, o) runs on R_g & R_o: its
    queries are taken from R_g and its output placed back within R_g, its
    keys taken from R_o; a take or place that would keep every row is
    skipped. Where the block does not run, its output is exactly 0 (key
    group empty: the attention's guard) or does not matter (query group
    empty: the slot mask zeroes the whole row, and with it the gradient that
    flows back), so the results equal those of running on every row. A
    block whose rows are none builds no op, and a group empty in every row
    outputs constant zeros.

    The half rule: a self-play forward holds about 30 rows (about 15 when
    ``run_matches`` plays two shards, on a 2-core machine), and the enemy
    group holds units in about 83% of them (the other two groups in all), so
    a gather there saves little. Taking exactly the rows with units ran the
    transformer calls of two self-play units no faster (0.59 s either way,
    20 interleaved replays on a 2-core box) and built row ops for the enemy
    group in about 60% of the forwards, where the half rule builds them in
    about 10%."""

    def __init__(self, store: ParamStore, cfg):
        self.cfg = cfg
        self.layers = []
        for layer in range(cfg.transformer_layers):
            per_group = []
            for g in range(3):
                others = [o for o in range(3) if o != g]
                blocks = {
                    g: AttentionBlock(store, f"gt.l{layer}.g{g}.self",
                                      cfg.d_model, cfg.attn_heads, cfg.attn_width)
                }
                for o in others:
                    blocks[o] = AttentionBlock(store, f"gt.l{layer}.g{g}.cross{o}",
                                               cfg.d_model, cfg.attn_heads, cfg.attn_width)
                ffn = MLP(store, f"gt.l{layer}.g{g}.ffn",
                          3 * cfg.attn_width, cfg.ff_width, cfg.d_model)
                per_group.append((blocks, ffn))
            self.layers.append(per_group)

    def __call__(self, feats: list[Tensor], masks: list[np.ndarray]) -> list[Tensor]:
        """``masks``: one (B, n_g) {0, 1} array per group, in the features' dtype."""
        b = masks[0].shape[0]
        # one row set per group: where it holds units, or every row past half
        keep = [(m != 0).any(axis=1) for m in masks]
        keep = [np.ones(b, dtype=bool) if 2 * np.count_nonzero(k) > b else k for k in keep]
        rows = [np.flatnonzero(k) for k in keep]
        valid = [(m != 0)[r] for m, r in zip(masks, rows)]
        slot_masks = [Tensor(m[r][:, :, None]) for m, r in zip(masks, rows)]
        # a group empty in every row is never read, and outputs zeros
        xs = [f if r.size in (0, b) else T.take_rows(f, r) for f, r in zip(feats, rows)]
        for per_group in self.layers:
            new_xs = []
            for g, (blocks, ffn) in enumerate(per_group):
                n_g = rows[g].size
                if not n_g:
                    new_xs.append(xs[g])
                    continue
                parts = []
                for o in (g, *(o for o in range(3) if o != g)):
                    both = keep[g] & keep[o]
                    n = np.count_nonzero(both)
                    if not n:
                        parts.append(Tensor(np.zeros((n_g, masks[g].shape[1], self.cfg.attn_width),
                                                     xs[g].dtype)))
                        continue
                    q, kv, v = xs[g], xs[o], valid[o]
                    if n < n_g:
                        at_g = np.flatnonzero(both[keep[g]])
                        q = T.take_rows(q, at_g)
                    if n < rows[o].size:
                        at_o = np.flatnonzero(both[keep[o]])
                        kv, v = T.take_rows(kv, at_o), v[at_o]
                    y = blocks[o](q, kv, v)
                    parts.append(y if n == n_g else T.place_rows(y, at_g, n_g))
                new_xs.append(T.mul(T.add(xs[g], ffn(T.concat(parts, axis=2))), slot_masks[g]))
            xs = new_xs
        return [Tensor(np.zeros_like(f.data)) if not r.size
                else x if r.size == b else T.place_rows(x, r, b)
                for f, x, r in zip(feats, xs, rows)]


class AttentionPool:
    """Reduce one group's unit features to a fixed vector with trainable
    query vectors; a learned null row stands in when the group is empty."""

    def __init__(self, store: ParamStore, name: str, cfg):
        self.cfg = cfg
        w = cfg.attn_width
        self.queries = store.table(f"{name}.queries", cfg.pool_queries, w, scale=0.5)
        self.wk = store.matrix(f"{name}.wk", cfg.d_model, w)
        self.wv = store.matrix(f"{name}.wv", cfg.d_model, w)
        self.null_row = store.table(f"{name}.null", 1, cfg.d_model, scale=0.5)

    def __call__(self, feats: Tensor, mask: np.ndarray) -> Tensor:
        b, n, _ = feats.shape
        cfg = self.cfg
        null = T.broadcast_to(self.null_row, (b, 1, cfg.d_model))
        x = T.concat([feats, null], axis=1)
        # the null key only becomes attendable when every real slot is masked
        real = mask != 0
        valid = np.concatenate([real, ~real.any(axis=1, keepdims=True)], axis=1)
        q = T.broadcast_to(self.queries, (b, cfg.pool_queries, cfg.attn_width))
        pooled = T.attention(q, T.matmul(x, self.wk), T.matmul(x, self.wv), valid,
                             cfg.attn_heads)
        return T.reshape(pooled, (b, cfg.pool_queries * cfg.attn_width))


def conditioned_concat_scores(query: Tensor, key_proj: Tensor, action_emb: Tensor,
                              w_query: Tensor) -> Tensor:
    """score_i = e_a . tanh(W [q; u_i]), unmasked; the caller masks the keys.

    W ((D+K), E) is split by rows into a query half W_q (D, E) and a key half
    W_k (K, E), so W [q; u_i] = q W_q + u_i W_k. The caller projects the keys
    once per decode, key_proj = keys @ W_k (B, N, E), and passes W_q; each call
    projects only its query, broadcast over the N keys. query (B, D),
    action_emb (B, E).
    """
    b, _, e = key_proj.shape
    hidden = T.tanh(T.add(key_proj, T.reshape(T.matmul(query, w_query), (b, 1, e))))
    return T.reduce_sum(T.mul(hidden, T.reshape(action_emb, (b, 1, e))), axis=2)
