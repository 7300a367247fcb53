"""Reusable network blocks: projections, masked attention, group transformer,
attention-based pooling."""

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

    def matrix(self, name: str, fan_in: int, fan_out: int, scale: float | None = None) -> Tensor:
        s = scale if scale is not None else 1.0 / np.sqrt(fan_in)
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


def split_heads(x: Tensor, heads: int, head_size: int) -> Tensor:
    """(B, N, H*D) -> (B, H, N, D)."""
    b, n, _ = x.shape
    return T.transpose(T.reshape(x, (b, n, heads, head_size)), (0, 2, 1, 3))


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, N, D) -> (B, N, H*D)."""
    b, h, n, d = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), (b, n, h * d))


def masked_attention(q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray) -> Tensor:
    """Multi-head scaled dot-product attention over masked key slots.

    q (B,H,Nq,D), k/v (B,H,Nk,D), key_mask (B,Nk) in {0,1}. Invalid keys get
    zero attention weight; if a sample has no valid key at all its output is
    zeroed outright (the explicit empty-group guard).
    """
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(q.shape[3]))
    scores = T.masked_fill(scores, (key_mask == 0)[:, None, None, :], -1e9)
    weights = T.softmax(scores, axis=-1)
    out = T.matmul(weights, v)
    has_valid = (key_mask.sum(axis=1) > 0).astype(out.dtype)
    return T.mul(out, Tensor(has_valid[:, None, None, None]))


class AttentionBlock:
    """Projections for one multi-head attention (queries vs one key group)."""

    def __init__(self, store: ParamStore, name: str, d_model: int, heads: int, head_size: int):
        w = heads * head_size
        self.heads, self.head_size = heads, head_size
        self.wq = store.matrix(f"{name}.wq", d_model, w)
        self.wk = store.matrix(f"{name}.wk", d_model, w)
        self.wv = store.matrix(f"{name}.wv", d_model, w)

    def __call__(self, x_q: Tensor, x_kv: Tensor, key_mask: np.ndarray) -> Tensor:
        q = split_heads(T.matmul(x_q, self.wq), self.heads, self.head_size)
        k = split_heads(T.matmul(x_kv, self.wk), self.heads, self.head_size)
        v = split_heads(T.matmul(x_kv, self.wv), self.heads, self.head_size)
        return merge_heads(masked_attention(q, k, v, key_mask))


class GroupTransformer:
    """Per group and layer: self-attention plus cross-attention to the other
    two groups, outputs concatenated, then a position-wise feedforward.

    Each layer is residual (x + ffn(attn)); without the identity path the
    near-uniform attention at initialization collapses every unit's feature
    to the group mean and the pointer heads downstream get zero signal."""

    def __init__(self, store: ParamStore, cfg):
        self.cfg = cfg
        self.layers = []
        for layer in range(cfg.transformer_layers):
            per_group = []
            for g in range(3):
                others = [o for o in range(3) if o != g]
                blocks = {
                    g: AttentionBlock(store, f"gt.l{layer}.g{g}.self",
                                      cfg.d_model, cfg.attn_heads, cfg.head_size)
                }
                for o in others:
                    blocks[o] = AttentionBlock(store, f"gt.l{layer}.g{g}.cross{o}",
                                               cfg.d_model, cfg.attn_heads, cfg.head_size)
                ffn = MLP(store, f"gt.l{layer}.g{g}.ffn",
                          3 * cfg.attn_width, cfg.ff_width, cfg.d_model)
                per_group.append((blocks, ffn))
            self.layers.append(per_group)

    def __call__(self, feats: list[Tensor], masks: list[np.ndarray]) -> list[Tensor]:
        for per_group in self.layers:
            new_feats = []
            for g, (blocks, ffn) in enumerate(per_group):
                parts = [blocks[g](feats[g], feats[g], masks[g])]
                for o in range(3):
                    if o != g:
                        parts.append(blocks[o](feats[g], feats[o], masks[o]))
                x = T.add(feats[g], ffn(T.concat(parts, axis=2)))
                new_feats.append(T.mul(x, Tensor(masks[g][:, :, None].astype(x.dtype))))
            feats = new_feats
        return feats


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
        empty = (mask.sum(axis=1) == 0).astype(mask.dtype)
        full_mask = np.concatenate([mask, empty[:, None]], axis=1)

        k = split_heads(T.matmul(x, self.wk), cfg.attn_heads, cfg.head_size)
        v = split_heads(T.matmul(x, self.wv), cfg.attn_heads, cfg.head_size)
        q = T.broadcast_to(self.queries, (b, cfg.pool_queries, cfg.attn_width))
        q = split_heads(q, cfg.attn_heads, cfg.head_size)
        pooled = masked_attention(q, k, v, full_mask)      # (B, H, nq, D)
        return T.reshape(merge_heads(pooled), (b, cfg.pool_queries * cfg.attn_width))


def conditioned_concat_scores(query: Tensor, key_proj: Tensor, action_emb: Tensor,
                              w_query: Tensor, key_mask: np.ndarray) -> Tensor:
    """score_i = e_a . tanh(W [q; u_i]) with masked keys pushed to -1e9.

    W ((D+K), E) is split by rows into a query half W_q (D, E) and a key half
    W_k (K, E), so W [q; u_i] = q W_q + u_i W_k. The caller projects the keys
    once per decode, key_proj = keys @ W_k (B, N, E), and passes W_q; each call
    projects only its query, broadcast over the N keys. query (B, D),
    action_emb (B, E), key_mask (B, N) bool, True where a key may be chosen.
    """
    b, _, e = key_proj.shape
    hidden = T.tanh(T.add(key_proj, T.reshape(T.matmul(query, w_query), (b, 1, e))))
    scores = T.reduce_sum(T.mul(hidden, T.reshape(action_emb, (b, 1, e))), axis=2)
    return T.masked_fill(scores, ~key_mask, -1e9)
