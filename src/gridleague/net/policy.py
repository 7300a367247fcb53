"""Policy/value network: encoders -> aggregator -> residual LSTM -> six-head
auto-regressive decoder with a vector-valued value head sharing the trunk.

Head order: selected_action first; delay and queued condition only on the
selected action (their mutual order is immaterial); selected_units is a
pointer network with conditioned concat-attention and a stop token;
target_unit scores all groups' features, additionally conditioned on the
pooled selected-units embedding; target_position is an MLP over the conv
skip features. Conditioning is always concat + fully connected, never
additive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..env import constants as C
from ..env.types import StructuredAction
from ..tensor import ResidualLSTM, Tensor
from .batch import ObsBatch
from .config import NetConfig
from .modules import (
    AttentionPool,
    GroupTransformer,
    Linear,
    MLP,
    ParamStore,
    conditioned_concat_scores,
)


def _usage_tables() -> dict[str, np.ndarray]:
    tables = {}
    for head in C.HEAD_NAMES:
        tables[head] = np.array([head in C.HEAD_USAGE[a] for a in range(C.N_ACTIONS)])
    return tables


_USAGE = _usage_tables()


N_DECISION_DRAWS = 5 + C.MAX_SELECTED   # action, delay, queued, slots..., target, pos


def _choose(logp: np.ndarray, mode: str, forced: np.ndarray | None,
            u: np.ndarray | None) -> np.ndarray:
    if mode == "teacher":
        return forced
    if mode == "argmax":
        return logp.argmax(axis=1)
    p = np.exp(logp.astype(np.float64))
    p /= p.sum(axis=1, keepdims=True)
    cum = p.cumsum(axis=1)
    # rounding can leave the total at or below u; such a draw goes to the last
    # index with positive probability (argmax of an all-False row is index 0)
    last = p.shape[1] - 1 - (p[:, ::-1] > 0).argmax(axis=1)
    return np.where(cum[:, -1] > u, (cum > u[:, None]).argmax(axis=1), last)


@dataclass
class StepOutput:
    actions: list[StructuredAction]
    action_ids: np.ndarray
    joint_logprob: Tensor                  # (N,)
    head_logprobs: dict[str, Tensor]
    values: Tensor                         # (N, value_channels)
    state: tuple[Tensor, Tensor]
    dists: dict | None = None


class PolicyNet:
    def __init__(self, cfg: NetConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        store = ParamStore(rng, dtype=dtype)
        d = cfg.d_model

        self.scalar_enc = MLP(store, "scalar_enc", cfg.scalar_dim, d, d)
        self.conv1_w = store._add("spatial.conv1.w", rng.uniform(
            -0.2, 0.2, (3, 3, cfg.spatial_channels, cfg.conv1_channels)))
        self.conv1_b = store.bias("spatial.conv1.b", cfg.conv1_channels)
        self.conv2_w = store._add("spatial.conv2.w", rng.uniform(
            -0.2, 0.2, (3, 3, cfg.conv1_channels, cfg.conv2_channels)))
        self.conv2_b = store.bias("spatial.conv2.b", cfg.conv2_channels)
        self.spatial_lin = Linear(store, "spatial.lin", cfg.spatial_skip_dim, d)

        self.type_table = store.table("units.type_emb", cfg.type_vocab, cfg.type_emb)
        self.owner_table = store.table("units.owner_emb", 3, cfg.owner_emb)
        unit_in = cfg.type_emb + cfg.owner_emb + cfg.cont_feats
        self.unit_lin = Linear(store, "units.lin", unit_in, d)

        self.transformer = GroupTransformer(store, cfg)
        self.pools = [AttentionPool(store, f"pool.g{g}", cfg) for g in range(3)]

        self.core = ResidualLSTM(cfg.core_input_dim, cfg.lstm_width, rng, dtype=dtype)
        for k, v in self.core.parameters().items():
            store.params[f"core.{k}"] = v

        w = cfg.lstm_width
        e = cfg.action_emb
        self.action_emb = store.table("dec.action_emb", cfg.n_actions, e, scale=0.5)
        self.action_head = Linear(store, "dec.action", w, cfg.n_actions)
        self.delay_head = MLP(store, "dec.delay", w + e, d, cfg.delay_vocab)
        self.queued_head = MLP(store, "dec.queued", w + e, d, 2)
        self.su_query = Linear(store, "dec.su.query", w + e + d, d)
        self.su_w = store.matrix("dec.su.w", 2 * d, e)
        self.su_stop = store.table("dec.su.stop", 1, d, scale=0.5)
        self.tu_query = Linear(store, "dec.tu.query", w + e + d, d)
        self.tu_w = store.matrix("dec.tu.w", 2 * d, e)
        pos_in = w + e + d + cfg.spatial_skip_dim
        self.pos_head = MLP(store, "dec.pos", pos_in, cfg.pos_hidden, cfg.grid * cfg.grid)
        self.value_head = MLP(store, "dec.value", w, d, cfg.value_channels)

        self.params = store.params
        self.arch_hash = cfg.arch_hash()

    # ------------------------------------------------------------- parameters

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def value_parameters(self) -> dict[str, Tensor]:
        """The value branch: everything below the LSTM output stays shared."""
        return {k: v for k, v in self.params.items() if k.startswith("dec.value")}

    def policy_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if not k.startswith("dec.value")}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(arrays)
        extra = set(arrays) - set(self.params)
        if missing or extra:
            raise ValueError(f"parameter set mismatch: missing {sorted(missing)[:3]}, "
                             f"extra {sorted(extra)[:3]}")
        for k, p in self.params.items():
            if arrays[k].shape != p.data.shape:
                raise ValueError(f"{k}: shape {arrays[k].shape} != {p.data.shape}")
            p.data = arrays[k].astype(p.data.dtype)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: p.data.copy() for k, p in self.params.items()}

    def initial_state(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        z = np.zeros((batch, self.cfg.lstm_width), dtype=self.dtype)
        return z.copy(), z.copy()

    # -------------------------------------------------------------- encoders

    def encode_scalar(self, scalar: np.ndarray) -> Tensor:
        if scalar.shape[-1] != self.cfg.scalar_dim:
            raise T.ShapeError(f"encode_scalar: expected width {self.cfg.scalar_dim}, "
                               f"got {scalar.shape[-1]}")
        return self.scalar_enc(Tensor(scalar.astype(self.dtype)))

    def encode_spatial(self, spatial: np.ndarray) -> tuple[Tensor, Tensor]:
        """Returns (encoded vector, flattened conv skip features)."""
        x = Tensor(spatial.astype(self.dtype))
        h = T.relu(T.add(T.conv2d(x, self.conv1_w, stride=2), self.conv1_b))
        h = T.relu(T.add(T.conv2d(h, self.conv2_w, stride=2), self.conv2_b))
        skip = T.reshape(h, (spatial.shape[0], self.cfg.spatial_skip_dim))
        return self.spatial_lin(skip), skip

    def encode_units(self, batch: ObsBatch) -> tuple[list[Tensor], list[np.ndarray]]:
        feats = []
        for g in range(3):
            te = T.embedding_lookup(self.type_table, batch.unit_type[g])
            oe = T.embedding_lookup(self.owner_table,
                                    np.full_like(batch.unit_type[g], g))
            cont = Tensor(batch.unit_cont[g].astype(self.dtype))
            x = T.relu(self.unit_lin(T.concat([te, oe, cont], axis=2)))
            feats.append(x)
        return self.transformer(feats, batch.unit_mask), batch.unit_mask

    def encode(self, batch: ObsBatch):
        scalar_vec = self.encode_scalar(batch.scalar)
        spatial_vec, skip = self.encode_spatial(batch.spatial)
        group_feats, masks = self.encode_units(batch)
        pooled = [self.pools[g](group_feats[g], masks[g]) for g in range(3)]
        enc = T.concat([scalar_vec, spatial_vec] + pooled, axis=1)
        return enc, group_feats, skip

    # ---------------------------------------------------------------- decoder

    def decode(self, core_out: Tensor, group_feats: list[Tensor], skip: Tensor,
               batch: ObsBatch, mode: str,
               forced: list[StructuredAction] | None = None,
               rng: np.random.Generator | None = None,
               need_dists: bool = False,
               uniforms: np.ndarray | None = None) -> StepOutput:
        """Run the six heads; ``uniforms`` (N, N_DECISION_DRAWS) makes sampled
        choices independent of batch composition (each row has its own draws)."""
        if mode not in ("sample", "argmax", "teacher"):
            raise ValueError(f"unknown decode mode {mode!r}")
        if mode == "teacher" and forced is None:
            raise ValueError("teacher mode needs forced actions")
        cfg = self.cfg
        n = core_out.shape[0]
        if mode == "sample":
            if uniforms is None:
                if rng is None:
                    raise ValueError("sample mode needs an rng or uniforms")
                uniforms = rng.random((n, N_DECISION_DRAWS))
            elif uniforms.shape != (n, N_DECISION_DRAWS):
                raise ValueError(f"uniforms must be ({n}, {N_DECISION_DRAWS})")
        else:
            uniforms = np.zeros((n, N_DECISION_DRAWS))
        if not batch.action_mask.any(axis=1).all():
            raise ValueError("decode: an observation offers no legal action")

        dists: dict = {}

        # selected action
        logits_a = self.action_head(core_out)
        logits_a = T.masked_fill(logits_a, (~batch.action_mask).astype(np.float64), -1e9)
        logp_a = T.log_softmax(logits_a, axis=1)
        forced_a = np.array([a.action_id for a in forced]) if forced else None
        ids = _choose(logp_a.data, mode, forced_a, uniforms[:, 0])
        lp_action = T.gather_last(logp_a, ids)
        e_a = T.embedding_lookup(self.action_emb, ids)
        cond = T.concat([core_out, e_a], axis=1)
        if need_dists:
            dists["action"] = (logp_a, batch.action_mask)

        head_lp: dict[str, Tensor] = {"action": lp_action}

        # delay (1..16; head index is delay-1)
        logits_d = self.delay_head(cond)
        logp_d = T.log_softmax(logits_d, axis=1)
        forced_d = np.array([a.delay - 1 for a in forced]) if forced else None
        delay_ids = _choose(logp_d.data, mode, forced_d, uniforms[:, 1])
        used_d = _USAGE[C.HEAD_DELAY][ids].astype(self.dtype)
        lp_delay = T.mul(T.gather_last(logp_d, delay_ids), Tensor(used_d))
        head_lp["delay"] = lp_delay
        if need_dists:
            dists["delay"] = (logp_d, None)

        # queued
        logits_q = self.queued_head(cond)
        logp_q = T.log_softmax(logits_q, axis=1)
        forced_q = np.array([a.queued for a in forced]) if forced else None
        queued_ids = _choose(logp_q.data, mode, forced_q, uniforms[:, 2])
        used_q = _USAGE[C.HEAD_QUEUED][ids].astype(self.dtype)
        lp_queued = T.mul(T.gather_last(logp_q, queued_ids), Tensor(used_q))
        head_lp["queued"] = lp_queued
        if need_dists:
            dists["queued"] = (logp_q, None)

        # selected units: autoregressive pointer with stop token
        n0 = batch.group_n[0]
        my_feats = group_feats[0]
        stop_key = T.reshape(self.su_stop, (1, 1, cfg.d_model))
        stop_key = T.concat([stop_key] * n, axis=0) if n > 1 else stop_key
        keys = T.concat([my_feats, stop_key], axis=1)           # (N, n0+1, d)
        used_su = _USAGE[C.HEAD_SELECTED_UNITS][ids]
        sel_allowed = batch.select_mask[np.arange(n), ids].copy()  # (N, n0)
        active = used_su.copy()
        chosen = np.zeros((n, n0), dtype=bool)
        selections: list[list[int]] = [[] for _ in range(n)]
        sum_emb = Tensor(np.zeros((n, cfg.d_model), dtype=self.dtype))
        counts = np.zeros(n)
        lp_su = Tensor(np.zeros(n, dtype=self.dtype))
        su_dists = []
        for s in range(cfg.max_select):
            if not active.any():
                break
            scale = (1.0 / np.maximum(counts, 1.0))[:, None]
            prefix = T.mul(sum_emb, Tensor(np.broadcast_to(
                scale, (n, cfg.d_model)).astype(self.dtype).copy()))
            q = T.relu(self.su_query(T.concat([cond, prefix], axis=1)))
            unit_mask = sel_allowed & ~chosen & active[:, None]
            stop_mask = ((s > 0) & active) | ~active
            key_mask = np.concatenate(
                [unit_mask, stop_mask[:, None]], axis=1).astype(np.float64)
            scores = conditioned_concat_scores(q, keys, e_a, self.su_w, key_mask)
            logp_s = T.log_softmax(scores, axis=1)
            if forced is not None:
                forced_s = np.array([
                    forced[i].selected_units[s]
                    if used_su[i] and s < len(forced[i].selected_units)
                    else n0 for i in range(n)])
            else:
                forced_s = None
            choice = _choose(logp_s.data, mode, forced_s, uniforms[:, 3 + s])
            act_f = active.astype(self.dtype)
            lp_su = T.add(lp_su, T.mul(T.gather_last(logp_s, choice), Tensor(act_f)))
            if need_dists:
                su_dists.append((logp_s, key_mask.copy(), active.copy()))
            picked_unit = active & (choice < n0)
            emb = T.gather_rows(my_feats, np.minimum(choice, n0 - 1))
            pick_f = picked_unit.astype(self.dtype)[:, None]
            emb = T.mul(emb, Tensor(np.broadcast_to(pick_f, emb.shape).copy()))
            sum_emb = T.add(sum_emb, emb)
            counts += picked_unit
            for i in np.flatnonzero(picked_unit):
                chosen[i, choice[i]] = True
                selections[i].append(int(choice[i]))
            active = active & (choice < n0)
        scale = (1.0 / np.maximum(counts, 1.0))[:, None]
        sel_summary = T.mul(sum_emb, Tensor(np.broadcast_to(
            scale, (n, cfg.d_model)).astype(self.dtype).copy()))
        head_lp["selected_units"] = lp_su
        if need_dists:
            dists["selected_units"] = su_dists
        cond_sel = T.concat([cond, sel_summary], axis=1)

        # target unit over all groups' features
        keys_all = T.concat(group_feats, axis=1)
        used_tu = _USAGE[C.HEAD_TARGET_UNIT][ids]
        tmask = batch.target_mask[np.arange(n), ids].copy()
        tmask[~used_tu, 0] = True   # keep softmax well-posed on unused rows
        q_t = T.relu(self.tu_query(cond_sel))
        scores_t = conditioned_concat_scores(q_t, keys_all, e_a, self.tu_w,
                                             tmask.astype(np.float64))
        logp_t = T.log_softmax(scores_t, axis=1)
        if forced is not None:
            forced_t = np.array([
                batch.global_to_local_target(forced[i].target_unit)
                if used_tu[i] and forced[i].target_unit is not None else 0
                for i in range(n)])
        else:
            forced_t = None
        tu_ids = _choose(logp_t.data, mode, forced_t, uniforms[:, 3 + cfg.max_select])
        lp_tu = T.mul(T.gather_last(logp_t, tu_ids), Tensor(used_tu.astype(self.dtype)))
        head_lp["target_unit"] = lp_tu
        if need_dists:
            dists["target_unit"] = (logp_t, tmask)

        # target position over the grid, conditioned on conv skip features
        logits_p = self.pos_head(T.concat([cond_sel, skip], axis=1))
        used_p = _USAGE[C.HEAD_TARGET_POSITION][ids]
        pmask = batch.position_mask[np.arange(n), ids].copy()
        pmask[~used_p, 0] = True
        logits_p = T.masked_fill(logits_p, (~pmask).astype(np.float64), -1e9)
        logp_p = T.log_softmax(logits_p, axis=1)
        if forced is not None:
            forced_p = np.array([
                forced[i].target_position
                if used_p[i] and forced[i].target_position is not None else 0
                for i in range(n)])
        else:
            forced_p = None
        pos_ids = _choose(logp_p.data, mode, forced_p, uniforms[:, 4 + cfg.max_select])
        lp_pos = T.mul(T.gather_last(logp_p, pos_ids), Tensor(used_p.astype(self.dtype)))
        head_lp["target_position"] = lp_pos
        if need_dists:
            dists["target_position"] = (logp_p, pmask)

        joint = lp_action
        for name in ("delay", "queued", "selected_units", "target_unit", "target_position"):
            joint = T.add(joint, head_lp[name])

        values = self.value_head(core_out)

        actions = []
        for i in range(n):
            a = int(ids[i])
            used = C.HEAD_USAGE[a]
            actions.append(StructuredAction(
                action_id=a,
                delay=int(delay_ids[i]) + 1,
                queued=int(queued_ids[i]) if C.HEAD_QUEUED in used else 0,
                selected_units=selections[i] if C.HEAD_SELECTED_UNITS in used else [],
                target_unit=batch.local_to_global_target(int(tu_ids[i]))
                if C.HEAD_TARGET_UNIT in used else None,
                target_position=int(pos_ids[i])
                if C.HEAD_TARGET_POSITION in used else None,
            ))
        return StepOutput(actions=actions, action_ids=ids, joint_logprob=joint,
                          head_logprobs=head_lp, values=values, state=(None, None),
                          dists=dists if need_dists else None)

    # ------------------------------------------------------------------ steps

    def _state_tensors(self, state) -> tuple[Tensor, Tensor]:
        h, c = state
        h = h if isinstance(h, Tensor) else Tensor(h.astype(self.dtype))
        c = c if isinstance(c, Tensor) else Tensor(c.astype(self.dtype))
        return h, c

    def step(self, batch: ObsBatch, state, mode: str = "sample",
             forced: list[StructuredAction] | None = None,
             rng: np.random.Generator | None = None,
             need_dists: bool = False,
             uniforms: np.ndarray | None = None) -> StepOutput:
        """One decision for a batch of independent streams."""
        enc, group_feats, skip = self.encode(batch)
        core_out, new_state = self.core.step(enc, self._state_tensors(state))
        out = self.decode(core_out, group_feats, skip, batch, mode, forced,
                          rng, need_dists, uniforms=uniforms)
        out.state = new_state
        return out

    def recur(self, enc: Tensor, b: int, t: int, state0
              ) -> tuple[list[Tensor], list[tuple[Tensor, Tensor]]]:
        """Run only the LSTM core over time-major encoder rows (t*b + i).

        Returns each step's core output and the state after each step.
        """
        if enc.shape[0] != b * t:
            raise ValueError(f"recur: {enc.shape[0]} encoder rows != {b}x{t}")
        state = self._state_tensors(state0)
        core_outs, states = [], []
        for step_i in range(t):
            x = T.slice_axis(enc, 0, step_i * b, (step_i + 1) * b)
            core_out, state = self.core.step(x, state)
            core_outs.append(core_out)
            states.append(state)
        return core_outs, states

    def unroll(self, batch: ObsBatch, b: int, t: int, state0,
               forced: list[StructuredAction],
               need_dists: bool = False) -> StepOutput:
        """Teacher-forced window: batch rows are time-major (t*b + i)."""
        if batch.size != b * t or len(forced) != b * t:
            raise ValueError(f"unroll: batch of {batch.size} rows != {b}x{t}")
        enc, group_feats, skip = self.encode(batch)
        core_outs, states = self.recur(enc, b, t, state0)
        core_all = T.concat(core_outs, axis=0)
        out = self.decode(core_all, group_feats, skip, batch, "teacher",
                          forced, None, need_dists)
        out.state = states[-1]
        return out
