"""Policy/value network: encoders -> aggregator -> residual LSTM -> six-head
auto-regressive decoder with a vector-valued value head sharing the trunk.

Head order: selected_action first; delay and queued condition only on the
selected action (their mutual order is immaterial); selected_units is a
pointer network with conditioned concat-attention and a stop token;
target_unit scores all groups' features, additionally conditioned on the
pooled selected-units embedding; target_position is an MLP over the conv
skip features. Conditioning is always concat + fully connected, never
additive.

Every head goes through one routine, ``PolicyNet._choose_head``: mask,
log-softmax, choose (sample from caller-given uniforms, argmax, or take the
teacher's index), score, and zero the score on rows whose action does not use
the head. Each choice is recorded on ``StepOutput.choices``, which is what the
BC per-head CE and teacher agreement read.
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
    joint_logprob: Tensor                  # (N,)
    head_logprobs: dict[str, Tensor]
    values: Tensor                         # (N, value_channels)
    state: tuple[Tensor, Tensor]
    # one record per choice in decode order, the selected-units head once per
    # pointer slot: (head name, log-probs (N, V), chosen index (N,), used rows
    # (N,) bool); in teacher mode the chosen index is the teacher's
    choices: list[tuple[str, Tensor, np.ndarray, np.ndarray]]


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

    def _choose_head(self, choices: list, name: str, logits: Tensor,
                     mask: np.ndarray | None, mode: str, forced: np.ndarray | None,
                     u: np.ndarray, used: np.ndarray | None) -> tuple[np.ndarray, Tensor]:
        """Mask, normalise, choose and score one head, and record the choice.

        ``mask`` (N, V) bool pushes illegal logits to -1e9; ``used`` (N,) bool
        zeroes the score of rows whose action does not use the head (None:
        every row uses it).
        """
        if mask is not None:
            logits = T.masked_fill(logits, ~mask, -1e9)
        logp = T.log_softmax(logits, axis=1)
        ids = _choose(logp.data, mode, forced, u)
        lp = T.gather_last(logp, ids)
        if used is None:
            used = np.ones(len(ids), dtype=bool)
        else:
            lp = T.mul(lp, Tensor(used.astype(self.dtype)))
        choices.append((name, logp, ids, used))
        return ids, lp

    def decode(self, core_out: Tensor, group_feats: list[Tensor], skip: Tensor,
               batch: ObsBatch, mode: str,
               forced: list[StructuredAction] | None = None,
               uniforms: np.ndarray | None = None) -> StepOutput:
        """Run the six heads; sample mode needs ``uniforms`` (N, N_DECISION_DRAWS),
        which make sampled choices independent of batch composition (each row
        has its own draws)."""
        if mode not in ("sample", "argmax", "teacher"):
            raise ValueError(f"unknown decode mode {mode!r}")
        if mode == "teacher" and forced is None:
            raise ValueError("teacher mode needs forced actions")
        cfg = self.cfg
        n = core_out.shape[0]
        if mode == "sample":
            if uniforms is None or uniforms.shape != (n, N_DECISION_DRAWS):
                raise ValueError(f"sample mode needs uniforms of shape ({n}, {N_DECISION_DRAWS})")
        else:
            uniforms = np.zeros((n, N_DECISION_DRAWS))
        if not batch.action_mask.any(axis=1).all():
            raise ValueError("decode: an observation offers no legal action")
        teacher = mode == "teacher"
        choices: list = []

        def teacher_ids(index_of) -> np.ndarray | None:
            """The teacher's index on every row, in teacher mode only."""
            return np.array([index_of(i, a) for i, a in enumerate(forced)]) if teacher else None

        def choose(name, logits, mask, forced_ids, draw, used):
            return self._choose_head(choices, name, logits, mask, mode, forced_ids,
                                     uniforms[:, draw], used)

        # selected action
        ids, lp_action = choose("action", self.action_head(core_out), batch.action_mask,
                                teacher_ids(lambda i, a: a.action_id), 0, None)
        e_a = T.embedding_lookup(self.action_emb, ids)
        cond = T.concat([core_out, e_a], axis=1)
        head_lp: dict[str, Tensor] = {"action": lp_action}

        # delay (1..16; head index is delay-1) and queued
        delay_ids, head_lp["delay"] = choose(
            "delay", self.delay_head(cond), None,
            teacher_ids(lambda i, a: a.delay - 1), 1, _USAGE[C.HEAD_DELAY][ids])
        queued_ids, head_lp["queued"] = choose(
            "queued", self.queued_head(cond), None,
            teacher_ids(lambda i, a: a.queued), 2, _USAGE[C.HEAD_QUEUED][ids])

        # selected units: autoregressive pointer with stop token; the pointer
        # weights are split into query and key halves and the keys projected once
        d = cfg.d_model
        n0 = batch.group_n[0]
        my_feats = group_feats[0]
        stop_key = T.broadcast_to(self.su_stop, (n, 1, d))
        su_wq, su_wk = T.slice_axis(self.su_w, 0, 0, d), T.slice_axis(self.su_w, 0, d, 2 * d)
        su_keys = T.matmul(T.concat([my_feats, stop_key], axis=1), su_wk)   # (N, n0+1, e)
        used_su = _USAGE[C.HEAD_SELECTED_UNITS][ids]
        sel_allowed = batch.select_mask[np.arange(n), ids]  # (N, n0)
        active = used_su
        chosen = np.zeros((n, n0), dtype=bool)
        selections: list[list[int]] = [[] for _ in range(n)]
        sum_emb = Tensor(np.zeros((n, d), dtype=self.dtype))
        counts = np.zeros(n)

        def mean_selected() -> Tensor:
            scale = (1.0 / np.maximum(counts, 1.0))[:, None]
            return T.mul(sum_emb, Tensor(scale.astype(self.dtype)))

        lp_su = Tensor(np.zeros(n, dtype=self.dtype))
        for s in range(cfg.max_select):
            if not active.any():
                break
            q = T.relu(self.su_query(T.concat([cond, mean_selected()], axis=1)))
            unit_mask = sel_allowed & ~chosen & active[:, None]
            stop_mask = ((s > 0) & active) | ~active
            key_mask = np.concatenate([unit_mask, stop_mask[:, None]], axis=1)
            scores = conditioned_concat_scores(q, su_keys, e_a, su_wq, key_mask)
            forced_s = teacher_ids(lambda i, a: a.selected_units[s]
                                   if used_su[i] and s < len(a.selected_units) else n0)
            choice, lp = choose("selected_units", scores, None, forced_s, 3 + s, active)
            lp_su = T.add(lp_su, lp)
            picked_unit = active & (choice < n0)
            emb = T.gather_rows(my_feats, np.minimum(choice, n0 - 1))
            emb = T.mul(emb, Tensor(picked_unit.astype(self.dtype)[:, None]))
            sum_emb = T.add(sum_emb, emb)
            counts += picked_unit
            for i in np.flatnonzero(picked_unit):
                chosen[i, choice[i]] = True
                selections[i].append(int(choice[i]))
            active = active & (choice < n0)
        head_lp["selected_units"] = lp_su
        cond_sel = T.concat([cond, mean_selected()], axis=1)

        # target unit over all groups' features
        tu_wq, tu_wk = T.slice_axis(self.tu_w, 0, 0, d), T.slice_axis(self.tu_w, 0, d, 2 * d)
        tu_keys = T.matmul(T.concat(group_feats, axis=1), tu_wk)
        used_tu = _USAGE[C.HEAD_TARGET_UNIT][ids]
        tmask = batch.target_mask[np.arange(n), ids]
        tmask[~used_tu, 0] = True   # keep softmax well-posed on unused rows
        q_t = T.relu(self.tu_query(cond_sel))
        scores_t = conditioned_concat_scores(q_t, tu_keys, e_a, tu_wq, tmask)
        forced_t = teacher_ids(lambda i, a: batch.global_to_local_target(a.target_unit)
                               if used_tu[i] and a.target_unit is not None else 0)
        tu_ids, head_lp["target_unit"] = choose(
            "target_unit", scores_t, None, forced_t, 3 + cfg.max_select, used_tu)

        # target position over the grid, conditioned on conv skip features
        used_p = _USAGE[C.HEAD_TARGET_POSITION][ids]
        pmask = batch.position_mask[np.arange(n), ids]
        pmask[~used_p, 0] = True
        forced_p = teacher_ids(lambda i, a: a.target_position
                               if used_p[i] and a.target_position is not None else 0)
        pos_ids, head_lp["target_position"] = choose(
            "target_position", self.pos_head(T.concat([cond_sel, skip], axis=1)), pmask,
            forced_p, 4 + cfg.max_select, used_p)

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
        return StepOutput(actions=actions, joint_logprob=joint, head_logprobs=head_lp,
                          values=values, state=(None, None), choices=choices)

    # ------------------------------------------------------------------ steps

    def _state_tensors(self, state) -> tuple[Tensor, Tensor]:
        h, c = state
        h = h if isinstance(h, Tensor) else Tensor(h.astype(self.dtype))
        c = c if isinstance(c, Tensor) else Tensor(c.astype(self.dtype))
        return h, c

    def step(self, batch: ObsBatch, state, mode: str = "sample",
             forced: list[StructuredAction] | None = None,
             uniforms: np.ndarray | None = None) -> StepOutput:
        """One decision for a batch of independent streams."""
        enc, group_feats, skip = self.encode(batch)
        core_out, new_state = self.core.step(enc, self._state_tensors(state))
        out = self.decode(core_out, group_feats, skip, batch, mode, forced, uniforms)
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
               forced: list[StructuredAction]) -> StepOutput:
        """Teacher-forced window: batch rows are time-major (t*b + i)."""
        if batch.size != b * t or len(forced) != b * t:
            raise ValueError(f"unroll: batch of {batch.size} rows != {b}x{t}")
        enc, group_feats, skip = self.encode(batch)
        core_outs, states = self.recur(enc, b, t, state0)
        core_all = T.concat(core_outs, axis=0)
        out = self.decode(core_all, group_feats, skip, batch, "teacher", forced)
        out.state = states[-1]
        return out
