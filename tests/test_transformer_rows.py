"""The group transformer's row sets compute what running every block and
feed-forward on every row computes.

``_reference`` keeps the transformer body without row sets. Hypothesis
draws batches of 1, 3, 8 and 40 rows in which each group holds units in
0..B rows, including a group empty in every row and exactly half the rows
active, and the test compares float64 outputs and every gradient with the
reference. It also checks which rows each attention runs on, how many row
takes and places the call builds, and that a batch whose every row holds
every group builds the reference's ops exactly. Over several BC train steps,
in which some batches hold no enemy unit, the row sets train the same
weights as the reference.
"""

from dataclasses import replace

import numpy as np
from _helpers import TINY_NET
from hypothesis import given, settings, strategies as st

from gridleague import tensor as T
from gridleague.imitation import BCTrainer, generate_dataset
from gridleague.imitation.dataset import cut_windows, load_index, load_trajectory
from gridleague.net import PolicyNet
from gridleague.net.modules import GroupTransformer, ParamStore
from gridleague.tensor import Tensor

CFG = replace(TINY_NET, transformer_layers=2)
TOL = 1e-12


def _reference(gt: GroupTransformer, feats, masks):
    """Every block and feed-forward on every row."""
    valid = [m != 0 for m in masks]
    for per_group in gt.layers:
        new_feats = []
        for g, (blocks, ffn) in enumerate(per_group):
            parts = [blocks[g](feats[g], feats[g], valid[g])]
            for o in range(3):
                if o != g:
                    parts.append(blocks[o](feats[g], feats[o], valid[o]))
            x = T.add(feats[g], ffn(T.concat(parts, axis=2)))
            new_feats.append(T.mul(x, Tensor(masks[g][:, :, None])))
        feats = new_feats
    return feats


@st.composite
def batches(draw, all_active=False):
    """(B, masks, seed): per group a (B, n_g) float64 {0, 1} mask."""
    b = draw(st.sampled_from([1, 3, 8, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = []
    for _ in range(3):
        n = draw(st.integers(1, 4))
        k = b if all_active else draw(st.sampled_from([0, b // 2, b]) | st.integers(0, b))
        active = np.zeros(b, dtype=bool)
        active[rng.choice(b, size=k, replace=False)] = True
        valid = (rng.random((b, n)) < 0.5) & active[:, None]
        valid[active, rng.integers(0, n, size=k)] = True
        masks.append(valid.astype(np.float64))
    return b, masks, int(rng.integers(2**32))


def _run(call, masks, seed):
    """Outputs, then every gradient (parameters and inputs) of a probed sum,
    and the (op, leading size) of every op the call builds."""
    params = ParamStore(np.random.default_rng(0), np.float64)
    gt = GroupTransformer(params, CFG)
    rng = np.random.default_rng(seed)
    feats = [T.param(rng.standard_normal((m.shape[0], m.shape[1], CFG.d_model)))
             for m in masks]
    built, make = [], T.core._make

    def recording_make(data, parents, op, backward=None):
        built.append((op, data.shape[0] if data.ndim else 0))
        return make(data, parents, op, backward)

    T.core._make = recording_make
    try:
        outs = call(gt, feats, masks)
    finally:
        T.core._make = make
    probed = [T.reduce_sum(T.mul(y, Tensor(rng.standard_normal(y.shape)))) for y in outs]
    T.add(T.add(probed[0], probed[1]), probed[2]).backward()
    leaves = list(params.params.values()) + feats
    return [y.data for y in outs], [p.grad for p in leaves], built


def _row_sets(masks):
    """Per group, the (B,) bool rows it runs on: where it holds units, or
    every row when that is more than half of them."""
    b = masks[0].shape[0]
    active = [m.any(axis=1) for m in masks]
    return [np.ones(b, dtype=bool) if 2 * a.sum() > b else a for a in active]


def _plan_rows(masks):
    """The batch rows of every attention, in build order: the rows that the
    query and key groups' row sets share."""
    keep = _row_sets(masks)
    rows = []
    for _ in range(CFG.transformer_layers):
        for g in range(3):
            if not keep[g].any():
                continue
            for o in (g, *(o for o in range(3) if o != g)):
                k = int((keep[g] & keep[o]).sum())
                if k:
                    rows.append(k)
    return rows


def _row_ops(masks):
    """(take_rows, place_rows) ops of one call: a group on part of the rows
    is taken there once and placed back once; a block takes its queries
    (keys) when it runs on fewer rows than the query (key) group, and places
    its output when it runs on fewer rows than the query group."""
    b = masks[0].shape[0]
    keep = _row_sets(masks)
    sizes = [int(k.sum()) for k in keep]
    takes = places = sum(0 < n < b for n in sizes)
    for _ in range(CFG.transformer_layers):
        for g in range(3):
            for o in range(3):
                k = int((keep[g] & keep[o]).sum())
                if k:
                    takes += (k < sizes[g]) + (k < sizes[o])
                    places += k < sizes[g]
    return takes, places


@settings(max_examples=120, deadline=None)
@given(batches())
def test_row_plan_matches_every_row(batch):
    b, masks, seed = batch
    outs, grads, built = _run(GroupTransformer.__call__, masks, seed)
    ref_outs, ref_grads, _ = _run(_reference, masks, seed)
    for y, ref, m in zip(outs, ref_outs, masks):
        np.testing.assert_allclose(y, ref, rtol=0, atol=TOL)
        assert not y[m == 0].any(), "padded slots must be exactly 0"
    for g, ref in zip(grads, ref_grads):
        if g is None:       # a group empty in every row builds no op
            assert not ref.any()
        else:
            np.testing.assert_allclose(g, ref, rtol=0, atol=TOL)
    assert [n for op, n in built if op == "attention"] == _plan_rows(masks)
    ops = [op for op, _ in built]
    assert (ops.count("take_rows"), ops.count("place_rows")) == _row_ops(masks)


@settings(max_examples=30, deadline=None)
@given(batches(all_active=True))
def test_full_batch_builds_the_reference_ops(batch):
    b, masks, seed = batch
    outs, grads, built = _run(GroupTransformer.__call__, masks, seed)
    ref_outs, ref_grads, ref_built = _run(_reference, masks, seed)
    assert built == ref_built
    for y, ref in zip(outs + grads, ref_outs + ref_grads):
        np.testing.assert_array_equal(y, ref)


def _train(windows_per_step):
    """(loss, grad norm, parameter copies) after each of the steps."""
    net = PolicyNet(TINY_NET, np.random.default_rng(3), dtype=np.float64)
    trainer = BCTrainer(net)
    trace = []
    for windows in windows_per_step:
        m = trainer.train_step(windows)
        trace.append((m["loss"], m["grad_norm"],
                      {k: p.data.copy() for k, p in net.parameters().items()}))
    return trace


def test_train_steps_match_the_reference_when_a_block_keeps_no_row(tmp_path, monkeypatch):
    """A weight that no row of a step needs gets no gradient under the row
    plan and a zero gradient under the reference. Adam must treat the two
    alike, or the update depends on which groups share the batch."""
    generate_dataset(tmp_path, n_games=1, seed=0, mix=("RUSH",), max_steps=200)
    entry = load_index(tmp_path)["games"][0]
    windows = [w for traj in load_trajectory(tmp_path, entry, (0, 1))
               for w in cut_windows(traj, 4)]
    for w in windows:
        w.h0 = np.zeros(TINY_NET.lstm_width)
        w.c0 = np.zeros(TINY_NET.lstm_width)
    sees_enemy = [max(o.n_enemy for o in w.observations) > 0 for w in windows]
    blind = [w for w, seen in zip(windows, sees_enemy) if not seen]
    seeing = [w for w, seen in zip(windows, sees_enemy) if seen]
    assert len(blind) >= 6 and len(seeing) >= 3
    # the enemy group's blocks have rows in steps 1 and 4 only
    steps = [[seeing[0], blind[0], seeing[1]], blind[1:3], blind[3:6], [blind[0], seeing[2]]]

    planned = _train(steps)
    with monkeypatch.context() as mp:
        mp.setattr(GroupTransformer, "__call__", _reference)
        reference = _train(steps)
    for (loss, norm, params), (ref_loss, ref_norm, ref_params) in zip(planned, reference):
        assert abs(loss - ref_loss) <= TOL and abs(norm - ref_norm) <= TOL
        for k, ref in ref_params.items():
            np.testing.assert_allclose(params[k], ref, rtol=0, atol=TOL, err_msg=k)
