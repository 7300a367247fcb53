import numpy as np
import pytest

from gridleague import tensor as T
from gridleague.tensor import (
    Adam,
    CheckpointError,
    ResidualLSTM,
    Tensor,
    grad_check,
    load_checkpoint,
    lstm_cell,
    peek_version,
    save_checkpoint,
)


def _zero_weights(hidden, input_dim):
    wx = T.param(np.zeros((input_dim, 4 * hidden)))
    wh = T.param(np.zeros((hidden, 4 * hidden)))
    b = T.param(np.zeros(4 * hidden))
    return wx, wh, b


def test_zero_weights_zero_state_output_is_residual_projection_only():
    rng = np.random.default_rng(0)
    block = ResidualLSTM(6, 4, rng, np.float64)
    block.wx.data[:] = 0
    block.wh.data[:] = 0
    block.b.data[:] = 0
    x = Tensor(rng.standard_normal((2, 6)))
    out, (h, c) = block.step(x, block.initial_state(2))
    np.testing.assert_allclose(out.data, x.data @ block.w_proj.data, atol=1e-12)
    np.testing.assert_array_equal(h.data, np.zeros((2, 4)))


def test_forget_gate_saturation_passes_cell_state_through():
    rng = np.random.default_rng(1)
    hidden, input_dim = 3, 5
    wx = T.param(rng.standard_normal((input_dim, 4 * hidden)) * 0.1)
    wh = T.param(rng.standard_normal((hidden, 4 * hidden)) * 0.1)
    b = T.param(np.zeros(4 * hidden))
    b.data[hidden : 2 * hidden] = 50.0  # forget gate saturated open
    x = Tensor(rng.standard_normal((2, input_dim)))
    h = Tensor(rng.standard_normal((2, hidden)) * 0.1)
    c = Tensor(rng.standard_normal((2, hidden)))
    h2, c2 = lstm_cell(x, h, c, wx, wh, b)
    gates = x.data @ wx.data + h.data @ wh.data + b.data
    i = 1 / (1 + np.exp(-gates[:, :hidden]))
    g = np.tanh(gates[:, 2 * hidden : 3 * hidden])
    np.testing.assert_allclose(c2.data, c.data + i * g, atol=1e-9)


def test_unrolled_three_steps_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    block = ResidualLSTM(4, 3, rng, np.float64)
    xs = [Tensor(rng.standard_normal((2, 4))) for _ in range(3)]
    readout = T.param(rng.standard_normal((3, 1)))

    def f():
        state = block.initial_state(2)
        out = None
        for x in xs:
            out, state = block.step(x, state)
        return T.reduce_sum(T.tanh(T.matmul(out, readout)))

    params = list(block.parameters().values()) + [readout]
    assert grad_check(f, params, eps=1e-5) < 1e-4


def test_lstm_shape_mismatch_raises():
    wx, wh, b = _zero_weights(4, 6)
    with pytest.raises(T.ShapeError):
        lstm_cell(Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), wx, wh, b)


def test_checkpoint_roundtrip_and_hash_guard(tmp_path):
    rng = np.random.default_rng(3)
    params = {
        "enc.w": T.param(rng.standard_normal((4, 3)).astype(np.float32)),
        "enc.b": T.param(rng.standard_normal(3).astype(np.float32)),
    }
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, params, arch_hash=0xDEADBEEF, version=7)
    loaded, h, v = load_checkpoint(ckpt, expected_arch_hash=0xDEADBEEF)
    assert h == 0xDEADBEEF and v == 7
    assert peek_version(ckpt) == 7
    for k in params:
        np.testing.assert_array_equal(loaded[k], params[k].data.astype(np.float32))
    with pytest.raises(CheckpointError, match="hash mismatch"):
        load_checkpoint(ckpt, expected_arch_hash=0x1234)


def test_truncated_or_corrupt_checkpoint_names_file_and_offset(tmp_path):
    rng = np.random.default_rng(5)
    params = {"w": rng.standard_normal((2, 3)), "b": rng.standard_normal(3),
              "scale": np.float32(0.5)}
    good = tmp_path / "model.ckpt"
    save_checkpoint(good, params, arch_hash=11, version=3)
    raw = good.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for k in range(len(raw)):
        cut.write_bytes(raw[:k])
        with pytest.raises(CheckpointError, match=f"{cut}: .*byte [0-9]+"):
            load_checkpoint(cut)
        if k < 31:   # magic + three u64 header fields
            with pytest.raises(CheckpointError, match=f"{cut}: .*byte [0-9]+"):
                peek_version(cut)
        else:
            assert peek_version(cut) == 3
    name_at = 31 + 4   # first parameter's name, after its u32 length
    for offset, patch in [(0, b"X"), (name_at, b"\xff"), (name_at + 1, b"\xff\xff\xff\xff"),
                          (len(raw), b"\0")]:
        cut.write_bytes(raw[:offset] + patch + raw[offset + len(patch):])
        with pytest.raises(CheckpointError, match=f"{cut}: .*byte [0-9]+"):
            load_checkpoint(cut)


def test_state_serialization_roundtrips_bit_exactly(tmp_path):
    rng = np.random.default_rng(4)
    block = ResidualLSTM(4, 3, rng, np.float64)
    x = Tensor(rng.standard_normal((1, 4)))
    _, (h, c) = block.step(x, block.initial_state(1))
    save_checkpoint(tmp_path / "s.ckpt", {"h": Tensor(h.data.astype(np.float32)),
                                          "c": Tensor(c.data.astype(np.float32))},
                    arch_hash=1, version=0)
    loaded, _, _ = load_checkpoint(tmp_path / "s.ckpt")
    np.testing.assert_array_equal(loaded["h"], h.data.astype(np.float32))
    np.testing.assert_array_equal(loaded["c"], c.data.astype(np.float32))


def test_adam_lr_zero_leaves_parameters_bitwise_unchanged():
    rng = np.random.default_rng(5)
    p = T.param(rng.standard_normal((3, 3)))
    before = p.data.tobytes()
    opt = Adam({"p": p}, lr=0.0)
    p.grad = np.ones_like(p.data)
    opt.step()
    assert p.data.tobytes() == before


def test_adam_descends_on_quadratic():
    p = T.param(np.array([[5.0]]))
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        loss = T.reduce_sum(T.mul(p, p))
        loss.backward()
        opt.step()
    assert abs(p.data[0, 0]) < 0.1
