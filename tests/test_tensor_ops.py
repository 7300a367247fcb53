"""Forward values and finite-difference checks for every autodiff primitive."""

import inspect
import sys
import zlib

import numpy as np
import pytest

from gridleague import tensor as T
from gridleague.tensor import NumericError, ShapeError, Tensor, grad_check

RNG = np.random.default_rng(20240811)


def _p(shape, rng=RNG, scale=1.0):
    return T.param(rng.standard_normal(shape) * scale)


# ---------------------------------------------------------------- forward values


def test_tanh_at_zero():
    x = T.param(np.zeros((1, 1)))
    y = T.tanh(x)
    assert y.data[0, 0] == 0.0
    y.backward(np.ones((1, 1)))
    assert x.grad[0, 0] == 1.0


def test_softmax_symmetry():
    y = T.softmax(Tensor(np.zeros((1, 3))), axis=-1)
    np.testing.assert_allclose(y.data, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_rows_sum_to_one():
    x = Tensor(RNG.standard_normal((8, 11)) * 5)
    y = T.softmax(x, axis=-1)
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(8), atol=1e-9)


def test_masked_fill_then_softmax_leaks_below_1e30():
    x = Tensor(RNG.standard_normal((4, 6)))
    mask = np.zeros((4, 6), dtype=bool)
    mask[:, 2] = True
    mask[:, 5] = True
    y = T.softmax(T.masked_fill(x, mask, -1e9), axis=-1)
    assert y.data[:, 2].max() < 1e-30
    assert y.data[:, 5].max() < 1e-30
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(4), atol=1e-9)


def test_fanout_gradient_accumulates_exactly():
    x = T.param(RNG.standard_normal((3, 3)))
    f = T.reduce_sum(T.mul(x, 2.0))
    g = T.reduce_sum(T.tanh(x))
    T.add(f, g).backward()
    grad_combined = x.grad.copy()

    x.grad = None
    T.reduce_sum(T.mul(x, 2.0)).backward()
    gf = x.grad.copy()
    x.grad = None
    T.reduce_sum(T.tanh(x)).backward()
    gg = x.grad.copy()
    np.testing.assert_array_equal(grad_combined, gf + gg)


def test_matmul_grad_vs_finite_differences():
    a = _p((3, 4))
    b = _p((4, 2))

    def f():
        return T.reduce_sum(T.tanh(T.matmul(a, b)))

    assert grad_check(f, [a, b], eps=1e-5) < 1e-6


def test_shape_error_names_op_and_dims():
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError, match="add"):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_softmax_rejects_nonfinite_input():
    for op in (T.softmax, T.log_softmax):
        with pytest.raises(NumericError):
            op(Tensor(np.array([[np.nan, 0.0]])), axis=-1)


def test_mask_must_be_binary():
    x = Tensor(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        T.masked_fill(x, np.full((2, 2), 0.5), -1.0)
    with pytest.raises(ShapeError, match="bool"):
        T.masked_fill(x, np.ones((2, 2)), -1.0)      # {0,1}-valued, but float
    for shape in ((3, 1), (2, 2, 1), (4,)):          # bool, but does not broadcast
        with pytest.raises(ShapeError, match="masked_fill"):
            T.masked_fill(x, np.ones(shape, dtype=bool), -1.0)


def test_tensor_takes_only_float_ndarrays():
    for data in (np.arange(3), np.zeros(2, dtype=bool), [0.0, 1.0], 1.0):
        with pytest.raises(TypeError):
            Tensor(data)
    assert Tensor(np.zeros(2, dtype=np.float32)).dtype == np.float32


def test_embedding_lookup_forward_and_grad():
    table = T.param(RNG.standard_normal((5, 3)))
    ids = np.array([[0, 2], [2, 4]])
    out = T.embedding_lookup(table, ids)
    np.testing.assert_array_equal(out.data[1, 0], table.data[2])
    T.reduce_sum(out).backward()
    # row 2 looked up twice -> gradient 2, rows 1 and 3 untouched
    np.testing.assert_array_equal(table.grad[2], np.full(3, 2.0))
    np.testing.assert_array_equal(table.grad[1], np.zeros(3))


def test_gather_rows_and_gather_last():
    x = T.param(RNG.standard_normal((2, 4, 3)))
    picked = T.gather_rows(x, np.array([1, 3]))
    np.testing.assert_array_equal(picked.data[0], x.data[0, 1])
    np.testing.assert_array_equal(picked.data[1], x.data[1, 3])

    logits = T.param(RNG.standard_normal((3, 5)))
    chosen = T.gather_last(logits, np.array([0, 4, 2]))
    assert chosen.data[1] == logits.data[1, 4]


# ------------------------------------------------------- finite-difference suite

UNARY_CASES = [
    ("tanh", lambda x: T.tanh(x), 1.0),
    ("relu", lambda x: T.relu(x), 1.0),
    ("sigmoid", lambda x: T.sigmoid(x), 1.0),
    ("softmax", lambda x: T.softmax(x, axis=-1), 1.0),
    ("log_softmax", lambda x: T.log_softmax(x, axis=-1), 1.0),
    ("reduce_sum_ax0", lambda x: T.reduce_sum(x, axis=0), 1.0),
    ("reshape", lambda x: T.reshape(x, (x.size,)), 1.0),
    ("transpose", lambda x: T.transpose(x, (1, 0)), 1.0),
    ("slice", lambda x: T.slice_axis(x, 1, 1, 3), 1.0),
    ("neg", lambda x: T.neg(x), 1.0),
    ("gather_last", lambda x: T.gather_last(x, np.arange(x.shape[0]) % x.shape[1]), 1.0),
]


@pytest.mark.parametrize("name,fn,scale", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_primitives_match_finite_differences(name, fn, scale):
    # a fixed per-case seed: hash(str) is salted per process
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for trial in range(10):
        shape = (int(rng.integers(2, 5)), int(rng.integers(3, 6)))
        x = T.param(rng.standard_normal(shape) * scale)
        w = T.param(rng.standard_normal((shape[1] if name != "transpose" else shape[0], 1)))

        def f():
            y = fn(x)
            flat = T.reshape(y, (1, y.size))
            v = T.param(np.ones((y.size, 1)))
            return T.reduce_sum(T.tanh(T.matmul(flat, v)))

        worst = max(worst, grad_check(f, [x], eps=1e-5))
    assert worst < 1e-4, f"{name}: max rel err {worst}"


def test_binary_primitives_match_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(10):
        m, k, n = rng.integers(2, 5, size=3)
        a = T.param(rng.standard_normal((m, k)))
        b = T.param(rng.standard_normal((k, n)))
        c = T.param(rng.standard_normal((m, n)))
        bias = T.param(rng.standard_normal(n))

        def f():
            y = T.add(T.matmul(a, b), bias)
            y = T.mul(y, c)
            y = T.add(y, T.neg(c))
            y = T.mul(y, T.sigmoid(T.mul(c, 0.5)))
            return T.mul(T.reduce_sum(y), 1.0 / y.size)

        assert grad_check(f, [a, b, c, bias], eps=1e-5) < 1e-4


def test_batched_matmul_grad():
    rng = np.random.default_rng(11)
    a = T.param(rng.standard_normal((2, 3, 4)))
    b = T.param(rng.standard_normal((2, 4, 2)))

    def f():
        return T.reduce_sum(T.tanh(T.matmul(a, b)))

    assert grad_check(f, [a, b], eps=1e-5) < 1e-4


def test_weight_applied_to_batched_input_grad():
    rng = np.random.default_rng(12)
    a = T.param(rng.standard_normal((2, 3, 4)))
    w = T.param(rng.standard_normal((4, 5)))

    def f():
        return T.reduce_sum(T.tanh(T.matmul(a, w)))

    assert grad_check(f, [a, w], eps=1e-5) < 1e-4


def test_concat_grad():
    rng = np.random.default_rng(13)
    xs = [T.param(rng.standard_normal((2, d))) for d in (2, 3, 4)]

    def f():
        return T.reduce_sum(T.tanh(T.concat(xs, axis=1)))

    assert grad_check(f, xs, eps=1e-5) < 1e-4


def test_conv2d_forward_reference_and_grad():
    rng = np.random.default_rng(14)
    x = T.param(rng.standard_normal((2, 6, 6, 3)))
    w = T.param(rng.standard_normal((3, 3, 3, 4)) * 0.3)
    out = T.conv2d(x, w, stride=2)
    assert out.shape == (2, 2, 2, 4)
    # brute-force reference at one output location
    b, oi, oj, co = 1, 1, 0, 2
    ref = 0.0
    for i in range(3):
        for j in range(3):
            for ci in range(3):
                ref += x.data[b, 2 * oi + i, 2 * oj + j, ci] * w.data[i, j, ci, co]
    np.testing.assert_allclose(out.data[b, oi, oj, co], ref, rtol=1e-12)

    def f():
        return T.reduce_sum(T.tanh(T.conv2d(x, w, stride=2)))

    assert grad_check(f, [x, w], eps=1e-5) < 1e-4


def test_embedding_and_masked_fill_grad():
    rng = np.random.default_rng(15)
    table = T.param(rng.standard_normal((6, 4)))
    ids = rng.integers(0, 6, size=(3, 2))
    mask = rng.integers(0, 2, size=(3, 2, 4)).astype(bool)

    def f():
        y = T.embedding_lookup(table, ids)
        y = T.masked_fill(y, mask, 0.25)
        return T.reduce_sum(T.tanh(y))

    assert grad_check(f, [table], eps=1e-5) < 1e-4


def test_gather_grad():
    rng = np.random.default_rng(16)
    x = T.param(rng.standard_normal((3, 5, 4)))
    ids = rng.integers(0, 5, size=(3, 2))

    def f():
        return T.reduce_sum(T.tanh(T.gather_rows(x, ids)))

    assert grad_check(f, [x], eps=1e-5) < 1e-4


def test_grad_check_on_constant_function_is_zero():
    x = T.param(RNG.standard_normal((2, 2)))

    def f():
        return T.reduce_sum(T.mul(x, 0.0))

    assert grad_check(f, [x]) == 0.0


def test_grad_check_linear_function_machine_precision():
    rng = np.random.default_rng(17)
    w = T.param(rng.standard_normal((4, 1)))
    x = Tensor(rng.standard_normal((1, 4)))

    def f():
        return T.reduce_sum(T.matmul(x, w))

    assert grad_check(f, [w], eps=1e-5) < 1e-10


def test_random_shapes_and_seeds_50_gradient_checks():
    """Every primitive within a composite graph, 50 random shape/seed draws."""
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        b = int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 6))
        x = T.param(rng.standard_normal((b, n, d)))
        w = T.param(rng.standard_normal((d, d)))
        mask = np.zeros((b, n, d), dtype=bool)
        mask[:, :, 0] = rng.integers(0, 2, size=(b, n))
        rows = Tensor(rng.integers(0, 2, size=(b, n, 1)).astype(float))

        def f():
            y = T.matmul(x, w)
            y = T.masked_fill(y, mask, -1e9)
            p = T.softmax(y, axis=-1)
            lp = T.log_softmax(y, axis=-1)
            ent = T.neg(T.reduce_sum(T.mul(p, lp)))
            pooled = T.reduce_sum(T.mul(T.tanh(T.matmul(x, w)), rows), axis=1)
            return T.add(T.mul(T.reduce_sum(pooled), 1.0 / pooled.size), T.mul(ent, 0.01))

        worst = max(worst, grad_check(f, [x, w], eps=1e-5))
    assert worst < 1e-4, f"max rel err over 50 draws: {worst}"


# ------------------------------------------------------------------ broadcasting

BROADCAST_CASES = [
    ("bias", T.add, (3, 4, 5), (5,)),
    ("mask_add", T.add, (3, 4, 5), (3, 4, 1)),
    ("mask_mul", T.mul, (3, 4, 5), (3, 4, 1)),
    ("inner_mul", T.mul, (3, 4, 5), (4, 1)),
    ("row", lambda x, r: T.mul(x, T.broadcast_to(r, x.shape)), (3, 4, 5), (1, 1, 5)),
]


@pytest.mark.parametrize("name,op,a_shape,b_shape", BROADCAST_CASES,
                         ids=[c[0] for c in BROADCAST_CASES])
def test_broadcast_matches_finite_differences(name, op, a_shape, b_shape):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    a = T.param(rng.standard_normal(a_shape))
    b = T.param(rng.standard_normal(b_shape))

    def f():
        y = op(a, b)
        assert y.shape == a_shape
        return T.reduce_sum(T.tanh(y))

    assert grad_check(f, [a, b], eps=1e-5) < 1e-6


def test_broadcast_mask_fill_matches_finite_differences():
    """A (B,1,1,N) key mask fills (B,H,Nq,N) scores, as in masked attention."""
    rng = np.random.default_rng(18)
    x = T.param(rng.standard_normal((2, 3, 4, 5)))
    fill = rng.integers(0, 2, size=(2, 1, 1, 5)).astype(bool)
    fill[:, :, :, 0] = False

    def f():
        y = T.masked_fill(x, fill, -1e9)
        assert y.shape == x.shape
        return T.reduce_sum(T.tanh(T.softmax(y, axis=-1)))

    np.testing.assert_array_equal(T.masked_fill(x, fill, -1e9).data == -1e9,
                                  np.broadcast_to(fill, x.shape))
    assert grad_check(f, [x], eps=1e-5) < 1e-6


def test_scalar_operand_is_a_constant_not_a_parent():
    x = _p((2, 3))
    for op in (T.add, T.mul):
        assert op(x, 0.5)._parents == (x,)

    def f():
        return T.reduce_sum(T.tanh(T.mul(T.add(x, 2), 0.3)))

    assert grad_check(f, [x], eps=1e-5) < 1e-6
    assert T.mul(Tensor(np.ones(2, dtype=np.float32)), 0.1).dtype == np.float32


def test_broadcast_shape_errors():
    flat, column, wide = Tensor(np.zeros(3)), Tensor(np.zeros((3, 1))), Tensor(np.zeros((2, 3)))
    for op in (T.add, T.mul):
        # (B,) with (B, 1) either way would need a (B, B) result; b larger than a
        for a, b in ((flat, column), (column, flat), (flat, wide)):
            with pytest.raises(ShapeError, match=op.__name__):
                op(a, b)
    with pytest.raises(ShapeError, match="broadcast_to"):
        T.broadcast_to(wide, (3, 3))


# ------------------------------------------------------------------ coverage

HELPERS = {"param", "set_debug_checks"}


def _graph_ops(out: Tensor) -> set[str]:
    seen, todo, ops = set(), [out], set()
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.add(node.op)
            todo.extend(node._parents)
    return ops


def test_every_exported_op_has_a_gradcheck_case(monkeypatch):
    """Runs every test here that calls grad_check, with a stand-in that builds
    the graph once and records its ops (op names are the function names)."""
    exported = {n for n in T.core.__all__ if inspect.isfunction(getattr(T, n))} - HELPERS
    checked: set[str] = set()

    def record(fn, params, eps=1e-5):
        checked.update(_graph_ops(fn()))
        return 0.0

    monkeypatch.setattr(sys.modules[__name__], "grad_check", record)
    for name, test in list(globals().items()):
        if not name.startswith("test_") or "grad_check" not in test.__code__.co_names:
            continue
        marks = [m for m in getattr(test, "pytestmark", []) if m.name == "parametrize"]
        for case in marks[0].args[1] if marks else [()]:
            test(*case)
    assert exported - checked == set()
