import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafenne import tensor as T
from grafenne.graph import Edges
from grafenne.model import FeatureEmbeddingTable, GrafenneConfig, GrafenneModel
from grafenne.optim import AdamState, adam_step, descend, zero_grad
from gradcheck import check_case, run_gradient_suite
from probe import mean_all, sub


def test_matmul_identity():
    eye = T.Tensor(np.eye(2))
    b = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(T.matmul(eye, b).values, b.values)


def test_matmul_scalar_case():
    out = T.matmul(T.Tensor([[2.0]]), T.Tensor([[3.0]]))
    assert out.values[0, 0] == 6.0


def test_matmul_shape_error_mentions_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 2))))
    # the program multiplies matrices, and a matrix by a vector, only
    with pytest.raises(ValueError, match=r"2-D left.*\(3,\) @ \(3, 2\)"):
        T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))


def test_matmul_gradcheck():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
    err = check_case(lambda x: T.sum_all(T.matmul(x[0], x[1])), [a, b], tol=1e-5)
    assert err < 1e-5


def test_concat_basic_and_empty():
    out = T.concat([T.Tensor([1.0, 2.0]), T.Tensor([3.0])])
    assert np.array_equal(out.values, [1.0, 2.0, 3.0])
    same = T.concat([T.Tensor([1.0, 2.0]), T.Tensor(np.zeros(0))])
    assert np.array_equal(same.values, [1.0, 2.0])


def test_concat_gradient_all_ones():
    a = T.Tensor(np.random.default_rng(0).normal(size=(3,)), requires_grad=True)
    b = T.Tensor(np.random.default_rng(1).normal(size=(2,)), requires_grad=True)
    T.backward(T.sum_all(T.concat([a, b])))
    assert np.array_equal(a.grad, np.ones(3))
    assert np.array_equal(b.grad, np.ones(2))


def test_leaky_relu_values():
    out = T.leaky_relu(T.Tensor([-2.0, 3.0]), 0.2)
    assert np.allclose(out.values, [-0.4, 3.0])


@pytest.mark.parametrize("slope", [0.0, 0.2, 0.5, 1.0])
def test_leaky_relu_equals_the_where_form_bit_for_bit(slope):
    tiny = np.finfo(np.float64).smallest_subnormal
    x = np.array([0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, 3.5, -3.5,
                  1e300, -1e300, np.finfo(np.float64).max, -np.finfo(np.float64).max])
    x = np.concatenate([x, np.random.default_rng(4).normal(size=64)])
    for values in (x, x.reshape(4, -1), np.array(-2.0)):
        got = T.leaky_relu(T.Tensor(values), slope).values
        want = np.where(values >= 0, values, slope * values)
        assert got.shape == values.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _edge_values():
    """±0, subnormals, tiny, huge and infinite values, NaN, then 64 normals."""
    tiny = np.finfo(np.float64).smallest_subnormal
    x = np.array([0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, 3.5, -3.5, 1e300, -1e300,
                  np.inf, -np.inf, np.nan])
    return np.concatenate([x, np.random.default_rng(4).normal(size=64)])


@pytest.mark.parametrize("slope", [0.0, 0.2, 0.5, 1.0])
def test_leaky_grad_equals_the_where_form_bit_for_bit(slope):
    x = _edge_values()
    for values in (x, x[:-1].reshape(4, -1), np.array(-0.0)):
        got = T._leaky_grad(values, slope)
        want = np.where(values >= 0, 1.0, slope)
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_sage_relu_equals_the_where_form_and_keeps_nan():
    """sage's ReLU over pre-activations z that are exactly the inputs: the
    self weight is 1 and the neighbour weight -0.0, and no edges, so
    z = h * 1 + 0 * -0.0 = h. Every nonzero output is bit-identical to
    where(z >= 0, z, 0); every zero output is a zero (the sign a -0.0
    input keeps is not pinned); a NaN stays NaN."""
    z = _edge_values()
    edges = Edges(np.zeros(0, np.int64), np.zeros(0, np.int64), (len(z), len(z)))
    out = T.sage(T.Tensor(z[:, None]), edges, np.ones((len(z), 1)), T.Tensor([[1.0], [-0.0]]))
    got, want = out.values[:, 0], np.where(z >= 0, z, 0.0)
    nan = np.isnan(z)
    assert np.isnan(got[nan]).all()
    assert np.array_equal(got[~nan], want[~nan])
    nonzero = ~nan & (want != 0)
    assert np.array_equal(np.signbit(got[nonzero]), np.signbit(want[nonzero]))


@pytest.mark.parametrize("slope", [-0.2, 1.01, float("nan")])
def test_leaky_relu_rejects_a_slope_outside_0_1(slope):
    with pytest.raises(ValueError, match="slope"):
        T.leaky_relu(T.Tensor([1.0]), slope)


def test_leaky_relu_gradcheck():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6,))
    err = check_case(lambda t: T.sum_all(T.mul(T.leaky_relu(t[0], 0.2), x)), [x.copy()], tol=1e-6)
    assert err < 1e-6


def test_segment_softmax_uniform_and_singleton():
    out = T.segment_softmax(T.Tensor([0.0, 0.0, 0.0]), [0, 0, 0])
    assert np.allclose(out.values, [1 / 3] * 3)
    single = T.segment_softmax(T.Tensor([5.0]), [0])
    assert np.allclose(single.values, [1.0])


def test_segment_softmax_two_scores():
    out = T.segment_softmax(T.Tensor([1.0, 2.0]), [0, 0])
    e1, e2 = math.e, math.e**2
    assert np.allclose(out.values, [e1 / (e1 + e2), e2 / (e1 + e2)], atol=1e-9)


def test_spmm_forward_equals_gather_scale_scatter():
    rng = np.random.default_rng(5)
    n, d, k, e = 9, 4, 12, 40
    rows = np.sort(rng.integers(0, k, size=e))
    rows[rows % 3 == 0] += 1  # empty segments, including row 0
    cols = rng.integers(0, n, size=e)
    x = T.Tensor(rng.normal(size=(n, d)))
    alpha = rng.normal(size=e)
    fused = T.spmm(alpha, Edges(cols, rows, (k, n)), x).values
    staged = T.segment_sum(T.mul(T.gather_rows(x, cols), T.reshape(T.Tensor(alpha), (e, 1))),
                           rows, k).values
    assert np.array_equal(fused, staged)
    assert not fused[0].any()


def test_spmm_rejects_alpha_and_x_that_do_not_fit_the_layout():
    edges = Edges([0, 1, 2], [0, 1, 1], (2, 3))
    x = T.Tensor(np.ones((3, 2)))
    for alpha in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match="one alpha per edge"):
            T.spmm(alpha, edges, x)
    for bad_x in (np.ones((2, 2)), np.ones((4, 2)), np.ones(3)):
        with pytest.raises(ValueError, match="3 rows"):
            T.spmm(np.ones(3), edges, bad_x)
    assert T.spmm(np.ones(3), edges, x).shape == (2, 2)


def _staged_attention(h, edges, w_src, w_att, w_msg, slope, coef=None, w_edge=None):
    """The matmul/leaky_relu/slice_rows/stack_rows/gather_rows/
    segment_softmax/spmm ops that attention fuses."""
    d = w_src.shape[1]
    a_src = w_att if coef is None else T.slice_rows(w_att, 0, d)
    score = T.gather_rows(T.matmul(T.leaky_relu(T.matmul(h, w_src), slope), a_src), edges.src)
    if coef is not None:
        signed = T.leaky_relu(T.stack_rows([w_edge, T.mul(w_edge, -1.0)]), slope)
        channel = T.matmul(T.Tensor(coef), T.matmul(signed, T.slice_rows(w_att, d, 2 * d)))
        score = T.add(score, channel)
    alpha = T.segment_softmax(score, edges.dst, edges.shape[0])
    return T.spmm(alpha, edges, T.matmul(h, w_msg))


def _staged_sage(h, edges, inv_deg, w):
    """The spmm/mul/concat/matmul/relu ops that sage fuses."""
    mean = T.mul(T.spmm(np.ones(len(edges)), edges, h), T.Tensor(inv_deg))
    return T.relu(T.matmul(T.concat([h, mean], axis=1), w))


def _staged_mlp(x, weights, slope):
    """The matmul/add/leaky_relu ops that mlp fuses."""
    n = len(weights) // 2
    for i in range(n):
        x = T.add(T.matmul(x, weights[2 * i]), weights[2 * i + 1])
        if slope is not None and i < n - 1:
            x = T.leaky_relu(x, slope)
    return x


def _fused_cases():
    """name -> (fused op, staged composition, leaf arrays, whether the
    first leaf requires grad, the other arguments after the leaves)."""
    rng = np.random.default_rng(17)
    n, c, d, k, e = 9, 3, 4, 12, 40
    rows = np.sort(rng.integers(0, k, size=e))
    rows[rows % 3 == 0] += 1  # empty destinations, including row 0
    edges = Edges(rng.integers(0, n, size=e), rows, (k, n))
    square = Edges(rng.integers(0, n, size=e), np.sort(rng.integers(1, n, size=e)), (n, n))
    inv_deg = (1.0 / np.maximum(np.diff(square.indptr), 1)).reshape(-1, 1)
    h = rng.normal(size=(n, c))
    att = [h, rng.normal(size=(c, d)), rng.normal(size=(d,)), rng.normal(size=(c, d))]
    att_edge = [h, att[1], rng.normal(size=(2 * d,)), att[3], rng.normal(size=(d,))]
    coef = rng.uniform(-1.5, 1.5, size=(e, 2))

    def att_args(leaves):
        return (leaves[0], edges, *leaves[1:4], 0.2) + (
            (coef, leaves[4]) if len(leaves) == 5 else ())

    def sage_args(leaves):
        return (leaves[0], square, inv_deg, leaves[1])

    def mlp_args(slope):
        return lambda leaves: (leaves[0], leaves[1:], slope)

    mlp3 = [h, rng.normal(size=(c, 5)), rng.normal(size=(5,)), rng.normal(size=(5, 4)),
            rng.normal(size=(4,)), rng.normal(size=(4, 2)), rng.normal(size=(2,))]
    sage = [h, rng.normal(size=(2 * c, d))]
    return {
        "attention": (T.attention, _staged_attention, att, True, att_args),
        "attention-edge-channel": (T.attention, _staged_attention, att_edge, True, att_args),
        "attention-constant-h": (T.attention, _staged_attention, att_edge, False, att_args),
        "sage": (T.sage, _staged_sage, sage, True, sage_args),
        "sage-constant-h": (T.sage, _staged_sage, sage, False, sage_args),
        "mlp-3-layers": (T.mlp, _staged_mlp, mlp3, True, mlp_args(0.2)),
        "mlp-3-layers-constant-x": (T.mlp, _staged_mlp, mlp3, False, mlp_args(0.2)),
        "mlp-1-layer-identity": (T.mlp, _staged_mlp, mlp3[:3], True, mlp_args(None)),
    }


@pytest.mark.parametrize("case", sorted(_fused_cases()))
def test_fused_op_equals_its_staged_composition_bit_for_bit(case):
    fused_op, staged_op, arrays, h_grad, args = _fused_cases()[case]
    results = []
    for op in (fused_op, staged_op):
        leaves = [T.Tensor(a.copy(), requires_grad=h_grad or i > 0) for i, a in enumerate(arrays)]
        out = op(*args(leaves))
        weights = np.random.default_rng(3).normal(size=out.shape)
        T.backward(T.sum_all(T.mul(out, weights)))
        results.append([out.values] + [leaf.grad for leaf in leaves])
    assert (results[0][1] is None) == (not h_grad)
    for fused, staged in zip(*results):
        assert (fused is None and staged is None) or np.array_equal(fused, staged)
    if case.startswith("attention"):
        assert not results[0][0][0].any()  # an empty destination sums to zero


def test_attention_rejects_weights_and_h_that_do_not_fit_the_layout():
    edges = Edges([0, 1, 2], [0, 1, 1], (2, 3))
    h, w, w_att = np.ones((3, 2)), np.ones((2, 2)), np.zeros(2)
    coef, w_edge = np.zeros((3, 2)), np.zeros(2)
    for bad_att, channel in ((np.zeros(3), ()), (np.zeros(2), (coef, w_edge)),
                             (np.zeros((2, 1)), ())):
        with pytest.raises(ValueError, match="w_att"):
            T.attention(h, edges, w, bad_att, w, 0.2, *channel)
    for bad_coef, bad_edge in ((np.zeros((2, 2)), w_edge), (np.zeros(3), w_edge),
                               (coef, np.zeros(3))):
        with pytest.raises(ValueError, match="coef"):
            T.attention(h, edges, w, np.zeros(4), w, 0.2, bad_coef, bad_edge)
    with pytest.raises(ValueError, match="3 rows"):
        T.attention(np.ones((4, 2)), edges, w, w_att, w, 0.2)
    out = T.attention(h, edges, w, w_att, w, 0.2).values
    assert np.array_equal(out, [[2.0, 2.0], [2.0, 2.0]])
    edge_out = T.attention(h, edges, w, np.zeros(4), w, 0.2, coef, w_edge).values
    assert np.array_equal(edge_out, out)


def test_spmm_products_interleaved_on_one_layout_read_their_own_alpha():
    """The layout's matrices are shared: a backward that runs after another
    forward over the same layout must still read its own alpha."""
    edges = Edges([0, 1, 2, 0], [0, 0, 1, 1], (2, 3))
    x = np.arange(6.0).reshape(3, 2)
    grads = []
    for interleave in (False, True):
        a = T.Parameter(np.array([1.0, 2.0, 3.0, 4.0]), "a")
        xa = T.Parameter(x.copy(), "xa")
        out_a = T.spmm(a, edges, xa)
        if interleave:
            T.spmm(np.array([-5.0, 0.5, 7.0, 0.0]), edges, x)
        T.backward(T.sum_all(T.mul(out_a, out_a)))
        grads.append((out_a.values, xa.grad, a.grad))
    for first, second in zip(*grads):
        assert np.array_equal(first, second)


@pytest.mark.parametrize("e", [0, 29])
def test_blocked_sddmm_equals_the_one_shot_product(e):
    # at d = 8192 a block holds 8 edges: 29 edges are three blocks and a tail of 5
    rng = np.random.default_rng(8)
    k, n, d = 6, 5, 8192
    edges = Edges(rng.integers(0, n, size=e), np.sort(rng.integers(0, k, size=e)), (k, n))
    g, x = rng.normal(size=(k, d)), rng.normal(size=(n, d))
    one_shot = (np.take(g, edges.dst, axis=0) * np.take(x, edges.src, axis=0)).sum(axis=1)
    blocked = T._sddmm(g, x, edges)
    assert blocked.shape == (e,) and np.array_equal(blocked, one_shot)


def test_slice_rows_backward_adds_into_the_slice():
    x = T.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    out = T.slice_rows(x, 1, 3)
    assert np.array_equal(out.values, x.values[1:3])
    T.backward(T.add(T.sum_all(out), T.sum_all(T.slice_rows(x, 2, 4))))
    assert np.array_equal(x.grad, [[0, 0], [1, 1], [2, 2], [1, 1]])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20), st.floats(-100, 100), st.data())
def test_segment_softmax_properties(scores, shift, data):
    n = len(scores)
    ids = np.sort(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    out = T.segment_softmax(T.Tensor(scores), ids).values
    for k in np.unique(ids):
        assert abs(out[ids == k].sum() - 1.0) < 1e-12
    shifted = T.segment_softmax(T.Tensor(np.asarray(scores) + shift), ids).values
    assert np.allclose(out, shifted, atol=1e-12)


def test_mlp_identity_and_zero():
    x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    w = T.Parameter(np.eye(2), "w")
    b = T.Parameter(np.zeros(2), "b")
    assert np.array_equal(T.mlp(x, [w, b], None).values, x.values)
    z = T.mlp(T.Tensor(np.zeros((2, 2))), [w, T.Parameter(np.zeros(2), "b2")], None)
    assert np.array_equal(z.values, np.zeros((2, 2)))


def test_mlp_two_layer_gradcheck():
    rng = np.random.default_rng(3)
    arrays = [rng.normal(size=s) for s in [(3, 4), (4, 5), (5,), (5, 2), (2,)]]

    def build(x):
        return T.sum_all(T.mlp(x[0], x[1:], 0.2))

    assert check_case(build, arrays, tol=1e-4) < 1e-4


def test_cross_entropy_uniform():
    loss = T.cross_entropy(T.Tensor(np.zeros((2, 4))), [0, 3])
    assert abs(loss.item() - math.log(4)) < 1e-12


def test_cross_entropy_margin_limit():
    logits = np.full((1, 3), -40.0)
    logits[0, 1] = 40.0
    assert T.cross_entropy(T.Tensor(logits), [1]).item() < 1e-12


def test_cross_entropy_matches_bruteforce():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(3, 3))
    labels = [2, 0, 1]
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expect = -np.log(probs[np.arange(3), labels]).mean()
    assert abs(T.cross_entropy(T.Tensor(logits), labels).item() - expect) < 1e-10


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(ValueError, match="out of range"):
        T.cross_entropy(T.Tensor(np.zeros((2, 3))), [0, 3])


def test_bce_values():
    assert abs(T.bce_with_logits(T.Tensor([0.0]), [1]).item() - math.log(2)) < 1e-12
    assert T.bce_with_logits(T.Tensor([20.0]), [1]).item() < 1e-8
    rng = np.random.default_rng(5)
    s = rng.normal(size=7)
    t = rng.integers(0, 2, size=7)
    p = 1 / (1 + np.exp(-s))
    expect = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
    assert abs(T.bce_with_logits(T.Tensor(s), t).item() - expect) < 1e-10


def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        T.backward(T.Tensor([1.0, 2.0], requires_grad=True))


def test_backward_shared_tensor_accumulates():
    x = T.Tensor([2.0], requires_grad=True)
    y = T.add(T.mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1 = 5
    T.backward(T.sum_all(y))
    assert np.allclose(x.grad, [5.0])


def test_backward_unused_tensor_grad_is_zero():
    x = T.Tensor([1.0], requires_grad=True)
    unused = T.mul(x, 3.0)
    loss = T.sum_all(T.mul(x, x))
    T.backward(loss)
    assert unused.grad is None or not unused.grad.any()


def test_lazy_grads_leave_shared_arrays_alone():
    # add hands one array to both parents, and the gather's scatter-add
    # into x must not write into the array x already shares with y
    x = T.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    y = T.Tensor(np.ones((3, 2)), requires_grad=True)
    s = T.add(x, y)
    loss = T.add(T.sum_all(T.mul(s, s)), T.sum_all(T.gather_rows(x, [2, 0, 2])))
    T.backward(loss)
    assert np.array_equal(y.grad, 2 * s.values)
    assert np.array_equal(s.grad, 2 * s.values)
    assert np.array_equal(x.grad, 2 * s.values + [[1, 1], [0, 0], [2, 2]])
    # one tensor on both sides of add: its first contribution is the
    # output's own grad array, which the second and the scatter leave alone
    w = T.Tensor(np.arange(4.0), requires_grad=True)
    z = T.add(w, w)
    T.backward(T.add(T.sum_all(T.mul(z, z)), T.sum_all(T.gather_rows(w, [1, 1]))))
    assert np.array_equal(z.grad, 2 * z.values)
    assert np.array_equal(w.grad, 4 * z.values + [0, 2, 0, 0])


def test_lazy_grads_broadcast_first_scalar_contribution():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    T.backward(T.sum_all(x))
    assert x.grad.shape == (2, 3) and np.array_equal(x.grad, np.ones((2, 3)))
    z = T.Tensor(np.ones(4), requires_grad=True)
    T.backward(mean_all(z))
    assert z.grad.shape == (4,) and np.array_equal(z.grad, np.full(4, 0.25))
    z.grad[0] = 7.0  # a broadcast grad is a writable array of its own
    assert z.grad[1] == 0.25


def test_sweep_skips_nodes_without_grad_and_seeds_any_root():
    x = T.Tensor([1.0, -2.0], requires_grad=True)
    h = T.mul(x, 3.0)
    out = T.mul(h, h)
    order = T._topo_order(out)
    T.sweep(out, np.array([1.0, 0.0]), order)
    assert np.array_equal(x.grad, [18.0, 0.0])
    unused = T.mul(x, 5.0)
    T.backward(T.sum_all(out))
    assert unused.grad is None


def _param(*shape):
    return T.Parameter(np.random.default_rng(len(shape)).normal(size=shape), "p")


# every op that builds a tape node, applied to Parameters; matmul once per
# operand-rank case
TAPE_OPS = {
    "add": lambda: T.add(_param(2, 3), _param(3)),
    "sub": lambda: sub(_param(2, 3), _param(3)),
    "mul": lambda: T.mul(_param(2, 3), _param(3)),
    "matmul_2d_2d": lambda: T.matmul(_param(2, 3), _param(3, 2)),
    "matmul_2d_1d": lambda: T.matmul(_param(2, 3), _param(3)),
    "reshape": lambda: T.reshape(_param(2, 3), (3, 2)),
    "concat": lambda: T.concat([_param(2, 3), _param(1, 3)]),
    "leaky_relu": lambda: T.leaky_relu(_param(2, 3)),
    "relu": lambda: T.relu(_param(2, 3)),
    "gather_rows": lambda: T.gather_rows(_param(3, 2), [2, 0, 2]),
    "segment_sum": lambda: T.segment_sum(_param(3, 2), [1, 0, 1], 2),
    "slice_rows": lambda: T.slice_rows(_param(3, 2), 1, 3),
    "spmm": lambda: T.spmm(_param(3), Edges([1, 2, 0], [0, 0, 1], (2, 3)), _param(3, 2)),
    "segment_softmax": lambda: T.segment_softmax(_param(3), [0, 1, 0]),
    "attention": lambda: T.attention(
        _param(3, 2), Edges([1, 2, 0], [0, 0, 1], (2, 3)), _param(2, 2), _param(4),
        _param(2, 3), 0.2, np.array([[1.0, 0.0], [-0.5, 2.0], [0.0, 0.0]]), _param(2)),
    "sage": lambda: T.sage(_param(3, 2), Edges([1, 2, 0], [0, 0, 1], (3, 3)),
                           np.array([[0.5], [1.0], [1.0]]), _param(4, 3)),
    "mlp": lambda: T.mlp(_param(3, 2), [_param(2, 4), _param(4), _param(4, 3), _param(3)]),
    "stack_rows": lambda: T.stack_rows([_param(2), _param(2)]),
    "sum_all": lambda: T.sum_all(_param(2, 3)),
    "mean_all": lambda: mean_all(_param(2, 3)),
    "ewc_penalty": lambda: T.ewc_penalty([_param(2, 3), _param(3)],
                                         np.r_[np.zeros(6), np.ones(3)],
                                         np.r_[np.ones(6), np.full(3, 2.0)]),
    "cross_entropy": lambda: T.cross_entropy(_param(3, 4), [1, 0, 3]),
    "bce_with_logits": lambda: T.bce_with_logits(_param(3), [1.0, 0.0, 1.0]),
}


@pytest.mark.parametrize("op", sorted(TAPE_OPS))
def test_every_op_is_one_tape_node_freed_by_reference_counting(op, monkeypatch):
    attached = []
    attach = T._attach

    def counting_attach(out, parents, backward_fn):
        attached.append(weakref.ref(out))
        return attach(out, parents, backward_fn)

    monkeypatch.setattr(T, "_attach", counting_attach)
    gc.collect()
    gc.disable()
    try:
        out = TAPE_OPS[op]()
        assert [r() for r in attached] == [out] and out.requires_grad
        T.sweep(out, np.ones_like(out.values), T._topo_order(out))
        assert all(p.grad is not None and p.grad.shape == p.shape for p in out._parents)
        freed = weakref.ref(out)
        del out
        assert freed() is None  # no reference cycle keeps the output alive
    finally:
        gc.enable()


def test_ewc_penalty_matches_staged_form_bitwise():
    rng = np.random.default_rng(11)
    shapes = [(3, 4), (), (5,)]
    values = [rng.normal(size=s) for s in shapes]
    anchors = [rng.normal(size=s) for s in shapes]
    weights = [rng.random(size=s) * (rng.random(size=s) < 0.6) for s in shapes]
    weights[1] = np.asarray(0.0)

    def run(fused):
        ps = [T.Parameter(v.copy(), f"p{i}") for i, v in enumerate(values)]
        task = T.sum_all(T.mul(ps[0], ps[0]))
        if fused:
            flat = [np.concatenate([np.ravel(a) for a in arrays]) for arrays in (anchors, weights)]
            pen = T.ewc_penalty(ps, *flat)
        else:
            pen = None
            for p, a, w in zip(ps, anchors, weights):
                diff = sub(p, T.Tensor(a))
                term = T.sum_all(T.mul(T.mul(diff, diff), T.Tensor(w)))
                pen = term if pen is None else T.add(pen, term)
        loss = T.add(task, T.mul(pen, 1e5 / 2.0))
        zero_grad(ps)
        T.backward(loss)
        return loss.values, [p.grad for p in ps]

    (l1, g1), (l2, g2) = run(True), run(False)
    assert np.array_equal(l1, l2)
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


def test_ewc_penalty_rejects_mismatched_shapes():
    ps = [T.Parameter(np.zeros(3), "p"), T.Parameter(np.zeros((2, 2)), "q")]
    with pytest.raises(ValueError, match="of 7 entries"):
        T.ewc_penalty(ps, np.zeros(6), np.zeros(7))
    with pytest.raises(ValueError, match="of 7 entries"):
        T.ewc_penalty(ps, np.zeros(7), np.zeros(8))
    with pytest.raises(ValueError, match="of 7 entries"):
        T.ewc_penalty(ps, np.zeros(7), np.zeros((1, 7)))


def test_softmax_minus_onehot_is_cross_entropy_gradient():
    logits = np.random.default_rng(2).normal(size=(3, 4))
    x = T.Tensor(logits, requires_grad=True)
    T.backward(T.cross_entropy(x, [1, 0, 3]))
    assert np.array_equal(x.grad, T.softmax_minus_onehot(logits, [1, 0, 3]) / 3)


def test_mul_backward_reads_its_forward_arrays():
    """A tape swept after an Adam step rebound p's values takes mul's
    gradients from the forward-time arrays, as matmul's do."""
    p = T.Parameter(np.array([[1.0, -2.0], [0.5, 3.0]]), "p")
    q = T.Parameter(np.full((2, 2), 2.0), "q")
    p0, q0 = p.values.copy(), q.values.copy()
    loss = T.sum_all(T.mul(T.mul(p, p), q))
    p.grad, q.grad = np.ones((2, 2)), np.ones((2, 2))
    adam_step([p, q], lr=0.1)
    assert not np.array_equal(p.values, p0)
    zero_grad([p, q])
    T.backward(loss)
    assert np.array_equal(p.grad, 2 * p0 * q0) and np.array_equal(q.grad, p0 * p0)


def test_adam_zero_grad_no_move():
    p = T.Parameter(np.array([1.0, -2.0]), "p")
    zero_grad([p])
    adam_step([p], lr=0.1)
    assert np.array_equal(p.values, [1.0, -2.0])


def test_descend_leaves_a_parameter_the_loss_skips_untouched():
    used = T.Parameter(np.array([1.0, -2.0]), "used")
    skipped = T.Parameter(np.array([3.0]), "skipped")
    skipped.grad = np.ones(1)  # left over from an earlier backward
    list(descend([used, skipped], lambda: T.sum_all(T.mul(used, used)), epochs=1, lr=0.1))
    assert skipped.grad is None and np.array_equal(skipped.values, [3.0])
    assert used.grad is not None and not np.array_equal(used.values, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    p = T.Parameter(np.array([1.0, 1.0]), "p")
    p.grad = np.array([0.5, -3.0])
    adam_step([p], lr=0.1)
    assert np.allclose(p.values, [1.0 - 0.1, 1.0 + 0.1], atol=1e-6)


def test_adam_descends_quadratic():
    p = T.Parameter(np.array([1.0]), "w")
    state = AdamState()
    losses = []
    for _ in range(2):
        zero_grad([p])
        loss = T.sum_all(T.mul(p, p))
        losses.append(loss.item())
        T.backward(loss)
        state = adam_step([p], lr=0.1, state=state)
    final = (p.values ** 2).sum()
    assert losses[1] < losses[0] and final < losses[1]


def test_adam_bit_reproducible():
    def run():
        rng = np.random.default_rng(9)
        p = T.Parameter(rng.normal(size=(3, 2)), "p")
        state = AdamState()
        for _ in range(5):
            zero_grad([p])
            T.backward(T.sum_all(T.mul(p, p)))
            state = adam_step([p], lr=0.01, state=state)
        return p.values.tobytes()

    assert run() == run()


def _adam_per_parameter(params, lr, state, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam loop, moments keyed by name: the reference
    the flat adam_step must match bit for bit."""
    state["t"] = t = state.get("t", 0) + 1
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        m = state.setdefault(("m", p.name), np.zeros_like(p.values))
        v = state.setdefault(("v", p.name), np.zeros_like(p.values))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.values = p.values - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def test_flat_adam_matches_the_per_parameter_loop_bitwise():
    model = GrafenneModel(GrafenneConfig(layers=2, dim=4, phase2="gin", seed=3), 3)
    model.table.ensure([0, 5, 9])
    shapes = [p.shape for p in model.trainable_parameters()]
    assert () in shapes and len({len(s) for s in shapes}) == 3  # epsilon is 0-d
    flat, ref = ([T.Parameter(p.values.copy(), p.name) for p in model.trainable_parameters()]
                 for _ in range(2))
    rng = np.random.default_rng(4)
    state, ref_state = AdamState(), {}
    for step in range(6):
        for a, b in zip(flat, ref):
            g = None if rng.random() < 0.3 else rng.normal(size=a.shape) * 10.0 ** step
            a.grad = b.grad = g
        adam_step(flat, lr=0.05, state=state)
        _adam_per_parameter(ref, 0.05, ref_state)
        for a, b in zip(flat, ref):
            assert a.shape == b.shape and np.array_equal(a.values, b.values), a.name
    assert state.step == 6


def test_adam_rejects_a_parameter_list_or_gradient_that_changed_size():
    p, q = T.Parameter(np.ones(3), "p"), T.Parameter(np.ones((2, 2)), "q")
    state = adam_step([p, q], lr=0.1)
    with pytest.raises(ValueError, match="3 values, 3 gradients, 7 moments"):
        adam_step([p], lr=0.1, state=state)
    p.grad = np.ones(4)
    with pytest.raises(ValueError, match="7 values, 8 gradients"):
        adam_step([p, q], lr=0.1, state=state)
    p.grad = None
    table = FeatureEmbeddingTable(2, seed=0)
    table.ensure([1])
    state = adam_step([table.weight], lr=0.1)
    table.ensure([4])  # a new feature's row under the same state
    with pytest.raises(ValueError, match="4 values, 4 gradients, 2 moments"):
        adam_step([table.weight], lr=0.1, state=state)
    assert state.step == 1


def test_a_tape_built_before_a_step_reads_its_forward_values():
    # matmul and ewc_penalty keep their forward arrays for the backward:
    # a step that wrote into them would change the gradients below
    def tape():
        p = T.Parameter(np.array([[1.0, -2.0], [0.5, 3.0]]), "p")
        x = T.Parameter(np.array([0.25, -1.5]), "x")
        pen = T.ewc_penalty([p, x], np.arange(6.0), np.full(6, 0.5))
        return [p, x], T.add(T.sum_all(T.matmul(p, x)), pen)

    params, loss = tape()
    T.backward(loss)
    want = [p.grad for p in params]
    params, loss = tape()
    value = loss.values.copy()
    for p in params:
        p.grad = np.ones_like(p.values)
    adam_step(params, lr=0.1)
    zero_grad(params)
    T.backward(loss)
    assert np.array_equal(loss.values, value)
    for p, fresh, g in zip(params, tape()[0], want):
        assert not np.array_equal(p.values, fresh.values)  # the step moved it
        assert np.array_equal(p.grad, g)


def test_gradient_suite_smoke():
    # 24 cases covering every builder; the acceptance gate runs all 200
    assert run_gradient_suite(n_cases=24, seed=7) < 1e-4


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_case_gradients(seed):
    rng = np.random.default_rng(seed)
    from gradcheck import CASE_BUILDERS

    build, arrays = CASE_BUILDERS[seed % len(CASE_BUILDERS)](rng)
    check_case(build, arrays, tol=1e-4)
