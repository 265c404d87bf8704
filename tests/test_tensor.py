import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grafenne import tensor as T
from grafenne.optim import AdamState, adam_step, zero_grad
from gradcheck import check_case, run_gradient_suite


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
    fused = T.spmm(alpha, rows, cols, k, x).values
    staged = T.segment_sum(T.mul(T.gather_rows(x, cols), T.reshape(T.Tensor(alpha), (e, 1))),
                           rows, k).values
    assert np.array_equal(fused, staged)
    assert not fused[0].any()


def test_spmm_rejects_unsorted_rows():
    x = T.Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError, match="ascending"):
        T.spmm(np.ones(3), [0, 2, 1], [0, 1, 2], 3, x)


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
        return T.sum_all(T.mlp(x[0], x[1:], T.leaky_relu))

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
    T.backward(T.mean_all(z))
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
            pen = T.ewc_penalty(ps, anchors, weights)
        else:
            pen = None
            for p, a, w in zip(ps, anchors, weights):
                diff = T.sub(p, T.Tensor(a))
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
    p = T.Parameter(np.zeros(3), "p")
    with pytest.raises(ValueError, match="do not match"):
        T.ewc_penalty([p], [np.zeros(2)], [np.zeros(3)])
    with pytest.raises(ValueError, match="one anchor"):
        T.ewc_penalty([p], [], [np.zeros(3)])


def test_softmax_minus_onehot_is_cross_entropy_gradient():
    logits = np.random.default_rng(2).normal(size=(3, 4))
    x = T.Tensor(logits, requires_grad=True)
    T.backward(T.cross_entropy(x, [1, 0, 3]))
    assert np.array_equal(x.grad, T.softmax_minus_onehot(logits, [1, 0, 3]) / 3)


def test_adam_zero_grad_no_move():
    p = T.Parameter(np.array([1.0, -2.0]), "p")
    p.zero_grad()
    adam_step([p], lr=0.1)
    assert np.array_equal(p.values, [1.0, -2.0])


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
