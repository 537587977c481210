"""Network engine: initialization, forward, exact gradients, Adam, serialization."""

import json

import numpy as np
import pytest

from ebnarx.nn import (
    AdamState,
    DenseLayer,
    MlpNetwork,
    TrainingError,
    adam_step,
    init_adam,
    init_network,
    network_from_dict,
    network_to_dict,
)

from conftest import max_param_grad_rel_err


class TestInitNetwork:
    def test_biases_start_at_zero(self):
        net = init_network([2, 1], ["identity"], seed=123)
        np.testing.assert_array_equal(net.layers[0].biases, [0.0])

    def test_same_seed_same_parameters(self):
        a = init_network([3, 4, 2], ["tanh", "identity"], seed=7)
        b = init_network([3, 4, 2], ["tanh", "identity"], seed=7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_differs(self):
        a = init_network([3, 4, 2], ["tanh", "identity"], seed=7)
        b = init_network([3, 4, 2], ["tanh", "identity"], seed=8)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_glorot_bounds(self):
        # uniform [-a, a] with a = sqrt(6 / (fan_in + fan_out))
        net = init_network([3, 5, 1], ["tanh", "identity"], seed=7)
        b0 = np.sqrt(6.0 / (3 + 5))
        b1 = np.sqrt(6.0 / (5 + 1))
        assert np.all(np.abs(net.layers[0].weights) <= b0)
        assert np.all(np.abs(net.layers[1].weights) <= b1)
        # draws should actually use the range, not collapse near zero
        assert np.abs(net.layers[0].weights).max() > 0.5 * b0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            init_network([3, 4], ["tanh", "identity"], seed=0)
        with pytest.raises(ValueError):
            MlpNetwork([
                DenseLayer(np.zeros((4, 3)), np.zeros(4), "tanh"),
                DenseLayer(np.zeros((2, 5)), np.zeros(2), "identity"),
            ])

    def test_bad_skip_rejected(self):
        with pytest.raises(ValueError):
            init_network([3, 4, 4, 1], ["tanh"] * 3, skips=[(2, 1)], seed=0)
        with pytest.raises(ValueError):
            init_network([3, 4, 5, 1], ["tanh"] * 3, skips=[(0, 2)], seed=0)


class TestForward:
    def test_zero_weights_returns_bias(self):
        net = MlpNetwork([
            DenseLayer(np.zeros((3, 2)), np.array([1.0, -2.0, 0.5]), "identity"),
            DenseLayer(np.zeros((2, 3)), np.array([4.0, 5.0]), "identity"),
        ])
        out, _ = net.forward(np.array([9.0, -3.0]))
        np.testing.assert_array_equal(out, [4.0, 5.0])

    def test_relu_clamps(self):
        net = MlpNetwork([DenseLayer(np.array([[2.0]]), np.zeros(1), "relu")])
        out, _ = net.forward(np.array([-3.0]))
        assert out[0] == 0.0

    def test_matches_hand_composition_with_skip(self):
        # oracle: straight-line re-evaluation without the layer abstraction
        rng = np.random.default_rng(5)
        net = init_network([3, 4, 4, 4, 2], ["tanh", "relu", "tanh", "identity"],
                           skips=[(0, 2), (1, 3)], seed=21)
        x = rng.normal(size=3)
        w = [l.weights for l in net.layers]
        b = [l.biases for l in net.layers]
        h0 = np.tanh(w[0] @ x + b[0])
        h1 = np.maximum(w[1] @ h0 + b[1], 0.0)
        h2 = np.tanh(w[2] @ (h1 + h0) + b[2])
        expected = w[3] @ (h2 + h1) + b[3]
        out, _ = net.forward(x)
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(6)
        net = init_network([4, 6, 1], ["relu", "identity"], seed=2)
        xb = rng.normal(size=(5, 4))
        batch_out, _ = net.forward(xb)
        for row, expect in zip(xb, batch_out):
            out, _ = net.forward(row)
            # batched GEMM and single-row GEMV may differ in the last ulp
            np.testing.assert_allclose(out, expect, rtol=1e-13, atol=0)

    def test_input_errors(self):
        net = init_network([3, 1], ["identity"], seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros(4))
        with pytest.raises(ValueError):
            net.forward(np.array([1.0, np.nan, 0.0]))


class TestBackward:
    def test_zero_weights_identity(self):
        net = MlpNetwork([
            DenseLayer(np.zeros((3, 2)), np.zeros(3), "identity"),
            DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity"),
        ])
        out_grad = np.array([1.5, -0.5])
        _, cache = net.forward(np.array([1.0, 2.0]))
        grads, input_grad = net.backward(cache, out_grad)
        np.testing.assert_array_equal(grads[3], out_grad)  # final bias grad
        np.testing.assert_array_equal(input_grad, [0.0, 0.0])

    def test_tanh_unit_slope_at_zero(self):
        net = MlpNetwork([DenseLayer(np.array([[1.0]]), np.zeros(1), "tanh")])
        _, cache = net.forward(np.zeros(1))
        _, input_grad = net.backward(cache, np.array([2.5]))
        np.testing.assert_allclose(input_grad, [2.5], rtol=1e-15)

    def test_finite_difference_random_net(self):
        rng = np.random.default_rng(17)
        net = init_network([4, 6, 5, 2], ["tanh", "tanh", "identity"], seed=33)
        err = max_param_grad_rel_err(net, rng.normal(size=4), rng.normal(size=2))
        assert err < 1e-4

    def test_mismatched_cache_rejected(self):
        net_a = init_network([2, 2], ["tanh"], seed=0)
        net_b = init_network([2, 2], ["tanh"], seed=1)
        _, cache = net_a.forward(np.zeros(2))
        with pytest.raises(ValueError):
            net_b.backward(cache, np.zeros(2))

    def test_gradient_correctness_sweep(self):
        # random shallow nets, both activations, with and without skips
        rng = np.random.default_rng(2024)
        for trial in range(8):
            depth = int(rng.integers(1, 5))
            if trial % 2 == 0 or depth < 3:
                widths = [int(rng.integers(1, 17)) for _ in range(depth + 1)]
                skips = []
            else:
                width = int(rng.integers(2, 17))
                widths = [int(rng.integers(1, 17))] + [width] * (depth - 1) + [1]
                skips = [(0, 2)]
            acts = [str(rng.choice(["tanh", "relu"])) for _ in range(depth)]
            net = init_network(widths, acts, skips, seed=trial)
            x = rng.normal(size=widths[0])
            g = rng.normal(size=widths[-1])
            assert max_param_grad_rel_err(net, x, g) < 1e-4

    def test_skip_from_input(self):
        # source -1 adds the network input; the gradient check covers the
        # input gradient it feeds back, and skipping the parameter
        # gradients leaves the input gradient unchanged
        rng = np.random.default_rng(9)
        net = init_network([4, 4, 4, 1], ["tanh", "relu", "identity"],
                           skips=[(-1, 1), (0, 2)], seed=5)
        x, g = rng.normal(size=(3, 4)), rng.normal(size=(3, 1))
        w, b = [l.weights for l in net.layers], [l.biases for l in net.layers]
        h0 = np.tanh(x @ w[0].T + b[0])
        h1 = np.maximum((h0 + x) @ w[1].T + b[1], 0.0)
        out, cache = net.forward(x)
        np.testing.assert_allclose(out, (h1 + h0) @ w[2].T + b[2], rtol=1e-14)
        assert max_param_grad_rel_err(net, x, g) < 1e-4
        grads, input_grad = net.backward(cache, g, with_params=False)
        assert grads is None
        np.testing.assert_array_equal(input_grad, net.backward(cache, g)[1])
        with pytest.raises(ValueError):
            init_network([3, 4, 4, 1], ["tanh"] * 3, skips=[(-1, 1)], seed=0)

    def test_skip_with_zero_source_is_droppable(self):
        # zeroing the skip source's outgoing weights makes the skip inert
        net = init_network([3, 4, 4, 1], ["tanh", "tanh", "identity"],
                           skips=[(0, 2)], seed=4)
        net.layers[0].weights[...] = 0.0
        net.layers[0].biases[...] = 0.0
        x = np.array([0.3, -1.2, 0.7])
        with_skip, _ = net.forward(x)
        bare = MlpNetwork(net.layers)  # same layers, no skip
        without_skip, _ = bare.forward(x)
        np.testing.assert_array_equal(with_skip, without_skip)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        state = init_adam(params)
        grads = [np.zeros(2), np.zeros((1, 1))]
        adam_step(params, grads, state)
        np.testing.assert_array_equal(params[0], [1.0, -2.0])
        np.testing.assert_array_equal(state.m[0], [0.0, 0.0])
        assert state.step_count == 1

    def test_first_step_magnitude(self):
        # hand evaluation of the update for t=1, g=1: m_hat = v_hat = 1
        params = [np.array([0.0])]
        state = init_adam(params, learning_rate=1e-3)
        adam_step(params, [np.array([1.0])], state)
        np.testing.assert_allclose(params[0], [-1e-3], rtol=1e-6)

    def test_constant_gradient_moves_monotonically(self):
        params = [np.array([0.0])]
        state = init_adam(params, learning_rate=1e-2)
        prev = 0.0
        for _ in range(25):
            adam_step(params, [np.array([1.0])], state)
            assert params[0][0] < prev
            prev = params[0][0]

    def test_nonfinite_gradient_raises(self):
        params = [np.array([0.0])]
        state = init_adam(params)
        with pytest.raises(TrainingError, match="parameter 0"):
            adam_step(params, [np.array([np.nan])], state)

    def test_shape_mismatch_raises(self):
        params = [np.zeros(2)]
        state = init_adam(params)
        with pytest.raises(ValueError):
            adam_step(params, [np.zeros(3)], state)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        net = init_network([3, 5, 5, 1], ["relu", "tanh", "identity"],
                           skips=[(0, 2)], seed=11)
        doc = json.loads(json.dumps(network_to_dict(net)))
        back = network_from_dict(doc)
        assert back.skips == net.skips
        for pa, pb in zip(net.parameters(), back.parameters()):
            np.testing.assert_array_equal(pa, pb)
        x = np.array([0.1, 0.2, 0.3])
        out_a, _ = net.forward(x)
        out_b, _ = back.forward(x)
        np.testing.assert_array_equal(out_a, out_b)
