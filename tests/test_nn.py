"""Network engine: initialization, forward, exact gradients, Adam, serialization."""

import base64
import json
import sys
import threading

import numpy as np
import pytest

import ebnarx.ebm as ebm
import ebnarx.nn as nn
from ebnarx.data import WindowConfig, fit_standardizer, make_windows, simulate_ar
from ebnarx.inference import GridSpec
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
    worker_count,
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

    def test_draws_each_layer_in_order(self):
        # the values of separate per-layer draws, in layer order
        sizes = [3, 5, 4, 1]
        net = init_network(sizes, ["tanh", "relu", "identity"], seed=7)
        rng = np.random.default_rng(7)
        for layer, fan_in, fan_out in zip(net.layers, sizes, sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            np.testing.assert_array_equal(
                layer.weights, rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            np.testing.assert_array_equal(layer.biases, np.zeros(fan_out))

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
        out, _ = net.forward(np.array([[9.0, -3.0]]))
        np.testing.assert_array_equal(out, [[4.0, 5.0]])

    def test_relu_clamps(self):
        net = MlpNetwork([DenseLayer(np.array([[2.0]]), np.zeros(1), "relu")])
        out, _ = net.forward(np.array([[-3.0]]))
        assert out[0, 0] == 0.0

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
        out, _ = net.forward(x[None, :])
        np.testing.assert_allclose(out[0], expected, rtol=1e-14)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(6)
        net = init_network([4, 6, 1], ["relu", "identity"], seed=2)
        xb = rng.normal(size=(5, 4))
        batch_out, _ = net.forward(xb)
        for i, expect in enumerate(batch_out):
            out, _ = net.forward(xb[i:i + 1])
            # batched GEMM and single-row GEMV may differ in the last ulp
            np.testing.assert_allclose(out[0], expect, rtol=1e-13, atol=0)

    def test_input_errors(self):
        net = init_network([3, 1], ["identity"], seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            net.forward(np.array([[1.0, np.nan, 0.0]]))

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((1, 1, 3)), np.float64(0.0)],
                             ids=["vector", "rank-3", "scalar"])
    def test_input_of_another_rank_rejected(self, x):
        # one input vector is a one-row batch, not a batch of its own
        net = init_network([3, 1], ["identity"], seed=0)
        with pytest.raises(ValueError, match=r"shape \(batch, 3\)"):
            net.forward(x)


class TestBackward:
    def test_zero_weights_identity(self):
        net = MlpNetwork([
            DenseLayer(np.zeros((3, 2)), np.zeros(3), "identity"),
            DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity"),
        ])
        out_grad = np.array([[1.5, -0.5]])
        _, cache = net.forward(np.array([[1.0, 2.0]]))
        grads, input_grad = net.backward(cache, out_grad)
        np.testing.assert_array_equal(grads[3], out_grad[0])  # final bias grad
        np.testing.assert_array_equal(input_grad, [[0.0, 0.0]])

    def test_tanh_unit_slope_at_zero(self):
        net = MlpNetwork([DenseLayer(np.array([[1.0]]), np.zeros(1), "tanh")])
        _, cache = net.forward(np.zeros((1, 1)))
        _, input_grad = net.backward(cache, np.array([[2.5]]))
        np.testing.assert_allclose(input_grad, [[2.5]], rtol=1e-15)

    def test_finite_difference_random_net(self):
        rng = np.random.default_rng(17)
        net = init_network([4, 6, 5, 2], ["tanh", "tanh", "identity"], seed=33)
        err = max_param_grad_rel_err(net, rng.normal(size=(1, 4)), rng.normal(size=(1, 2)))
        assert err < 1e-4

    def test_mismatched_cache_rejected(self):
        net_a = init_network([2, 2], ["tanh"], seed=0)
        net_b = init_network([2, 2], ["tanh"], seed=1)
        _, cache = net_a.forward(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            net_b.backward(cache, np.zeros((1, 2)))

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
            x = rng.normal(size=(1, widths[0]))
            g = rng.normal(size=(1, widths[-1]))
            assert max_param_grad_rel_err(net, x, g) < 1e-4

    def test_skip_from_input(self):
        # source -1 adds the network input; the gradient check covers the
        # input gradient it feeds back
        rng = np.random.default_rng(9)
        net = init_network([4, 4, 4, 1], ["tanh", "relu", "identity"],
                           skips=[(-1, 1), (0, 2)], seed=5)
        x, g = rng.normal(size=(3, 4)), rng.normal(size=(3, 1))
        w, b = [l.weights for l in net.layers], [l.biases for l in net.layers]
        h0 = np.tanh(x @ w[0].T + b[0])
        h1 = np.maximum((h0 + x) @ w[1].T + b[1], 0.0)
        out, _ = net.forward(x)
        np.testing.assert_allclose(out, (h1 + h0) @ w[2].T + b[2], rtol=1e-14)
        assert max_param_grad_rel_err(net, x, g) < 1e-4
        with pytest.raises(ValueError):
            init_network([3, 4, 4, 1], ["tanh"] * 3, skips=[(-1, 1)], seed=0)

    def test_in_place_activations_keep_skip_sources(self):
        # activations overwrite their pre-activations, so the input and the
        # layer outputs that skips read must survive, and the relu and tanh
        # slopes taken from the outputs must match a hand-written backward
        rng = np.random.default_rng(10)
        net = init_network([4, 4, 4, 4, 1], ["relu", "tanh", "relu", "identity"],
                           skips=[(-1, 1), (0, 2)], seed=6)
        x, g = rng.normal(size=(5, 4)), rng.normal(size=(5, 1))
        x_before = x.copy()
        w, b = [l.weights for l in net.layers], [l.biases for l in net.layers]
        h0 = np.maximum(x @ w[0].T + b[0], 0.0)
        h1 = np.tanh((h0 + x) @ w[1].T + b[1])
        h2 = np.maximum((h1 + h0) @ w[2].T + b[2], 0.0)
        out, cache = net.forward(x)
        np.testing.assert_allclose(out, h2 @ w[3].T + b[3], rtol=1e-14)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_allclose(cache.outputs[0], h0, rtol=1e-14)

        dz2 = (g @ w[3]) * (h2 > 0.0)
        d_in2 = dz2 @ w[2]
        dz1 = d_in2 * (1.0 - h1 * h1)
        d_in1 = dz1 @ w[1]
        dz0 = (d_in2 + d_in1) * (h0 > 0.0)
        grads, input_grad = net.backward(cache, g)
        np.testing.assert_allclose(input_grad, dz0 @ w[0] + d_in1, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(grads[0], dz0.T @ x, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(grads[2], dz1.T @ (h0 + x), rtol=1e-12, atol=1e-15)

    def test_skip_with_zero_source_is_droppable(self):
        # zeroing the skip source's outgoing weights makes the skip inert
        net = init_network([3, 4, 4, 1], ["tanh", "tanh", "identity"],
                           skips=[(0, 2)], seed=4)
        net.layers[0].weights[...] = 0.0
        net.layers[0].biases[...] = 0.0
        x = np.array([[0.3, -1.2, 0.7]])
        with_skip, _ = net.forward(x)
        bare = MlpNetwork(net.layers)  # same layers, no skip
        without_skip, _ = bare.forward(x)
        np.testing.assert_array_equal(with_skip, without_skip)


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRowBlocks:
    @pytest.fixture
    def workers(self, monkeypatch):
        """Sets the process's worker count for one test."""
        return lambda count: monkeypatch.setattr(nn, "_workers", count)

    @pytest.mark.parametrize("rows", [2 * nn.BLOCK_ROWS + 3, 3 * nn.BLOCK_ROWS + 5])
    @pytest.mark.parametrize("out_dim", [1, 3])
    def test_results_do_not_depend_on_workers(self, workers, rows, out_dim):
        # up to three tile workers at 3 (more threads than a 2-core host has);
        # width 4 keeps every product below the size at which a
        # multi-threaded BLAS would split it itself
        net = init_network([4, 4, 4, out_dim], ["relu", "tanh", "identity"],
                           skips=[(-1, 1), (0, 2)], seed=12)
        rng = np.random.default_rng(13)
        x, g = rng.normal(size=(rows, 4)), rng.normal(size=(rows, out_dim))
        results = []
        for count in (1, 2, 3):
            workers(count)
            assert nn.tile_workers(rows) == min(count, rows // nn.BLOCK_ROWS)
            out, cache = net.forward(x)
            grads, input_grad = net.backward(cache, g)
            results.append([out, input_grad] + grads)
        for other in results[1:]:
            assert all(_bitwise_equal(a, b) for a, b in zip(results[0], other))

    @pytest.mark.parametrize("width", [20, 100, 201])
    def test_wide_results_do_not_depend_on_workers(self, workers, width):
        # 4128 rows, more than twice the rows a worker takes in a tile pass,
        # through a net shaped like the energy model's on a 4-lag window; at
        # these widths OpenBLAS gives a row other bits when a product is
        # split at row 2048 (dz @ W at 20 and 100, x @ W.T at 201), so
        # network passes must run unsplit whatever the worker count
        rows = 4128
        assert rows >= 2 * nn.BLOCK_ROWS
        net = init_network([4, width, width, width, 1], ["relu", "tanh", "tanh", "identity"],
                           skips=[(0, 2), (1, 3)], seed=12)
        rng = np.random.default_rng(13)
        x, g = rng.normal(size=(rows, 4)), rng.normal(size=(rows, 1))
        results = []
        for count in (1, 2):
            workers(count)
            out, cache = net.forward(x)
            grads, input_grad = net.backward(cache, g)
            results.append([out, input_grad] + grads)
        assert all(_bitwise_equal(a, b) for a, b in zip(*results))

    def test_tile_workers_take_one_worker_per_block_rows(self, workers):
        workers(3)
        rows = (0, 2 * nn.BLOCK_ROWS - 1, 2 * nn.BLOCK_ROWS, 3 * nn.BLOCK_ROWS + 50, 10000)
        assert [nn.tile_workers(r) for r in rows] == [1, 1, 2, 3, 3]
        workers(1)
        assert nn.tile_workers(10000) == 1

    def test_network_calls_stay_on_calling_thread(self, workers, monkeypatch):
        # the benchmark's tracer keeps one span stack, so forward and
        # backward must only ever be entered by the thread that calls them
        workers(2)
        callers = []
        for name in ("forward", "backward"):
            method = getattr(nn.MlpNetwork, name)

            def record(self, *args, _method=method, **kwargs):
                callers.append(threading.get_ident())
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(nn.MlpNetwork, name, record)
        pooled = []
        executor = nn._executor
        monkeypatch.setattr(nn, "_executor", lambda threads: pooled.append(threads)
                            or executor(threads))
        dataset = make_windows(simulate_ar("gaussian", 200, seed=3), WindowConfig(1, 0))
        model = ebm.build_ebnarx(dataset.cfg, width=8, seed=1,
                                 standardizer=fit_standardizer(dataset))
        # 16 targets with 128 noise samples each: 2064 candidates, 4 tiles on
        # two workers
        nce = ebm.NceConfig(128, (0.1, 0.8), seed=2)
        ebm.nce_loss(model, dataset.x[:16], dataset.y[:16], nce, np.random.default_rng(4))
        ebm.log_likelihood(model, dataset, GridSpec(-8.0, 8.0, 2048))
        assert callers and set(callers) == {threading.get_ident()}
        assert pooled

    def test_error_in_pool_block_reaches_caller(self, workers):
        workers(2)
        taken = threading.Event()
        failed_on = []

        def block(item, _buffers):
            if item == 0:
                # hold the calling thread until the pool has taken item 1
                assert taken.wait(timeout=10)
                return
            taken.set()
            failed_on.append(threading.get_ident())
            raise RuntimeError(f"block {item} failed")

        with pytest.raises(RuntimeError, match="block 1 failed"):
            nn.run_parallel(block, [0, 1], [(), ()])
        assert failed_on and failed_on[0] != threading.get_ident()

    def test_every_item_runs_once_under_fast_switching(self, workers):
        # helpers and the caller take items from one shared queue: each item
        # must run exactly once, with more workers than a 2-core host has,
        # and each worker must use one buffer set, its own
        workers(4)
        counts = [0] * 500
        buffer_sets = [[] for _ in range(4)]
        used = {}

        def bump(i, buffers):
            counts[i] += 1
            used.setdefault(threading.get_ident(), set()).add(id(buffers))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=nn.run_parallel,
                                      args=(bump, range(500), buffer_sets))
            runner.start()
            runner.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert counts == [1] * 500
        assert all(len(ids) == 1 for ids in used.values())
        assert len(set().union(*used.values())) == len(used)

    @pytest.mark.parametrize("count", [2, 3])
    def test_first_failing_item_raises(self, workers, count):
        # item 3 fails only after item 7 has failed on another worker: the
        # error of item 3, the first one in item order, reaches the caller,
        # as it would on one worker
        workers(count)
        later_failed = threading.Event()

        def block(item, _buffers):
            if item == 3:
                assert later_failed.wait(timeout=10)
                raise RuntimeError("item 3 failed")
            if item == 7:
                later_failed.set()
                raise RuntimeError("item 7 failed")

        with pytest.raises(RuntimeError, match="item 3 failed"):
            nn.run_parallel(block, range(10), [()] * count)

    @pytest.mark.parametrize("environ, cpus, expected", [
        ({}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 8),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 5, 2),
        ({"OMP_NUM_THREADS": "1"}, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 1),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "many"}, 4, 1),
    ])
    def test_worker_count_is_the_cpus_blas_leaves_free(self, environ, cpus, expected):
        assert worker_count(environ, cpus) == expected


def _layer(weights, biases):
    """An identity layer holding its own weight and bias arrays."""
    return DenseLayer(np.array(weights, dtype=float), np.array(biases, dtype=float), "identity")


class TestAdam:
    def test_parameters_are_consecutive_views_of_one_array(self):
        net = init_network([3, 5, 5, 1], ["tanh", "relu", "identity"],
                           skips=[(0, 2)], seed=7)
        before = [p.copy() for p in net.parameters()]
        state = init_adam(net.layers)
        params = net.parameters()
        assert state.params.ndim == 1 and state.params.dtype == np.float64
        assert all(p.base is state.params for p in params)
        assert state.shapes == [p.shape for p in before]
        # the vector starts at the layers' values, in parameters() order
        np.testing.assert_array_equal(state.params,
                                      np.concatenate([p.ravel() for p in before]))
        # numbering the vector's entries numbers the parameters in order
        state.params[...] = np.arange(state.params.size)
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]),
                                      np.arange(state.params.size))

    def test_energy_model_tail_reads_the_trained_vector(self):
        # the tail shares the predictor's layer objects, so it sees every step
        model = ebm.build_ebnarx(WindowConfig(2, 1), width=7, seed=3)
        state = init_adam(model.feature_net.layers + model.predictor_net.layers)
        params = model.feature_net.parameters() + model.predictor_net.parameters()
        adam_step([np.ones(p.shape) for p in params], state)
        tail = model.predictor_net.parameters()[2:]
        assert all(p is q for p, q in zip(model._tail.parameters(), tail))
        assert all(p.base is state.params for p in params)
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]),
                                      state.params)

    def test_zero_gradient_keeps_params(self):
        layer = _layer([[3.0]], [1.0])
        state = init_adam([layer])
        adam_step([np.zeros((1, 1)), np.zeros(1)], state)
        np.testing.assert_array_equal(layer.weights, [[3.0]])
        np.testing.assert_array_equal(layer.biases, [1.0])
        np.testing.assert_array_equal(state.m, 0.0)
        assert state.step_count == 1

    def test_first_step_magnitude(self):
        # hand evaluation of the update for t=1, g=1: m_hat = v_hat = 1
        layer = _layer([[0.0]], [0.0])
        state = init_adam([layer], learning_rate=1e-3)
        adam_step([np.ones((1, 1)), np.zeros(1)], state)
        np.testing.assert_allclose(layer.weights, [[-1e-3]], rtol=1e-6)
        np.testing.assert_array_equal(layer.biases, [0.0])

    def test_constant_gradient_moves_monotonically(self):
        layer = _layer([[0.0]], [0.0])
        state = init_adam([layer], learning_rate=1e-2)
        prev = 0.0
        for _ in range(25):
            adam_step([np.ones((1, 1)), np.zeros(1)], state)
            assert layer.weights[0, 0] < prev
            prev = layer.weights[0, 0]

    def test_nonfinite_gradient_raises(self):
        state = init_adam([_layer([[0.0]], [0.0])])
        with pytest.raises(TrainingError, match="parameter 0"):
            adam_step([np.array([[np.nan]]), np.zeros(1)], state)
        # a rejected step changes nothing, not even the parameters before
        # the one whose gradient is not finite
        layer = _layer(np.zeros((3, 1)), np.zeros(3))
        state = init_adam([layer])
        with pytest.raises(TrainingError, match=r"parameter 1 \(shape \(3,\)\)"):
            adam_step([np.ones((3, 1)), np.array([0.0, np.nan, 0.0])], state)
        for a in [layer.weights, layer.biases, state.m, state.v]:
            np.testing.assert_array_equal(a, 0.0)
        assert state.step_count == 0

    @pytest.mark.parametrize("index", [1, 3])
    def test_nonfinite_parameter_raises(self, index):
        # -1.7e308 minus a step of about the learning rate overflows
        net = init_network([2, 3, 1], ["tanh", "identity"], seed=0)
        net.parameters()[index].flat[0] = -1.7e308
        state = init_adam(net.layers, learning_rate=1e308)
        grads = [np.ones_like(p) for p in net.parameters()]
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match=f"non-finite parameter {index} after update"):
            adam_step(grads, state)

    def test_shape_mismatch_raises(self):
        state = init_adam([_layer(np.zeros((2, 1)), np.zeros(2))])
        with pytest.raises(ValueError, match=r"gradient 1 has shape \(3,\), expected \(2,\)"):
            adam_step([np.zeros((2, 1)), np.zeros(3)], state)
        with pytest.raises(ValueError, match="expected 2 gradients, got 1"):
            adam_step([np.zeros((2, 1))], state)


def _reference_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as a loop over the parameters, one array at a time."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i *= beta1
        m_i += (1.0 - beta1) * g
        v_i *= beta2
        v_i += (1.0 - beta2) * g * g
        step = m_i / c1
        step *= lr
        denom = v_i / c2
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p -= step


def _model_layers(model):
    return model.feature_net.layers + model.predictor_net.layers


@pytest.mark.parametrize("make", [
    pytest.param(lambda: init_network([4, 9, 9, 1], ["relu", "relu", "identity"],
                                      seed=2).layers, id="network"),
    pytest.param(lambda: _model_layers(ebm.build_ebnarx(WindowConfig(2, 1), width=7, seed=3)),
                 id="energy-model"),
    pytest.param(lambda: [DenseLayer(np.full((2, 3), 0.25), np.linspace(-1.0, 1.0, 2), "tanh"),
                          DenseLayer(np.array([[3.0]]), np.array([0.5]), "identity")],
                 id="standalone"),
])
def test_adam_matches_per_parameter_reference(make):
    layers = make()
    ref = [a.copy() for layer in make() for a in (layer.weights, layer.biases)]
    m, v = [np.zeros_like(p) for p in ref], [np.zeros_like(p) for p in ref]
    state = init_adam(layers, learning_rate=3e-3)
    rng = np.random.default_rng(5)
    for t in range(1, 8):
        grads = [rng.normal(scale=10.0 ** rng.integers(-4, 2), size=p.shape) for p in ref]
        adam_step(grads, state)
        _reference_adam_step(ref, grads, m, v, t, lr=3e-3)
        expected = b"".join(p.tobytes() for p in ref)
        assert state.params.tobytes() == expected
        assert b"".join(a.tobytes() for layer in layers
                        for a in (layer.weights, layer.biases)) == expected
        assert state.m.tobytes() == b"".join(m_i.tobytes() for m_i in m)
        assert state.v.tobytes() == b"".join(v_i.tobytes() for v_i in v)
    assert state.step_count == 7


class TestFitMinibatch:
    def test_restores_the_best_epochs_parameters(self):
        # held-out losses 3, 1, 2, 2 with patience 2: the best epoch is 1
        # and the second stale epoch, 3, is the last
        layer = _layer([[0.0]], [0.0])
        tc = ebm.TrainConfig(batch_size=2, max_epochs=10, patience=2, learning_rate=0.1,
                             lr_decay=1.0)
        val_losses, seen, calls = iter([3.0, 1.0, 2.0, 2.0]), [], []

        def batch_fn(idx):
            calls.append(idx)
            return 0.0, [np.ones((1, 1)), np.ones(1)]

        def val_fn():
            seen.append((layer.weights.copy(), layer.biases.copy()))
            return next(val_losses)

        log = nn.fit_minibatch([layer], tc, 4, batch_fn, val_fn, np.random.default_rng(0))
        assert [rec.epoch for rec in log] == [0, 1, 2, 3]
        assert [rec.val_loss for rec in log] == [3.0, 1.0, 2.0, 2.0]
        assert len(calls) == 8
        # every epoch moved the parameters, and the model ends at epoch 1's
        assert len({(w.tobytes(), b.tobytes()) for w, b in seen}) == 4
        np.testing.assert_array_equal(layer.weights, seen[1][0])
        np.testing.assert_array_equal(layer.biases, seen[1][1])


class TestSerialization:
    def test_round_trip_bit_exact(self):
        net = init_network([3, 5, 5, 1], ["relu", "tanh", "identity"],
                           skips=[(0, 2)], seed=11)
        doc = json.loads(json.dumps(network_to_dict(net)))
        back = network_from_dict(doc)
        assert back.skips == net.skips
        for pa, pb in zip(net.parameters(), back.parameters()):
            np.testing.assert_array_equal(pa, pb)
        x = np.array([[0.1, 0.2, 0.3]])
        out_a, _ = net.forward(x)
        out_b, _ = back.forward(x)
        np.testing.assert_array_equal(out_a, out_b)

    def test_loaded_network_trains_as_the_original(self):
        # a network read back from its document holds plain arrays, which
        # init_adam takes as it takes those of init_network
        net = init_network([3, 5, 5, 1], ["relu", "tanh", "identity"],
                           skips=[(0, 2)], seed=11)
        back = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
        x = np.random.default_rng(1).normal(size=(6, 3))
        initial = np.concatenate([p.ravel() for p in back.parameters()])
        states = [init_adam(n.layers, learning_rate=1e-2) for n in (net, back)]
        for _ in range(3):
            for n, state in zip((net, back), states):
                out, cache = n.forward(x)
                grads, _ = n.backward(cache, out)
                adam_step(grads, state)
        assert states[1].params.tobytes() == states[0].params.tobytes()
        assert all(p.base is states[1].params for p in back.parameters())
        out_a, _ = net.forward(x)
        out_b, _ = back.forward(x)
        np.testing.assert_array_equal(out_a, out_b)
        assert not np.array_equal(states[1].params, initial)

    @staticmethod
    def _net():
        return init_network([3, 5, 5, 1], ["relu", "tanh", "identity"],
                            skips=[(0, 2)], seed=11)

    @staticmethod
    def _b64(values):
        return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")

    def test_document_holds_base64_strings(self):
        # each array is one string: base64 over its C-order little-endian
        # float64 bytes
        net = self._net()
        doc = network_to_dict(net)
        for entry, layer in zip(doc["layers"], net.layers):
            assert isinstance(entry["weights"], str) and isinstance(entry["biases"], str)
            assert entry["weights"] == self._b64(layer.weights)
            assert entry["biases"] == self._b64(layer.biases)

    def test_decoded_arrays_own_their_data(self):
        net = self._net()
        back = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
        for a, b in zip(net.parameters(), back.parameters()):
            assert b.dtype == np.float64 and b.shape == a.shape
            assert b.flags.c_contiguous and b.flags.writeable and b.flags.owndata

    def test_list_form_and_base64_form_agree_bitwise(self):
        # files written before the base64 strings hold nested lists
        net = self._net()
        doc = network_to_dict(net)
        lists = {**doc, "layers": [
            {**entry, "weights": layer.weights.tolist(), "biases": layer.biases.tolist()}
            for entry, layer in zip(doc["layers"], net.layers)]}
        from_lists = network_from_dict(json.loads(json.dumps(lists)))
        from_strings = network_from_dict(json.loads(json.dumps(doc)))
        for a, b in zip(from_lists.parameters(), from_strings.parameters()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        x = np.random.default_rng(2).normal(size=(7, 3))
        assert from_lists.forward(x)[0].tobytes() == from_strings.forward(x)[0].tobytes()

    @pytest.mark.parametrize("key, value, message", [
        ("weights", lambda s: "*" + s[1:], "weights is not a base64 string"),
        ("biases", lambda s: s[:-4] + "AA=\u00e9", "biases is not a base64 string"),
        ("biases", lambda s: base64.b64encode(bytes(12)).decode("ascii"), "biases holds 12 bytes"),
        ("weights", lambda s: "", "weights holds no values"),
        ("weights", lambda s: TestSerialization._b64(np.ones(14)),
         "weights holds 14 values, not a multiple of the 5 biases"),
    ], ids=["outside-alphabet", "non-ascii", "ragged-bytes", "empty", "ragged-rows"])
    def test_malformed_string_names_the_array(self, key, value, message):
        doc = network_to_dict(self._net())
        entry = doc["layers"][0]
        entry[key] = value(entry[key])
        with pytest.raises(ValueError, match=message):
            network_from_dict(doc)

    def test_decoded_nan_is_rejected(self):
        net = self._net()
        weights = net.layers[1].weights.copy()
        weights[2, 3] = np.nan
        doc = network_to_dict(net)
        doc["layers"][1]["weights"] = self._b64(weights)
        with pytest.raises(ValueError, match="layer parameters must be finite"):
            network_from_dict(doc)
