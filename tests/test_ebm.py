"""Energy model, noise sampling, NCE loss and training."""

import threading
import tracemalloc

import numpy as np
import pytest

import ebnarx.ebm as ebm
import ebnarx.fcn as fcn
import ebnarx.nn as nn
from ebnarx.data import WindowConfig, fit_standardizer, make_windows, simulate_ar, simulate_arx
from ebnarx.ebm import (
    EbNarxModel,
    NceConfig,
    TrainConfig,
    build_ebnarx,
    log_likelihood,
    mixture_log_pdf,
    nce_loss,
    nce_loss_value,
    sample_noise,
    train_ebnarx,
)
from ebnarx.harness import load_model
from ebnarx.inference import GridSpec, GridTooNarrowError
from ebnarx.mathutil import normal_log_pdf
from ebnarx.nn import TrainingError, init_network

CFG = WindowConfig(1, 0)


def _parameters(model):
    """The energy model's parameter arrays, in the order of ``nce_loss``'s
    gradients: the feature net's, then the predictor net's."""
    return model.feature_net.parameters() + model.predictor_net.parameters()


def _zeroed_model(bias=0.0, width=6):
    model = build_ebnarx(CFG, width=width, seed=0)
    for p in _parameters(model):
        p[...] = 0.0
    model.predictor_net.layers[-1].biases[...] = bias
    return model


def _stall_first_pool_tile(monkeypatch, model, tiles):
    """Runs ``model``'s passes on 2 workers, a pool thread's first tile
    held until the calling thread has scored ``tiles - 1`` tiles; returns
    the counts of tiles each side scored."""
    caller = threading.get_ident()
    scored = {"caller": 0, "pool": 0}
    others_done = threading.Event()
    forward_rows = model._tail._forward_rows

    def stall_pool_thread(h, *bufs):
        if threading.get_ident() == caller:
            scored["caller"] += 1
            if scored["caller"] == tiles - 1:
                others_done.set()
        else:
            scored["pool"] += 1
            if scored["pool"] == 1:
                others_done.wait(5.0)
        forward_rows(h, *bufs)

    monkeypatch.setattr(model._tail, "_forward_rows", stall_pool_thread)
    monkeypatch.setattr(nn, "_workers", 2)
    return scored


@pytest.fixture()
def trained(ar_gaussian_model):
    return ar_gaussian_model


class TestEnergy:
    def test_constant_when_networks_zeroed(self):
        model = _zeroed_model(bias=1.25)
        assert model.energy(np.array([0.3]), 2.0) == 1.25
        assert model.energy(np.array([-5.0]), -7.0) == 1.25

    def test_pure(self):
        model = build_ebnarx(CFG, width=5, seed=3)
        x, y = np.array([0.4]), 0.9
        assert model.energy(x, y) == model.energy(x, y)

    def test_matches_two_step_composition(self):
        dataset = make_windows(simulate_ar("gaussian", 60, seed=4), CFG)
        std = fit_standardizer(dataset)
        model = build_ebnarx(CFG, width=7, seed=5, standardizer=std)
        x, y = dataset.x[3], float(dataset.y[3])
        feat, _ = model.feature_net.forward(std.apply_x(x)[None, :])
        manual, _ = model.predictor_net.forward(np.append(feat[0], std.apply_y(y))[None, :])
        assert model.energy(x, y) == pytest.approx(float(manual[0, 0]), rel=1e-15)

    def test_dimension_mismatch(self):
        model = build_ebnarx(CFG, width=5, seed=0)
        with pytest.raises(ValueError):
            model.energy(np.array([1.0, 2.0]), 0.0)
        # project is the one shape check: a one-row batch is not one regressor
        for one_row in (model.energy_grid, model.energy_and_ygrad):
            with pytest.raises(ValueError, match=r"shape \(n, 1\)"):
                one_row(np.array([[0.5]]), 0.0)

    def test_energy_grid_matches_pointwise(self):
        model = build_ebnarx(CFG, width=5, seed=8)
        ys = np.linspace(-2, 2, 9)
        grid_vals = model.energy_grid(np.array([0.5]), ys)
        for y_val, expect in zip(ys, grid_vals):
            assert model.energy(np.array([0.5]), y_val) == pytest.approx(expect, rel=1e-12)

    def test_ygrad_matches_finite_difference(self):
        model = build_ebnarx(CFG, width=6, seed=9)
        x, y = np.array([0.2]), 0.7
        _, slope = model.energy_and_ygrad(x, y)
        eps = 1e-6
        fd = (model.energy(x, y + eps) - model.energy(x, y - eps)) / (2 * eps)
        assert slope == pytest.approx(fd, rel=1e-6)


class TestEnergiesKernel:
    """The batched kernel against per-pair evaluation and an unsplit
    first layer."""

    CFG2 = WindowConfig(2, 1)

    def _model(self, width=9, seed=12):
        dataset = make_windows(simulate_arx(80, seed=13), self.CFG2)
        std = fit_standardizer(dataset)
        return build_ebnarx(self.CFG2, width=width, seed=seed, standardizer=std), dataset

    def test_matches_per_row_energy(self):
        model, ds = self._model()
        x = ds.x[:5]
        rng = np.random.default_rng(3)
        per_row = rng.normal(size=(5, 7))
        shared = np.linspace(-2.0, 2.0, 7)
        rows = model.project(x)
        for ys in (per_row, shared):
            g = model.energies(rows, ys)
            assert g.shape == (5, 7)
            for i in range(5):
                for j in range(7):
                    y = ys[i, j] if ys.ndim == 2 else ys[j]
                    assert g[i, j] == pytest.approx(model.energy(x[i], y), rel=1e-12)

    def test_ygrad_matches_finite_difference(self):
        model, ds = self._model()
        rows = model.project(ds.x[:4])
        ys = np.random.default_rng(4).normal(size=(4, 3))
        g, slope = model.energies(rows, ys, ygrad=True)
        np.testing.assert_array_equal(g, model.energies(rows, ys))
        eps = 1e-6
        fd = (model.energies(rows, ys + eps) - model.energies(rows, ys - eps)) / (2 * eps)
        np.testing.assert_allclose(slope, fd, rtol=1e-6, atol=1e-9)

    def test_project_returns_a_plain_array_in_both_families(self):
        # the energy model's is the regressor half of the predictor's first
        # layer, the baseline's its predicted means as one column
        model, ds = self._model()
        x = ds.x[:5]
        proj = model.project(x)
        assert type(proj) is np.ndarray and proj.dtype == float and proj.shape == (5, 9)
        feats = model.feature_net.forward(model.standardizer.apply_x(x))[0]
        layer0 = model.predictor_net.layers[0]
        np.testing.assert_array_equal(proj, feats @ layer0.weights[:, :-1].T + layer0.biases)
        baseline = fcn.FcnModel(fcn.build_fcn(self.CFG2, width=7, seed=1), model.standardizer,
                                0.5, self.CFG2)
        means = baseline.project(x)
        assert type(means) is np.ndarray and means.dtype == float and means.shape == (5, 1)
        np.testing.assert_array_equal(means[:, 0], fcn.fcn_predict(baseline, x)[0])

    def test_ygrad_pass_takes_the_reference_operations(self):
        # the y-gradient pass, operation by operation: the first layer as
        # y * w0y + proj, one tail pass forward and back with ones as the
        # output gradient, tanh's slope times the tail's input gradient, then
        # the product with w0y over the standard deviation; equal bits for
        # (n, 1), shared and per-row candidates
        model, ds = self._model(width=32)
        layer0 = model.predictor_net.layers[0]
        w0y = layer0.weights[:, -1]
        rng = np.random.default_rng(10)
        rows = model.project(ds.x[:6])
        for ys in (rng.normal(size=(6, 1)), rng.normal(size=5), rng.normal(size=(6, 5))):
            ys_std = np.broadcast_to(model.standardizer.apply_y(ys), (6, np.shape(ys)[-1]))
            h = np.tanh(ys_std[..., None] * w0y + rows[:, None, :]).reshape(-1, 32)
            out, cache = model._tail.forward(h)
            _, d_h = model._tail.backward(cache, np.ones((len(h), 1)))
            slope = ((1.0 - h * h) * d_h) @ w0y / model.standardizer.std_y
            g, d_y = model.energies(rows, ys, ygrad=True)
            assert g.tobytes() == out.tobytes()
            assert d_y.tobytes() == slope.tobytes()

    def test_slopes_read_after_a_later_pass(self):
        # each pass returns arrays of its own: a later pass leaves an
        # earlier pass's slopes as a pass read at once gives them
        model, ds = self._model(width=32)
        rows = model.project(ds.x[:4])
        ys = np.random.default_rng(12).normal(size=(2, 4, 1))
        _, early = model.energies(rows, ys[0], ygrad=True)
        _, late = model.energies(rows, ys[1], ygrad=True)
        assert early.tobytes() == model.energies(rows, ys[0], ygrad=True)[1].tobytes()
        assert late.tobytes() == model.energies(rows, ys[1], ygrad=True)[1].tobytes()

    def test_large_ygrad_pass_does_not_depend_on_workers(self, monkeypatch):
        # passes of at least 2 * BLOCK_ROWS candidates, which a tile pass
        # would spread over two workers: (n, 1) candidates as in a large
        # ascent, and shared or per-row candidates
        model, ds = self._model(width=32)
        rng = np.random.default_rng(9)
        assert 2 * nn.BLOCK_ROWS < 4100
        for n, ys in ((4100, rng.normal(size=(4100, 1))), (3, rng.normal(size=1500)),
                      (3, rng.normal(size=(3, 1500)))):
            rows = model.project(rng.normal(size=(n, model.input_dim)))
            results = []
            for count in (1, 2):
                monkeypatch.setattr(nn, "_workers", count)
                g, slope = model.energies(rows, ys, ygrad=True)
                assert g.shape == slope.shape == (n, np.shape(ys)[-1])
                results.append(g.tobytes() + slope.tobytes())
            assert results[1] == results[0]

    def test_nce_matches_unsplit_reference(self):
        # one tile (16 x 11 candidates); k = 2, 256 rows a tile, the last one
        # 88; k > 2 * TILE, one row a tile; k = 129, 4 rows a tile, the last
        # one 2
        for n, n_noise in ((16, 10), (600, 1), (3, 600), (18, 128)):
            self._check_nce_against_reference(n, n_noise)

    def _check_nce_against_reference(self, n, n_noise):
        dataset = make_windows(simulate_arx(n + 10, seed=13), self.CFG2)
        model = build_ebnarx(self.CFG2, width=12, seed=14,
                             standardizer=fit_standardizer(dataset))
        cfg = NceConfig(n_noise, (0.1, 0.8), seed=0)
        x, y = dataset.x[:n], dataset.y[:n]
        loss, grads = nce_loss(model, x, y, cfg, np.random.default_rng(5))

        # reference: the predictor on the explicit [feat, y] matrix
        std = model.standardizer
        n_cand = cfg.n_noise + 1
        ys = std.apply_y(y)
        noise, noise_log_q = sample_noise(ys, cfg, np.random.default_rng(5))
        candidates = np.concatenate([ys[:, None], noise], axis=1)
        log_q = np.concatenate(
            [mixture_log_pdf(ys, ys, cfg.sigmas)[:, None], noise_log_q], axis=1)
        feats, feat_cache = model.feature_net.forward(std.apply_x(x))
        pred_in = np.concatenate(
            [np.repeat(feats, n_cand, axis=0), candidates.reshape(-1, 1)], axis=1)
        g_flat, pred_cache = model.predictor_net.forward(pred_in)
        logits = g_flat.reshape(n, n_cand) - log_q
        soft = np.exp(logits - logits.max(axis=1, keepdims=True))
        soft /= soft.sum(axis=1, keepdims=True)
        ref_loss = float(-np.log(soft[:, 0]).mean())
        soft[:, 0] -= 1.0
        pred_grads, d_in = model.predictor_net.backward(pred_cache, soft.reshape(-1, 1) / n)
        feat_grads, _ = model.feature_net.backward(
            feat_cache, d_in[:, :-1].reshape(n, n_cand, -1).sum(axis=1))
        ref_grads = feat_grads + pred_grads

        assert loss == pytest.approx(ref_loss, rel=1e-10)
        assert [g.shape for g in grads] == [p.shape for p in _parameters(model)]
        norm = np.sqrt(sum(float((g * g).sum()) for g in ref_grads))
        worst = max(float(np.abs(a - b).max()) for a, b in zip(grads, ref_grads))
        assert worst <= 1e-10 * norm

    def _nce_minibatch(self, width, targets=32):
        """A model and a function giving the bytes of its NCE loss and
        gradients on ``targets`` targets x 129 candidates: tiles of 4
        targets, 8 of them at 32 targets."""
        dataset = make_windows(simulate_arx(targets + 28, seed=13), self.CFG2)
        model = build_ebnarx(self.CFG2, width=width, seed=15,
                             standardizer=fit_standardizer(dataset))
        cfg = NceConfig(128, (0.1, 0.8), seed=0)

        def run():
            loss, grads = nce_loss(model, dataset.x[:targets], dataset.y[:targets], cfg,
                                   np.random.default_rng(6))
            return np.concatenate([[loss]] + [g.ravel() for g in grads]).tobytes()

        return model, run

    @pytest.mark.parametrize("width", [20, 100])
    def test_nce_does_not_depend_on_workers(self, monkeypatch, width):
        # the tiles' gradient partials are summed in tile order whichever
        # worker scores them; width 20 is one at which a product split into
        # row blocks gives other bits than one unsplit product
        _, run = self._nce_minibatch(width)
        results = []
        for count in (1, 2, 3):
            monkeypatch.setattr(nn, "_workers", count)
            results.append(run())
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("targets", [32, 96])
    def test_nce_not_held_up_by_a_stalled_worker(self, monkeypatch, targets):
        # a pool thread that stalls in its first tile leaves every other
        # tile (7 of 8, or 23 of 24) to the calling thread, and the partials
        # are summed in tile order once the stalled tile's are in: loss and
        # gradients stay those of one worker
        model, run = self._nce_minibatch(width=8, targets=targets)
        monkeypatch.setattr(nn, "_workers", 1)
        expected = run()
        tiles = targets // 4
        scored = _stall_first_pool_tile(monkeypatch, model, tiles)
        assert run() == expected
        assert scored["caller"] + scored["pool"] == tiles
        assert scored["caller"] >= tiles - 1

    def test_nce_working_set_grows_with_rows_only(self, monkeypatch):
        # batch 512 against batch 64, k = 129, width 16: beyond the (n, k)
        # candidates and log densities nce_loss makes, the peak grows by the
        # per-row arrays only (features, dz_rows, the feature net's backward
        # pass), at most 16 n x width floats; one network pass over every
        # candidate would add some 13 n x k x width floats (92 MB here).
        # The noise is drawn before tracing.
        width, k = 16, 129
        model = build_ebnarx(CFG, width=width, seed=0)
        cfg = NceConfig(k - 1, (0.1, 0.8), seed=0)
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(512, 1)), rng.normal(size=512)
        draws = {n: sample_noise(y[:n], cfg, np.random.default_rng(0)) for n in (64, 512)}
        monkeypatch.setattr(ebm, "sample_noise", lambda centers, *_: draws[len(centers)])

        def peak(n):
            tracemalloc.start()
            try:
                nce_loss(model, x[:n], y[:n], cfg, None)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for count in (1, 3):
            monkeypatch.setattr(nn, "_workers", count)
            peak(64)  # the worker threads start outside the traced calls
            growth = peak(512) - peak(64)
            assert growth <= 8 * (512 - 64) * (2 * k + 16 * width)

    def test_grid_pass_runs_in_bounded_slices(self, monkeypatch):
        # grid passes run in tiles of ebm.TILE candidates, which straddle rows
        # (k = 300, 333, 4099), cover many rows (k = 1), take the end of a
        # row, whole rows and the start of another (k = 100, 129; the
        # held-out NCE loss's rows of 129), and leave remainders
        # that are no multiple of 64 rows (3000, 5 x 333, 2 x 4099); at 1,
        # 2 and 3 workers the energies must equal one unsliced pass bit for
        # bit.  Width 4 keeps the products small enough that a
        # multi-threaded BLAS does not split them itself.
        model, _ = self._model(width=4)
        rng = np.random.default_rng(6)
        tiles = []
        forward_rows = model._tail._forward_rows
        monkeypatch.setattr(model._tail, "_forward_rows",
                            lambda h, *bufs: tiles.append(len(h)) or forward_rows(h, *bufs))
        for n, k in ((3, 2048), (37, 300), (3000, 1), (5, 333), (2, 4099), (40, 100),
                     (12, 129)):
            rows = model.project(rng.normal(size=(n, model.input_dim)))
            for ys in (rng.normal(size=k), rng.normal(size=(n, k))):
                for count in (1, 2, 3):
                    monkeypatch.setattr(nn, "_workers", count)
                    # the y-gradient pass: one network pass over every candidate
                    whole = model.energies(rows, ys, ygrad=True)[0]
                    tiles.clear()
                    np.testing.assert_array_equal(model.energies(rows, ys), whole)
                    assert sum(tiles) == n * k
                    assert max(tiles) < 2 * ebm.TILE
                    assert min(tiles) >= ebm.TILE or tiles == [n * k]
        assert ebm.TILE % 64 == 0

    def test_grid_pass_working_set_independent_of_rows(self, monkeypatch):
        # beyond the (n, k) energies, a grid pass holds five buffers of at
        # most 2 * TILE candidates per worker (about 0.25 MB each worker at
        # width 16), whatever the number of rows; 64 rows x 2048 points in
        # one network pass would hold about 84 MB
        model = build_ebnarx(CFG, width=16, seed=0)
        grid = GridSpec(-3.0, 3.0, 2048)
        x = np.random.default_rng(7).normal(size=(64, 1))

        def peak_beyond_output(n):
            rows = model.project(x[:n])
            tracemalloc.start()
            try:
                g = model.energies(rows, grid.ys)
                return tracemalloc.get_traced_memory()[1] - g.nbytes
            finally:
                tracemalloc.stop()

        for count in (1, 3):
            monkeypatch.setattr(nn, "_workers", count)
            for n in (1, 4, 64):
                assert peak_beyond_output(n) <= 2**21

    def test_grid_pass_not_held_up_by_a_stalled_worker(self, monkeypatch):
        # a pool thread that stalls in its first tile (descheduled, say)
        # leaves every other tile to the calling thread, which scores them
        # all before the stalled tile is let go
        model, _ = self._model(width=4)
        rng = np.random.default_rng(8)
        rows = model.project(rng.normal(size=(5, model.input_dim)))
        ys = rng.normal(size=2048)
        whole = model.energies(rows, ys, ygrad=True)[0]
        tiles = whole.size // ebm.TILE  # 40, none with a remainder
        scored = _stall_first_pool_tile(monkeypatch, model, tiles)
        np.testing.assert_array_equal(model.energies(rows, ys), whole)
        assert scored["caller"] + scored["pool"] == tiles
        assert scored["caller"] >= tiles - 1

    def test_non_finite_candidate_rejected(self, monkeypatch):
        # the last of 3000 candidates is NaN: at 2 workers a pool thread may
        # score its tile
        model, ds = self._model()
        ys = np.append(np.linspace(-2.0, 2.0, 2999), np.nan)
        for count in (1, 2):
            monkeypatch.setattr(nn, "_workers", count)
            with pytest.raises(ValueError, match="non-finite"):
                model.energies(model.project(ds.x[:1]), ys)

    @pytest.mark.parametrize("ygrad", [False, True])
    def test_candidates_of_another_rank_rejected(self, ygrad):
        model, ds = self._model()
        rows = model.project(ds.x[:2])
        for ys in (np.float64(0.5), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match=r"shape \(k,\) or \(2, k\)"):
                model.energies(rows, ys, ygrad=ygrad)

    def test_single_layer_predictor_rejected(self):
        model = build_ebnarx(CFG, width=4, seed=0)
        with pytest.raises(ValueError, match="two layers"):
            EbNarxModel(model.feature_net, init_network([5, 1], ["identity"]),
                        model.standardizer, CFG)


class TestSampleNoise:
    def test_single_component_center_density(self):
        cfg = NceConfig(4, (1.0,), seed=0)
        assert mixture_log_pdf(0.0, 0.0, cfg.sigmas) == pytest.approx(
            -0.5 * np.log(2 * np.pi), abs=1e-12
        )

    def test_two_component_center_density(self):
        # q(center) = (1/2) * (1/(0.1 sqrt(2 pi)) + 1/(0.8 sqrt(2 pi)))
        value = np.exp(mixture_log_pdf(0.0, 0.0, (0.1, 0.8)))
        expected = 0.5 * (1 / (0.1 * np.sqrt(2 * np.pi)) + 1 / (0.8 * np.sqrt(2 * np.pi)))
        assert value == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.2440503, abs=1e-6)
        assert np.log(expected) == pytest.approx(0.8082824, abs=1e-6)

    def test_log_q_is_exact_mixture_density(self):
        cfg = NceConfig(64, (0.3, 1.5), seed=0)
        samples, log_q = sample_noise(np.array([2.0]), cfg, np.random.default_rng(0))
        per_comp = np.stack([normal_log_pdf(samples, 2.0, s) for s in cfg.sigmas])
        expected = np.log(np.exp(per_comp).mean(axis=0))
        np.testing.assert_allclose(log_q, expected, rtol=1e-12)

    def test_empirical_variance(self):
        cfg = NceConfig(100_000, (0.1, 0.8), seed=0)
        samples, _ = sample_noise(np.array([0.0]), cfg, np.random.default_rng(42))
        np.testing.assert_allclose(samples.var(), 0.5 * (0.01 + 0.64), rtol=0.05)

    @pytest.mark.parametrize("centers", [0.0, np.float64(1.0), np.zeros((2, 1))],
                             ids=["float", "numpy-scalar", "column"])
    def test_centers_of_another_rank_rejected(self, centers):
        cfg = NceConfig(8, (0.5,), seed=0)
        with pytest.raises(ValueError, match=r"shape \(n,\)"):
            sample_noise(centers, cfg, np.random.default_rng(1))

    def test_vector_centers(self):
        cfg = NceConfig(8, (0.5,), seed=0)
        centers = np.array([-1.0, 0.0, 4.0])
        samples, log_q = sample_noise(centers, cfg, np.random.default_rng(1))
        assert samples.shape == (3, 8) and log_q.shape == (3, 8)
        # samples should track their centers
        assert np.all(np.abs(samples - centers[:, None]) < 4.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NceConfig(0, (0.1,), 0)
        with pytest.raises(ValueError):
            NceConfig(4, (), 0)
        with pytest.raises(ValueError):
            NceConfig(4, (0.1, -0.2), 0)

    @pytest.mark.parametrize("n_noise", [8.5, 8.0, True, "8"])
    def test_non_integer_noise_count_rejected(self, n_noise):
        with pytest.raises(ValueError, match="n_noise must be an integer"):
            NceConfig(n_noise, (0.1,), 0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, True, "0.8"])
    def test_non_finite_or_zero_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigmas must be non-empty, positive and finite"):
            NceConfig(4, (0.1, sigma), 0)

    @pytest.mark.parametrize("seed", [1.5, -1, False])
    def test_bad_noise_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="noise seed must be a non-negative integer"):
            NceConfig(4, (0.1,), seed)

    def test_numpy_scalars_accepted(self):
        cfg = NceConfig(np.int64(4), (np.float64(0.1),), np.int32(0))
        assert cfg.n_noise == 4 and cfg.sigmas == (0.1,)


class TestNceLoss:
    def test_uniform_logits_give_log_m_plus_one(self):
        # stub: energies identical to noise log densities -> every logit equal
        rng = np.random.default_rng(0)
        log_q = rng.normal(size=(5, 4))  # M = 3
        assert nce_loss_value(log_q, log_q) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            energies = rng.normal(scale=3.0, size=(4, 9))
            log_q = rng.normal(scale=2.0, size=(4, 9))
            assert nce_loss_value(energies, log_q) >= 0.0

    def test_shift_invariance(self):
        dataset = make_windows(simulate_ar("gaussian", 80, seed=2), CFG)
        std = fit_standardizer(dataset)
        model = build_ebnarx(CFG, width=6, seed=1, standardizer=std)
        cfg = NceConfig(16, (0.1, 0.8), seed=0)
        loss_a, _ = nce_loss(model, dataset.x[:20], dataset.y[:20], cfg,
                             np.random.default_rng(7), compute_grads=False)
        model.predictor_net.layers[-1].biases[...] += 12.5
        loss_b, _ = nce_loss(model, dataset.x[:20], dataset.y[:20], cfg,
                             np.random.default_rng(7), compute_grads=False)
        assert abs(loss_a - loss_b) < 1e-10

    def test_gradients_match_finite_differences(self):
        dataset = make_windows(simulate_ar("gaussian", 50, seed=3), CFG)
        std = fit_standardizer(dataset)
        model = build_ebnarx(CFG, width=4, seed=2, standardizer=std)
        cfg = NceConfig(6, (0.1, 0.8), seed=0)
        xb, yb = dataset.x[:8], dataset.y[:8]
        _, grads = nce_loss(model, xb, yb, cfg, np.random.default_rng(11))
        worst = 0.0
        for pi, p in enumerate(_parameters(model)):
            flat, gflat = p.ravel(), grads[pi].ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + 1e-5
                hi, _ = nce_loss(model, xb, yb, cfg, np.random.default_rng(11),
                                 compute_grads=False)
                flat[k] = orig - 1e-5
                lo, _ = nce_loss(model, xb, yb, cfg, np.random.default_rng(11),
                                 compute_grads=False)
                flat[k] = orig
                fd = (hi - lo) / 2e-5
                worst = max(worst, abs(fd - gflat[k]) / (max(abs(fd), abs(gflat[k])) + 1e-8))
        assert worst < 1e-4

    def test_nonfinite_energy_identifies_element(self, monkeypatch):
        # every element overflows; 16 targets x 129 candidates make 4 tiles,
        # and whichever worker fails first, the first element is named
        dataset = make_windows(simulate_ar("gaussian", 50, seed=3), CFG)
        model = build_ebnarx(CFG, width=4, seed=2)
        model.predictor_net.layers[-1].weights[...] = 1e308
        model.predictor_net.layers[-1].biases[...] = 1e308
        for count in (1, 2):
            monkeypatch.setattr(nn, "_workers", count)
            with np.errstate(over="ignore"), pytest.raises(TrainingError,
                                                           match="batch element 0$"):
                nce_loss(model, dataset.x[:16], dataset.y[:16],
                         NceConfig(128, (0.1,), 0), np.random.default_rng(0))

    def test_empty_batch_rejected(self):
        model = build_ebnarx(CFG, width=4, seed=2)
        with pytest.raises(ValueError):
            nce_loss(model, np.zeros((0, 1)), np.zeros(0),
                     NceConfig(4, (0.1,), 0), np.random.default_rng(0))

    @pytest.mark.parametrize("x, y, shape", [
        (np.zeros(1), 0.0, r"y batch must have shape \(n,\)"),  # one pair
        (np.zeros((2, 1)), np.zeros((2, 1)), r"y batch must have shape \(n,\)"),
        (np.zeros(1), np.zeros(1), r"x batch must have shape \(1, 1\)"),
    ], ids=["one-pair", "column-targets", "one-row"])
    def test_batch_of_another_rank_rejected(self, x, y, shape):
        model = build_ebnarx(CFG, width=4, seed=2)
        with pytest.raises(ValueError, match=shape):
            nce_loss(model, x, y, NceConfig(4, (0.1,), 0), np.random.default_rng(0))


class TestTrain:
    def test_improves_on_untrained(self, trained):
        model, log, dataset = trained
        nce = NceConfig(32, (0.1, 0.8), seed=0)
        fresh = build_ebnarx(CFG, width=32, seed=0, standardizer=model.standardizer)
        holdout = make_windows(simulate_ar("gaussian", 300, seed=404), CFG)
        untrained_loss, _ = nce_loss(fresh, holdout.x, holdout.y, nce,
                                     np.random.default_rng(0), compute_grads=False)
        trained_loss, _ = nce_loss(model, holdout.x, holdout.y, nce,
                                   np.random.default_rng(0), compute_grads=False)
        assert trained_loss < untrained_loss

    def test_deterministic(self):
        dataset = make_windows(simulate_ar("gaussian", 200, seed=5), CFG)
        nce = NceConfig(8, (0.1, 0.8), seed=1)
        tc = TrainConfig(batch_size=32, max_epochs=5, patience=3)
        _, log_a = train_ebnarx(dataset, nce, tc, width=8, seed=3)
        _, log_b = train_ebnarx(dataset, nce, tc, width=8, seed=3)
        assert [(r.train_loss, r.val_loss) for r in log_a] == \
               [(r.train_loss, r.val_loss) for r in log_b]

    def test_standardized_training_invariant_to_output_scale(self):
        # scaling outputs by a power of two leaves standardized space untouched
        base = simulate_ar("gaussian", 200, seed=6)
        scaled = type(base)(base.u.copy(), 4.0 * base.y)
        nce = NceConfig(8, (0.1, 0.8), seed=1)
        tc = TrainConfig(batch_size=32, max_epochs=4, patience=3)
        _, log_a = train_ebnarx(make_windows(base, CFG), nce, tc, width=8, seed=3)
        _, log_b = train_ebnarx(make_windows(scaled, CFG), nce, tc, width=8, seed=3)
        assert [(r.train_loss, r.val_loss) for r in log_a] == \
               [(r.train_loss, r.val_loss) for r in log_b]

    def test_too_small_dataset_rejected(self):
        dataset = make_windows(simulate_ar("gaussian", 20, seed=5), CFG)
        with pytest.raises(ValueError, match="batch_size"):
            train_ebnarx(dataset, NceConfig(4, (0.1,), 0),
                         TrainConfig(batch_size=64, max_epochs=5, patience=2))

    def test_hold_out_leaving_no_training_rows_rejected(self):
        # 10 rows, of which round(9.5) = 10 are held out
        dataset = make_windows(simulate_ar("gaussian", 11, seed=5), CFG)
        with pytest.raises(ValueError, match=r"val_fraction=0\.95 holds out 10 of the "
                                             r"dataset's 10 rows, leaving no training rows"):
            train_ebnarx(dataset, NceConfig(4, (0.1,), 0),
                         TrainConfig(batch_size=4, max_epochs=5, patience=2,
                                     val_fraction=0.95))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=300, max_epochs=300)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=1.5)
        for lr in [0.0, -1e-3, np.nan, np.inf, True, "0.01"]:
            with pytest.raises(ValueError, match="learning_rate must be a positive finite"):
                TrainConfig(learning_rate=lr)
        for name, value in [("lr_decay", True), ("lr_decay", "0.9"), ("val_fraction", "0.1")]:
            with pytest.raises(ValueError, match=f"{name} must be a number in"):
                TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("batch_size", 32.0), ("max_epochs", 2.0), ("patience", True), ("max_epochs", "5"),
    ])
    def test_non_integer_count_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            TrainConfig(**{"max_epochs": 10, "patience": 2, name: value})

    def test_numpy_integer_counts_accepted(self):
        tc = TrainConfig(batch_size=np.int64(8), max_epochs=np.int64(3), patience=np.int64(2))
        assert tc.max_epochs == 3


class TestLogLikelihood:
    def test_constant_energy_gives_uniform(self):
        model = _zeroed_model(bias=2.0)
        dataset = make_windows(simulate_ar("gaussian", 40, seed=7), CFG)
        grid = GridSpec(-3.0, 5.0, 2048)
        ll = log_likelihood(model, dataset, grid)
        assert ll == pytest.approx(-np.log(8.0), abs=1e-6)

    def test_narrow_grid_raises(self):
        model = _zeroed_model(bias=0.0)
        dataset = make_windows(simulate_ar("gaussian", 40, seed=7), CFG)
        with pytest.raises(GridTooNarrowError):
            log_likelihood(model, dataset, GridSpec(-1.0, 1.0, 64))

    def test_off_grid_target_raises(self):
        # constant energies would extrapolate flat and score the target as
        # if it lay on the grid
        model = _zeroed_model(bias=2.0)
        dataset = make_windows(simulate_ar("gaussian", 40, seed=7), CFG)
        dataset.y[3] = 7.5
        with pytest.raises(GridTooNarrowError, match=r"target 7\.5 of row 3 "):
            log_likelihood(model, dataset, GridSpec(-3.0, 5.0, 2048))

    def test_grid_refinement_stable(self, trained):
        model, _, dataset = trained
        val = make_windows(simulate_ar("gaussian", 120, seed=70), CFG)
        lo = model.standardizer.y_min - 3 * model.standardizer.std_y
        hi = model.standardizer.y_max + 3 * model.standardizer.std_y
        coarse = log_likelihood(model, val, GridSpec(lo, hi, 2048))
        fine = log_likelihood(model, val, GridSpec(lo, hi, 4096))
        assert abs(coarse - fine) < 1e-4

    def test_close_to_true_density(self, trained):
        model, _, _ = trained
        val = make_windows(simulate_ar("gaussian", 1500, seed=71), CFG)
        lo = model.standardizer.y_min - 3 * model.standardizer.std_y
        hi = model.standardizer.y_max + 3 * model.standardizer.std_y
        ll = log_likelihood(model, val, GridSpec(lo, hi, 2048))
        true_ll = float(normal_log_pdf(val.y, 0.95 * val.x[:, 0], 0.2).mean())
        assert true_ll - ll < 0.1


class TestSerialization:
    def test_round_trip(self, tmp_path, trained):
        model, _, dataset = trained
        path = tmp_path / "model.json"
        ebm.save_model(model, path)
        back = load_model(path)
        x, y = dataset.x[5], float(dataset.y[5])
        assert back.energy(x, y) == model.energy(x, y)
        assert back.window_cfg == model.window_cfg
        assert back.nce == model.nce
