import json
import math
import warnings

import numpy as np
import pytest

from gnssweight.errors import EmptySplit, MissingTruth, ShapeMismatch, VersionMismatch
from gnssweight.nn import (
    LABEL_EPSILON_M,
    WEIGHT_CEIL,
    WEIGHT_FLOOR,
    LstmModel,
    TrainConfig,
    lstm_backward,
    lstm_forward,
    load_checkpoint,
    make_labels,
    predict_weights,
    quality_to_weights,
    save_checkpoint,
    train,
    truth_clock_biases,
)
from conftest import make_epoch


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _naive_forward(model, fm):
    """Step-by-step scalar reference, written independently of the package."""
    H = model.hidden
    layer_in = [np.asarray(row, dtype=float) for row in fm]
    for layer in range(model.n_layers):
        W, U, b = model.W[layer], model.U[layer], model.b[layer]
        h = np.zeros(H)
        c = np.zeros(H)
        outs = []
        for x in layer_in:
            z = W @ x + U @ h + b
            i = _sigmoid(z[0:H])
            f = _sigmoid(z[H : 2 * H])
            g = np.tanh(z[2 * H : 3 * H])
            o = _sigmoid(z[3 * H : 4 * H])
            c = f * c + i * g
            h = o * np.tanh(c)
            outs.append(h)
        layer_in = outs
    return np.array([model.head_w @ h + model.head_b for h in layer_in])


def _reference_backward(model, fm, labels):
    """The per-sample, per-step BPTT loop that the packed trainer replaced:
    (4H, D) matrix-vector products and one outer product per step."""
    n = fm.shape[0]
    H = model.hidden
    caches = []
    layer_in = fm
    for layer in range(model.n_layers):
        W, U, b = model.W[layer], model.U[layer], model.b[layer]
        h = np.zeros(H)
        c = np.zeros(H)
        steps = []
        hs = np.empty((n, H))
        for t in range(n):
            x = layer_in[t]
            z = W @ x + U @ h + b
            i = _sigmoid(z[:H])
            f = _sigmoid(z[H : 2 * H])
            g = np.tanh(z[2 * H : 3 * H])
            o = _sigmoid(z[3 * H :])
            c_prev = c
            h_prev = h
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            hs[t] = h
            steps.append((x, h_prev, c_prev, i, f, g, o, c, tc))
        caches.append((layer_in, steps))
        layer_in = hs
    outputs = layer_in @ model.head_w + model.head_b
    err = outputs - labels
    sse = float(np.sum(err * err))
    dy = 2.0 * err

    grads = {name: np.zeros_like(arr) for name, arr in model.param_items()}
    grads["head_b"] = np.zeros(())
    grads["head_w"] += layer_in.T @ dy
    grads["head_b"] += np.sum(dy)
    dh_above = dy[:, None] * model.head_w[None, :]
    for layer in range(model.n_layers - 1, -1, -1):
        layer_in, steps = caches[layer]
        W, U = model.W[layer], model.U[layer]
        dW = grads[f"W{layer}"]
        dU = grads[f"U{layer}"]
        db = grads[f"b{layer}"]
        dx_below = np.zeros_like(layer_in)
        dh_next = np.zeros(H)
        dc_next = np.zeros(H)
        for t in range(n - 1, -1, -1):
            x, h_prev, c_prev, i, f, g, o, c, tc = steps[t]
            dh = dh_above[t] + dh_next
            do = dh * tc
            dc = dh * o * (1.0 - tc * tc) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ]
            )
            dW += np.outer(dz, x)
            dU += np.outer(dz, h_prev)
            db += dz
            dx_below[t] = W.T @ dz
            dh_next = U.T @ dz
        dh_above = dx_below
    return sse, grads


def _packed_problem(rng, lengths, dim):
    fm = rng.normal(size=(int(np.sum(lengths)), dim))
    return fm, rng.normal(size=fm.shape[0])


def _zero_error_rows(rng, model, fm, labels, lengths=None):
    """``labels`` with about 30% of the rows set to the model's outputs,
    so that their error is exactly 0 and they add nothing to the loss."""
    labels = labels.copy()
    rows = rng.uniform(size=fm.shape[0]) >= 0.7
    labels[rows] = lstm_forward(model, fm, lengths)[rows]
    return labels


def _segments(lengths):
    ends = np.cumsum(lengths)
    return [slice(e - n, e) for n, e in zip(lengths, ends)]


def _assert_rel(got, want, tol=1e-12):
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(got - want)) <= tol * scale


def test_zero_parameter_forward():
    model = LstmModel.init(4, 3, np.random.default_rng(0))
    for layer in range(model.n_layers):
        model.W[layer][:] = 0.0
        model.U[layer][:] = 0.0
        model.b[layer][:] = 0.0
    model.head_w[:] = 0.0
    model.head_b = 0.25
    y = lstm_forward(model, np.ones((5, 4)))
    assert np.allclose(y, 0.25, atol=1e-15)


def test_forward_matches_naive_recurrence():
    rng = np.random.default_rng(7)
    model = LstmModel.init(6, 5, rng)
    model.head_b = 0.3
    for n in (1, 2, 9):
        fm = rng.normal(size=(n, 6))
        assert np.max(np.abs(lstm_forward(model, fm) - _naive_forward(model, fm))) < 1e-12


def test_forward_shape_guard():
    model = LstmModel.init(6, 4, np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        lstm_forward(model, np.zeros((3, 5)))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    model = LstmModel.init(5, 4, rng)
    model.head_b = -0.1
    fm = rng.normal(size=(7, 5))
    labels = rng.normal(size=7)
    sse, grads = lstm_backward(model, fm, labels)

    def loss():
        y = lstm_forward(model, fm)
        return float(np.sum((y - labels) ** 2))

    assert sse == pytest.approx(loss(), rel=1e-12)

    h = 1e-5
    checked = 0
    for name, arr in model.param_items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        probes = rng.choice(flat.size, size=min(16, flat.size), replace=False)
        for idx in probes:
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss()
            flat[idx] = orig - h
            lm = loss()
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(gflat[idx]))
            if denom < 1e-7:
                assert abs(fd - gflat[idx]) < 1e-7
            else:
                assert abs(fd - gflat[idx]) / denom < 1e-4
            checked += 1
    # head bias via the scalar attribute
    model.head_b += h
    lp = loss()
    model.head_b -= 2 * h
    lm = loss()
    model.head_b += h
    fd = (lp - lm) / (2 * h)
    assert fd == pytest.approx(float(grads["head_b"]), rel=1e-6)
    assert checked >= 100


def test_zero_loss_has_zero_gradients():
    rng = np.random.default_rng(6)
    model = LstmModel.init(4, 3, rng)
    fm = rng.normal(size=(5, 4))
    labels = lstm_forward(model, fm)  # loss is exactly zero at these labels
    sse, grads = lstm_backward(model, fm, labels)
    assert sse == 0.0
    for k, g in grads.items():
        assert np.max(np.abs(g)) < 1e-12


def test_patience_zero_stops_at_first_bad_eval():
    rng = np.random.default_rng(12)
    train_s = _toy_dataset(rng, n_samples=12)
    val_s = _toy_dataset(rng, n_samples=6)
    cfg = TrainConfig(learning_rate=0.2, batch_size=4, max_epochs=50, patience=0, seed=1, hidden=8)
    _, rep = train(train_s, val_s, cfg)
    # training ends right after the first evaluation that fails to improve
    assert len(rep.val_losses) == rep.best_epoch + 2


def test_labels_from_truth(rng):
    epoch, truth = make_epoch(rng, n=8, biases={2: 25.0})
    labels = make_labels(epoch)
    # clock fit is exact at truth, so the error is the injected bias only
    idx = next(i for i, m in enumerate(epoch.measurements) if m.sv_id == 3)
    consts = epoch.constellations()
    k = consts.index(epoch.measurements[idx].constellation)
    n_k = sum(1 for m in epoch.measurements if m.constellation == consts[k])
    # the bias leaks 25/n_k into its constellation's mean clock
    leaked = 25.0 * (1.0 - 1.0 / n_k)
    assert labels[idx] == pytest.approx(math.log(leaked), abs=1e-6)
    clean = [
        i for i, m in enumerate(epoch.measurements)
        if i != idx and m.constellation != consts[k]
    ]
    for i in clean:
        assert labels[i] == pytest.approx(math.log(LABEL_EPSILON_M), abs=1e-6)


def test_labels_require_truth(rng):
    from gnssweight.model import Epoch

    epoch, _ = make_epoch(rng, n=6)
    stripped = Epoch(time=epoch.time, measurements=epoch.measurements)
    with pytest.raises(MissingTruth):
        make_labels(stripped)


def test_truth_clock_biases_recovers_simulated_clock(rng):
    epoch, truth = make_epoch(rng, n=8)
    fitted = truth_clock_biases(epoch)
    for c, b in truth.clock_bias.items():
        assert fitted[c] == pytest.approx(b, abs=1e-15)


def test_quality_to_weights_mapping():
    # omega = 1/sigma^2 with quality = log sigma
    assert quality_to_weights(np.array([0.0]))[0] == pytest.approx(1.0)
    assert quality_to_weights(np.array([math.log(10.0)]))[0] == pytest.approx(0.01)
    # clamped at both ends and monotone nonincreasing
    q = np.linspace(-20, 20, 200)
    w = quality_to_weights(q)
    assert w.max() == WEIGHT_CEIL
    assert w.min() == WEIGHT_FLOOR
    assert np.all(np.diff(w) <= 0)


def _toy_dataset(rng, n_samples=24, n_rows=6, dim=5):
    """Quality = scaled first feature: learnable from one linear readout."""
    samples = []
    for _ in range(n_samples):
        fm = rng.normal(size=(n_rows, dim))
        labels = 0.5 * fm[:, 0]
        samples.append((fm, labels))
    return samples


def test_training_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(0)
    train_s = _toy_dataset(rng)
    val_s = _toy_dataset(rng, n_samples=8)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=15, patience=15, seed=9, hidden=8)
    m1, rep1 = train(train_s, val_s, cfg)
    m2, rep2 = train(train_s, val_s, cfg)
    assert rep1.val_losses[-1] < rep1.val_losses[0]
    assert rep1.train_losses == rep2.train_losses
    assert rep1.val_losses == rep2.val_losses
    for (k1, a1), (k2, a2) in zip(m1.param_items(), m2.param_items()):
        assert k1 == k2
        assert np.array_equal(a1, a2)
    assert m1.head_b == m2.head_b
    # different seed walks a different path
    m3, rep3 = train(train_s, val_s, TrainConfig(
        learning_rate=1e-2, batch_size=8, max_epochs=15, patience=15, seed=10, hidden=8
    ))
    assert rep3.train_losses != rep1.train_losses


def test_early_stopping_returns_best_snapshot():
    rng = np.random.default_rng(1)
    train_s = _toy_dataset(rng, n_samples=16)
    val_s = _toy_dataset(rng, n_samples=8)
    cfg = TrainConfig(learning_rate=5e-2, batch_size=4, max_epochs=40, patience=3, seed=2, hidden=8)
    model, rep = train(train_s, val_s, cfg)
    assert rep.best_val == min(rep.val_losses)
    assert rep.val_losses[rep.best_epoch] == rep.best_val
    # the returned model reproduces the best validation loss exactly
    from gnssweight.nn import _mean_loss

    assert _mean_loss(model, val_s) == rep.best_val
    # patience bounds the tail beyond the best epoch
    assert len(rep.val_losses) <= rep.best_epoch + 1 + cfg.patience + 1


def test_empty_split_rejected():
    cfg = TrainConfig()
    with pytest.raises(EmptySplit):
        train([], [(np.zeros((2, 3)), np.zeros(2))], cfg)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    model = LstmModel.init(14, 6, rng)
    model.head_b = 0.125
    cfg = TrainConfig(seed=77, hidden=6, feature_mode="residual")
    mean = rng.normal(size=14)
    std = rng.uniform(0.5, 2.0, size=14)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, mean, std, cfg)
    loaded, lmean, lstd, lcfg = load_checkpoint(path)
    assert lcfg == cfg
    with np.load(path) as data:  # the checkpoint layout keeps an empty "extra"
        assert json.loads(bytes(data["meta"]))["extra"] == {}
    assert np.array_equal(lmean, mean)
    assert np.array_equal(lstd, std)
    assert loaded.head_b == model.head_b
    for (k1, a1), (k2, a2) in zip(model.param_items(), loaded.param_items()):
        assert k1 == k2
        assert np.array_equal(a1, a2)
    fm = rng.normal(size=(7, 14))
    assert np.array_equal(lstm_forward(model, fm), lstm_forward(loaded, fm))
    assert np.array_equal(predict_weights(model, fm), predict_weights(loaded, fm))


def test_checkpoint_version_guard(tmp_path):
    rng = np.random.default_rng(5)
    model = LstmModel.init(4, 3, rng)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, np.zeros(4), np.ones(4), TrainConfig())
    data = dict(np.load(path))
    meta = json.loads(bytes(data["meta"]))
    meta["version"] = 99
    data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **data)
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def test_checkpoint_with_retired_split_key_loads(tmp_path):
    model = LstmModel.init(4, 3, np.random.default_rng(5))
    cfg = TrainConfig(seed=3, hidden=3)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, np.zeros(4), np.ones(4), cfg)
    data = dict(np.load(path))
    meta = json.loads(bytes(data["meta"]))
    assert "split" not in meta["config"]
    meta["config"]["split"] = [0.6, 0.2, 0.2]
    data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **data)
    _, _, _, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg


def test_variable_length_sequences():
    rng = np.random.default_rng(8)
    model = LstmModel.init(5, 4, rng)
    for n in (1, 3, 12):
        y = lstm_forward(model, rng.normal(size=(n, 5)))
        assert y.shape == (n,)
        assert np.all(np.isfinite(y))


def test_forward_with_saturated_gates_warns_nothing():
    # gate pre-activations of -800 overflow exp inside the sigmoid; the
    # gates must come out exactly 0 without a RuntimeWarning
    model = LstmModel.init(4, 8, np.random.default_rng(0))
    for layer in range(model.n_layers):
        model.W[layer][:] = 0.0
        model.U[layer][:] = 0.0
        model.b[layer][:] = -800.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = lstm_forward(model, np.ones((3, 4)))
    assert np.array_equal(y, np.full(3, model.head_b))


# lengths 1..17 in shuffled order, with ties (5, 5, 5 and 17, 17)
_LENGTHS = [9, 5, 17, 1, 12, 5, 3, 16, 2, 14, 5, 7, 17, 4, 11, 6, 15, 8, 10, 13]


@pytest.mark.parametrize("hidden", [3, 8, 64])
@pytest.mark.parametrize("masked", [False, True])
def test_packed_backward_matches_per_sample_reference(hidden, masked):
    """Packed BPTT against the per-sample loop; ``masked`` sets about 30%
    of the labels to the outputs, so those rows have an error of 0."""
    rng = np.random.default_rng(100 + hidden)
    model = LstmModel.init(6, hidden, rng)
    model.head_b = 0.3
    fm, labels = _packed_problem(rng, _LENGTHS, 6)
    if masked:
        labels = _zero_error_rows(rng, model, fm, labels, _LENGTHS)
    sse, grads = lstm_backward(model, fm, labels, lengths=_LENGTHS)
    ref_sse = 0.0
    ref = {k: np.zeros_like(v) for k, v in grads.items()}
    for seg in _segments(_LENGTHS):
        s_i, g_i = _reference_backward(model, fm[seg], labels[seg])
        ref_sse += s_i
        for k in ref:
            ref[k] += g_i[k]
    assert sse == pytest.approx(ref_sse, rel=1e-12)
    assert set(grads) == set(ref)
    for k in ref:
        assert grads[k].shape == ref[k].shape
        _assert_rel(grads[k], ref[k])


@pytest.mark.parametrize("n", [1, 2, 17])
def test_batch_of_one_matches_reference(n):
    rng = np.random.default_rng(n)
    model = LstmModel.init(5, 8, rng)
    fm, labels = _packed_problem(rng, [n], 5)
    ref_sse, ref = _reference_backward(model, fm, labels)
    for lengths in (None, [n]):
        sse, grads = lstm_backward(model, fm, labels, lengths=lengths)
        assert sse == pytest.approx(ref_sse, rel=1e-12)
        for k in ref:
            _assert_rel(grads[k], ref[k])


@pytest.mark.parametrize("hidden", [3, 8, 64])
def test_packed_forward_matches_naive_per_sequence(hidden):
    rng = np.random.default_rng(200 + hidden)
    model = LstmModel.init(6, hidden, rng)
    model.head_b = -0.2
    fm, _ = _packed_problem(rng, _LENGTHS, 6)
    y = lstm_forward(model, fm, _LENGTHS)
    assert y.shape == (fm.shape[0],)
    for seg in _segments(_LENGTHS):
        assert np.max(np.abs(y[seg] - _naive_forward(model, fm[seg]))) < 1e-12


def test_padding_never_reaches_another_sample():
    rng = np.random.default_rng(31)
    model = LstmModel.init(6, 8, rng)
    fm, labels = _packed_problem(rng, _LENGTHS, 6)
    segs = _segments(_LENGTHS)
    y = lstm_forward(model, fm, _LENGTHS)
    for k in (0, 2, 3, 12):  # mid-length, longest, length 1, tied longest
        seg = segs[k]
        fm2, labels2 = fm.copy(), labels.copy()
        fm2[seg] = rng.normal(scale=50.0, size=fm2[seg].shape)
        y2 = lstm_forward(model, fm2, _LENGTHS)
        others = np.ones(fm.shape[0], dtype=bool)
        others[seg] = False
        assert np.array_equal(y2[others], y[others])
        # with sample k's labels at its outputs, its error is exactly 0, and
        # nothing it holds reaches the gradients
        labels1 = labels.copy()
        labels1[seg], labels2[seg] = y[seg], y2[seg]
        sse1, g1 = lstm_backward(model, fm, labels1, lengths=_LENGTHS)
        sse2, g2 = lstm_backward(model, fm2, labels2, lengths=_LENGTHS)
        assert sse1 == sse2
        for name in g1:
            assert np.array_equal(g1[name], g2[name])


def test_lengths_must_partition_the_rows():
    model = LstmModel.init(4, 3, np.random.default_rng(0))
    fm = np.zeros((6, 4))
    for lengths in ([2, 3], [4, 3], [7, -1], [[3, 3]]):
        with pytest.raises(ShapeMismatch):
            lstm_forward(model, fm, lengths)
    # zero-length sequences are allowed and hold no rows
    assert lstm_forward(model, fm, [0, 6, 0]).shape == (6,)


# --- allocation-style references --------------------------------------------
# The forward pass, BPTT, Adam step and training loop as they were before
# they moved into reused buffers and one flat parameter vector: every step
# allocates its temporaries. The package's versions must keep their bits.


def _alloc_forward(model, fm, lengths, keep):
    from gnssweight.nn import _layout

    active, order = _layout(fm.shape[0], lengths)
    H = model.hidden
    layer_in = fm[order]
    caches = []
    with np.errstate(over="ignore"):
        for layer in range(model.n_layers):
            W, U, b = model.W[layer], model.U[layer], model.b[layer]
            xp = layer_in @ W.T
            xp += b
            xp = xp.reshape(-1, 4, H)
            UT = np.ascontiguousarray(U.T)
            hs = np.empty((len(order), H))
            if keep:
                gates = np.empty((len(order), 4, H))
                cells = np.empty((len(order), H))
            h = c = np.zeros((active[0] if active else 0, H))
            s = 0
            for n in active:
                z = xp[s : s + n] + (h[:n] @ UT).reshape(n, 4, H)
                a = _sigmoid(z)
                a[:, 2] = np.tanh(z[:, 2])
                c = a[:, 1] * c[:n] + a[:, 0] * a[:, 2]
                h = a[:, 3] * np.tanh(c)
                hs[s : s + n] = h
                if keep:
                    gates[s : s + n] = a
                    cells[s : s + n] = c
                s += n
            if keep:
                caches.append((layer_in, hs, gates, cells))
            layer_in = hs
    outputs = np.empty(fm.shape[0])
    outputs[order] = layer_in @ model.head_w + model.head_b
    return outputs, active, order, caches


def _alloc_backward(model, fm, labels, lengths=None):
    outputs, active, order, caches = _alloc_forward(model, fm, lengths, keep=True)
    H = model.hidden
    err = outputs - labels
    sse = float(np.sum(err * err))
    dy = 2.0 * err[order]
    grads = {name: None for name, _ in model.param_items()}
    grads["head_w"] = caches[-1][1].T @ dy
    grads["head_b"] = np.array(np.sum(dy))
    first = active[0] if active else 0
    prev = np.arange(first, len(order)) - np.repeat(np.array(active[:-1], dtype=int), active[1:])
    dh_above = dy[:, None] * model.head_w
    for layer in range(model.n_layers - 1, -1, -1):
        layer_in, hs, gates, cells = caches[layer]
        i, f, g, o = (gates[:, k] for k in range(4))
        tc = np.tanh(cells)
        dc_dh = o * (1.0 - tc * tc)
        dz = 1.0 - gates
        dz *= gates
        dz[:, 0] *= g
        dz[:first, 1] = 0.0
        dz[first:, 1] *= cells[prev]
        dz[:, 2] = i * (1.0 - g * g)
        dz[:, 3] *= tc
        U = model.U[layer]
        dh_next = np.zeros((first, H))
        dc_next = np.zeros((first, H))
        s = len(order)
        for n in reversed(active):
            s -= n
            dh = dh_above[s : s + n] + dh_next[:n]
            dc = dh * dc_dh[s : s + n] + dc_next[:n]
            dz_t = dz[s : s + n]
            dz_t[:, :3] *= dc[:, None]
            dz_t[:, 3] *= dh
            dh_next[:n] = dz_t.reshape(n, 4 * H) @ U
            dc_next[:n] = dc * f[s : s + n]
        dz = dz.reshape(-1, 4 * H)
        grads[f"W{layer}"] = dz.T @ layer_in
        grads[f"U{layer}"] = dz[first:].T @ hs[prev]
        grads[f"b{layer}"] = dz.sum(axis=0)
        if layer:
            dh_above = dz @ model.W[layer]
    return sse, grads


class _AllocAdam:
    def __init__(self, shapes, lr):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}

    def step(self, params, grads):
        from gnssweight.nn import _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS

        self.t += 1
        b1c = 1.0 - _ADAM_BETA1**self.t
        b2c = 1.0 - _ADAM_BETA2**self.t
        for k, p in params.items():
            g, m, v = grads[k], self.m[k], self.v[k]
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + _ADAM_EPS)


def _alloc_mean_loss(model, samples):
    from gnssweight.nn import _LOSS_CHUNK, _pack

    total = 0.0
    rows = 0
    for start in range(0, len(samples), _LOSS_CHUNK):
        fm, labels, lengths = _pack(samples[start : start + _LOSS_CHUNK])
        y = _alloc_forward(model, fm, lengths, keep=False)[0]
        total += float(np.sum((y - labels) ** 2))
        rows += fm.shape[0]
    return total / max(rows, 1)


def _alloc_train(train_samples, val_samples, cfg, init_model=None):
    from gnssweight.nn import TrainReport, _pack

    input_dim = train_samples[0][0].shape[1]
    rng = np.random.default_rng(cfg.seed)
    model = init_model.copy() if init_model is not None else LstmModel.init(input_dim, cfg.hidden, rng)
    params = dict(model.param_items())
    head_b = np.array(model.head_b)
    opt = _AllocAdam({**{k: v.shape for k, v in params.items()}, "head_b": ()}, cfg.learning_rate)
    report = TrainReport()
    best_model = model.copy()
    bad_evals = 0
    order = np.arange(len(train_samples))
    for ep in range(cfg.max_epochs):
        rng.shuffle(order)
        ep_sse = 0.0
        ep_rows = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            fm, labels, lengths = _pack([train_samples[j] for j in batch])
            sse, grads = _alloc_backward(model, fm, labels, lengths=lengths)
            ep_sse += sse
            ep_rows += fm.shape[0]
            for k in grads:
                grads[k] /= max(fm.shape[0], 1)
            full = dict(params)
            full["head_b"] = head_b
            opt.step(full, grads)
            model.head_b = float(head_b)
        report.train_losses.append(ep_sse / max(ep_rows, 1))
        val = _alloc_mean_loss(model, val_samples)
        report.val_losses.append(val)
        if val < report.best_val:
            report.best_val = val
            report.best_epoch = ep
            best_model = model.copy()
            bad_evals = 0
        else:
            bad_evals += 1
            if bad_evals > cfg.patience:
                break
    return best_model, report


def _model_bytes(model):
    return [a.tobytes() for _, a in model.param_items()] + [np.float64(model.head_b).tobytes()]


# tied lengths (5, 5, 5 and 17, 17), one packed batch of one sequence, and
# the single-sequence layout predict_weights runs
_BITWISE_CASES = [("tied", _LENGTHS), ("one", [11]), ("single", None)]


@pytest.mark.bitwise
@pytest.mark.parametrize("hidden", [3, 16, 64])
@pytest.mark.parametrize("case, lengths", _BITWISE_CASES, ids=[c for c, _ in _BITWISE_CASES])
def test_forward_matches_allocating_reference(hidden, case, lengths):
    """The forward pass, with and without the caches kept, has the bytes of
    the allocating reference: outputs, inputs, hidden states, gates and
    cells, and its kept tanh(c) is np.tanh of the cells."""
    from gnssweight.nn import _forward

    rng = np.random.default_rng(300 + hidden)
    model = LstmModel.init(6, hidden, rng)
    model.head_b = 0.1
    fm, _ = _packed_problem(rng, lengths or [11], 6)
    want, want_active, want_order, want_caches = _alloc_forward(model, fm, lengths, keep=True)
    for keep in (False, True):
        got, active, order, caches = _forward(model, fm, lengths, keep)
        assert got.tobytes() == want.tobytes()
        assert active == want_active and order.tobytes() == want_order.tobytes()
        assert len(caches) == (model.n_layers if keep else 0)
        for cache, ref in zip(caches, want_caches):
            assert [a.tobytes() for a in cache[:4]] == [a.tobytes() for a in ref]
            assert cache[4].tobytes() == np.tanh(ref[3]).tobytes()


@pytest.mark.bitwise
@pytest.mark.parametrize("hidden", [3, 16, 64])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("case, lengths", _BITWISE_CASES, ids=[c for c, _ in _BITWISE_CASES])
def test_backward_matches_allocating_reference(hidden, masked, case, lengths):
    """BPTT has the reference's bytes: the loss and every gradient, with
    and without rows of zero error (``masked``)."""
    rng = np.random.default_rng(400 + hidden)
    model = LstmModel.init(6, hidden, rng)
    model.head_b = -0.3
    fm, labels = _packed_problem(rng, lengths or [11], 6)
    if masked:
        labels = _zero_error_rows(rng, model, fm, labels, lengths)
    sse, grads = lstm_backward(model, fm, labels, lengths=lengths)
    ref_sse, ref = _alloc_backward(model, fm, labels, lengths=lengths)
    assert np.float64(sse).tobytes() == np.float64(ref_sse).tobytes()
    assert list(grads) == list(ref)
    for k in ref:
        assert grads[k].shape == ref[k].shape and grads[k].tobytes() == ref[k].tobytes(), k


@pytest.mark.bitwise
@pytest.mark.parametrize("hidden", [3, 16, 64])
def test_train_matches_allocating_reference(hidden, monkeypatch):
    """Three epochs of ``train`` from a fresh model and from an initial one
    have the reference's bytes: every parameter and each train and
    validation loss. ``train`` leaves the initial model as it was, and the
    model it returns owns its arrays: none is a view of the flat vector
    training ran on."""
    from gnssweight import nn

    rng = np.random.default_rng(500 + hidden)
    lengths = rng.integers(1, 12, size=20)
    train_s = [(rng.normal(size=(k, 5)), rng.normal(size=k)) for k in lengths[:14]]
    val_s = [(rng.normal(size=(k, 5)), rng.normal(size=k)) for k in lengths[14:]]
    cfg = TrainConfig(learning_rate=1e-2, batch_size=4, max_epochs=3, patience=3, seed=hidden, hidden=hidden)
    init = LstmModel.init(5, hidden, np.random.default_rng(hidden))
    init.head_b = 0.05
    init_bytes = _model_bytes(init)
    flats = []
    bind = nn._bind_flat
    monkeypatch.setattr(nn, "_bind_flat", lambda m: flats.append(bind(m)) or flats[-1])
    for start in (None, init):
        model, report = train(train_s, val_s, cfg, init_model=start)
        ref_model, ref_report = _alloc_train(train_s, val_s, cfg, init_model=start)
        assert _model_bytes(model) == _model_bytes(ref_model)
        assert np.array(report.train_losses).tobytes() == np.array(ref_report.train_losses).tobytes()
        assert np.array(report.val_losses).tobytes() == np.array(ref_report.val_losses).tobytes()
        assert (report.best_epoch, report.best_val) == (ref_report.best_epoch, ref_report.best_val)
        for _, a in model.param_items():
            assert a.flags.owndata and not np.shares_memory(a, flats[-1])
    assert _model_bytes(init) == init_bytes
    assert len(flats) == 2
