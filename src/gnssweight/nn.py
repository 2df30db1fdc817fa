"""Recurrent weight predictor: stacked LSTM, BPTT, Adam, checkpoints.

The model consumes an epoch's feature matrix as a sequence of N rows and
emits one quality factor (log of the predicted pseudorange error sigma,
in log-meters) per row. Weights follow as exp(-2 * quality).

Everything is plain float64 numpy. Forward and backward passes run a whole
mini-batch at once: its sequences are sorted by length, longest first,
and laid out time-major, so each step updates the sequences still live
with one matrix product. Training is bit-reproducible for a fixed seed on
the same machine; BLAS products may round differently on another CPU.

The step loops work in arrays allocated once per pass. A forward step
writes its pre-activations into one reused buffer, applies the sigmoid
and tanh in place in its rows of the gate array, and writes its cells,
hidden states and tanh(c) straight into their rows; BPTT reads that
tanh(c) back and keeps each step's dh and dc in two reused buffers.
Training holds every parameter in one flat vector that the model's
arrays are views of, gathers each batch's gradients into another, and
runs Adam on them in place with flat moments and two scratch vectors.
Each computes the same operations in the same order as the per-step
temporaries it replaced, so every output, gradient, loss and checkpoint
keeps its bits; ``tests/test_nn.py`` keeps the allocating versions as
references.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import EmptySplit, MissingTruth, ShapeMismatch, VersionMismatch
from .geo import SPEED_OF_LIGHT
from .model import Epoch

CHECKPOINT_VERSION = 1

# LSTM layers of a new model; a checkpoint stores its own count.
N_LAYERS = 2

# Quality targets are log |pseudorange error| clamped below at this
# value, so noise-free measurements map to a finite target and a
# weight cap of 1/eps^2 = 1e4.
LABEL_EPSILON_M = 0.01

WEIGHT_FLOOR = 1e-8
WEIGHT_CEIL = 1e4

# samples per packed forward pass when computing a split's loss
_LOSS_CHUNK = 256

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class LstmModel:
    """Parameters of a stacked LSTM plus a scalar linear head.

    Gate order inside the stacked 4H blocks is input, forget, cell,
    output.
    """

    input_dim: int
    hidden: int
    n_layers: int
    W: list  # per layer, (4H, D_l)
    U: list  # per layer, (4H, H)
    b: list  # per layer, (4H,)
    head_w: np.ndarray  # (H,)
    head_b: float

    @staticmethod
    def init(input_dim: int, hidden: int, rng: np.random.Generator) -> "LstmModel":
        W, U, b = [], [], []
        for layer in range(N_LAYERS):
            d = input_dim if layer == 0 else hidden
            s = 1.0 / math.sqrt(hidden)
            W.append(rng.uniform(-s, s, size=(4 * hidden, d)))
            U.append(rng.uniform(-s, s, size=(4 * hidden, hidden)))
            bias = np.zeros(4 * hidden)
            bias[hidden : 2 * hidden] = 1.0  # forget-gate bias keeps early memory
            b.append(bias)
        head_w = rng.uniform(-1.0 / math.sqrt(hidden), 1.0 / math.sqrt(hidden), size=hidden)
        return LstmModel(input_dim, hidden, N_LAYERS, W, U, b, head_w, 0.0)

    def param_items(self):
        """(name, array) pairs of the weight arrays, in a fixed order; the
        scalar ``head_b`` is not among them."""
        for layer in range(self.n_layers):
            yield f"W{layer}", self.W[layer]
            yield f"U{layer}", self.U[layer]
            yield f"b{layer}", self.b[layer]
        yield "head_w", self.head_w

    def copy(self) -> "LstmModel":
        return copy.deepcopy(self)


def _layout(n_rows: int, lengths):
    """Time-major order of packed rows, longest sequence first.

    ``lengths`` splits the R packed rows into consecutive sequences (None:
    one sequence). Sorted by length, the sequences still live at step t
    are a prefix of the batch, ``active[t]`` long. Returns (active,
    order): ``order`` lists the packed rows step by step, each step's
    live prefix in sorted order, so step t is the contiguous block of
    ``order`` that starts at ``sum(active[:t])``. This is the padded
    (T, B) grid with the cells past each sequence's end left out.
    """
    if lengths is None:  # one sequence, as predict_weights runs per epoch: nothing to sort
        return [1] * n_rows, np.arange(n_rows)
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or np.any(lengths < 0) or int(np.sum(lengths)) != n_rows:
        raise ShapeMismatch(f"lengths {lengths.tolist()} do not partition {n_rows} rows")
    by_length = np.argsort(-lengths, kind="stable")
    lens = lengths[by_length]
    starts = (np.cumsum(lengths) - lengths)[by_length]
    live = np.arange(lens.max(initial=0))[:, None] < lens[None, :]
    t, b = np.nonzero(live)
    return np.count_nonzero(live, axis=1).tolist(), starts[b] + t


def _forward(model: LstmModel, fm: np.ndarray, lengths, keep: bool):
    """Run the recurrence over every sequence of a packed batch at once.

    Step t updates only the sequences still live, so no step ever sees
    another sequence's rows or a step past a sequence's end. Returns
    (outputs, active, order, caches): outputs are packed like ``fm``;
    when ``keep``, caches hold per layer the time-major input, hidden
    states, gates, cells and tanh of the cells that BPTT needs, and are
    otherwise empty.
    """
    if fm.ndim != 2 or fm.shape[1] != model.input_dim:
        raise ShapeMismatch(
            f"input shape {fm.shape} incompatible with input_dim {model.input_dim}"
        )
    active, order = _layout(fm.shape[0], lengths)
    H, R = model.hidden, len(order)
    first = active[0] if active else 0
    layer_in = fm[order]
    caches = []
    # Each step writes into arrays allocated once per pass: its
    # pre-activations into z, and its gates, tanh(c) and cells into their
    # rows of the kept arrays. When nothing is kept they go to scratch
    # instead, the cells updated in place: the sequences live at a step
    # are a prefix of those live at the step before. Hidden states go to
    # their rows of ``hs``. The first step starts from zero states.
    zero = np.zeros((first, H))
    z = np.empty((first, 4 * H))
    if not keep:
        a_buf, t_buf, c_buf = np.empty((first, 4, H)), np.empty((first, H)), np.empty((first, H))
        scratch = {}  # n -> _step_views of the scratch, built once per n
    # below -709.78 the sigmoid's exp overflows to inf and the gate is
    # exactly 0, as it should be; the warning is silenced once per pass,
    # because an errstate per step costs a third of the forward time
    with np.errstate(over="ignore"):
        for layer in range(model.n_layers):
            W, U, b = model.W[layer], model.U[layer], model.b[layer]
            xp = layer_in @ W.T
            xp += b  # in place: a second (R, 4H) temporary costs more than the product
            UT = np.ascontiguousarray(U.T)  # a transposed view multiplies slower
            hs = np.empty((R, H))
            if keep:
                gates, tcs, cells = np.empty((R, 4, H)), np.empty((R, H)), np.empty((R, H))
            h = c = zero
            s = 0
            for n in active:
                e = s + n
                if keep:
                    v = _step_views(z, gates[s:e], tcs[s:e], cells[s:e], n)
                else:
                    v = scratch.get(n)
                    if v is None:
                        v = scratch[n] = _step_views(z, a_buf[:n], t_buf[:n], c_buf[:n], n)
                zn, zg, a, i, f, g, o, t, cn = v
                np.matmul(h[:n], UT, zn)
                zn += xp[s:e]
                # the sigmoid 1 / (1 + exp(-z)) of every gate, then tanh for g
                np.negative(zn, a)
                np.exp(a, a)
                a += 1.0
                np.divide(1.0, a, a)
                np.tanh(zg, g)
                # c = f * c + i * g, with i * g held in t until tanh(c) replaces it
                np.multiply(i, g, t)
                c = np.multiply(f, c[:n], cn)
                c += t
                np.tanh(c, t)
                h = np.multiply(o, t, hs[s:e])
                s = e
            if keep:
                caches.append((layer_in, hs, gates, cells, tcs))
            layer_in = hs
    outputs = np.empty(fm.shape[0])
    outputs[order] = layer_in @ model.head_w + model.head_b
    return outputs, active, order, caches


def _step_views(z, gates, t, c, n):
    """The arrays one step of ``_forward`` writes, for n live sequences.

    z is the (first, 4H) pre-activation buffer, gates the step's (n, 4, H)
    gate rows, t its (n, H) rows for i * g and then tanh(c), and c its
    (n, H) cells. Returns (pre-activations, their cell-gate block, all
    gates as (n, 4H), the input, forget, cell and output gates, t, c).
    """
    zn = z[:n]
    return (zn, zn.reshape(n, 4, -1)[:, 2], gates.reshape(n, -1),
            gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3], t, c)


def lstm_forward(model: LstmModel, fm: np.ndarray, lengths=None) -> np.ndarray:
    """Quality factors (log-sigma, log-meters) for each packed row.

    ``fm`` holds the rows of consecutive sequences of ``lengths`` rows
    each (default: one sequence of N rows).
    """
    return _forward(model, fm, lengths, keep=False)[0]


def lstm_backward(model: LstmModel, fm: np.ndarray, labels: np.ndarray, lengths=None):
    """Exact gradients of the summed squared error via BPTT.

    Rows are packed as in ``lstm_forward``; all sequences run backward
    together. Returns (sse, grads) where sse = sum_r (y_r - label_r)^2
    over every row of every sequence and grads maps parameter names (as
    in ``param_items`` plus "head_b") to arrays. Callers divide by row
    counts to get mean-loss gradients.
    """
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (fm.shape[0],):
        raise ShapeMismatch(f"labels shape {labels.shape} != ({fm.shape[0]},)")
    outputs, active, order, caches = _forward(model, fm, lengths, keep=True)
    H = model.hidden
    err = outputs - labels
    sse = float(np.sum(err * err))
    dy = 2.0 * err[order]  # time-major, like the caches

    grads = {name: None for name, _ in model.param_items()}
    grads["head_w"] = caches[-1][1].T @ dy
    grads["head_b"] = np.array(np.sum(dy))

    # for each cell after the first step, the cell one step earlier in the
    # same sequence: active[t - 1] cells back, as each sequence keeps its
    # place in the live prefix
    first = active[0] if active else 0
    prev = np.arange(first, len(order)) - np.repeat(np.array(active[:-1], dtype=int), active[1:])
    # dh flowing into each timestep of the top layer from the head
    dh_above = dy[:, None] * model.head_w
    # each step's dh and dc, in buffers reused by every step and layer
    dh_buf, dc_buf = np.empty((first, H)), np.empty((first, H))
    for layer in range(model.n_layers - 1, -1, -1):
        layer_in, hs, gates, cells, tc = caches[layer]
        i, f, g, o = (gates[:, k] for k in range(4))
        dc_dh = o * (1.0 - tc * tc)
        # each gate's pre-activation gradient is dc (input, forget and cell
        # gates) or dh (output gate) times a factor; the loop scales these
        # factors in place into dz
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
            e, s = s, s - n
            dh = np.add(dh_above[s:e], dh_next[:n], dh_buf[:n])
            dc = np.multiply(dh, dc_dh[s:e], dc_buf[:n])
            dc += dc_next[:n]
            dz_t = dz[s:e]
            dz_t[:, :3] *= dc[:, None]
            dz_t[:, 3] *= dh
            np.matmul(dz_t.reshape(n, 4 * H), U, dh_next[:n])
            np.multiply(dc, f[s:e], dc_next[:n])
        dz = dz.reshape(-1, 4 * H)
        grads[f"W{layer}"] = dz.T @ layer_in
        grads[f"U{layer}"] = dz[first:].T @ hs[prev]
        grads[f"b{layer}"] = dz.sum(axis=0)
        if layer:
            dh_above = dz @ model.W[layer]
    return sse, grads


def truth_residuals(epoch: Epoch) -> tuple[np.ndarray, np.ndarray]:
    """Pseudorange errors against the ground truth, meters.

    The reference system supplies position only, so the truth clock bias
    per constellation is the equal-weight least-squares fit at the fixed
    true position: the mean of (pseudorange - geometric range) over that
    constellation's measurements. Returns the per-row residuals after
    removing that bias, and the biases in ``epoch.constellations()``
    order.
    """
    if epoch.truth is None:
        raise MissingTruth("epoch carries no ground-truth position")
    rng = np.linalg.norm(epoch.truth.as_array()[None, :] - epoch.sat_array(), axis=1)
    geo_resid = epoch.pr_array() - rng
    idx = epoch.const_index()
    bias_m = np.array([np.mean(geo_resid[idx == k]) for k in range(len(epoch.constellations()))])
    return geo_resid - bias_m[idx], bias_m


def make_labels(epoch: Epoch) -> np.ndarray:
    """Per-row log-sigma targets: log |truth residual|, clamped below."""
    resid, _ = truth_residuals(epoch)
    return np.log(np.maximum(np.abs(resid), LABEL_EPSILON_M))


def truth_clock_biases(epoch: Epoch) -> dict:
    """Equal-weight clock-only fit at the true position, seconds."""
    _, bias_m = truth_residuals(epoch)
    return {c: float(b) / SPEED_OF_LIGHT for c, b in zip(epoch.constellations(), bias_m)}


def quality_to_weights(quality: np.ndarray) -> np.ndarray:
    """Invert the label mapping: omega = exp(-2 log sigma), clamped."""
    return np.clip(np.exp(-2.0 * np.asarray(quality, dtype=float)), WEIGHT_FLOOR, WEIGHT_CEIL)


def predict_weights(model: LstmModel, fm: np.ndarray) -> np.ndarray:
    return quality_to_weights(lstm_forward(model, fm))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-3
    batch_size: int = 16
    max_epochs: int = 60
    patience: int = 8
    seed: int = 0
    hidden: int = 64
    feature_mode: str = "full"  # "full" or "residual"


@dataclass
class TrainReport:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = math.inf


class _Adam:
    """Adam on one flat parameter vector, updated in place.

    Each element gets p -= lr * (m / b1c) / (sqrt(v / b2c) + eps) after
    its moments take the gradient, with the operations in that order;
    two scratch vectors hold the intermediate terms.
    """

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._s1, self._s2 = np.empty(size), np.empty(size)

    def step(self, p: np.ndarray, g: np.ndarray):
        self.t += 1
        b1c = 1.0 - _ADAM_BETA1**self.t
        b2c = 1.0 - _ADAM_BETA2**self.t
        m, v, s1, s2 = self.m, self.v, self._s1, self._s2
        m *= _ADAM_BETA1
        m += np.multiply(g, 1.0 - _ADAM_BETA1, s1)
        v *= _ADAM_BETA2
        np.multiply(g, 1.0 - _ADAM_BETA2, s1)
        s1 *= g
        v += s1
        np.divide(m, b1c, s1)
        s1 *= self.lr
        np.divide(v, b2c, s2)
        np.sqrt(s2, s2)
        s2 += _ADAM_EPS
        s1 /= s2
        p -= s1


def _bind_flat(model: LstmModel) -> np.ndarray:
    """Move the model's parameters into one flat vector, in ``param_items``
    order with ``head_b`` last, and make its arrays views into it."""
    items = list(model.param_items())
    flat = np.concatenate([a.ravel() for _, a in items] + [[model.head_b]])
    views, o = {}, 0
    for name, a in items:
        views[name] = flat[o : o + a.size].reshape(a.shape)
        o += a.size
    for layer in range(model.n_layers):
        model.W[layer], model.U[layer], model.b[layer] = (views[f"{k}{layer}"] for k in "WUb")
    model.head_w = views["head_w"]
    return flat


def _pack(samples):
    """(feature_matrix, labels) samples as packed rows, labels and lengths."""
    fms = [fm for fm, _ in samples]
    labels = np.concatenate([lab for _, lab in samples])
    return np.concatenate(fms), labels, [fm.shape[0] for fm in fms]


def _mean_loss(model: LstmModel, samples) -> float:
    # packed forward passes of at most _LOSS_CHUNK samples: as fast as one
    # pass over the split, with memory that does not grow with it
    total = 0.0
    rows = 0
    for start in range(0, len(samples), _LOSS_CHUNK):
        fm, labels, lengths = _pack(samples[start : start + _LOSS_CHUNK])
        y = lstm_forward(model, fm, lengths)
        total += float(np.sum((y - labels) ** 2))
        rows += fm.shape[0]
    return total / max(rows, 1)


def train(
    train_samples,
    val_samples,
    cfg: TrainConfig,
    init_model: LstmModel | None = None,
):
    """Fit the model by mini-batch Adam with early stopping.

    ``train_samples``/``val_samples`` are lists of (feature_matrix,
    labels) with rows already normalized. Returns (best_model, report);
    the best model is the snapshot with the lowest validation loss.
    Fully deterministic under cfg.seed.
    """
    if not train_samples or not val_samples:
        raise EmptySplit("training and validation splits must be nonempty")
    input_dim = train_samples[0][0].shape[1]
    rng = np.random.default_rng(cfg.seed)
    model = init_model.copy() if init_model is not None else LstmModel.init(input_dim, cfg.hidden, rng)
    if model.input_dim != input_dim:
        raise ShapeMismatch("init model input width differs from the data")

    # the model trains on views into one flat vector that Adam updates in
    # place; the gradients are gathered into another
    flat = _bind_flat(model)
    names = [name for name, _ in model.param_items()] + ["head_b"]
    grad = np.empty_like(flat)
    opt = _Adam(flat.size, cfg.learning_rate)
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
            sse, grads = lstm_backward(model, fm, labels, lengths=lengths)
            ep_sse += sse
            ep_rows += fm.shape[0]
            np.concatenate([grads[k].ravel() for k in names], out=grad)
            grad /= max(fm.shape[0], 1)
            opt.step(flat, grad)
            model.head_b = float(flat[-1])
        report.train_losses.append(ep_sse / max(ep_rows, 1))

        val = _mean_loss(model, val_samples)
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


# --- checkpoint container -------------------------------------------------


def save_checkpoint(path, model: LstmModel, norm_mean, norm_std, cfg: TrainConfig):
    """Self-describing npz: parameters, normalization stats, config, seed,
    and an empty ``extra`` entry that keeps the metadata's earlier layout."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "input_dim": model.input_dim,
        "hidden": model.hidden,
        "n_layers": model.n_layers,
        "head_b": model.head_b,
        "config": asdict(cfg),
        "extra": {},
    }
    arrays = {name: arr for name, arr in model.param_items()}
    arrays["norm_mean"] = np.asarray(norm_mean, dtype=float)
    arrays["norm_std"] = np.asarray(norm_std, dtype=float)
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path):
    """Returns (model, norm_mean, norm_std, cfg); bit-exact reload."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]))
        if meta["version"] != CHECKPOINT_VERSION:
            raise VersionMismatch(f"checkpoint version {meta['version']} unsupported")
        n_layers = meta["n_layers"]
        model = LstmModel(
            input_dim=meta["input_dim"],
            hidden=meta["hidden"],
            n_layers=n_layers,
            W=[data[f"W{l}"].copy() for l in range(n_layers)],
            U=[data[f"U{l}"].copy() for l in range(n_layers)],
            b=[data[f"b{l}"].copy() for l in range(n_layers)],
            head_w=data["head_w"].copy(),
            head_b=float(meta["head_b"]),
        )
        # stored keys that are no longer TrainConfig fields, such as ``split``, are ignored
        names = {f.name for f in fields(TrainConfig)}
        cfg = TrainConfig(**{k: v for k, v in meta["config"].items() if k in names})
        return model, data["norm_mean"].copy(), data["norm_std"].copy(), cfg
