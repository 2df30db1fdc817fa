"""Pipeline command line: simulate -> featurize -> train -> evaluate -> report."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import zipfile

import numpy as np

from .baselines import FdeConfig, calibrate_sota
from .config import load_config
from .dataio import read_dataset, write_dataset
from .errors import ConfigInvalid, GnssWeightError, ShapeMismatch, VersionMismatch
from .evaluation import (
    StrategyModels,
    compare_strategies,
    read_error_csv,
    summarize,
    summary_dict,
    write_error_csv,
    QUANTILES,
)
from .featurize import N_FEATURES, dataset_samples, fit_normalization, normalized_split, FeatureNormalization
from .geo import ecef_to_geodetic, elevation_angles
from .nn import TrainConfig, load_checkpoint, save_checkpoint, train, truth_residuals
from .sim import generate_campaign

# the layout of a ``featurize`` cache; version 2 holds one block per split
CACHE_VERSION = 2


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, _seed_override(args))
    dataset = generate_campaign(seed=cfg["seed"], **cfg["simulate"])  # the keys are its parameters
    write_dataset(dataset, args.out)
    print(f"wrote {dataset.n_epochs} epochs over {len(dataset.sessions)} sessions to {args.out}")
    return 0


def _cmd_featurize(args) -> int:
    """Cache the fitting splits' samples, one block per non-empty split
    (train is block 0, val block 1): ``fm_{i}`` holds the split's matrices
    back to back, ``lab_{i}`` their labels and ``len_{i}`` each matrix's
    row count, so that ``train`` reads a few large entries rather than
    parsing two per epoch."""
    cfg = load_config(args.config, _seed_override(args))
    splits = dataset_samples(read_dataset(args.data))
    arrays, index = {}, {}
    for i, (split, samples) in enumerate(splits.items()):
        index[split] = [i] if samples else []
        if samples:
            arrays[f"fm_{i}"] = np.concatenate([fm for fm, _ in samples])
            arrays[f"lab_{i}"] = np.concatenate([labels for _, labels in samples])
            arrays[f"len_{i}"] = np.array([len(fm) for fm, _ in samples], dtype=np.int64)
    meta = {"version": CACHE_VERSION, "seed": cfg["seed"], "splits": index}
    # an open file, so that numpy writes to --out as given, without adding ".npz"
    with open(args.out, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    print(f"cached {sum(map(len, splits.values()))} feature matrices to {args.out}")
    return 0


def _read_npz(loader, path, what: str):
    """``loader(path)``, failing with a GnssWeightError when ``path`` is not a
    readable npz file of ``what``: not an npz archive (never unpickled), or
    one without an entry ``what`` needs, which the message names."""
    def unreadable(why):
        return GnssWeightError(f"{path} is not a readable {what}: {why}")

    # np.load reads any other file as a pickle or a .npy, and its errors
    # would offer to unpickle it
    if os.path.isfile(path) and not zipfile.is_zipfile(path):
        raise unreadable("not an npz archive")
    try:
        return loader(path)
    except KeyError as e:
        # a metadata key, or an array numpy reports as "<name> is not a file in the archive"
        name = str(e.args[0]).removesuffix(" is not a file in the archive")
        raise unreadable(f"no entry '{name}'") from e
    except (OSError, ValueError, zipfile.BadZipFile) as e:
        raise unreadable(e) from e


def _load_model(path, mode: str):
    """(model, normalization) from a checkpoint trained on ``mode`` features."""
    model, mean, std, cfg = _read_npz(load_checkpoint, path, "checkpoint")
    if cfg.feature_mode != mode:
        raise ShapeMismatch(f"{path} holds a '{cfg.feature_mode}' model where '{mode}' is needed")
    return model, FeatureNormalization(mean, std)


def _load_feature_cache(path):
    """{split: [(fm, labels)]} of a ``featurize`` cache, each sample a view
    of its split's block, failing with a GnssWeightError that names
    ``path`` when the metadata or its ``splits`` is not an object, the
    cache is not version ``CACHE_VERSION`` (one written before blocks;
    ``featurize`` rebuilds it), a split's ids are not integers, a fitting
    split is missing, a block's matrix does not have ``N_FEATURES``
    columns, its labels do not have one entry per row or its row counts
    are not positive integers summing to its rows."""
    def invalid(why):
        return GnssWeightError(f"{path} is not a valid feature cache: {why}")

    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]))
        if not (isinstance(meta, dict) and isinstance(meta["splits"], dict)):
            raise invalid("the metadata and its 'splits' must be objects")
        if meta["version"] != CACHE_VERSION:
            raise VersionMismatch(f"{path} is a version {meta['version']!r} feature cache, not version "
                                  f"{CACHE_VERSION}: run featurize again to rebuild it")
        splits = {}
        for split, ids in meta["splits"].items():
            if not isinstance(ids, list) or any(type(i) is not int for i in ids):
                raise invalid(f"split {split!r} is not a list of integer ids")
            splits[split] = samples = []
            for i in ids:
                fm, lab, lengths = data[f"fm_{i}"], data[f"lab_{i}"], data[f"len_{i}"]
                if fm.ndim != 2 or fm.shape[1] != N_FEATURES:
                    raise invalid(f"matrix {i} has shape {fm.shape}, not (N, {N_FEATURES})")
                if lab.shape != (fm.shape[0],):
                    raise invalid(f"labels {i} have shape {lab.shape} for {fm.shape[0]} rows")
                if (lengths.ndim != 1 or lengths.dtype.kind not in "iu" or not lengths.size or (lengths < 1).any()
                        or lengths.sum() != fm.shape[0]):
                    raise invalid(f"row counts {i} are not positive integers summing to {fm.shape[0]} rows")
                cuts = np.cumsum(lengths[:-1])
                samples.extend(zip(np.split(fm, cuts), np.split(lab, cuts)))
    missing = [s for s in ("train", "val") if s not in splits]
    if missing:
        raise invalid(f"no {' or '.join(missing)} split")
    return splits


def _cmd_train(args) -> int:
    if not args.features and not args.data:
        raise ConfigInvalid("train needs --data or --features")
    cfg = load_config(args.config, _seed_override(args))
    tr = cfg["train"]
    mode = args.mode or tr["feature_mode"]
    tcfg = TrainConfig(**{**tr, "seed": cfg["seed"], "feature_mode": mode})
    if args.features:
        splits = _read_npz(_load_feature_cache, args.features, "feature cache")
    else:
        splits = dataset_samples(read_dataset(args.data))

    init_model = None
    if args.resume:
        init_model, norm = _load_model(args.resume, mode)
        if init_model.hidden != tcfg.hidden:
            raise ShapeMismatch(
                f"{args.resume} holds a {init_model.hidden}-unit model where 'train.hidden' is {tcfg.hidden}"
            )
    else:
        norm = fit_normalization(splits["train"], mode)
    train_s = normalized_split(splits["train"], norm, mode)
    val_s = normalized_split(splits["val"], norm, mode)

    model, report = train(train_s, val_s, tcfg, init_model=init_model)
    with open(args.out, "wb") as fh:  # exactly --out, as in _cmd_featurize
        save_checkpoint(fh, model, norm.mean, norm.std, tcfg)

    # only ".npz" is dropped, so checkpoints whose names differ in another
    # suffix (run.a, run.b) keep separate loss files
    loss_path = args.out.removesuffix(".npz") + "_loss.csv"
    with open(loss_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for ep, (tl, vl) in enumerate(zip(report.train_losses, report.val_losses)):
            writer.writerow([ep, format(tl, ".17g"), format(vl, ".17g")])
    print(
        f"trained {mode} model: best val loss {report.best_val:.6g} "
        f"at epoch {report.best_epoch}; checkpoint {args.out}, losses {loss_path}"
    )
    return 0


def _calibration_samples(dataset):
    """(theta, cn0, error) per train-split measurement, from ground truth."""
    thetas, cn0s, errors = [], [], []
    for session in dataset.split_sessions("train"):
        for epoch in session.epochs:
            if epoch.truth is None:
                continue
            resid, _ = truth_residuals(epoch)
            thetas.extend(elevation_angles(epoch.sat_array(), ecef_to_geodetic(epoch.truth)))
            cn0s.extend(m.cn0 for m in epoch.measurements)
            errors.extend(resid)
    return thetas, cn0s, errors


def _cmd_evaluate(args) -> int:
    if args.jobs < 1:
        raise ConfigInvalid(f"--jobs must be at least 1, got {args.jobs}")
    overrides = _seed_override(args)
    if args.strategies:
        overrides["evaluate"] = {"strategies": args.strategies.split(",")}
    cfg = load_config(args.config, overrides)
    ev = cfg["evaluate"]
    strategies = ev["strategies"]
    dataset = read_dataset(args.data)

    models = StrategyModels(fde_cfg=FdeConfig(**ev["fde"]))
    for strategy, mode, path in (
        ("nn_full", "full", args.model_full),
        ("nn_residual", "residual", args.model_residual),
    ):
        if strategy not in strategies:
            continue
        if not path or not os.path.exists(path):
            raise ConfigInvalid(f"strategy '{strategy}' needs a model file (got {path!r})")
        setattr(models, strategy, _load_model(path, mode))
    if "fde_sota" in strategies:
        models.sota = calibrate_sota(*_calibration_samples(dataset))

    records, summaries = compare_strategies(dataset, strategies, models, jobs=args.jobs)
    os.makedirs(args.out_dir, exist_ok=True)
    errors_path = os.path.join(args.out_dir, "errors.csv")
    summary_path = os.path.join(args.out_dir, "summary.json")
    write_error_csv(records, errors_path)
    payload = {"seed": cfg["seed"], "split": "test", "strategies": summary_dict(summaries)}
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(_format_table(summaries))
    print(f"wrote {errors_path} and {summary_path}")
    return 0


def _format_table(summaries) -> str:
    lines = [f"{'strategy':<12} {'count':>6} {'fail':>5} " + " ".join(f"q{int(p*100):>2}m".rjust(9) for p in QUANTILES)]
    for strat, s in summaries.items():
        qs = " ".join(
            (f"{s.quantiles[p]:9.3f}" if p in s.quantiles else "      -  ") for p in QUANTILES
        )
        lines.append(f"{strat:<12} {s.count:>6} {s.failures:>5} {qs}")
    return "\n".join(lines)


def _cmd_report(args) -> int:
    records = read_error_csv(args.errors)
    summaries = summarize(records, sorted({r.strategy for r in records}))
    print(_format_table(summaries))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"strategies": summary_dict(summaries)}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _seed_override(args) -> dict:
    return {"seed": args.seed} if getattr(args, "seed", None) is not None else {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnssweight",
        description="Single-epoch GNSS positioning with learned measurement weighting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic measurement campaign")
    p.add_argument("--config", help="YAML run configuration")
    p.add_argument("--out", required=True, help="output dataset path (.jsonl)")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("featurize", help="cache per-epoch feature matrices")
    p.add_argument("--config", help="YAML run configuration")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--out", required=True, help="feature cache path (.npz)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("train", help="train the weight predictor")
    p.add_argument("--config", help="YAML run configuration")
    p.add_argument("--data", help="dataset path")
    p.add_argument("--features", help="feature cache from 'featurize' (skips re-extraction)")
    p.add_argument("--out", required=True, help="checkpoint output path (.npz)")
    p.add_argument("--mode", choices=["full", "residual"], help="feature subset to train on")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="compare weighting strategies on the test split")
    p.add_argument("--config", help="YAML run configuration")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--out-dir", required=True, help="directory for errors.csv + summary.json")
    p.add_argument("--model-full", help="checkpoint for the full feature-matrix model")
    p.add_argument("--model-residual", help="checkpoint for the residual-only model")
    p.add_argument("--strategies", help="comma-separated subset of strategies")
    p.add_argument("--jobs", type=int, default=1, help="worker processes over sessions (at least 1)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="render a summary table from an error CSV")
    p.add_argument("--errors", required=True, help="errors.csv from 'evaluate'")
    p.add_argument("--out", help="optional summary JSON output")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GnssWeightError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
