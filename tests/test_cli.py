import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gnssweight
from gnssweight.cli import build_parser, main
from gnssweight.config import DEFAULTS
from gnssweight.dataio import write_dataset
from gnssweight.errors import ConfigInvalid
from gnssweight.evaluation import read_error_csv
from gnssweight.featurize import N_FEATURES
from gnssweight.sim import generate_campaign


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.yaml"
    path.write_text(
        "\n".join(
            [
                "seed: 11",
                "simulate:",
                "  profiles: [suburban]",
                "  sessions_per_profile: 3",
                "  epochs_per_session: 8",
                "train:",
                "  hidden: 4",
                "  max_epochs: 2",
                "  patience: 2",
                "  batch_size: 4",
                "evaluate:",
                "  strategies: [equal, truth, fde_sota]",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(scope="module")
def tiny_dataset(tiny_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "campaign.jsonl"
    assert main(["simulate", "--config", tiny_config, "--out", str(out)]) == 0
    return str(out)


def test_simulate_is_deterministic(tiny_config, tiny_dataset, tmp_path):
    other = tmp_path / "again.jsonl"
    assert main(["simulate", "--config", tiny_config, "--out", str(other)]) == 0
    with open(tiny_dataset, "rb") as a, open(other, "rb") as b:
        assert a.read() == b.read()
    different = tmp_path / "reseeded.jsonl"
    assert main(["simulate", "--config", tiny_config, "--seed", "12", "--out", str(different)]) == 0
    with open(tiny_dataset, "rb") as a, open(different, "rb") as b:
        assert a.read() != b.read()


def test_simulate_passes_every_setting_to_generate_campaign(tmp_path):
    """``simulate`` with every ``simulate`` setting off its default writes
    the bytes that ``write_dataset(generate_campaign(...))`` writes for
    those values."""
    settings = {"profiles": ["open_sky", "urban_canyon"], "sessions_per_profile": 4, "epochs_per_session": 3,
                "rate_hz": 2.0, "noise_sigma_m": 1.5, "nlos_bias_mean_m": 25.0}
    assert settings.keys() == DEFAULTS["simulate"].keys()
    assert all(v != DEFAULTS["simulate"][k] for k, v in settings.items())
    cfg, out, ref = tmp_path / "run.yaml", tmp_path / "cli.jsonl", tmp_path / "ref.jsonl"
    cfg.write_text(json.dumps({"seed": 5, "simulate": settings}), encoding="utf-8")  # JSON is YAML
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    write_dataset(generate_campaign(["open_sky", "urban_canyon"], 4, 5, epochs_per_session=3, rate_hz=2.0,
                                    noise_sigma_m=1.5, nlos_bias_mean_m=25.0), ref)
    assert out.read_bytes() == ref.read_bytes()


def test_featurize_train_evaluate_report(tiny_config, tiny_dataset, tmp_path, capsys):
    cache = tmp_path / "features.npz"
    assert main(["featurize", "--config", tiny_config, "--data", tiny_dataset, "--out", str(cache)]) == 0
    assert cache.exists()

    model = tmp_path / "model.npz"
    assert main(
        ["train", "--config", tiny_config, "--features", str(cache), "--out", str(model), "--mode", "residual"]
    ) == 0
    assert model.exists()
    loss_csv = tmp_path / "model_loss.csv"
    assert loss_csv.exists()
    lines = loss_csv.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) >= 2

    out_dir = tmp_path / "eval"
    assert main(
        [
            "evaluate",
            "--config", tiny_config,
            "--data", tiny_dataset,
            "--out-dir", str(out_dir),
            "--strategies", "equal,truth,nn_residual",
            "--model-residual", str(model),
        ]
    ) == 0
    records = read_error_csv(out_dir / "errors.csv")
    strategies = {r.strategy for r in records}
    assert strategies == {"equal", "truth", "nn_residual"}
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["strategies"]) == strategies
    for s in strategies:
        assert summary["strategies"][s]["count"] > 0

    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["report", "--errors", str(out_dir / "errors.csv"), "--out", str(report)]) == 0
    table = capsys.readouterr().out
    for s in strategies:
        assert s in table
    # the report's summaries are evaluate's, without its seed and split
    assert json.loads(report.read_text()) == {"strategies": summary["strategies"]}


def test_cache_and_checkpoint_are_written_to_out_as_given(tiny_config, tiny_dataset, tmp_path, capsys):
    """An ``--out`` without the ".npz" suffix: ``featurize`` and ``train``
    write exactly that path and name it, and the next stage reads it; no
    ".npz" twin appears."""
    cache = tmp_path / "feats.cache"
    assert main(["featurize", "--config", tiny_config, "--data", tiny_dataset, "--out", str(cache)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(f" to {cache}")
    model = tmp_path / "model"
    assert main(
        ["train", "--config", tiny_config, "--features", str(cache), "--out", str(model), "--mode", "residual"]
    ) == 0
    assert f"checkpoint {model}, losses {tmp_path / 'model_loss.csv'}" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["feats.cache", "model", "model_loss.csv"]
    assert main(
        ["evaluate", "--config", tiny_config, "--data", tiny_dataset, "--out-dir", str(tmp_path / "eval"),
         "--strategies", "equal,nn_residual", "--model-residual", str(model)]
    ) == 0


def test_checkpoints_differing_in_suffix_keep_their_own_loss_files(tiny_config, tiny_dataset, tmp_path):
    """Only a ".npz" suffix leaves the loss file's name: ``run.a`` and
    ``run.b`` write ``run.a_loss.csv`` and ``run.b_loss.csv``, and neither
    training overwrites the other's losses."""
    for name, mode in (("run.a", "full"), ("run.b", "residual")):
        assert main(["train", "--config", tiny_config, "--data", tiny_dataset,
                     "--out", str(tmp_path / name), "--mode", mode]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.a", "run.a_loss.csv", "run.b", "run.b_loss.csv"]
    assert (tmp_path / "run.a_loss.csv").read_text() != (tmp_path / "run.b_loss.csv").read_text()


def test_training_from_cache_matches_direct(tiny_config, tiny_dataset, tmp_path):
    cache = tmp_path / "features.npz"
    assert main(["featurize", "--config", tiny_config, "--data", tiny_dataset, "--out", str(cache)]) == 0
    m1 = tmp_path / "direct.npz"
    m2 = tmp_path / "cached.npz"
    assert main(["train", "--config", tiny_config, "--data", tiny_dataset, "--out", str(m1), "--mode", "residual"]) == 0
    assert main(["train", "--config", tiny_config, "--features", str(cache), "--out", str(m2), "--mode", "residual"]) == 0
    from gnssweight.nn import load_checkpoint

    a, mean_a, std_a, _ = load_checkpoint(m1)
    b, mean_b, std_b, _ = load_checkpoint(m2)
    assert np.array_equal(mean_a, mean_b)
    for (k1, p1), (k2, p2) in zip(a.param_items(), b.param_items()):
        assert k1 == k2
        assert np.array_equal(p1, p2)


def test_epochs_without_measurements_are_skipped(tiny_config, tiny_dataset, tmp_path):
    """A campaign with an empty epoch in the train and in the test split runs
    through every stage: featurize skips both, and each strategy counts the
    test one as a failure."""
    header, *epochs = Path(tiny_dataset).read_text(encoding="utf-8").splitlines()
    split = {sid: info["split"] for sid, info in json.loads(header)["sessions"].items()}
    epochs = [json.loads(line) for line in epochs]
    for which in ("train", "test"):
        next(e for e in epochs if split[e["session_id"]] == which)["measurements"] = []
    data = tmp_path / "campaign.jsonl"
    data.write_text("\n".join([header, *map(json.dumps, epochs)]) + "\n", encoding="utf-8")

    cache = tmp_path / "features.npz"
    assert main(["featurize", "--config", tiny_config, "--data", str(data), "--out", str(cache)]) == 0
    models = []
    for mode in ("full", "residual"):
        model = tmp_path / f"{mode}.npz"
        assert main(["train", "--config", tiny_config, "--features", str(cache), "--out", str(model),
                     "--mode", mode]) == 0
        models += [f"--model-{mode}", str(model)]
    out_dir = tmp_path / "eval"
    assert main(["evaluate", "--config", tiny_config, "--data", str(data), "--out-dir", str(out_dir),
                 "--strategies", "truth,nn_full,nn_residual,fde_sota,equal", *models]) == 0
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["strategies"]
    n_test = sum(split[e["session_id"]] == "test" for e in epochs)
    assert len(summary) == 5
    for s in summary.values():
        assert s["failures"] >= 1
        assert s["count"] + s["failures"] == n_test


def test_truthless_train_epoch_is_left_out_of_the_cache(tiny_config, tiny_dataset, tmp_path):
    """A train epoch without a truth position has no labels: featurize
    leaves it out of the cache, every cached matrix has its labels, and
    train runs on the cache. The epoch still advances its session's C/N0
    tracker, so every other matrix keeps the bits it has with the truth."""
    from gnssweight.dataio import read_dataset
    from gnssweight.featurize import featurize_sessions

    header, *lines = Path(tiny_dataset).read_text(encoding="utf-8").splitlines()
    session = next(s for s in read_dataset(tiny_dataset).sessions if s.split == "train")
    epochs = [json.loads(line) for line in lines]
    k = [i for i, e in enumerate(epochs) if e["session_id"] == session.session_id][1]
    del epochs[k]["truth"]
    data = tmp_path / "campaign.jsonl"
    data.write_text("\n".join([header, *map(json.dumps, epochs)]) + "\n", encoding="utf-8")
    removed = featurize_sessions([session.epochs])[1][0]
    assert removed is not None

    cached = []  # the train matrices of each cache, as bytes
    for name, campaign in (("all.npz", tiny_dataset), ("truthless.npz", data)):
        cache = tmp_path / name
        assert main(["featurize", "--config", tiny_config, "--data", str(campaign), "--out", str(cache)]) == 0
        with np.load(cache) as z:
            splits = json.loads(bytes(z["meta"]))["splits"]
            assert all(f"lab_{i}" in z.files for ids in splits.values() for i in ids)
            cached.append([z[f"fm_{i}"].tobytes() for i in splits["train"]])
    full, truthless = cached
    assert truthless == [b for b in full if b != removed.tobytes()] and len(truthless) == len(full) - 1
    for mode in ("full", "residual"):
        assert main(["train", "--config", tiny_config, "--features", str(tmp_path / "truthless.npz"),
                     "--out", str(tmp_path / f"{mode}.npz"), "--mode", mode]) == 0


def test_resume_continues_from_checkpoint(tiny_config, tiny_dataset, tmp_path):
    first = tmp_path / "first.npz"
    assert main(["train", "--config", tiny_config, "--data", tiny_dataset, "--out", str(first), "--mode", "residual"]) == 0
    second = tmp_path / "second.npz"
    assert main(
        ["train", "--config", tiny_config, "--data", tiny_dataset, "--out", str(second),
         "--mode", "residual", "--resume", str(first)]
    ) == 0
    from gnssweight.nn import load_checkpoint

    a, _, _, _ = load_checkpoint(first)
    b, _, _, _ = load_checkpoint(second)
    # resumed training moved the parameters
    assert any(
        not np.array_equal(p1, p2)
        for (_, p1), (_, p2) in zip(a.param_items(), b.param_items())
    )


def test_bad_config_key_fails_with_name(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("simulate:\n  profiless: [suburban]\n", encoding="utf-8")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "profiless" in err


def test_missing_model_fails_naming_strategy(tiny_config, tiny_dataset, tmp_path, capsys):
    """A learned strategy without a model path, or with one that does not
    exist, fails as every other input error does: the command raises
    ConfigInvalid, and ``main`` prints one ``error: ...`` line naming the
    strategy and the path, exits 1 and writes nothing."""
    missing = str(tmp_path / "gone.npz")
    for strategy, model_args, path in (("nn_full", [], None),
                                       ("nn_residual", ["--model-residual", missing], missing)):
        argv = ["evaluate", "--config", tiny_config, "--data", tiny_dataset, *model_args,
                "--out-dir", str(tmp_path / "eval"), "--strategies", f"{strategy},equal"]
        args = build_parser().parse_args(argv)
        with pytest.raises(ConfigInvalid, match=strategy):
            args.func(args)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: strategy '{strategy}' needs a model file (got {path!r})\n"
        assert not (tmp_path / "eval").exists()


def test_unknown_strategy_flag_fails_like_config(tiny_config, tiny_dataset, tmp_path, capsys):
    rc = main(
        [
            "evaluate",
            "--config", tiny_config,
            "--data", tiny_dataset,
            "--out-dir", str(tmp_path / "eval"),
            "--strategies", "equal,bogus",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'evaluate.strategies' entry 'bogus'" in err
    assert not (tmp_path / "eval").exists()


def test_jobs_below_one_fails_before_reading_data(tmp_path, capsys):
    for jobs in ("0", "-2"):
        rc = main(["evaluate", "--data", str(tmp_path / "missing.jsonl"),
                   "--out-dir", str(tmp_path / "eval"), "--jobs", jobs])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"--jobs must be at least 1, got {jobs}" in err
    assert not (tmp_path / "eval").exists()


@pytest.fixture(scope="module")
def residual_model(tiny_config, tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "residual.npz"
    assert main(["train", "--config", tiny_config, "--data", tiny_dataset, "--out", str(out), "--mode", "residual"]) == 0
    return str(out)


def test_checkpoint_of_other_mode_fails_with_modes(tiny_config, tiny_dataset, residual_model, tmp_path, capsys):
    rc = main(
        [
            "evaluate",
            "--config", tiny_config,
            "--data", tiny_dataset,
            "--out-dir", str(tmp_path / "eval"),
            "--strategies", "nn_full,equal",
            "--model-full", residual_model,
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'residual'" in err and "'full'" in err
    rc = main(
        ["train", "--config", tiny_config, "--data", tiny_dataset, "--out", str(tmp_path / "m.npz"),
         "--mode", "full", "--resume", residual_model]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'residual'" in err and "'full'" in err


def test_resume_with_other_hidden_size_fails_with_sizes(tiny_config, tiny_dataset, residual_model, tmp_path, capsys):
    wider = tmp_path / "wider.yaml"
    wider.write_text(Path(tiny_config).read_text(encoding="utf-8").replace("hidden: 4", "hidden: 8"), encoding="utf-8")
    out = tmp_path / "m.npz"
    rc = main(
        ["train", "--config", str(wider), "--data", tiny_dataset, "--out", str(out),
         "--mode", "residual", "--resume", residual_model]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4-unit" in err and "'train.hidden' is 8" in err
    assert not out.exists()


def test_file_that_is_not_npz_fails_with_path(tiny_config, tiny_dataset, tmp_path, capsys):
    rc = main(
        [
            "evaluate",
            "--config", tiny_config,
            "--data", tiny_dataset,
            "--out-dir", str(tmp_path / "eval"),
            "--strategies", "nn_full,equal",
            "--model-full", tiny_dataset,
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and tiny_dataset in err and "checkpoint" in err
    assert "not an npz archive" in err and "pickle" not in err, err
    rc = main(["train", "--config", tiny_config, "--features", tiny_dataset, "--out", str(tmp_path / "m.npz")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and tiny_dataset in err and "feature cache" in err
    assert "not an npz archive" in err and "pickle" not in err, err


def test_npz_of_other_kind_names_missing_entry(tiny_config, tiny_dataset, residual_model, tmp_path, capsys):
    """A feature cache given as a checkpoint (``--model-full`` or
    ``--resume``), a checkpoint given as a feature cache and an npz of
    neither kind each fail with one ``error: ...`` line naming the file
    and the entry it lacks."""
    cache, other = tmp_path / "features.npz", tmp_path / "other.npz"
    _write_feature_cache(cache, {"train": [_SAMPLE], "val": [_SAMPLE]})
    np.savez(other, x=np.zeros(3))
    out = tmp_path / "m.npz"
    cases = [
        (["evaluate", "--config", tiny_config, "--data", tiny_dataset, "--out-dir", str(tmp_path / "eval"),
          "--strategies", "nn_full,equal", "--model-full", str(cache)], cache, "checkpoint", "'n_layers'"),
        (["train", "--config", tiny_config, "--data", tiny_dataset, "--out", str(out), "--mode", "residual",
          "--resume", str(cache)], cache, "checkpoint", "'n_layers'"),
        (["train", "--config", tiny_config, "--features", residual_model, "--out", str(out)],
         residual_model, "feature cache", "'splits'"),
        (["train", "--config", tiny_config, "--features", str(other), "--out", str(out)],
         other, "feature cache", "no entry 'meta'"),
    ]
    for argv, path, what, entry in cases:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{path} is not a readable {what}: no entry " in err and entry in err, err
    assert not out.exists()


def _write_feature_cache(path, splits):
    """An npz in the layout ``featurize`` writes, holding ``splits``."""
    arrays, index, i = {}, {}, 0
    for split, samples in splits.items():
        index[split] = list(range(i, i + len(samples)))
        for fm, labels in samples:
            arrays[f"fm_{i}"], arrays[f"lab_{i}"] = fm, labels
            i += 1
    meta = {"version": 1, "seed": 0, "splits": index}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


_SAMPLE = (np.ones((5, N_FEATURES)), np.zeros(5))


@pytest.mark.parametrize("splits, expect", [
    ({"train": [_SAMPLE]}, "no val split"),
    ({"val": [_SAMPLE]}, "no train split"),
    ({"train": [(np.ones((5, 3)), np.zeros(5))], "val": [_SAMPLE]}, "shape (5, 3)"),
    ({"train": [_SAMPLE], "val": [(np.ones(5), np.zeros(5))]}, "shape (5,)"),
    ({"train": [_SAMPLE, (np.ones((5, N_FEATURES)), np.zeros(4))], "val": [_SAMPLE]}, "for 5 rows"),
], ids=["no-val", "no-train", "three-columns", "one-dimensional", "short-labels"])
def test_invalid_feature_cache_fails_with_path(splits, expect, tiny_config, tmp_path, capsys):
    """A cache without both fitting splits, with a matrix that is not
    (N, N_FEATURES) or with labels that do not match its rows fails
    before training with one ``error: ...`` line naming the file."""
    cache = tmp_path / "features.npz"
    _write_feature_cache(cache, splits)
    out = tmp_path / "m.npz"
    assert main(["train", "--config", tiny_config, "--features", str(cache), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(cache) in err and "feature cache" in err and expect in err, err
    assert not out.exists()


def _with_meta(src, dst, edit):
    """A copy at ``dst`` of the npz ``src`` whose ``meta`` entry holds
    ``edit(meta)``, as JSON, or as it is when ``edit`` returns bytes."""
    with np.load(src) as data:
        arrays = dict(data)
    meta = edit(json.loads(bytes(arrays["meta"])))
    raw = meta if isinstance(meta, bytes) else json.dumps(meta).encode()
    np.savez(dst, **{**arrays, "meta": np.frombuffer(raw, dtype=np.uint8)})


@pytest.mark.parametrize("kind, edit, expect", [
    ("cache", lambda meta: [meta], "valid feature cache: the metadata and its 'splits' must be objects"),
    ("cache", lambda meta: {**meta, "splits": list(meta["splits"].values())},
     "metadata and its 'splits' must be objects"),
    ("cache", lambda meta: {**meta, "splits": {"train": ["0"], "val": [1]}}, "split 'train' is not a list"),
    ("cache", lambda meta: b"{not json", "not a readable feature cache: Expecting property name"),
    ("checkpoint", lambda meta: [meta], "valid checkpoint: its metadata is not an object"),
    ("checkpoint", lambda meta: {**meta, "n_layers": "2"}, "'n_layers' is '2'"),
    ("checkpoint", lambda meta: {**meta, "head_b": [0.5]}, "'head_b' is [0.5]"),
    ("checkpoint", lambda meta: {**meta, "config": []}, "'config' is []"),
], ids=["cache-meta-list", "splits-list", "string-ids", "meta-not-json",
        "checkpoint-meta-list", "string-n-layers", "list-head-b", "list-config"])
def test_metadata_of_wrong_type_fails_with_path(kind, edit, expect, tiny_config, residual_model, tmp_path, capsys):
    """A feature cache or checkpoint whose JSON metadata is not JSON, not an
    object, or holds a value of the wrong type fails with one
    ``error: ...`` line naming the file instead of a traceback."""
    cache, bad, out = tmp_path / "features.npz", tmp_path / "bad.npz", tmp_path / "m.npz"
    _write_feature_cache(cache, {"train": [_SAMPLE], "val": [_SAMPLE]})
    argv = ["train", "--config", tiny_config, "--features", str(cache), "--out", str(out), "--mode", "residual"]
    if kind == "cache":
        _with_meta(cache, bad, edit)
        argv[4] = str(bad)
    else:
        _with_meta(residual_model, bad, edit)
        argv += ["--resume", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{bad} is not a" in err and expect in err, err
    assert not out.exists()


CSV_HEADER = "session_id,t,strategy,h_err_m,v_err_m,converged,n_sv,n_zero_weight\n"


@pytest.mark.parametrize(
    "files, argv, expect",
    [
        ({}, ["simulate", "--config", "missing.yaml", "--out", "x.jsonl"], "missing.yaml"),
        ({}, ["featurize", "--data", "missing.jsonl", "--out", "f.npz"], "missing.jsonl"),
        ({"bad.yaml": "seed: [1, 2\nsimulate: {}\n"},
         ["simulate", "--config", "bad.yaml", "--out", "x.jsonl"], "bad.yaml"),
        ({}, ["report", "--errors", "missing.csv"], "missing.csv"),
        ({"nocol.csv": "t,strategy\n0.0,equal\n"}, ["report", "--errors", "nocol.csv"], "line 1: "),
        ({"badt.csv": CSV_HEADER + "s,0.0,equal,1,1,1,5,0\ns,abc,equal,1,1,1,5,0\n"},
         ["report", "--errors", "badt.csv"], "line 3: "),
        ({}, ["train", "--out", "m.npz"], "--data or --features"),
    ],
    ids=["missing-config", "missing-data", "bad-yaml", "missing-errors", "no-session-column",
         "non-numeric-t", "train-without-input"],
)
def test_input_error_is_one_line(files, argv, expect, tmp_path, capsys):
    """A missing or malformed input file, or a missing input, exits 1 with
    one ``error: ...`` line instead of a traceback."""
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = {"missing.yaml", "missing.jsonl", "missing.csv", "x.jsonl", "f.npz", "m.npz", *files}
    argv = [str(tmp_path / a) if a in paths else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and expect in err, err
    assert not (tmp_path / "x.jsonl").exists() and not (tmp_path / "m.npz").exists()


def test_cli_and_calibration_leave_scipy_unloaded():
    """The package runs without scipy: a fresh process that imports the CLI
    and calibrates the elevation/C/N0 baseline has loaded no scipy module."""
    src = str(Path(gnssweight.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import sys
import numpy as np
import gnssweight.cli
from gnssweight.baselines import calibrate_sota
rng = np.random.default_rng(2)
thetas = rng.uniform(np.radians(10), np.radians(88), 6000)
cn0s = rng.uniform(25, 55, 6000)
calibrate_sota(thetas, cn0s, rng.normal(0, 1 / np.sin(thetas)))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"scipy loaded: {loaded}" if loaded else 0)
"""
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
