"""The three benchmark workloads.

Each workload has a ``setup`` (timed separately, repeated to report its
median), a ``unit`` of work that run.py repeats for the run's seconds,
``snapshot``/``restore`` so a traced run can replay a unit from the same
state, and a ``check`` that verifies outputs and collects details once
timing is over. How many units fit in a run depends on the host, so
``check`` counts ``attempted`` and ``failed`` over the first
``MIN_UNITS`` units only, which every run makes, and checks that the
units after them repeat them exactly: the counts are then fixed by the
seed and no failure goes uncounted. Only public gnssweight functions are
called. Why each workload exists and what each layer metric is predicted
to move is in README.md next to this file.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

from gnssweight import cli, nn, solver
from gnssweight.dataio import Dataset
from gnssweight.errors import NonConvergence, NotEnoughMeasurements, SingularGeometry
from gnssweight.evaluation import STRATEGIES, position_errors
from gnssweight.featurize import EpochFeaturizer, dataset_samples, fit_normalization, normalized_split
from gnssweight.geo import SPEED_OF_LIGHT
from gnssweight.model import ConstellationId
from gnssweight.sim import generate_campaign


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_cli(argv) -> None:
    """One in-process ``gnssweight`` invocation; its table output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"gnssweight {' '.join(argv)} exited with {rc}")


def run_stage(state, name: str, argv) -> None:
    """``run_cli`` inside a ``cli.<name>`` span when the unit is traced."""
    tracer = state.get("tracer")
    with tracer.span(f"cli.{name}") if tracer is not None else contextlib.nullcontext():
        run_cli(argv)


def write_config(path, seed: int, simulate: dict, train: dict) -> None:
    """YAML run configuration; JSON is a subset of YAML."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "simulate": simulate, "train": train}, fh)


def best_val_loss(loss_csv) -> float:
    with open(loss_csv, newline="", encoding="utf-8") as fh:
        return min(float(r["val_loss"]) for r in csv.DictReader(fh))


def loss_rows(loss_csv) -> int:
    with open(loss_csv, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.DictReader(fh))


def npz_hash(path) -> str:
    """Content hash of an npz file; the zip container itself carries timestamps."""
    with np.load(path) as data:
        return sha256_arrays(data[k] for k in sorted(data.files))


def counted_percentiles(samples_ms) -> dict:
    """p50, p95 and p99 of fix latency, each only if 10 samples lie beyond it."""
    out = {"count": len(samples_ms)}
    for p in (50, 95, 99):
        if len(samples_ms) * (100 - p) / 100.0 >= 10:
            out[f"p{p}"] = float(np.percentile(samples_ms, p))
    return out


class _Stateless:
    """Units that carry no state from one to the next, so replay needs none."""

    def snapshot(self, state):
        return None

    def restore(self, state, snapshot):
        pass


class UrbanPipeline(_Stateless):
    """The paper's scenario as users run it: five CLI stages, in-process."""

    name = "urban_pipeline"
    MIN_UNITS = 1
    OUTPUT_KEYS = ("campaign_sha256", "features_sha256", "errors_csv_sha256")
    # N is fixed within a session and varies from 4 to 17 between sessions,
    # so single-epoch sessions, as many as possible, keep the campaign's cost
    # steady across seeds.
    SIMULATE = {"profiles": ["urban_canyon"], "sessions_per_profile": 180, "epochs_per_session": 1}
    # patience >= max_epochs: training runs a fixed number of epochs.
    TRAIN = {"max_epochs": 3, "patience": 3}

    def setup(self, seed, workdir, root):
        os.makedirs(workdir, exist_ok=True)
        config = os.path.join(workdir, "run.yaml")
        write_config(config, seed, self.SIMULATE, self.TRAIN)
        # Each CLI stage a user runs pays a fresh interpreter and package import.
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        subprocess.run([sys.executable, "-c", "import gnssweight.cli"], cwd=root, env=env, check=True)
        return {"config": config, "workdir": workdir, "reps": 0}

    def fingerprint(self, state):
        with open(state["config"], "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def unit(self, state, i):
        d = os.path.join(state["workdir"], f"rep{state['reps']}")
        state["reps"] += 1
        os.makedirs(d, exist_ok=True)
        cfg = state["config"]
        p = {k: os.path.join(d, v) for k, v in
             (("data", "campaign.jsonl"), ("features", "features.npz"),
              ("full", "model_full.npz"), ("residual", "model_res.npz"), ("out", "results"))}
        stages = [
            ("simulate", ["simulate", "--config", cfg, "--out", p["data"]]),
            ("featurize", ["featurize", "--config", cfg, "--data", p["data"], "--out", p["features"]]),
            ("train_full", ["train", "--config", cfg, "--features", p["features"], "--mode", "full",
                            "--out", p["full"]]),
            ("train_residual", ["train", "--config", cfg, "--features", p["features"],
                                "--mode", "residual", "--out", p["residual"]]),
            ("evaluate", ["evaluate", "--config", cfg, "--data", p["data"], "--model-full", p["full"],
                          "--model-residual", p["residual"], "--out-dir", p["out"], "--jobs", "1"]),
        ]
        for stage, argv in stages:
            run_stage(state, stage, argv)
        n_epochs = self.SIMULATE["sessions_per_profile"] * self.SIMULATE["epochs_per_session"]
        return {"paths": p, "items": n_epochs}

    def check(self, state, results, durations):
        checks, reps = {}, []
        for i, res in enumerate(results):
            p = res["paths"]
            errors_csv = os.path.join(p["out"], "errors.csv")
            with open(os.path.join(p["out"], "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)["strategies"]
            report_json = os.path.join(p["out"], "report.json")
            run_cli(["report", "--errors", errors_csv, "--out", report_json])
            with open(report_json, encoding="utf-8") as fh:
                report = json.load(fh)["strategies"]
            with open(errors_csv, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            reasons = collections.Counter()
            for r in rows:
                if r["converged"] == "1":
                    continue
                if np.isfinite(float(r["h_err_m"])):
                    reasons["NonConvergence"] += 1
                elif r["strategy"].startswith("nn_") and r["n_zero_weight"] == "0":
                    reasons["skipped_epoch"] += 1
                else:  # fde_sota below its retention floor, or singular geometry
                    reasons["NotEnoughMeasurements_or_SingularGeometry"] += 1
            test_epochs = len({(r["session_id"], r["t"]) for r in rows})
            checks[f"rep{i}.summary_matches_report"] = summary == report
            checks[f"rep{i}.counts_cover_test_split"] = all(
                s["count"] + s["failures"] == test_epochs for s in summary.values()
            ) and sorted(summary) == sorted(STRATEGIES)
            reps.append({
                "campaign_sha256": sha256_file(p["data"]),
                "features_sha256": npz_hash(p["features"]),
                "errors_csv_sha256": sha256_file(errors_csv),
                "summary": summary,
                "val_loss.full": best_val_loss(p["full"][:-4] + "_loss.csv"),
                "val_loss.residual": best_val_loss(p["residual"][:-4] + "_loss.csv"),
                "attempted": len(rows),
                "failed": sum(reasons.values()),
                "failure_reasons": dict(reasons),
            })
            shutil.rmtree(os.path.dirname(p["data"]))
        for key in ("campaign_sha256", "features_sha256", "errors_csv_sha256"):
            checks[f"deterministic.{key}"] = len({r[key] for r in reps}) == 1
        first = reps[0]
        details = {k: v for k, v in first.items() if k not in ("attempted", "failed")}
        for strat, s in first["summary"].items():
            q = s["quantiles_h_m"]
            details[f"h_err_q50_m.{strat}"] = q["0.5"]
            details[f"h_err_q95_m.{strat}"] = q["0.95"]
        # later reps have the first one's errors.csv, checked above
        return checks, details, first["attempted"], first["failed"]


class DenseSkyFix:
    """A receiver making fixes online: one client, one epoch at a time."""

    name = "dense_sky_fix"
    OUTPUT_KEYS = ("fix_positions_sha256",)
    # Four constellations in open sky put N near 18 in view.
    SKY = {ConstellationId.GPS: 14, ConstellationId.GALILEO: 13,
           ConstellationId.GLONASS: 13, ConstellationId.BEIDOU: 14}
    # Many short sessions, as for urban_pipeline: N varies between sessions.
    TRAIN_SESSIONS, TRAIN_EPOCHS = 10, 2
    # Stream sessions per N in view at their first epoch. N ranges from
    # about 10 to 29 between open-sky sessions and a fix costs about N^2,
    # so a stream drawn freely moved the time per fix by 14% between seeds.
    # Every seed's stream has this mix instead, centred on N = 18.
    N_MIX = {15: 4, 16: 7, 17: 9, 18: 10, 19: 10, 20: 9, 21: 7, 22: 4}
    STREAM_EPOCHS = 2
    STREAM_BATCH = 100  # sessions simulated at a time while filling N_MIX
    # One pass over the stream takes about 13 s on a 2-vCPU x86-64 VM, so a
    # run of 24 s makes one pass and most of a second.
    MIN_UNITS = sum(N_MIX.values()) * STREAM_EPOCHS  # one pass over the stream
    TRAIN = {"hidden": 16, "max_epochs": 10, "patience": 10, "batch_size": 8}
    CHECK_FIXES = 24  # fixes hashed as the output; every run makes far more

    def setup(self, seed, workdir, root):
        campaign = generate_campaign(["open_sky"], self.TRAIN_SESSIONS, seed,
                                     epochs_per_session=self.TRAIN_EPOCHS, sv_counts=self.SKY)
        fitting = Dataset(seed=seed, sessions=[s for s in campaign.sessions if s.split != "test"])
        splits = dataset_samples(fitting)
        norm = fit_normalization(splits["train"], "full")
        cfg = nn.TrainConfig(seed=seed, feature_mode="full", **self.TRAIN)
        model, report = nn.train(normalized_split(splits["train"], norm, "full"),
                                 normalized_split(splits["val"], norm, "full"), cfg)
        sessions = self.stream_sessions(seed)
        # Round-robin over sessions, so any prefix of the stream samples every
        # session's sky equally however many fixes a run completes.
        stream = [(k, s.epochs[j]) for j in range(self.STREAM_EPOCHS) for k, s in enumerate(sessions)]
        state = {"model": model, "norm": norm, "val_loss": report.best_val,
                 "stream": stream, "n_sessions": len(sessions)}
        self._restart(state)
        return state

    def stream_sessions(self, seed):
        """Sessions with the mix ``N_MIX``, from campaigns other than the model's."""
        need, sessions = dict(self.N_MIX), []
        for batch in range(1, 21):
            campaign = generate_campaign(["open_sky"], self.STREAM_BATCH, seed + 1_000_003 * batch,
                                         epochs_per_session=self.STREAM_EPOCHS, sv_counts=self.SKY)
            for s in campaign.sessions:
                n = s.epochs[0].n
                if need.get(n, 0) > 0:
                    need[n] -= 1
                    sessions.append(s)
            if not any(need.values()):
                return sessions
        raise RuntimeError(f"seed {seed}: sessions still missing for N_MIX: {need}")

    def fingerprint(self, state):
        epochs = [e for _, e in state["stream"]]
        model = state["model"]
        return {
            "stream_sha256": sha256_arrays(a for e in epochs for a in (e.sat_array(), e.pr_array())),
            "model_sha256": sha256_arrays([a for _, a in model.param_items()] + [np.array(model.head_b)]),
        }

    def _restart(self, state):
        state["featurizers"] = [EpochFeaturizer() for _ in range(state["n_sessions"])]

    def snapshot(self, state):
        return copy.deepcopy(state["featurizers"])

    def restore(self, state, snapshot):
        state["featurizers"] = snapshot

    def unit(self, state, i):
        k = i % len(state["stream"])
        if k == 0 and i > 0:  # the stream wrapped: sessions start over
            self._restart(state)
        session, epoch = state["stream"][k]
        out = {"epoch": epoch, "state": None, "weights": None, "reason": None, "items": 1}
        fm = state["featurizers"][session].featurize(epoch)
        if fm is None:
            out["reason"] = "skipped_epoch"
            return out
        w = nn.predict_weights(state["model"], state["norm"].apply(fm))
        try:
            init = solver.solve_wls(epoch, np.ones(epoch.n)).state
            out["state"] = solver.solve_wls(epoch, w, init=init).state
            out["weights"] = w
        except NonConvergence as e:
            out["reason"] = "NonConvergence"
            out["state"] = e.report.state if e.report is not None else None
        except (SingularGeometry, NotEnoughMeasurements) as e:
            out["reason"] = type(e).__name__
        return out

    def check(self, state, results, durations):
        first_pass = results[: self.MIN_UNITS]
        reasons = collections.Counter(r["reason"] for r in first_pass if r["reason"])
        steps, h_err, positions = [], [], []
        for r in results:
            if r["state"] is not None and r["reason"] is None:
                steps.append(gauss_newton_step_m(r["epoch"], r["state"], r["weights"]))
        for r in first_pass:
            if r["state"] is not None:
                positions.append(r["state"].position.as_array())
                h_err.append(position_errors(r["state"], r["epoch"].truth)[0])
        checks = {
            # A converged weighted fix is a stationary point of its cost: one
            # more Gauss-Newton step, computed here independently of the
            # solver, moves it by far less than a millimetre.
            "weighted_fix_is_stationary": bool(steps) and max(steps) < 1e-3,
            # every later pass restarts the sessions and repeats the first
            "deterministic.passes": all(
                same_fix(r, results[i % self.MIN_UNITS]) for i, r in enumerate(results)
            ),
        }
        details = {
            "fix_positions_sha256": sha256_arrays(positions[: self.CHECK_FIXES]),
            "fix_positions_hashed": min(len(positions), self.CHECK_FIXES),
            "max_gauss_newton_step_m": max(steps) if steps else None,
            "h_err_q50_m.nn_full": float(np.quantile(h_err, 0.5)) if h_err else None,
            "h_err_q95_m.nn_full": float(np.quantile(h_err, 0.95)) if h_err else None,
            "val_loss.full": state["val_loss"],
            "mean_n": float(np.mean([r["epoch"].n for r in first_pass])),
            "failure_reasons": dict(reasons),
            "fix_ms": counted_percentiles([d * 1e3 for d in durations]),
        }
        return checks, details, len(first_pass), sum(reasons.values())


def same_fix(a, b) -> bool:
    """Whether two fixes of the same stream epoch had the same outcome."""
    if a["reason"] != b["reason"] or (a["state"] is None) != (b["state"] is None):
        return False
    return a["state"] is None or np.array_equal(a["state"].position.as_array(),
                                                b["state"].position.as_array())


def gauss_newton_step_m(epoch, state, weights) -> float:
    """Norm of the position part of one weighted Gauss-Newton step from ``state``."""
    consts = epoch.constellations()
    idx = epoch.const_index()
    clock_m = np.array([SPEED_OF_LIGHT * state.clock_bias[c] for c in consts])
    diff = state.position.as_array()[None, :] - epoch.sat_array()
    rng = np.linalg.norm(diff, axis=1)
    r = epoch.pr_array() - rng - clock_m[idx]
    J = np.zeros((epoch.n, 3 + len(consts)))
    J[:, :3] = diff / rng[:, None]
    J[np.arange(epoch.n), 3 + idx] = 1.0
    sw = np.sqrt(np.asarray(weights, dtype=float))
    dx = np.linalg.lstsq(J * sw[:, None], r * sw, rcond=None)[0]
    return float(np.linalg.norm(dx[:3]))


class LstmTrain(_Stateless):
    """Training from a feature cache: ``gnssweight train`` for both modes."""

    name = "lstm_train"
    MIN_UNITS = 1
    OUTPUT_KEYS = ("checkpoint_sha256.full", "checkpoint_sha256.residual")
    # A training row is a measurement, and N is fixed within a session and
    # varies from 4 to 17 between sessions: single-epoch sessions give the
    # most sessions per featurized epoch and so the steadiest training work
    # across seeds. Their C/N0 windows hold one value, which costs training
    # nothing.
    SIMULATE = {"profiles": ["urban_canyon"], "sessions_per_profile": 160, "epochs_per_session": 1}
    TRAIN = {"hidden": 64, "max_epochs": 8, "patience": 8}

    def setup(self, seed, workdir, root):
        os.makedirs(workdir, exist_ok=True)
        config = os.path.join(workdir, "run.yaml")
        write_config(config, seed, self.SIMULATE, self.TRAIN)
        data = os.path.join(workdir, "campaign.jsonl")
        features = os.path.join(workdir, "features.npz")
        run_cli(["simulate", "--config", config, "--out", data])
        run_cli(["featurize", "--config", config, "--data", data, "--out", features])
        with np.load(features) as cache:
            meta = json.loads(bytes(cache["meta"]))
            train_rows = sum(cache[f"fm_{i}"].shape[0] for i in meta["splits"]["train"]
                             if f"lab_{i}" in cache.files)
        return {"config": config, "data": data, "features": features,
                "workdir": workdir, "train_rows": train_rows, "reps": 0}

    def fingerprint(self, state):
        return {"campaign_sha256": sha256_file(state["data"]),
                "features_sha256": npz_hash(state["features"])}

    def unit(self, state, i):
        out = {}
        state["reps"] += 1
        for mode in ("full", "residual"):
            path = os.path.join(state["workdir"], f"rep{state['reps']}_{mode}.npz")
            argv = ["train", "--config", state["config"], "--features", state["features"],
                    "--mode", mode, "--out", path]
            run_stage(state, f"train_{mode}", argv)
            out[mode] = path
        # training rows through forward and backward, both modes
        return {"paths": out, "items": 2 * state["train_rows"] * self.TRAIN["max_epochs"]}

    def check(self, state, results, durations):
        checks, hashes = {}, collections.defaultdict(set)
        details = {}
        for i, res in enumerate(results):
            for mode, path in res["paths"].items():
                hashes[mode].add(npz_hash(path))
                loss_csv = path[:-4] + "_loss.csv"
                checks[f"rep{i}.{mode}.ran_all_epochs"] = loss_rows(loss_csv) == self.TRAIN["max_epochs"]
                val = best_val_loss(loss_csv)
                checks[f"rep{i}.{mode}.val_loss_finite"] = bool(np.isfinite(val))
                details.setdefault(f"val_loss.{mode}", val)
                os.remove(path)
                os.remove(loss_csv)
        for mode, hs in hashes.items():
            checks[f"deterministic.{mode}_checkpoint"] = len(hs) == 1
            details[f"checkpoint_sha256.{mode}"] = sorted(hs)[0]
        details["train_rows"] = state["train_rows"]
        # two trainings per unit; later units give the same checkpoints
        return checks, details, 2, 0


WORKLOADS = {w.name: w for w in (UrbanPipeline(), DenseSkyFix(), LstmTrain())}
