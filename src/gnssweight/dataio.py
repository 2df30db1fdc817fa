"""Line-delimited dataset serialization.

One JSON object per line: a header (format, version, seed, session
table) followed by one epoch per line. Floats are written with 17
significant digits so identical datasets serialize to identical bytes
and round-trip exactly.

On read, every numeric field but ``sv`` (pseudorange, C/N0, lock time,
satellite and truth coordinates, epoch time) is a finite JSON int or
float, not a bool; an int reads as the float of its value. ``sv`` is a
JSON int. Each session in the header's table has a string profile and
one of the splits ``train``, ``val`` and ``test``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from math import isfinite

from .errors import ParseError, VersionMismatch
from .geo import EcefPosition
from .model import Band, ConstellationId, Epoch, PseudorangeMeasurement

FORMAT_NAME = "gnssweight-dataset"
FORMAT_VERSION = 1

_SPLITS = ("train", "val", "test")
_EPOCH_KEYS = {"session_id", "t", "truth", "measurements"}
_MEAS_KEYS = {"const", "sv", "band", "pr_m", "cn0_dbhz", "lock_s", "sat_xyz_m"}
_CONSTELLATIONS = {c.name: c for c in ConstellationId}
_BANDS = {b.name: b for b in Band}


@dataclass
class Session:
    session_id: str
    profile: str
    split: str
    epochs: list = field(default_factory=list)
    truth: object = None  # SessionTruth when generated in-process; not serialized


@dataclass
class Dataset:
    seed: int
    sessions: list = field(default_factory=list)

    def split_sessions(self, split: str):
        return [s for s in self.sessions if s.split == split]

    @property
    def n_epochs(self) -> int:
        return sum(len(s.epochs) for s in self.sessions)


def _epoch_line(epoch: Epoch) -> str:
    # ``:.17g`` spells an int, float or numpy scalar as format(float(x), ".17g")
    head = f'"session_id":{json.dumps(epoch.session_id)},"t":{epoch.time:.17g}'
    if epoch.truth is not None:
        tr = epoch.truth
        head += f',"truth":[{tr.x:.17g},{tr.y:.17g},{tr.z:.17g}]'
    ms = ",".join(
        f'{{"const":"{m.constellation.name}","sv":{int(m.sv_id)},"band":"{m.band.name}",'
        f'"pr_m":{m.pseudorange:.17g},"cn0_dbhz":{m.cn0:.17g},"lock_s":{m.lock_time:.17g},'
        f'"sat_xyz_m":[{m.sat_pos.x:.17g},{m.sat_pos.y:.17g},{m.sat_pos.z:.17g}]}}'
        for m in epoch.measurements
    )
    return f'{{{head},"measurements":[{ms}]}}'


def write_dataset(dataset: Dataset, path) -> None:
    """Canonical byte-deterministic serialization of a campaign."""
    sessions = sorted(dataset.sessions, key=lambda s: s.session_id)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "seed": dataset.seed,
        "sessions": {s.session_id: {"profile": s.profile, "split": s.split} for s in sessions},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for session in sessions:
            for epoch in session.epochs:
                fh.write(_epoch_line(epoch) + "\n")


def _number(value, line_no: int, name: str) -> float:
    """``value`` as a float; anything but a finite JSON number is a ParseError.

    The readers take a finite float, the spelling every written value has,
    as it is, and call this for anything else.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if isfinite(x):
            return x
    raise ParseError(line_no, f"{name} must be a finite number, got {value!r}")


def _position(value, line_no: int, name: str) -> EcefPosition:
    if not (isinstance(value, list) and len(value) == 3):
        raise ParseError(line_no, f"{name} must be a 3-element array")
    x, y, z = value
    if type(x) is not float or not isfinite(x):
        x = _number(x, line_no, name)
    if type(y) is not float or not isfinite(y):
        y = _number(y, line_no, name)
    if type(z) is not float or not isfinite(z):
        z = _number(z, line_no, name)
    return EcefPosition(x, y, z)


def _parse_measurement(obj, line_no: int) -> PseudorangeMeasurement:
    if not isinstance(obj, dict):
        raise ParseError(line_no, "a measurement must be an object")
    if obj.keys() != _MEAS_KEYS:
        unknown = obj.keys() - _MEAS_KEYS
        if unknown:
            raise ParseError(line_no, f"unknown measurement fields {sorted(unknown)}")
        raise ParseError(line_no, f"missing measurement fields {sorted(_MEAS_KEYS - obj.keys())}")
    try:
        const = _CONSTELLATIONS[obj["const"]]
        band = _BANDS[obj["band"]]
    except (KeyError, TypeError) as e:  # TypeError: an unhashable value
        raise ParseError(line_no, f"unknown enum value {e}") from None
    sv = obj["sv"]
    if isinstance(sv, bool) or not isinstance(sv, int):
        raise ParseError(line_no, f"sv must be an integer, got {sv!r}")
    pr = obj["pr_m"]
    if type(pr) is not float or not isfinite(pr):
        pr = _number(pr, line_no, "pr_m")
    sat_pos = _position(obj["sat_xyz_m"], line_no, "sat_xyz_m")
    cn0 = obj["cn0_dbhz"]
    if type(cn0) is not float or not isfinite(cn0):
        cn0 = _number(cn0, line_no, "cn0_dbhz")
    lock = obj["lock_s"]
    if type(lock) is not float or not isfinite(lock):
        lock = _number(lock, line_no, "lock_s")
    if not 1e6 < pr < 5e7:
        raise ParseError(line_no, f"pseudorange {pr} outside (1e6, 5e7) m")
    if not 0.0 <= cn0 <= 60.0:
        raise ParseError(line_no, f"cn0 {cn0} outside [0, 60] dB-Hz")
    if sv < 1:
        raise ParseError(line_no, f"sv id {sv} must be >= 1")
    if lock < 0:
        raise ParseError(line_no, f"lock time {lock} must be >= 0")
    return PseudorangeMeasurement(
        constellation=const, sv_id=sv, band=band, pseudorange=pr,
        sat_pos=sat_pos, cn0=cn0, lock_time=lock,
    )


def _check_header(header: dict) -> None:
    """The seed and session table that ``read_dataset`` relies on."""
    seed = header.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ParseError(1, f"seed must be an integer, not {seed!r}")
    sessions = header.get("sessions", {})
    if not isinstance(sessions, dict):
        raise ParseError(1, "sessions must be an object")
    for sid, info in sessions.items():
        if not isinstance(info, dict) or not all(
            isinstance(info.get(key), str) for key in ("profile", "split")
        ):
            raise ParseError(1, f"session {sid!r} needs a string profile and split")
        if info["split"] not in _SPLITS:
            raise ParseError(1, f"session {sid!r} has split {info['split']!r}, not one of {_SPLITS}")


def iter_epochs(path):
    """Stream (header, epoch) pairs without holding the file in memory.

    Yields the header dict first (as ("header", dict)), then one
    ("epoch", Epoch) per line. Validates invariants at parse time.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ParseError(1, "empty file, expected a header line")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as e:
            raise ParseError(1, f"header is not valid JSON: {e}") from None
        if not isinstance(header, dict):
            raise ParseError(1, "the header must be an object")
        if header.get("format") != FORMAT_NAME:
            raise ParseError(1, f"unexpected format tag {header.get('format')!r}")
        if header.get("version") != FORMAT_VERSION:
            raise VersionMismatch(f"dataset version {header.get('version')} unsupported")
        _check_header(header)
        yield "header", header

        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(line_no, f"invalid JSON: {e}") from None
            if not isinstance(obj, dict):
                raise ParseError(line_no, "an epoch must be an object")
            unknown = set(obj) - _EPOCH_KEYS
            if unknown:
                raise ParseError(line_no, f"unknown epoch fields {sorted(unknown)}")
            if "session_id" not in obj or "t" not in obj or "measurements" not in obj:
                raise ParseError(line_no, "epoch needs session_id, t and measurements")
            if not isinstance(obj["session_id"], str):
                raise ParseError(line_no, f"session_id must be a string, not {obj['session_id']!r}")
            if not isinstance(obj["measurements"], list):
                raise ParseError(line_no, "measurements must be an array")
            measurements = [_parse_measurement(m, line_no) for m in obj["measurements"]]
            truth = _position(obj["truth"], line_no, "truth") if "truth" in obj else None
            t = obj["t"]
            if type(t) is not float or not isfinite(t):
                t = _number(t, line_no, "t")
            try:
                epoch = Epoch(
                    time=t,
                    measurements=measurements,
                    truth=truth,
                    session_id=obj["session_id"],
                )
            except ValueError as e:
                raise ParseError(line_no, str(e)) from None
            yield "epoch", epoch


def read_dataset(path) -> Dataset:
    """Load a full campaign, reassembling sessions from the header table.

    An epoch of a session that the table lacks has no split or profile;
    it is a ParseError at line 1, the header, naming the session.
    """
    header = None
    sessions: dict[str, Session] = {}
    order: list[str] = []
    for kind, item in iter_epochs(path):
        if kind == "header":
            header = item
            for sid, info in item.get("sessions", {}).items():
                sessions[sid] = Session(
                    session_id=sid, profile=info["profile"], split=info["split"]
                )
                order.append(sid)
            continue
        if item.session_id not in sessions:
            raise ParseError(1, f"the session table lacks session {item.session_id!r}")
        sessions[item.session_id].epochs.append(item)
    return Dataset(seed=int(header.get("seed", 0)), sessions=[sessions[s] for s in order])
