"""Line-delimited dataset serialization.

One JSON object per line: a header (format, version, seed, session
table) followed by one epoch per line. Floats are written with 17
significant digits so identical datasets serialize to identical bytes
and round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ParseError, VersionMismatch
from .geo import EcefPosition
from .model import Band, ConstellationId, Epoch, PseudorangeMeasurement

FORMAT_NAME = "gnssweight-dataset"
FORMAT_VERSION = 1

_EPOCH_KEYS = {"session_id", "t", "truth", "measurements"}
_MEAS_KEYS = {"const", "sv", "band", "pr_m", "cn0_dbhz", "lock_s", "sat_xyz_m"}


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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _epoch_line(epoch: Epoch) -> str:
    parts = [f'"session_id":{json.dumps(epoch.session_id)}', f'"t":{_fmt(epoch.time)}']
    if epoch.truth is not None:
        tr = epoch.truth
        parts.append(f'"truth":[{_fmt(tr.x)},{_fmt(tr.y)},{_fmt(tr.z)}]')
    ms = []
    for m in epoch.measurements:
        ms.append(
            "{"
            + ",".join(
                [
                    f'"const":"{m.constellation.name}"',
                    f'"sv":{int(m.sv_id)}',
                    f'"band":"{m.band.name}"',
                    f'"pr_m":{_fmt(m.pseudorange)}',
                    f'"cn0_dbhz":{_fmt(m.cn0)}',
                    f'"lock_s":{_fmt(m.lock_time)}',
                    f'"sat_xyz_m":[{_fmt(m.sat_pos.x)},{_fmt(m.sat_pos.y)},{_fmt(m.sat_pos.z)}]',
                ]
            )
            + "}"
        )
    parts.append('"measurements":[' + ",".join(ms) + "]")
    return "{" + ",".join(parts) + "}"


def write_dataset(dataset: Dataset, path) -> None:
    """Canonical byte-deterministic serialization of a campaign."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "seed": dataset.seed,
        "sessions": {
            s.session_id: {"profile": s.profile, "split": s.split}
            for s in sorted(dataset.sessions, key=lambda s: s.session_id)
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for session in sorted(dataset.sessions, key=lambda s: s.session_id):
            for epoch in session.epochs:
                fh.write(_epoch_line(epoch) + "\n")


def _number(value, line_no: int, name: str) -> float:
    """``value`` as a float; anything but a finite JSON number is a ParseError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ParseError(line_no, f"{name} must be a finite number, got {value!r}")


def _position(value, line_no: int, name: str) -> EcefPosition:
    if not (isinstance(value, list) and len(value) == 3):
        raise ParseError(line_no, f"{name} must be a 3-element array")
    return EcefPosition(*(_number(v, line_no, name) for v in value))


def _parse_measurement(obj, line_no: int) -> PseudorangeMeasurement:
    if not isinstance(obj, dict):
        raise ParseError(line_no, "a measurement must be an object")
    unknown = set(obj) - _MEAS_KEYS
    if unknown:
        raise ParseError(line_no, f"unknown measurement fields {sorted(unknown)}")
    missing = _MEAS_KEYS - set(obj)
    if missing:
        raise ParseError(line_no, f"missing measurement fields {sorted(missing)}")
    try:
        const = ConstellationId[obj["const"]]
        band = Band[obj["band"]]
    except (KeyError, TypeError) as e:  # TypeError: an unhashable value
        raise ParseError(line_no, f"unknown enum value {e}") from None
    sv = obj["sv"]
    if isinstance(sv, bool) or not isinstance(sv, int):
        raise ParseError(line_no, f"sv must be an integer, got {sv!r}")
    m = PseudorangeMeasurement(
        constellation=const,
        sv_id=sv,
        band=band,
        pseudorange=_number(obj["pr_m"], line_no, "pr_m"),
        sat_pos=_position(obj["sat_xyz_m"], line_no, "sat_xyz_m"),
        cn0=_number(obj["cn0_dbhz"], line_no, "cn0_dbhz"),
        lock_time=_number(obj["lock_s"], line_no, "lock_s"),
    )
    if not 1e6 < m.pseudorange < 5e7:
        raise ParseError(line_no, f"pseudorange {m.pseudorange} outside (1e6, 5e7) m")
    if not 0.0 <= m.cn0 <= 60.0:
        raise ParseError(line_no, f"cn0 {m.cn0} outside [0, 60] dB-Hz")
    if m.sv_id < 1:
        raise ParseError(line_no, f"sv id {m.sv_id} must be >= 1")
    if m.lock_time < 0:
        raise ParseError(line_no, f"lock time {m.lock_time} must be >= 0")
    return m


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
            if not isinstance(obj["measurements"], list):
                raise ParseError(line_no, "measurements must be an array")
            measurements = [_parse_measurement(m, line_no) for m in obj["measurements"]]
            truth = _position(obj["truth"], line_no, "truth") if "truth" in obj else None
            try:
                epoch = Epoch(
                    time=_number(obj["t"], line_no, "t"),
                    measurements=measurements,
                    truth=truth,
                    session_id=str(obj["session_id"]),
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
