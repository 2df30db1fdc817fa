import json

import numpy as np
import pytest

from gnssweight.dataio import (
    Dataset,
    FORMAT_NAME,
    FORMAT_VERSION,
    Session,
    iter_epochs,
    read_dataset,
    write_dataset,
)
from gnssweight.errors import ParseError, VersionMismatch
from gnssweight.sim import PROFILES, generate_campaign


def _small_campaign(seed=33):
    return generate_campaign(PROFILES, sessions_per_profile=3, seed=seed, epochs_per_session=4)


def test_round_trip_exact(tmp_path):
    ds = _small_campaign()
    path = tmp_path / "data.jsonl"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.seed == ds.seed
    assert len(back.sessions) == len(ds.sessions)
    by_id = {s.session_id: s for s in back.sessions}
    for s in ds.sessions:
        r = by_id[s.session_id]
        assert r.profile == s.profile
        assert r.split == s.split
        assert len(r.epochs) == len(s.epochs)
        for e1, e2 in zip(s.epochs, r.epochs):
            assert e2.time == e1.time
            assert e2.session_id == e1.session_id
            assert np.array_equal(e2.truth.as_array(), e1.truth.as_array())
            assert e2.n == e1.n
            for m1, m2 in zip(e1.measurements, e2.measurements):
                assert m2.key == m1.key
                assert m2.pseudorange == m1.pseudorange  # bit-exact floats
                assert m2.cn0 == m1.cn0
                assert m2.lock_time == m1.lock_time
                assert np.array_equal(m2.sat_pos.as_array(), m1.sat_pos.as_array())


def test_serialization_is_byte_deterministic(tmp_path):
    ds = _small_campaign()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(ds, p1)
    write_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # write, read, write again: still identical bytes
    p3 = tmp_path / "c.jsonl"
    write_dataset(read_dataset(p1), p3)
    assert p1.read_bytes() == p3.read_bytes()


def test_streaming_matches_bulk_read(tmp_path):
    ds = _small_campaign()
    path = tmp_path / "data.jsonl"
    write_dataset(ds, path)
    stream = iter_epochs(path)
    kind, header = next(stream)
    assert kind == "header"
    assert header["format"] == FORMAT_NAME
    assert header["version"] == FORMAT_VERSION
    n = sum(1 for _ in stream)
    assert n == ds.n_epochs


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _valid_header():
    return json.dumps(
        {"format": FORMAT_NAME, "version": FORMAT_VERSION, "seed": 0, "sessions": {}}
    )


def _meas(**kw):
    m = {
        "const": "GPS",
        "sv": 1,
        "band": "L1",
        "pr_m": 2.2e7,
        "cn0_dbhz": 45.0,
        "lock_s": 3.0,
        "sat_xyz_m": [2.6e7, 0.0, 0.0],
    }
    m.update(kw)
    return m


def _epoch_line(ms):
    return json.dumps({"session_id": "s", "t": 0.0, "measurements": ms})


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"

    _write_lines(path, [_valid_header(), _epoch_line([_meas()]), "{not json"])
    with pytest.raises(ParseError) as e:
        list(iter_epochs(path))
    assert e.value.line == 3

    _write_lines(path, [_valid_header(), _epoch_line([_meas(bogus=1)])])
    with pytest.raises(ParseError) as e:
        list(iter_epochs(path))
    assert e.value.line == 2
    assert "bogus" in str(e.value)

    _write_lines(path, [_valid_header(), _epoch_line([_meas(), _meas()])])
    with pytest.raises(ParseError, match="duplicate") as e:
        list(iter_epochs(path))
    assert e.value.line == 2


def test_invariant_validation_on_read(tmp_path):
    path = tmp_path / "bad.jsonl"
    cases = [
        _meas(pr_m=100.0),  # pseudorange outside the plausible band
        _meas(cn0_dbhz=75.0),
        _meas(sv=0),
        _meas(lock_s=-1.0),
        _meas(const="COMPASS"),
        _meas(sat_xyz_m=[1.0, 2.0]),
    ]
    # non-numeric, null and non-finite values of every numeric field
    nan = float("nan")
    for field, bad in (("pr_m", None), ("pr_m", "2.2e7"), ("pr_m", 10**400), ("cn0_dbhz", None),
                       ("lock_s", "abc"), ("lock_s", nan), ("lock_s", float("inf"))):
        cases.append(_meas(**{field: bad}))
    # a bool is not a number, though Python's True == 1
    for field in ("pr_m", "cn0_dbhz", "lock_s"):
        cases += [_meas(**{field: True}), _meas(**{field: False})]
    for bad in ("abc", None, 3.5, True):
        cases.append(_meas(sv=bad))
    for bad in (None, "x", nan, float("-inf"), 10**400, True, False):
        cases.append(_meas(sat_xyz_m=[2.6e7, bad, 0.0]))
    cases += [[_meas()], "pr_m", None]  # a measurement that is not an object
    lines = [_epoch_line([bad]) for bad in cases]
    for bad in ([6.4e6, 0.0, None], [6.4e6, "0", 0.0], [6.4e6, 0.0, nan],
                [6.4e6, True, 0.0], [6.4e6, False, 0.0]):
        lines.append(json.dumps({"session_id": "s", "t": 0.0, "truth": bad,
                                 "measurements": [_meas()]}))
    for bad in (None, nan, "0", True, False):
        lines.append(json.dumps({"session_id": "s", "t": bad, "measurements": [_meas()]}))
    lines += [json.dumps({"session_id": "s", "t": 0.0, "measurements": None}), "7"]
    # an unknown epoch field, and each required one missing
    good = {"session_id": "s", "t": 0.0, "measurements": [_meas()]}
    lines.append(json.dumps({**good, "clock": 1.0}))
    lines += [json.dumps({k: v for k, v in good.items() if k != key}) for key in good]
    for line in lines:
        _write_lines(path, [_valid_header(), _epoch_line([_meas(sv=2)]), line])
        with pytest.raises(ParseError) as e:
            list(iter_epochs(path))
        assert e.value.line == 3, line

    # headers whose seed or session table read_dataset cannot use
    headers = [{"seed": bad} for bad in ("x", 1.5, None, True, False)]
    headers += [{"sessions": bad} for bad in ([], "a", None, 7)]
    headers += [{"sessions": {"a": bad}} for bad in (
        {}, {"profile": "urban_canyon"}, {"split": "train"}, [],
        {"profile": "urban_canyon", "split": None},
    )]
    headers.append({"seed": "x", "sessions": {"a": {}}})
    for fields in headers:
        header = {**json.loads(_valid_header()), **fields}
        _write_lines(path, [json.dumps(header), _epoch_line([_meas(sv=2)])])
        for read in (lambda: list(iter_epochs(path)), lambda: read_dataset(path)):
            with pytest.raises(ParseError) as e:
                read()
            assert e.value.line == 1, fields
    # a header that is not an object, or not JSON
    for header in ("[1, 2]", "{not json"):
        _write_lines(path, [header])
        with pytest.raises(ParseError) as e:
            list(iter_epochs(path))
        assert e.value.line == 1, header


def test_integer_spellings_read_as_floats(tmp_path):
    """Every float field may be spelled as a JSON int; it reads back as the
    same float as its float spelling, of type float."""
    path = tmp_path / "ints.jsonl"
    ints = {"session_id": "s", "t": 2, "truth": [6400000, 0, -1],
            "measurements": [_meas(pr_m=22000000, cn0_dbhz=45, lock_s=0, sat_xyz_m=[26000000, 0, -5])]}
    floats = {"session_id": "s", "t": 2.0, "truth": [6.4e6, 0.0, -1.0],
              "measurements": [_meas(pr_m=2.2e7, cn0_dbhz=45.0, lock_s=0.0, sat_xyz_m=[2.6e7, 0.0, -5.0])]}
    epochs = []
    for obj in (ints, floats):
        _write_lines(path, [_valid_header(), json.dumps(obj)])
        (_, epoch), = list(iter_epochs(path))[1:]
        m = epoch.measurements[0]
        values = [epoch.time, *vars(epoch.truth).values(), m.pseudorange, m.cn0, m.lock_time,
                  *vars(m.sat_pos).values()]
        assert all(type(v) is float for v in values), values
        epochs.append(values)
    assert epochs[0] == epochs[1]


def test_unknown_split_fails_at_header(tmp_path):
    """A session whose split is not train, val or test would be read by no
    stage; the header check names it instead of letting it vanish."""
    ds = generate_campaign(["urban_canyon"], sessions_per_profile=10, seed=5, epochs_per_session=2)
    path = tmp_path / "data.jsonl"
    write_dataset(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    renamed = sorted(sid for sid, info in header["sessions"].items() if info["split"] == "train")
    assert renamed
    for sid in renamed:
        header["sessions"][sid]["split"] = "Train"
    _write_lines(path, [json.dumps(header)] + lines[1:])
    for read in (lambda: list(iter_epochs(path)), lambda: read_dataset(path)):
        with pytest.raises(ParseError, match=f"{renamed[0]!r} has split 'Train'") as e:
            read()
        assert e.value.line == 1


def test_epoch_of_session_missing_from_table_fails_at_header(tmp_path):
    """``read_dataset`` cannot file an epoch whose session the header's
    table lacks under any split, so it fails at line 1, naming the
    session; ``iter_epochs`` does not read the table."""
    path = tmp_path / "bad.jsonl"
    header = {**json.loads(_valid_header()), "sessions": {"a": {"profile": "urban_canyon", "split": "train"}}}
    _write_lines(path, [json.dumps(header), _epoch_line([_meas()])])
    with pytest.raises(ParseError, match="'s'") as e:
        read_dataset(path)
    assert e.value.line == 1
    assert [kind for kind, _ in iter_epochs(path)] == ["header", "epoch"]


def test_non_string_session_id_fails_at_its_line(tmp_path):
    """A session id of 3, 2.5 or null is not read as the session '3',
    '2.5' or 'None', even when the header's table holds those strings."""
    path = tmp_path / "bad.jsonl"
    table = {sid: {"profile": "urban_canyon", "split": "train"} for sid in ("3", "2.5", "None")}
    header = json.dumps({**json.loads(_valid_header()), "sessions": table})
    for bad in (3, 2.5, None):
        lines = [json.dumps({"session_id": sid, "t": 0.0, "measurements": [_meas()]}) for sid in ("3", bad)]
        _write_lines(path, [header] + lines)
        for read in (lambda: list(iter_epochs(path)), lambda: read_dataset(path)):
            with pytest.raises(ParseError, match="session_id") as e:
                read()
            assert e.value.line == 3, bad


def test_missing_measurement_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    m = _meas()
    del m["pr_m"]
    _write_lines(path, [_valid_header(), _epoch_line([m])])
    with pytest.raises(ParseError, match="pr_m"):
        list(iter_epochs(path))


def test_version_and_format_guards(tmp_path):
    path = tmp_path / "bad.jsonl"
    hdr = json.loads(_valid_header())
    hdr["version"] = 99
    _write_lines(path, [json.dumps(hdr)])
    with pytest.raises(VersionMismatch):
        list(iter_epochs(path))

    hdr = json.loads(_valid_header())
    hdr["format"] = "something-else"
    _write_lines(path, [json.dumps(hdr)])
    with pytest.raises(ParseError):
        list(iter_epochs(path))

    path.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        list(iter_epochs(path))


def test_empty_dataset_round_trip(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_dataset(Dataset(seed=5, sessions=[]), path)
    back = read_dataset(path)
    assert back.seed == 5
    assert back.sessions == []
    assert back.n_epochs == 0


def test_epoch_without_truth_round_trips(tmp_path):
    from gnssweight.model import Epoch

    ds = _small_campaign()
    s = ds.sessions[0]
    stripped = [
        Epoch(time=e.time, measurements=e.measurements, session_id=e.session_id)
        for e in s.epochs
    ]
    ds2 = Dataset(
        seed=0,
        sessions=[Session(session_id=s.session_id, profile=s.profile, split=s.split, epochs=stripped)],
    )
    path = tmp_path / "noTruth.jsonl"
    write_dataset(ds2, path)
    back = read_dataset(path)
    assert all(e.truth is None for e in back.sessions[0].epochs)
