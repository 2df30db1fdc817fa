import copy
import dataclasses
import math
import pickle

import pytest

from gnssweight.geo import SPEED_OF_LIGHT, EcefPosition
from gnssweight.model import Band, ConstellationId, Epoch, NavState, PseudorangeMeasurement
from conftest import make_epoch, observation_function, residual


def _meas(pr=2e7, sat=(2e7, 0.0, 0.0), const=ConstellationId.GPS, sv=1):
    return PseudorangeMeasurement(
        constellation=const,
        sv_id=sv,
        band=Band.L1,
        pseudorange=pr,
        sat_pos=EcefPosition(*sat),
        cn0=45.0,
        lock_time=10.0,
    )


def test_observation_is_distance_plus_clock():
    state = NavState(EcefPosition(0.0, 0.0, 0.0), {ConstellationId.GPS: 0.0})
    assert observation_function(state, _meas()) == pytest.approx(2e7, abs=1e-9)

    state = NavState(EcefPosition(0.0, 0.0, 0.0), {ConstellationId.GPS: 1e-3})
    assert observation_function(state, _meas()) == pytest.approx(2e7 + 299792.458, abs=1e-6)


def test_missing_clock_bias():
    state = NavState(EcefPosition(0.0, 0.0, 0.0), {ConstellationId.GPS: 0.0})
    with pytest.raises(KeyError):
        observation_function(state, _meas(const=ConstellationId.GALILEO))


def test_observation_matches_independent_arithmetic(rng):
    for _ in range(200):
        pos = rng.uniform(-6.4e6, 6.4e6, size=3)
        sat = rng.uniform(-2.6e7, 2.6e7, size=3)
        delta = rng.uniform(-1e-3, 1e-3)
        state = NavState(EcefPosition(*pos), {ConstellationId.GPS: delta})
        m = _meas(sat=tuple(sat))
        expected = math.dist(tuple(pos), tuple(sat)) + SPEED_OF_LIGHT * delta
        assert observation_function(state, m) == pytest.approx(expected, abs=1e-8)


def test_residual_definition(rng):
    epoch, truth = make_epoch(rng, n=8)
    for m in epoch.measurements:
        assert residual(truth, m) == pytest.approx(0.0, abs=1e-9)
    inflated = PseudorangeMeasurement(
        constellation=epoch.measurements[0].constellation,
        sv_id=epoch.measurements[0].sv_id,
        band=epoch.measurements[0].band,
        pseudorange=epoch.measurements[0].pseudorange + 5.0,
        sat_pos=epoch.measurements[0].sat_pos,
        cn0=45.0,
        lock_time=0.0,
    )
    assert residual(truth, inflated) == pytest.approx(5.0, abs=1e-9)


def test_residual_plus_observation_is_pseudorange(rng):
    for _ in range(50):
        epoch, truth = make_epoch(rng, n=6, noise_sigma=3.0)
        for m in epoch.measurements:
            assert residual(truth, m) + observation_function(truth, m) == pytest.approx(
                m.pseudorange, abs=1e-12
            )


def test_canonical_ordering_and_uniqueness():
    ms = [
        _meas(const=ConstellationId.GALILEO, sv=3),
        _meas(const=ConstellationId.GPS, sv=7, sat=(0.0, 2e7, 0.0)),
        _meas(const=ConstellationId.GPS, sv=2, sat=(0.0, 0.0, 2e7)),
    ]
    epoch = Epoch(time=0.0, measurements=ms)
    keys = [m.key for m in epoch.measurements]
    assert keys == sorted(keys)
    assert keys[0][0] == ConstellationId.GPS

    with pytest.raises(ValueError):
        Epoch(time=0.0, measurements=[_meas(), _meas()])


def test_observation_independent_of_other_measurements(rng):
    epoch, truth = make_epoch(rng, n=10)
    m = epoch.measurements[4]
    before = observation_function(truth, m)
    smaller = Epoch(time=0.0, measurements=epoch.measurements[3:6])
    assert observation_function(truth, smaller.measurements[1]) in (before, before)
    assert observation_function(truth, m) == before


def test_epoch_arrays_cannot_go_stale(rng):
    """An epoch is immutable, and its arrays are built once and read-only:
    every call returns the same object, and no caller can write into it."""
    epoch, _ = make_epoch(rng, n=7)
    with pytest.raises(TypeError):
        epoch.measurements[0] = epoch.measurements[1]
    for name in ("time", "measurements", "truth", "session_id"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(epoch, name, getattr(epoch, name))
    for method in (epoch.sat_array, epoch.pr_array, epoch.const_index):
        a = method()
        assert method() is a
        with pytest.raises(ValueError):
            a[0] = a[1]
    assert epoch.constellations() is epoch.constellations()
    assert epoch.sat_array().shape == (7, 3)
    # the keys kept at construction are each measurement's, in canonical order
    keys = epoch.measurement_keys()
    assert keys is epoch.measurement_keys()
    assert keys == tuple(m.key for m in epoch.measurements) == tuple(sorted(keys))
    # an unpickled epoch (as a worker process gets it) builds its own arrays, read-only too
    again = pickle.loads(pickle.dumps(epoch))
    assert again == epoch
    assert again.sat_array().tobytes() == epoch.sat_array().tobytes()
    assert not again.sat_array().flags.writeable
    assert again.measurement_keys() == keys


def test_epoch_without_measurements_has_empty_arrays():
    epoch = Epoch(time=0.0, measurements=[])
    assert epoch.sat_array().shape == (0, 3)
    assert epoch.pr_array().shape == epoch.const_index().shape == (0,)
    assert epoch.constellations() == ()
    assert epoch.state_dim() == 3


def _generated_twin(cls):
    """A frozen dataclass with ``cls``'s name and fields and every method generated."""
    return dataclasses.make_dataclass(cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True)


_RECORDS = [
    (EcefPosition, (1.5, -0.0, 2e7)),
    (PseudorangeMeasurement, (ConstellationId.GALILEO, 7, Band.L1, 2.1e7, EcefPosition(1.0, 2.0, 3.0), 41.25, 0.4)),
]


@pytest.mark.parametrize("cls, values", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_hand_written_constructors_keep_the_frozen_dataclass_contract(cls, values):
    # the records built per link write their fields straight into the
    # instance dict; everything else is what @dataclass(frozen=True) generates
    twin_cls = _generated_twin(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    rec, twin = cls(*values), twin_cls(*values)
    assert dataclasses.is_dataclass(rec) and cls.__dataclass_params__.frozen
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] == \
        [(f.name, f.type, f.default) for f in dataclasses.fields(twin_cls)]
    assert cls.__match_args__ == tuple(names)
    # keywords build the same record, and the instance dict is the generated one, in field order
    assert cls(**dict(zip(names, values))) == rec
    assert list(rec.__dict__.items()) == list(twin.__dict__.items())
    assert repr(rec) == repr(twin)
    assert hash(rec) == hash(twin) == hash(tuple(values))
    assert rec == cls(*values) and rec != twin and not rec != cls(*values)
    assert rec != cls(*values[:-1], values[-1] + 1.0)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, name)
    changed = dataclasses.replace(rec, **{names[-1]: values[-1] + 1.0})
    assert type(changed) is cls and changed == cls(*values[:-1], values[-1] + 1.0)
    assert dataclasses.astuple(rec) == dataclasses.astuple(twin)
    for again in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec), copy.copy(rec)):
        assert type(again) is cls and again == rec and repr(again) == repr(rec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(again, names[0], values[0])
