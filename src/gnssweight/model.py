"""Measurement/state data model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

import numpy as np

from .geo import EcefPosition


class ConstellationId(enum.IntEnum):
    GPS = 0
    GLONASS = 1
    GALILEO = 2
    BEIDOU = 3


class Band(enum.IntEnum):
    L1 = 0
    L2 = 1
    L5 = 2  # L5/E5


@dataclass(frozen=True)
class PseudorangeMeasurement:
    """One corrected pseudorange with its satellite state and signal metadata.

    Ephemeris-derived corrections (SV clock, iono, tropo, Sagnac) are
    assumed already applied to ``pseudorange``.
    """

    constellation: ConstellationId
    sv_id: int
    band: Band
    pseudorange: float
    sat_pos: EcefPosition
    cn0: float
    lock_time: float

    @property
    def key(self) -> tuple[int, int, int]:
        return (int(self.constellation), int(self.sv_id), int(self.band))


@dataclass(frozen=True)
class NavState:
    """Receiver position plus one clock bias (seconds) per constellation."""

    position: EcefPosition
    clock_bias: dict[ConstellationId, float] = field(default_factory=dict)


def _built_once(build):
    """An ``Epoch`` method returning ``build(self)``, built at the first call
    and kept on the instance; an array is kept read-only."""

    name = "_" + build.__name__

    def method(self):
        cache = self.__dict__
        if name not in cache:
            value = cache[name] = build(self)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return cache[name]

    method.__name__, method.__qualname__, method.__doc__ = build.__name__, build.__qualname__, build.__doc__
    return method


@dataclass(frozen=True)
class Epoch:
    """One measurement snapshot; measurements kept in canonical order.

    Canonical order is (constellation, sv_id, band) ascending, so feature
    rows and weight vectors line up deterministically. An epoch is
    immutable: ``measurements`` is a tuple and no field can be assigned
    after construction. Its arrays (``sat_array``, ``pr_array``,
    ``const_index``), its measurement keys, its constellations and its
    state dimension are therefore built once, at the first call (the keys
    at construction, which sorts by them), and every later call returns
    the same object; the arrays are read-only, so no caller can alter the
    shared copy.
    """

    time: float
    measurements: tuple[PseudorangeMeasurement, ...]
    truth: EcefPosition | None = None
    session_id: str = ""

    def __post_init__(self):
        keys = [m.key for m in self.measurements]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (constellation, sv_id, band) in epoch")
        order = sorted(range(len(keys)), key=keys.__getitem__)
        object.__setattr__(self, "measurements", tuple(self.measurements[i] for i in order))
        # the value ``measurement_keys`` would build at its first call
        self.__dict__["_measurement_keys"] = tuple(keys[i] for i in order)

    def __getstate__(self):
        # the fields only: an unpickled epoch rebuilds its arrays, read-only
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def n(self) -> int:
        return len(self.measurements)

    @_built_once
    def measurement_keys(self) -> tuple[tuple[int, int, int], ...]:
        """Each measurement's ``key``, in canonical order (sorted)."""
        return tuple(m.key for m in self.measurements)

    @_built_once
    def constellations(self) -> tuple[ConstellationId, ...]:
        """Constellations present, ascending; defines clock-column order."""
        return tuple(sorted({m.constellation for m in self.measurements}))

    @_built_once
    def state_dim(self) -> int:
        return 3 + len(self.constellations())

    @_built_once
    def sat_array(self) -> np.ndarray:
        """Satellite positions, (N, 3); (0, 3) for an epoch without measurements."""
        return np.array([[m.sat_pos.x, m.sat_pos.y, m.sat_pos.z] for m in self.measurements]).reshape(-1, 3)

    @_built_once
    def pr_array(self) -> np.ndarray:
        return np.array([m.pseudorange for m in self.measurements])

    @_built_once
    def const_index(self) -> np.ndarray:
        """Per-measurement index into :meth:`constellations`."""
        order = {c: k for k, c in enumerate(self.constellations())}
        return np.array([order[m.constellation] for m in self.measurements], dtype=np.int64)

