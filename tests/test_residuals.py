import math

import numpy as np
import pytest

from gnssweight import _kernels, residuals
from gnssweight.errors import NotEnoughMeasurements, SingularGeometry
from gnssweight.geo import EcefPosition, GeodeticPosition, enu_rotation
from gnssweight.model import Band, ConstellationId, Epoch, PseudorangeMeasurement
from gnssweight.residuals import GAMMA, build_residual_matrix
from gnssweight.solver import (
    _DEFAULT_START,
    equal_weight_fix,
    predicted_pseudoranges,
    row_report,
    solve_wls,
    state_to_vector,
)
from conftest import assert_same_fix, make_epoch


def test_shape_and_diagonal(rng):
    epoch, _ = make_epoch(rng, n=9, noise_sigma=1.0)
    M = build_residual_matrix(epoch)
    assert M.values.shape == (9, 9)
    assert M.failed_rows == []
    assert np.all(np.diag(M.values) == GAMMA)


def test_noise_free_rows_vanish(rng):
    epoch, _ = make_epoch(rng, n=8)
    M = build_residual_matrix(epoch)
    off = M.values[~np.eye(8, dtype=bool)]
    assert np.max(np.abs(off)) < 1e-6


def test_matches_brute_force_subset_solves(rng):
    """Row n must equal residuals against an independent solve without n."""
    epoch, _ = make_epoch(rng, n=9, noise_sigma=2.0)
    M = build_residual_matrix(epoch)
    for row in range(epoch.n):
        sub = Epoch(
            time=epoch.time,
            measurements=[m for i, m in enumerate(epoch.measurements) if i != row],
        )
        rep = solve_wls(sub, np.ones(sub.n))
        expect = epoch.pr_array() - predicted_pseudoranges(
            epoch, state_to_vector(epoch, rep.state)
        )
        expect[row] = GAMMA
        assert np.array_equal(M.values[row], expect)


def test_faulted_measurement_signature(rng):
    """Excluding the faulty satellite leaves a clean row except its column."""
    bias = 120.0
    epoch, _ = make_epoch(rng, n=9, biases={4: bias})
    idx = next(i for i, m in enumerate(epoch.measurements) if m.sv_id == 5)
    M = build_residual_matrix(epoch)
    # sv 5's own column shows most of the bias; its row is otherwise clean
    col = np.abs(np.delete(M.values[:, idx], idx))
    others = np.delete(M.values[idx], idx)
    assert np.max(np.abs(others)) < 1e-6
    # the retained fault is partly absorbed by the fit; most of what is
    # left shows up in the faulty satellite's column
    assert np.median(col) > 10.0
    # rows that keep the fault absorb part of it everywhere
    other_row = (idx + 1) % 9
    assert np.max(np.abs(np.delete(M.values[other_row], [other_row]))) > 1.0


def test_row_perturbation_isolation(rng):
    """Moving measurement n by +/-100 m leaves row n unchanged off-column."""
    from gnssweight.model import PseudorangeMeasurement

    epoch, _ = make_epoch(rng, n=9, noise_sigma=1.0)
    M0 = build_residual_matrix(epoch)
    target = 3
    for shift in (100.0, -100.0):
        ms = []
        for i, m in enumerate(epoch.measurements):
            pr = m.pseudorange + (shift if i == target else 0.0)
            ms.append(
                PseudorangeMeasurement(
                    constellation=m.constellation,
                    sv_id=m.sv_id,
                    band=m.band,
                    pseudorange=pr,
                    sat_pos=m.sat_pos,
                    cn0=m.cn0,
                    lock_time=m.lock_time,
                )
            )
        M1 = build_residual_matrix(Epoch(time=epoch.time, measurements=ms))
        mask = np.arange(9) != target
        assert np.max(np.abs(M1.values[target, mask] - M0.values[target, mask])) < 1e-9
        # in its own column the shift appears in full
        assert M1.values[target, target] == GAMMA
        other = (target + 2) % 9
        assert abs(M1.values[other, target] - M0.values[other, target]) > 10.0


def test_minimum_count_enforced(rng):
    epoch, _ = make_epoch(rng, n=5)
    with pytest.raises(NotEnoughMeasurements):
        build_residual_matrix(epoch)


def test_too_few_links_have_a_fix_and_no_groups(rng):
    """An epoch with N <= state dimension has a ``solve_rows`` entry with
    its equal-weight fix and no leave-one-out groups."""
    epoch, _ = make_epoch(rng, n=5, noise_sigma=2.0)
    assert epoch.n == epoch.state_dim()
    fix, groups = residuals.solve_rows([epoch])[0]
    assert groups == []
    assert_same_fix(row_report(epoch, *fix), equal_weight_fix(epoch))


def test_permutation_equivariance(rng):
    epoch, _ = make_epoch(rng, n=8, noise_sigma=2.0)
    M = build_residual_matrix(epoch)
    perm = rng.permutation(8)
    shuffled = Epoch(
        time=epoch.time, measurements=[epoch.measurements[i] for i in perm]
    )
    # canonical sorting restores the original order, so the matrix matches
    M2 = build_residual_matrix(shuffled)
    assert np.array_equal(M.values, M2.values)


def test_single_member_constellation_row(rng):
    from gnssweight.model import ConstellationId, PseudorangeMeasurement

    epoch, _ = make_epoch(rng, n=7, constellations=(ConstellationId.GPS,))
    # splice one GALILEO measurement into a GPS epoch: skipping it leaves
    # its clock unobservable, but the only residual that needs that clock
    # is the excluded diagonal, so the row stays well defined
    ms = list(epoch.measurements)
    base = epoch.measurements[0]
    ms.append(
        PseudorangeMeasurement(
            constellation=ConstellationId.GALILEO,
            sv_id=30,
            band=base.band,
            pseudorange=base.pseudorange + 5.0,
            sat_pos=base.sat_pos,
            cn0=40.0,
            lock_time=1.0,
        )
    )
    mixed = Epoch(time=0.0, measurements=ms)
    idx = next(
        i for i, m in enumerate(mixed.measurements)
        if m.constellation == ConstellationId.GALILEO
    )
    M = build_residual_matrix(mixed)
    assert M.failed_rows == []
    assert M.values[idx, idx] == GAMMA
    mask = np.arange(mixed.n) != idx
    assert np.max(np.abs(M.values[idx, mask])) < 1e-6


def _subset_row(epoch, row):
    """Row ``row`` of the leave-one-out matrix from an independent fix, or None."""
    sub = Epoch(
        time=epoch.time,
        measurements=[m for i, m in enumerate(epoch.measurements) if i != row],
    )
    try:
        rep = equal_weight_fix(sub)
    except SingularGeometry:
        return None
    res = epoch.pr_array() - predicted_pseudoranges(epoch, state_to_vector(epoch, rep.state))
    res[row] = GAMMA
    return res


def _fix_or_none(epoch):
    try:
        return equal_weight_fix(epoch)
    except SingularGeometry:
        return None


def _corpus():
    """300 (k, epoch, iteration cap) cases with 1-3 constellations, N from
    n_const + 4 to 30 and three noise levels. Every fourth epoch has a
    one-link BeiDou constellation, every tenth four links on one line of
    sight, and every seventh is capped at 4 iterations, so that batches
    mix converged, capped and singular rows."""
    rng = np.random.default_rng(515)
    full_cap = _kernels.MAX_ITERATIONS
    consts = (ConstellationId.GPS, ConstellationId.GALILEO, ConstellationId.GLONASS)
    for k in range(300):
        n_const = 1 + k % 3
        sigma = (0.0, 2.0, 30.0)[k // 3 % 3]
        splice = k % 4 == 0
        n = int(rng.integers(n_const + 4, 31 - splice))
        epoch, _ = make_epoch(rng, n=n, constellations=consts[:n_const], noise_sigma=sigma)
        if splice:
            # a one-satellite BeiDou link: its row solves without that clock
            base = epoch.measurements[int(rng.integers(0, n))]
            sat = base.sat_pos.as_array() + rng.normal(0.0, 1e6, size=3)
            one = PseudorangeMeasurement(
                ConstellationId.BEIDOU, 40, base.band, base.pseudorange + rng.normal(0.0, 50.0),
                EcefPosition.from_array(sat), 40.0, 1.0,
            )
            epoch = Epoch(time=epoch.time, measurements=[*epoch.measurements, one])
        if k % 10 == 5:
            # four links on one line of sight: small subsets go singular
            ms = epoch.measurements
            epoch = Epoch(time=epoch.time, measurements=[ms[0], *(
                PseudorangeMeasurement(m.constellation, m.sv_id, m.band, m.pseudorange,
                                       ms[0].sat_pos, m.cn0, m.lock_time)
                for m in ms[1:4]
            ), *ms[4:]], truth=epoch.truth)
        yield k, epoch, 4 if k % 7 == 3 else full_cap


def test_batched_rows_match_single_solves(monkeypatch):
    """Each row of a lockstep batch has the bits of its own solve, and each
    leave-one-out row the bits of an equal-weight fix on its subset."""
    statuses = np.zeros(3, dtype=int)
    dropped_rows = failed_rows = capped_fixes = 0
    for k, epoch, max_iter in _corpus():
        n, dim = epoch.n, epoch.state_dim()
        dropped_rows += ConstellationId.BEIDOU in epoch.constellations()

        # the kernel: rows of 1 - I, cold-started, some epochs capped early
        # so that batches mix converged, capped and singular rows
        monkeypatch.setattr(_kernels, "MAX_ITERATIONS", max_iter)
        sat, pr, idx = epoch.sat_array(), epoch.pr_array(), epoch.const_index()
        W = 1.0 - np.eye(n)
        X0 = np.zeros((n, dim))
        X0[:, :3] = _DEFAULT_START.as_array()
        X, its, status, cost = _kernels.lm_solve_batch(
            np.broadcast_to(sat, (n, n, 3)), np.broadcast_to(pr, (n, n)), W,
            np.broadcast_to(idx, (n, n)), dim - 3, X0)
        for row in range(n):
            x, it, st, c = _kernels.lm_solve(sat, pr, W[row], idx, dim - 3, X0[row])
            assert X[row].tobytes() == x.tobytes(), (k, row)
            assert (its[row], status[row], cost[row].tobytes()) == (it, st, c.tobytes()), (k, row)
            statuses[st] += 1

        # the leave-one-out matrix against independent subset fixes
        rows = residuals.solve_rows([epoch])[0]
        M = build_residual_matrix(epoch, rows)
        failed = []
        for row in range(n):
            expect = _subset_row(epoch, row)
            if expect is None:
                failed.append(row)
                expect = np.full(n, GAMMA)
            assert np.array_equal(M.values[row], expect), (k, row)
        assert M.failed_rows == failed, k
        failed_rows += len(failed)

        # the fix row against the epoch's own equal-weight fix
        fix = row_report(epoch, *rows[0])
        assert_same_fix(fix, _fix_or_none(epoch), k)
        capped_fixes += fix is not None and not fix.converged
    # the cases reach every status, failed rows, rows that drop a
    # constellation and fixes stopped by the cap
    assert np.all(statuses > 0), statuses
    assert failed_rows > 0
    assert dropped_rows == 75
    assert capped_fixes > 0


def test_rows_across_epochs_match_per_epoch_calls(monkeypatch):
    """``solve_rows`` over the whole corpus (mixed N padded into per-row
    calls, several calls per clock count) gives every epoch the bits of
    its own ``solve_rows([epoch])`` call."""
    cases = list(_corpus())
    batch = _kernels.lm_solve_batch
    padded = []  # rows of per-row calls padded with zero-weight links

    def spy(sat, pr, w, const_idx, *rest):
        padded.append(int(np.sum((w[:, -1] == 0.0) & (pr[:, -1] == pr[:, -2]))))
        return batch(sat, pr, w, const_idx, *rest)

    statuses = np.zeros(3, dtype=int)
    for cap in sorted({c for _, _, c in cases}):
        monkeypatch.setattr(_kernels, "MAX_ITERATIONS", cap)
        epochs = [epoch for _, epoch, c in cases if c == cap]
        with monkeypatch.context() as m:
            m.setattr(_kernels, "lm_solve_batch", spy)
            together = residuals.solve_rows(epochs)
        for epoch, (got_fix, got) in zip(epochs, together):
            expect_fix, expect = residuals.solve_rows([epoch])[0]
            assert [a.tobytes() for a in got_fix] == [a.tobytes() for a in expect_fix]
            assert len(got) == len(expect)
            for (links, kept, g), (e_links, e_kept, e) in zip(got, expect):
                assert (links.tobytes(), kept.tobytes()) == (e_links.tobytes(), e_kept.tobytes())
                assert [a.tobytes() for a in g] == [a.tobytes() for a in e]
                statuses += np.bincount(g[2], minlength=3)
            M = build_residual_matrix(epoch, (got_fix, got))
            assert M.values.tobytes() == build_residual_matrix(epoch).values.tobytes()
    assert np.all(statuses > 0), statuses
    assert sum(padded) > 0


def test_singular_subset_row_is_gamma_and_listed():
    """Four satellites on one elevation cone around the receiver make every
    subset that keeps all four singular (their up and clock columns are
    proportional), so only the row excluding the fifth satellite fails."""
    rx_geo = GeodeticPosition(0.0, 0.0, 0.0)  # the cold start, so the first check sees it
    rx = _DEFAULT_START.as_array()
    rot = enu_rotation(rx_geo)
    sky = [(30.0, 20.0), (30.0, 110.0), (30.0, 200.0), (30.0, 290.0), (75.0, 0.0)]
    ms = []
    for sv, (el, az) in enumerate(sky, start=1):
        el, az = math.radians(el), math.radians(az)
        enu = [math.cos(el) * math.sin(az), math.cos(el) * math.cos(az), math.sin(el)]
        los = rot.T @ np.array(enu)
        sat = rx + 2.2e7 * los
        ms.append(PseudorangeMeasurement(
            ConstellationId.GPS, sv, Band.L1, float(np.linalg.norm(sat - rx)),
            EcefPosition.from_array(sat), 45.0, 10.0,
        ))
    epoch = Epoch(time=0.0, measurements=ms)
    M = build_residual_matrix(epoch)
    assert M.failed_rows == [4]
    assert np.all(M.values[4] == GAMMA)
    assert np.max(np.abs(M.values[:4][~np.eye(4, 5, dtype=bool)])) < 1e-6
    with pytest.raises(SingularGeometry):
        equal_weight_fix(Epoch(time=0.0, measurements=ms[:4]))


def test_singular_fix_row_is_none():
    """Six satellites on one elevation cone around the cold start make the
    all-in-view fix singular, and every subset with it: the matrix then
    has no fix and every row failed, as ``equal_weight_fix`` raises."""
    rx_geo = GeodeticPosition(0.0, 0.0, 0.0)
    rx = _DEFAULT_START.as_array()
    rot = enu_rotation(rx_geo)
    ms = []
    for sv in range(1, 7):
        el, az = math.radians(30.0), math.radians(60.0 * sv)
        enu = [math.cos(el) * math.sin(az), math.cos(el) * math.cos(az), math.sin(el)]
        sat = rx + 2.2e7 * (rot.T @ np.array(enu))
        ms.append(PseudorangeMeasurement(
            ConstellationId.GPS, sv, Band.L1, float(np.linalg.norm(sat - rx)),
            EcefPosition.from_array(sat), 45.0, 10.0,
        ))
    epoch = Epoch(time=0.0, measurements=ms)
    rows = residuals.solve_rows([epoch])[0]
    M = build_residual_matrix(epoch, rows)
    with pytest.raises(SingularGeometry):
        equal_weight_fix(epoch)
    assert row_report(epoch, *rows[0]) is None
    assert M.failed_rows == list(range(6))
