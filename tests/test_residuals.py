import math

import numpy as np
import pytest

from gnssweight import _kernels, residuals, solver
from gnssweight.errors import NotEnoughMeasurements, SingularGeometry
from gnssweight.geo import SPEED_OF_LIGHT, EcefPosition, GeodeticPosition, enu_rotation
from gnssweight.model import Band, ConstellationId, Epoch, PseudorangeMeasurement
from gnssweight.residuals import GAMMA, build_residual_matrix
from gnssweight.solver import (
    _DEFAULT_START,
    predicted_pseudoranges,
    row_report,
    solve_wls,
    state_to_vector,
)
from conftest import assert_same_fix, make_epoch, reference_fix


def test_shape_and_diagonal(rng):
    epoch, _ = make_epoch(rng, n=9, noise_sigma=1.0)
    M = build_residual_matrix(epoch, residuals.solve_rows([epoch])[0])
    assert M.values.shape == (9, 9)
    assert M.failed_rows == []
    assert np.all(np.diag(M.values) == GAMMA)


def test_noise_free_rows_vanish(rng):
    epoch, _ = make_epoch(rng, n=8)
    M = build_residual_matrix(epoch, residuals.solve_rows([epoch])[0])
    off = M.values[~np.eye(8, dtype=bool)]
    assert np.max(np.abs(off)) < 1e-6


def test_matches_brute_force_subset_solves(rng):
    """Row n must equal residuals against an independent solve without n."""
    epoch, _ = make_epoch(rng, n=9, noise_sigma=2.0)
    M = build_residual_matrix(epoch, residuals.solve_rows([epoch])[0])
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
    M = build_residual_matrix(epoch, residuals.solve_rows([epoch])[0])
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
    M0 = build_residual_matrix(epoch, residuals.solve_rows([epoch])[0])
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
        shifted = Epoch(time=epoch.time, measurements=ms)
        M1 = build_residual_matrix(shifted, residuals.solve_rows([shifted])[0])
        mask = np.arange(9) != target
        assert np.max(np.abs(M1.values[target, mask] - M0.values[target, mask])) < 1e-9
        # in its own column the shift appears in full
        assert M1.values[target, target] == GAMMA
        other = (target + 2) % 9
        assert abs(M1.values[other, target] - M0.values[other, target]) > 10.0


def test_minimum_count_enforced(rng):
    epoch, _ = make_epoch(rng, n=5)
    with pytest.raises(NotEnoughMeasurements):
        build_residual_matrix(epoch, residuals.solve_rows([epoch])[0])


def test_too_few_links_have_a_fix_and_no_groups(rng):
    """An epoch with N <= state dimension has a ``solve_rows`` entry with
    its equal-weight fix and no leave-one-out groups."""
    epoch, _ = make_epoch(rng, n=5, noise_sigma=2.0)
    assert epoch.n == epoch.state_dim()
    fix, groups = residuals.solve_rows([epoch])[0]
    assert groups == []
    assert_same_fix(row_report(epoch, *fix), reference_fix(epoch))


def test_permutation_equivariance(rng):
    epoch, _ = make_epoch(rng, n=8, noise_sigma=2.0)
    M = build_residual_matrix(epoch, residuals.solve_rows([epoch])[0])
    perm = rng.permutation(8)
    shuffled = Epoch(
        time=epoch.time, measurements=[epoch.measurements[i] for i in perm]
    )
    # canonical sorting restores the original order, so the matrix matches
    M2 = build_residual_matrix(shuffled, residuals.solve_rows([shuffled])[0])
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
    M = build_residual_matrix(mixed, residuals.solve_rows([mixed])[0])
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
        rep = reference_fix(sub)
    except SingularGeometry:
        return None
    res = epoch.pr_array() - predicted_pseudoranges(epoch, state_to_vector(epoch, rep.state))
    res[row] = GAMMA
    return res


def _fix_or_none(epoch):
    try:
        return reference_fix(epoch)
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
                EcefPosition(*sat.tolist()), 40.0, 1.0,
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
            assert M.values.tobytes() == build_residual_matrix(epoch, (expect_fix, expect)).values.tobytes()
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
            EcefPosition(*sat.tolist()), 45.0, 10.0,
        ))
    epoch = Epoch(time=0.0, measurements=ms)
    M = build_residual_matrix(epoch, residuals.solve_rows([epoch])[0])
    assert M.failed_rows == [4]
    assert np.all(M.values[4] == GAMMA)
    assert np.max(np.abs(M.values[:4][~np.eye(4, 5, dtype=bool)])) < 1e-6
    with pytest.raises(SingularGeometry):
        reference_fix(Epoch(time=0.0, measurements=ms[:4]))


def test_singular_fix_row_is_none():
    """Six satellites on one elevation cone around the cold start make the
    all-in-view fix singular, and every subset with it: the matrix then
    has no fix and every row failed, as ``reference_fix`` raises."""
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
            EcefPosition(*sat.tolist()), 45.0, 10.0,
        ))
    epoch = Epoch(time=0.0, measurements=ms)
    rows = residuals.solve_rows([epoch])[0]
    M = build_residual_matrix(epoch, rows)
    with pytest.raises(SingularGeometry):
        reference_fix(epoch)
    assert row_report(epoch, *rows[0]) is None
    assert M.failed_rows == list(range(6))


# --- hand-off reference -------------------------------------------------------
# The packing of ``solver.solve_batch`` and ``residuals.solve_rows`` as it
# was before they were cut to fewer numpy calls: one problem for each
# epoch's fix and one for each row group, weights from 1 - I and tiled
# starts, and every row-index table built over all problems. The package
# must hand the kernel the same calls, argument for argument and byte for
# byte, and give every problem the same outputs.


def _reference_solve_batch(problems):
    if not problems:
        return []
    sat, pr, clock, w, x0 = zip(*problems)
    k = np.array([len(a) for a in x0])
    n = np.array([a.size for a in pr])
    dim = np.array([a.shape[1] for a in x0])
    flat_w = np.concatenate([a.ravel() for a in w])
    row_n, row_dim = np.repeat(n, k), np.repeat(dim, k)
    w_end = np.cumsum(row_n)
    w0 = w_end - row_n
    positive = np.concatenate([[0], np.cumsum(flat_w > 0.0)])
    solvable = positive[w_end] - positive[w0] >= row_dim
    meas0 = np.repeat(np.cumsum(n) - n, k)
    sat, pr, clock = np.concatenate(sat), np.concatenate(pr), np.concatenate(clock)
    iterations = np.zeros(row_n.size, dtype=np.int64)
    status = np.full(row_n.size, solver.STATUS_NOT_ENOUGH)
    cost = np.full(row_n.size, np.nan)
    bounds = [0, *np.cumsum(k).tolist()]
    out = [None] * len(problems)
    for d in np.unique(dim).tolist():
        js = np.flatnonzero(dim == d).tolist()
        rows = np.flatnonzero(row_dim == d)
        x = np.concatenate([x0[j] for j in js])
        todo = np.flatnonzero(solvable[rows])
        todo = todo[np.argsort(row_n[rows[todo]], kind="stable")]
        for lo in range(0, todo.size, solver.MAX_ROWS_PER_CALL):
            b = todo[lo:lo + solver.MAX_ROWS_PER_CALL]
            r = rows[b]
            nr = row_n[r][:, None]
            i = np.arange(nr[-1, 0])
            pad = np.minimum(i, nr - 1)
            links = meas0[r][:, None] + pad
            wb = np.where(i < nr, flat_w[w0[r][:, None] + pad], 0.0)
            x[b], iterations[r], status[r], cost[r] = _kernels.lm_solve_batch(
                sat[links], pr[links], wb, clock[links], d - 3, x[b])
        lo = 0
        for j in js:
            r0, r1 = bounds[j], bounds[j + 1]
            out[j] = (x[lo:lo + r1 - r0], iterations[r0:r1], status[r0:r1], cost[r0:r1])
            lo += r1 - r0
    return out


def _reference_row_groups(epoch):
    n_const = epoch.state_dim() - 3
    const_idx = epoch.const_index()
    if epoch.n <= epoch.state_dim():
        return []
    members = np.bincount(const_idx, minlength=n_const)
    drops = np.where(members[const_idx] == 1, const_idx, -1)
    groups = []
    for drop in np.unique(drops):
        kept = np.flatnonzero(np.arange(n_const) != drop)
        sub_idx = np.searchsorted(kept, const_idx)
        sub_idx[const_idx == drop] = 0
        groups.append((np.flatnonzero(drops == drop), kept, sub_idx))
    return groups


def _reference_solve_rows(epochs):
    groups = [_reference_row_groups(epoch) for epoch in epochs]
    problems = []
    for epoch, epoch_groups in zip(epochs, groups):
        n, sat, pr = epoch.n, epoch.sat_array(), epoch.pr_array()
        x0 = np.zeros(epoch.state_dim())
        x0[:3] = _DEFAULT_START.as_array()
        problems.append((sat, pr, epoch.const_index(), np.ones((1, n)), np.tile(x0, (1, 1))))
        weights = 1.0 - np.eye(n)
        for links, kept, sub_idx in epoch_groups:
            w = weights[links]
            problems.append((sat, pr, sub_idx, w, np.tile(x0[:3 + kept.size], (len(w), 1))))
    solved = iter(_reference_solve_batch(problems))
    return [(tuple(a[0] for a in next(solved)), [(links, kept, next(solved)) for links, kept, _ in g])
            for g in groups]


def _kernel_calls(monkeypatch, fn, *args):
    """``fn(*args)`` and every ``lm_solve_batch`` call it made, each argument
    as (dtype, shape, bytes)."""
    calls = []
    batch = _kernels.lm_solve_batch

    def spy(*call):
        calls.append([(a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
                      for a in call])
        return batch(*call)

    with monkeypatch.context() as m:
        m.setattr(_kernels, "lm_solve_batch", spy)
        out = fn(*args)
    return out, calls


def _kernel_rows_bytes(kernel):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in kernel]


@pytest.mark.bitwise
def test_solve_rows_hands_the_kernel_the_reference_calls(monkeypatch):
    """``solve_rows`` on the residual corpus, all epochs at once (mixed N
    padded into calls cut at ``MAX_ROWS_PER_CALL``, rows that drop a
    constellation) and a few epochs one at a time (calls without padding),
    each time with epochs whose entry is the fix alone (N below and at the
    state dimension): every kernel call has the reference's arguments,
    byte for byte, and every epoch the reference's fix and groups."""
    epochs = [epoch for _k, epoch, _cap in _corpus()]
    rng = np.random.default_rng(516)
    consts = (ConstellationId.GPS, ConstellationId.GALILEO, ConstellationId.GLONASS)
    fix_only = [make_epoch(rng, n=n, constellations=consts[:n_const], noise_sigma=2.0)[0]
                for n_const in (1, 2, 3) for n in (n_const + 2, n_const + 3)]
    for batch in ([*epochs, *fix_only], *([e] for e in [*epochs[:12], *fix_only])):
        got, calls = _kernel_calls(monkeypatch, residuals.solve_rows, batch)
        want, want_calls = _kernel_calls(monkeypatch, _reference_solve_rows, batch)
        assert calls == want_calls
        for (fix, groups), (want_fix, want_groups) in zip(got, want, strict=True):
            assert _kernel_rows_bytes(fix) == _kernel_rows_bytes(want_fix)
            assert len(groups) == len(want_groups)
            for (links, kept, kernel), (w_links, w_kept, w_kernel) in zip(groups, want_groups):
                assert (links.tobytes(), kept.tobytes()) == (w_links.tobytes(), w_kept.tobytes())
                assert _kernel_rows_bytes(kernel) == _kernel_rows_bytes(w_kernel)
    # the corpus call cuts a clock count's rows at the cap and pads rows
    _, calls = _kernel_calls(monkeypatch, residuals.solve_rows, epochs)
    assert any(call[0][1][0] == solver.MAX_ROWS_PER_CALL for call in calls)
    assert any(call[0][1][0] < solver.MAX_ROWS_PER_CALL for call in calls)


@pytest.mark.bitwise
@pytest.mark.parametrize("cap", [7, 512])
def test_solve_batch_hands_the_kernel_the_reference_calls(monkeypatch, cap):
    """``solve_batch`` on problems of one to four clocks in mixed order, N
    from 5 to 24, random and zero weights (rows with fewer positive
    weights than unknowns are ``STATUS_NOT_ENOUGH`` and never reach the
    kernel) and warm and cold starts, with calls cut at 7 rows and at the
    default cap: the same kernel calls as the reference, byte for byte,
    and the same outputs for every problem."""
    monkeypatch.setattr(solver, "MAX_ROWS_PER_CALL", cap)
    rng = np.random.default_rng(707)
    consts = (ConstellationId.GPS, ConstellationId.GALILEO, ConstellationId.GLONASS, ConstellationId.BEIDOU)
    problems = []
    for j in range(60):
        n_const = 1 + int(rng.integers(0, 4))
        epoch, truth = make_epoch(rng, n=int(rng.integers(n_const + 4, 25)), constellations=consts[:n_const],
                                  noise_sigma=3.0)
        k = int(rng.integers(1, 12))
        w = rng.uniform(0.1, 4.0, (k, epoch.n))
        w[rng.random((k, epoch.n)) < 0.2] = 0.0
        w[0, epoch.state_dim() - 1:] = 0.0  # one positive weight short: not solved
        problems.append(solver.epoch_problem(epoch, w, truth if j % 3 == 0 else None))
    got, calls = _kernel_calls(monkeypatch, solver.solve_batch, problems)
    want, want_calls = _kernel_calls(monkeypatch, _reference_solve_batch, problems)
    assert calls == want_calls
    assert [_kernel_rows_bytes(a) for a in got] == [_kernel_rows_bytes(a) for a in want]
    status = np.concatenate([a[2] for a in got])
    assert np.count_nonzero(status == solver.STATUS_NOT_ENOUGH) >= len(problems)
    assert len({p[4].shape[1] for p in problems}) == 4
    assert len(calls) >= 4  # one per clock count, or more
    # some call is cut at the cap (the corpus test above cuts at 512)
    assert cap > 7 or any(call[0][1][0] == cap for call in calls)


def _dense_sky_epochs():
    """16 open-sky epochs with four constellations (GPS, Galileo, GLONASS
    and BeiDou, at least three links each), N from 15 to 22 and d = 7:
    the sky of an online receiver's fixes. Three noise levels, and every
    third epoch has three links biased by 20-80 m, as NLOS links are."""
    rng = np.random.default_rng(1515)
    consts = (ConstellationId.GPS, ConstellationId.GALILEO, ConstellationId.GLONASS, ConstellationId.BEIDOU)
    for k in range(16):
        n = 15 + k % 8
        biases = ({int(i): float(rng.uniform(20.0, 80.0)) for i in rng.choice(n, 3, replace=False)}
                  if k % 3 == 0 else None)
        epoch, _ = make_epoch(rng, n=n, constellations=consts, noise_sigma=(0.5, 2.0, 8.0)[k % 3],
                              biases=biases, time=0.2 * k)
        yield epoch, rng.uniform(0.2, 3.0, n)


@pytest.mark.bitwise
def test_dense_sky_fixes_match_reference_loop(monkeypatch):
    """On four-constellation epochs with N 15-22 (d = 7), the regime of the
    benchmark's online fixes: ``solve_rows`` hands the kernel the
    reference's calls, byte for byte, all epochs at once and one at a
    time; every fix and leave-one-out row has the bits of the one-problem
    loop ``test_solver._reference_lm_solve``; and so has ``solve_wls``,
    cold with equal weights and warm-started from the fix with other
    weights."""
    from test_solver import _reference_lm_solve

    cases = list(_dense_sky_epochs())
    epochs = [epoch for epoch, _ in cases]
    assert {epoch.state_dim() for epoch in epochs} == {7}
    assert {epoch.n for epoch in epochs} == set(range(15, 23))
    assert min(np.bincount(epoch.const_index()).min() for epoch in epochs) >= 3
    for batch in (epochs, *([e] for e in epochs)):
        got, calls = _kernel_calls(monkeypatch, residuals.solve_rows, batch)
        want, want_calls = _kernel_calls(monkeypatch, _reference_solve_rows, batch)
        assert calls == want_calls
        assert [[_kernel_rows_bytes(f), [_kernel_rows_bytes(g[2]) for g in gs]] for f, gs in got] == \
            [[_kernel_rows_bytes(f), [_kernel_rows_bytes(g[2]) for g in gs]] for f, gs in want]

    cold = _DEFAULT_START.as_array()
    rows_checked = 0
    for (epoch, w), (fix, groups) in zip(cases, residuals.solve_rows(epochs)):
        sat, pr, idx, n = epoch.sat_array(), epoch.pr_array(), epoch.const_index(), epoch.n
        # (weights, clock columns, clocks, kernel row) of the fix and of each leave-one-out row
        rows = [(np.ones(n), idx, 4, fix)]
        for (links, kept, kernel), (_, _, sub_idx) in zip(groups, _reference_row_groups(epoch), strict=True):
            rows += [(np.where(np.arange(n) == link, 0.0, 1.0), sub_idx, kept.size, [a[j] for a in kernel])
                     for j, link in enumerate(links.tolist())]
        for weights, clock, n_clk, (x, iterations, status, cost) in rows:
            want = _reference_lm_solve(sat, pr, weights, clock, n_clk, np.r_[cold, np.zeros(n_clk)])
            assert x.tobytes() == want[0].tobytes(), epoch.n
            assert (iterations, status, cost.tobytes()) == (want[1], want[2], want[3].tobytes()), epoch.n
            rows_checked += 1

        for weights, init in ((np.ones(n), None), (w, row_report(epoch, *fix).state)):
            rep = solve_wls(epoch, weights, init)
            start = np.r_[cold, np.zeros(4)] if init is None else state_to_vector(epoch, init)
            want = _reference_lm_solve(sat, pr, weights, idx, 4, start)
            assert want[2] == _kernels.STATUS_CONVERGED
            assert rep.state.position.as_array().tobytes() == want[0][:3].tobytes()
            clocks = [rep.state.clock_bias[c] for c in epoch.constellations()]
            assert np.array(clocks).tobytes() == (want[0][3:] / SPEED_OF_LIGHT).tobytes()
            assert (rep.iterations, rep.converged) == (want[1], True)
            assert np.float64(rep.final_cost).tobytes() == want[3].tobytes()
    assert rows_checked == sum(epoch.n + 1 for epoch in epochs)
