import collections
import math

import numpy as np
import pytest

from gnssweight import _kernels, solver
from gnssweight.errors import NonConvergence, NotEnoughMeasurements, SingularGeometry, ZeroRange
from gnssweight.geo import SPEED_OF_LIGHT, EcefPosition, GeodeticPosition, enu_rotation, geodetic_to_ecef
from gnssweight.model import ConstellationId, Epoch, NavState
from gnssweight.solver import jacobian, solve_wls, state_to_vector
from conftest import assert_same_fix, make_epoch, observation_function, residual


def test_noise_free_cold_start(rng):
    for _ in range(50):
        epoch, truth = make_epoch(rng, n=8)
        rep = solve_wls(epoch, np.ones(epoch.n))
        assert rep.converged
        err = np.linalg.norm(rep.state.position.as_array() - truth.position.as_array())
        assert err < 1e-6
        for c, b in truth.clock_bias.items():
            assert rep.state.clock_bias[c] == pytest.approx(b, abs=1e-12)


def test_zero_weight_equals_removal(rng):
    epoch, _ = make_epoch(rng, n=9, biases={4: 100.0})
    # find the corrupted measurement (sv_id = 5) in canonical order
    idx = next(i for i, m in enumerate(epoch.measurements) if m.sv_id == 5)
    reduced = Epoch(
        time=epoch.time,
        measurements=[m for i, m in enumerate(epoch.measurements) if i != idx],
    )
    for w in (np.ones(epoch.n), rng.uniform(0.2, 3.0, size=epoch.n)):
        w_zero = w.copy()
        w_zero[idx] = 0.0
        rep_zero = solve_wls(epoch, w_zero)
        rep_removed = solve_wls(reduced, np.delete(w, idx))
        # the kernel sums measurement by measurement from 0.0, so the
        # zero-weight row adds exact zeros and the solves agree to the last bit
        assert np.array_equal(
            rep_zero.state.position.as_array(), rep_removed.state.position.as_array()
        )
        assert rep_zero.state.clock_bias == rep_removed.state.clock_bias
        assert rep_zero.iterations == rep_removed.iterations
        assert rep_zero.final_cost == rep_removed.final_cost


def test_zero_redundancy_rounding_floor():
    """With N equal to the state dimension there is no redundancy, so a
    noise-free solve drives the cost down to rounding, where trial steps
    leave it unchanged. Such a solve must stop there as converged and be
    polished, not wander along the flat floor until the iteration cap."""
    rng = np.random.default_rng(2024)
    consts = (ConstellationId.GPS, ConstellationId.GALILEO, ConstellationId.GLONASS)
    for k in range(3000):
        n_const = 1 + k % 3
        epoch, truth = make_epoch(rng, n=3 + n_const, constellations=consts[:n_const])
        # warm start 10 km off in position and in every clock term
        offset = rng.normal(0.0, 1e4, size=3 + n_const)
        init = NavState(
            EcefPosition(*(truth.position.as_array() + offset[:3])),
            {c: b + offset[3 + i] / SPEED_OF_LIGHT for i, (c, b) in enumerate(truth.clock_bias.items())},
        )
        rep = solve_wls(epoch, np.ones(epoch.n), init=init)
        assert rep.converged and rep.iterations <= 20, f"case {k}: {rep.iterations} iterations"
        # far below any real fault, above the worst geometry's rounding floor
        err = np.linalg.norm(rep.state.position.as_array() - truth.position.as_array())
        assert err < 1e-4, f"case {k}: {err:.3g} m"


def test_weight_scaling_invariance(rng):
    # Arbitrary positive scaling perturbs the iteration at the ulp level of
    # the ~1e7 m ranges, so agreement bottoms out near 1e-7 in double
    # precision. Power-of-two scaling is exact in every product and must
    # reproduce the solution bitwise.
    for _ in range(20):
        epoch, _ = make_epoch(rng, n=8, noise_sigma=2.0)
        w = rng.uniform(0.1, 2.0, size=epoch.n)
        p1 = solve_wls(epoch, w).state.position.as_array()
        for k in (7.3, 1000.0):
            pk = solve_wls(epoch, k * w).state.position.as_array()
            assert np.linalg.norm(p1 - pk) < 2e-7
        p1024 = solve_wls(epoch, 1024.0 * w).state.position.as_array()
        assert np.linalg.norm(p1 - p1024) == 0.0


def test_permutation_invariance(rng):
    epoch, _ = make_epoch(rng, n=8, noise_sigma=2.0)
    w = rng.uniform(0.5, 2.0, size=epoch.n)
    rep = solve_wls(epoch, w)
    # shuffling rows before Epoch construction lands in the same canonical order
    perm = rng.permutation(epoch.n)
    shuffled = Epoch(time=epoch.time, measurements=[epoch.measurements[i] for i in perm])
    assert [m.key for m in shuffled.measurements] == [m.key for m in epoch.measurements]
    rep2 = solve_wls(shuffled, w)
    assert np.allclose(
        rep.state.position.as_array(), rep2.state.position.as_array(), atol=1e-12
    )


def test_cost_and_residuals(rng):
    epoch, _ = make_epoch(rng, n=8, noise_sigma=2.0)
    w = np.ones(epoch.n)
    rep = solve_wls(epoch, w)
    assert rep.final_cost >= 0.0
    r = np.array([residual(rep.state, m) for m in epoch.measurements])
    assert rep.final_cost == pytest.approx(float(np.sum(r**2)), rel=1e-9)


def test_not_enough_measurements(rng):
    epoch, _ = make_epoch(rng, n=5)
    with pytest.raises(NotEnoughMeasurements):
        solve_wls(epoch, np.array([1.0, 1.0, 1.0, 0.0, 0.0]))


def test_singular_geometry(rng):
    # all satellites stacked along nearly the same line of sight
    epoch, truth = make_epoch(rng, n=6, constellations=(ConstellationId.GPS,))
    from gnssweight.model import PseudorangeMeasurement
    from gnssweight.geo import EcefPosition

    base = epoch.measurements[0]
    ms = []
    for i in range(6):
        sat = EcefPosition(
            base.sat_pos.x + i * 1e-3, base.sat_pos.y, base.sat_pos.z + i * 1e-3
        )
        rng_m = np.linalg.norm(sat.as_array() - truth.position.as_array())
        ms.append(
            PseudorangeMeasurement(
                constellation=ConstellationId.GPS,
                sv_id=i + 1,
                band=base.band,
                pseudorange=float(rng_m),
                sat_pos=sat,
                cn0=45.0,
                lock_time=1.0,
            )
        )
    degenerate = Epoch(time=0.0, measurements=ms)
    with pytest.raises(SingularGeometry):
        solve_wls(degenerate, np.ones(6), init=truth)


def test_row_report_reads_every_status(rng, monkeypatch):
    """Kernel rows of one epoch with each status: ``row_report`` gives a
    converged report, a capped report that keeps the iterate, and None for
    an unsolved or a singular row. ``solve_wls`` raises SingularGeometry
    and NonConvergence for the solved ones, the latter carrying
    ``row_report``'s report."""
    epoch, _ = make_epoch(rng, n=8, noise_sigma=2.0)
    d = epoch.state_dim()
    W = np.ones((3, epoch.n))
    W[1:, d - 1:] = 0.0  # d - 1 positive weights: not solved
    W[2, d - 1] = 1e-20  # d positive weights, one negligible: singular

    def rows():
        x, iterations, status, cost = solver.solve_batch([solver.epoch_problem(epoch, W)])[0]
        return [(x[r], iterations[r], status[r], cost[r]) for r in range(len(W))]

    full, not_enough, singular = rows()
    assert [full[2], not_enough[2], singular[2]] == [
        _kernels.STATUS_CONVERGED, solver.STATUS_NOT_ENOUGH, _kernels.STATUS_SINGULAR]
    rep = solver.row_report(epoch, *full)
    assert rep.converged
    assert_same_fix(rep, solve_wls(epoch, W[0]))
    assert solver.row_report(epoch, *not_enough) is None
    assert solver.row_report(epoch, *singular) is None
    with pytest.raises(SingularGeometry):
        solve_wls(epoch, W[2])

    monkeypatch.setattr(_kernels, "MAX_ITERATIONS", 2)
    capped = rows()[0]
    assert capped[2] == _kernels.STATUS_MAX_ITER
    rep = solver.row_report(epoch, *capped)
    assert not rep.converged
    assert rep.iterations == 2
    assert state_to_vector(epoch, rep.state)[:3].tobytes() == capped[0][:3].tobytes()
    with pytest.raises(NonConvergence) as e:
        solve_wls(epoch, W[0])
    assert_same_fix(e.value.report, rep)


def test_jacobian_structure(rng):
    epoch, truth = make_epoch(rng, n=8)
    J = jacobian(truth, epoch)
    assert J.shape == (8, 3 + len(epoch.constellations()))
    consts = epoch.constellations()
    for i, m in enumerate(epoch.measurements):
        k = consts.index(m.constellation)
        assert J[i, 3 + k] == 1.0
        for other in range(len(consts)):
            if other != k:
                assert J[i, 3 + other] == 0.0
        los = (truth.position.as_array() - m.sat_pos.as_array())
        los /= np.linalg.norm(los)
        assert np.allclose(J[i, :3], los, atol=1e-12)
    # a receiver on a satellite has no line of sight to it
    with pytest.raises(ZeroRange):
        jacobian(NavState(epoch.measurements[3].sat_pos, truth.clock_bias), epoch)


def test_jacobian_finite_differences(rng):
    for _ in range(20):
        epoch, truth = make_epoch(rng, n=6)
        J = jacobian(truth, epoch)
        consts = epoch.constellations()
        h_pos, h_clk = 1e-2, 1e-9
        for i, m in enumerate(epoch.measurements):
            for axis in range(3):
                step = np.zeros(3)
                step[axis] = h_pos
                sp = NavState(
                    EcefPosition(*(truth.position.as_array() + step)), truth.clock_bias
                )
                sm = NavState(
                    EcefPosition(*(truth.position.as_array() - step)), truth.clock_bias
                )
                fd = (observation_function(sp, m) - observation_function(sm, m)) / (2 * h_pos)
                # relative to the unit-norm position part of the row
                assert abs(fd - J[i, axis]) < 1e-6
            k = consts.index(m.constellation)
            bp = dict(truth.clock_bias)
            bm = dict(truth.clock_bias)
            bp[m.constellation] += h_clk
            bm[m.constellation] -= h_clk
            # the clock columns are per meter of c * delta
            fd = (
                observation_function(NavState(truth.position, bp), m)
                - observation_function(NavState(truth.position, bm), m)
            ) / (2 * h_clk * SPEED_OF_LIGHT)
            assert fd == pytest.approx(J[i, 3 + k], rel=1e-6)


def test_monte_carlo_covariance(rng):
    """Empirical solution covariance tracks the linearized (HtWH)^-1."""
    base_epoch, truth = make_epoch(rng, n=10)
    sigma = 2.0
    w = np.full(base_epoch.n, 1.0 / sigma**2)
    H = jacobian(truth, base_epoch)
    cov_lin = np.linalg.inv(H.T @ (w[:, None] * H))[:3, :3]

    samples = []
    from gnssweight.model import PseudorangeMeasurement

    for _ in range(1000):
        noisy = [
            PseudorangeMeasurement(
                constellation=m.constellation,
                sv_id=m.sv_id,
                band=m.band,
                pseudorange=m.pseudorange + rng.normal(0, sigma),
                sat_pos=m.sat_pos,
                cn0=m.cn0,
                lock_time=m.lock_time,
            )
            for m in base_epoch.measurements
        ]
        ep = Epoch(time=0.0, measurements=noisy)
        rep = solve_wls(ep, w, init=truth)
        samples.append(rep.state.position.as_array() - truth.position.as_array())
    cov_emp = np.cov(np.array(samples).T)
    rel = np.linalg.norm(cov_emp - cov_lin) / np.linalg.norm(cov_lin)
    assert rel < 0.15


def _reference_normal_equations(x, sat_pos, pr, w, const_idx):
    """One state's (A, g, cost), each sum taken measurement by measurement."""
    n, d = pr.shape[0], x.shape[0]
    diff = x[:3] - sat_pos
    rng = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] + diff[:, 2] * diff[:, 2])
    rng = np.maximum(rng, 1e-3)
    J = np.zeros((n, d + 1))
    J[:, :3] = diff / rng[:, None]
    J[np.arange(n), 3 + const_idx] = 1.0
    J[:, d] = pr - (rng + x[3 + const_idx])
    M = np.zeros((d + 1, d + 1))
    for i in range(n):
        M = M + (J[i] * w[i])[:, None] * J[i][None, :]
    A = np.triu(M[:d, :d])
    return A + np.triu(A, 1).T, M[:d, d], M[d, d]


def _reference_lm_solve(sat_pos, pr, w, const_idx, n_const, x0, max_iter=50,
                        step_tol=_kernels.STEP_TOLERANCE, polish_tol=_kernels.POLISH_TOLERANCE,
                        lam0=1e-3, lam_up=10.0, lam_down=0.1, cond_limit=1e12, rule="measured"):
    """The one-problem loop that ``_kernels.lm_solve_batch`` runs per row.

    Returns (x, iterations, status, cost, trials, (rounds, polish, steps)),
    trials being the state of every damped trial evaluated, in order.
    rounds[r] is what the row does in the kernel's lockstep round r:
    "fresh" for the first trial of an iteration, "stale" for a retried
    one, "singular" for the condition test that stops it. polish is how
    its Gauss-Newton polish ends: "long" (a step over 1 m), "growth" (a
    step longer than the last), "tiny" (a step shorter than polish_tol),
    "cap" (10 steps), or None without one; steps is how many polish steps
    it applies. A row evaluates its normal equations 1 + len(trials) +
    steps times. The two floors default to the kernel's, and so does
    ``rule``, "measured": a trial step shorter than step_tol ends the
    loop unevaluated, and the polish does not take a step shorter than
    polish_tol. The earlier rules take both short steps: "evaluated"
    evaluates a short trial, accepts it if it lowers the cost and ends the
    loop either way, and the polish stops after taking a short step;
    "accepted" ends the loop only at an accepted short step and retries a
    rejected one with more damping, with the same polish.
    """
    d = 3 + n_const
    x, lam, status, iterations, trials = x0.copy(), lam0, _kernels.STATUS_MAX_ITER, 0, []
    rounds, polish, steps = [], None, 0
    A, g, cost = _reference_normal_equations(x, sat_pos, pr, w, const_idx)
    sum_sq = lambda v: np.cumsum(v * v)[-1]  # noqa: E731
    measured = rule == "measured"
    for it in range(max_iter):
        iterations = it + 1
        s = np.linalg.svd(A)[1]
        if s[-1] <= 0.0 or s[0] / s[-1] > cond_limit:
            status = _kernels.STATUS_SINGULAR
            rounds.append("singular")
            break
        accepted = False
        for _trial in range(64):
            rounds.append("stale" if _trial else "fresh")
            Ad = A.copy()
            Ad[np.diag_indices(d)] += lam * np.maximum(np.diag(A), 1e-12)
            dx = np.linalg.solve(Ad, g)
            short = math.sqrt(sum_sq(dx)) < step_tol
            if measured and short:
                break
            trials.append(x + dx)
            A_c, g_c, cost_c = _reference_normal_equations(x + dx, sat_pos, pr, w, const_idx)
            if cost_c < cost:
                x, A, g, cost = x + dx, A_c, g_c, cost_c
                lam = max(lam * lam_down, 1e-12)
                accepted = True
                break
            if cost_c == cost or rule == "evaluated" and short:
                break
            lam = lam * lam_up
            if lam > 1e14:
                break
        if not accepted or short:
            status = _kernels.STATUS_CONVERGED
            break
    if status == _kernels.STATUS_CONVERGED:
        prev2, polish = 1e300, "cap"
        for steps in range(1, 11):
            dx = np.linalg.solve(A, g)
            step2 = sum_sq(dx)
            tiny = step2 < polish_tol**2
            if step2 > 1.0 or step2 > prev2 or measured and tiny:
                polish, steps = "long" if step2 > 1.0 else "growth" if step2 > prev2 else "tiny", steps - 1
                break
            prev2 = step2
            x = x + dx
            A, g, cost = _reference_normal_equations(x, sat_pos, pr, w, const_idx)
            if tiny:
                polish = "tiny"
                break
    return x, iterations, status, cost, trials, (rounds, polish, steps)


def _cone_case(rng, elevation):
    """6 rows on 9 GPS links, 7 of them at one ``elevation`` (rad): a cone
    around the receiver's up axis, on which height and clock trade off.
    Rows 0 and 1 weight only the cone: cold-started, they go singular
    after a step or two, once the iterate nears the receiver. Rows 2 and
    3 weight every link and start twice as far out as a satellite, so
    they retry trials in those rounds; rows 4 and 5 start cold and warm."""
    geo = GeodeticPosition(math.radians(rng.uniform(-60, 60)), math.radians(rng.uniform(-180, 180)), 100.0)
    rx = geodetic_to_ecef(geo).as_array()
    el = np.full(9, elevation)
    el[:2] = np.radians(rng.uniform(10, 85, 2))
    az = rng.uniform(0, 2 * math.pi, 9)
    sat = rx + 2.2e7 * (np.stack([np.cos(el) * np.sin(az), np.cos(el) * np.cos(az), np.sin(el)], 1)
                        @ enu_rotation(geo))
    pr = np.linalg.norm(rx - sat, axis=1) + 1e4 + rng.normal(0.0, 2.0, 9)
    W = rng.uniform(0.05, 3.0, size=(6, 9))
    W[:2, :2] = 0.0
    W[2] = 1.0
    X0 = np.zeros((6, 4))
    X0[[0, 1, 4], :3] = solver._DEFAULT_START.as_array()
    X0[2:4, :3] = 2.0 * sat[2:4]
    X0[5] = np.r_[rx, 1e4] + rng.normal(0.0, 1e4, 4)
    return sat, pr, np.zeros(9, dtype=np.intp), 1, W, X0


def _reference_corpus():
    """64 cases of 6 rows: (sat, pr, const_idx, n_const, W, X0, max_iter)
    with cold and warm starts, random weights with zeros, low iteration
    caps and singular weightings; the last 4 are ``_cone_case``s. The
    kernel's cap is read once, before the first case, since a caller
    lowers it to a case's ``max_iter`` while the corpus runs."""
    full_cap = _kernels.MAX_ITERATIONS
    rng = np.random.default_rng(77)
    consts = (ConstellationId.GPS, ConstellationId.GALILEO, ConstellationId.GLONASS)
    for k in range(60):
        n_const = 1 + k % 3
        dim = 3 + n_const
        n = int(rng.integers(dim, 25))
        epoch, truth = make_epoch(rng, n=n, constellations=consts[:n_const],
                                  noise_sigma=(0.0, 2.0, 30.0)[k // 3 % 3])
        truth_x = state_to_vector(epoch, truth)
        rows = 6
        W = rng.uniform(0.05, 3.0, size=(rows, n))
        W[0] = 1.0
        W[1, rng.choice(n, size=n - dim, replace=False)] = 0.0
        W[2, rng.choice(n, size=n - dim + 1, replace=False)] = 0.0  # too few: singular
        X0 = np.tile(truth_x, (rows, 1)) + rng.normal(0.0, 1e4, size=(rows, dim))
        X0[:2, :3] = solver._DEFAULT_START.as_array()
        X0[:2, 3:] = 0.0
        max_iter = 3 if k % 5 == 0 else full_cap
        yield epoch.sat_array(), epoch.pr_array(), epoch.const_index(), n_const, W, X0, max_iter
    for elevation in (20.0, 35.0, 50.0, 65.0):
        yield *_cone_case(rng, math.radians(elevation)), full_cap


@pytest.mark.bitwise
def test_kernel_matches_reference_loop(monkeypatch):
    """Every row of a batch, and a single solve, has the bits of the
    one-problem loop on ``_reference_corpus``. The corpus reaches every
    status, in counts pinned so that a cap leaking from one case into the
    next fails, and the exits the kernel takes on one path for all rows: a
    lockstep round in which a fresh row goes singular while another row
    retries a trial (the condition test then runs on both), and polishes
    that end on a tiny step or on a growing one."""
    statuses = np.zeros(3, dtype=int)
    polishes = collections.Counter()
    singular_beside_stale = 0
    for k, (sat, pr, idx, n_const, W, X0, max_iter) in enumerate(_reference_corpus()):
        monkeypatch.setattr(_kernels, "MAX_ITERATIONS", max_iter)
        rows, n = W.shape
        X, its, status, cost = _kernels.lm_solve_batch(
            np.broadcast_to(sat, (rows, n, 3)), np.broadcast_to(pr, (rows, n)), W,
            np.broadcast_to(idx, (rows, n)), n_const, X0)
        row_rounds = []
        for row in range(rows):
            x, it, st, c, _, (rounds, polish, _) = _reference_lm_solve(
                sat, pr, W[row], idx, n_const, X0[row], max_iter)
            single = _kernels.lm_solve(sat, pr, W[row], idx, n_const, X0[row])
            for got in ((X[row], its[row], status[row], cost[row]), single):
                assert got[0].tobytes() == x.tobytes(), (k, row)
                got_c = np.float64(got[3]).tobytes()
                assert (got[1], got[2], got_c) == (it, st, c.tobytes()), (k, row)
            statuses[st] += 1
            polishes[polish] += 1
            row_rounds.append(rounds)
        for r in range(max(map(len, row_rounds))):
            singular_beside_stale += {"singular", "stale"} <= {a[r] for a in row_rounds if r < len(a)}
    # converged, capped, singular
    assert statuses.tolist() == [247, 62, 75], statuses
    assert singular_beside_stale > 0
    assert polishes["tiny"] > 0 and polishes["growth"] > 0, polishes


@pytest.mark.bitwise
def test_rounds_that_stop_rows_without_progress_match_reference_loop(monkeypatch):
    """The two exits of the damped loop that retire rows whose last trial
    did not lower the cost, which ``_reference_corpus`` never takes: a
    near-degenerate cone (``_cone_case`` at 50 degrees, its two off-cone
    links weighted 1e-8) stalls in the flat direction of the cone.
    Started warm, row A evaluates a trial in each of its 18 rounds and
    stops at the last, rejected one, so alone it ends in a round in which
    no trial lowered its cost. Row B, the same problem started 10 km away,
    lowers its cost in its 18th round at its 14th iteration, so with the
    cap at 14 that round retires both rows at once, one of them improving.
    Each row has the bits of the one-problem loop."""
    sat, pr, idx, n_const, _, X0 = _cone_case(np.random.default_rng(48), math.radians(50.0))
    w = np.ones(9)
    w[:2] = 1e-8
    starts = np.stack([X0[5], X0[5] + [0.0, 1e4, 0.0, 0.0]])
    for cap, rows in ((_kernels.MAX_ITERATIONS, [0]), (14, [0, 1])):
        monkeypatch.setattr(_kernels, "MAX_ITERATIONS", cap)
        b = len(rows)
        X, its, status, cost = _kernels.lm_solve_batch(
            np.broadcast_to(sat, (b, 9, 3)), np.broadcast_to(pr, (b, 9)), np.tile(w, (b, 1)),
            np.broadcast_to(idx, (b, 9)), n_const, starts[rows])
        for row in rows:
            x, it, st, c, trials, (rounds, _, _) = _reference_lm_solve(sat, pr, w, idx, n_const, starts[row], cap)
            # every round evaluates a trial, and the last one ends the loop
            assert len(trials) == len(rounds) == 18 and "singular" not in rounds, (cap, row)
            assert st == (_kernels.STATUS_MAX_ITER if row else _kernels.STATUS_CONVERGED), (cap, row)
            assert (X[row].tobytes(), its[row], status[row]) == (x.tobytes(), it, st), (cap, row)
            assert np.float64(cost[row]).tobytes() == c.tobytes(), (cap, row)


@pytest.mark.bitwise
def test_floor_stop_moves_fixes_by_nanometres():
    """Stopping at a rejected trial shorter than the step floor, as well as
    at an accepted one, only cuts trials at the rounding floor: on
    ``_reference_corpus`` no status changes, the new rule's trials are a
    prefix of the earlier rule's, fewer in total, and a converged row
    moves by less than the floor. Both rules run at the floors they were
    compared at, 1e-6 m for the step and 1e-10 m for the polish."""
    trials = np.zeros(2, dtype=int)
    for k, (sat, pr, idx, n_const, W, X0, max_iter) in enumerate(_reference_corpus()):
        for row in range(W.shape[0]):
            new, old = (_reference_lm_solve(sat, pr, W[row], idx, n_const, X0[row], max_iter,
                                            step_tol=1e-6, polish_tol=1e-10, rule=rule)
                        for rule in ("evaluated", "accepted"))
            assert new[1:3] == old[1:3], (k, row)
            assert len(new[4]) <= len(old[4]), (k, row)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(new[4], old[4])), (k, row)
            trials += len(new[4]), len(old[4])
            if new[2] == _kernels.STATUS_CONVERGED:
                moved = np.linalg.norm(new[0][:3] - old[0][:3])
                assert moved < 1e-6, (k, row, moved)
            else:  # capped or singular: no trial was short, so the paths agree
                assert new[0].tobytes() == old[0].tobytes(), (k, row)
    assert trials[0] < trials[1], trials


@pytest.mark.bitwise
def test_resolution_floors_cut_work_and_move_fixes_by_nanometres():
    """The kernel's floors (a step of ``STEP_TOLERANCE``, the cost's
    resolution, and a polish step of ``POLISH_TOLERANCE``, the step's
    rounding noise) against the earlier 1e-6 m and 1e-10 m on
    ``_reference_corpus``: no status changes, damped trials and polish
    steps both fall in total, and a converged row moves by less than
    5e-7 m (3.5e-7 m measured)."""
    trials, steps = np.zeros(2, dtype=int), np.zeros(2, dtype=int)
    for k, (sat, pr, idx, n_const, W, X0, max_iter) in enumerate(_reference_corpus()):
        for row in range(W.shape[0]):
            new, old = (_reference_lm_solve(sat, pr, W[row], idx, n_const, X0[row], max_iter,
                                            step_tol=step_tol, polish_tol=polish_tol, rule="evaluated")
                        for step_tol, polish_tol in ((_kernels.STEP_TOLERANCE, _kernels.POLISH_TOLERANCE),
                                                     (1e-6, 1e-10)))
            assert new[2] == old[2], (k, row)
            trials += len(new[4]), len(old[4])
            steps += new[5][2], old[5][2]
            if new[2] == _kernels.STATUS_CONVERGED:
                moved = np.linalg.norm(new[0][:3] - old[0][:3])
                assert moved < 5e-7, (k, row, moved)
    assert trials[0] < trials[1], trials
    assert steps[0] < steps[1], steps


@pytest.mark.bitwise
def test_unevaluated_short_steps_cut_work_and_move_fixes_by_nanometres():
    """The kernel's rule, which neither evaluates a trial step shorter than
    ``STEP_TOLERANCE`` nor takes a polish step shorter than
    ``POLISH_TOLERANCE``, against the earlier rule that did both, at the
    same floors on ``_reference_corpus``: no status or iteration count
    changes, the rows of normal equations evaluated fall in total (2,994
    to 2,670 measured), and a converged row moves by less than 2e-7 m
    (1.35e-7 m measured, median 3e-9 m)."""
    evaluations = np.zeros(2, dtype=int)
    for k, (sat, pr, idx, n_const, W, X0, max_iter) in enumerate(_reference_corpus()):
        for row in range(W.shape[0]):
            new, old = (_reference_lm_solve(sat, pr, W[row], idx, n_const, X0[row], max_iter, rule=rule)
                        for rule in ("measured", "evaluated"))
            assert new[1:3] == old[1:3], (k, row)
            evaluations += 1 + len(new[4]) + new[5][2], 1 + len(old[4]) + old[5][2]
            if new[2] == _kernels.STATUS_CONVERGED:
                moved = np.linalg.norm(new[0][:3] - old[0][:3])
                assert moved < 2e-7, (k, row, moved)
            else:  # capped or singular: no step was short, so the paths agree
                assert new[0].tobytes() == old[0].tobytes(), (k, row)
    assert evaluations[0] < evaluations[1], evaluations


@pytest.mark.bitwise
def test_kernel_evaluations_match_reference_loop(monkeypatch):
    """Every row the kernel evaluates ``_normal_equations`` at, at the
    start, at a damped trial or in the polish, is one the reference loop
    evaluates: per batch call and per single solve, the rows evaluated sum
    to 1 + trials + polish steps over the call's rows. So a short trial
    that is evaluated, or a short polish step that is taken, fails here
    even where it moves no bit."""
    evaluated = [0]
    normal_equations = _kernels._normal_equations

    def counting_normal_equations(x, *args):
        evaluated[0] += x.shape[0]
        return normal_equations(x, *args)

    monkeypatch.setattr(_kernels, "_normal_equations", counting_normal_equations)
    total = 0
    for k, (sat, pr, idx, n_const, W, X0, max_iter) in enumerate(_reference_corpus()):
        monkeypatch.setattr(_kernels, "MAX_ITERATIONS", max_iter)
        rows, n = W.shape
        want = []
        for row in range(rows):
            _, _, _, _, trials, (_, _, steps) = _reference_lm_solve(
                sat, pr, W[row], idx, n_const, X0[row], max_iter)
            want.append(1 + len(trials) + steps)
        evaluated[0] = 0
        _kernels.lm_solve_batch(
            np.broadcast_to(sat, (rows, n, 3)), np.broadcast_to(pr, (rows, n)), W,
            np.broadcast_to(idx, (rows, n)), n_const, X0)
        assert evaluated[0] == sum(want), (k, evaluated, want)
        for row in range(rows):
            evaluated[0] = 0
            _kernels.lm_solve(sat, pr, W[row], idx, n_const, X0[row])
            assert evaluated[0] == want[row], (k, row, evaluated)
        total += sum(want)
    assert total > 0


def _random_stack(rng, b, n, n_const):
    """(x, sat_pos, pr, w, const_idx) of b rows: states from about a
    millimetre to hundreds of km off their receivers, clocks of 1e4 m and
    weights with zeros, so the products span many orders of magnitude."""
    d = 3 + n_const
    rx = 6.4e6 * rng.normal(size=(b, 1, 3)) / 1.8
    los = rng.normal(size=(b, n, 3))
    sat = rx + 2.6e7 * los / np.linalg.norm(los, axis=-1, keepdims=True)
    idx = rng.integers(0, n_const, size=(b, n))
    clock = rng.normal(0.0, 1e4, size=(b, n_const))
    pr = np.linalg.norm(sat - rx, axis=-1) + np.take_along_axis(clock, idx, axis=1) + rng.normal(0.0, 30.0, (b, n))
    w = rng.uniform(0.0, 3.0, size=(b, n)) * (rng.uniform(size=(b, n)) > 0.2)
    x = np.concatenate([rx[:, 0], clock], axis=1) + rng.normal(0.0, 1.0, (b, d)) * 10.0 ** rng.integers(-3, 6, (b, 1))
    return x, sat, pr, w, idx


def _allocating_normal_equations(x, meas, pairs):
    """``_kernels._normal_equations`` on a pair of buffers of its own."""
    size = meas[1].size * pairs[0].size
    return _kernels._normal_equations(x, meas, pairs, (np.empty(size), np.empty(size)))


@pytest.mark.bitwise
def test_normal_equations_add_in_order():
    """``_normal_equations`` has the bits of the measurement-by-measurement
    loop at the stack sizes the solver runs: a single solve, an epoch's
    leave-one-out rows and a full kernel call. Whether numpy adds a
    reduction in order depends on the array's memory layout and on the
    numpy version, so the layout the kernel relies on is checked here."""
    rng = np.random.default_rng(31)
    shapes = [(1, n, k) for n in range(5, 31) for k in range(1, 5)]
    shapes += [(19, n, k) for n in (5, 9, 13, 18, 22, 30) for k in range(1, 5)]
    shapes += [(1024, 5, 4), (1024, 12, 3), (1024, 30, 1)]
    for b, n, n_const in shapes:
        d = 3 + n_const
        x, sat, pr, w, idx = _random_stack(rng, b, n, n_const)
        A, g, cost = _allocating_normal_equations(x, _kernels._layout(sat, pr, w, idx, d), _kernels._pairs(d))
        for r in range(b):
            A_r, g_r, cost_r = _reference_normal_equations(x[r], sat[r], pr[r], w[r], idx[r])
            assert A[r].tobytes() == A_r.tobytes(), (b, n, n_const, r)
            assert g[r].tobytes() == g_r.tobytes(), (b, n, n_const, r)
            assert cost[r].tobytes() == np.float64(cost_r).tobytes(), (b, n, n_const, r)


@pytest.mark.bitwise
def test_predicted_pseudoranges_add_squares_as_a_reduction(monkeypatch):
    """``predicted_pseudoranges`` has the bits of ``np.linalg.norm``'s
    arithmetic, ``np.add.reduce`` over the squares' last axis, on the
    states ``row_report`` (one state) and ``build_residual_matrix`` (a
    stack of leave-one-out states) pass it, for N from 4 to 30 and one to
    four clocks, and on stacks of 1 to N states drawn around the fix."""
    from gnssweight import residuals

    rng = np.random.default_rng(37)
    consts = (ConstellationId.GPS, ConstellationId.GALILEO, ConstellationId.GLONASS, ConstellationId.BEIDOU)
    calls = []
    predicted = solver.predicted_pseudoranges

    def spy(epoch, x):
        calls.append((epoch, x.copy()))
        return predicted(epoch, x)

    monkeypatch.setattr(solver, "predicted_pseudoranges", spy)
    monkeypatch.setattr(residuals, "predicted_pseudoranges", spy)
    for n in range(4, 31):
        epoch, truth = make_epoch(rng, n=n, constellations=consts[: 1 + n % 4], noise_sigma=3.0)
        solve_wls(epoch, np.ones(n))
        if n > epoch.state_dim():
            residuals.build_residual_matrix(epoch, residuals.solve_rows([epoch])[0])
        x = state_to_vector(epoch, truth)
        stack = x + rng.normal(scale=100.0, size=(n, x.size))
        calls += [(epoch, stack[0]), (epoch, stack[:1]), (epoch, stack[: n // 2]), (epoch, stack)]
    assert {x.ndim for _, x in calls} == {1, 2}
    for epoch, x in calls:
        d = x[..., None, :3] - epoch.sat_array()
        want = np.sqrt(np.add.reduce(d * d, axis=-1)) + x[..., 3 + epoch.const_index()]
        got = predicted(epoch, x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (epoch.n, x.shape)


def _svd_singular(A):
    """The condition test of ``_reference_lm_solve``, for a stack."""
    s = np.linalg.svd(A)[1]
    low = s[:, -1]
    return (low <= 0.0) | (s[:, 0] / np.where(low > 0.0, low, np.inf) > _kernels.COND_LIMIT)


@pytest.mark.bitwise
def test_condition_test_matches_svd(monkeypatch):
    """The eigenvalue condition test flags the normal matrices the SVD test
    flags: every matrix the kernel tests on the leave-one-out batches of
    the residual corpus, matrices just outside the band of condition
    numbers where the two may differ, and singular matrices."""
    seen, ill_conditioned = [], _kernels._ill_conditioned
    monkeypatch.setattr(_kernels, "_ill_conditioned", lambda A: seen.append(A.copy()) or ill_conditioned(A))
    for cap, args in _loo_batches():
        monkeypatch.setattr(_kernels, "MAX_ITERATIONS", cap)
        _kernels.lm_solve_batch(*args)
    for A in seen:
        assert np.array_equal(ill_conditioned(A), _svd_singular(A))
    flags = np.concatenate([ill_conditioned(A) for A in seen])
    assert flags.any() and not flags.all(), flags.sum()

    # Both tests find the smallest eigenvalue to about n eps cond(A)
    # relative, 1e-4 at COND_LIMIT, and so disagree on about half of the
    # rotated matrices within 1e-6 of it. A diagonal matrix's eigenvalues
    # are exact; rotated ones are taken 1e-2 away from the limit.
    rng = np.random.default_rng(8)
    mats, want = [], []
    for d in (4, 5, 6, 7):
        for rel, rotate in ((1e-6, False), (1e-2, True)):
            for sign in (-1.0, 1.0):
                lam = rng.permutation(np.r_[1e3, rng.uniform(1.0, 1e3, d - 2),
                                            1e3 / (_kernels.COND_LIMIT * (1.0 + sign * rel))])
                Q = np.linalg.qr(rng.normal(size=(d, d)))[0] if rotate else np.eye(d)
                A = (Q * lam) @ Q.T
                mats.append(np.triu(A) + np.triu(A, 1).T)
                want.append(sign > 0.0)
        H = rng.normal(size=(d + 3, d))
        H[:, -1] = H[:, -2]  # two equal columns: exactly singular
        mats.append(H.T @ H)
        want.append(True)
        for tiny in (-1e-14, -1e-15):  # a tiny negative eigenvalue, as rounding leaves
            lam = rng.permutation(np.r_[1e3, rng.uniform(1.0, 1e3, d - 2), tiny * 1e3])
            Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            A = (Q * lam) @ Q.T
            mats.append(np.triu(A) + np.triu(A, 1).T)
            want.append(True)
    for A, flag in zip(mats, want):
        assert ill_conditioned(A[None])[0] == _svd_singular(A[None])[0] == flag
    assert ill_conditioned(np.zeros((1, 4, 4)))[0] and _svd_singular(np.zeros((1, 4, 4)))[0]


def _eigvalsh_singular(A):
    """The eigenvalue-only condition test that ``_kernels._ill_conditioned``
    ran on every matrix before it gained its determinant certificate."""
    ev = np.linalg.eigvalsh(A)  # ascending
    low = ev[:, 0]
    return (low <= 0.0) | (ev[:, -1] / np.where(low > 0.0, low, np.inf) > _kernels.COND_LIMIT)


def _outcome(test, A):
    """The flags ``test`` gives the stack A, or the type of what it raises."""
    try:
        return test(A).tolist()
    except np.linalg.LinAlgError as e:
        return type(e)


def _rotated(rng, lam):
    """A symmetric matrix with the eigenvalues ``lam`` in a random basis."""
    Q = np.linalg.qr(rng.normal(size=(lam.size, lam.size)))[0]
    A = (Q * lam) @ Q.T
    return np.triu(A) + np.triu(A, 1).T


def _certificate_edge(d):
    """c for which diag(c, 1, ..., 1) sits on the certificate's threshold,
    tr^d = det * COND_LIMIT * 1e-3, found by bisection on log c."""
    lo, hi = -40.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c = math.exp(mid)
        if (c + d - 1.0) ** d < c * _kernels.COND_LIMIT * 1e-3:
            hi = mid  # certified: c can shrink
        else:
            lo = mid
    return math.exp(hi)


@pytest.mark.bitwise
def test_certificate_decides_as_eigvalsh(monkeypatch):
    """``_ill_conditioned`` gives the flags of the eigenvalue-only test, one
    matrix at a time and as one stack, for d = 4..7: condition numbers of
    1e8, matrices either side of the certificate's threshold and of
    COND_LIMIT, singular matrices, a tiny negative eigenvalue, scalings
    by 1e+-150 whose determinant overflows or underflows, and NaN or inf
    entries. Rows the certificate cannot decide go to eigvalsh, and only
    those."""
    rng = np.random.default_rng(18)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: calls.append(len(A)) or eigvalsh(A))
    for d in (4, 5, 6, 7):
        c = _certificate_edge(d)
        mats = []  # (matrix, whether the certificate decides it)
        for rel in (1e-6, -1e-6):
            mats.append((np.diag(np.r_[c * (1.0 + rel), np.ones(d - 1)]), rel > 0.0))
        for rel in (1e-2, -1e-2):
            mats.append((_rotated(rng, np.r_[c * (1.0 + rel), np.ones(d - 1)]), rel > 0.0))
        mats.append((_rotated(rng, np.r_[1e3, rng.uniform(1.0, 1e3, d - 2), 1e-5]), None))  # cond 1e8
        mats.append((_rotated(rng, rng.uniform(1.0, 2.0, d)), True))
        for rel in (1e-6, -1e-6):
            mats.append((np.diag(np.r_[1e3, rng.uniform(1.0, 1e3, d - 2),
                                       1e3 / (_kernels.COND_LIMIT * (1.0 + rel))]), False))
        H = rng.normal(size=(d + 3, d))
        H[:, -1] = H[:, -2]  # two equal columns: exactly singular
        mats.append((H.T @ H, False))
        mats.append((np.zeros((d, d)), False))
        for tiny in (-1e-14, -1e-15):
            mats.append((_rotated(rng, np.r_[1e3, rng.uniform(1.0, 1e3, d - 2), tiny * 1e3]), False))
        for scale in (1e150, 1e-150):  # det overflows, resp. underflows
            mats.append((scale * _rotated(rng, rng.uniform(1.0, 2.0, d)), False))
            mats.append((scale * (H.T @ H), False))
        with np.errstate(over="ignore"):
            for A, certified in mats:
                calls.clear()
                flag = _kernels._ill_conditioned(A[None])
                if certified is not None:
                    assert calls == ([] if certified else [1]), (d, certified)
                assert flag.tolist() == _eigvalsh_singular(A[None]).tolist()
            stack = np.stack([A for A, _ in mats])
            assert _kernels._ill_conditioned(stack).tolist() == _eigvalsh_singular(stack).tolist()

        base = _rotated(rng, rng.uniform(1.0, 2.0, d))
        for bad in (np.nan, np.inf, -np.inf):
            for at in ((0, 0), (0, d - 1)):
                A = base.copy()
                A[at] = A[at[::-1]] = bad
                for stack in (A[None], np.stack([base, A, base])):
                    with np.errstate(invalid="ignore", over="ignore"):
                        got = _outcome(_kernels._ill_conditioned, stack)
                    assert got == _outcome(_eigvalsh_singular, stack), (d, bad, at)


def _loo_batches():
    """(iteration cap, ``lm_solve_batch`` arguments) of the equal-weight fix
    and the leave-one-out rows of each epoch of the residual corpus."""
    from test_residuals import _corpus

    for _k, epoch, max_iter in _corpus():
        sat, pr, idx = epoch.sat_array(), epoch.pr_array(), epoch.const_index()
        n, d = pr.size, 3 + len(epoch.constellations())
        W = np.vstack([np.ones(n), 1.0 - np.eye(n)])
        X0 = np.zeros((n + 1, d))
        X0[:, :3] = solver._DEFAULT_START.as_array()
        yield max_iter, (np.broadcast_to(sat, (n + 1, n, 3)), np.broadcast_to(pr, (n + 1, n)), W,
                         np.broadcast_to(idx, (n + 1, n)), d - 3, X0)


@pytest.mark.bitwise
def test_most_condition_tests_skip_eigvalsh(monkeypatch):
    """On the leave-one-out batches of the residual corpus, the certificate
    decides nearly every normal matrix the kernel tests, so eigvalsh runs
    on few of them, and each decision is the eigenvalue-only test's."""
    seen, fallback = [], []
    ill_conditioned, eigvalsh = _kernels._ill_conditioned, np.linalg.eigvalsh
    with monkeypatch.context() as m:
        m.setattr(_kernels, "_ill_conditioned", lambda A: seen.append(A.copy()) or ill_conditioned(A))
        m.setattr(np.linalg, "eigvalsh", lambda A: fallback.append(len(A)) or eigvalsh(A))
        for cap, args in _loo_batches():
            m.setattr(_kernels, "MAX_ITERATIONS", cap)
            _kernels.lm_solve_batch(*args)
    for A in seen:
        assert ill_conditioned(A).tolist() == _eigvalsh_singular(A).tolist()
    tested = sum(len(A) for A in seen)
    assert 0 < sum(fallback) < 0.1 * tested, (sum(fallback), tested)


@pytest.mark.bitwise
def test_forced_fallback_changes_no_output(monkeypatch):
    """With a determinant of zero every row goes to eigvalsh; the kernel's
    outputs on the residual corpus keep their bytes."""
    batches = list(_loo_batches())
    default = []
    for cap, args in batches:
        monkeypatch.setattr(_kernels, "MAX_ITERATIONS", cap)
        default.append(_kernels.lm_solve_batch(*args))
    calls = []
    monkeypatch.setattr(np.linalg, "det", lambda A: calls.append(len(A)) or np.zeros(A.shape[:-2]))
    for (cap, args), want in zip(batches, default):
        monkeypatch.setattr(_kernels, "MAX_ITERATIONS", cap)
        got = _kernels.lm_solve_batch(*args)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert calls


@pytest.mark.bitwise
def test_pair_tables_are_cached_and_read_only():
    """``_pairs(d)`` builds its tables once per d, and no caller can write them."""
    for d in (4, 5, 6, 7):
        tables = _kernels._pairs(d)
        again = _kernels._pairs(d)
        assert all(a is b for a, b in zip(tables, again))
        for a in tables:
            with pytest.raises(ValueError):
                a[0] = 0


def _problem_arrays(rng, n):
    """One ``solve_batch`` problem: the equal-weight row and two others."""
    epoch, _ = make_epoch(rng, n=n, noise_sigma=2.0)
    return solver.epoch_problem(epoch, np.vstack([np.ones(n), rng.uniform(0.5, 2.0, (2, n))]))


@pytest.mark.parametrize("field, at, bad, name", [
    (0, (3, 1), np.nan, "satellite positions"),
    (0, (0, 2), -np.inf, "satellite positions"),
    (1, (4,), np.inf, "pseudoranges"),
    (1, (0,), np.nan, "pseudoranges"),
    (4, (1, 0), np.inf, "starts"),
    (4, (2, 4), np.nan, "starts"),
    (3, (0, 5), np.nan, "weights"),
    (3, (2, 8), -1.0, "weights"),
], ids=["sat-nan", "sat-minus-inf", "pr-inf", "pr-nan", "start-inf", "start-nan", "weight-nan", "weight-negative"])
def test_non_finite_measurements_and_starts_raise_value_error(field, at, bad, name):
    """A NaN or infinity in one problem's satellite positions, pseudoranges
    or starts, or a NaN or negative weight, fails the call with a
    ValueError naming the input, before any row is solved, whichever of the
    two problems holds it; ``solve_wls`` rejects the same inputs, and a
    weight vector of the wrong length."""
    rng = np.random.default_rng(61)
    for which in (0, 1):
        problems = [list(_problem_arrays(rng, 9)), list(_problem_arrays(rng, 11))]
        good = solver.solve_batch([tuple(p) for p in problems])
        problems[which][field] = problems[which][field].copy()
        problems[which][field][at] = bad
        with pytest.raises(ValueError, match=name):
            solver.solve_batch([tuple(p) for p in problems])
        # the finite problem alone keeps its bits
        other = 1 - which
        alone = solver.solve_batch([tuple(problems[other])])[0]
        assert [a.tobytes() for a in alone] == [a.tobytes() for a in good[other]]

    epoch, truth = make_epoch(rng, n=9)
    ms = epoch.measurements
    if field == 3:
        w = np.ones(9)
        w[at[1]] = bad
        for weights, match in ((w, name), (np.ones(8), "length")):
            with pytest.raises(ValueError, match=match):
                solve_wls(epoch, weights)
        return
    if field == 4:
        init = NavState(EcefPosition(bad, 0.0, 0.0), truth.clock_bias)
        with pytest.raises(ValueError, match=name):
            solve_wls(epoch, np.ones(9), init=init)
        return
    m = ms[at[0]]
    if field == 0:
        m = type(m)(m.constellation, m.sv_id, m.band, m.pseudorange, EcefPosition(bad, 0.0, 0.0),
                    m.cn0, m.lock_time)
    else:
        m = type(m)(m.constellation, m.sv_id, m.band, bad, m.sat_pos, m.cn0, m.lock_time)
    epoch = Epoch(time=epoch.time, measurements=[*ms[:at[0]], m, *ms[at[0] + 1:]])
    with pytest.raises(ValueError, match=name):
        solve_wls(epoch, np.ones(9))


@pytest.mark.bitwise
def test_normal_equations_reuse_buffers_without_leaks():
    """Two ``_normal_equations`` calls on one pair of buffers, the second
    with fewer rows and other states, as the kernel's rounds make them:
    each has the bytes of a call that allocates its own, the first call's
    results do not change when the second overwrites the buffers, and no
    result shares memory with them. The buffers start as NaN, so a stale
    or unwritten element would show."""
    rng = np.random.default_rng(19)
    for b, n, n_const in ((64, 12, 3), (19, 18, 4), (1, 7, 1)):
        d = 3 + n_const
        pairs = _kernels._pairs(d)
        x, sat, pr, w, idx = _random_stack(rng, b, n, n_const)
        meas = _kernels._layout(sat, pr, w, idx, d)
        size = n * pairs[0].size * b
        buf = (np.full(size, np.nan), np.full(size, np.nan))
        first = _kernels._normal_equations(x, meas, pairs, buf)
        kept = [a.copy() for a in first]
        keep = np.arange(0, b, 3)
        x2 = x[keep] + rng.normal(0.0, 5.0, (keep.size, d))
        meas2 = _kernels._take(meas, keep)
        second = _kernels._normal_equations(x2, meas2, pairs, buf)
        for got, want in ((first, kept), (first, _allocating_normal_equations(x, meas, pairs)),
                          (second, _allocating_normal_equations(x2, meas2, pairs))):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (b, n, n_const)
        for a in (*first, *second):
            assert not any(np.shares_memory(a, m) for m in buf)


@pytest.mark.bitwise
def test_solve_batch_output_does_not_depend_on_rows_per_call(monkeypatch):
    """``solve_batch`` on the equal-weight and leave-one-out rows of every
    epoch of the residual corpus gives the same bytes with kernel calls of
    at most 7, 256, 512 and 1024 rows: a call's pair-product buffers carry
    nothing from one round or call to the next."""
    from test_residuals import _corpus

    problems = [solver.epoch_problem(epoch, np.vstack([np.ones(epoch.n), 1.0 - np.eye(epoch.n)]))
                for _k, epoch, _max_iter in _corpus()]
    per_dim = {}
    for p in problems:
        per_dim[p[4].shape[1]] = per_dim.get(p[4].shape[1], 0) + len(p[4])
    assert max(per_dim.values()) > 1024, per_dim  # every cap splits some group
    outputs = []
    for cap in (7, 256, 512, 1024):
        monkeypatch.setattr(solver, "MAX_ROWS_PER_CALL", cap)
        outputs.append([a.tobytes() for res in solver.solve_batch(problems) for a in res])
    assert all(out == outputs[0] for out in outputs[1:])
