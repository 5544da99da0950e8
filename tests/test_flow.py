import io
import json
import math
import os
import random
import tracemalloc
from array import array
from fractions import Fraction

import pytest

from twistorflow.canonical import MetricParams, ricci_canonical
from twistorflow.flow import (BLOCK_ROWS, CANONICAL, Z, EntropyRecord, Extinct, FlowState,
                              OnEinsteinRay, StepTooLarge, Trajectory, classify,
                              closed_form_z, entropy_records, integrate, invariant, rhs,
                              scalar_curvature, write_entropy, write_trajectory)
from twistorflow.zmetric import ricci_z


def _written(write, *args) -> str:
    """What write(*args, out) writes to a text stream."""
    out = io.StringIO()
    write(*args, out)
    return out.getvalue()


def test_state_validation():
    with pytest.raises(ValueError):
        FlowState(0.0, 1.0, 0.5, "bogus", 2)
    with pytest.raises(ValueError):
        FlowState(0.0, -1.0, 0.5, Z, 2)
    with pytest.raises(ValueError):
        FlowState(0.0, 1.0, 5.0, CANONICAL, 2)  # mu >= n + 2


def test_rhs_values():
    assert rhs(FlowState(0.0, 1.0, 1.0, CANONICAL, 2)) == (-24, -24)
    assert rhs(FlowState(0.0, 1.0, 2.0, CANONICAL, 2)) == (-72, -16)
    assert rhs(FlowState(0.0, 3.0, 0.7, Z, 5)) == (-8, -56)


def test_rhs_matches_ricci_modules():
    rng = random.Random(5)
    for n in (2, 3):
        rdc = ricci_canonical(MetricParams(n))
        rdz = ricci_z(MetricParams(n))
        for _ in range(6):
            mu = Fraction(rng.randint(1, 30), rng.randint(15, 40))
            v, r = rhs(FlowState(0.0, Fraction(1), mu, Z, n))
            assert v == -2 * mu * rdz.fiber_at(mu)
            assert r == -2 * rdz.base_at(mu)
            if mu < n + 2:
                v, r = rhs(FlowState(0.0, Fraction(1), mu, CANONICAL, n))
                assert v == -2 * mu * rdc.fiber_at(mu)
                assert r == -2 * rdc.base_at(mu)


def test_induced_mu_dynamics_fixed_points():
    # the zero set of d mu / dt is exactly the Einstein root set
    from twistorflow.canonical import einstein_solve_canonical
    from twistorflow.zmetric import einstein_solve_z
    n = 2
    for num in range(1, 16):
        mu = Fraction(num, 8)
        if mu >= n + 2:
            continue
        v, r = rhs(FlowState(0.0, Fraction(1), mu, CANONICAL, n))
        dmu = v - mu * r  # rho * dmu/dt at rho = 1
        assert (dmu == 0) == (mu in einstein_solve_canonical(n))
        v, r = rhs(FlowState(0.0, Fraction(1), mu, Z, n))
        dmu = v - mu * r
        assert (dmu == 0) == (mu == einstein_solve_z(n))


def test_closed_form_exact():
    st = closed_form_z(Fraction(1), Fraction(1, 2), 2, Fraction(1, 64))
    assert st.rho == Fraction(1, 2)
    assert st.rho_mu == Fraction(3, 8)
    assert st.mu == Fraction(3, 4)
    st0 = closed_form_z(Fraction(1), Fraction(1, 2), 2, 0)
    assert st0.rho == 1 and st0.mu == Fraction(1, 2)
    with pytest.raises(Extinct):
        closed_form_z(Fraction(1), Fraction(1, 2), 2, Fraction(1, 8))


def test_backward_limit_is_einstein():
    # |mu(t) - 1/(n+2)| decreases monotonically to 0 as t -> -infinity
    n = 2
    gaps = []
    for k in range(1, 40):
        st = closed_form_z(1.0, 0.5, n, -(2.0 ** k) / 64)
        gaps.append(abs(st.mu - 1.0 / (n + 2)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-9


def test_invariants():
    st = FlowState(0.0, Fraction(1), Fraction(1, 2), Z, 2)
    assert invariant(st) == Fraction(1, 4)
    st2 = closed_form_z(Fraction(1), Fraction(1, 2), 2, Fraction(1, 64))
    assert invariant(st2) == Fraction(1, 4)
    ray = FlowState(0.0, Fraction(3), Fraction(1, 4), Z, 2)
    assert invariant(ray) == 0
    with pytest.raises(OnEinsteinRay):
        invariant(FlowState(0.0, Fraction(1), Fraction(1), CANONICAL, 2))
    with pytest.raises(OnEinsteinRay):
        invariant(FlowState(0.0, Fraction(1), Fraction(1, 3), CANONICAL, 2))


def test_canonical_invariant_is_first_integral():
    # finite-difference check against the flow: d/dt of the invariant is 0
    init = FlowState(0.0, 1.0, 1.7, CANONICAL, 2)
    traj = integrate(init, 1e-5, 0.003)
    vals = traj.invariant_series
    assert max(abs(v - vals[0]) for v in vals) < 1e-10


def test_rk4_oracle_random_cases():
    rng = random.Random(12345)
    worst = 0.0
    for _ in range(20):
        n = rng.randint(2, 5)
        rho0 = 0.5 + 1.5 * rng.random()
        mu0 = 0.05 + 1.45 * rng.random()
        init = FlowState(0.0, rho0, mu0, Z, n)
        T = classify(init)["time"]
        traj = integrate(init, 1e-4, 0.9 * T)
        assert traj.samples[-1].t >= 0.9 * T - 1e-4
        for s in traj.samples[:: max(1, len(traj.samples) // 50)]:
            cf = closed_form_z(rho0, mu0, n, s.t)
            worst = max(worst, abs(s.rho - cf.rho) / cf.rho,
                        abs(s.mu - cf.mu) / cf.mu)
        assert traj.max_invariant_drift() <= 1e-9
    assert worst <= 1e-8


def test_trajectory_columns_and_samples_view():
    for init in (FlowState(0.0, 1.5, 0.7, Z, 3), FlowState(0.0, 1.0, 1.7, CANONICAL, 2)):
        traj = integrate(init, 1e-4, 0.002)
        assert len(traj.samples) == len(traj.t) == len(traj.rho) == len(traj.mu) == 21
        for k, st in enumerate(traj.samples):
            assert st == FlowState(traj.t[k], traj.rho[k], traj.mu[k], init.family, init.n)
            assert traj.invariant_series[k] == invariant(st)
        assert traj.samples[0] == init
        assert traj.samples[-1] == traj.samples[20]
        assert list(traj.samples[::7]) == [traj.samples[k] for k in (0, 7, 14)]


def test_exact_start_writes_the_bytes_of_its_float_start():
    # integrate converts an exact start to floats: the exports are those of the float start
    for family, mu in ((Z, Fraction(1, 3)), (CANONICAL, Fraction(7, 5))):
        exact = integrate(FlowState(0, Fraction(3, 2), mu, family, 2), 1e-3, 0.002)
        rounded = integrate(FlowState(0.0, 1.5, float(mu), family, 2), 1e-3, 0.002)
        for fmt in ("csv", "json"):
            assert (_written(write_trajectory, exact, fmt)
                    == _written(write_trajectory, rounded, fmt))
        assert exact.events == rounded.events


def test_column_type_follows_the_initial_values():
    # a float start and an exact start both give packed float columns
    def column_types(traj):
        return {type(col) for col in (traj.t, traj.rho, traj.mu, traj.invariant_series)}

    assert column_types(integrate(FlowState(0.0, 1.0, 0.5, Z, 2), 1e-3, 0.002)) == {array}
    exact = FlowState(0.0, Fraction(1), Fraction(1, 2), Z, 2)
    assert column_types(integrate(exact, 1e-3, 0.002)) == {array}


def test_trajectory_stores_each_sample_in_32_bytes():
    init = FlowState(0.0, 1.0, 0.5, Z, 2)
    tracemalloc.start()
    try:
        traj = integrate(init, 1e-7, -0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = len(traj.t)
    assert samples == 200_001
    # four 8-byte floats per sample; four lists of float objects take about 130 bytes
    assert peak < 48 * samples


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
def test_non_finite_t_end_is_rejected(t_end):
    with pytest.raises(ValueError, match="^t_end must be finite$"):
        integrate(FlowState(0.0, 1.0, 0.5, Z, 2), 1e-3, t_end)


def test_canonical_mu_reaching_n_plus_2_is_rejected():
    # backward from mu0 > 1, mu grows toward n + 2
    with pytest.raises(ValueError, match="canonical family needs mu < n [+] 2") as info:
        integrate(FlowState(0.0, 1.0, 3.5, CANONICAL, 2), 1e-4, -1.0)
    assert type(info.value) is ValueError


def test_canonical_forward_past_singular_time_fails_at_the_same_step():
    # the failing canonical operation of the flow-export benchmark
    with pytest.raises(StepTooLarge, match="^step 30023 would cross"):
        integrate(FlowState(0.0, 1.0, 0.5, CANONICAL, 2), 1.22e-06, 0.05)


def test_step_too_large():
    init = FlowState(0.0, 1.0, 0.5, Z, 2)
    with pytest.raises(StepTooLarge):
        integrate(init, 0.05, 0.2)


def test_z_columns_are_sized_to_the_singular_time():
    # 1e6 requested steps, but rho mu reaches zero at step 1562.5: the
    # columns hold only the samples taken, where those of every requested
    # step would take 32 MB
    tracemalloc.start()
    try:
        with pytest.raises(StepTooLarge, match="^step 1562 would cross"):
            integrate(FlowState(0.0, 1.0, 0.125, Z, 2), 1e-5, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


@pytest.mark.parametrize("initial, t_end, error, message", [
    (FlowState(0.0, 1.0, 0.5, CANONICAL, 2), 1.0, StepTooLarge, "^step 36628 would cross"),
    # backward from mu0 > 1, mu grows toward n + 2
    (FlowState(0.0, 1.0, 3.5, CANONICAL, 2), -1.0, ValueError,
     "canonical family needs mu < n [+] 2"),
], ids=["forward", "backward"])
def test_canonical_columns_hold_only_the_steps_taken(initial, t_end, error, message):
    # 1e6 requested steps, but the flow fails within 40k: the columns of every
    # requested step would take 32 MB
    tracemalloc.start()
    try:
        with pytest.raises(error, match=message) as info:
            integrate(initial, 1e-6, t_end)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(info.value) is error
    assert peak < 2_000_000


def _z_stop(init: FlowState, dt: float):
    """(k, crossed): the first forward step k whose Z step, as integrate sums
    it, reaches the floor of rho mu or of rho, and whether it crosses zero."""
    v0, rho0, n = init.rho * init.mu, init.rho, init.n
    h6 = dt / 6.0
    kv, kr = -8.0, -8.0 * (n + 2)
    inc_v, inc_r = h6 * (kv + 2 * kv + 2 * kv + kv), h6 * (kr + 2 * kr + 2 * kr + kr)
    v, rho, k = v0, rho0, 0
    while True:
        k += 1
        nv, nrho = v + inc_v, rho + inc_r
        if nv <= 1e-12 * v0 or nrho <= 1e-12 * rho0:
            return k, nv <= 0 or nrho <= 0
        v, rho = nv, nrho


def test_z_runs_past_the_singular_time_stop_where_uncapped_sums_stop():
    # the stop step must be the first whose rounded sums reach the floor or
    # cross zero, also where T/dt is near a whole number
    rng = random.Random(11)
    for case in range(150):
        n = rng.randint(2, 6)
        init = FlowState(0.0, rng.uniform(0.1, 5.0), rng.uniform(0.01, 3.0), Z, n)
        T = classify(init)["time"]
        K = rng.randint(1, 3000)
        dt = T / K if case % 3 else rng.uniform(T / 3000, T)
        if case % 3 == 1:
            dt = math.nextafter(dt, rng.choice((0.0, 1.0)))
        k, crossed = _z_stop(init, dt)
        if crossed:
            with pytest.raises(StepTooLarge, match=f"^step {k - 1} would cross"):
                integrate(init, dt, 4 * T)
        else:
            traj = integrate(init, dt, 4 * T)
            assert (len(traj.t), traj.events["stopped_at_floor"]) == (k, True)


def test_floor_stops_integration():
    init = FlowState(0.0, 1.0, 0.5, Z, 2)
    T = classify(init)["time"]
    traj = integrate(init, 1e-5, 2 * T)
    assert traj.samples[-1].t < T


def test_classification():
    c = classify(FlowState(0.0, Fraction(1), Fraction(1, 2), Z, 2))
    assert c["mode"] == "extinction" and c["time"] == Fraction(1, 32)
    assert c["mu_limit"] == math.inf
    c = classify(FlowState(0.0, Fraction(1), Fraction(1, 8), Z, 2))
    assert c["mode"] == "collapse" and c["time"] == Fraction(1, 64)
    assert c["rho_limit"] == Fraction(1, 2)
    c = classify(FlowState(0.0, Fraction(1), Fraction(1, 4), Z, 2))
    assert c["mode"] == "einstein-ray" and c["time"] == Fraction(1, 32)
    with pytest.raises(ValueError):
        classify(FlowState(0.0, 1.0, 0.5, CANONICAL, 2))


def test_collapse_rho_limit_numeric():
    # integrate toward the collapse time and compare with rho0(1-(n+2)mu0)
    init = FlowState(0.0, 1.0, 0.125, Z, 2)
    c = classify(init)
    traj = integrate(init, 1e-6, 0.999999 * c["time"])
    assert abs(traj.samples[-1].rho - c["rho_limit"]) / c["rho_limit"] <= 1e-4
    cf = closed_form_z(1.0, 0.125, 2, 0.99999999 * c["time"])
    assert abs(cf.rho - c["rho_limit"]) / c["rho_limit"] <= 1e-6


def test_canonical_stability_contrast():
    n = 2
    for mu0, toward in ((1.01, True), (0.99, True),
                        (1 / (n + 1) + 0.01, False), (1 / (n + 1) - 0.01, False)):
        init = FlowState(0.0, 1.0, mu0, CANONICAL, n)
        traj = integrate(init, 1e-5, 0.002)
        mus = [s.mu for s in traj.samples]
        gap0 = abs(mus[0] - (1.0 if toward else 1.0 / (n + 1)))
        gap1 = abs(mus[-1] - (1.0 if toward else 1.0 / (n + 1)))
        steps = list(zip(mus, mus[1:]))
        monotone = all(a >= b for a, b in steps) or all(a <= b for a, b in steps)
        assert monotone
        if toward:
            assert gap1 < gap0
        else:
            assert gap1 > gap0


def test_entropy_series():
    init = FlowState(0.0, 1.0, 0.5, Z, 2)
    recs = list(entropy_records(init, 200))
    assert len(recs) == 200
    ws = [r.w for r in recs]
    ts = [r.t for r in recs]
    assert all(a < b for a, b in zip(ts, ts[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(ws, ws[1:]))
    for r in recs:
        assert r.tau > 0 and abs(r.u * r.vol_ratio - 1) < 1e-12
    # scalar curvature at the Einstein point: dim x Einstein constant
    assert scalar_curvature(Fraction(1), Fraction(1, 4), 2) == 160
    assert 160 == (4 * 2 + 2) * (4 * 2 + 8)
    # tau at mu = 3/8 along this trajectory is 1/32 (the closed form's -t)
    st = closed_form_z(Fraction(1), Fraction(1, 2), 2, Fraction(-1, 32))
    assert st.mu == Fraction(3, 8)
    # entropy_records checks its arguments when called, before any record is read
    for bad in (FlowState(0.0, 1.0, 0.125, Z, 2), FlowState(0.0, 1.0, 0.5, CANONICAL, 2)):
        with pytest.raises(ValueError):
            entropy_records(bad, 10)
    with pytest.raises(ValueError, match="out of float range"):
        entropy_records(FlowState(0.0, 1e100, 0.5, Z, 2), 10)


def test_serialization_schemas():
    init = FlowState(0.0, 1.0, 0.5, Z, 2)
    traj = integrate(init, 1e-3, 0.02)
    csv = _written(write_trajectory, traj, "csv")
    header = csv.splitlines()[0]
    assert header == "t,rho,mu,rho_mu,invariant"
    assert len(csv.splitlines()) == len(traj.samples) + 1
    rows = json.loads(_written(write_trajectory, traj, "json"))
    assert list(rows[0]) == ["t", "rho", "mu", "rho_mu", "invariant"]
    # an entropy record is its export row: its fields are the columns, in order
    fields = ["t", "rho", "mu", "rho_mu", "invariant", "tau", "scal", "vol_ratio", "u", "f", "w"]
    assert list(EntropyRecord._fields) == fields
    recs = list(entropy_records(init, 5))
    ecsv = _written(write_entropy, recs, "csv")
    ejson = _written(write_entropy, recs, "json")
    assert ecsv.splitlines()[0] == ",".join(fields)
    assert all(list(row) == fields for row in json.loads(ejson))
    for r in recs:
        st = closed_form_z(init.rho, init.mu, init.n, r.t)
        assert (r.rho, r.mu) == (st.rho, st.mu)
        assert r.invariant == invariant(st) and r.rho_mu == r.rho * r.mu
    assert ecsv == _oracle_csv(fields, recs)
    assert ejson == _oracle_json(fields, recs)
    # determinism: identical inputs give byte-identical output
    assert csv == _written(write_trajectory, integrate(init, 1e-3, 0.02), "csv")


def test_trajectory_events_and_drift_tolerance():
    init = FlowState(0.0, 1.0, 0.5, Z, 2)
    T = classify(init)["time"]
    traj = integrate(init, 1e-4, 0.9 * T)
    assert traj.events["mode"] == "extinction"
    assert traj.events["time"] == T
    assert not traj.events["stopped_at_floor"]
    # invariant drift within 1e-9 per unit time
    assert traj.max_invariant_drift() <= 1e-9 * (traj.samples[-1].t - traj.samples[0].t)
    full = integrate(init, 1e-5, 2 * T)
    assert full.events["stopped_at_floor"]


def test_backward_integration_ancient_canonical():
    # from mu0 = 1/(n+1) + 0.01 the backward flow approaches the Einstein
    # value 1/(n+1): the solution is ancient
    n = 2
    target = 1 / (n + 1)
    init = FlowState(0.0, 1.0, target + 0.01, CANONICAL, n)
    traj = integrate(init, 1e-4, -2.0)
    mus = [s.mu for s in traj.samples]
    ts = [s.t for s in traj.samples]
    assert ts[-1] < -1.9
    gaps = [abs(m - target) for m in mus]
    assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))
    assert gaps[-1] < 2e-3
    # Z family backward: mu approaches 1/(n+2)
    initz = FlowState(0.0, 1.0, 0.5, Z, n)
    trajz = integrate(initz, 1e-3, -40.0)
    assert abs(trajz.samples[-1].mu - 1 / (n + 2)) < 1e-3
    assert trajz.max_invariant_drift() < 1e-9


# the join-based exports that the streamed writers replaced, kept as oracles
def _oracle_csv(fields, rows) -> str:
    template = ",".join(["%.17g"] * len(fields)) + "\n"
    return "".join([",".join(fields) + "\n"] + [template % row for row in rows])


def _oracle_json(fields, rows) -> str:
    return json.dumps([dict(zip(fields, map(float, row))) for row in rows],
                      indent=None, separators=(",", ":"))


def _on_cpus(monkeypatch, cpus: int) -> list:
    """Let this process run on `cpus` CPUs; returns a list that grows by one
    item per fork."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    return forks


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


_CPUS = pytest.mark.parametrize("cpus", [1, 2, 3])
_COUNTS = pytest.mark.parametrize("count", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                            2 * BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])


@_CPUS
@_COUNTS
def test_streamed_writers_match_the_joined_exports(count, cpus, monkeypatch):
    _check_streamed_writers(count, cpus, False, monkeypatch)


@_CPUS
@_COUNTS
def test_streamed_writers_match_the_joined_exports_on_packed_columns(count, cpus, monkeypatch):
    _check_streamed_writers(count, cpus, True, monkeypatch)


def _check_streamed_writers(count: int, cpus: int, packed: bool, monkeypatch) -> None:
    """The writers against the oracles on `count` random rows, on `cpus` CPUs,
    with the trajectory's columns in array("d")s if packed and lists if not."""
    forks = _on_cpus(monkeypatch, cpus)
    exports = 0
    rng = random.Random(count)
    cols = [[rng.choice([1.0, -1.0]) * rng.random() * 10.0 ** rng.randint(-300, 300)
             for _ in range(count)] for _ in range(4)]
    if count:
        # zeros and a float subnormal
        for col, x in zip(cols, (0.0, 1 / 3, 2.5, -0.0)):
            col[0] = x
        cols[3][-1] = 5e-324
    t, rho, mu, inv = cols

    def trajectory():
        # the columns as they stand; the list columns are the oracle's own
        return Trajectory(*(array("d", col) if packed else col for col in cols), Z, 2)

    traj = trajectory()
    rows = list(zip(t, rho, mu, [r * m for r, m in zip(rho, mu)], inv))
    fields = ["t", "rho", "mu", "rho_mu", "invariant"]
    for fmt, oracle in (("csv", _oracle_csv), ("json", _oracle_json)):
        out = io.StringIO()
        write_trajectory(traj, fmt, out)
        exports += 1
        assert out.getvalue() == oracle(fields, rows)
    if count > 2:
        # json prints inf and nan as Infinity and NaN, through its fallback;
        # with more than one chunk, one such row ends the first and one starts the second
        mu[1], inv[count // 2], rho[-1] = math.inf, math.nan, -math.inf
        if count > BLOCK_ROWS:
            mu[BLOCK_ROWS - 1], t[BLOCK_ROWS] = math.nan, math.inf
        rows = list(zip(t, rho, mu, [r * m for r, m in zip(rho, mu)], inv))
        text = _written(write_trajectory, trajectory(), "json")
        exports += 1
        assert text == _oracle_json(fields, rows)
        assert "Infinity" in text and "NaN" in text
    if count > 1 and not packed:  # an entropy export reads no trajectory columns
        recs = entropy_records(FlowState(0.0, 1.0, 0.5, Z, 2), count)
        ws = [r.w for r in recs]
        for fmt, oracle in (("csv", _oracle_csv), ("json", _oracle_json)):
            out = io.StringIO()
            rising = write_entropy(recs, fmt, out)
            exports += 1
            assert out.getvalue() == oracle(list(EntropyRecord._fields), list(recs))
            assert rising == all(a <= b + 1e-12 for a, b in zip(ws, ws[1:]))
    # one process per CPU, at most one per chunk, and every child reaped
    assert len(forks) == exports * (max(1, min(cpus, -(-count // BLOCK_ROWS))) - 1)
    assert _no_child_left()


@pytest.mark.parametrize("everywhere", [False, True])
def test_a_failed_chunk_raises_and_leaves_no_child(everywhere, monkeypatch):
    from twistorflow import flow
    forks = _on_cpus(monkeypatch, 3)
    parent = os.getpid()

    def chunk(i):
        # chunk 4 is computed by the first child (4 = 1 mod 3)
        if i == 4 and (everywhere or os.getpid() != parent):
            raise ArithmeticError(f"chunk {i}")
        return f"chunk {i}"

    got = []
    # a chunk that fails in every process fails with its own error, as in one
    # process; one that fails only in the child gives ChildProcessError
    with pytest.raises(ArithmeticError if everywhere else ChildProcessError):
        for value in flow._ordered_map(chunk, 9):
            got.append(value)
    assert got == [f"chunk {i}" for i in range(4)]
    assert len(forks) == 2 and _no_child_left()


def test_an_export_that_fails_to_write_leaves_no_child(monkeypatch):
    forks = _on_cpus(monkeypatch, 2)

    class Full:
        def __init__(self):
            self.writes = []

        def write(self, text):
            if len(self.writes) == 3:
                raise OSError("no space left")
            self.writes.append(text)

    out = Full()
    recs = entropy_records(FlowState(0.0, 1.0, 0.5, Z, 2), 4 * BLOCK_ROWS)
    with pytest.raises(OSError, match="no space left"):
        write_entropy(recs, "csv", out)
    assert len(forks) == 1 and _no_child_left()
    # what was written before the failure: the header and the first chunk, once
    assert "".join(out.writes) == _oracle_csv(list(EntropyRecord._fields), recs[:BLOCK_ROWS])


def test_entropy_export_streams_in_bounded_memory():
    class Discard:
        def write(self, text):
            pass

    init = FlowState(0.0, 1.0, 0.5, Z, 2)
    tracemalloc.start()
    try:
        write_entropy(entropy_records(init, 100_000), "csv", Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the same export joined from a list of the records peaks near 100 MB
    assert peak < 2_000_000
    recs = list(entropy_records(init, 300))
    fields = list(EntropyRecord._fields)
    assert _written(write_entropy, recs, "json") == _oracle_json(fields, recs)
