import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from twistorflow.canonical import MetricParams, ricci_canonical
from twistorflow.flow import (BLOCK_ROWS, CANONICAL, Z, Extinct, FlowState, OnEinsteinRay,
                              StepTooLarge, Trajectory, classify, closed_form_z,
                              entropy_records, entropy_series, entropy_to_csv,
                              entropy_to_json, integrate, invariant, rhs, scalar_curvature,
                              trajectory_to_csv, trajectory_to_json, write_entropy,
                              write_trajectory)
from twistorflow.zmetric import ricci_z


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
        assert traj.samples[::7] == [traj.samples[k] for k in (0, 7, 14)]


def test_exact_initial_row_keeps_its_fractions():
    traj = integrate(FlowState(0.0, Fraction(1), Fraction(1, 2), Z, 2), 1e-3, 0.002)
    lines = trajectory_to_csv(traj).splitlines()
    assert lines[1] == "0,1,1/2,1/2,1/4"
    assert lines[2] == ",".join(format(x, ".17g") for x in (
        traj.t[1], traj.rho[1], traj.mu[1], traj.rho[1] * traj.mu[1],
        traj.invariant_series[1]))
    assert json.loads(trajectory_to_json(traj))[0] == {
        "t": 0.0, "rho": 1.0, "mu": 0.5, "rho_mu": 0.5, "invariant": 0.25}


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
    recs = entropy_series(init, 200)
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
    with pytest.raises(ValueError):
        entropy_series(FlowState(0.0, 1.0, 0.125, Z, 2), 10)
    with pytest.raises(ValueError):
        entropy_series(FlowState(0.0, 1.0, 0.5, CANONICAL, 2), 10)
    # entropy_records checks its arguments when called, before any record is read
    assert list(entropy_records(init, 200)) == recs
    for bad in (FlowState(0.0, 1.0, 0.125, Z, 2), FlowState(0.0, 1.0, 0.5, CANONICAL, 2)):
        with pytest.raises(ValueError):
            entropy_records(bad, 10)
    with pytest.raises(ValueError, match="out of float range"):
        entropy_records(FlowState(0.0, 1e100, 0.5, Z, 2), 10)


def test_serialization_schemas():
    init = FlowState(0.0, 1.0, 0.5, Z, 2)
    traj = integrate(init, 1e-3, 0.02)
    csv = trajectory_to_csv(traj)
    header = csv.splitlines()[0]
    assert header == "t,rho,mu,rho_mu,invariant"
    assert len(csv.splitlines()) == len(traj.samples) + 1
    rows = json.loads(trajectory_to_json(traj))
    assert list(rows[0]) == ["t", "rho", "mu", "rho_mu", "invariant"]
    recs = entropy_series(init, 5)
    ecsv = entropy_to_csv(init, recs)
    assert ecsv.splitlines()[0] == "t,rho,mu,rho_mu,invariant,tau,scal,vol_ratio,u,f,w"
    erows = json.loads(entropy_to_json(init, recs))
    assert list(erows[0]) == ["t", "rho", "mu", "rho_mu", "invariant", "tau",
                              "scal", "vol_ratio", "u", "f", "w"]
    # determinism: identical inputs give byte-identical output
    assert csv == trajectory_to_csv(integrate(init, 1e-3, 0.02))


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
def _oracle_fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return format(float(x), ".17g")


def _oracle_csv(fields, rows) -> str:
    template = ",".join(["%.17g"] * len(fields)) + "\n"
    lines = [",".join(fields) + "\n"]
    for row in rows:
        if set(map(type, row)) <= {float}:
            lines.append(template % row)
        else:
            lines.append(",".join(map(_oracle_fmt, row)) + "\n")
    return "".join(lines)


def _oracle_json(fields, rows) -> str:
    return json.dumps([dict(zip(fields, map(float, row))) for row in rows],
                      indent=None, separators=(",", ":"))


@pytest.mark.parametrize("count", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1])
def test_streamed_writers_match_the_joined_exports(count):
    rng = random.Random(count)
    cols = [[rng.choice([1.0, -1.0]) * rng.random() * 10.0 ** rng.randint(-300, 300)
             for _ in range(count)] for _ in range(4)]
    if count:
        # an exact initial row (p/q in csv), zeros, and a float subnormal
        for col, x in zip(cols, (Fraction(0), Fraction(1, 3), Fraction(5, 2), -0.0)):
            col[0] = x
        cols[3][-1] = 5e-324
    t, rho, mu, inv = cols
    traj = Trajectory(t, rho, mu, inv, Z, 2)
    rows = list(zip(t, rho, mu, [r * m for r, m in zip(rho, mu)], inv))
    fields = ["t", "rho", "mu", "rho_mu", "invariant"]
    for fmt, oracle in (("csv", _oracle_csv), ("json", _oracle_json)):
        out = io.StringIO()
        write_trajectory(traj, fmt, out)
        assert out.getvalue() == oracle(fields, rows)
    assert trajectory_to_csv(traj) == _oracle_csv(fields, rows)
    if count > 2:
        # json prints inf and nan as Infinity and NaN, through its fallback
        mu[1], inv[count // 2], rho[-1] = math.inf, math.nan, -math.inf
        rows = list(zip(t, rho, mu, [r * m for r, m in zip(rho, mu)], inv))
        assert trajectory_to_json(traj) == _oracle_json(fields, rows)
        assert "Infinity" in trajectory_to_json(traj) and "NaN" in trajectory_to_json(traj)


def test_entropy_export_streams_in_bounded_memory():
    class Discard:
        def write(self, text):
            pass

    init = FlowState(0.0, 1.0, 0.5, Z, 2)
    tracemalloc.start()
    try:
        write_entropy(init, entropy_records(init, 100_000), "csv", Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # entropy_to_csv(init, entropy_series(init, 100_000)) peaks near 100 MB
    assert peak < 2_000_000
    recs = entropy_series(init, 300)
    out = io.StringIO()
    write_entropy(init, iter(recs), "json", out)
    assert out.getvalue() == entropy_to_json(init, recs)
