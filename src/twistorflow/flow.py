"""Reduced Ricci flow on the two twistor metric families.

The flow is integrated in the variables (rho*mu, rho), where the Z family
is linear; closed forms, trajectory invariants, extinction/collapse
classification and the entropy diagnostics live here.

A `Trajectory` is stored by column (lists `t`, `rho`, `mu` and
`invariant_series`); `Trajectory.samples` is a read-only view that builds a
`FlowState` per sample on demand.  The CSV exports format each row once,
with one "%.17g,...,%.17g" template; a row holding a non-float value (the
exact initial state of a Fraction-valued library call) is formatted value
by value through `_fmt`, which prints a Fraction as p/q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "FlowState",
    "Trajectory",
    "EntropyRecord",
    "Extinct",
    "OnEinsteinRay",
    "StepTooLarge",
    "rhs",
    "closed_form_z",
    "invariant",
    "integrate",
    "classify",
    "entropy_series",
    "trajectory_to_csv",
    "trajectory_to_json",
    "entropy_to_csv",
    "entropy_to_json",
]

CANONICAL = "canonical"
Z = "z"


class Extinct(ValueError):
    """Requested time lies past the singular time of the solution."""


class OnEinsteinRay(ValueError):
    """The invariant is undefined on the Einstein ray."""


class StepTooLarge(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return format(float(x), ".17g")


@dataclass
class FlowState:
    t: float
    rho: float
    mu: float
    family: str
    n: int

    def __post_init__(self):
        if self.family not in (CANONICAL, Z):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValueError("paper setting requires n > 1")
        if self.rho <= 0 or self.mu <= 0:
            raise ValueError("rho and mu must stay positive")
        if self.family == CANONICAL and self.mu >= self.n + 2:
            raise ValueError("canonical family needs mu < n + 2")

    @property
    def rho_mu(self):
        return self.rho * self.mu


class _Samples:
    """Read-only sequence view of a Trajectory's samples as FlowStates."""

    __slots__ = ("_traj",)

    def __init__(self, traj: "Trajectory"):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        tr = self._traj
        return FlowState(tr.t[k], tr.rho[k], tr.mu[k], tr.family, tr.n)


@dataclass
class Trajectory:
    """A flow trajectory stored by column: sample k is (t[k], rho[k], mu[k])
    with first integral invariant_series[k].  Every sample after the initial
    one is a float; the initial one keeps the type it was given."""

    t: list
    rho: list
    mu: list
    invariant_series: list
    family: str
    n: int
    events: dict | None = None

    @property
    def samples(self) -> _Samples:
        """The samples as FlowStates, each built when it is read."""
        return _Samples(self)

    def max_invariant_drift(self) -> float:
        ref = self.invariant_series[0]
        return max(abs(v - ref) for v in self.invariant_series)


@dataclass
class EntropyRecord:
    t: float
    tau: float
    scal: float
    vol_ratio: float
    u: float
    f: float
    w: float


def rhs(state: FlowState) -> tuple[float, float]:
    """(d(rho mu)/dt, d rho/dt); equals -2x the Ricci block coefficients."""
    n, mu = state.n, state.mu
    if state.family == Z:
        return -8, -8 * (n + 2)
    return -8 * (1 + n * mu * mu), -8 * (n + 2 - mu)


def _z_closed(rho0, mu0, n: int, t):
    """(rho, mu) of the exact Z solution at t; raises Extinct past the
    singular time."""
    rho = rho0 - 8 * (n + 2) * t
    rho_mu = rho0 * mu0 - 8 * t
    if rho <= 0 or rho_mu <= 0:
        raise Extinct(f"t={t} is past the singular time")
    return rho, rho_mu / rho


def closed_form_z(rho0, mu0, n: int, t):
    """Exact solution rho = rho0 - 8(n+2)t, rho mu = rho0 mu0 - 8t."""
    rho, mu = _z_closed(rho0, mu0, n, t)
    return FlowState(t=t, rho=rho, mu=mu, family=Z, n=n)


def invariant(state: FlowState):
    """First integral of the reduced flow.

    Z family: rho (mu - 1/(n+2)).  Canonical family: the log form
    log rho - (n+1)/n log|mu - 1| + (n^2+3n+1)/(n(n+1)) log|(n+1) mu - 1|.
    """
    n, mu, rho = state.n, state.mu, state.rho
    if state.family == Z:
        return rho * (mu - Fraction(1, n + 2) if isinstance(mu, Fraction)
                      else mu - 1.0 / (n + 2))
    if mu == 1 or mu * (n + 1) == 1:
        raise OnEinsteinRay("canonical invariant undefined at mu = 1 or 1/(n+1)")
    return (math.log(rho) - (n + 1) / n * math.log(abs(mu - 1))
            + (n * n + 3 * n + 1) / (n * (n + 1)) * math.log(abs((n + 1) * mu - 1)))


# integration stops once rho mu or rho falls to this fraction of its initial value
FLOOR_RATIO = 1e-12
# largest step count one integrate call, and largest sample count one
# entropy_series call, accepts (every sample is kept); the flows in the tests
# and the benchmark take at most about 31k steps
MAX_STEPS = 10 ** 6


def integrate(initial: FlowState, dt: float, t_end: float) -> Trajectory:
    """Classical fixed-step RK4 in (rho mu, rho), stopping at t_end or at
    FLOOR_RATIO of the initial values.

    t_end before the initial time integrates backward (the ancient
    direction).  A request for more than MAX_STEPS steps is rejected.  Each
    step appends floats to the trajectory's columns and evaluates the
    invariant inline, with the checks and formulas of FlowState and
    `invariant`.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    n, family = initial.n, initial.family
    step = dt if t_end >= initial.t else -dt
    span = (t_end - initial.t) / step
    if not span <= MAX_STEPS:
        raise ValueError(f"(t_end - t0)/dt = {span:.3g} exceeds the {MAX_STEPS} step budget")

    def deriv(v, rho):
        if family == Z:
            return -8.0, -8.0 * (n + 2)
        mu = v / rho
        return -8.0 * (1.0 + n * mu * mu), -8.0 * (n + 2 - mu)

    v = initial.rho * initial.mu
    rho = initial.rho
    floor_v = FLOOR_RATIO * v
    floor_rho = FLOOR_RATIO * rho
    t0 = initial.t
    ts, rhos, mus = [t0], [rho], [initial.mu]
    inv = [invariant(initial)]
    on_z = family == Z
    # the constants of `invariant`, computed as it computes them
    z_shift = 1.0 / (n + 2)
    c_fib = (n + 1) / n
    c_base = (n * n + 3 * n + 1) / (n * (n + 1))
    log = math.log
    steps = max(0, int(round(span)))
    for k in range(steps):
        k1v, k1r = deriv(v, rho)
        k2v, k2r = deriv(v + 0.5 * step * k1v, rho + 0.5 * step * k1r)
        k3v, k3r = deriv(v + 0.5 * step * k2v, rho + 0.5 * step * k2r)
        k4v, k4r = deriv(v + step * k3v, rho + step * k3r)
        nv = v + step / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        nrho = rho + step / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
        if nv <= floor_v or nrho <= floor_rho:
            if nv <= 0 or nrho <= 0:
                raise StepTooLarge(
                    f"step {k} would cross a nonpositive value (rho mu={nv}, rho={nrho})")
            break
        v, rho = nv, nrho
        mu = v / rho
        # rho stays above its floor; mu can still underflow to zero
        if mu <= 0:
            raise ValueError("rho and mu must stay positive")
        if on_z:
            iv = rho * (mu - z_shift)
        else:
            if mu >= n + 2:
                raise ValueError("canonical family needs mu < n + 2")
            if mu == 1 or mu * (n + 1) == 1:
                raise OnEinsteinRay("canonical invariant undefined at mu = 1 or 1/(n+1)")
            iv = log(rho) - c_fib * log(abs(mu - 1)) + c_base * log(abs((n + 1) * mu - 1))
        ts.append(t0 + (k + 1) * step)
        rhos.append(rho)
        mus.append(mu)
        inv.append(iv)
    events: dict = {"stopped_at_floor": len(ts) - 1 < steps}
    if family == Z:
        events.update(classify(initial))
    return Trajectory(ts, rhos, mus, inv, family, n, events)


def classify(initial: FlowState) -> dict:
    """Forward-time fate of a Z-family solution.

    mu0 > 1/(n+2): extinction at rho's zero (mu -> infinity);
    mu0 < 1/(n+2): fiber collapse at (rho mu)'s zero with
    rho -> rho0 (1 - (n+2) mu0); on the ray: homothety extinction.
    """
    if initial.family != Z:
        raise ValueError("classification applies to the Z family")
    n = initial.n
    rho0, mu0 = initial.rho, initial.mu
    t_rho = rho0 / (8 * (n + 2))
    t_rho_mu = rho0 * mu0 / 8
    if isinstance(mu0, Fraction):
        on_ray = mu0 == Fraction(1, n + 2)
        above = mu0 > Fraction(1, n + 2)
    else:
        on_ray = mu0 == 1.0 / (n + 2)
        above = mu0 > 1.0 / (n + 2)
    if on_ray:
        return {"mode": "einstein-ray", "time": t_rho, "mu_limit": 1.0 / (n + 2),
                "rho_limit": 0.0}
    if above:
        return {"mode": "extinction", "time": t_rho, "mu_limit": math.inf,
                "rho_limit": 0.0}
    return {"mode": "collapse", "time": t_rho_mu, "mu_limit": 0.0,
            "rho_limit": rho0 * (1 - (n + 2) * mu0)}


def scalar_curvature(rho, mu, n: int):
    """Scal(rho g^Z) = 8/(rho mu) + 16 n (n+2)/rho along the Z family."""
    return 8 / (rho * mu) + 16 * n * (n + 2) / rho


def entropy_series(initial: FlowState, samples: int) -> list[EntropyRecord]:
    """Entropy diagnostics along the ancient side (t < 0, tau = -t) of a
    Z-trajectory with mu0 above the Einstein value.

    u is spatially constant (1 over the coframe-normalized volume
    rho^(2n+1) mu), f comes from u = (4 pi tau)^-(2n+1) e^-f, and
    w = tau Scal + f - (4n+2); w is nondecreasing in t.  A request for more
    than MAX_STEPS samples is rejected.
    """
    if initial.family != Z:
        raise ValueError("entropy diagnostics apply to the Z family")
    n = initial.n
    if initial.mu <= 1.0 / (n + 2):
        raise ValueError("requires mu0 > 1/(n+2), the extinction regime")
    if samples < 2:
        raise ValueError("need at least two samples")
    if samples > MAX_STEPS:
        raise ValueError(f"{samples} samples exceed the {MAX_STEPS} sample budget")
    T = initial.rho / (8 * (n + 2))
    tau_min, tau_max = T / 100.0, 10.0 * T
    out = []
    dim = 4 * n + 2
    for k in range(samples):
        # equally spaced in t, increasing
        tau = tau_max + (tau_min - tau_max) * k / (samples - 1)
        t = -tau
        rho, mu = _z_closed(initial.rho, initial.mu, n, t)
        scal = scalar_curvature(rho, mu, n)
        vol = rho ** (2 * n + 1) * mu
        u = 1.0 / vol
        f = -math.log(u) - (2 * n + 1) * math.log(4 * math.pi * tau)
        w = tau * scal + f - dim
        out.append(EntropyRecord(t=t, tau=tau, scal=scal, vol_ratio=vol, u=u, f=f, w=w))
    return out


_TRAJ_FIELDS = ["t", "rho", "mu", "rho_mu", "invariant"]
_ENTROPY_FIELDS = ["t", "rho", "mu", "rho_mu", "invariant", "tau", "scal",
                   "vol_ratio", "u", "f", "w"]
_FLOAT = {float}


def _csv(fields: list[str], rows) -> str:
    """Header plus one line per row.  A row of floats is written by a single
    "%.17g,...\n" % row, which gives the bytes of `_fmt` on each value; a row
    holding anything else goes through `_fmt` value by value."""
    template = ",".join(["%.17g"] * len(fields)) + "\n"
    lines = [",".join(fields) + "\n"]
    for row in rows:
        if set(map(type, row)) <= _FLOAT:
            lines.append(template % row)
        else:
            lines.append(",".join(map(_fmt, row)) + "\n")
    return "".join(lines)


def _json(fields: list[str], rows) -> str:
    return json.dumps([dict(zip(fields, map(float, row))) for row in rows],
                      indent=None, separators=(",", ":"))


def _traj_rows(traj: Trajectory):
    rho_mu = [r * m for r, m in zip(traj.rho, traj.mu)]
    return zip(traj.t, traj.rho, traj.mu, rho_mu, traj.invariant_series)


def trajectory_to_csv(traj: Trajectory) -> str:
    return _csv(_TRAJ_FIELDS, _traj_rows(traj))


def trajectory_to_json(traj: Trajectory) -> str:
    return _json(_TRAJ_FIELDS, _traj_rows(traj))


def _entropy_rows(initial: FlowState, records: list[EntropyRecord]) -> list[tuple]:
    """One row per record, its (rho, mu) from the closed form at the record's
    (float) time, as entropy_series computed them."""
    n, rho0, mu0 = initial.n, initial.rho, initial.mu
    z_shift = 1.0 / (n + 2)
    rows = []
    for r in records:
        rho, mu = _z_closed(rho0, mu0, n, r.t)
        rows.append((r.t, rho, mu, rho * mu, rho * (mu - z_shift),
                     r.tau, r.scal, r.vol_ratio, r.u, r.f, r.w))
    return rows


def entropy_to_csv(initial: FlowState, records: list[EntropyRecord]) -> str:
    return _csv(_ENTROPY_FIELDS, _entropy_rows(initial, records))


def entropy_to_json(initial: FlowState, records: list[EntropyRecord]) -> str:
    return _json(_ENTROPY_FIELDS, _entropy_rows(initial, records))
