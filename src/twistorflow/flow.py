"""Reduced Ricci flow on the two twistor metric families.

The flow is integrated in the variables (rho*mu, rho), where the Z family
is linear; closed forms, trajectory invariants, extinction/collapse
classification and the entropy diagnostics live here.
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


@dataclass
class Trajectory:
    samples: list[FlowState]
    invariant_series: list[float]
    events: dict | None = None

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


def closed_form_z(rho0, mu0, n: int, t):
    """Exact solution rho = rho0 - 8(n+2)t, rho mu = rho0 mu0 - 8t."""
    rho = rho0 - 8 * (n + 2) * t
    rho_mu = rho0 * mu0 - 8 * t
    if rho <= 0 or rho_mu <= 0:
        raise Extinct(f"t={t} is past the singular time")
    mu = rho_mu / rho
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
    direction).  A request for more than MAX_STEPS steps is rejected.
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
    t = initial.t
    samples = [initial]
    inv = [invariant(initial)]
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
        t = initial.t + (k + 1) * step
        state = FlowState(t=t, rho=rho, mu=v / rho, family=family, n=n)
        samples.append(state)
        inv.append(invariant(state))
    events: dict = {"stopped_at_floor": len(samples) - 1 < steps}
    if family == Z:
        events.update(classify(initial))
    return Trajectory(samples, inv, events)


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
        state = closed_form_z(initial.rho, initial.mu, n, t)
        scal = scalar_curvature(state.rho, state.mu, n)
        vol = state.rho ** (2 * n + 1) * state.mu
        u = 1.0 / vol
        f = -math.log(u) - (2 * n + 1) * math.log(4 * math.pi * tau)
        w = tau * scal + f - dim
        out.append(EntropyRecord(t=t, tau=tau, scal=scal, vol_ratio=vol, u=u, f=f, w=w))
    return out


_TRAJ_FIELDS = ["t", "rho", "mu", "rho_mu", "invariant"]
_ENTROPY_FIELDS = ["t", "rho", "mu", "rho_mu", "invariant", "tau", "scal",
                   "vol_ratio", "u", "f", "w"]


def _traj_rows(traj: Trajectory) -> list[dict]:
    rows = []
    for st, iv in zip(traj.samples, traj.invariant_series):
        rows.append({"t": st.t, "rho": st.rho, "mu": st.mu,
                     "rho_mu": st.rho_mu, "invariant": iv})
    return rows


def trajectory_to_csv(traj: Trajectory) -> str:
    lines = [",".join(_TRAJ_FIELDS)]
    for row in _traj_rows(traj):
        lines.append(",".join(_fmt(row[k]) for k in _TRAJ_FIELDS))
    return "\n".join(lines) + "\n"


def trajectory_to_json(traj: Trajectory) -> str:
    rows = [{k: float(row[k]) for k in _TRAJ_FIELDS} for row in _traj_rows(traj)]
    return json.dumps(rows, indent=None, separators=(",", ":"))


def _entropy_rows(initial: FlowState, records: list[EntropyRecord]) -> list[dict]:
    n = initial.n
    rows = []
    for r in records:
        state = closed_form_z(initial.rho, initial.mu, n, r.t)
        rows.append({"t": r.t, "rho": state.rho, "mu": state.mu,
                     "rho_mu": state.rho_mu, "invariant": invariant(state),
                     "tau": r.tau, "scal": r.scal, "vol_ratio": r.vol_ratio,
                     "u": r.u, "f": r.f, "w": r.w})
    return rows


def entropy_to_csv(initial: FlowState, records: list[EntropyRecord]) -> str:
    lines = [",".join(_ENTROPY_FIELDS)]
    for row in _entropy_rows(initial, records):
        lines.append(",".join(_fmt(row[k]) for k in _ENTROPY_FIELDS))
    return "\n".join(lines) + "\n"


def entropy_to_json(initial: FlowState, records: list[EntropyRecord]) -> str:
    rows = [{k: float(row[k]) for k in _ENTROPY_FIELDS}
            for row in _entropy_rows(initial, records)]
    return json.dumps(rows, indent=None, separators=(",", ":"))
