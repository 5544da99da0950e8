"""Reduced Ricci flow on the two twistor metric families.

The flow is integrated in the variables (rho*mu, rho), where the Z family
is linear; closed forms, trajectory invariants, extinction/collapse
classification and the entropy diagnostics live here.

A `Trajectory` is stored by column (`t`, `rho`, `mu` and
`invariant_series`): `integrate` converts the initial state to floats and
packs each column into an array("d"), 8 bytes per value, so an exact start
gives the trajectory of its float.  `Trajectory.samples` is a read-only view
that builds a `FlowState` per sample on demand.  An `EntropyRecord` is its
export row: its fields are the export's columns, in order.

An export is formatted in chunks of BLOCK_ROWS rows, by up to one process
per CPU this process may run on (forked children, one chunk each in turn),
and this process writes the chunks to the text stream in order, so the bytes
never depend on the process count.  Each process holds about one chunk's
text at a time, so beyond the trajectory's columns (32 bytes a sample) the
memory of an export does not grow with its sample count, and a forked child
reads the packed columns it inherited without writing to their pages.
`entropy_records` returns a lazy sequence, so each process computes only the
entropy records of its own chunks.  The export runs in this one process
where there is one CPU or one chunk, where os.fork is missing, or while
another thread runs.  The CSV writer formats every row with one
"%.17g,...,%.17g" template.  The JSON writer gives the bytes of
`json.dumps([...], separators=(",", ":"))`: a row of finite floats goes
through one %r template, as json prints a float with `float.__repr__`, and a
row holding inf or nan through `json.dumps`.
"""

from __future__ import annotations

import json
import marshal
import math
import os
import threading
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

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
    "scalar_curvature",
    "entropy_records",
    "write_trajectory",
    "write_entropy",
]

CANONICAL = "canonical"
Z = "z"


class Extinct(ValueError):
    """Requested time lies past the singular time of the solution."""


class OnEinsteinRay(ValueError):
    """The invariant is undefined on the Einstein ray."""


class StepTooLarge(ValueError):
    pass


class FlowState:
    """A point (t, rho, mu) of a flow of the family (CANONICAL or Z) over
    HP^n.  States with equal fields compare equal; a state is not hashable."""

    __slots__ = ("t", "rho", "mu", "family", "n")

    def __init__(self, t: float, rho: float, mu: float, family: str, n: int):
        if family not in (CANONICAL, Z):
            raise ValueError(f"unknown family {family!r}")
        if n < 2:
            raise ValueError("paper setting requires n > 1")
        if n > 2 ** 53 - 2:
            raise ValueError("the flow needs n <= 2**53 - 2, so that n + 2 is an exact float")
        if rho <= 0 or mu <= 0:
            raise ValueError("rho and mu must stay positive")
        if family == CANONICAL and mu >= n + 2:
            raise ValueError("canonical family needs mu < n + 2")
        self.t = t
        self.rho = rho
        self.mu = mu
        self.family = family
        self.n = n

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.t, self.rho, self.mu, self.family, self.n)
                == (other.t, other.rho, other.mu, other.family, other.n))

    @property
    def rho_mu(self):
        return self.rho * self.mu


class _Records(Sequence):
    """Read-only sequence whose item k is record(indices[k]), computed each
    time it is read; a slice is the same view on a sub-range of indices."""

    __slots__ = ("_record", "_indices")

    def __init__(self, record, indices: range):
        self._record, self._indices = record, indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _Records(self._record, self._indices[k])
        return self._record(self._indices[k])

    def __iter__(self):
        return map(self._record, self._indices)


class Trajectory:
    """A flow trajectory stored by column: sample k is (t[k], rho[k], mu[k])
    with first integral invariant_series[k].  A column is any sequence of
    floats; `integrate` gives array("d")s."""

    __slots__ = ("t", "rho", "mu", "invariant_series", "family", "n", "events")

    def __init__(self, t: Sequence, rho: Sequence, mu: Sequence, invariant_series: Sequence,
                 family: str, n: int, events: dict | None = None):
        self.t = t
        self.rho = rho
        self.mu = mu
        self.invariant_series = invariant_series
        self.family = family
        self.n = n
        self.events = events

    @property
    def samples(self) -> Sequence[FlowState]:
        """The samples as FlowStates, each built when it is read."""
        return _Records(lambda k: FlowState(self.t[k], self.rho[k], self.mu[k], self.family,
                                            self.n), range(len(self.t)))

    def max_invariant_drift(self) -> float:
        ref = self.invariant_series[0]
        return max(abs(v - ref) for v in self.invariant_series)


EntropyRecord = namedtuple("EntropyRecord", ["t", "rho", "mu", "rho_mu", "invariant", "tau",
                                             "scal", "vol_ratio", "u", "f", "w"])
EntropyRecord.__doc__ = "One entropy export row; the fields are the export's columns, in order."


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
# largest step count one integrate call (which keeps every sample), and
# largest sample count one entropy_records call, accepts; the flows in the
# tests and the benchmark take at most about 31k steps
MAX_STEPS = 10 ** 6


def integrate(initial: FlowState, dt: float, t_end: float) -> Trajectory:
    """Classical fixed-step RK4 in (rho mu, rho), stopping at t_end or at
    FLOOR_RATIO of the initial values.

    t_end before the initial time integrates backward (the ancient
    direction).  A dt that is not positive and finite, and a request for
    more than MAX_STEPS steps, are rejected, and so is a t_end that is not
    finite.  The initial state is converted to floats, so an exact start
    gives the trajectory of its float.  The columns are array("d")s,
    allocated at the start for every requested step, or forward in the Z
    family for the steps up to a little past the singular time, and cut back
    where the flow stops; each step stores its sample's floats and evaluates
    the invariant inline, with the checks and formulas of FlowState and
    `invariant`.
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    n, family = initial.n, initial.family
    initial = FlowState(float(initial.t), float(initial.rho), float(initial.mu), family, n)
    step = dt if t_end >= initial.t else -dt
    span = (t_end - initial.t) / step
    if not span <= MAX_STEPS:
        raise ValueError(f"(t_end - t0)/dt = {span:.3g} exceeds the {MAX_STEPS} step budget")

    v = initial.rho * initial.mu
    rho = initial.rho
    floor_v = FLOOR_RATIO * v
    floor_rho = FLOOR_RATIO * rho
    t0 = initial.t
    steps = max(0, int(round(span)))
    on_z = family == Z
    fate = classify(initial) if on_z else None
    room = steps
    if on_z and step > 0 and fate["time"] / step < steps:
        # Forward, rho mu and rho fall by 8 dt and 8 (n + 2) dt a step, and
        # the first of them to reach zero does so at step K = fate["time"] / dt:
        # exact steps take it a whole step below zero by step ceil(K) + 1.
        # k rounded float sums stray from k exact steps by at most about
        # (k + 6) 2**-53 of the start value; here k <= K + 2 and K < MAX_STEPS,
        # so that is under 2e-10 of the start value and a step is over 1e-6
        # of it.  K as computed is within a few ulps of its exact value, so the
        # loop stops, at the floor or by crossing zero, by step int(K) + 3.
        room = min(steps, int(fate["time"] / step) + 3)
    first = (t0, rho, initial.mu, invariant(initial))
    # loaded here, since most processes that import flow never integrate:
    # an entropy export, or verify on two CPUs (its flow checks run in a child)
    from array import array
    cols = [array("d", (x,)) * (room + 1) for x in first]
    # a memoryview stores a float into an array faster than the array does
    views = [memoryview(col) for col in cols]
    at_t, at_rho, at_mu, at_inv = views
    # the constants of `invariant`, computed as it computes them
    z_shift = 1.0 / (n + 2)
    c_fib = (n + 1) / n
    c_base = (n * n + 3 * n + 1) / (n * (n + 1))
    log = math.log
    # Python groups 0.5 * step * k as (0.5 * step) * k and step / 6.0 * s as
    # (step / 6.0) * s, so these factors leave every stage float unchanged
    h2, h6 = 0.5 * step, step / 6.0
    if on_z:
        # the Z right-hand side is constant, so every RK4 increment is the
        # same float: the four stage values below, summed as in the general step
        kv, kr = -8.0, -8.0 * (n + 2)
        inc_v = h6 * (kv + 2 * kv + 2 * kv + kv)
        inc_r = h6 * (kr + 2 * kr + 2 * kr + kr)
    kept = room + 1
    for k in range(1, kept):
        if on_z:
            nv, nrho = v + inc_v, rho + inc_r
        else:
            # the four stages of (d(rho mu)/dt, d rho/dt) = (-8 (1 + n mu^2), -8 (n + 2 - mu))
            mu = v / rho
            k1v, k1r = -8.0 * (1.0 + n * mu * mu), -8.0 * (n + 2 - mu)
            sv, sr = v + h2 * k1v, rho + h2 * k1r
            mu = sv / sr
            k2v, k2r = -8.0 * (1.0 + n * mu * mu), -8.0 * (n + 2 - mu)
            sv, sr = v + h2 * k2v, rho + h2 * k2r
            mu = sv / sr
            k3v, k3r = -8.0 * (1.0 + n * mu * mu), -8.0 * (n + 2 - mu)
            sv, sr = v + step * k3v, rho + step * k3r
            mu = sv / sr
            k4v, k4r = -8.0 * (1.0 + n * mu * mu), -8.0 * (n + 2 - mu)
            nv = v + h6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            nrho = rho + h6 * (k1r + 2 * k2r + 2 * k3r + k4r)
        if nv <= floor_v or nrho <= floor_rho:
            if nv <= 0 or nrho <= 0:
                raise StepTooLarge(
                    f"step {k - 1} would cross a nonpositive value (rho mu={nv}, rho={nrho})")
            kept = k
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
        at_t[k] = t0 + k * step
        at_rho[k] = rho
        at_mu[k] = mu
        at_inv[k] = iv
    for view in views:
        view.release()
    for col in cols:
        del col[kept:]
    events: dict = {"stopped_at_floor": kept - 1 < steps}
    if on_z:
        events.update(fate)
    return Trajectory(*cols, family, n, events)


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
    ray = Fraction(1, n + 2) if isinstance(mu0, Fraction) else 1.0 / (n + 2)
    if mu0 == ray:
        return {"mode": "einstein-ray", "time": t_rho, "mu_limit": 1.0 / (n + 2),
                "rho_limit": 0.0}
    if mu0 > ray:
        return {"mode": "extinction", "time": t_rho, "mu_limit": math.inf,
                "rho_limit": 0.0}
    return {"mode": "collapse", "time": t_rho_mu, "mu_limit": 0.0,
            "rho_limit": rho0 * (1 - (n + 2) * mu0)}


def scalar_curvature(rho, mu, n: int):
    """Scal(rho g^Z) = 8/(rho mu) + 16 n (n+2)/rho along the Z family."""
    return 8 / (rho * mu) + 16 * n * (n + 2) / rho


def entropy_records(initial: FlowState, samples: int) -> Sequence[EntropyRecord]:
    """Entropy diagnostics along the ancient side (t < 0, tau = -t) of a
    Z-trajectory with mu0 above the Einstein value, equally spaced in t.

    u is spatially constant (1 over the coframe-normalized volume
    rho^(2n+1) mu), f comes from u = (4 pi tau)^-(2n+1) e^-f, and
    w = tau Scal + f - (4n+2); w is nondecreasing in t.  The arguments are
    checked when this is called; the sequence returned computes record k, a
    function of k alone, each time it is read, and a slice of it computes
    only its own records.  A request for more than MAX_STEPS samples, or a
    start whose diagnostics leave the float range, is rejected.
    """
    if initial.family != Z:
        raise ValueError("entropy diagnostics apply to the Z family")
    n = initial.n
    z_shift = 1.0 / (n + 2)
    if initial.mu <= z_shift:
        raise ValueError("requires mu0 > 1/(n+2), the extinction regime")
    if samples < 2:
        raise ValueError("need at least two samples")
    if samples > MAX_STEPS:
        raise ValueError(f"{samples} samples exceed the {MAX_STEPS} sample budget")
    rho0, mu0 = initial.rho, initial.mu
    T = rho0 / (8 * (n + 2))
    tau_min, tau_max = T / 100.0, 10.0 * T
    dim = 4 * n + 2

    def record(k: int) -> EntropyRecord:
        tau = tau_max + (tau_min - tau_max) * k / (samples - 1)
        t = -tau
        rho, mu = _z_closed(rho0, mu0, n, t)
        scal = scalar_curvature(rho, mu, n)
        vol = rho ** (2 * n + 1) * mu
        u = 1.0 / vol
        f = -math.log(u) - (2 * n + 1) * math.log(4 * math.pi * tau)
        w = tau * scal + f - dim
        return EntropyRecord(t, rho, mu, rho * mu, rho * (mu - z_shift), tau, scal, vol, u, f, w)

    # rho and the volume fall as k grows, so if the first and the last record
    # stay in float range every record does; a volume that overflows to inf
    # gives u = 0, and log(0) raises a plain ValueError
    try:
        record(0)
        record(samples - 1)
    except (ArithmeticError, ValueError) as ex:
        raise ValueError(f"rho0 = {rho0}, lambda^2 = {mu0} takes the entropy diagnostics "
                         "out of float range") from ex
    return _Records(record, range(samples))


_TRAJ_FIELDS = ["t", "rho", "mu", "rho_mu", "invariant"]
# rows per chunk: each process formats an export one chunk at a time
BLOCK_ROWS = 2048


def _csv(fields: list[str]):
    """(head, sep, tail, text) of a CSV export: see `_write_chunks`.

    A row of floats is formatted by a single "%.17g,...\n" % row, which gives
    the bytes of format(x, ".17g") on each value."""
    template = ",".join(["%.17g"] * len(fields)) + "\n"

    def text(rows) -> str:
        return "".join(template % row for row in rows)

    return ",".join(fields) + "\n", "", "", text


def _json(fields: list[str]):
    """(head, sep, tail, text) of a JSON export, whose bytes are those of
    json.dumps([dict(zip(fields, row)), ...], separators=(",", ":")) on rows
    of floats: see `_write_chunks`.

    A row of finite floats is formatted by a single %r template, as json
    prints a float with float.__repr__; a row holding inf or nan, which json
    prints as Infinity and NaN, goes through json.dumps."""
    template = "{" + ",".join(json.dumps(f) + ":%r" for f in fields) + "}"
    isfinite = math.isfinite

    def text(rows) -> str:
        return ",".join(template % row if isfinite(sum(row))
                        else json.dumps(dict(zip(fields, row)), separators=(",", ":"))
                        for row in rows)

    return "[", ",", "]", text


_FORMATS = {"csv": _csv, "json": _json}


def _workers(count: int) -> int:
    """The number of processes that compute `count` chunks: one per CPU this
    process may run on, and at most one per chunk.  It is 1 where os.fork or
    os.sched_getaffinity is missing, and while another thread runs, since a
    forked child would inherit that thread's locks but not the thread."""
    if (count < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), count)


def _serve(fn, indices: range, readers: list, writer) -> None:
    """The life of a forked child of `_ordered_map`: send fn(i) for each i in
    indices down writer, marshalled behind its 8-byte length, and leave by
    os._exit, which flushes none of the buffers inherited from the parent.
    Each flush blocks until the parent has read all but a pipe buffer of it,
    so the child runs at most one value ahead of the reader."""
    status = 1
    try:
        for reader in readers:
            reader.close()
        for i in indices:
            data = marshal.dumps(fn(i))
            writer.write(len(data).to_bytes(8, "little"))
            writer.write(data)
            writer.flush()
        status = 0
    finally:
        os._exit(status)


def _receive(reader):
    """The next value a child sent down reader, or None if the pipe ended
    before all of it came."""
    head = reader.read(8)
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    return marshal.loads(data) if len(head) == 8 and len(data) == size else None


def _ordered_map(fn, count: int):
    """Yield fn(0), ..., fn(count - 1) in order, computed by `_workers(count)`
    processes.  The exports map it over their chunks, and verify.run_checks
    over its check groups.

    With P processes, this one computes fn(i) for i = 0 mod P and forked child
    r those with i = r mod P, each sent over the child's own pipe; fn must be
    a pure function whose values, never None, marshal can carry.  With P = 1 this is
    map(fn, range(count)).  Every child is reaped before the generator
    finishes, fails or is closed.  If a child ends without sending fn(i), fn(i)
    is computed here, to raise the error it raised there, and
    ChildProcessError is raised if it does not.
    """
    procs = _workers(count)
    if procs == 1:
        yield from map(fn, range(count))
        return
    readers, pids = [], []
    try:
        for r in range(1, procs):
            rfd, wfd = os.pipe()
            readers.append(open(rfd, "rb"))
            with open(wfd, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, range(r, count, procs), readers, writer)
            pids.append(pid)
        for i in range(count):
            r = i % procs
            value = fn(i) if r == 0 else _receive(readers[r - 1])
            if value is None:
                fn(i)
                raise ChildProcessError(f"worker process {pids[r - 1]} ended before "
                                        f"sending value {i}")
            yield value
            del value  # hold no chunk while the next one is made
    finally:
        for reader in readers:
            reader.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses):
        raise ChildProcessError(f"worker processes {pids} ended with wait statuses {statuses}")


def _write_chunks(fmt: str, fields: list[str], chunk, rows: int, out) -> list:
    """Write an export of `rows` rows with these fields to the text stream
    out as fmt, "csv" or "json", and return the notes of its chunks in order.

    `_FORMATS[fmt](fields)` gives (head, sep, tail, text), and the export is
    head, then text(run) for each run of rows with sep between runs, then
    tail, however the rows are cut into runs.  So chunk(i, text) returns
    (text of rows [i BLOCK_ROWS, (i + 1) BLOCK_ROWS), a note), and
    `_ordered_map` computes the chunks on up to one process per CPU while
    this process writes them in order: the bytes never depend on the process
    count, and each process holds about one chunk at a time.
    """
    head, sep, tail, text = _FORMATS[fmt](fields)
    notes = []
    chunks = _ordered_map(lambda i: chunk(i, text), -(-rows // BLOCK_ROWS))
    try:
        out.write(head)
        lead = ""
        for block, note in chunks:
            out.write(lead)
            out.write(block)
            del block  # hold no chunk while the next one is made
            lead = sep
            notes.append(note)
    finally:
        chunks.close()
    out.write(tail)
    return notes


def write_trajectory(traj: Trajectory, fmt: str, out) -> None:
    """Write traj to the text stream out as fmt, "csv" or "json"."""

    def chunk(i: int, text):
        # a forked child reads the columns it inherited: no row is sent to it
        cut = slice(i * BLOCK_ROWS, (i + 1) * BLOCK_ROWS)
        rho, mu = traj.rho[cut], traj.mu[cut]
        return text(zip(traj.t[cut], rho, mu, map(mul, rho, mu), traj.invariant_series[cut])), None

    _write_chunks(fmt, _TRAJ_FIELDS, chunk, len(traj.t), out)


def write_entropy(records: Sequence[EntropyRecord], fmt: str, out) -> bool:
    """Write records, a sequence of EntropyRecords, to the text stream out as
    fmt, "csv" or "json", one row per record, and return whether w never
    falls along them: whether each w passes prev <= w + 1e-12, where prev is
    the w before it and -inf before the first, so that a nan w fails.

    A sequence from `entropy_records` computes each record in the process
    that formats its chunk.
    """

    def chunk(i: int, text):
        ws = []

        def rows():
            for r in records[i * BLOCK_ROWS:(i + 1) * BLOCK_ROWS]:
                ws.append(r.w)
                yield r

        block = text(rows())
        return block, (all(a <= b + 1e-12 for a, b in zip(ws, ws[1:])), ws[0], ws[-1])

    rising, prev = True, -math.inf
    for ok, first, last in _write_chunks(fmt, list(EntropyRecord._fields), chunk,
                                         len(records), out):
        rising = rising and ok and prev <= first + 1e-12
        prev = last
    return rising
