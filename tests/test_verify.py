"""verify.run_checks: its two check groups, run in one process or in two."""

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from twistorflow import verify, zmetric
from twistorflow.cli import main
from twistorflow.verify import CHECK_NAMES, run_checks


def _on_cpus(monkeypatch, cpus: int) -> list:
    """Let this process run on `cpus` CPUs; returns the pids of its forked
    children, in order."""
    pids = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
    return pids


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _on_one_and_two_cpus(monkeypatch, **kwargs) -> list:
    """[(records, forks)] of run_checks(2, **kwargs) on one CPU, then on two."""
    runs = []
    for cpus in (1, 2):
        pids = _on_cpus(monkeypatch, cpus)
        runs.append((run_checks(2, **kwargs), len(pids)))
    assert _no_child_left()
    return runs


@pytest.mark.parametrize("kwargs", [
    {},
    {"tamper": (12, 6, 3)},
    # one check of the Z group, two of the other
    {"checks": ["rhs_vs_ricci", "kahler_criterion", "lie_algebra"]},
])
def test_two_cpus_give_the_records_of_one(kwargs, monkeypatch):
    (serial, serial_forks), (forked, forked_forks) = _on_one_and_two_cpus(monkeypatch, **kwargs)
    assert (serial_forks, forked_forks) == (0, 1)
    assert forked == serial
    failed = [r["check"] for r in serial if r["status"] == "fail"]
    # the tampered structure constants are the negative control
    assert failed == (["maurer_cartan_blocks"] if "tamper" in kwargs else [])


def test_an_empty_selection_gives_only_the_divergence_notes(monkeypatch):
    pids = _on_cpus(monkeypatch, 2)
    report = run_checks(2, checks=[])
    assert report == [{"check": f"divergence:{div['id']}", "status": "note",
                       "detail": div["detail"]} for div in verify.KNOWN_DIVERGENCES]
    assert pids == []


@pytest.mark.parametrize("checks, message", [
    (["lie_algebra", "rhs_vs_ricci", "bogus", "lie_algebra"], "^unknown checks: bogus$"),
    (["lie_algebra", "rhs_vs_ricci", "lie_algebra"], "^checks named more than once: lie_algebra$"),
])
def test_a_bad_selection_is_rejected_before_any_check_runs(checks, message, monkeypatch):
    ran = []
    for name in CHECK_NAMES:
        monkeypatch.setitem(verify._CHECKS, name, lambda *args, name=name: ran.append(name))
    pids = _on_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=message):
        run_checks(2, checks=checks)
    assert (ran, pids) == ([], [])


@pytest.mark.parametrize("n", [1, 7, 12])
def test_an_n_outside_the_query_range_is_rejected_before_any_check_runs(n, monkeypatch):
    ran = []
    for name in CHECK_NAMES:
        monkeypatch.setitem(verify._CHECKS, name, lambda *args, name=name: ran.append(name))
    pids = _on_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=r"^verify supports n in 2\.\.6 \(the paper assumes "
                                         r"n > 1\)$"):
        run_checks(n)
    assert (ran, pids) == ([], [])


def test_the_stripped_jet_table_fails_on_one_and_two_cpus(monkeypatch):
    # the Z group runs on the jet table without its invisible components
    real = zmetric.ricci_z
    monkeypatch.setattr(verify, "ricci_z", lambda p, ambiguity="none": real(
        p, "stripped" if ambiguity == "none" else ambiguity))
    (serial, serial_forks), (forked, forked_forks) = _on_one_and_two_cpus(monkeypatch)
    assert (serial_forks, forked_forks) == (0, 1)
    assert forked == serial
    assert [r["check"] for r in serial if r["status"] == "fail"] == ["prop_3_1_z_ricci",
                                                                    "rhs_vs_ricci"]


def test_the_report_on_two_cpus_is_pinned(monkeypatch):
    pids = _on_cpus(monkeypatch, 2)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "--n", "2", "--format", "json"])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    # the same digest as STDOUT_GOLDEN in test_cli
    assert (code, digest, len(pids)) == (0, "b4f9a8c599e4d3a7", 1)
    assert _no_child_left()


def test_only_the_z_group_builds_a_z_geometry(monkeypatch):
    # a check that reads zmetric.z_geometry outside the Z group would build
    # the geometry again in the other process
    calls = []
    real = zmetric.z_setup
    monkeypatch.setattr(zmetric, "z_setup", lambda *args, **kwargs: calls.append(args)
                        or real(*args, **kwargs))
    builders = set()
    for name in CHECK_NAMES:
        zmetric._z_point_geometry.cache_clear()
        calls.clear()
        # a single check is one group, run in this process
        (record,) = [r for r in run_checks(2, checks=[name]) if r["check"] == name]
        assert record["status"] == "pass", record
        if calls:
            builders.add(name)
    assert builders == verify._Z_GROUP


def test_a_lost_check_worker_exits_2_and_is_named(monkeypatch):
    pids = _on_cpus(monkeypatch, 2)
    parent = os.getpid()

    def dies_in_the_child(n):
        if os.getpid() != parent:
            os._exit(3)
        return True, "ran in the parent"

    # lie_algebra is in the second group, which the forked child runs
    monkeypatch.setitem(verify._CHECKS, "lie_algebra", dies_in_the_child)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["verify", "--n", "2"])
    assert len(pids) == 1 and _no_child_left()
    assert (code, err.getvalue()) == (
        2, f"lost a worker process: worker process {pids[0]} ended before sending value 1\n")
