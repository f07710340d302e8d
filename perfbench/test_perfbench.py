"""Self-tests of the benchmark's gate, tracer and contract.

    python3 -m pytest perfbench -q

These sit outside the repository's ``tests/`` collection on purpose: they run
agcalc through the benchmark harness and take tens of seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def small(wl):
    wl.rounds = 1
    return wl


def run_bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


class TestReference:
    def test_round_trip_of_known_inverse(self):
        # H = (z2^2, 0) has the exact inverse G = (z1 + z2^2, z2)
        h = [{(0, 2): Fraction(1)}, {}]
        g = [{(1, 0): Fraction(1), (0, 2): Fraction(1)}, {(0, 1): Fraction(1)}]
        assert reference.round_trip_defect(h, g, 6) is None
        g[0][(0, 2)] = Fraction(2)
        assert "component 1" in reference.round_trip_defect(h, g, 6)

    def test_trace_of_triangular_map_is_zero(self):
        assert reference.jacobian_trace([{(0, 2): Fraction(3)}, {}]) == {}
        assert reference.jacobian_trace([{(2, 0): Fraction(1)}, {}]) == {(1, 0): Fraction(2)}


class TestGate:
    def test_invert_gate_passes_then_sees_one_bad_coefficient(self):
        wl = small(workloads.Invert())
        item = wl.setup(11)[0]
        results = wl.run(item)
        assert wl.check(0, item, results) is None
        assert wl.check(0, item, results, corrupt=True) is not None

    def test_invert_gate_sees_route_disagreement(self):
        from agcalc import FIXED_POINT, InversionResult, MapTuple, SparsePoly
        wl = small(workloads.Invert())
        item = wl.setup(12)[0]
        results = wl.run(item)
        base = results[FIXED_POINT]
        g0 = base.G.components[0]
        bumped = g0 + SparsePoly.const(g0.vars, 1).mul(g0)
        g = MapTuple((bumped,) + base.G.components[1:], base.G.trunc)
        results[FIXED_POINT] = InversionResult(g, base.N, base.method, base.D)
        assert wl.check(0, item, results) == "the three routes disagree"

    def test_lab_gate_checks_the_built_verdict(self):
        wl = small(workloads.Lab())
        items = wl.setup(13)
        for idx, item in enumerate(items):
            out = wl.run(item)
            assert wl.check(idx, item, out) is None
            assert wl.check(idx, item, out, corrupt=True) is not None

    def test_corrupted_run_reports_failures(self):
        proc = run_bench("--workload", "invert", "--seed", "5", "--seconds", "1",
                         "--trace", "0", "--corrupt")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] > 0


class TestCalibration:
    def test_each_item_is_scaled_by_the_samples_around_it(self):
        cal = run.Calibration()
        nominal = run.Calibration.NOMINAL_S
        cal.samples = [nominal] * 10 + [2 * nominal] * 10  # the host halves its speed
        cal.at = list(range(20))
        cal.items = 20
        factors = cal.scales()
        assert factors[0] == 1.0
        assert factors[-1] == 0.5
        assert factors == sorted(factors, reverse=True)


class TestInputs:
    def test_sign_change_keeps_every_monomial_and_undoes_itself(self):
        h = [{(2, 1): Fraction(3), (0, 2): Fraction(-1, 2)}, {(1, 1): Fraction(5)}]
        flipped = workloads._flip(h, random.Random(4))
        assert [set(c) for c in flipped] == [set(c) for c in h]
        assert workloads._flip(flipped, random.Random(4)) == h  # S S = 1


class TestTracer:
    def test_every_binding_is_wrapped_and_restored(self):
        import agcalc.cli
        import agcalc.inversion
        import agcalc.poly
        original = agcalc.poly.compose
        tr = tracing.Tracer()
        tr.install()
        try:
            tr.assert_covered()
            assert agcalc.inversion.compose is agcalc.poly.compose is not original
            assert agcalc.poly.compose.__wrapped__ is original
            agcalc.cli.compose = original  # a call site the swap did not reach
            with pytest.raises(RuntimeError, match="agcalc.cli.compose"):
                tr.assert_covered()
        finally:
            tr.uninstall()
        assert agcalc.inversion.compose is original is agcalc.cli.compose

    def test_counts_repeat_exactly(self):
        wl = small(workloads.Invert())
        items = wl.setup(14)[:4]

        def counts():
            tr = tracing.Tracer()
            tr.install()
            try:
                for i, item in enumerate(items):
                    tr.item = i
                    wl.run(item)
            finally:
                tr.uninstall()
            s = tr.summary()
            return s["calls"], s["counts"]

        first = counts()
        assert first[0]["poly.mul.trunc"] > 0
        assert first[1]["inversion.fixed_point.passes"] > 0
        assert counts() == first

    def test_self_time_excludes_children(self):
        tr = tracing.Tracer()
        tr.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0]]
        tr.excluded[0] = 1.0
        assert tr.self_seconds() == {"outer": 6.0, "inner": 3.0}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "invert", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
