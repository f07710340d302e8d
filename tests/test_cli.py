"""End-to-end CLI behavior: exit codes, report determinism, golden bytes."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import agcalc.inversion
import agcalc.lab
from agcalc.cli import main
from agcalc.mapfile import save_map_file
from agcalc.poly import MapTuple, SparsePoly, VarSet
from agcalc.report import Report

Z1 = VarSet.z(1)
Z2 = VarSet.z(2)
Z3 = VarSet.z(3)


# the child imports the same agcalc as this process, installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(agcalc.lab.__file__))


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "agcalc", *argv],
        capture_output=True, text=True, env=env)


@pytest.fixture()
def square_map(tmp_path):
    path = tmp_path / "square.json"
    save_map_file(path, MapTuple.exact((SparsePoly.monomial(Z1, (2,)),)),
                  {"name": "square"})
    return str(path)


@pytest.fixture()
def triangular_map(tmp_path):
    path = tmp_path / "triangular.json"
    save_map_file(path, MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)),
                                        SparsePoly.zero(Z2))),
                  {"name": "triangular", "nt_degree": 0})
    return str(path)


@pytest.fixture()
def control_map(tmp_path):
    path = tmp_path / "control.json"
    save_map_file(path, MapTuple.exact((SparsePoly.monomial(Z2, (2, 0)),
                                        SparsePoly.zero(Z2))),
                  {"name": "control"})
    return str(path)


class TestInvert:
    def test_catalan_output(self, square_map):
        proc = run_cli("invert", square_map, "--degree", "5", "--method", "all",
                       "--format", "json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["status"] == "pass"
        g = report["result"]["G"][0]
        assert g == "14*z1^5 + 5*z1^4 + 2*z1^3 + z1^2 + z1"

    def test_zero_map(self, tmp_path):
        path = tmp_path / "zero.json"
        save_map_file(path, MapTuple.exact((SparsePoly.zero(Z1),)))
        proc = run_cli("invert", str(path), "--degree", "3")
        assert proc.returncode == 0
        assert "z1" in proc.stdout

    def test_malformed_coefficient_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 1, "components": [[{"coeff": "1/0", "exps": [2]}]]}))
        proc = run_cli("invert", str(path), "--degree", "3")
        assert proc.returncode == 2
        assert "1/0" in proc.stderr

    def test_float_coefficient_exits_2(self, tmp_path, capsys):
        path = tmp_path / "float.json"
        path.write_text('{"n": 1, "components": '
                        '[[{"coeff": 0.12345678901234567890123, "exps": [2]}]]}')
        assert main(["invert", str(path), "--degree", "3"]) == 2
        assert "coefficient must be a string or an integer" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        proc = run_cli("invert", "/nonexistent/map.json", "--degree", "3")
        assert proc.returncode == 2

    @pytest.mark.parametrize("target", ["", "missing/report.json"])
    def test_unwritable_out_exits_2(self, square_map, tmp_path, target):
        # a directory, then a file under a directory that does not exist
        out = str(tmp_path / target)
        proc = run_cli("invert", square_map, "--degree", "3", "--out", out)
        assert proc.returncode == 2
        assert f"error: cannot write {out}: " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_single_method(self, square_map):
        proc = run_cli("invert", square_map, "--degree", "4", "--method", "lambda",
                       "--format", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["method"] == "lambda_series"

    @pytest.mark.parametrize("method", ["all", "fixedpoint"])
    def test_known_inverse_is_checked(self, tmp_path, capsys, method):
        # H = (z2^2, 0) has the inverse tail N = (z2^2, 0)
        h = MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)), SparsePoly.zero(Z2)))
        for n1, code in [(1, 0), (5, 1)]:
            known = MapTuple.exact((SparsePoly.monomial(Z2, (0, 2), n1), SparsePoly.zero(Z2)))
            path = tmp_path / f"known{n1}.json"
            save_map_file(path, h, {"known_inverse": known})
            assert main(["invert", str(path), "--degree", "4", "--method", method,
                         "--format", "json"]) == code
            check = json.loads(capsys.readouterr().out)["checks"][-1]
            assert check["name"] == "known inverse"
            assert check["witness"] == (None if code == 0 else "component 1: z2^2: 1 vs 5")


class TestVerify:
    def test_triangular_suite_passes(self, triangular_map):
        proc = run_cli("verify", triangular_map, "--degree", "4",
                       "--xi-degree", "2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "overall: PASS" in proc.stdout

    def test_nonunit_jacobian_path(self, square_map):
        proc = run_cli("verify", square_map, "--degree", "6", "--xi-degree", "2",
                       "--q", "1 + z1")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_window_cap_warning(self, triangular_map):
        proc = run_cli("verify", triangular_map, "--degree", "3", "--xi-degree", "9")
        assert proc.returncode == 0
        assert "caps effective xi-degree at 3" in proc.stderr

    def test_bad_q_literal_exits_2(self, triangular_map):
        proc = run_cli("verify", triangular_map, "--q", "z9")
        assert proc.returncode == 2

    def test_zero_denominator_in_q_exits_2(self, triangular_map, capsys):
        assert main(["verify", triangular_map, "--q", "1 + 1/0*z1"]) == 2
        assert "bad coefficient '1/0'" in capsys.readouterr().err

    def test_negative_xi_degree_exits_2(self, triangular_map, capsys):
        assert main(["verify", triangular_map, "--xi-degree", "-1"]) == 2
        assert "--xi-degree must be >= 0" in capsys.readouterr().err


class TestLab:
    def test_triangular_all_checks(self, triangular_map):
        proc = run_cli("lab", triangular_map, "--m-max", "6", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["result"]["nilpotent"] is True
        scan0 = report["result"]["scan0"]
        assert scan0["first_nonzero"] is None

    def test_control_witness(self, control_map):
        proc = run_cli("lab", control_map, "--checks", "scan0", "--format", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        scan0 = report["result"]["scan0"]
        assert scan0["first_nonzero"] == 1
        assert scan0["values"][0]["value"] == "2*z1"

    def test_wrong_stabilization_claim_exits_1(self, tmp_path):
        # metadata claiming t-degree 2 for the t-independent map must fail honestly
        path = tmp_path / "wrong_meta.json"
        save_map_file(path, MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)),
                                            SparsePoly.zero(Z2))),
                      {"name": "triangular", "nt_degree": 2})
        proc = run_cli("lab", str(path), "--checks", "equiv")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_boolean_nt_degree_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bool_meta.json"
        save_map_file(path, MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)),
                                            SparsePoly.zero(Z2))),
                      {"name": "triangular", "nt_degree": True})
        assert main(["lab", str(path)]) == 2
        assert "nt_degree" in capsys.readouterr().err

    def test_series_map_rejected(self, tmp_path):
        path = tmp_path / "series.json"
        save_map_file(path, MapTuple.truncated(
            (SparsePoly.monomial(Z1, (2,)),), 8))
        proc = run_cli("lab", str(path))
        assert proc.returncode == 2

    @pytest.mark.parametrize("ceiling", ["0", "-1"])
    def test_term_ceiling_below_1_exits_2(self, ceiling, triangular_map, monkeypatch,
                                          capsys):
        monkeypatch.setenv("AGCALC_TERM_CEILING", ceiling)
        assert main(["lab", triangular_map]) == 2
        assert "AGCALC_TERM_CEILING must be >= 1" in capsys.readouterr().err

    def test_abort_keeps_sections_finished_before_it(self, tmp_path, monkeypatch, capsys):
        # the k=0 scan runs through m=n=3 and aborts on P^3, which has 4 terms
        path = tmp_path / "chain.json"
        save_map_file(path, MapTuple.exact((SparsePoly.monomial(Z3, (0, 2, 0)),
                                            SparsePoly.monomial(Z3, (0, 0, 2)),
                                            SparsePoly.zero(Z3))),
                      {"name": "chain", "nt_degree": 2})
        monkeypatch.setenv("AGCALC_TERM_CEILING", "3")
        assert main(["lab", str(path), "--m-max", "1", "--format", "json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in report["checks"]] == ["nilpotency certificate",
                                                         "resource guard"]
        assert report["result"] == {"det_deformation": "1", "nilpotent": True}
        assert report["flags"]["partial"] is True

    def test_term_ceiling_exits_3(self, tmp_path):
        path = tmp_path / "wide.json"
        comps = (SparsePoly.monomial(Z2, (0, 2)) + SparsePoly.monomial(Z2, (0, 3)),
                 SparsePoly.monomial(Z2, (2, 0)))
        save_map_file(path, MapTuple.exact(comps))
        proc = run_cli("lab", str(path), "--m-max", "6", "--format", "json",
                       env_extra={"AGCALC_TERM_CEILING": "5"})
        assert proc.returncode == 3
        report = json.loads(proc.stdout)
        assert report["flags"]["partial"] is True


class TestCorpus:
    def test_triangular_invert_all(self):
        proc = run_cli("corpus", "--family", "triangular", "--n", "2",
                       "--count", "3", "--run", "invert-all", "--degree", "5",
                       "--format", "json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["result"] == {"items": 3, "passed": 3, "failed": 0, "skipped": 0}

    def test_control_lab_reports_non_nilpotent(self):
        proc = run_cli("corpus", "--family", "control", "--n", "2",
                       "--count", "2", "--run", "lab", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        for check in report["checks"]:
            assert "nilpotent=False" in check["detail"]

    def test_missing_family_exits_2(self):
        proc = run_cli("corpus", "--run", "lab")
        assert proc.returncode == 2

    def test_missing_n_exits_2(self):
        proc = run_cli("corpus", "--family", "control", "--run", "lab")
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv, message", [
        (["--run", "lab", "--m-max", "0"], "--m-max must be >= 1"),
        (["--run", "verify", "--xi-degree", "-1"], "--xi-degree must be >= 0"),
    ])
    def test_bad_numeric_argument_exits_2(self, argv, message, capsys):
        assert main(["corpus", "--family", "triangular", "--n", "2"] + argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--run", "invert-all", "--degree", "3", "--m-max", "0"],
        ["--run", "lab", "--m-max", "2", "--xi-degree", "-1"],
    ])
    def test_numeric_argument_checked_only_for_its_run(self, argv):
        assert main(["corpus", "--family", "triangular", "--n", "2", "--count", "1"] + argv) == 0


def _count_calls(monkeypatch, functions) -> dict:
    """Count calls to each function through every agcalc module that binds it."""
    counts = {}
    for func in functions:
        counts[func.__name__] = 0

        def counted(*args, _func=func, **kwargs):
            counts[_func.__name__] += 1
            return _func(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "agcalc" and getattr(module, func.__name__, None) is func:
                monkeypatch.setattr(module, func.__name__, counted)
    return counts


class TestWorkCounts:
    """Each command computes every oracle, certificate and scan once."""

    def test_verify_builds_two_oracles(self, triangular_map, monkeypatch, capsys):
        counts = _count_calls(monkeypatch, [agcalc.inversion.invert_fixed_point])
        assert main(["verify", triangular_map, "--degree", "4", "--xi-degree", "2"]) == 0
        assert counts == {"invert_fixed_point": 2}

    @pytest.mark.parametrize("mapfile", ["triangular_map", "control_map"])
    def test_lab_one_certificate_and_one_scan_per_k(self, mapfile, request, monkeypatch,
                                                    capsys):
        counts = _count_calls(monkeypatch, [agcalc.lab.is_nilpotent,
                                            agcalc.lab.vanishing_scan_poly])
        assert main(["lab", request.getfixturevalue(mapfile)]) == 0
        assert counts == {"is_nilpotent": 1, "vanishing_scan_poly": 2}


class TestDeterminism:
    def test_reports_byte_identical(self, triangular_map, tmp_path):
        a = run_cli("lab", triangular_map, "--format", "json")
        b = run_cli("lab", triangular_map, "--format", "json")
        assert a.stdout == b.stdout
        c = run_cli("verify", triangular_map, "--degree", "3")
        d = run_cli("verify", triangular_map, "--degree", "3")
        assert c.stdout == d.stdout

    def test_timing_stays_out_of_report(self, square_map):
        a = run_cli("invert", square_map, "--degree", "4", "--format", "json")
        b = run_cli("invert", square_map, "--degree", "4", "--format", "json",
                    "--timing")
        assert a.stdout == b.stdout
        assert "elapsed_seconds=" in b.stderr

    def test_out_file_and_json_roundtrip(self, square_map, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("invert", square_map, "--degree", "3", "--out", str(out))
        assert proc.returncode == 0
        report = Report.from_json(out.read_text())
        assert report.command == "invert"
        assert report.passed
        assert report.to_json() == out.read_text()


def _perturb_component_2(route):
    """Wrap an inversion route so component 2 of its G gains z1^2."""
    def perturbed(h, bound, **kwargs):
        res = route(h, bound, **kwargs)
        comps = list(res.G.components)
        comps[1] = comps[1] + SparsePoly.monomial(res.G.vars, (2,) + (0,) * (h.n - 1))
        return dataclasses.replace(res, G=MapTuple(tuple(comps), res.G.trunc))
    return perturbed


@pytest.mark.parametrize("route, method", [("invert_lambda", "lambda_series"),
                                           ("invert_ag", "abhyankar_gurjar")])
class TestAgreementWitness:
    """A route that disagrees in component 2 fails with a witness naming it."""

    @pytest.fixture(autouse=True)
    def perturb(self, route, monkeypatch):
        monkeypatch.setattr(agcalc.inversion, route,
                            _perturb_component_2(getattr(agcalc.inversion, route)))

    def run_main(self, argv, capsys) -> dict:
        code = main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        assert code == 1, out
        return json.loads(out)

    def agreement_check(self, report) -> dict:
        return next(c for c in report["checks"] if c["name"] == "cross-method agreement")

    def test_invert_all(self, method, triangular_map, capsys):
        report = self.run_main(["invert", triangular_map, "--degree", "4"], capsys)
        check = self.agreement_check(report)
        assert check["status"] == "fail"
        assert check["witness"] == f"{method} component 2: z1^2: 1 vs 0"

    def test_verify(self, method, triangular_map, capsys):
        report = self.run_main(["verify", triangular_map, "--degree", "4",
                                "--xi-degree", "2"], capsys)
        check = self.agreement_check(report)
        assert check["status"] == "fail"
        assert check["witness"] == f"{method} component 2: z1^2: 1 vs 0"

    def test_corpus_invert_all(self, method, capsys):
        report = self.run_main(["corpus", "--family", "triangular", "--n", "2",
                                "--count", "2", "--run", "invert-all",
                                "--degree", "4"], capsys)
        assert report["result"]["failed"] == 2
        for check in report["checks"]:
            assert check["status"] == "fail"
            assert check["detail"] == "cross-method agreement"
            assert check["witness"] == f"{method} component 2: z1^2: 1 vs 0"
