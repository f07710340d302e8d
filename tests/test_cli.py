"""End-to-end CLI behavior: exit codes, report determinism, golden bytes."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import agcalc.cli
import agcalc.inversion
import agcalc.lab
import agcalc.weyl
from agcalc.cli import main
from agcalc.inversion import InversionResult
from agcalc.lab import check_equivalences, standard_corpus
from agcalc.mapfile import save_map_file
from agcalc.poly import MapTuple, SparsePoly, VarSet

Z1 = VarSet.z(1)
Z2 = VarSet.z(2)
Z3 = VarSet.z(3)


# the child imports the same agcalc as this process, installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(agcalc.lab.__file__))


def run_python(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=timeout)


def run_cli(*argv, env_extra=None, timeout=None):
    return run_python("-m", "agcalc", *argv, env_extra=env_extra, timeout=timeout)


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

    def test_exponent_coefficient_exits_2_at_once(self, tmp_path):
        # as a Fraction, "1e999999" is a million digits; the grammar refuses it unread
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "n": 1, "components": [[{"coeff": "1e999999", "exps": [2]}]]}))
        proc = run_cli("invert", str(path), "--degree", "3", timeout=10)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "1e999999" in proc.stderr

    def test_float_coefficient_exits_2(self, tmp_path, capsys):
        path = tmp_path / "float.json"
        path.write_text('{"n": 1, "components": '
                        '[[{"coeff": 0.12345678901234567890123, "exps": [2]}]]}')
        assert main(["invert", str(path), "--degree", "3"]) == 2
        assert "coefficient must be a string or an integer" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        proc = run_cli("invert", "/nonexistent/map.json", "--degree", "3")
        assert proc.returncode == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 1, "components": [[]], "metadata": {"name": "\xe9"}}')
        assert main(["invert", str(path), "--degree", "3"]) == 2
        assert "is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ('{"n": 100000}', "field 'n' is 100000"),
        ('{"n": 1001, "components": []}', "field 'n' is 1001"),
        ('{"n": 100000, "components": [[]]}', "field 'n' is 100000"),
        ('{"n": 900, "components": [[]]}', "components must list exactly n=900 components")])
    def test_large_n_or_wrong_component_count_exits_2_at_once(self, tmp_path, capsys,
                                                             body, message):
        # a layout's memory grows with n squared, about 20 GB at n = 100,000;
        # the map file grammar refuses such an n, or a component count other
        # than n, before any layout is built
        path = tmp_path / "wide.json"
        path.write_text(body)
        tracemalloc.start()
        try:
            code = main(["lab", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        proc = run_cli("invert", str(path), "--degree", "3", timeout=10)
        assert proc.returncode == 2 and message in proc.stderr

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        # the JSON reader gives up with a RecursionError, not a JSONDecodeError
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        assert main(["invert", str(path), "--degree", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not valid JSON" in err
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("degree", [1, 2])
    def test_low_degree_passes(self, degree, triangular_map, capsys):
        # the k=2 moment's order bound lies past a window this low
        assert main(["verify", triangular_map, "--degree", str(degree)]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_nonunit_jacobian_path(self, square_map):
        proc = run_cli("verify", square_map, "--degree", "6", "--xi-degree", "2",
                       "--q", "1 + z1")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_battery_exponents_are_the_small_product_tuples(self):
        # built directly, in the order of the product they replace
        for n in range(1, 7):
            assert agcalc.cli._small_exponents(n) == [
                e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2], n

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


@pytest.fixture()
def control_n3_map(tmp_path):
    """Item 1 of the n=3 control cell: its k=1 chain outgrows its k=0 chain."""
    item = agcalc.lab.gen_corpus(
        agcalc.lab.CorpusSpec(n=3, family="control", count=3, seed=0))[1]
    path = tmp_path / "control-n3-1.json"
    save_map_file(path, item.h, {"name": item.item_id})
    return str(path)


CONTROL_N3_HEAD = (
    "# lab (sha256:a63da62ecfd7d741df69bdc616446d0b2ef2967711aa3d52a74379618cf8246f)\n")
CONTROL_N3_CERT = "PASS  nilpotency certificate  [nilpotent=False]\n"
CONTROL_N3_EQUIV = (
    "PASS  nilpotent iff scan vanishes  [witness m=1 <= n=3: -2*z2*z3 + 2*z1]\n"
    "skip  deformed inverse stabilizes at known t-degree  [not nilpotent]\n"
    "skip  deformed Jacobian series  [not nilpotent]\n")
CONTROL_N3_DET = "det_deformation = -4*z1*z2*z3*t^2 + 2*z2*z3*t - 2*z1*t + 1\n"


def _guard_lines(witness: str) -> tuple[str, str]:
    """The resource-guard check line and the flag lines of a partial report."""
    return (f"FAIL  resource guard  [scan aborted at term ceiling]  witness: {witness}\n",
            f"flag  partial = True\nflag  resource_guard = {witness}\n")


GUARD_35, FLAGS_35 = _guard_lines("term count 35 exceeded ceiling 20")

# every lab mode on control_n3_map at ceiling 20; P^4 has 35 terms, so
# every shown scan aborts and only the unguarded certificate finishes.
# equiv shows no scan: its k=0 scan ends at the witness m=1, on P^1
PARTIAL_REPORTS = {
    "nilpotent": (0, CONTROL_N3_HEAD + CONTROL_N3_CERT + CONTROL_N3_DET
                  + "nilpotent = False\noverall: PASS\n"),
    "scan0": (3, CONTROL_N3_HEAD + GUARD_35 + FLAGS_35 + "overall: FAIL\n"),
    "scan1": (3, CONTROL_N3_HEAD + GUARD_35 + FLAGS_35 + "overall: FAIL\n"),
    "equiv": (0, CONTROL_N3_HEAD + CONTROL_N3_EQUIV + "nilpotent = False\noverall: PASS\n"),
    "all": (3, CONTROL_N3_HEAD + CONTROL_N3_CERT + GUARD_35 + CONTROL_N3_DET
            + "nilpotent = False\n" + FLAGS_35 + "overall: FAIL\n"),
}


class TestLab:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("claim_off", [-1, 0, 1])
    def test_equiv_lists_the_checks_of_check_equivalences(self, seed, claim_off, tmp_path,
                                                          capsys):
        # every polynomial map of the corpus with its own nt_degree, and each
        # nilpotent one with a claim wrong by one either way
        items = [item for item in standard_corpus(seed) if item.is_polynomial
                 and (claim_off == 0 or item.nilpotent and item.nt_degree + claim_off >= 0)]
        assert items
        for item in items:
            claim = item.nt_degree if claim_off == 0 else item.nt_degree + claim_off
            path = str(tmp_path / f"{item.item_id}.json")
            save_map_file(path, item.h, {"name": item.item_id, "nt_degree": claim})
            want = [c.to_dict()
                    for c in check_equivalences(item.h, 4, known_nt_degree=claim).checks]
            main(["lab", path, "--checks", "equiv", "--m-max", "4", "--format", "json"])
            assert json.loads(capsys.readouterr().out)["checks"] == want, item.item_id
            main(["lab", path, "--checks", "all", "--m-max", "4", "--format", "json"])
            got = json.loads(capsys.readouterr().out)["checks"]
            assert [c["name"] for c in got[:3]] == [
                "nilpotency certificate", "vanishing scan k=0", "vanishing scan k=1"]
            assert got[3:] == want, item.item_id

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
        for checks in ("nilpotent", "scan0", "scan1", "equiv", "all"):
            assert main(["lab", str(path), "--checks", checks]) == 2, checks

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

    def test_abort_in_k1_tail_keeps_the_k0_section(self, tmp_path, monkeypatch, capsys):
        # both scans share one chain; this one trips on P^5, which only the
        # k=1 scan needs, so the finished k=0 section stays in the report
        item = agcalc.lab.gen_corpus(
            agcalc.lab.CorpusSpec(n=3, family="cubic", count=3, seed=0))[1]
        path = tmp_path / "cubic.json"
        save_map_file(path, item.h, {"name": item.item_id, "nt_degree": item.nt_degree})
        monkeypatch.setenv("AGCALC_TERM_CEILING", "200")
        assert main(["lab", str(path), "--m-max", "4"]) == 3
        assert capsys.readouterr().out == (
            "# lab (sha256:173ec6b5f0a75f3a1629e5fde0ffc08a8558fd1e751f56299c6b82743a1a3094)\n"
            "PASS  nilpotency certificate  [nilpotent=True]\n"
            "PASS  vanishing scan k=0  [all zero]\n"
            "FAIL  resource guard  [scan aborted at term ceiling]  "
            "witness: term count 266 exceeded ceiling 200\n"
            "det_deformation = 1\n"
            "nilpotent = True\n"
            "flag  partial = True\n"
            "flag  resource_guard = term count 266 exceeded ceiling 200\n"
            "overall: FAIL\n")

    def test_abort_in_k0_part_keeps_the_k1_section(self, tmp_path, monkeypatch, capsys):
        # without nt_degree the k=1 scan runs through --m-max 1 only and
        # finishes on P^2; the k=0 scan through m=n=3 trips later in the chain
        item = agcalc.lab.gen_corpus(
            agcalc.lab.CorpusSpec(n=3, family="cubic", count=3, seed=0))[1]
        path = tmp_path / "cubic.json"
        save_map_file(path, item.h, {"name": item.item_id})
        monkeypatch.setenv("AGCALC_TERM_CEILING", "40")
        assert main(["lab", str(path), "--m-max", "1"]) == 3
        assert capsys.readouterr().out == (
            "# lab (sha256:925322f86845258055c2613acd731e3fe1eb81bdce2d384beb40fcc782e90df6)\n"
            "PASS  nilpotency certificate  [nilpotent=True]\n"
            "PASS  vanishing scan k=1  [last nonzero at m=1]\n"
            "FAIL  resource guard  [scan aborted at term ceiling]  "
            "witness: term count 80 exceeded ceiling 40\n"
            "det_deformation = 1\n"
            "nilpotent = True\n"
            "flag  partial = True\n"
            "flag  resource_guard = term count 80 exceeded ceiling 40\n"
            "overall: FAIL\n")

    @pytest.mark.parametrize("checks", sorted(PARTIAL_REPORTS))
    def test_partial_report_per_mode(self, checks, control_n3_map, monkeypatch, capsys):
        monkeypatch.setenv("AGCALC_TERM_CEILING", "20")
        code = main(["lab", control_n3_map, "--m-max", "4", "--checks", checks])
        assert (code, capsys.readouterr().out) == PARTIAL_REPORTS[checks]

    def test_abort_in_own_k1_chain_keeps_the_finished_checks(self, control_n3_map,
                                                             monkeypatch, capsys):
        # check (ii) is skipped, so the k=0 scan the checks read runs through
        # m=4 and only the shown k=1 scan needs P^5; the chain trips at
        # lambda(P^5), and the finished checks stay
        guard, flags = _guard_lines("term count 70 exceeded ceiling 60")
        monkeypatch.setenv("AGCALC_TERM_CEILING", "60")
        assert main(["lab", control_n3_map, "--m-max", "4"]) == 3
        assert capsys.readouterr().out == (
            CONTROL_N3_HEAD + CONTROL_N3_CERT
            + "PASS  vanishing scan k=0  [first nonzero at m=1]\n"
            + CONTROL_N3_EQUIV + guard + CONTROL_N3_DET + "nilpotent = False\n"
            + flags + "overall: FAIL\n")
        assert main(["lab", control_n3_map, "--m-max", "4", "--checks", "equiv"]) == 0
        assert capsys.readouterr().out == (
            CONTROL_N3_HEAD + CONTROL_N3_EQUIV + "nilpotent = False\noverall: PASS\n")

    def test_equiv_stops_at_the_witness_but_a_shown_scan_runs_on(self, tmp_path, monkeypatch,
                                                                 capsys):
        # the k=0 scan equiv reads ends at its witness m=1; the one all
        # shows runs to --m-max 6 and trips the ceiling on the way
        z4 = VarSet.z(4)

        def m(*exps):
            return SparsePoly.monomial(z4, exps)
        path = tmp_path / "quadratic-n4.json"
        save_map_file(path, MapTuple.exact((m(2, 0, 0, 0) + m(0, 1, 1, 0) + m(0, 0, 1, 1),
                                            m(1, 0, 1, 0) + m(0, 0, 0, 2),
                                            m(0, 2, 0, 0) + m(1, 0, 0, 1),
                                            m(1, 1, 0, 0) + m(0, 1, 0, 1))))
        monkeypatch.setenv("AGCALC_TERM_CEILING", "500")
        assert main(["lab", str(path), "--m-max", "6", "--checks", "equiv"]) == 0
        assert "[witness m=1 <= n=4: 2*z1 + z2]" in capsys.readouterr().out
        assert main(["lab", str(path), "--m-max", "6", "--checks", "all"]) == 3
        assert "witness: term count 859 exceeded ceiling 500" in capsys.readouterr().out

    @pytest.mark.parametrize("change", ["rewrite", "remove"])
    def test_digest_is_of_the_bytes_parsed(self, change, triangular_map, monkeypatch,
                                           capsys):
        # an editor may rewrite or replace the file while a run is going on
        with open(triangular_map, "rb") as f:
            parsed = f.read()
        real = agcalc.cli.is_nilpotent
        calls = []

        def changing(h):
            calls.append(h)
            if change == "rewrite":
                with open(triangular_map, "w", encoding="utf-8") as f:
                    f.write('{"n": 1, "components": [[]]}\n')
            else:
                os.remove(triangular_map)
            return real(h)
        monkeypatch.setattr(agcalc.cli, "is_nilpotent", changing)
        assert main(["lab", triangular_map, "--format", "json"]) == 0
        assert len(calls) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["input_digest"] == "sha256:" + hashlib.sha256(parsed).hexdigest()

    def test_values_longer_than_the_int_string_limit(self, tmp_path, capsys):
        # c has 1,500 digits, so the m=3 value 720*c^3*z1^3 has 4,502 and
        # renders past Python's default 4,300-digit int-string limit
        c = int("7" * 1500)
        path = tmp_path / "long.json"
        save_map_file(path, MapTuple.exact((SparsePoly.monomial(Z1, (2,), c),)))
        assert main(["lab", str(path), "--m-max", "3", "--checks", "scan0",
                     "--format", "json"]) == 0
        values = json.loads(capsys.readouterr().out)["result"]["scan0"]["values"]
        assert values[-1] == {"m": 3, "value": f"{720 * c ** 3}*z1^3"}
        assert len(values[-1]["value"]) == 4508

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
        (["--run", "invert-all", "--degree", "0"], "--degree must be >= 1"),
        (["--run", "verify", "--degree", "0"], "--degree must be >= 1"),
    ])
    def test_bad_numeric_argument_exits_2(self, argv, message, capsys):
        assert main(["corpus", "--family", "triangular", "--n", "2"] + argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["triangular", "cubic", "control", "series", "mixed"])
    def test_count_below_one_exits_2_for_every_family(self, family, capsys):
        # the mixed corpus ignores --count, but its report would record it
        assert main(["corpus", "--family", family, "--n", "2", "--count", "0",
                     "--run", "lab"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "corpus count must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["--run", "invert-all", "--degree", "3", "--m-max", "0"],
        ["--run", "lab", "--m-max", "2", "--xi-degree", "-1"],
        ["--run", "lab", "--m-max", "2", "--degree", "0"],
    ])
    def test_numeric_argument_checked_only_for_its_run(self, argv):
        assert main(["corpus", "--family", "triangular", "--n", "2", "--count", "1"] + argv) == 0

    def test_verify_caps_xi_degree_at_degree(self, capsys):
        # the window rule caps --xi-degree at --degree, as for verify on one map
        assert main(["corpus", "--family", "triangular", "--n", "2", "--count", "2",
                     "--run", "verify", "--degree", "3", "--xi-degree", "5"]) == 0
        out, err = capsys.readouterr()
        assert out.count("[verify D=3 K=3]") == 2 and "K=5" not in out
        assert err.count("warning: window rule caps effective xi-degree at 3") == 1


class TestSummationCutoff:
    """A series sum that stops one shell early fails on the shell it discards."""

    @pytest.fixture(autouse=True)
    def stop_early(self, monkeypatch):
        sum_shells = agcalc.inversion._sum_shells

        def early(shells, vs, last, bound, **kwargs):
            return sum_shells(shells, vs, last - 1, bound, **kwargs)
        monkeypatch.setattr(agcalc.inversion, "_sum_shells", early)

    @pytest.mark.parametrize("method, shell", [
        ("ag", "derivative-sum term at |alpha|=3"), ("lambda", "phase-series term at m=3"),
        ("all", "derivative-sum term at |alpha|=3")])
    def test_invert_exits_1(self, method, shell, square_map, capsys):
        assert main(["invert", square_map, "--degree", "5", "--method", method]) == 1
        assert f"error: discarded {shell} has order <= 5: " in capsys.readouterr().err

    def test_corpus_reports_the_item(self, capsys):
        assert main(["corpus", "--family", "control", "--n", "2", "--count", "2",
                     "--run", "invert-all", "--degree", "5", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["failed"] == 2
        for check in report["checks"]:
            assert (check["status"], check["detail"]) == ("fail", "summation cutoff")
            assert check["witness"].startswith(
                "discarded derivative-sum term at |alpha|=3 has order <= 5: ")

    @pytest.mark.parametrize("argv", [["invert", "m.json", "--degree", "3"],
                                      ["corpus", "--family", "mixed", "--run", "invert-all"]])
    def test_no_debug_switch(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--debug"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --debug" in capsys.readouterr().err


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

    def test_verify_builds_one_oracle_and_one_jf(self, triangular_map, monkeypatch, capsys):
        # the oracle at D + 1 also stands in for route 1, cut at D; JF at D feeds
        # both series routes, the chain rule, the xi-moments and the transport
        counts = _count_calls(monkeypatch, [agcalc.inversion.invert_fixed_point,
                                            agcalc.inversion.jacobian_factor])
        assert main(["verify", triangular_map, "--degree", "4", "--xi-degree", "2"]) == 0
        assert counts == {"invert_fixed_point": 1, "jacobian_factor": 1}
        counts.update(invert_fixed_point=0, jacobian_factor=0)
        assert main(["corpus", "--family", "cubic", "--n", "2", "--count", "3",
                     "--run", "verify", "--degree", "4"]) == 0
        assert counts == {"invert_fixed_point": 3, "jacobian_factor": 3}

    def test_symbol_battery_once_per_n(self, monkeypatch, capsys):
        # the battery reads n alone, so a corpus of three n = 2 maps runs it
        # once: normal_order on the 6 x 6 monomials with |a|, |b| <= 2
        agcalc.cli._symbol_battery.cache_clear()
        counts = _count_calls(monkeypatch, [agcalc.weyl.normal_order])
        assert main(["corpus", "--family", "triangular", "--n", "2", "--count", "3",
                     "--run", "verify", "--degree", "4"]) == 0
        assert counts == {"normal_order": 36}

    @pytest.mark.parametrize("mapfile", ["triangular_map", "control_map"])
    def test_lab_one_certificate_and_one_scan_per_k(self, mapfile, request, monkeypatch,
                                                    capsys):
        # every mode reads both scans it needs, shown or checked, off one chain
        path = request.getfixturevalue(mapfile)
        counts = _count_calls(monkeypatch, [agcalc.lab.is_nilpotent,
                                            agcalc.lab.vanishing_scan_poly])
        for checks in ("nilpotent", "scan0", "scan1", "equiv", "all"):
            counts.update(is_nilpotent=0, vanishing_scan_poly=0)
            assert main(["lab", path, "--checks", checks]) == 0
            assert counts == {"is_nilpotent": int(checks not in ("scan0", "scan1")),
                              "vanishing_scan_poly": int(checks != "nilpotent")}, checks

    def test_lab_forms_the_whole_determinant_at_most_once(self, control_map, tmp_path,
                                                          monkeypatch, capsys):
        # a nonzero trace decides the certificate, so only the modes that show
        # det_deformation form it; with tr JH = 0 the certificate forms it and
        # the report reuses it
        swap = tmp_path / "swap.json"
        save_map_file(swap, MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)),
                                            SparsePoly.monomial(Z2, (2, 0)))))
        counts = _count_calls(monkeypatch, [agcalc.lab.deformation_det])
        for path, formed in ((control_map, {"nilpotent": 1, "equiv": 0, "all": 1}),
                             (str(swap), {"nilpotent": 1, "equiv": 1, "all": 1})):
            for checks in ("nilpotent", "scan0", "scan1", "equiv", "all"):
                counts.update(deformation_det=0)
                assert main(["lab", path, "--checks", checks]) == 0
                assert counts == {"deformation_det": formed.get(checks, 0)}, (path, checks)


class TestStartup:
    def test_cli_import_loads_no_dataclasses(self):
        # what the import adds, so that modules a site hook loaded do not count;
        # the same line runs as a CI step on every supported Python
        proc = run_python("-c", "import sys; before = set(sys.modules); import agcalc.cli; "
                          "sys.exit('dataclasses' in set(sys.modules) - before)")
        assert proc.returncode == 0, proc.stderr


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
        # the --out file holds the very report that --format json prints
        out = tmp_path / "report.json"
        proc = run_cli("invert", square_map, "--degree", "3", "--format", "json",
                       "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text() == proc.stdout
        report = json.loads(proc.stdout)
        assert report["command"] == "invert" and report["status"] == "pass"


def _perturb_component_2(route):
    """Wrap an inversion route so component 2 of its G gains z1^2."""
    def perturbed(h, bound, **kwargs):
        res = route(h, bound, **kwargs)
        comps = list(res.G.components)
        comps[1] = comps[1] + SparsePoly.monomial(res.G.vars, (2,) + (0,) * (h.n - 1))
        return InversionResult(MapTuple(tuple(comps), res.G.trunc), res.N, res.method, res.D,
                               res.checked_discards)
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
