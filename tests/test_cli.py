"""Command-line contract: exit codes, JSON shapes, determinism."""

import importlib
import importlib.util
import inspect
import json
import pkgutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import nazeta
import nazeta.acceptance
import nazeta.algebra
import nazeta.cli
import nazeta.residues
from nazeta.cli import EXIT_INPUT, EXIT_MATH_FAIL, EXIT_OK, main
from nazeta.curve import FactorProduct


GENUS2_SPEC = {"genus": 2, "q": 2, "numerator_coeffs": ["1", "0", "4", "0", "4"]}


@pytest.fixture
def elliptic_file(tmp_path):
    path = tmp_path / "elliptic.json"
    path.write_text(json.dumps({"genus": 1, "q": 2, "point_counts": [3]}))
    return str(path)


@pytest.fixture
def bad_curve_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"genus": 1, "q": 2, "numerator_coeffs": ["1", "1", "3"]})
    )
    return str(path)


class TestExitCodes:
    def test_curve_validate_ok(self, elliptic_file, tmp_path):
        out = tmp_path / "out.json"
        code = main(["curve-validate", "--curve", elliptic_file,
                     "--json-out", str(out)])
        assert code == EXIT_OK

    def test_curve_validate_symmetry_violation(self, bad_curve_file):
        assert main(["curve-validate", "--curve", bad_curve_file]) == EXIT_INPUT

    def test_missing_file(self):
        assert main(["pure", "--curve", "/nonexistent.json"]) == EXIT_INPUT

    def test_missing_required_flag(self, elliptic_file):
        assert main(["group", "--curve", elliptic_file]) == EXIT_INPUT

    def test_help_and_usage_errors_return_codes(self):
        assert main(["--help"]) == EXIT_OK
        assert main(["mass", "--help"]) == EXIT_OK
        assert main([]) == EXIT_INPUT
        assert main(["no-such-command"]) == EXIT_INPUT

    def test_mass_ok(self, elliptic_file, tmp_path):
        out = tmp_path / "mass.json"
        code = main(["mass", "--curve", elliptic_file, "--r", "3",
                     "--json-out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["agree"] is True

    def test_printable_mass_near_the_limit_is_computed(self, tmp_path):
        # the digit estimate reads 4,308 here, over the 4,300-digit limit,
        # but the mass has 3,285 digits
        curve = _write(
            tmp_path, "c.json", {"genus": 1, "q": 10**9, "point_counts": [10**9 + 1]}
        )
        out = tmp_path / "mass.json"
        code = main(["mass", "--curve", curve, "--r", "29", "--json-out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["agree"] is True
        assert len(payload["composition_sum"].split("/")[1]) == 3285

    @pytest.mark.parametrize("a1", ["5", "1e200"])
    def test_failed_weil_check_exits_1(self, a1, tmp_path):
        curve = _write(
            tmp_path, "c.json", {"genus": 1, "q": 2, "numerator_coeffs": ["1", a1, "2"]}
        )
        out = tmp_path / "out.json"
        code = main(["curve-validate", "--curve", curve, "--json-out", str(out)])
        assert code == EXIT_MATH_FAIL
        assert json.loads(out.read_text())["weil_check"] is False

    def test_weil_check_with_a_quadruple_root(self, tmp_path):
        # P = (1-2T)^4 over q = 4: every inverse root is 2 = sqrt(q)
        curve = _write(tmp_path, "c.json", {
            "genus": 2, "q": 4, "numerator_coeffs": ["1", "-8", "24", "-32", "16"],
        })
        out = tmp_path / "out.json"
        code = main(["curve-validate", "--curve", curve, "--json-out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["weil_check"] is True

    def test_mass_never_enumerates_compositions(self, tmp_path):
        # the enumeration lives in the tests as an oracle; no library
        # module defines it
        for info in pkgutil.iter_modules(nazeta.__path__):
            module = importlib.import_module(f"nazeta.{info.name}")
            assert not inspect.isfunction(getattr(module, "compositions", None))
        curve = _write(tmp_path, "g2.json", GENUS2_SPEC)
        out = tmp_path / "mass.json"
        code = main(["mass", "--curve", curve, "--r", "13", "--json-out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["agree"] is True


class TestPure:
    def test_scaled_numerator_and_verdict(self, elliptic_file, tmp_path):
        out = tmp_path / "pure.json"
        code = main(["pure", "--curve", elliptic_file, "--r", "2",
                     "--json-out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["numerator"] == ["3", "3", "12"]
        assert data["fe"] is True
        assert data["rh"]["verdict"] == "pass"

    def test_explicit_inputs(self, elliptic_file, tmp_path):
        out = tmp_path / "pure.json"
        code = main([
            "pure", "--curve", elliptic_file, "--r", "2",
            "--alphas", "3", "--beta0", "6", "--json-out", str(out),
        ])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["numerator"] == ["3", "3", "12"]

    def test_alphas_without_beta_rejected(self, elliptic_file):
        code = main(["pure", "--curve", elliptic_file, "--r", "2",
                     "--alphas", "3"])
        assert code == EXIT_INPUT

    def test_zero_alpha0_refused_up_front(self, elliptic_file, monkeypatch, capsys):
        monkeypatch.setattr(nazeta.cli, "pure_zeta", lambda *a: pytest.fail("computed"))
        code = main(["pure", "--curve", elliptic_file, "--r", "2",
                     "--alphas", "0", "--beta0", "1"])
        assert code == EXIT_INPUT
        assert "alpha(0) must be nonzero" in capsys.readouterr().err

    def test_zero_csv_rows(self, elliptic_file, tmp_path):
        csv_out = tmp_path / "zeros.csv"
        code = main(["pure", "--curve", elliptic_file, "--r", "2",
                     "--json-out", str(tmp_path / "p.json"),
                     "--csv-out", str(csv_out)])
        assert code == EXIT_OK
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "re_s,im_s,modulus_u,deviation"
        assert len(lines) == 3
        for line in lines[1:]:
            assert abs(float(line.split(",")[0]) - 0.5) <= 1e-9


class TestGroup:
    def test_json_shape(self, elliptic_file, tmp_path):
        out = tmp_path / "group.json"
        csv_out = tmp_path / "zeros.csv"
        code = main([
            "group", "--type", "A", "--rank", "1", "--p", "1",
            "--curve", elliptic_file, "--json-out", str(out),
            "--csv-out", str(csv_out),
        ])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["zeta"]["num"] == ["4", "1", "1"]
        assert data["c_p"] == "2"
        assert data["normalization"] == [[1, 2, 1]]
        assert data["fe"] is True
        assert data["zeros"]["verdict"] == "pass"

    def test_zero_csv_rows(self, elliptic_file, tmp_path):
        csv_out = tmp_path / "zeros.csv"
        main([
            "group", "--type", "A", "--rank", "1", "--p", "1",
            "--curve", elliptic_file, "--csv-out", str(csv_out),
            "--json-out", str(tmp_path / "g.json"),
        ])
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "re_s,im_s,modulus_u,deviation"
        assert len(lines) == 3
        for line in lines[1:]:
            re_s = float(line.split(",")[0])
            assert abs(re_s - (-1.0)) <= 1e-9

    def test_unsupported_type(self, elliptic_file):
        code = main(["group", "--type", "E", "--rank", "8", "--p", "1",
                     "--curve", elliptic_file])
        assert code == EXIT_INPUT


class TestOtherCommands:
    def test_mixed(self, tmp_path):
        out = tmp_path / "mixed.json"
        code = main(["mixed", "--q", "2", "--N", "3", "--json-out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["partial_identity_exact"] is True
        assert data["partial_rh"]["verdict"] == "fail"

    def test_mixed_double_root(self, tmp_path):
        # 1 + 3t + 4t^2 + 12t^3 + 16t^4 = (1 + 2t)^2 (1 - t + 4t^2)
        out = tmp_path / "mixed.json"
        assert main(["mixed", "--q", "4", "--N", "6", "--json-out", str(out)]) == EXIT_OK
        rh = json.loads(out.read_text())["mixed_rh"]
        assert rh["polynomial"] == ["1", "3", "4", "12", "16"]
        double = [i for i, z in enumerate(rh["roots"]) if z == [-0.5, 0.0]]
        assert len(double) == 2
        assert [rh["deviations"][i] for i in double] == [0.0, 0.0]

    def test_numeric_failure_exits_1(self, monkeypatch, capsys):
        # both root finders end off the roots: exit 1, no traceback
        def off_roots(n):
            return [complex(k + 3, 1) for k in range(n)]

        monkeypatch.setattr(
            nazeta.algebra, "_aberth", lambda coeffs: off_roots(len(coeffs) - 1)
        )
        monkeypatch.setattr(
            nazeta.algebra, "_companion_roots", lambda p: off_roots(p.degree)
        )
        assert main(["mixed", "--q", "2", "--N", "3"]) == EXIT_MATH_FAIL
        assert "numeric failure" in capsys.readouterr().err

    def test_residue_compare(self, elliptic_file, tmp_path):
        out = tmp_path / "rc.json"
        code = main([
            "residue-compare", "--type", "A", "--rank", "2", "--p", "1",
            "--curve", elliptic_file, "--json-out", str(out),
        ])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["certificate"]["passed"] is True

    def test_uniformity_verified(self, elliptic_file, tmp_path):
        out = tmp_path / "uni.json"
        code = main(["uniformity", "--curve", elliptic_file, "--r", "2",
                     "--json-out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["status"] == "verified"
        assert data["match"] == {"a": "2", "b": "-2", "c": "3", "verified": True}

    def test_uniformity_inconclusive(self, elliptic_file, tmp_path):
        out = tmp_path / "uni.json"
        code = main(["uniformity", "--curve", elliptic_file, "--r", "2",
                     "--alphas", "3", "--beta0", "7", "--json-out", str(out)])
        assert code == EXIT_MATH_FAIL
        data = json.loads(out.read_text())
        assert data["status"] == "inconclusive"
        assert data["tried"] == [["2", "-2"], ["-2", "0"]]
        assert data["skipped_irrational"] == []

    def test_numfield(self, tmp_path):
        out = tmp_path / "nf.json"
        code = main(["numfield", "--r", "3", "--json-out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert "volumes" in data and "reduction_probe" in data


class TestConfigAndDeterminism:
    def test_config_file_supplies_flags(self, elliptic_file, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"curve": elliptic_file, "r": 2}))
        out = tmp_path / "out.json"
        code = main(["pure", "--config", str(cfg), "--json-out", str(out)])
        assert code == EXIT_OK

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"no-such-flag": 1}))
        assert main(["numfield", "--config", str(cfg)]) == EXIT_INPUT

    def test_byte_identical_reruns(self, elliptic_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code = main(["pure", "--curve", elliptic_file, "--r", "2",
                         "--json-out", str(out)])
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_version_header_present(self, elliptic_file, tmp_path):
        out = tmp_path / "v.json"
        main(["mass", "--curve", elliptic_file, "--r", "1",
              "--json-out", str(out)])
        assert "version" in json.loads(out.read_text())


class TestZeroPlotData:
    def test_header_only_for_empty(self, tmp_path):
        from nazeta.cli import emit_zero_plot_data

        path = tmp_path / "empty.csv"
        emit_zero_plot_data([], str(path))
        assert path.read_text() == "re_s,im_s,modulus_u,deviation\n"

    def test_ordering(self, tmp_path):
        from nazeta.cli import emit_zero_plot_data

        path = tmp_path / "rows.csv"
        rows = [(1.0, 2.0, 0.5, 0.0), (0.5, -1.0, 0.5, 0.0), (0.2, 2.0, 0.5, 0.0)]
        emit_zero_plot_data(rows, str(path))
        lines = path.read_text().strip().splitlines()[1:]
        ims = [float(line.split(",")[1]) for line in lines]
        assert ims == sorted(ims)


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


GROUP_A1 = ["group", "--type", "A", "--rank", "1", "--p", "1"]


class TestMalformedInput:
    """Every malformed value ends in exit 2 with a message, no traceback."""

    @pytest.mark.parametrize(
        "curve,config,argv",
        [
            ({"genus": 1, "q": 2, "point_counts": ["x"]}, None, ["curve-validate"]),
            ({"genus": 1, "q": 2, "point_counts": 3}, None, ["curve-validate"]),
            ({"genus": 1, "q": 2, "numerator_coeffs": [None, 1, 2]}, None,
             ["curve-validate"]),
            ({"genus": 1, "q": 2, "numerator_coeffs": ["1/0", "1", "2"]}, None,
             ["curve-validate"]),
            ({"genus": float("inf"), "q": 2, "point_counts": [3]}, None,
             ["curve-validate"]),
            ([1, 2], None, ["curve-validate"]),
            (None, None, ["pure", "--alphas", "abc", "--beta0", "1"]),
            (None, None, ["pure", "--alphas", "3", "--beta0", "x"]),
            (None, None, ["pure", "--alphas", "3", "--beta0", "1/0"]),
            (None, {"r": "x"}, ["mass"]),
            (None, {"r": True}, ["mass"]),
            (None, {"r": [2]}, ["mass"]),
            (None, [1], ["mass"]),
            # --tol is gone: any value of it is an unknown flag
            (None, None, GROUP_A1 + ["--tol", "-1"]),
            (None, None, GROUP_A1 + ["--tol", "0"]),
            (None, None, GROUP_A1 + ["--tol", "nan"]),
            (None, None, GROUP_A1 + ["--tol", "inf"]),
            (None, {"tol": -1}, GROUP_A1),
            (None, None, ["mass", "--r", "1000"]),
            (None, None, ["mass", "--r", "0"]),
            (None, None, ["mixed", "--q", "1", "--N", "3"]),
            (None, None, ["mixed", "--q", "2", "--N", "0"]),
            # exact values too large to print (more than 4300 digits)
            (None, None, ["pure", "--alphas", "1e5000", "--beta0", "1"]),
            (None, None, ["pure", "--alphas", "3", "--beta0", "1e5000"]),
            (None, None, ["pure", "--alphas", "3", "--beta0", "1e10000000"]),
            ({"genus": 1, "q": 2, "numerator_coeffs": ["1", "1e5000", "2"]}, None,
             ["curve-validate"]),
            (None, None, ["pure", "--alphas", "1e4290", "--beta0", "1"]),
            ({"genus": 1, "q": 10**9, "point_counts": [10**9 + 1]}, None,
             ["mass", "--r", "40"]),
            (None, None, ["mass", "--r", "41"]),
        ],
    )
    def test_exits_2_with_a_message(
        self, curve, config, argv, elliptic_file, tmp_path, capsys
    ):
        if argv[0] != "mixed":
            curve_file = _write(tmp_path, "c.json", curve) if curve else elliptic_file
            argv = argv + ["--curve", curve_file]
        if config is not None:
            argv = argv + ["--config", _write(tmp_path, "cfg.json", config)]
        start = time.perf_counter()
        assert main(argv) == EXIT_INPUT
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err and "Traceback" not in err

    def test_result_too_large_to_print_exits_2(self, tmp_path, monkeypatch, capsys):
        # past the up-front size refusal, the printing itself is refused
        monkeypatch.setattr(nazeta.cli, "mass_digits_estimate", lambda c, r: 0)
        curve = _write(tmp_path, "g2.json", GENUS2_SPEC)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the rank-40 mass has 688 digits
        try:
            code = main(["mass", "--curve", curve, "--r", "40"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == EXIT_INPUT
        assert "too large to print" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,config",
        [
            (["mass", "--tol", "1"], None),
            (["report-all", "--parallel", "2"], None),
            (["numfield", "--curve", "x.json"], None),
            (["mass"], {"tol": 1}),
            (["mass"], {"config": "other.json"}),
            (["mass", "--conf", "cfg.json"], None),
        ],
    )
    def test_flag_the_subcommand_does_not_read_exits_2(
        self, argv, config, elliptic_file, tmp_path
    ):
        if argv[0] == "mass":
            argv = argv + ["--curve", elliptic_file]
        if config is not None:
            argv = argv + ["--config", _write(tmp_path, "cfg.json", config)]
        assert main(argv) == EXIT_INPUT


class TestConfigPrecedence:
    def test_string_value_converted_like_a_flag(self, elliptic_file, tmp_path):
        out = tmp_path / "mass.json"
        cfg = _write(tmp_path, "cfg.json", {"r": "3", "json_out": str(out)})
        code = main(["mass", "--curve", elliptic_file, "--config", cfg])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["rank"] == 3

    def test_explicit_flag_beats_config(self, elliptic_file, tmp_path):
        cfg = _write(tmp_path, "cfg.json", {"r": 3})
        out = tmp_path / "mass.json"
        argv = ["mass", "--curve", elliptic_file, "--json-out", str(out)]
        assert main(argv + ["--config", cfg]) == EXIT_OK
        assert json.loads(out.read_text())["rank"] == 3
        # wherever it stands
        for extra in (["--r", "4", "--config", cfg], ["--config", cfg, "--r", "4"]):
            assert main(argv + extra) == EXIT_OK
            assert json.loads(out.read_text())["rank"] == 4

    def test_config_supplies_required_flags(self, elliptic_file, tmp_path):
        cfg = _write(tmp_path, "cfg.json", {
            "curve": elliptic_file, "type": "A", "rank": 1, "p": 1,
        })
        out = tmp_path / "group.json"
        code = main(["group", "--config", cfg, "--json-out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["c_p"] == "2"

    def test_builtin_default_when_neither_is_given(self, elliptic_file, tmp_path):
        out = tmp_path / "mass.json"
        main(["mass", "--curve", elliptic_file, "--json-out", str(out)])
        assert json.loads(out.read_text())["rank"] == 2


@pytest.fixture
def residue_fault(monkeypatch):
    """Scale every closed-formula Weyl term seen by the residue oracle."""
    exact = nazeta.residues._weyl_factors
    monkeypatch.setattr(
        nazeta.residues,
        "_weyl_factors",
        lambda *args: exact(*args) * FactorProduct(Fraction(1001, 1000)),
    )


class TestMathematicalFailure:
    def test_residue_mismatch_exits_1_with_every_failure(
        self, residue_fault, elliptic_file, tmp_path
    ):
        out = tmp_path / "rc.json"
        code = main([
            "residue-compare", "--type", "A", "--rank", "2", "--p", "1",
            "--curve", elliptic_file, "--json-out", str(out),
        ])
        assert code == EXIT_MATH_FAIL
        cert = json.loads(out.read_text())["certificate"]
        assert cert["passed"] is False
        assert len(cert["checks"]) == 7  # |W| + 1
        failed = [c["identity"] for c in cert["checks"] if not c["ok"]]
        assert failed == ["surviving term matches closed formula"] * 5 + [
            "summed residues equal the closed period"
        ]

    def test_report_all_with_a_failing_verifier(
        self, residue_fault, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            nazeta.acceptance, "ALL_CRITERIA", (nazeta.acceptance.criterion_6,)
        )
        out = tmp_path / "report.json"
        assert main(["report-all", "--json-out", str(out)]) == EXIT_MATH_FAIL
        (criterion,) = json.loads(out.read_text())["criteria"]
        assert criterion["passed"] is False
        # A2 p=1 and p=2: five surviving terms and the total each
        assert len(criterion["failures"]) == 12
        assert {f["certificate"] for f in criterion["failures"]} == {
            "residue route A2 p=1", "residue route A2 p=2"
        }


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    """A benchmark module, loaded read-only from perfbench/."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# workloads imports only the standard library; oracles imports workloads
# and job the nazeta package, both by plain name
WORKLOADS = _perfbench_module("workloads")
SEED1_CURVES = WORKLOADS.curves_for_seed(1)
GROUP_AND_RESIDUE_JOBS = WORKLOADS.GROUP_SWEEP + WORKLOADS.RESIDUE_ORACLE


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's digest code and its reference digests."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    reference = json.loads((PERFBENCH / "reference_digests.json").read_text())
    return _perfbench_module("oracles"), reference


class TestReportAllGolden:
    def test_exact_fields_match_the_benchmark_reference(self, bench, tmp_path):
        oracles, reference = bench
        out = tmp_path / "report.json"
        # criterion 3 carries the two known-red printed claims
        assert main(["report-all", "--json-out", str(out)]) == EXIT_MATH_FAIL
        payload = json.loads(out.read_text())
        assert oracles.digest(payload) == reference["report[]@fixed"]

    @pytest.mark.parametrize(
        "job",
        GROUP_AND_RESIDUE_JOBS,
        ids=[job.key(SEED1_CURVES) for job in GROUP_AND_RESIDUE_JOBS],
    )
    def test_seed1_job_matches_the_benchmark_reference(self, bench, job, tmp_path):
        oracles, reference = bench
        paths = WORKLOADS.write_curves(SEED1_CURVES, tmp_path)
        out = tmp_path / "out.json"
        argv = WORKLOADS.cli_argv(
            job, paths[job.curve], str(out), str(tmp_path / "out.csv")
        )
        if argv is None:  # a library job, run as the benchmark runs it
            run = _perfbench_module("job").LIBRARY[job.kind]
            output = run({"curve": paths[job.curve], "params": list(job.params)})
            payload = json.loads(json.dumps(output))
        else:
            assert main(argv) == EXIT_OK
            payload = json.loads(out.read_text())
        assert oracles.digest(payload) == reference[job.key(SEED1_CURVES)]
