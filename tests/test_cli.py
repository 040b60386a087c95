"""Command-line contract: exit codes, JSON shapes, determinism."""

import argparse
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nazeta
import nazeta.acceptance
import nazeta.algebra
import nazeta.cli
import nazeta.residues
from nazeta.cli import EXIT_INPUT, EXIT_MATH_FAIL, EXIT_OK, main
from nazeta.curve import GENUS_CAP, WEIL_SIZE_CAP, FactorProduct


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

    @pytest.mark.parametrize(
        "spec",
        [
            {"genus": 1, "q": 3, "point_counts": [2]},
            {"genus": "1", "q": "3", "point_counts": ["2"]},
            {"genus": 1.0, "q": 3.0, "point_counts": [2.0]},
        ],
    )
    def test_integer_fields_read_as_integers(self, spec, tmp_path):
        out = tmp_path / "cv.json"
        argv = ["curve-validate", "--curve", _write(tmp_path, "c.json", spec)]
        assert main(argv + ["--json-out", str(out)]) == EXIT_OK
        curve = json.loads(out.read_text())["curve"]
        assert (curve["genus"], curve["q"]) == (1, 3)

    def test_genus_is_refused_past_the_cap_before_any_arithmetic(self, tmp_path, capsys):
        # refused before any arithmetic; past the cap the exact Weil check
        # alone takes seconds (3.9 s at g = 100, q = 9)
        refusals = ((200, f"up to genus g = {GENUS_CAP}"), (-1, "genus must be >= 1"))
        for g, message in refusals:
            spec = {"genus": g, "q": 2, "point_counts": [3] * 200}
            argv = ["curve-validate", "--curve", _write(tmp_path, "c.json", spec)]
            start = time.perf_counter()
            assert main(argv) == EXIT_INPUT
            assert time.perf_counter() - start < 5
            assert message in capsys.readouterr().err

    def test_genus_at_the_cap_validates(self, tmp_path):
        # P = (1 + 11 T^2)^g: inverse roots +-i sqrt(11), s_m = 2g (-11)^(m/2) for even m
        g, q = GENUS_CAP, 11
        counts = [q**m + 1 - (2 * g * (-q) ** (m // 2) if m % 2 == 0 else 0)
                  for m in range(1, g + 1)]
        spec = {"genus": g, "q": q, "point_counts": counts}
        out = tmp_path / "cv.json"
        argv = ["curve-validate", "--curve", _write(tmp_path, "c.json", spec)]
        assert main(argv + ["--json-out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["point_counts"][:g] == counts
        assert payload["curve"]["numerator_coeffs"][2] == str(g * q)

    def test_weil_check_is_refused_past_its_size_cap(self, tmp_path, capsys):
        # g^3 B^2 = 2.8e11 here; before the cap the check alone took 13 s
        spec = {"genus": GENUS_CAP, "q": 10**9 + 7, "point_counts": [3] * GENUS_CAP}
        argv = ["curve-validate", "--curve", _write(tmp_path, "c.json", spec)]
        start = time.perf_counter()
        assert main(argv) == EXIT_INPUT
        assert time.perf_counter() - start < 1
        assert f"g^3 B^2 = {WEIL_SIZE_CAP}" in capsys.readouterr().err

    @pytest.mark.parametrize("q,code", [(2503, EXIT_OK), (2531, EXIT_INPUT)])
    def test_weil_check_at_its_size_cap(self, q, code, tmp_path):
        # P = (1 + q T^2)^g has B = bits(q^g): 565 at q = 2503, just inside
        # the cap at g = 50, and 566 at q = 2531, just past it
        g = GENUS_CAP
        assert (g**3 * (q**g).bit_length() ** 2 <= WEIL_SIZE_CAP) == (code == EXIT_OK)
        counts = [q**m + 1 - (2 * g * (-q) ** (m // 2) if m % 2 == 0 else 0)
                  for m in range(1, g + 1)]
        spec = {"genus": g, "q": q, "point_counts": counts}
        argv = ["curve-validate", "--curve", _write(tmp_path, "c.json", spec)]
        assert main(argv) == code

    def test_bench_candidate_curves_validate(self, tmp_path):
        # every curve the benchmark's seeds pick from, seeds 1 and 2 among them
        candidates = WORKLOADS.G1_CANDIDATES + WORKLOADS.G2_CANDIDATES
        labels = {c.label for c in candidates}
        for seed in (1, 2):
            assert {c.label for c in WORKLOADS.curves_for_seed(seed).values()} <= labels
        for c in candidates:
            out = tmp_path / "cv.json"
            argv = ["curve-validate", "--curve", _write(tmp_path, "c.json", c.spec)]
            assert main(argv + ["--json-out", str(out)]) == EXIT_OK, c.label
            payload = json.loads(out.read_text())
            assert payload["weil_check"] is True
            assert payload["point_counts"][0] == c.n_points

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

    def test_g2_of_rank_3_refused(self, elliptic_file, capsys):
        code = main(["group", "--type", "G2", "--rank", "3", "--p", "2",
                     "--curve", elliptic_file])
        assert code == EXIT_INPUT
        assert "unsupported root system G2_3" in capsys.readouterr().err

    def test_no_non_finite_value_in_the_json(self, tmp_path):
        # at q = 1000003 the Aberth iteration on the G2 numerator ends in
        # NaN: such a root must not pass the residual bound into the output
        curve = _write(
            tmp_path, "c.json", {"genus": 1, "q": 1000003, "point_counts": [1000004]}
        )
        out = tmp_path / "group.json"
        code = main(["group", "--type", "G2", "--rank", "2", "--p", "2",
                     "--curve", curve, "--json-out", str(out)])
        if code == EXIT_OK:
            def reject(token):
                raise AssertionError(f"non-finite {token} in the JSON")

            json.loads(out.read_text(), parse_constant=reject)
        else:
            assert code == EXIT_MATH_FAIL

    def test_large_q_roots_settle(self, tmp_path):
        # numerator coefficients up to about 1e108: Aberth on the rescaled
        # polynomial p(rho y) meets the residual bound, where Aberth on the
        # raw coefficients and the companion matrix both miss it
        q = 1000003
        curve = _write(
            tmp_path, "c.json", {"genus": 1, "q": q, "point_counts": [q + 1]}
        )
        out = tmp_path / "group.json"
        code = main(["group", "--type", "G2", "--rank", "2", "--p", "2",
                     "--curve", curve, "--json-out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        num = nazeta.algebra.Poly.from_list(
            [Fraction(x) for x in data["zeta"]["num"]]
        )
        zeros = data["zeros"]
        assert len(zeros["zeros_u"]) == num.degree
        assert all(
            math.isfinite(x) for z in zeros["zeros_u"] for x in z
        )
        exact = nazeta.algebra.roots_on_circle(num, Fraction(q) ** int(data["c_p"]))
        assert zeros["verdict"] == ("pass" if exact else "fail")


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
        # the scaled Aberth run and the companion fallback both end off
        # the roots: exit 1, no traceback
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

    @pytest.mark.parametrize(
        "spec, argv",
        [
            (
                {"genus": 1, "q": 2, "point_counts": [3]},
                ["pure", "--r", "2", "--alphas", "1", "--beta0", "1e400"],
            ),
            (
                {"genus": 1, "q": 3, "numerator_coeffs": ["1", "1e400", "3"]},
                ["group", "--type", "A", "--rank", "1", "--p", "1"],
            ),
        ],
        ids=["pure-beta0-1e400", "group-a1-1e400"],
    )
    def test_out_of_double_range_exits_1(self, spec, argv, tmp_path, capsys):
        # a numerator coefficient near 1e400 puts a root out of double
        # range: exit 1 with a message, no OverflowError traceback
        curve = _write(tmp_path, "c.json", spec)
        assert main(argv + ["--curve", curve]) == EXIT_MATH_FAIL
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["group", "--type", "A", "--rank", "1", "--p", "1"]], ids=["group-a1"]
    )
    def test_q_beyond_double_range_exits_1(self, argv, tmp_path, capsys):
        # q = 10^320 is no double: the centre q^(c_p/2) cannot be
        # displayed, so exit 1 with a message, no OverflowError traceback
        q = 10**320
        curve = _write(tmp_path, "c.json", {"genus": 1, "q": q, "point_counts": [q + 1]})
        assert main(argv + ["--curve", curve]) == EXIT_MATH_FAIL
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "Traceback" not in err

    def test_q_beyond_double_range_pure_report(self, tmp_path):
        # Q = 10^320 is no double, but sqrt(Q) and the roots (|T| = 1e-160)
        # are: the RH report is computed, with its exact verdict
        q = 10**320
        curve = _write(tmp_path, "c.json", {"genus": 1, "q": q, "point_counts": [q + 1]})
        out = tmp_path / "pure.json"
        argv = ["pure", "--r", "1", "--curve", curve, "--json-out", str(out)]
        assert main(argv) == EXIT_OK
        rh = json.loads(out.read_text())["rh"]
        assert rh["Q"] == str(q) and rh["verdict"] == "pass"
        assert all(d < 1e-9 for d in rh["deviations"])

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


class TestParser:
    """``main`` builds only the subparser it dispatches to; what a user
    sees must equal the output of the parser with all nine built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["group", "--help"],
            ["mass", "--help"],
            ["no-such-command"],
            ["group", "--bogus"],
            # complete, so the top-level parser reports the extra flag
            # under its own usage line
            ["numfield", "--bogus"],
            [],
            ["group", "-h"],
            # a negative number is a value: argparse stops at the missing --curve
            ["pure", "--beta0", "-1"],
        ],
        ids=[
            "help", "group-help", "mass-help", "bad-command", "group-bogus",
            "numfield-bogus", "empty", "group-h", "negative-beta0",
        ],
    )
    def test_output_equals_the_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code = main(argv)
        got = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            nazeta.cli.build_parser().parse_args(argv)
        full = capsys.readouterr()
        assert (got.out, got.err) == (full.out, full.err)
        assert code == (EXIT_OK if exc.value.code == 0 else EXIT_INPUT)

    def test_one_subparser_per_known_command(self):
        full = nazeta.cli.build_parser()._subparsers._group_actions[0]
        assert list(full.choices) == list(nazeta.cli.COMMANDS)
        for name, (handler, flags, _) in nazeta.cli.COMMANDS.items():
            sub = nazeta.cli.build_parser(name)._subparsers._group_actions[0]
            assert list(sub.choices) == [name]
            options = {
                opt for action in sub.choices[name]._actions
                for opt in action.option_strings
            }
            assert set(flags.split()) <= set(nazeta.cli.FLAGS)
            expected = {f"--{flag}" for flag in flags.split()}
            assert options == {"-h", "--help", "--config"} | expected
            assert sub.choices[name].get_default("handler") is handler
            if "r" in flags.split():  # numfield defaults to r = 4, the rest to 2
                r = sub.choices[name].get_default("r")
                assert r == (4 if name == "numfield" else 2)


def _outcome(parse, argv):
    """("ok", vars of the Namespace) or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("ok", vars(parse(argv)))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


def _argparse_config(argv):
    find_config = argparse.ArgumentParser("nazeta", add_help=False, allow_abbrev=False)
    find_config.add_argument("--config")
    return find_config.parse_known_args(argv)[0]


_VALUES = ["3", "-1", "-1/2", "", "-", "--", "x", "-h", "1e5000"]
_FLAG_NAMES = sorted(nazeta.cli.FLAGS) + ["config"]


@st.composite
def _argvs(draw):
    """A command (now and then a stray token) followed by flags of it,
    now and then one of another command, with or without "=", and now
    and then a stray token; in half the argv every required flag."""
    first = draw(st.sampled_from(list(nazeta.cli.COMMANDS) * 4 + _VALUES))
    own = nazeta.cli.COMMANDS.get(first, (None, "json-out"))[1].split()
    flag = st.sampled_from(own * 8 + _FLAG_NAMES)
    value = st.sampled_from(["3"] * 16 + _VALUES)
    pair = st.tuples(flag, value)
    stray = st.sampled_from(
        list(nazeta.cli.COMMANDS) + _VALUES + [f"--{f}" for f in _FLAG_NAMES]
    )
    piece = st.integers(0, 9).flatmap(
        lambda i: (
            pair.map(lambda t: [f"--{t[0]}", t[1]]) if i < 5
            else pair.map(lambda t: [f"--{t[0]}={t[1]}"]) if i < 9
            else stray.map(lambda t: [t])
        )
    )
    pieces = draw(st.lists(piece, max_size=6))
    if draw(st.booleans()):  # every required flag, so that more argv parse
        required = [f for f in own if nazeta.cli.FLAGS[f].get("required")]
        pieces += [[f"--{f}", "3"] for f in required]
    return [first] + sum(draw(st.permutations(pieces)), [])


class TestFastParser:
    """A well-formed argv is read from the command table; argparse is
    built only for the rest, and both give what the full parser gives."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_argvs())
    def test_parity_with_argparse(self, argv):
        full = _outcome(nazeta.cli.build_parser().parse_args, argv)
        fast = nazeta.cli._fast_parse(argv)
        if fast is not None:
            assert full == ("ok", vars(fast))
        config = _outcome(
            lambda a: argparse.Namespace(config=nazeta.cli._config_path(a)), argv
        )
        assert config == _outcome(_argparse_config, argv)
        if config[0] == "exit":
            assert _outcome(nazeta.cli._parse_args, argv) == config
        elif not config[1]["config"]:  # with one, a file named "3" would be read
            assert _outcome(nazeta.cli._parse_args, argv) == full

    @pytest.mark.parametrize(
        "argv",
        [
            ["mixed", "--q", "2", "--N", "3"],
            ["mixed", "--q=2", "--N=3", "--q", "5"],  # the last value wins
            ["numfield"],
            ["pure", "--curve=", "--alphas", "3,5/2", "--beta0", "6"],
            ["group", "--curve", "c.json", "--type", "A", "--rank", "2", "--p=1"],
        ],
    )
    def test_well_formed_argv_is_read_from_the_table(self, argv):
        fast = nazeta.cli._fast_parse(argv)
        assert fast is not None
        assert vars(fast) == vars(nazeta.cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["no-such-command"],
            ["mixed", "--q", "2", "--N", "3", "-h"],
            ["mixed", "--q", "2", "--N", "3", "--json"],  # abbreviated
            ["mixed", "--q", "2", "--N", "3", "--"],
            ["mixed", "--q", "2", "--N", "3", "x"],
            ["mixed", "--q", "2"],
            ["mixed", "--q", "2", "--N", "3", "--json-out", "-"],
            ["mixed", "--q", "2", "--N", "3", "--json-out=--"],  # argparse reads []
            ["pure", "--curve", "c.json", "--beta0", "-1"],
            ["mixed", "--q", "1", "--N", "3"],  # the converter refuses q = 1
            ["mixed", "--q", "2", "--N", "3", "--curve", "c.json"],
        ],
    )
    def test_anything_else_is_left_to_argparse(self, argv):
        assert nazeta.cli._fast_parse(argv) is None

    def test_table_uses_only_what_the_fast_parser_reads(self):
        # _fast_parse reads required, type and default alone; choices,
        # action, nargs or dest would need argparse, and argparse passes a
        # string default through the flag's type
        for name, spec in nazeta.cli.FLAGS.items():
            assert set(spec) <= {"required", "type", "default", "help"}, name
            assert not isinstance(spec.get("default"), str), name
        for command, (_, flags, defaults) in nazeta.cli.COMMANDS.items():
            assert set(defaults) <= set(flags.split()), command
            assert not any(isinstance(v, str) for v in defaults.values()), command

    def test_no_parser_on_the_happy_path(self, elliptic_file, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("argparse.ArgumentParser built")

        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        out = str(tmp_path / "out.json")
        minimal = {
            "curve-validate": ["--curve", elliptic_file],
            "pure": ["--curve", elliptic_file],
            "mass": ["--curve", elliptic_file],
            "mixed": ["--q", "2", "--N", "3"],
            "group": ["--curve", elliptic_file] + GROUP_A1[1:],
            "residue-compare": ["--curve", elliptic_file] + GROUP_A1[1:],
            "uniformity": ["--curve", elliptic_file],
            "numfield": [],
            "report-all": [],  # exit 1: the known-red acceptance checks
        }
        assert list(minimal) == list(nazeta.cli.COMMANDS)
        for command, flags in minimal.items():
            expected = EXIT_MATH_FAIL if command == "report-all" else EXIT_OK
            assert main([command, *flags, "--json-out", out]) == expected, command
        config = _write(tmp_path, "cfg.json", {"curve": elliptic_file, "r": 3})
        assert main(["mass", "--config", config, "--json-out", out]) == EXIT_OK
        assert json.loads(Path(out).read_text())["rank"] == 3


class TestImportPath:
    def test_mpmath_stays_unimported(self, tmp_path):
        # a fresh interpreter, as the command line runs: neither the import
        # nor report-all nor the number-field volumes load mpmath
        script = """
import sys
import nazeta.cli
assert "mpmath" not in sys.modules, "import nazeta.cli"
for argv in (["report-all", "--json-out", "r.json"], ["numfield", "--r", "8"]):
    nazeta.cli.main(argv)
    assert "mpmath" not in sys.modules, argv[0]
"""
        src = str(Path(nazeta.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


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
            # int() would truncate these to an integer
            ({"genus": 1, "q": 3, "point_counts": [2.5]}, None, ["curve-validate"]),
            ({"genus": True, "q": 2, "point_counts": [3]}, None, ["curve-validate"]),
            ({"genus": 1, "q": 2.5, "point_counts": [3]}, None, ["curve-validate"]),
            ({"genus": 1, "q": 2, "point_counts": [True]}, None, ["curve-validate"]),
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

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["curve-validate", "--curve=--"], "--curve"),
            (["mass", "--curve", "{curve}", "--r=--"], "--r"),
            (["mixed", "--q=--", "--N", "3"], "--q"),
            (["pure", "--curve", "{curve}", "--alphas=--", "--beta0", "1"], "--alphas"),
        ],
    )
    def test_double_dash_value_exits_2(self, argv, flag, elliptic_file, capsys):
        # argparse drops the "--" of --flag=-- and leaves the flag an empty list
        argv = [a.format(curve=elliptic_file) for a in argv]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"argument {flag}: expected one argument" in err and "usage:" in err

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
