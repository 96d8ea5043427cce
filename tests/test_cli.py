"""Tests for the command line interface: grammar, output, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import superweyl
from superweyl import AlgebraDescriptor, build_datum, cli, datum_from_text
from superweyl.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    format_weight_expr,
    main,
    parse_weight,
)
from superweyl.errors import UnknownSymbol, WeightParseError
from superweyl.rootdata import vadd, vscale, zero_weight
from superweyl.weyl import generate, sign

from golden import (
    CLI_CASES,
    CLOSED_GOLDEN,
    GROUP_CASES,
    GROUP_GOLDEN,
    cli_golden_path,
    cli_transcript,
    closed_coeff_cases,
    group_table,
)
from test_rootdata import (
    A1A1B_TEXT,
    A3_TEXT,
    INFINITE_TEXTS,
    INTERLEAVED_TEXT,
    NON_INTEGRAL_CARTAN_TEXT,
    datum_file_text,
    pi_index_component_gids,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(argv, timeout=None):
    """Run the CLI in a fresh interpreter, so an escaping exception shows."""
    env = dict(os.environ, PYTHONPATH=str(Path(superweyl.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "superweyl.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestWeightGrammar:
    def setup_method(self):
        self.d = build_datum(AlgebraDescriptor("sl", 3, 2))

    def test_zero_literal(self):
        assert parse_weight("0", self.d) == zero_weight(self.d.dim)

    def test_isotropic_simple_root_expression(self):
        beta = parse_weight("eps[1] + (-1)*delta[1]", self.d)
        assert beta == self.d.positive_odd[0].vector

    def test_subtraction_matches_negative_coefficient(self):
        lhs = parse_weight("eps[1] - delta[1]", self.d)
        rhs = parse_weight("eps[1] + (-1)*delta[1]", self.d)
        assert lhs == rhs

    def test_named_atoms(self):
        assert parse_weight("tau", self.d) == self.d.tau
        assert parse_weight("rho", self.d) == self.d.rho
        assert parse_weight("omega[2]", self.d) == self.d.fundamental_weight(2)

    def test_rational_coefficients(self):
        w = parse_weight("(1/2)*eps[1] + 3/2*delta[2]", self.d)
        expected = vadd(
            vscale(Fraction(1, 2), parse_weight("eps[1]", self.d)),
            vscale(Fraction(3, 2), parse_weight("delta[2]", self.d)),
        )
        assert w == expected

    def test_combined_expression(self):
        w = parse_weight("omega[1] + 2*omega[2] + 3*omega[3] + tau", self.d)
        expected = self.d.tau
        for i, c in enumerate((1, 2, 3), start=1):
            expected = vadd(expected, vscale(c, self.d.fundamental_weight(i)))
        assert w == expected

    def test_round_trip_on_random_rational_weights(self):
        rng = random.Random(20250816)
        data = [
            build_datum(AlgebraDescriptor(fam, m, n))
            for fam, m, n in [
                ("sl", 3, 2),
                ("osp", None, 2),
                ("G3", None, None),
                ("F4", None, None),
                ("b0", None, 2),
            ]
        ]
        # a datum file names its coordinates x1, x2, ...
        data.append(datum_from_text(datum_file_text(data[0])))
        for d in data:
            for _ in range(25):
                w = tuple(
                    Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                    for _ in range(d.dim)
                )
                assert parse_weight(format_weight_expr(d, w), d) == w

    def test_round_trip_of_zero(self):
        assert format_weight_expr(self.d, zero_weight(self.d.dim)) == "0"

    def test_parse_error_reports_position(self):
        with pytest.raises(WeightParseError) as info:
            parse_weight("omega[1] + @", self.d)
        assert info.value.position == 11
        assert "position 11" in str(info.value)

    @pytest.mark.parametrize("src, position, message", [
        ("1/0*tau", 2, "zero denominator"),
        ("omega[1] + (1/0)*tau", 14, "zero denominator"),
        ("3", 0, "a bare number is only valid as the zero weight"),
        ("tau + 3", 6, "a bare number is only valid as the zero weight"),
    ])
    def test_value_errors_report_the_token_start(self, src, position, message):
        with pytest.raises(WeightParseError) as info:
            parse_weight(src, self.d)
        assert info.value.position == position
        assert str(info.value) == f"at position {position}: {message}"

    def test_unknown_name_reports_position(self):
        with pytest.raises(WeightParseError) as info:
            parse_weight("omega[1] + bogus", self.d)
        assert info.value.position == 11

    def test_omega_out_of_range(self):
        with pytest.raises(UnknownSymbol):
            parse_weight("omega[4]", self.d)

    def test_eps_out_of_range(self):
        with pytest.raises(UnknownSymbol):
            parse_weight("eps[4]", self.d)

    def test_datum_file_coordinates(self):
        d = datum_from_text(A3_TEXT)
        assert parse_weight("x[1] - (1/2)*x[4]", d) == (1, 0, 0, Fraction(-1, 2))
        for src in ("eps[1]", "x[5]", "y[1]"):
            with pytest.raises(UnknownSymbol):
                parse_weight(src, d)

    def test_delta_absent_on_b0(self):
        d = build_datum(AlgebraDescriptor("b0", n=2))
        with pytest.raises(UnknownSymbol):
            parse_weight("eps[1]", d)
        assert parse_weight("delta[1]", d) == (Fraction(1), Fraction(0))

    def test_bare_number_other_than_zero_rejected(self):
        with pytest.raises(WeightParseError):
            parse_weight("2", self.d)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WeightParseError):
            parse_weight("tau tau", self.d)

    def test_zero_denominator_rejected(self):
        with pytest.raises(WeightParseError):
            parse_weight("1/0*tau", self.d)

    @pytest.mark.parametrize(
        "src",
        ["²*tau", "omega[١]", "1" * 5000 + "*tau"],
        ids=["superscript", "arabic-indic", "5000-digits"],
    )
    def test_only_ascii_integers_of_convertible_length(self, src):
        # str.isdigit() accepts "²" and "١", and int() refuses over 4300 digits
        with pytest.raises(WeightParseError):
            parse_weight(src, self.d)


class TestDatumCommand:
    def test_summary_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, ["datum", "--family", "sl", "--m", "3", "--n", "2"]
        )
        assert code == EXIT_OK
        assert "label: sl(3,2)" in out
        assert "ambient: eps1, eps2, eps3, delta1, delta2" in out
        assert "component_sizes: 2, 1" in out
        assert "positive_odd: 6" in out

    def test_family_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["datum"])
        assert info.value.code == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == EXIT_USAGE

    def test_bad_size_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["datum", "--family", "sl", "--m", "1", "--n", "1"])
        assert info.value.code == EXIT_USAGE


class TestDatumFiles:
    def test_dependent_simple_roots_exit_2(self, tmp_path):
        path = tmp_path / "dependent.txt"
        path.write_text(A3_TEXT.replace("even 0 0 1 -1", "even 1 0 -1 0"))
        proc = run_cli_process(["datum", "--datum-file", str(path)])
        assert proc.returncode == EXIT_PRECONDITION
        assert proc.stderr.startswith("error: simple roots are linearly dependent")
        assert "Traceback" not in proc.stderr

    def test_non_integral_cartan_entry_exit_2(self, tmp_path):
        path = tmp_path / "nonintegral.txt"
        path.write_text(NON_INTEGRAL_CARTAN_TEXT)
        proc = run_cli_process(["group", "--datum-file", str(path)])
        assert proc.returncode == EXIT_PRECONDITION
        assert proc.stderr.startswith("error: Cartan entry <s2, s1^vee> = -4/3")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name", INFINITE_TEXTS)
    def test_infinite_even_weyl_group_exit_2(self, tmp_path, name):
        path = tmp_path / f"{name}.txt"
        path.write_text(INFINITE_TEXTS[name])
        for argv in (["group"], ["numerator", "--weight", "omega[1]"]):
            proc = run_cli_process([*argv, "--datum-file", str(path)], timeout=10)
            assert proc.returncode == EXIT_PRECONDITION
            assert proc.stderr == f"error: group on generators (0, 1) of {name} is infinite\n"
        # the datum itself loads: only a group on it is refused
        proc = run_cli_process(["datum", "--datum-file", str(path)], timeout=10)
        assert proc.returncode == EXIT_OK
        assert proc.stdout.splitlines()[:8] == [
            f"label: {name}", "family: custom", "ambient: x1, x2, x3", "even_simple_count: 2",
            "components: 1", "component_sizes: 2", "positive_even: 2", "positive_odd: 1",
        ]

    def test_two_components_with_an_extra_generator_exit_2(self, capsys, tmp_path):
        path = tmp_path / "a1a1b.txt"
        path.write_text(A1A1B_TEXT)
        file_args = ["--datum-file", str(path)]
        for argv in (
            ["verify", "--lhs", "omega[1]; omega[2]", "--rhs", "omega[2]; omega[1]"],
            ["search", "--bound", "1", "--tau-mult", "0"],
        ):
            code, _, err = run_cli(capsys, [*argv, *file_args])
            assert code == EXIT_PRECONDITION
            assert err == "error: component factors need every generator to be a simple root\n"

    @pytest.mark.parametrize(
        "source",
        [["--family", "sl", "--m", "3", "--n", "2"], ["--family", "sl", "--m", "4", "--n", "3"],
         ["--family", "osp", "--n", "2"], ["--family", "G3"], A3_TEXT, A1A1B_TEXT,
         INTERLEAVED_TEXT],
        ids=["sl(3,2)", "sl(4,3)", "osp(2,4)", "G(3)", "A3 file", "A1A1B file", "interleaved file"],
    )
    def test_component_tables_match_the_pi_index_route(self, capsys, tmp_path, source):
        if isinstance(source, str):
            path = tmp_path / "datum.txt"
            path.write_text(source)
            source = ["--datum-file", str(path)]
        datum = cli._resolve_datum(cli.build_parser().parse_args(["datum", *source]))
        for k, gids in enumerate(pi_index_component_gids(datum), 1):
            group = generate(datum, gids)
            expected = f"order: {group.order}\n" + "".join(
                f"elem {i}: word={group.describe(i)} length={n} sign={sign(n)}\n"
                for i, n in enumerate(group.lengths)
            )
            assert run_cli(capsys, ["group", *source, "--component", str(k)]) == (
                EXIT_OK, expected, ""
            )

    def test_missing_file_exit_2(self, tmp_path):
        path = tmp_path / "absent.txt"
        proc = run_cli_process(["datum", "--datum-file", str(path)])
        assert proc.returncode == EXIT_PRECONDITION
        assert proc.stderr.startswith(f"error: cannot read {path}")
        assert "Traceback" not in proc.stderr


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["numerator", "--family", "sl", "--m", "3", "--n", "2",
             "--weight", "tau", "--char", "--trunc", "-1"],
            ["search", "--family", "sl", "--m", "3", "--n", "2",
             "--bound", "-1", "--tau-mult", "1"],
            ["search", "--family", "sl", "--m", "3", "--n", "2",
             "--bound", "3", "--tau-mult", "1", "--limit", "0"],
            ["atypical-coeff", "--family", "G3", "--weight", "0", "--ztrunc", "-1"],
            ["atypical-verify", "--family", "sl", "--m", "3", "--n", "2",
             "--type", "eps[1] - delta[1]",
             "--lhs", "4*eps[1] + 4*eps[2] + 4*eps[3] + (-6)*delta[1] + (-6)*delta[2]",
             "--rhs", "4*eps[1] + 4*eps[2] + 4*eps[3] + (-6)*delta[1] + (-6)*delta[2]",
             "--ztrunc", "-1"],
        ],
        ids=["trunc", "bound", "limit", "coeff-ztrunc", "verify-ztrunc"],
    )
    def test_out_of_range_integers_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE
        assert "must be at least" in capsys.readouterr().err

    def test_factor_and_char_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["numerator", "--family", "sl", "--m", "3", "--n", "2",
                  "--weight", "omega[1] + tau", "--factor", "--char"])
        assert info.value.code == EXIT_USAGE
        assert "not allowed with" in capsys.readouterr().err


class TestGroupCommand:
    def test_component_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["group", "--family", "osp", "--n", "2", "--component", "1"],
        )
        assert code == EXIT_OK
        assert "order: 8" in out
        assert "elem 0: word=e length=0 sign=1" in out
        assert out.count("elem ") == 8

    def test_group_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPERWEYL_MAX_GROUP", "5")
        code, out, err = run_cli(capsys, ["group", "--family", "F4"])
        assert code == EXIT_PRECONDITION
        assert "cap of 5" in err


class TestNumeratorCommand:
    def test_factored_golden_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "numerator",
                "--family", "sl", "--m", "3", "--n", "2",
                "--weight", "omega[1] + 2*omega[2] + 3*omega[3] + tau",
                "--factor",
            ],
        )
        assert code == EXIT_OK
        assert (
            "U1: 1 - X[a1]^2 - X[a2]^3 + X[a1]^2*X[a2]^5 + X[a1]^5*X[a2]^3"
            " - X[a1]^5*X[a2]^5" in out
        )
        assert "U2: 1 - X[a3]^4" in out
        assert "signature: 2, 3; 4" in out

    @pytest.mark.parametrize(
        "m, n, digest",
        [
            (5, 4, "2a09ecb9d7c756ac3d944e16442926b081d9b1462ed50c844e085fcbc73e25f2"),
            (6, 5, "30aa77b72164e01693f3655240772f50901e7d4c8fe0cba93972c260e4bce7eb"),
        ],
        ids=["sl54", "sl65"],
    )
    def test_factored_output_digest(self, capsys, m, n, digest):
        # the factors of the two upper rungs, from their component sums alone
        code, out, err = run_cli(
            capsys,
            ["numerator", "--family", "sl", "--m", str(m), "--n", str(n),
             "--weight", "omega[1]+tau", "--factor"],
        )
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_atypical_weight_is_precondition_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "numerator",
                "--family", "sl", "--m", "2", "--n", "1",
                "--weight", "0",
            ],
        )
        assert code == EXIT_PRECONDITION
        assert "error:" in err

    def test_character_has_nonnegative_integer_coefficients(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "numerator",
                "--family", "sl", "--m", "2", "--n", "1",
                "--weight", "omega[1] + tau",
                "--char", "--trunc", "3",
            ],
        )
        assert code == EXIT_OK
        assert "char: 1 + X[b1] + X[a1]" in out

    @pytest.mark.parametrize(
        "argv, out, err",
        [
            (
                ["--family", "b0", "--n", "2", "--weight", "(5/6)*delta[1]+(-1/6)*delta[2]"],
                "weight: (5/6, -1/6)\nsignature: 2\n",
                "error: exponent 2/3 on variable 1 is not an integer\n",
            ),
            (
                ["--family", "b0", "--n", "2", "--weight", "(5/6)*delta[1]+(-1/6)*delta[2]",
                 "--factor"],
                "weight: (5/6, -1/6)\nsignature: 2\n",
                "error: exponent 2/3 on variable 1 is not an integer\n",
            ),
            (
                ["--family", "G3", "--weight", "5*eps[1]+7*eps[2]+(7/3)*delta[1]"],
                "weight: (5, 7, 7/3)\nsignature: 4, 3\n",
                "error: exponent 2/3 on variable 0 is not an integer\n",
            ),
        ],
    )
    def test_non_integral_drop_output_bytes(self, capsys, argv, out, err):
        # the whole output of a numerator whose orbit drops are not integral
        assert run_cli(capsys, ["numerator", *argv]) == (EXIT_PRECONDITION, out, err)


class TestKgraphCommand:
    def test_g3_value(self, capsys):
        code, out, _ = run_cli(capsys, ["kgraph", "--family", "G3"])
        assert code == EXIT_OK
        assert "k: 1" in out

    def test_disconnected_subset(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "kgraph",
                "--family", "sl", "--m", "3", "--n", "2",
                "--subset", "1,3",
            ],
        )
        assert code == EXIT_OK
        assert "vertices: 2" in out
        assert "k: 0" in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--family", "sl", "--m", "4", "--n", "3"],
             "89156c3b3493dc447c56e29089cf7087e0d70fa2dc83d62556b57f568000d4d0"),
            (["--family", "sl", "--m", "5", "--n", "3"],
             "75213697a8484cc16e0d266ba634d277dc13f8d43ad8deb7af7e8e28fdd299c7"),
            (["--family", "sl", "--m", "6", "--n", "4"],
             "e5430698b5785d8f19e44f3256cd7f2ea283a6f9065c1de1dd7664de35dd0cc0"),
            (["--family", "b0", "--n", "3"],
             "16eb641308783690936cbeb3da0adc585dd9afee64d702af8f472950a97491fe"),
            (["--family", "osp", "--n", "3"],
             "089b6b18199f3ee6336d77e9d1a481358c9b0c4a86fff82fa17e23568833645d"),
            (["--family", "G3"],
             "16eb641308783690936cbeb3da0adc585dd9afee64d702af8f472950a97491fe"),
            (["--family", "F4"],
             "089b6b18199f3ee6336d77e9d1a481358c9b0c4a86fff82fa17e23568833645d"),
            (["--family", "sl", "--m", "5", "--n", "3", "--subset", "1,2,5"],
             "71fd6bcb210251ad2ffd53eb7ae47c946f82daf24ad3b9500c9a99359126e3a6"),
            (["--family", "sl", "--m", "5", "--n", "3", "--subset", "2,3,4"],
             "089b6b18199f3ee6336d77e9d1a481358c9b0c4a86fff82fa17e23568833645d"),
        ],
        ids=["sl43", "sl53", "sl64", "b03", "osp26", "G3", "F4", "sl53-disconnected",
             "sl53-connected"],
    )
    def test_output_digest(self, capsys, argv, digest):
        # vertex count, every c_k and k(G), byte for byte
        code, out, err = run_cli(capsys, ["kgraph", *argv])
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_subset_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["kgraph", "--family", "G3", "--subset", "1,9"])
        assert info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("subset", ["", "1,1"])
    def test_empty_or_repeated_subset_is_usage_error(self, capsys, subset):
        with pytest.raises(SystemExit) as info:
            main(["kgraph", "--family", "sl", "--m", "3", "--n", "2", "--subset", subset])
        assert info.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "--subset" in err


class TestVerifyCommand:
    LHS = (
        "omega[1] + 2*omega[2] + 3*omega[3] + tau;"
        " omega[1] + 4*omega[2] + 5*omega[3] + tau"
    )
    RHS = (
        "omega[1] + 4*omega[2] + 3*omega[3] + tau;"
        " omega[1] + 2*omega[2] + 5*omega[3] + tau"
    )

    def test_cross_matched_counterexample(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "verify",
                "--family", "sl", "--m", "3", "--n", "2",
                "--lhs", self.LHS,
                "--rhs", self.RHS,
            ],
        )
        assert code == EXIT_OK
        assert "conclusion: CrossMatchedCounterexample" in out
        assert "r_equals_s: true" in out
        assert "sigma_hypothesis: false" in out
        assert "match: component=1 lhs=1 rhs=2 signature=(2, 3)" in out

    def test_identical_products_conclude_unique(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "verify",
                "--family", "sl", "--m", "3", "--n", "2",
                "--lhs", self.LHS,
                "--rhs", self.LHS,
            ],
        )
        assert code == EXIT_OK
        assert "conclusion: UniqueFactorization" in out
        assert "sigma_hypothesis: true" in out

    @pytest.mark.parametrize(
        "family, lhs, rhs, conclusion",
        [
            (["G3"], "tau; 2*tau", "2*tau; tau", "UniqueFactorization"),
            (["G3"], "tau", "2*tau", "ProductsUnequal"),
            # equal signature multisets and weight sums, yet no factor matches
            (["G3"], "tau; 3*tau", "2*tau; 2*tau", "ProductsUnequal"),
            (["F4"], "tau", "2*tau", "ProductsUnequal"),
            (["b0", "--n", "2"], "delta[1]", "delta[1]+tau", "ProductsUnequal"),
            # tau is orthogonal to G_2 and B_3, so the products agree block
            # by block although no whole factor matches
            (["G3"], "tau; omega[1]+2*tau", "2*tau; omega[1]+tau", "CrossMatchedCounterexample"),
            (["F4"], "tau; omega[1]+2*tau", "2*tau; omega[1]+tau", "CrossMatchedCounterexample"),
        ],
        ids=[
            "g3-reordered", "g3-tau-multiples", "g3-balanced", "f4-tau-multiples",
            "b02-tau-shift", "g3-swapped-across-blocks", "f4-swapped-across-blocks",
        ],
    )
    def test_equal_signature_other_extra_label(self, capsys, family, lhs, rhs, conclusion):
        # Equal signatures, but the labels at the extra even generator differ,
        # so the factors differ and are not matched.
        code, out, err = run_cli(
            capsys, ["verify", "--family", *family, "--lhs", lhs, "--rhs", rhs]
        )
        assert (code, err) == (EXIT_OK, "")
        assert f"conclusion: {conclusion}" in out
        assert "r_equals_s: true" in out

    @pytest.mark.parametrize(
        "family, lhs, rhs, err",
        [
            (["b0", "--n", "2"], "5/6*delta[1] - 1/6*delta[2]", "5/6*delta[1] - 1/6*delta[2]",
             "error: exponent 2/3 on variable 1 is not an integer\n"),
            (["G3"], "5*eps[1]+7*eps[2]+7/3*delta[1]", "tau",
             "error: exponent 2/3 on variable 0 is not an integer\n"),
        ],
        ids=["b02", "g3"],
    )
    def test_non_integral_drop_is_precondition_error(self, capsys, family, lhs, rhs, err):
        assert run_cli(
            capsys, ["verify", "--family", *family, "--lhs", lhs, "--rhs", rhs]
        ) == (EXIT_PRECONDITION, "", err)

    def test_empty_weight_in_list_is_precondition_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "verify",
                "--family", "sl", "--m", "3", "--n", "2",
                "--lhs", "tau;",
                "--rhs", "tau",
            ],
        )
        assert code == EXIT_PRECONDITION
        assert "error:" in err


class TestSearchCommand:
    def test_interleaved_components_exit_0(self, capsys, tmp_path):
        path = tmp_path / "interleaved.txt"
        path.write_text(INTERLEAVED_TEXT)
        argv = ["search", "--datum-file", str(path), "--bound", "1", "--tau-mult", "0"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        assert sum(line.startswith("hit ") for line in out.splitlines()) == 6
        assert out.endswith("count: 6\n")

    def test_datum_file_hit_is_accepted_by_verify(self, capsys, tmp_path):
        path = tmp_path / "sl32.datum"
        path.write_text(datum_file_text(build_datum(AlgebraDescriptor("sl", 3, 2))))
        file_args = ["--datum-file", str(path)]
        code, out, _ = run_cli(
            capsys, ["search", *file_args, "--bound", "1", "--tau-mult", "1", "--limit", "1"]
        )
        assert code == EXIT_OK
        sides = dict(
            line.strip().split(": ", 1)
            for line in out.splitlines()
            if line.strip().startswith(("lhs:", "rhs:"))
        )
        assert "x[1]" in sides["lhs"]
        code, out, _ = run_cli(
            capsys, ["verify", *file_args, "--lhs", sides["lhs"], "--rhs", sides["rhs"]]
        )
        assert code == EXIT_OK
        assert "conclusion: CrossMatchedCounterexample" in out

    def test_limited_search_finds_hits(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "search",
                "--family", "sl", "--m", "3", "--n", "2",
                "--bound", "3", "--tau-mult", "1", "--limit", "1",
            ],
        )
        assert code == EXIT_OK
        assert "hit 1:" in out
        assert "count: 1" in out

    def test_single_component_family_is_empty(self, capsys):
        for argv in (
            ["search", "--family", "sl", "--m", "3", "--n", "1",
             "--bound", "5", "--tau-mult", "1"],
            ["search", "--family", "G3", "--bound", "5", "--tau-mult", "1"],
        ):
            code, out, _ = run_cli(capsys, argv)
            assert code == EXIT_OK
            assert "count: 0" in out

    def test_identical_invocations_print_identical_bytes(self, capsys):
        argv = [
            "search",
            "--family", "sl", "--m", "3", "--n", "2",
            "--bound", "3", "--tau-mult", "1", "--limit", "2",
        ]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_reader_closing_stdout_early_exits_2_quietly(self):
        # the full output (about 300 kB) outgrows the pipe buffer, so the
        # search is still writing when the reader goes away
        argv = ["search", "--family", "sl", "--m", "3", "--n", "2", "--bound", "3", "--tau-mult", "1"]
        env = dict(os.environ, PYTHONPATH=str(Path(superweyl.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "superweyl.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        assert proc.stdout.readline() == "hit 1:\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_PRECONDITION
        assert "Traceback" not in stderr
        assert "Exception ignored" not in stderr


class TestAtypicalCommands:
    def test_coeff_verdict_equal(self, capsys):
        code, out, _ = run_cli(
            capsys, ["atypical-coeff", "--family", "G3", "--weight", "0"]
        )
        assert code == EXIT_OK
        assert "type: g1 = (-1, -1, 1)" in out
        assert "closed_tag: M-form" in out
        assert "verdict: EQUAL" in out

    def test_coeff_special_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["atypical-coeff", "--family", "G3", "--weight", "0", "--special"],
        )
        assert code == EXIT_OK
        assert "special: true" in out
        assert "verdict: EQUAL" in out

    def test_coeff_single_route(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "atypical-coeff",
                "--family", "sl", "--m", "2", "--n", "1",
                "--weight", "0", "--oracle",
            ],
        )
        assert code == EXIT_OK
        assert "oracle:" in out
        assert "closed:" not in out
        assert "verdict:" not in out

    def test_coeff_typical_weight_is_precondition_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "atypical-coeff",
                "--family", "sl", "--m", "3", "--n", "2",
                "--weight", "omega[1] + 2*omega[2] + 3*omega[3] + tau",
            ],
        )
        assert code == EXIT_PRECONDITION
        assert "error:" in err

    def test_verify_unique_factorization(self, capsys):
        lhs = (
            "4*eps[1] + 4*eps[2] + 4*eps[3] + (-6)*delta[1] + (-6)*delta[2];"
            " 5*eps[1] + 5*eps[2] + 5*eps[3] + (-7)*delta[1] + (-8)*delta[2]"
        )
        rhs = ";".join(reversed(lhs.split(";")))
        code, out, _ = run_cli(
            capsys,
            [
                "atypical-verify",
                "--family", "sl", "--m", "3", "--n", "2",
                "--type", "eps[1] - delta[1]",
                "--lhs", lhs,
                "--rhs", rhs,
            ],
        )
        assert code == EXIT_OK
        assert "conclusion: UniqueFactorization" in out
        assert "r_equals_s: true" in out

    def test_verify_unequal_products(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "atypical-verify",
                "--family", "sl", "--m", "3", "--n", "2",
                "--type", "eps[1] - delta[1]",
                "--lhs", "4*eps[1] + 4*eps[2] + 4*eps[3] + (-6)*delta[1] + (-6)*delta[2]",
                "--rhs", "5*eps[1] + 5*eps[2] + 5*eps[3] + (-7)*delta[1] + (-8)*delta[2]",
            ],
        )
        assert code == EXIT_OK
        assert "conclusion: ProductsUnequal" in out


class TestInternalErrorMapping:
    def test_assertion_maps_to_internal_exit(self, capsys, monkeypatch):
        import superweyl.cli as cli

        def boom(descriptor):
            raise AssertionError("wires crossed")

        monkeypatch.setattr(cli, "build_datum", boom)
        code = cli.main(["datum", "--family", "G3"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert "internal error" in captured.err

    def test_failed_invariant_maps_to_internal_exit(self, capsys, monkeypatch):
        import superweyl.cli as cli
        from superweyl.series import Poly

        # a numerator that does not start at 1 breaks a library invariant
        monkeypatch.setattr(Poly, "constant_term", lambda self: 0)
        argv = ["numerator", "--family", "sl", "--m", "3", "--n", "2", "--weight", "omega[1] + tau"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.err == "internal error: numerator does not start at 1\n"

    def test_out_of_memory_is_precondition_error(self, capsys, monkeypatch):
        import superweyl.cli as cli

        def too_large(descriptor):
            raise MemoryError

        monkeypatch.setattr(cli, "build_datum", too_large)
        code, out, err = run_cli(capsys, ["datum", "--family", "sl", "--m", "100000", "--n", "2"])
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == "error: out of memory\n"
        assert "Traceback" not in err


def test_readme_library_example_runs():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "1 - X[a1]^2 - X[a2]^3 + X[a1]^2*X[a2]^5 + X[a1]^5*X[a2]^3 - X[a1]^5*X[a2]^5",
        "CrossMatchedCounterexample",
    ]


_CLI_GOLDEN = cli_golden_path()


@pytest.mark.skipif(
    not _CLI_GOLDEN.exists(), reason=f"no CLI transcripts recorded for {_CLI_GOLDEN.name}"
)
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_help_and_usage_bytes_equal_the_recorded_transcript(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(_CLI_GOLDEN.read_text(encoding="utf-8"))
    assert cli_transcript(CLI_CASES[case]) == golden[case]


_CLOSED_CASES = closed_coeff_cases()


@pytest.mark.parametrize("case", sorted(_CLOSED_CASES))
def test_closed_form_bytes_equal_the_recorded_transcript(case):
    golden = json.loads(CLOSED_GOLDEN.read_text(encoding="utf-8"))
    assert cli_transcript(_CLOSED_CASES[case]) == golden[case]


@pytest.mark.parametrize("case", sorted(GROUP_CASES))
def test_group_table_bytes_equal_the_recording(case):
    golden = json.loads(GROUP_GOLDEN.read_text(encoding="utf-8"))
    assert group_table(GROUP_CASES[case]) == golden[case]


ARGV_TOKENS = (
    "--family", "--fam", "--f", "--m", "--n", "--datum-file", "--weight", "--wei", "--fac",
    "--factor", "--char", "--trunc", "--bound", "--tau-mult", "--limit", "--seed", "--subset",
    "--component", "--oracle", "--both", "--special", "--ztrunc", "--type", "--lhs", "--rhs",
    "-h", "--help", "--bogus", "--", "-", "sl", "F4", "3", "-1", "tau", "x", "1,2",
    "--family=sl", "--m=3", "--weight=tau",
)


def parse_outcome(parse, argv):
    """The namespace a parse gives (parser and command aside), or its exit and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(argv))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())
    prog = args.pop("parser").prog
    args.pop("command", None)
    return ("args", prog, args)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    argv=st.tuples(
        st.sampled_from(sorted(cli._SUBCOMMANDS) + ["frobnicate", "--help"]),
        st.lists(st.sampled_from(ARGV_TOKENS), max_size=7),
    ).map(lambda t: [t[0], *t[1]])
)
def test_the_shared_tree_parses_like_a_fresh_one(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    fresh = parse_outcome(lambda a: cli.build_parser.__wrapped__().parse_args(a), argv)
    assert parse_outcome(lambda a: cli.build_parser().parse_args(a), argv) == fresh


def test_in_process_calls_match_fresh_processes(monkeypatch):
    """One process serves a sequence of calls as fresh processes would, on one tree."""
    monkeypatch.setenv("COLUMNS", "80")
    sl32 = ["--family", "sl", "--m", "3", "--n", "2"]
    bogus = ["numerator", "--bogus"]
    sequence = [
        ["--help"],
        bogus,
        ["numerator", *sl32, "--weight", "omega[1] + tau", "--factor"],
        ["search", *sl32, "--bound", "3", "--tau-mult", "1", "--limit", "2"],
        ["atypical-coeff", "--family", "G3", "--weight", "0", "--closed"],
        bogus,
    ]
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(**kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli.build_parser.cache_clear()
    try:
        in_process = [cli_transcript(argv) for argv in sequence]
    finally:
        cli.build_parser.cache_clear()
    # the top-level parser and one per subcommand, once
    assert len(built) == 1 + len(cli._SUBCOMMANDS)
    assert [t["code"] for t in in_process] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE]
    for argv, got in zip(sequence, in_process):
        proc = run_cli_process(argv)
        assert got == {"stdout": proc.stdout, "stderr": proc.stderr, "code": proc.returncode}, argv
