"""End-to-end tests of the batch front-end."""

import csv
import json

import numpy as np
import pytest

from cylscale.cli import (
    EXIT_INVALID,
    EXIT_NUMERIC,
    EXIT_OK,
    OUT_ENV,
    main,
    parse_config_text,
)


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def read_json(tmp_path, stem):
    with open(tmp_path / f"{stem}.json") as fh:
        return json.load(fh)


def read_csv(tmp_path, stem):
    with open(tmp_path / f"{stem}.csv", newline="") as fh:
        return list(csv.reader(fh))


class TestConfigParsing:
    def test_key_value_lines(self):
        text = "a.b = 1\n# comment\nc.d = 2/3  # trailing\n\n"
        assert parse_config_text(text) == {"a.b": "1", "c.d": "2/3"}

    def test_malformed_line(self):
        from cylscale.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    @pytest.mark.parametrize("override", [
        "quadrature.radial_rule=bogus", "quadrature.time_rule=Exact",
        "quadrature.n_space=inf", "quadrature.n_time=2.5",
        "quadrature.n_radial=0", "quadrature.graded_levels=none",
    ])
    def test_bad_quadrature_entry_exits_invalid(self, tmp_path, capsys, override):
        assert run(tmp_path, "quantities", override) == EXIT_INVALID
        key = override.split("=")[0].split(".")[1]
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_quadrature_config_checked_at_construction(self):
        from cylscale import DomainError, QuadratureConfig

        for bad in ({"n_space": 0}, {"n_time": float("inf")}, {"n_radial": 8.0},
                    {"graded_levels": True}, {"radial_rule": "bogus"},
                    {"time_rule": None}):
            with pytest.raises(DomainError):
                QuadratureConfig(**bad)
        assert QuadratureConfig(n_space=np.int64(8)).n_space == 8


class TestExponentsCommand:
    def test_reference_row(self, tmp_path):
        assert run(tmp_path, "exponents", "exponents.s=2.8",
                   "exponents.l=2.8", "exponents.m0=0.9") == EXIT_OK
        rows = read_csv(tmp_path, "exponents")
        header, row = rows[0], rows[1]
        rec = dict(zip(header, row))
        assert float(rec["kappa"]) == pytest.approx(2.2, abs=1e-12)
        assert float(rec["alpha"]) == pytest.approx(1.0788530, abs=1e-6)

    def test_rational_defaults_stay_exact_in_json(self, tmp_path):
        assert run(tmp_path, "exponents") == EXIT_OK
        rec = read_json(tmp_path, "exponents")
        assert rec["kappa"] == "11/5"
        assert "provenance" in rec

    def test_nonpositive_kappa_emits_no_m0_bound(self, tmp_path):
        # s = l = 10 gives kappa = 10 (3/10 + 2/10 - 1) < 0: no m0 bound
        assert run(tmp_path, "exponents", "exponents.s=10",
                   "exponents.l=10") == EXIT_OK
        assert read_json(tmp_path, "exponents")["m0_lower_bound"] is None
        rec = dict(zip(*read_csv(tmp_path, "exponents")))
        assert rec["m0_lower_bound"] == ""
        # a rational bound stays a float in the CSV row
        assert run(tmp_path, "exponents") == EXIT_OK
        rec = dict(zip(*read_csv(tmp_path, "exponents")))
        assert float(rec["m0_lower_bound"]) == pytest.approx(26 / 55, rel=1e-15)

    def test_invalid_input_exit_code(self, tmp_path):
        assert run(tmp_path, "exponents", "exponents.s=0.5") == EXIT_INVALID

    def test_missing_field_diagnostic(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("exponents.s = oops\n")
        code = main(["exponents", "--config", str(cfgfile),
                     "--out", str(tmp_path)])
        assert code == EXIT_INVALID


class TestConstructCommand:
    def test_reference_interval(self, tmp_path):
        assert run(tmp_path, "construct", "construct.m0=9/10",
                   "construct.alpha=1/2") == EXIT_OK
        rec = read_json(tmp_path, "construct")
        lo, hi = rec["delta_interval"]
        assert float(lo.split("/")[0]) / float(lo.split("/")[1]) == pytest.approx(
            1.5584, abs=1e-4)
        assert rec["certificate"] in (0, "0")

    def test_infeasible_inputs(self, tmp_path):
        assert run(tmp_path, "construct", "construct.m0=0.5",
                   "construct.alpha=1") == EXIT_INVALID


class TestScaleCheckAndQuantities:
    def test_quantities_ladder(self, tmp_path):
        assert run(tmp_path, "quantities", "profile.kind=constant") == EXIT_OK
        rows = read_csv(tmp_path, "quantities")
        assert rows[0][0] == "r"
        assert len(rows) == 5  # header + ladder.count

    def test_scale_check_passes(self, tmp_path):
        assert run(tmp_path, "scale-check") == EXIT_OK
        rec = read_json(tmp_path, "scale_check")
        assert rec["all_pass"] is True

    def test_scale_check_numeric_failure_exit(self, tmp_path):
        # an absurd tolerance cannot be met by the grid-free closed forms
        # of a *sampled* run; emulate by demanding equality of a profile
        # with itself under a non-symmetry (euler with weak alpha raises
        # validation instead), so force failure via tolerance=0 is not
        # possible (tolerance must be positive) -- use a tiny tolerance on
        # the graded-quadrature route where rounding exceeds it.
        code = run(tmp_path, "scale-check", "quadrature.radial_rule=graded",
                   "quadrature.time_rule=graded", "quadrature.graded_levels=6",
                   "--tolerance", "1e-15")
        assert code in (EXIT_OK, EXIT_NUMERIC)
        rec = read_json(tmp_path, "scale_check")
        assert (code == EXIT_OK) == rec["all_pass"]


class TestLiouvilleAndIterate:
    def test_liouville_json(self, tmp_path):
        assert run(tmp_path, "liouville", "liouville.m=0.45") == EXIT_OK
        assert read_json(tmp_path, "liouville")["verdict"] == "Trivial"
        assert run(tmp_path, "liouville", "liouville.m=0.55",
                   "liouville.gamma=0.5",
                   "liouville.compact_support=true") == EXIT_OK
        assert read_json(tmp_path, "liouville")["verdict"] == "Trivial"

    def test_iterate_trace(self, tmp_path):
        assert run(tmp_path, "iterate", "iterate.k_max=50") == EXIT_OK
        rec = read_json(tmp_path, "iterate")
        assert rec["verdict"] == "converges-to-zero"
        rows = read_csv(tmp_path, "iterate")
        assert len(rows) == 52  # header + k = 0..50

    @pytest.mark.parametrize("command, override", [
        ("quantities", "ladder.count=inf"), ("quantities", "ladder.count=2.5"),
        ("iterate", "iterate.k_max=inf"), ("iterate", "iterate.k_max=0"),
    ])
    def test_bad_count_exits_invalid(self, tmp_path, capsys, command, override):
        assert run(tmp_path, command, override) == EXIT_INVALID
        assert override.split("=")[0] in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("overrides, key", [
        (("ladder.factor=inf",), "ladder.factor"),
        (("ladder.start=1e300", "ladder.factor=1e10"), "ladder.factor"),
        (("ladder.start=nan",), "ladder.start"),
    ])
    def test_bad_ladder_exits_invalid(self, tmp_path, capsys, overrides, key):
        assert run(tmp_path, "quantities", *overrides) == EXIT_INVALID
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, override", [
        ("quantities", "ladder.start=abc"), ("quantities", "profile.c=abc"),
        ("liouville", "liouville.m=xyz"), ("quantities", "profile.c=nan"),
        ("iterate", "iterate.R=nan"),
    ])
    def test_bad_real_exits_invalid(self, tmp_path, capsys, command, override):
        assert run(tmp_path, command, override) == EXIT_INVALID
        assert override.split("=")[0] in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_real_takes_finite_numbers_only(self):
        from cylscale.cli import ConfigError, RunConfig

        for raw, want in (("2", 2.0), ("3/4", 0.75), ("-1e-3", -1e-3)):
            assert RunConfig({"iterate.R": raw}).real("iterate.R") == want
        for raw in ("true", "none", "-inf", "1" + "0" * 400, "1" + "0" * 400 + "/3"):
            with pytest.raises(ConfigError, match="iterate.R"):
                RunConfig({"iterate.R": raw}).real("iterate.R")

    @pytest.mark.parametrize("argv", [["nosuch"], ["suite", "--threads", "2"]])
    def test_bad_arguments_exit_invalid(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == EXIT_INVALID
        assert "usage: cylscale" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_help_exits_ok(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        assert "usage: cylscale" in capsys.readouterr().out

    def test_k_max_over_limit_refused_before_iterating(self, tmp_path, monkeypatch):
        from cylscale import asymptotics
        from cylscale.cli import K_MAX_LIMIT, ConfigError, RunConfig

        def no_iteration(*args):
            raise AssertionError("iterate_bound ran")

        monkeypatch.setattr(asymptotics, "iterate_bound", no_iteration)
        over = f"iterate.k_max={K_MAX_LIMIT + 1}"
        assert run(tmp_path, "iterate", over) == EXIT_INVALID
        assert not list(tmp_path.iterdir())
        with pytest.raises(ConfigError):
            RunConfig({"iterate.k_max": str(K_MAX_LIMIT + 1)}).count(
                "iterate.k_max", K_MAX_LIMIT)
        assert RunConfig({}).count("iterate.k_max", K_MAX_LIMIT) == 400

    def test_iterate_window_guard(self, tmp_path):
        assert run(tmp_path, "iterate", "iterate.m=0.7") == EXIT_INVALID


class TestSuite:
    def test_suite_deterministic(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["suite", "--out", str(out1)]) == EXIT_OK
        assert main(["suite", "--out", str(out2)]) == EXIT_OK
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2 and names1
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_out_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ENV, str(tmp_path / "envout"))
        assert main(["exponents"]) == EXIT_OK
        assert (tmp_path / "envout" / "exponents.json").exists()

    def test_defaults_printed(self, capsys, tmp_path):
        assert run(tmp_path, "defaults") == EXIT_OK
        out = capsys.readouterr().out
        assert "exponents.s = 14/5" in out
