import contextlib
import inspect
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import cli, experiments
from vilenkin.cli import IDENTITIES, main
from vilenkin.group import GeneratorSequence, WALSH
from vilenkin.transform import (
    dirichlet_closed,
    forward,
    grid_function,
    inverse,
    read_grid_binary,
    read_grid_csv,
    read_spectral_binary,
    read_spectral_csv,
    write_grid_binary,
    write_grid_csv,
    write_spectral_binary,
    write_spectral_csv,
)


def run(argv):
    return main([str(a) for a in argv])


class TestDirichletCommand:
    def test_block_kernel_example(self, tmp_path, capsys):
        # D_8 = D_{M_3}: 8 on I_3, 0 elsewhere
        assert run(["dirichlet", "--m", "2^", "--n", 8, "--N", 4, "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "closed-vs-direct" in out and "block-kernel identity" in out
        path = tmp_path / "dirichlet_m2c_n8.csv"
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        values = {int(r[0]): float(r[1]) for r in rows}
        for i in range(16):
            assert values[i] == pytest.approx(8.0 if i % 8 == 0 else 0.0, abs=1e-9)

    def test_kernel_file_transforms(self, tmp_path):
        # the transform reads the written kernel, config line included
        assert run(["dirichlet", "--m", "2,3^", "--n", 5, "--N", 4, "--out", tmp_path]) == 0
        src, out = tmp_path / "dirichlet_m2_3c_n5.csv", tmp_path / "fhat.csv"
        assert run(["transform", "--op", "forward", "--input", src, "--output", out]) == 0
        with out.open() as fh:
            coeffs = read_spectral_csv(fh).coeffs
        m = GeneratorSequence.parse("2,3^")
        assert np.abs(coeffs - forward(dirichlet_closed(m, 5, 4)).coeffs).max() < 1e-9

    def test_config_header_embedded(self, tmp_path):
        run(["dirichlet", "--m", "2^", "--n", 4, "--N", 4, "--out", tmp_path])
        text = (tmp_path / "dirichlet_m2c_n4.csv").read_text()
        assert text.startswith("# vilenkin-config: command=dirichlet m=2^ N=4")


class TestLebesgueCommand:
    def test_emits_511_rows(self, tmp_path, capsys):
        assert run(["lebesgue", "--m", "2^", "--N", 9, "--out", tmp_path]) == 0
        assert "511 rows under convention from0 (oracle pick; bracket violations {'from1': 9, 'from0': 0})" \
            in capsys.readouterr().out
        body = (tmp_path / "lebesgue_m2c_N9.csv").read_text()
        data_rows = [l for l in body.splitlines() if l and l[0].isdigit()]
        assert len(data_rows) == 511

    def test_explicit_convention(self, tmp_path, capsys):
        assert run(["lebesgue", "--m", "2^", "--N", 6, "--convention", "from0", "--out", tmp_path]) == 0
        assert "from0" in capsys.readouterr().out


class TestTransformCommand:
    def test_forward_inverse_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        f = grid_function(WALSH, 4, rng.standard_normal(16))
        src = tmp_path / "f.csv"
        with src.open("w") as fh:
            write_grid_csv(fh, f)
        spec_path = tmp_path / "fhat.csv"
        assert run(["transform", "--op", "forward", "--input", src, "--output", spec_path]) == 0
        with spec_path.open() as fh:
            sv = read_spectral_csv(fh)
        back_path = tmp_path / "back.csv"
        assert run(["transform", "--op", "inverse", "--input", spec_path, "--output", back_path]) == 0
        with back_path.open() as fh:
            back = read_grid_csv(fh)
        assert np.abs(back.values - f.values).max() < 1e-9
        assert sv.size == 16

    def test_binary_output(self, tmp_path):
        rng = np.random.default_rng(1)
        f = grid_function(WALSH, 3, rng.standard_normal(8))
        src = tmp_path / "f.csv"
        with src.open("w") as fh:
            write_grid_csv(fh, f)
        out = tmp_path / "fhat.bin"
        assert run(["transform", "--op", "forward", "--input", src, "--output", out]) == 0
        assert out.read_bytes()[:4] == b"VGF1"

    def test_wrong_kind_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        f = grid_function(WALSH, 3, rng.standard_normal(8))
        src = tmp_path / "f.csv"
        with src.open("w") as fh:
            write_grid_csv(fh, f)
        code = run(["transform", "--op", "inverse", "--input", src, "--output", tmp_path / "x.csv"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_inverse_from_spectral_binary(self, tmp_path):
        rng = np.random.default_rng(3)
        f = grid_function(WALSH, 4, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        src = tmp_path / "f.bin"
        with src.open("wb") as fh:
            write_grid_binary(fh, f)
        spec, back = tmp_path / "fhat.bin", tmp_path / "back.bin"
        assert run(["transform", "--op", "forward", "--input", src, "--output", spec]) == 0
        assert run(["transform", "--op", "inverse", "--input", spec, "--output", back]) == 0
        with back.open("rb") as fh:
            assert np.abs(read_grid_binary(fh).values - f.values).max() < 1e-12

    def test_corrupted_kind_byte_is_usage_error(self, tmp_path, capsys):
        f = grid_function(WALSH, 2, [1.0, 2.0, 3.0, 4.0])
        src = tmp_path / "f.bin"
        with src.open("wb") as fh:
            write_grid_binary(fh, f)
        blob = bytearray(src.read_bytes())
        blob[4] = 7  # the kind byte: 0 grid, 1 spectral
        src.write_bytes(bytes(blob))
        assert run(["transform", "--op", "forward", "--input", src, "--output", tmp_path / "o.csv"]) == 2
        _single_error_line(capsys)
        assert not (tmp_path / "o.csv").exists()

    def test_inverse_reads_a_commented_spectral_csv(self, tmp_path):
        # the spectral reader skips comment lines ahead of its header, so the
        # command does too
        rng = np.random.default_rng(4)
        buf = io.StringIO()
        write_spectral_csv(buf, forward(grid_function(WALSH, 4, rng.standard_normal(16))))
        src, out = tmp_path / "fhat.csv", tmp_path / "back.csv"
        src.write_text("# a note\n" + buf.getvalue())
        assert run(["transform", "--op", "inverse", "--input", src, "--output", out]) == 0
        with src.open() as fh:
            expected = io.StringIO()
            write_grid_csv(expected, inverse(read_spectral_csv(fh)))
        assert out.read_text() == expected.getvalue()

    def test_forward_reads_a_grid_csv_under_a_spectral_comment(self, tmp_path):
        # a comment that names the other kind does not decide the kind
        rng = np.random.default_rng(5)
        buf = io.StringIO()
        write_grid_csv(buf, grid_function(WALSH, 4, rng.standard_normal(16)))
        src, out = tmp_path / "f.csv", tmp_path / "fhat.csv"
        src.write_text("# spectral data follows after the transform\n" + buf.getvalue())
        assert run(["transform", "--op", "forward", "--input", src, "--output", out]) == 0
        with src.open() as fh:
            expected = io.StringIO()
            write_spectral_csv(expected, forward(read_grid_csv(fh)))
        assert out.read_text() == expected.getvalue()

    @pytest.mark.parametrize("flag", [["--m", "2^"], ["--N", 4], ["--seed", 1]], ids=lambda flag: flag[0])
    def test_grid_flags_refused(self, tmp_path, flag):
        # transform takes the grid from its input file
        with pytest.raises(SystemExit) as err:
            run(["transform", *flag, "--op", "forward", "--input", tmp_path / "f.csv", "--output", tmp_path / "o.csv"])
        assert err.value.code == 2


class TestAtomCommand:
    def test_generate_and_validate(self, tmp_path, capsys):
        assert run(["atom", "--m", "2^", "--p", 0.5, "--rank", 2, "--N", 6, "--out", tmp_path]) == 0
        atom_file = tmp_path / "atom_p0.5_rank2.csv"
        assert atom_file.exists()
        # strip the config header, then validate through the CLI
        body = "\n".join(atom_file.read_text().splitlines()[1:]) + "\n"
        clean = tmp_path / "clean.csv"
        clean.write_text(body)
        assert run(["atom", "--m", "2^", "--p", 0.5, "--rank", 2, "--N", 6, "--validate", clean]) == 0
        assert "valid p-atom" in capsys.readouterr().out

    def test_validate_reads_the_written_file(self, tmp_path, capsys):
        # the config line ahead of the grid header is skipped, not refused
        argv = ["atom", "--m", "2^", "--p", 0.5, "--rank", 2, "--N", 6]
        assert run([*argv, "--out", tmp_path]) == 0
        assert run([*argv, "--validate", tmp_path / "atom_p0.5_rank2.csv"]) == 0
        assert "valid p-atom" in capsys.readouterr().out

    def test_validate_reads_the_grid_from_the_file(self, tmp_path, capsys):
        # --m and --N are not read with --validate: a negative N or another
        # sequence does not refuse the file's own grid
        argv = ["atom", "--m", "2^", "--p", 0.5, "--rank", 2, "--N", 6]
        assert run([*argv, "--out", tmp_path]) == 0
        written = tmp_path / "atom_p0.5_rank2.csv"
        for grid in (["--N", -1], ["--m", "3^", "--N", 2]):
            assert run(["atom", "--p", 0.5, "--rank", 2, *grid, "--validate", written]) == 0
            assert "valid p-atom" in capsys.readouterr().out
        help_text = cli.build_parser()[1]["atom"].format_help()
        assert "--m and --N are ignored" in " ".join(help_text.split())

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_validate_refuses_a_spectral_file(self, tmp_path, capsys, suffix):
        sv = forward(grid_function(WALSH, 3, [1.0, -1.0, 0, 0, 0, 0, 0, 0]))
        src = tmp_path / f"fhat{suffix}"
        with src.open("wb" if suffix == ".bin" else "w") as fh:
            (write_spectral_binary if suffix == ".bin" else write_spectral_csv)(fh, sv)
        argv = ["atom", "--m", "2^", "--p", 0.5, "--rank", 0, "--N", 3, "--validate", src]
        assert run(argv) == 2
        assert "grid" in _single_error_line(capsys)


class TestCounterexampleCommand:
    def test_emits_spec_and_coefficients(self, tmp_path, capsys):
        assert run(["counterexample", "--m", "2^", "--p", 0.5, "--N", 10, "--out", tmp_path]) == 0
        blob = json.loads((tmp_path / "counterexample_p0.5_N10.json").read_text())
        assert blob["alphas"] == [3, 5, 17, 257]
        coeff_rows = [
            l for l in (tmp_path / "counterexample_p0.5_N10_coefficients.csv").read_text().splitlines()
            if l and l[0].isdigit()
        ]
        assert len(coeff_rows) == 1024
        # block [2,4) carries lambda_0 M_1 / lambda = 2^(-1/2) * 2 / 2
        j, re, im = coeff_rows[2].split(",")
        assert float(re) == pytest.approx(2**-0.5)
        assert "budget" in capsys.readouterr().out


class TestScanCommand:
    def test_supp_scan_writes_artifacts(self, tmp_path):
        assert run(["scan", "--name", "supp_measure", "--m", "2^", "--N", 7, "--out", tmp_path, "--svg"]) == 0
        stem = tmp_path / "scan_supp_measure_m2c_N7"
        assert stem.with_suffix(".json").exists()
        assert stem.with_suffix(".csv").exists()
        assert stem.with_suffix(".svg").read_text().startswith("<svg")

    def test_violated_verdict_exit_code(self, tmp_path):
        # radix-4 sequences break the kernel floor: exit 1, evidence on disk
        code = run(["scan", "--name", "dirichlet_floor", "--m", "2,3,4^", "--N", 5, "--out", tmp_path])
        assert code == 1
        blob = json.loads((tmp_path / "scan_dirichlet_floor_m2_3_4c_N5.json").read_text())
        assert blob["verdict"] == "violated"

    def test_unknown_scan_is_usage_error(self, tmp_path, capsys):
        assert run(["scan", "--name", "nope", "--m", "2^", "--N", 5, "--out", tmp_path]) == 2
        assert "unknown scan" in capsys.readouterr().err

    def test_divergence_scan_cli(self, tmp_path, capsys):
        assert run(["scan", "--name", "divergence", "--m", "2^", "--N", 12, "--p", 0.5,
                    "--variant", "Mn_plus_1", "--out", tmp_path]) == 0
        assert "verdict growing" in capsys.readouterr().out


    def test_malformed_flag_refused_by_a_scan_that_ignores_it(self, tmp_path, capsys):
        # --phi, --alphas and --lambdas are parsed for every scan
        assert run(["scan", "--name", "supp_measure", "--N", 4, "--phi", "bogus", "--out", tmp_path]) == 2
        assert "phi" in _single_error_line(capsys)
        assert not list(tmp_path.glob("scan_*"))

    # Flags that reach every keyword the CLI renames or defaults, and the
    # library call they stand for; the "defaults" cases omit --variant.
    SCANS = [
        pytest.param("atom_ratio", ["--p", 0.5, "--N", 5, "--trials", 3, "--seed", 5],
                     lambda: experiments.atom_ratio_scan(0.5, WALSH, 5, trials=3, seed=5), id="atom_ratio"),
        pytest.param("divergence", ["--p", 0.5, "--N", 9, "--variant", "general", "--alphas", "3,5,17",
                                    "--rule", "explicit", "--lambdas", "1,0.5,0.25", "--phi", "constant:2"],
                     lambda: experiments.divergence_scan(0.5, "general", WALSH, 9, phi=("constant", 2.0),
                                                         alphas=[3, 5, 17], rule="explicit", lambdas=[1.0, 0.5, 0.25]),
                     id="divergence"),
        pytest.param("divergence", ["--p", 0.5, "--N", 6],
                     lambda: experiments.divergence_scan(0.5, "Mn_plus_1", WALSH, 6), id="divergence-defaults"),
        pytest.param("boundedness", ["--p", 0.5, "--m", "3^", "--N", 4, "--variant", "rho_bounded", "--trials", 3,
                                     "--seed", 5],
                     lambda: experiments.boundedness_scan(0.5, "rho_bounded", GeneratorSequence.parse("3^"), 4,
                                                          trials=3, seed=5),
                     id="boundedness"),
        pytest.param("boundedness", ["--p", 0.5, "--N", 5, "--trials", 3],
                     lambda: experiments.boundedness_scan(0.5, "Mn", WALSH, 5, trials=3), id="boundedness-defaults"),
        pytest.param("weighted_series", ["--p", 0.5, "--N", 5, "--trials", 3, "--seed", 5],
                     lambda: experiments.weighted_series_scan(0.5, WALSH, 5, trials=3, seed=5), id="weighted_series"),
        pytest.param("modulus_convergence", ["--p", 0.5, "--N", 8, "--f-rule", "fast_decay", "--variant", "Mn_plus_1"],
                     lambda: experiments.modulus_convergence_scan(0.5, "fast_decay", "Mn_plus_1", WALSH, 8),
                     id="modulus_convergence"),
        pytest.param("modulus_convergence", ["--p", 0.5, "--N", 6],
                     lambda: experiments.modulus_convergence_scan(0.5, "unit_kernel", "default", WALSH, 6),
                     id="modulus_convergence-defaults"),
        pytest.param("supp_measure", ["--m", "2,3^", "--N", 4, "--limit", 20],
                     lambda: experiments.supp_measure_scan(GeneratorSequence.parse("2,3^"), 4, n_limit=20),
                     id="supp_measure"),
        pytest.param("dirichlet_floor", ["--N", 5, "--limit", 20],
                     lambda: experiments.dirichlet_floor_scan(WALSH, 5, n_limit=20), id="dirichlet_floor"),
        pytest.param("kernel_average", ["--N", 5, "--rank", 2, "--limit", 20],
                     lambda: experiments.kernel_average_scan(WALSH, 5, 2, n_limit=20), id="kernel_average"),
    ]

    @pytest.mark.parametrize("name, flags, call", SCANS)
    def test_cli_writes_the_library_result(self, tmp_path, name, flags, call):
        assert {case.values[0] for case in self.SCANS} == set(experiments.SCAN_REGISTRY)
        run(["scan", "--name", name, *flags, "--out", tmp_path])
        (written,) = tmp_path.glob("scan_*.json")
        assert written.read_text() == call().to_json() + "\n"

    def test_every_scan_keyword_reads_a_flag(self):
        _, commands = cli.build_parser()
        dests = {action.dest for action in commands["scan"]._actions}
        for name, scan in experiments.SCAN_REGISTRY.items():
            for key in inspect.signature(scan).parameters:
                assert cli.SCAN_FLAGS.get(key, key) in dests, (name, key)


class TestConfigPlumbing:
    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=3^\nN=5\n")
        assert run(["lebesgue", "--config", cfg, "--out", tmp_path]) == 0
        assert (tmp_path / "lebesgue_m3c_N5.csv").exists()

    def test_cli_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=3^\nN=5\n")
        assert run(["lebesgue", "--config", cfg, "--m", "2^", "--N", 6, "--out", tmp_path]) == 0
        assert (tmp_path / "lebesgue_m2c_N6.csv").exists()

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert run(["lebesgue", "--config", cfg, "--out", tmp_path]) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key=7\ntrails=3\n")
        argv = ["scan", "--name", "supp_measure", "--m", "2^", "--N", 4, "--config", cfg, "--out", tmp_path]
        assert run(argv) == 2
        assert "'bogus_key'" in _single_error_line(capsys)
        assert not list(tmp_path.glob("scan_*"))

    def test_config_keys_are_flag_dests(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=3\nf_rule=fast_decay\nN=4\n")
        assert run(["scan", "--name", "supp_measure", "--config", cfg, "--out", tmp_path]) == 0
        assert (tmp_path / "scan_supp_measure_m2c_N4.json").exists()

    @pytest.mark.parametrize("value, svg", [("false", False), ("true", True)])
    def test_config_switch(self, tmp_path, value, svg):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"svg={value}\n")
        assert run(["scan", "--name", "supp_measure", "--N", 4, "--config", cfg, "--out", tmp_path]) == 0
        assert (tmp_path / "scan_supp_measure_m2c_N4.json").exists()
        assert (tmp_path / "scan_supp_measure_m2c_N4.svg").exists() == svg

    def test_config_leaves_the_shared_parser_alone(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("svg=true\n")
        argv = ["scan", "--name", "supp_measure", "--N", 3]
        assert run([*argv, "--config", cfg, "--out", tmp_path / "config"]) == 0
        assert run([*argv, "--out", tmp_path / "plain"]) == 0
        assert (tmp_path / "config" / "scan_supp_measure_m2c_N3.svg").exists()
        assert not (tmp_path / "plain" / "scan_supp_measure_m2c_N3.svg").exists()

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        builds = []
        build = cli.build_parser

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._shared_parser.cache_clear()
        for n in (2, 3, 4):
            assert run(["dirichlet", "--m", "2^", "--n", n, "--N", 3, "--out", tmp_path]) == 0
        assert len(builds) == 1

    def test_config_switch_needs_true_or_false(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("svg=0\n")
        assert run(["scan", "--name", "supp_measure", "--N", 4, "--config", cfg, "--out", tmp_path]) == 2
        assert "'svg'" in _single_error_line(capsys)
        assert not list(tmp_path.glob("scan_*"))

    @pytest.mark.parametrize("argv", [["dirichlet", "--n", 3], ["lebesgue"], ["counterexample"]],
                             ids=lambda argv: argv[0])
    def test_seed_refused_where_nothing_is_drawn(self, tmp_path, argv):
        with pytest.raises(SystemExit) as err:
            run([*argv, "--N", 4, "--seed", 1, "--out", tmp_path])
        assert err.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            run(["dirichlet", "--m", "2^", "--N", 4])  # missing --n
        assert err.value.code == 2


class TestConfigLine:
    """The config line at the top of a written file, read back as a --config
    file beside only the required flags, regenerates every file byte for byte."""

    CASES = [
        pytest.param(["dirichlet", "--n", 37, "--m", "2,3^", "--N", 5], ["dirichlet", "--n", 37], id="dirichlet"),
        pytest.param(["lebesgue", "--m", "3^", "--N", 4, "--limit", 10, "--convention", "from0"], ["lebesgue"],
                     id="lebesgue"),
        pytest.param(["atom", "--m", "2,3,4^", "--N", 5, "--p", 0.6, "--seed", 7, "--base", 1], ["atom"], id="atom"),
        pytest.param(["counterexample", "--N", 10, "--p", 2 / 3], ["counterexample"], id="counterexample"),
        pytest.param(["scan", "--name", "modulus_convergence", "--N", 8, "--f-rule", "fast_decay",
                      "--variant", "Mn_plus_1", "--svg"], ["scan", "--name", "modulus_convergence"], id="scan"),
    ]

    @pytest.mark.parametrize("argv, required", CASES)
    def test_round_trip(self, tmp_path, argv, required):
        first, again = tmp_path / "first", tmp_path / "again"
        assert run([*argv, "--out", first]) == 0
        head = min(first.glob("*.csv")).read_text().splitlines()[0]
        assert head.startswith("# vilenkin-config: ")
        pairs = dict(pair.split("=", 1) for pair in head.split()[2:])
        assert pairs.pop("command") == (f"scan:{argv[2]}" if argv[0] == "scan" else argv[0])
        assert pairs.pop("version") == cli.__version__
        # every flag given on the command line is recorded
        given = {str(flag)[2:].replace("-", "_") for flag in argv if str(flag).startswith("--")}
        assert given - {"name"} <= set(pairs)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in pairs.items()))
        assert run([*required, "--config", cfg, "--out", again]) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in again.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes(), name


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all selftest checks passed" in out
        assert out.count("PASS") >= 15

    @pytest.mark.parametrize("name, check", IDENTITIES, ids=[name for name, _ in IDENTITIES])
    def test_identity(self, name, check):
        assert check()


class TestArtifactReproducibility:
    def test_same_config_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["scan", "--name", "atom_ratio", "--m", "2^", "--N", 6, "--p", 0.5,
                 "--trials", 10, "--out", out])
        name = "scan_atom_ratio_m2c_N6"
        for suffix in (".json", ".csv"):
            assert (a / name).with_suffix(suffix).read_bytes() == (b / name).with_suffix(suffix).read_bytes()


def _single_error_line(capsys) -> str:
    return _one_error_line(capsys.readouterr().err)


def _one_error_line(stderr: str) -> str:
    err = stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


# The console entry point, for a capped child process (see conftest.capped_python).
_CLI_CHILD = "import sys; from vilenkin.cli import main; sys.exit(main(sys.argv[1:]))"


class TestInputErrors:
    """Every bad input ends as exit 2 with one `error:` line, never a traceback."""

    def test_base_overflow_is_usage_error(self, tmp_path, capsys):
        assert run(["scan", "--name", "supp_measure", "--m", "2^", "--N", 80, "--out", tmp_path]) == 2
        assert "64-bit" in _single_error_line(capsys)

    CSV_HEAD = "# vilenkin grid v1\n# m=2^\n# N=2\nindex,re,im\n"
    CSV_FAULTS = {
        "index_out_of_range": "0,1,0\n1,1,0\n2,1,0\n9,1,0\n",
        "duplicate_index": "0,1,0\n1,1,0\n1,1,0\n2,1,0\n3,1,0\n",
        "missing_index": "0,1,0\n1,1,0\n3,1,0\n",
        "malformed_line": "0,1,0\n1,1\n2,1,0\n3,1,0\n",
        "malformed_cell": "0,1,0\n1,one,0\n2,1,0\n3,1,0\n",
        "non_finite_cell": "0,1,0\n1,nan,0\n2,1,0\n3,1,0\n",
        # finite cells whose transform overflows: refused, not written as inf and nan
        "overflowing_transform": "0,1e308,0\n1,-1e308,0\n2,1e308,0\n3,-1e308,0\n",
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fault", sorted(CSV_FAULTS))
    def test_bad_csv_is_usage_error(self, tmp_path, capsys, fault):
        src = tmp_path / "f.csv"
        src.write_text(self.CSV_HEAD + self.CSV_FAULTS[fault])
        argv = ["transform", "--op", "forward", "--input", src, "--output", tmp_path / "o.csv"]
        assert run(argv) == 2
        _single_error_line(capsys)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_inverse_is_usage_error(self, tmp_path, capsys):
        # finite coefficients whose synthesis overflows on its x M_N
        src, out = tmp_path / "fhat.csv", tmp_path / "o.bin"
        src.write_text("# vilenkin spectral v1\n# m=2^\n# N=2\nindex,re,im\n0,0,0\n1,1e308,0\n2,0,0\n3,1e308,0\n")
        assert run(["transform", "--op", "inverse", "--input", src, "--output", out]) == 2
        assert "the inverse transform" in _single_error_line(capsys)
        assert not out.exists()

    def test_header_past_the_cap_is_usage_error(self, tmp_path, capsys):
        # refused on the header's N = 21, before any row is parsed
        src, out = tmp_path / "fhat.csv", tmp_path / "o.bin"
        src.write_text("# vilenkin spectral v1\n# m=2^\n# N=21\nindex,re,im\n")
        assert run(["transform", "--op", "inverse", "--input", src, "--output", out]) == 2
        assert "size cap" in _single_error_line(capsys)
        assert not out.exists()

    @staticmethod
    def _binary(values) -> bytes:
        # The VGF1 layout written by hand, so that a non-finite payload
        # reaches the reader without passing grid_function.
        mstr = WALSH.format().encode()
        header = b"VGF1" + struct.pack("<BIH", 0, 2, len(mstr)) + mstr
        return header + np.asarray(values, dtype="<c16").tobytes()

    @pytest.mark.parametrize("fault", ["short_header", "truncated_payload", "non_finite_payload"])
    def test_bad_binary_is_usage_error(self, tmp_path, capsys, fault):
        blob = self._binary([1.0, 2.0, 3.0, 4.0])
        if fault == "short_header":
            blob = blob[:8]
        elif fault == "truncated_payload":
            blob = blob[:-5]
        else:
            blob = self._binary([1.0, np.inf, 3.0, 4.0])
        src = tmp_path / "f.bin"
        src.write_bytes(blob)
        argv = ["transform", "--op", "forward", "--input", src, "--output", tmp_path / "o.csv"]
        assert run(argv) == 2
        _single_error_line(capsys)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "--op", "forward", "--input", "f.csv", "--out", "X"],
            ["scan", "--name", "supp_measure", "--lim", 5],
        ],
        ids=["transform-out", "scan-lim"],
    )
    def test_flag_prefix_is_refused(self, tmp_path, capsys, monkeypatch, argv):
        # --out is not read as --output, nor --lim as --limit
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.csv").write_text(self.CSV_HEAD + "0,1,0\n1,1,0\n2,1,0\n3,1,0\n")
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len([line for line in lines if "error:" in line]) == 1, lines
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv"]

    # Values each refused where it enters, before any file is written.
    BAD_VALUES = {
        "atom-p-zero": (["atom", "--p", 0, "--N", 4], "atom exponent p = 0.0"),
        "counterexample-p-zero": (["counterexample", "--p", 0, "--N", 6], "atom exponent p = 0.0"),
        "divergence-phi-zero": (["scan", "--name", "divergence", "--N", 8, "--phi", "constant:0"], "positive"),
        "counterexample-phi-nan": (["counterexample", "--N", 6, "--phi", "power:nan"], "finite"),
        "explicit-lambda-nan": (["counterexample", "--N", 6, "--alphas", "3,5", "--rule", "explicit",
                                 "--lambdas", "nan,1"], "finite lambda per alpha"),
        "atom-ratio-trials-negative": (["scan", "--name", "atom_ratio", "--trials", -1], "trial"),
        "atom-ratio-trials-zero": (["scan", "--name", "atom_ratio", "--trials", 0], "trial"),
        "boundedness-trials-negative": (["scan", "--name", "boundedness", "--trials", -3], "trial"),
        "boundedness-p-one": (["scan", "--name", "boundedness", "--p", 1, "--N", 3], "0 < p < 1"),
        "atom-base-above": (["atom", "--N", 4, "--base", 99], "base index 99"),
        "atom-base-negative": (["atom", "--N", 4, "--base", -1], "base index -1"),
        "atom-base-at-M-rank": (["atom", "--N", 4, "--rank", 1, "--base", 2], "base index 2 is not an integer in 0..1"),
        "atom-ratio-N-3": (["scan", "--name", "atom_ratio", "--m", "3^", "--N", 3, "--trials", 1], "N > 3"),
        # a float power past the float range is named, not errno 34's "Numerical result out of range"
        "atom-p-overflow": (["atom", "--p", 1e-300, "--N", 4],
                            "the atom bound M_rank^(1/p) = 4^1e+300 overflows the float range"),
        "counterexample-p-overflow": (["counterexample", "--p", 1e-3, "--N", 6],
                                      "the block level M_|a_k|^(1/p-1) = 4^999 overflows"),
        "atom-ratio-p-overflow": (["scan", "--name", "atom_ratio", "--p", 1e-300, "--N", 5, "--trials", 1],
                                  "the atom bound M_rank^(1/p)"),
        "boundedness-p-overflow": (["scan", "--name", "boundedness", "--p", 1e-3, "--N", 6, "--trials", 1],
                                   "the block level M_|a_k|^(1/p-1)"),
        "divergence-p-overflow": (["scan", "--name", "divergence", "--p", 1e-3, "--N", 8], "the spread rate"),
        "counterexample-phi-overflow": (["counterexample", "--N", 6, "--phi", "power:1e308"],
                                        "the Phi power M_|n|^t = 2^1e+308 overflows the float range"),
        "divergence-phi-overflow": (["scan", "--name", "divergence", "--N", 6, "--phi", "power:400"],
                                    "the Phi power M_|n|^t = 8^400 overflows the float range"),
        # a negative N is refused by name, not through a range or flag derived from it
        "supp-measure-N-negative": (["scan", "--name", "supp_measure", "--N", -1], "resolution must be nonnegative"),
        "boundedness-N-negative": (["scan", "--name", "boundedness", "--N", -1], "resolution must be nonnegative"),
        "atom-N-negative-rank-0": (["atom", "--N", -1, "--rank", 0], "resolution must be nonnegative"),
        # the pool's counterexample martingale has its first atom at M_1 + 1, so N >= 2
        "boundedness-N-1": (["scan", "--name", "boundedness", "--N", 1], "function pool needs N >= 2"),
        "weighted-series-N-0": (["scan", "--name", "weighted_series", "--N", 0], "function pool needs N >= 2"),
        # the default ranges and alphas are empty below these N: refused by name, not by a derived value
        "lebesgue-N-0": (["lebesgue", "--m", "2^", "--N", 0], "the Lebesgue table 1 <= n < M_N needs N >= 1, not N = 0"),
        "lebesgue-N-0-from1": (["lebesgue", "--m", "2^", "--N", 0, "--convention", "from1"],
                               "the Lebesgue table 1 <= n < M_N needs N >= 1"),
        "lebesgue-N-0-limit-from1": (["lebesgue", "--m", "2^", "--N", 0, "--limit", 2, "--convention", "from1"],
                                     "the Lebesgue table 1 <= n < M_N needs N >= 1, not N = 0"),
        "atom-N-0-default-rank": (["atom", "--N", 0], "the default --rank 2 needs N >= 3, not N = 0; pass --rank"),
        "atom-N-1-default-rank": (["atom", "--N", 1], "the default --rank 2 needs N >= 3, not N = 1; pass --rank"),
        "kernel-average-N-2-default-rank": (["scan", "--name", "kernel_average", "--N", 2],
                                            "the default --rank 3 needs N >= 3, not N = 2; pass --rank"),
        "counterexample-N-0": (["counterexample", "--N", 0],
                               "the default alphas need N >= 2 for their first, M_1 + 1, not N = 0"),
        "counterexample-N-1": (["counterexample", "--N", 1],
                               "the default alphas need N >= 2 for their first, M_1 + 1, not N = 1"),
        "modulus-N-0": (["scan", "--name", "modulus_convergence", "--N", 0],
                        "the modulus scan needs N >= 2 for its first alpha, M_1 + 1, not N = 0"),
        "modulus-N-1": (["scan", "--name", "modulus_convergence", "--N", 1],
                        "the modulus scan needs N >= 2 for its first alpha, M_1 + 1, not N = 1"),
        "modulus-N-1-Mn-plus-1": (["scan", "--name", "modulus_convergence", "--N", 1, "--variant", "Mn_plus_1"],
                                  "the modulus scan needs N >= 2"),
        # a floor scan with no order |n| > <n> to check: its first is M_1 + 1
        "floor-N-0": (["scan", "--name", "dirichlet_floor", "--m", "2^", "--N", 0],
                      "the floor scan needs N >= 2 for its first order, M_1 + 1, not N = 0"),
        "floor-N-1": (["scan", "--name", "dirichlet_floor", "--m", "2^", "--N", 1],
                      "the floor scan needs N >= 2 for its first order, M_1 + 1, not N = 1"),
        "floor-limit-1": (["scan", "--name", "dirichlet_floor", "--m", "2^", "--N", 3, "--limit", 1],
                          "floor scan limit 1 is not an integer in 3..8"),
        # a token that does not parse is named with its flag
        "counterexample-alphas-token": (["counterexample", "--N", 6, "--alphas", "3,x"], "--alphas: 'x' is not an integer"),
        "counterexample-lambdas-token": (["counterexample", "--N", 6, "--alphas", "3,5", "--rule", "explicit",
                                          "--lambdas", "1,y"], "--lambdas: 'y' is not a number"),
        "counterexample-phi-token": (["counterexample", "--N", 6, "--phi", "power:abc"], "--phi: 'abc' is not a number"),
        "divergence-phi-token": (["scan", "--name", "divergence", "--N", 8, "--phi", "constant:1,5"],
                                 "--phi: '1,5' is not a number"),
        "counterexample-phi-log-value": (["counterexample", "--N", 6, "--phi", "log:3"],
                                         "--phi: log takes no value, not 'log:3'"),
        "divergence-phi-log-value": (["scan", "--name", "divergence", "--N", 8, "--phi", "log:3"],
                                     "--phi: log takes no value, not 'log:3'"),
        # grids past a size cap, refused before any array of the grid exists
        "atom-N-46": (["atom", "--N", 46], f"M_N = {2**46} exceeds the size cap {2**20}"),
        "counterexample-N-46": (["counterexample", "--N", 46], f"M_N = {2**46} exceeds the size cap {2**20}"),
        "lebesgue-N-46": (["lebesgue", "--N", 46], f"M_N = {2**46} exceeds the size cap {2**14}"),
        "lebesgue-N-15": (["lebesgue", "--m", "2^", "--N", 15], f"M_N = {2**15} exceeds the size cap {2**14}"),
    }
    # The rows whose refusal, if it regressed, would try to allocate the grid:
    # they run in a child process with a capped address space.
    OVERSIZE = {"atom-N-46", "counterexample-N-46", "lebesgue-N-46", "lebesgue-N-15"}

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_value_is_usage_error(self, tmp_path, capsys, capped_python, case):
        argv, reason = self.BAD_VALUES[case]
        if case in self.OVERSIZE:
            child = capped_python(_CLI_CHILD, *argv, "--out", tmp_path)
            assert child.returncode == 2, child.stderr
            assert reason in _one_error_line(child.stderr)
        else:
            assert run([*argv, "--out", tmp_path]) == 2
            assert reason in _single_error_line(capsys)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("extra", [["--rank", 6], ["--rank", -1], ["--limit", 0], ["--limit", 17]],
                             ids=["rank-above-N", "rank-negative", "limit-zero", "limit-above-MN"])
    def test_kernel_average_out_of_range(self, tmp_path, capsys, extra):
        argv = ["scan", "--name", "kernel_average", "--m", "2^", "--N", 4, "--out", tmp_path, *extra]
        assert run(argv) == 2
        _single_error_line(capsys)
        assert not list(tmp_path.glob("scan_*"))


def _valid_files() -> list[bytes]:
    m = GeneratorSequence.parse("2,3^")
    f = grid_function(m, 2, [1.0, -2.5, 0.25j, 3.0, 1e-3, -7.0])
    files = []
    for write, obj, buf in [
        (write_grid_csv, f, io.StringIO()),
        (write_spectral_csv, forward(f), io.StringIO()),
        (write_grid_binary, f, io.BytesIO()),
        (write_spectral_binary, forward(f), io.BytesIO()),
    ]:
        write(buf, obj)
        blob = buf.getvalue()
        files.append(blob.encode() if isinstance(blob, str) else blob)
    return files


_TOKENS = [b"0", b"1", b"9", b"-", b"+", b".", b",", b"e", b"nan", b"inf", b"^", b"#", b" ", b"\n", b"\x00", b"\xff"]


@st.composite
def _mutated_file(draw) -> bytes:
    blob = bytearray(draw(st.sampled_from(_valid_files())))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(blob)))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "truncate"]))
        if edit == "truncate":
            del blob[i:]
            continue
        span = draw(st.integers(1, 8)) if edit != "insert" else 0
        token = draw(st.one_of(st.sampled_from(_TOKENS), st.binary(min_size=1, max_size=4)))
        blob[i:i + span] = b"" if edit == "delete" else token
    return bytes(blob)


class TestReaderFuzz:
    """Arbitrary and mutated files end in ValueError or OverflowError in the
    readers, and as exit 2 with one `error:` line in the CLI."""

    READERS = {
        ".csv": (read_grid_csv, read_spectral_csv),
        ".bin": (read_grid_binary, read_spectral_binary),
    }

    @given(blob=st.one_of(st.binary(max_size=120), _mutated_file()), suffix=st.sampled_from([".csv", ".bin"]))
    @settings(max_examples=300, deadline=None)
    def test_refused_or_read(self, blob, suffix):
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / f"f{suffix}", Path(tmp) / "o.csv"
            src.write_bytes(blob)
            accepted = []
            for reader in self.READERS[suffix]:
                with src.open("rb" if suffix == ".bin" else "r") as fh:  # as the CLI opens it
                    try:
                        reader(fh)
                    except (ValueError, OverflowError):
                        continue
                accepted.append(reader)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(["transform", "--op", "forward", "--input", src, "--output", out])
            if accepted == [self.READERS[suffix][0]]:
                assert code == 0 and out.exists()
            else:
                lines = err.getvalue().strip().splitlines()
                assert code == 2 and len(lines) == 1 and lines[0].startswith("error:"), lines
                assert not out.exists()
