import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torusharmonics
from torusharmonics.cli import main
from torusharmonics.gfio import (
    FileFormatError,
    RunConfig,
    load_config,
    parse_config_file,
    read_grid_function,
    write_grid_function,
)
from torusharmonics.grid import GridFunction


@pytest.fixture
def sample(tmp_path):
    rng = np.random.default_rng(0)
    f = GridFunction((8,), rng.normal(size=256) + 1j * rng.normal(size=256))
    path = tmp_path / "f.json"
    write_grid_function(f, path)
    return f, path


class TestFileFormats:
    def test_json_round_trip(self, tmp_path):
        f = GridFunction((5, 5), np.arange(1024).reshape(32, 32) * (1 + 2j))
        path = tmp_path / "f.json"
        write_grid_function(f, path)
        back = read_grid_function(path)
        assert back.log_sizes == f.log_sizes
        assert (back.values == f.values).all()

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        f = GridFunction((6,), rng.normal(size=64))
        path = tmp_path / "f.bin"
        write_grid_function(f, path, fmt="bin")
        back = read_grid_function(path, fmt="bin", log_sizes=(6,))
        assert (back.values == f.values).all()

    def test_cross_format_equality(self, tmp_path):
        rng = np.random.default_rng(2)
        f = GridFunction((6,), rng.normal(size=64))
        write_grid_function(f, tmp_path / "f.json")
        write_grid_function(f, tmp_path / "f.bin", fmt="bin")
        a = read_grid_function(tmp_path / "f.json")
        b = read_grid_function(tmp_path / "f.bin", fmt="bin", log_sizes=(6,))
        assert (a.values == b.values).all()

    def test_length_mismatch_names_field(self, tmp_path):
        payload = {"dims": 1, "log_sizes": [6], "re": [0.0] * 63, "im": [0.0] * 63}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError, match="re"):
            read_grid_function(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": 1, "log_sizes": [6], "re": []}))
        with pytest.raises(FileFormatError, match="im"):
            read_grid_function(path)

    @pytest.mark.parametrize("sample", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_json_sample_is_rejected(self, tmp_path, sample):
        payload = {"dims": 1, "log_sizes": [4], "re": [0.0] * 15 + [sample], "im": [0.0] * 16}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError, match="1 of 16 samples are NaN or infinite"):
            read_grid_function(path)

    def test_non_finite_binary_sample_is_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        pairs = np.zeros(32)
        pairs[[1, 6]] = (np.inf, np.nan)  # the imaginary part of sample 0, the real of 3
        path.write_bytes(pairs.astype("<f8").tobytes())
        with pytest.raises(FileFormatError, match="2 of 16 samples"):
            read_grid_function(path, fmt="bin", log_sizes=(4,))

    def test_binary_needs_shape(self, tmp_path):
        path = tmp_path / "f.bin"
        write_grid_function(GridFunction.constant(1.0, (5,)), path, fmt="bin")
        with pytest.raises(FileFormatError, match="shape"):
            read_grid_function(path, fmt="bin")


class TestConfig:
    def test_parse_flat_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("log_size = 9\nseed = 3  # comment\nout_dir = 'x'\n")
        raw = parse_config_file(path)
        assert raw == {"log_size": 9, "seed": 3, "out_dir": "x"}
        config = load_config(path)
        assert config.log_size == 9 and config.seed == 3 and config.out_dir == "x"

    @pytest.mark.parametrize("line", ["sede = 3", "tol_partition = 1e-9"])
    def test_unknown_key_is_rejected(self, tmp_path, line):
        path = tmp_path / "cfg"
        path.write_text(f"log_size = 9\n{line}\n")
        key = line.split(" =")[0]
        with pytest.raises(FileFormatError, match=key):
            load_config(path)

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("log_size = 9\n")
        config = load_config(path, {"log_size": 10})
        assert config.log_size == 10

    def test_range_validation(self):
        with pytest.raises(ValueError):
            RunConfig(log_size=99)


class TestCLI:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["bogus"])
        assert err.value.code == 2

    def test_maximal_round_trip(self, sample, tmp_path):
        f, path = sample
        out = tmp_path / "Mf.json"
        code = main(["maximal", "--kind", "hl", "--in", str(path), "--out", str(out)])
        assert code == 0
        mf = read_grid_function(out)
        assert (mf.values.real >= np.abs(f.values) - 1e-12).all()
        assert (tmp_path / "Mf.json.config.json").exists()

    def test_maximal_kind_validated_at_parse_time(self, sample):
        _, path = sample
        with pytest.raises(SystemExit) as err:
            main(["maximal", "--kind", "bogus", "--in", str(path)])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["maximal", "--kind", "hl:2", "--in", str(path)])
        assert err.value.code == 2
        assert main(["maximal", "--kind", "shifted_sup:2", "--in", str(path)]) == 0

    def test_missing_input_file_is_one_line_error(self, tmp_path, capsys):
        code = main(["maximal", "--in", str(tmp_path / "absent.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_nan_input_file_is_a_usage_error(self, tmp_path, capsys):
        values = np.ones(16)
        values[3] = np.nan
        path = tmp_path / "nan.json"
        write_grid_function(GridFunction((4,), values), path)
        assert main(["maximal", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert "max value" not in captured.out
        assert captured.err.startswith("error:") and "NaN" in captured.err
        assert captured.err.count("\n") == 1

    def test_malformed_json_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["rearrange", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: not valid JSON")

    def test_square_command(self, sample, tmp_path):
        _, path = sample
        out = tmp_path / "Sf.json"
        assert main(["square", "--mode", "plain", "--in", str(path), "--out", str(out)]) == 0
        assert read_grid_function(out).dims == 1

    def test_square_with_only_zero_prototype_scales_prints_zero(self, sample, capsys):
        # from_pou_1 vanishes at k = 1, 2, so the K = 2 window has no member
        _, path = sample
        assert main(["square", "--scales", "2", "--in", str(path)]) == 0
        assert capsys.readouterr().out.startswith("||Sf||_2 = 0 (scale window k=1..2)")

    def test_hybrid_on_1d_input_is_one_line_error(self, sample, capsys):
        _, path = sample
        assert main(["hybrid", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2D" in err and err.count("\n") == 1

    def test_hybrid_honours_scales(self, tmp_path, capsys):
        from torusharmonics.bumps import make_adapted_family
        from torusharmonics.squares import hybrid

        rng = np.random.default_rng(4)
        f = GridFunction((7, 7), rng.normal(size=(128, 128)))
        path, out = tmp_path / "f.json", tmp_path / "h.json"
        write_grid_function(f, path)
        assert main(["hybrid", "--kind", "MS", "--scales", "3", "--in", str(path),
                     "--out", str(out)]) == 0
        assert "k=1..3 x k=1..3" in capsys.readouterr().out
        fam = make_adapted_family("from_pou_1", 3, 7)
        expect = hybrid(f, (fam, fam), "MS").values
        assert np.abs(read_grid_function(out).values - expect).max() <= 1e-12

    def test_cz_command(self, sample, capsys):
        _, path = sample
        assert main(["cz", "--alpha", "8.0", "--in", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload["checks"].values())

    def test_rearrange_emit(self, sample, tmp_path):
        _, path = sample
        emit = tmp_path / "profile.csv"
        assert main(["rearrange", "--in", str(path), "--emit", str(emit)]) == 0
        lines = emit.read_text().splitlines()
        assert lines[0] == "breakpoint,value"
        assert len(lines) > 1

    def test_zygmund_both_paths(self, sample, capsys):
        _, path = sample
        assert main(["zygmund", "--n", "2", "--method", "both", "--in", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relative_gap"] < 5e-3

    def test_multiplier_validate(self, capsys):
        assert main(["multiplier", "validate", "--symbol", "hilbert"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]

    def test_multiplier_apply(self, sample, tmp_path):
        _, path = sample
        out = tmp_path / "Hf.json"
        assert main(
            ["multiplier", "apply", "--symbol", "hilbert", "--in", str(path), "--out", str(out)]
        ) == 0

    def test_multiplier_coeffs(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        assert main(
            ["multiplier", "coeffs", "--symbol", "hilbert", "--scale", "5", "--out", str(out)]
        ) == 0
        assert out.read_text().startswith("n,abs_c,decay_product")

    def test_paraproduct_command(self, sample, tmp_path):
        f, path = sample
        rng = np.random.default_rng(3)
        g = GridFunction((8,), rng.normal(size=256))
        path2 = tmp_path / "g.json"
        write_grid_function(g, path2)
        assert main(
            ["paraproduct", "--params", "1", "--eps", "seed:4",
             "--in", str(path), "--in2", str(path2)]
        ) == 0

    def test_bumps_check(self, tmp_path, capsys):
        out = tmp_path / "bumps.json"
        assert main(["bumps", "check", "--scales", "5", "--grid", "9", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["partition_residual"] <= 1e-10

    def test_verify_single_check(self, tmp_path):
        code = main(
            ["verify", "--only", "fs_growth_counterexample", "--out", str(tmp_path / "v")]
        )
        assert code == 0
        assert (tmp_path / "v" / "summary.csv").exists()
        assert (tmp_path / "v" / "fs_growth_counterexample.json").exists()
        assert (tmp_path / "v" / "config.json").exists()

    def test_config_file_via_flag(self, sample, tmp_path):
        _, path = sample
        cfg = tmp_path / "cfg"
        cfg.write_text("seed = 9\n")
        out = tmp_path / "v2"
        code = main(
            ["--config", str(cfg), "verify", "--only", "fs_growth_counterexample",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads((out / "config.json").read_text())["seed"] == 9

    def test_console_script_entry(self):
        # the child imports the package from where this process found it,
        # installed or not
        package_root = str(Path(torusharmonics.__file__).parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "torusharmonics.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "verify" in proc.stdout


class TestCLIParaproduct2P:
    def test_biparameter_path(self, tmp_path):
        rng = np.random.default_rng(5)
        f = GridFunction((6, 6), rng.normal(size=(64, 64)))
        g = GridFunction((6, 6), rng.normal(size=(64, 64)))
        pf, pg = tmp_path / "f.json", tmp_path / "g.json"
        write_grid_function(f, pf)
        write_grid_function(g, pg)
        out = tmp_path / "t.json"
        code = main(
            ["paraproduct", "--params", "2", "--slots", "3,3", "--eps", "seed:1",
             "--in", str(pf), "--in2", str(pg), "--out", str(out)]
        )
        assert code == 0
        assert read_grid_function(out).dims == 2

    def test_epsilon_from_file(self, sample, tmp_path):
        f, path = sample
        rng = np.random.default_rng(6)
        g = GridFunction((8,), rng.normal(size=256))
        path2 = tmp_path / "g.json"
        write_grid_function(g, path2)
        scales = 8 - 3
        eps_payload = {str(k): [1.0] * 2**k for k in range(1, scales + 1)}
        eps_path = tmp_path / "eps.json"
        eps_path.write_text(json.dumps(eps_payload))
        assert main(
            ["paraproduct", "--params", "1", "--eps", f"file:{eps_path}",
             "--in", str(path), "--in2", str(path2)]
        ) == 0

    def test_epsilon_file_length_mismatch(self, sample, tmp_path):
        f, path = sample
        path2 = tmp_path / "g.json"
        write_grid_function(f, path2)
        eps_path = tmp_path / "eps.json"
        eps_path.write_text(json.dumps({str(k): [1.0] for k in range(1, 6)}))
        assert main(
            ["paraproduct", "--params", "1", "--eps", f"file:{eps_path}",
             "--in", str(path), "--in2", str(path2)]
        ) == 2


class TestOutputRule:
    """Every --out gets the command's artifact and a config sidecar; without
    --out a report is printed."""

    @pytest.mark.parametrize("argv,flag", [
        (["rearrange"], "--out"),
        (["rearrange"], "--emit"),
        (["zygmund", "--n", "1"], "--out"),
    ])
    def test_report_commands_honour_out(self, sample, tmp_path, capsys, argv, flag):
        _, path = sample
        out = tmp_path / "report.txt"
        assert main(argv + ["--in", str(path), flag, str(out)]) == 0
        assert (tmp_path / "report.txt.config.json").exists()
        if argv[0] == "rearrange":
            assert out.read_text().splitlines()[0] == "breakpoint,value"
        else:
            assert set(json.loads(out.read_text())) == {"closed_form", "iterated",
                                                        "relative_gap"}
            assert capsys.readouterr().out == ""

    def test_rearrange_without_out_prints_only_the_summary(self, sample, capsys):
        _, path = sample
        assert main(["rearrange", "--in", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and " steps, support " in lines[0]

    def test_cz_out_writes_json_instead_of_printing(self, sample, tmp_path, capsys):
        _, path = sample
        out = tmp_path / "cz.json"
        assert main(["cz", "--alpha", "8.0", "--in", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert all(json.loads(out.read_text())["checks"].values())
        assert json.loads((tmp_path / "cz.json.config.json").read_text())["seed"] == 11

    def test_square_mode_validated_at_parse_time(self, sample):
        _, path = sample
        for mode in ("bogus", "plain:2", "sup:x"):
            with pytest.raises(SystemExit) as err:
                main(["square", "--mode", mode, "--in", str(path)])
            assert err.value.code == 2

    def test_unknown_symbol_exits_2_at_parse_time(self):
        with pytest.raises(SystemExit) as err:
            main(["multiplier", "validate", "--symbol", "bogus"])
        assert err.value.code == 2

    def test_square_window_honours_scale_margin(self, sample, tmp_path, capsys):
        _, path = sample
        cfg = tmp_path / "cfg"
        cfg.write_text("scale_margin = 5\n")
        assert main(["--config", str(cfg), "square", "--in", str(path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("(scale window k=1..3)")


@pytest.mark.parametrize("payload", [
    {str(k): 1.0 for k in range(1, 6)},  # a scalar where a list should be
    {str(k): [[1.0]] * 2**k for k in range(1, 6)},  # a one-element [re] pair
    [str(k) for k in range(1, 6)],  # a top-level list (of the scale keys)
])
def test_malformed_epsilon_file_is_a_usage_error(sample, tmp_path, capsys, payload):
    _, path = sample
    eps_path = tmp_path / "eps.json"
    eps_path.write_text(json.dumps(payload))
    code = main(["paraproduct", "--params", "1", "--eps", f"file:{eps_path}",
                 "--in", str(path), "--in2", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_nan_constant_epsilon_is_a_usage_error(sample, capsys):
    _, path = sample
    code = main(["paraproduct", "--params", "1", "--eps", "constant:nan",
                 "--in", str(path), "--in2", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "NaN or infinite" in err and err.count("\n") == 1


def test_nan_in_epsilon_file_is_a_usage_error(sample, tmp_path, capsys):
    _, path = sample
    payload = {str(k): [1.0] * 2**k for k in range(1, 6)}
    payload["3"][5] = float("nan")
    eps_path = tmp_path / "eps.json"
    eps_path.write_text(json.dumps(payload))  # json writes the NaN literal
    code = main(["paraproduct", "--params", "1", "--eps", f"file:{eps_path}",
                 "--in", str(path), "--in2", str(path)])
    assert code == 2
    assert "1 eps values are NaN or infinite" in capsys.readouterr().err


def test_scale_margin_leaving_no_scale_is_a_usage_error(sample, tmp_path, capsys):
    _, path = sample
    cfg = tmp_path / "cfg"
    cfg.write_text("scale_margin = 8\n")
    assert main(["--config", str(cfg), "square", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: grid exponent 8 with scale_margin 8 gives the empty scale window k = 1..0\n"
    )


def test_negative_scales_is_a_usage_error(sample, capsys):
    _, path = sample
    assert main(["square", "--scales", "-1", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "error: --scales -1 gives the empty scale window k = 1..-1\n"
