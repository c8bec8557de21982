"""Integration tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.tensor import (
    TensorDelta,
    load_matrix,
    load_tensor,
    random_tensor,
    save_delta,
    save_tensor,
)


@pytest.fixture
def tensor_file(tmp_path):
    rng = np.random.default_rng(0)
    tensor = random_tensor((12, 12, 12), density=0.1, rng=rng)
    path = tmp_path / "input.tns"
    save_tensor(tensor, path)
    return path, tensor


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x.tns"])
        assert args.kind == "random"
        assert args.shape == [64, 64, 64]

    def test_factorize_has_no_eager_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["factorize", "x.tns", "--eager"])

    @pytest.mark.parametrize(
        "argv",
        [["factorize", "x.tns"], ["jobs", "--spool", "s", "serve"]],
        ids=["factorize", "jobs-serve"],
    )
    def test_backend_choices_are_serial_and_process(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, "--backend", "thread"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "serial" in err and "process" in err


class TestGenerate:
    def test_random(self, tmp_path, capsys):
        out = tmp_path / "random.tns"
        code = main(
            ["generate", "--kind", "random", "--shape", "8", "8", "8",
             "--density", "0.1", "--out", str(out)]
        )
        assert code == 0
        tensor = load_tensor(out)
        assert tensor.shape == (8, 8, 8)
        assert tensor.nnz == round(0.1 * 512)
        assert "wrote" in capsys.readouterr().out

    def test_planted(self, tmp_path):
        out = tmp_path / "planted.tns"
        main(["generate", "--kind", "planted", "--shape", "10", "10", "10",
              "--rank", "2", "--factor-density", "0.4", "--out", str(out)])
        assert load_tensor(out).nnz > 0

    def test_dataset(self, tmp_path):
        out = tmp_path / "fb.tns"
        main(["generate", "--kind", "dataset", "--dataset", "facebook",
              "--out", str(out)])
        assert load_tensor(out).shape == (96, 96, 16)


class TestInfo:
    def test_prints_stats(self, tensor_file, capsys):
        path, tensor = tensor_file
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "12x12x12" in out
        assert str(tensor.nnz) in out

    def test_missing_tensor_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.tns"
        assert main(["info", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_malformed_tensor_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tns"
        bad.write_text("1 2 3\n")
        assert main(["info", str(bad)]) == 2
        assert f"{bad}:1:" in capsys.readouterr().err


class TestFactorize:
    def test_dbtf(self, tensor_file, tmp_path, capsys):
        path, tensor = tensor_file
        factors_dir = tmp_path / "factors"
        code = main(
            ["factorize", str(path), "--method", "dbtf", "--rank", "3",
             "--max-iterations", "2", "--partitions", "4",
             "--factors-out", str(factors_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DBTF" in out
        assert "relative error" in out
        a_matrix = load_matrix(factors_dir / "A.mtx")
        assert a_matrix.shape == (12, 3)

    def test_bcp_als(self, tensor_file, capsys):
        path, _ = tensor_file
        assert main(["factorize", str(path), "--method", "bcp-als",
                     "--rank", "2", "--max-iterations", "2"]) == 0
        assert "BCP_ALS" in capsys.readouterr().out

    def test_walk_n_merge(self, tensor_file, capsys):
        path, _ = tensor_file
        assert main(["factorize", str(path), "--method", "walk-n-merge",
                     "--rank", "2", "--density-threshold", "0.5"]) == 0
        assert "Walk'n'Merge" in capsys.readouterr().out

    def test_tucker(self, tensor_file, capsys):
        path, _ = tensor_file
        assert main(["factorize", str(path), "--method", "tucker",
                     "--core-shape", "2", "2", "2",
                     "--max-iterations", "2"]) == 0
        assert "Tucker" in capsys.readouterr().out

    def test_nway_cp(self, tensor_file, capsys):
        path, _ = tensor_file
        assert main(["factorize", str(path), "--method", "nway-cp",
                     "--rank", "2", "--max-iterations", "2"]) == 0
        assert "N-way" in capsys.readouterr().out

    def test_nway_cp_four_way_factor_export(self, tmp_path, capsys):
        import numpy as np

        from repro.tensor import SparseBoolTensor, save_tensor

        rng = np.random.default_rng(3)
        dense = (rng.random((5, 5, 5, 5)) < 0.1).astype(np.uint8)
        path = tmp_path / "four.tns"
        save_tensor(SparseBoolTensor.from_dense(dense), path)
        out = tmp_path / "factors4"
        assert main(["factorize", str(path), "--method", "nway-cp",
                     "--rank", "2", "--max-iterations", "2",
                     "--factors-out", str(out)]) == 0
        assert (out / "factor_0.mtx").exists()
        assert (out / "factor_3.mtx").exists()


class TestFactorizeCheckpoint:
    def test_dbtf_writes_checkpoints_and_resumes(
        self, tensor_file, tmp_path, capsys
    ):
        path, _ = tensor_file
        directory = tmp_path / "ckpt"
        base = ["factorize", str(path), "--method", "dbtf", "--rank", "2",
                "--max-iterations", "2", "--partitions", "4",
                "--checkpoint-dir", str(directory)]
        assert main(base) == 0
        snapshots = sorted(p.name for p in directory.glob("*.ckpt"))
        assert snapshots
        assert main(base + ["--resume"]) == 0
        assert "DBTF" in capsys.readouterr().out

    def test_checkpoint_every_cadence(self, tensor_file, tmp_path):
        path, _ = tensor_file
        directory = tmp_path / "ckpt"
        assert main(
            ["factorize", str(path), "--method", "tucker",
             "--core-shape", "2", "2", "2", "--max-iterations", "2",
             "--checkpoint-dir", str(directory),
             "--checkpoint-every", "2"]
        ) == 0
        assert list(directory.glob("*.ckpt"))

    def test_resume_requires_checkpoint_dir(self, tensor_file, capsys):
        path, _ = tensor_file
        assert main(["factorize", str(path), "--method", "dbtf",
                     "--rank", "2", "--resume"]) == 2
        assert "--resume requires" in capsys.readouterr().err

    def test_checkpoint_unsupported_method(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        assert main(["factorize", str(path), "--method", "bcp-als",
                     "--rank", "2",
                     "--checkpoint-dir", str(tmp_path / "c")]) == 2
        assert "only supported" in capsys.readouterr().err


class TestFactorizeCluster:
    def test_batch_with_cluster_flags(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["factorize", str(path), "--rank", "2", "--max-iterations", "2",
             "--backend", "process", "--workers", "2",
             "--memory-budget", "4K", "--spill-dir", str(tmp_path),
             "--trace", str(trace), "--metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "process backend" in out
        assert "spill I/O" in out
        assert trace.read_text().strip()

    def test_delta_epochs(self, tensor_file, tmp_path, capsys):
        path, tensor = tensor_file
        delta = tmp_path / "step.delta"
        removal = TensorDelta.from_coords(tensor.shape, removed=tensor.coords[:3])
        save_delta(removal, delta)
        code = main(["factorize", str(path), "--rank", "2",
                     "--max-iterations", "2", "--delta", str(delta),
                     "--metrics"])
        assert code == 0
        assert "DBTF incremental (2 epochs" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# delta 12 twelve 12\n", 1),
            ("# delta 12 12 12\n+ 1 2 x\n", 2),
            ("# delta 12 12 12\n+ 1 2 3\n- 1 12 0\n", 3),
        ],
    )
    def test_malformed_delta_exits_2(self, tensor_file, tmp_path, capsys,
                                     text, line):
        path, _ = tensor_file
        delta = tmp_path / "bad.delta"
        delta.write_text(text)
        assert main(["factorize", str(path), "--delta", str(delta)]) == 2
        error = capsys.readouterr().err
        assert str(delta) in error
        assert f"line {line}:" in error

    def test_missing_tensor_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.tns"
        assert main(["factorize", str(missing), "--rank", "2"]) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 1 2\n", 1),
            ("# shape 4 4 4\n0 1 9\n", 2),
        ],
    )
    def test_malformed_tensor_exits_2(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.tns"
        bad.write_text(text)
        assert main(["factorize", str(bad), "--rank", "2"]) == 2
        assert f"{bad}:{line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["tucker", "bcp-als", "walk-n-merge"])
    @pytest.mark.parametrize(
        "flags",
        [["--backend", "process"], ["--backend", "process", "--workers", "2"],
         ["--workers", "3"]],
    )
    def test_cluster_flags_rejected_for_single_machine_methods(
        self, tensor_file, capsys, method, flags
    ):
        path, _ = tensor_file
        code = main(["factorize", str(path), "--method", method,
                     "--rank", "2", *flags])
        assert code == 2
        assert "--backend/--workers" in capsys.readouterr().err

    def test_missing_delta_exits_2(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        missing = tmp_path / "absent.delta"
        assert main(["factorize", str(path), "--delta", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err


class TestExperiment:
    def test_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        assert "facebook" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["experiment", "fig7"]) == 0
        assert "speed-up" in capsys.readouterr().out

    def test_fig7_with_chart(self, capsys):
        assert main(["experiment", "fig7", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "█" in out

    def test_lemma_traffic(self, capsys):
        assert main(["experiment", "lemma-traffic-partitions"]) == 0
        assert "collect bytes" in capsys.readouterr().out


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        from repro.bitops import BitMatrix
        from repro.tensor import save_matrix

        rng = np.random.default_rng(1)
        matrix = BitMatrix.random(9, 4, 0.4, rng)
        path = tmp_path / "m.mtx"
        save_matrix(matrix, path)
        assert load_matrix(path) == matrix

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("0 0\n")
        with pytest.raises(ValueError):
            load_matrix(path)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad2.mtx"
        path.write_text("# matrix 2 2\n0 0 0\n")
        with pytest.raises(ValueError):
            load_matrix(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "ok.mtx"
        path.write_text("# matrix 2 2\n# comment\n\n1 1\n")
        matrix = load_matrix(path)
        assert matrix.get(1, 1) == 1
        assert matrix.count_nonzeros() == 1
