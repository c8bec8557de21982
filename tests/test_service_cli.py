"""The ``jobs`` CLI group and checkpoint flags over the file spool."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.tensor import planted_tensor, save_tensor


@pytest.fixture
def tensor_file(tmp_path):
    tensor, _ = planted_tensor(
        (10, 10, 10), rank=3, factor_density=0.3,
        rng=np.random.default_rng(0),
    )
    path = tmp_path / "input.tns"
    save_tensor(tensor, path)
    return path, tensor


def submit(spool, tensor_path, tenant, capsys, *extra):
    code = main(["jobs", "--spool", str(spool), "submit", str(tensor_path),
                 "--tenant", tenant, "--rank", "3", "--max-iterations", "3",
                 *extra])
    assert code == 0
    return capsys.readouterr().out.strip().splitlines()[-1]


class TestParser:
    def test_jobs_requires_spool(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs", "status"])

    def test_jobs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs", "--spool", "s"])

    def test_checkpoint_keep_last_default(self):
        args = build_parser().parse_args(["factorize", "x.tns"])
        assert args.checkpoint_keep_last == 2


class TestSubmitStatus:
    def test_submit_prints_deterministic_id(self, tensor_file, tmp_path,
                                            capsys):
        path, _ = tensor_file
        spool = tmp_path / "spool"
        first = submit(spool, path, "acme", capsys)
        second = submit(spool, path, "acme", capsys)
        assert first == second
        assert first.startswith("job-")

    def test_status_before_serve(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        spool = tmp_path / "spool"
        job_id = submit(spool, path, "acme", capsys)
        assert main(["jobs", "--spool", str(spool), "status"]) == 0
        out = capsys.readouterr().out
        assert job_id in out
        assert "spooled" in out
        assert "acme" in out

    def test_submit_missing_tensor_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.tns"
        spool = tmp_path / "spool"
        assert main(["jobs", "--spool", str(spool), "submit", str(missing),
                     "--tenant", "acme"]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_submit_malformed_tensor_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tns"
        bad.write_text("# shape 4 4 4\n0 x 1\n")
        spool = tmp_path / "spool"
        assert main(["jobs", "--spool", str(spool), "submit", str(bad),
                     "--tenant", "acme"]) == 2
        assert f"{bad}:2:" in capsys.readouterr().err

    def test_status_empty_spool(self, tmp_path, capsys):
        assert main(["jobs", "--spool", str(tmp_path / "s"), "status"]) == 0
        assert "empty" in capsys.readouterr().out


class TestServe:
    def test_serve_completes_and_results_readable(self, tensor_file,
                                                  tmp_path, capsys):
        path, _ = tensor_file
        spool = tmp_path / "spool"
        acme = submit(spool, path, "acme", capsys)
        beta = submit(spool, path, "beta", capsys, "--seed", "1")
        code = main(["jobs", "--spool", str(spool), "serve"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 2 jobs" in out
        assert "acme: done=1" in out

        assert main(["jobs", "--spool", str(spool), "result", acme]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["tenant"] == "acme"
        assert summary["error"] >= 0
        assert summary["converged"] in (True, False)
        assert beta != acme

    def test_interrupted_serve_resumes(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        spool = tmp_path / "spool"
        job_id = submit(spool, path, "acme", capsys)
        assert main(["jobs", "--spool", str(spool), "serve",
                     "--max-steps", "2"]) == 0
        assert "resume on the next serve" in capsys.readouterr().out
        # The job is mid-flight with checkpoints on disk.
        snapshots = list((spool / "checkpoints" / job_id).glob("*.ckpt"))
        assert snapshots
        assert main(["jobs", "--spool", str(spool), "serve"]) == 0
        capsys.readouterr()
        assert main(["jobs", "--spool", str(spool), "status", job_id]) == 0
        assert "done" in capsys.readouterr().out

    def test_interrupted_serve_matches_uninterrupted(self, tensor_file,
                                                     tmp_path, capsys):
        path, _ = tensor_file
        direct_spool = tmp_path / "direct"
        killed_spool = tmp_path / "killed"
        direct_id = submit(direct_spool, path, "acme", capsys)
        killed_id = submit(killed_spool, path, "acme", capsys)
        assert direct_id == killed_id
        main(["jobs", "--spool", str(direct_spool), "serve"])
        main(["jobs", "--spool", str(killed_spool), "serve",
              "--max-steps", "2"])
        main(["jobs", "--spool", str(killed_spool), "serve"])
        capsys.readouterr()
        main(["jobs", "--spool", str(direct_spool), "result", direct_id])
        direct = json.loads(capsys.readouterr().out)
        main(["jobs", "--spool", str(killed_spool), "result", killed_id])
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["error"] == direct["error"]
        assert resumed["errors_per_iteration"] == direct["errors_per_iteration"]

    def test_serve_empty_spool(self, tmp_path, capsys):
        assert main(["jobs", "--spool", str(tmp_path / "s"), "serve"]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_serve_writes_metrics(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        spool = tmp_path / "spool"
        submit(spool, path, "acme", capsys)
        metrics_path = tmp_path / "metrics.jsonl"
        assert main(["jobs", "--spool", str(spool), "serve",
                     "--metrics-out", str(metrics_path)]) == 0
        rows = [json.loads(line)
                for line in metrics_path.read_text().splitlines()]
        names = {row["name"] for row in rows}
        assert "service_jobs_completed_total" in names
        assert "job_latency_seconds" in names

    def test_bad_weight_flag(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        spool = tmp_path / "spool"
        submit(spool, path, "acme", capsys)
        assert main(["jobs", "--spool", str(spool), "serve",
                     "--weight", "nonsense"]) == 2


class TestCancel:
    def test_cancel_marks_and_serve_honors(self, tensor_file, tmp_path,
                                           capsys):
        path, _ = tensor_file
        spool = tmp_path / "spool"
        doomed = submit(spool, path, "acme", capsys)
        kept = submit(spool, path, "beta", capsys, "--seed", "1")
        assert main(["jobs", "--spool", str(spool), "cancel", doomed]) == 0
        assert main(["jobs", "--spool", str(spool), "serve"]) == 0
        out = capsys.readouterr().out
        assert "serving 1 jobs" in out
        capsys.readouterr()
        main(["jobs", "--spool", str(spool), "status"])
        out = capsys.readouterr().out
        assert "cancelled" in out
        assert "done" in out
        assert kept != doomed

    def test_cancel_unknown_job(self, tmp_path, capsys):
        assert main(["jobs", "--spool", str(tmp_path / "s"), "cancel",
                     "job-ffffffffffffffff"]) == 2

    def test_result_missing(self, tensor_file, tmp_path, capsys):
        path, _ = tensor_file
        spool = tmp_path / "spool"
        job_id = submit(spool, path, "acme", capsys)
        assert main(["jobs", "--spool", str(spool), "result", job_id]) == 1


class TestCheckpointKeepLast:
    def test_threaded_to_retention(self, tensor_file, tmp_path):
        path, _ = tensor_file
        ckpt = tmp_path / "ckpt"
        code = main(["factorize", str(path), "--method", "dbtf",
                     "--rank", "3", "--max-iterations", "4",
                     "--checkpoint-dir", str(ckpt),
                     "--checkpoint-keep-last", "1"])
        assert code == 0
        assert len(list(ckpt.glob("checkpoint-*.ckpt"))) == 1

    def test_default_retention_is_two(self, tensor_file, tmp_path):
        path, _ = tensor_file
        ckpt = tmp_path / "ckpt"
        code = main(["factorize", str(path), "--method", "dbtf",
                     "--rank", "3", "--max-iterations", "4",
                     "--checkpoint-dir", str(ckpt)])
        assert code == 0
        assert len(list(ckpt.glob("checkpoint-*.ckpt"))) == 2
