"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main

SIMPLE = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (CYCLIC) seg (1)
scalar n = 8

do i = 1, n
  A[i] = A[i] + B[i]
enddo
"""


@pytest.fixture
def program_file(tmp_path):
    p = tmp_path / "simple.xdp"
    p.write_text(SIMPLE)
    return str(p)


class TestCompile:
    def test_compile_prints_program_and_report(self, program_file, capsys):
        assert main(["compile", program_file, "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "translated (owner-computes)" in out
        # At -O2 the guards are gone: vectorized pair messages + localized loop.
        assert "mylb(" in out and "message-vectorization" in out
        assert "optimization report" in out

    def test_compile_O0_keeps_paper_shape(self, program_file, capsys):
        assert main(["compile", program_file, "-O", "0"]) == 0
        out = capsys.readouterr().out
        assert "iown(" in out and "await(" in out

    def test_compile_migrate(self, program_file, capsys):
        assert main(["compile", program_file, "--strategy", "migrate"]) == 0
        out = capsys.readouterr().out
        assert "-=>" in out and "<=-" in out

    def test_compile_no_binding(self, program_file, capsys):
        assert main(["compile", program_file, "--no-binding", "-O", "0"]) == 0
        out = capsys.readouterr().out
        assert "-> {" not in out

    def test_compile_already_spmd(self, tmp_path, capsys):
        p = tmp_path / "spmd.xdp"
        p.write_text(
            "array A[1:4] dist (BLOCK) seg (1)\n\n"
            "iown(A[mypid]) : { A[mypid] = 1 }\n"
        )
        assert main(["compile", str(p)]) == 0
        assert "translated" not in capsys.readouterr().out


class TestRun:
    def test_run_shows_summary_and_array(self, program_file, capsys):
        rc = main([
            "run", program_file, "--nprocs", "4",
            "--init", "A=iota", "--init", "B=ones", "--show", "A",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "A =" in out
        assert "2." in out  # 1+1

    def test_run_interp_path(self, program_file, capsys):
        assert main(["run", program_file, "--path", "interp"]) == 0

    def test_run_blocking_binding(self, program_file, capsys):
        assert main(["run", program_file, "--binding", "blocking"]) == 0

    def test_run_trace(self, program_file, capsys):
        assert main(["run", program_file, "--trace", "-O", "0"]) == 0
        out = capsys.readouterr().out
        assert "send" in out

    def test_integer_modulo_by_zero(self, tmp_path, capsys):
        # Like integer `/`, `%` by zero yields 0 on both run paths.
        p = tmp_path / "mod.xdp"
        p.write_text(
            "array A[1:4] dist (BLOCK) seg (1)\n"
            "scalar a\nscalar b\nb = 0\na = 5 % b\n"
            "do i = 1, 4\n  iown(A[i]) : { A[i] = a + i }\nenddo\n"
        )
        shown = {}
        for path in ("vm", "interp"):
            assert main(["run", str(p), "--nprocs", "2", "--path", path,
                         "--show", "A"]) == 0
            shown[path] = capsys.readouterr().out.split("A =")[1]
        assert shown["vm"] == shown["interp"]
        assert "[1. 2. 3. 4.]" in shown["vm"]

    def test_bad_init_kind(self, program_file):
        with pytest.raises(SystemExit):
            main(["run", program_file, "--init", "A=bogus"])


class TestFigures:
    @pytest.mark.parametrize("which,marker", [
        ("1", "rules governing execution"),
        ("2", "symbol table"),
        ("3", "Figure 3"),
        ("4", "Figure 4"),
    ])
    def test_single_figure(self, which, marker, capsys):
        assert main(["figures", which]) == 0
        assert marker in capsys.readouterr().out

    def test_all(self, capsys):
        assert main(["figures", "all"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Figure 4" in out


class TestFFT:
    def test_fft_runs(self, capsys):
        assert main(["fft", "--n", "4", "--nprocs", "4", "--stage", "1"]) == 0
        out = capsys.readouterr().out
        assert "correct=True" in out

    def test_fft_print_source(self, capsys):
        assert main(["fft", "--print-source", "--stage", "0"]) == 0
        out = capsys.readouterr().out
        assert "Loop3: redistribute" in out


class TestBench:
    @pytest.mark.msg_timing
    def test_bench_writes_json(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "bench.json"
        assert main([
            "bench", "--nprocs", "2,4", "--programs", "workqueue",
            "--jobs-per-proc", "2", "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup vs seed engine" in out
        data = json.loads(out_file.read_text())
        assert data["schema"] == 2
        engines = {c["engine"] for c in data["cases"]}
        assert engines == {"indexed", "seed-reference"}
        assert "workqueue@2" in data["speedups"]
        assert {e["engine"] for e in data["classifier"]} == {"indexed"}
        assert "bottleneck workqueue@4" in out

    def test_bench_diff_mode(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        assert main([
            "bench", "--nprocs", "2", "--programs", "workqueue",
            "--jobs-per-proc", "2", "--no-seed-reference",
            "--out", str(out_file),
        ]) == 0
        capsys.readouterr()
        assert main([
            "bench", "--nprocs", "2", "--programs", "workqueue",
            "--jobs-per-proc", "2", "--no-seed-reference",
            "--diff", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert f"vs {out_file}" in out
        assert "old eff/s" in out and "x" in out

    @pytest.mark.msg_timing
    def test_bench_fft_program(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        assert main([
            "bench", "--nprocs", "4", "--programs", "fft",
            "--out", str(out_file),
        ]) == 0
        assert "fft" in capsys.readouterr().out


class TestMatmulApp:
    @staticmethod
    def _digest(out: str) -> str:
        for line in out.splitlines():
            if line.startswith("result sha256:"):
                return line.split(":", 1)[1].strip()
        raise AssertionError(f"no digest line in output:\n{out}")

    def test_run_matmul_prints_summary_and_digest(self, capsys):
        assert main(["run", "--app", "matmul", "--variant", "cannon",
                     "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "matmul/cannon" in out and "correct=True" in out
        assert len(self._digest(out)) == 64

    def test_run_matmul_digest_invariant_across_backend_and_lowering(
            self, capsys):
        digests = set()
        for extra in (["--backend", "msg"],
                      ["--backend", "shmem"],
                      ["--backend", "msg", "--collectives", "p2p"]):
            assert main(["run", "--app", "matmul", "--nprocs", "4",
                         *extra]) == 0
            digests.add(self._digest(capsys.readouterr().out))
        assert len(digests) == 1, digests

    @pytest.mark.parametrize("backend", ["msg", "shmem"])
    def test_check_matmul_all_variants_clean(self, backend, capsys):
        assert main(["check", "matmul", "--nprocs", "4",
                     "--backend", backend]) == 0
        out = capsys.readouterr().out
        for variant in ("cannon", "summa", "gather", "outer"):
            assert f"matmul/{variant}" in out


class TestWorkqueueApp:
    def test_run_workqueue_correct_at_p32(self, capsys):
        # At P >= 32 the FIFO pool no longer deals jobs round-robin; the
        # check must accept any assignment the pool can produce.
        assert main(["run", "--app", "workqueue", "--nprocs", "32"]) == 0
        assert "correct=True" in capsys.readouterr().out


class TestRedist:
    def test_redist_reports_bounded_schedule(self, capsys):
        assert main(["redist", "--max-temp-frac", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "(*, *, BLOCK) -> (*, BLOCK, *)" in out
        assert "3 rounds" in out
        assert "peak/naive  0.333" in out

    def test_redist_json_summary(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "redist.json"
        assert main(["redist", "--max-temp-frac", "0.25",
                     "--json", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data["rounds"] == 3
        assert data["peak_temp_bytes"] <= data["budget_bytes"]
        assert data["peak_temp_bytes"] / data["naive_peak_bytes"] <= 0.5

    def test_redist_rejects_bad_frac(self, capsys):
        assert main(["redist", "--max-temp-frac", "0"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "repro: error: max_temp_frac must be in (0, 1], got 0.0\n"
        )


class TestErrorBoundary:
    """Library errors (:class:`~repro.core.errors.XDPError`) end a command
    with one ``repro: error: <message>`` line on stderr and exit code 2,
    not a traceback."""

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.xdp"
        bad.write_text("array A[1:4] dist (BLOCK) seg (1)\n"
                       "do i = 1, 4\n  A[i] = = 1\nenddo\n")
        assert main(["run", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "repro: error: unexpected token '=' at line 3, col 10\n"
        )
        assert captured.out == ""

    def test_tune_error(self, tmp_path, capsys):
        plane = tmp_path / "plane.xdp"
        plane.write_text("array A[1:4,1:4] dist (BLOCK, *) seg (1,4)\n"
                         "call smooth(A[*,*])\n")
        assert main(["tune", "--file", str(plane), "--nprocs", "2"]) == 2
        assert capsys.readouterr().err == (
            "repro: error: call smooth(A[...]): pencil phases need exactly "
            "one '*' subscript (got 2)\n"
        )

    def test_tune_unpriced_kernel(self, tmp_path, capsys):
        from repro.apps.fft3d import fft3d_source

        src = tmp_path / "foo.xdp"
        src.write_text(fft3d_source(8, 4, 0).replace("fft1D", "foo"))
        assert main(["tune", "--file", str(src), "--nprocs", "4",
                     "--serial"]) == 2
        assert capsys.readouterr().err == (
            "repro: error: no analytic flop formula for kernel 'foo'\n"
        )

    @pytest.mark.parametrize("command", ["fft", "tune"])
    def test_indivisible_fft_size(self, command, capsys):
        assert main([command, "--n", "10", "--nprocs", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "repro: error: n (10) must be a multiple of nprocs (4)\n"
        )
        assert captured.out == ""


class TestServe:
    def test_serve_session_then_warm_replay(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["serve", "--store", store, "--rounds", "1",
                     "--nprocs", "3"]) == 0
        out = capsys.readouterr().out
        assert "serve: OK" in out
        # Same store, fresh session: everything cached, hit-rate bar met.
        assert main(["serve", "--store", store, "--rounds", "1",
                     "--nprocs", "3", "--min-hit-rate", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "hit rate 100.0%" in out

    def test_serve_min_hit_rate_fails_cold(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["serve", "--store", store, "--rounds", "1",
                     "--nprocs", "3", "--min-hit-rate", "0.9"]) == 1
        assert "below required" in capsys.readouterr().out

    def test_serve_requires_store(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_serve_json_report(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        out_file = tmp_path / "serve.json"
        assert main(["serve", "--store", store, "--rounds", "1",
                     "--nprocs", "3", "--json", str(out_file)]) == 0
        import json

        report = json.loads(out_file.read_text())
        assert report["ok"]
        assert report["summary"]["jobs"] == 6
