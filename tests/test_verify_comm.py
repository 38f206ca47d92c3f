"""Unit tests for the static communication-safety verifier."""

import pytest

from repro.core.analysis.verify_comm import (
    CommReport, CommVerificationError, Finding, verify_communication,
)
from repro.core.ir.parser import parse_program
from repro.core.opt.passmanager import optimize
from repro.core.translate import translate


def verify(src: str, nprocs: int = 4, **kw) -> CommReport:
    return verify_communication(parse_program(src), nprocs, **kw)


def codes(report: CommReport) -> set[str]:
    return {f.code for f in report.findings}


DECLS = """
array A[1:8] dist (BLOCK) seg (2)
array B[1:8] dist (BLOCK) seg (2)
"""


# --------------------------------------------------------------------- #
# report / finding API
# --------------------------------------------------------------------- #


class TestReportAPI:
    def test_clean_report(self):
        r = verify(DECLS + "mypid == 1 : { A[1] = A[1] + 1 }")
        assert r.ok and r.clean and r.complete
        assert r.errors == [] and r.warnings == []
        assert "0 error(s), 0 warning(s)" in r.format()
        assert "clean" in r.format()

    def test_finding_format_carries_code_loc_pid(self):
        r = verify(DECLS + "mypid == 1 : { A[5] = 0 }")
        (f,) = r.errors
        assert isinstance(f, Finding)
        assert f.code == "unowned-write" and f.severity == "error"
        assert f.pid1 == 1
        text = f.format()
        assert "error[unowned-write]" in text and "[P1]" in text
        assert "A[5] = 0" in text  # IL location: the statement path

    def test_errors_sort_before_warnings(self):
        r = verify(DECLS + """
mypid == 1 : {
  B[5] <- A[1]
  B[5] = B[5] + 1
}
""")
        assert not r.ok
        sev = [f.severity for f in r.findings]
        assert sev == sorted(sev)  # "error" < "warning"

    def test_duplicate_findings_fold_with_count(self):
        r = verify(DECLS + """
scalar i
do i = 1, 3
  mypid == 1 : { A[5] = A[5] + 1 }
enddo
""")
        write = [f for f in r.errors if f.code == "unowned-write"]
        assert len(write) == 1 and write[0].count == 3


# --------------------------------------------------------------------- #
# one test per finding class
# --------------------------------------------------------------------- #


class TestFindingClasses:
    def test_deadlock_no_sender(self):
        r = verify(DECLS + """
mypid == 2 : {
  A[1:2] <=-
  await(A[1:2]) : { A[1] = A[1] + 1 }
}
""")
        assert "deadlock" in codes(r) and not r.ok

    def test_stale_read_without_await(self):
        r = verify(DECLS + """
mypid == 1 : { A[1:2] -> {2} }
mypid == 2 : {
  B[3] <- A[1]
  A[3] = A[3] + B[3]
}
""")
        assert "stale-read" in codes(r)

    def test_size_mismatch(self):
        r = verify(DECLS + """
mypid == 1 : { A[1:2] -> {2} }
mypid == 2 : {
  B[3] <- A[1:2]
  await(B[3]) : { A[3] = B[3] }
}
""")
        assert "size-mismatch" in codes(r)

    def test_ownership_multicast(self):
        r = verify(DECLS + "mypid == 1 : { A[1:2] -=> {2,3} }")
        assert "ownership-multicast" in codes(r)

    def test_unowned_read(self):
        r = verify(DECLS + "mypid == 1 : { A[1] = A[1] + B[5] }")
        assert codes(r) == {"unowned-read"}

    def test_unowned_write(self):
        r = verify(DECLS + "mypid == 2 : { A[1] = 0 }")
        assert codes(r) == {"unowned-write"}

    def test_send_of_unowned_value(self):
        r = verify(DECLS + "mypid == 2 : { A[1] -> {3} }")
        assert "send-unowned" in codes(r)

    def test_bad_destination(self):
        r = verify(DECLS + "mypid == 1 : { A[1] -> {9} }")
        assert "bad-destination" in codes(r)

    def test_acquire_of_owned_section(self):
        r = verify(DECLS + "mypid == 1 : { A[1:2] <=- }")
        assert "acquire-overlap" in codes(r)

    def test_unmatched_send(self):
        r = verify(DECLS + "mypid == 1 : { A[1] -> {2} }")
        assert "unmatched-send" in codes(r)

    def test_unmatched_receive(self):
        r = verify(DECLS + "mypid == 2 : { B[3] <- A[1] }")
        assert "unmatched-receive" in codes(r)

    def test_unknown_variable(self):
        r = verify(DECLS + "mypid == 1 : { Z[1] = 0 }")
        assert "unknown-variable" in codes(r)

    def test_mixed_matching_warning(self):
        r = verify(DECLS + """
mypid == 1 : {
  A[1] ->
  A[1] -> {3}
}
mypid == 2 : {
  B[3] <- A[1]
  await(B[3]) : { B[3] = B[3] }
}
mypid == 3 : {
  B[5] <- A[1]
  await(B[5]) : { B[5] = B[5] }
}
""")
        assert "mixed-matching" in {f.code for f in r.warnings}

    def test_data_dependent_rule_waives(self):
        r = verify(DECLS + "A[mypid] > 0 : { A[1] = A[1] + 1 }")
        assert "data-dependent-rule" in {f.code for f in r.warnings}
        assert r.ok  # conservative warning, not an error

    def test_integer_modulo_by_zero_is_static(self):
        # `%` by zero yields 0 as on the engine, so the rule stays static.
        r = verify(DECLS + """
scalar b
b = 0
iown(A[5 % b + 1]) : { A[5 % b + 1] = 7 }
""")
        assert r.clean and r.warnings == []

    def test_symbolic_loop_waives(self):
        r = verify(DECLS + """
scalar i
scalar k
mypid == 1 : { k = A[1] }
do i = 1, k
  mypid == 1 : { A[1] = A[1] + 1 }
enddo
""")
        assert r.ok and "symbolic-loop" in {f.code for f in r.warnings}

    def test_budget_exhausted_incomplete(self):
        r = verify(DECLS + """
scalar i
do i = 1, 1000
  mypid == 1 : { A[1] = A[1] + 1 }
enddo
""", max_events=100)
        assert not r.complete and not r.clean
        assert "budget-exhausted" in {f.code for f in r.warnings}


class TestConservatismWaivers:
    def test_waived_transfer_demotes_deadlock(self):
        """A deadlock that involves a skipped data-dependent region is a
        warning (possible-deadlock), not an error: the verifier cannot
        prove the matching send never runs."""
        r = verify(DECLS + """
if A[mylb(A[*], 1)] > 0 then
  mypid == 1 : { A[1] -> {2} }
endif
mypid == 2 : {
  B[3] <- A[1]
  await(B[3]) : { B[3] = B[3] + 1 }
}
""")
        assert r.ok and not r.clean
        warn = {f.code for f in r.warnings}
        assert "data-dependent-branch" in warn
        assert "possible-deadlock" in warn
        assert "deadlock" not in codes(r)


# --------------------------------------------------------------------- #
# integration: apps, translator, optimizer, tuner
# --------------------------------------------------------------------- #


class TestWholePrograms:
    def test_translated_programs_clean(self):
        seq = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (CYCLIC) seg (1)
scalar n = 8

do i = 1, n
  A[i] = A[i] + B[i]
enddo
"""
        for strategy in ("owner-computes", "migrate"):
            spmd = translate(parse_program(seq), 4, strategy=strategy)
            r = verify_communication(spmd, 4)
            assert r.clean, (strategy, r.format())

    def test_jacobi_halo_clean(self):
        from repro.apps.jacobi import jacobi_source

        prog = jacobi_source(8, 4, sweeps=2, variant="halo")
        if isinstance(prog, str):
            prog = parse_program(prog)
        r = verify_communication(prog, 4)
        assert r.clean, r.format()

    def test_fft3d_stage_clean(self):
        from repro.apps.fft3d import fft3d_source

        r = verify(fft3d_source(4, 4, stage=1), 4)
        assert r.clean, r.format()

    def test_workqueue_source_clean(self):
        from repro.apps.workqueue import workqueue_source

        r = verify(workqueue_source(6, 4), 4)
        assert r.clean, r.format()

    def test_workqueue_source_validates_args(self):
        from repro.apps.workqueue import workqueue_source

        with pytest.raises(ValueError):
            workqueue_source(3, 1)
        with pytest.raises(ValueError):
            workqueue_source(0, 4)

    def test_optimize_verify_comm_clean_appends_report(self):
        src = DECLS + "mypid == 1 : { A[1] = A[1] + 1 }"
        res = optimize(parse_program(src), 4, level=1, verify_comm=True)
        assert any("communication verification" in ln for ln in res.reports)

    def test_optimize_verify_comm_raises_on_bad(self):
        src = DECLS + "mypid == 2 : { A[1] = 0 }"
        with pytest.raises(CommVerificationError) as ei:
            optimize(parse_program(src), 4, level=0, verify_comm=True)
        assert not ei.value.report.ok
        assert "unowned-write" in {f.code for f in ei.value.report.errors}


class TestCheckCLI:
    BAD = DECLS + """
mypid == 1 : {
  B[5] <- A[1]
  B[5] = B[5] + 1
}
"""

    def test_check_apps_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["check", "jacobi", "fft3d", "workqueue",
                     "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "jacobi" in out and "workqueue" in out

    def test_check_bad_file_exit_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        p = tmp_path / "bad.xdp"
        p.write_text(self.BAD)
        assert main(["check", str(p), "--nprocs", "4"]) == 1
        out = capsys.readouterr().out
        assert "recv-into-unowned" in out

    def test_compile_verify_comm_flag(self, tmp_path, capsys):
        from repro.cli import main

        p = tmp_path / "bad.xdp"
        p.write_text(self.BAD)
        assert main(["compile", str(p), "-O", "0", "--verify-comm"]) == 1


class TestReferenceAndUniversalChecks:
    """The malformed-reference and universal-variable finding classes."""

    UNI = DECLS + "array U[1:4] universal\n"

    def test_send_universal(self):
        r = verify(self.UNI + "mypid == 1 : { U[1] -> {2} }")
        assert "send-universal" in codes(r)

    def test_recv_universal(self):
        r = verify(self.UNI + "mypid == 2 : { U[1] <- A[1] }")
        assert "recv-universal" in codes(r)

    def test_intrinsic_universal(self):
        r = verify(self.UNI + "iown(U[1]) : { A[1] = A[1] }")
        assert "intrinsic-universal" in codes(r)

    def test_rank_mismatch(self):
        r = verify(DECLS + "mypid == 1 : { A[1,2] = 0 }")
        assert "rank-mismatch" in codes(r)

    def test_empty_section(self):
        r = verify(DECLS + "mypid == 1 : { A[3:2] = 0 }")
        assert "empty-section" in codes(r)

    def test_zero_step_loop(self):
        r = verify(DECLS + """
scalar i
do i = 1, 4, 0
  mypid == 1 : { A[1] = A[1] + 1 }
enddo
""")
        assert "zero-step" in codes(r)

    def test_undefined_scalar(self):
        r = verify(DECLS + "mypid == 1 : { A[1] = A[1] + q }")
        assert "undefined-scalar" in codes(r)

    def test_array_used_without_subscripts(self):
        r = verify(DECLS + "mypid == 1 : { A[1] = A[1] + B }")
        assert "unknown-variable" in codes(r)

    def test_unresolved_destination_waives(self):
        r = verify(DECLS + "mypid == 1 : { A[1] -> {B[1]} }")
        assert r.ok
        assert "unresolved-destination" in {f.code for f in r.warnings}

    def test_unresolved_read_subscript(self):
        r = verify(DECLS + "mypid == 1 : { A[1] = A[B[1]] }")
        assert "unresolved-read" in {f.code for f in r.warnings}

    def test_blocked_forever_on_partial_ownership(self):
        """An owner send of a section the pid only partly owns can never
        become accessible: flagged as blocked-forever, not a deadlock."""
        r = verify(DECLS + "mypid == 1 : { A[1:3] => {2} }")
        assert "blocked-forever" in codes(r) and not r.ok
