"""Emission pins for generated redistribution code.

sha256 digests of the printed programs the tuner's phased generator and
the section-4 FFT's stage 3 emit.  The digest is taken over
``print_program`` of the emitted :class:`~repro.core.ir.nodes.Program`
(text sources are parsed first), so it pins the program structure, not
comments or whitespace.  Any change in transfer grouping, ordering,
dedup, guards or fences shows up here.

Covered layout paths (n=8/P=4 and n=16/P=16), each under ``bulk``,
``pipelined``, ``planner@0.25`` and ``planner@0.5``:

* ``paper`` — the section-4 path ``(*,*,BLOCK)`` → ``(*,BLOCK,*)``;
* ``cyclic2`` / ``cyclic`` — its ``(*, CYCLIC(2), *)`` and
  ``(*, CYCLIC, *)`` third-phase variants;
* ``first-moves`` — a first layout that differs from the declaration,
  so the first edge has moves and ``pipelined`` falls back to ``bulk``.
"""

import hashlib

import pytest

from repro.apps.fft3d import fft3d_source
from repro.core.ir.parser import parse_program
from repro.core.ir.printer import print_program
from repro.tune import LayoutCandidate, detect_phases, generate_phased_program

KNOBS = {
    "bulk": ("bulk", 0.5),
    "pipelined": ("pipelined", 0.5),
    "planner@0.25": ("planner", 0.25),
    "planner@0.5": ("planner", 0.5),
}

PHASED_DIGESTS = {
    ((8, 4), "paper", "bulk"):
        "4092e176a41ba05218cba1b23f995ce6db0bf5bae7c54f2cb70db509921fc383",
    ((8, 4), "paper", "pipelined"):
        "5b5be2dba9c8a896687279da6d949aec95785bf739352aa97e55cbd9bef62bcf",
    ((8, 4), "paper", "planner@0.25"):
        "38f2669b6aa49e30629784d3c742ae670e7e29eafb3e27f797dbbf7decb4048c",
    ((8, 4), "paper", "planner@0.5"):
        "8a76889859693c8265b812e6fc91614cdcb8601123dae03ee08cb3114c8babee",
    ((8, 4), "cyclic2", "bulk"):
        "4092e176a41ba05218cba1b23f995ce6db0bf5bae7c54f2cb70db509921fc383",
    ((8, 4), "cyclic2", "pipelined"):
        "5b5be2dba9c8a896687279da6d949aec95785bf739352aa97e55cbd9bef62bcf",
    ((8, 4), "cyclic2", "planner@0.25"):
        "38f2669b6aa49e30629784d3c742ae670e7e29eafb3e27f797dbbf7decb4048c",
    ((8, 4), "cyclic2", "planner@0.5"):
        "8a76889859693c8265b812e6fc91614cdcb8601123dae03ee08cb3114c8babee",
    ((8, 4), "cyclic", "bulk"):
        "4a7189b726741852e0e1ba92ac61f9ec20146a91861cc582ca9472b8b9668273",
    ((8, 4), "cyclic", "pipelined"):
        "2a38ab863c4e9288a4dce0b6acb1c265e6bd480209369f84054357b2bbc396fe",
    ((8, 4), "cyclic", "planner@0.25"):
        "e050c324219bd2c9383890613d237555ba4a601bdc3ffdac741aee9606fb7c7f",
    ((8, 4), "cyclic", "planner@0.5"):
        "115d2b8087a30d3b0c41df6646bc251b352e61ab5badbfa053e485710a5f41ca",
    ((8, 4), "first-moves", "bulk"):
        "ef9a7b29aa32ceb849f3484899af55e5ebfda629b57a73d58fea4f57efd0bdec",
    ((8, 4), "first-moves", "pipelined"):
        "554474ca6d2f5c0e0b09857de2f58a14e820b637eaa68e315215cf4730b3ff2b",
    ((8, 4), "first-moves", "planner@0.25"):
        "3ff9bc7b632b8097128ab0fc6c845abd554dbd66890f9ba3dc8eef800f9e0d0f",
    ((8, 4), "first-moves", "planner@0.5"):
        "1c10b9cce40d015050ba4468051308111d327a403df5b768df38874a05296733",
    ((16, 16), "paper", "bulk"):
        "d27fbd466d1017a96ca7ed2c08ee3109d4191774ff587ea4609d683b03e38e7f",
    ((16, 16), "paper", "pipelined"):
        "ad51218127c57a6b25a47a354728e7ef7d457d0a12adeddb0c02738a0b1de1ad",
    ((16, 16), "paper", "planner@0.25"):
        "a2b3430bae442d3643c39e19690bdd1fb5f8bde7bb95dd8a40d6a31aef27f491",
    ((16, 16), "paper", "planner@0.5"):
        "07039f51f6c6a26e381d81e76e52ada0449aad2ded1efb3996ce17115b5604e5",
    ((16, 16), "cyclic2", "bulk"):
        "2821e64456f6ac72813fbf1732ecc95f1d428b4be7ca6d74a5b9d7d3f25ec305",
    ((16, 16), "cyclic2", "pipelined"):
        "1370832554f3ca37270018d4adf832a0ab5b4d91dfd5bd566297a9233b74ab90",
    ((16, 16), "cyclic2", "planner@0.25"):
        "6d66d118e5f6a2e9f3002d0d894cc243535829261183d41423397c9477f154f5",
    ((16, 16), "cyclic2", "planner@0.5"):
        "4a82982720678a20ac4291bd09fceff8ff9a7d0e38a19c5d0eb83d305149132f",
    ((16, 16), "cyclic", "bulk"):
        "d27fbd466d1017a96ca7ed2c08ee3109d4191774ff587ea4609d683b03e38e7f",
    ((16, 16), "cyclic", "pipelined"):
        "ad51218127c57a6b25a47a354728e7ef7d457d0a12adeddb0c02738a0b1de1ad",
    ((16, 16), "cyclic", "planner@0.25"):
        "a2b3430bae442d3643c39e19690bdd1fb5f8bde7bb95dd8a40d6a31aef27f491",
    ((16, 16), "cyclic", "planner@0.5"):
        "07039f51f6c6a26e381d81e76e52ada0449aad2ded1efb3996ce17115b5604e5",
    ((16, 16), "first-moves", "bulk"):
        "ddeabf09b43c97fca8486ad317f3d32740da9feb0fd9c2b0b85a94019149a497",
    ((16, 16), "first-moves", "pipelined"):
        "e95bede562c89dd4e8748e656683de160202e57ed4af0d928f3bac0570d72a6f",
    ((16, 16), "first-moves", "planner@0.25"):
        "8d3cd348807197c478f8404e84fcdc87c88340a4052f32783e6b513fb60c6119",
    ((16, 16), "first-moves", "planner@0.5"):
        "7169b64e97668def9da56b6bb4b74ffe6d580079d0a1050924c3c8defb53f47a",
}

FFT_STAGE3_DIGESTS = {
    (8, 4):
        "394c2c97ad549e95f55bb0599e907bf331ed1e7d91c92ecf132816226b93c58e",
    (8, 8):
        "d22677e36b23b030bfce2452af64513c5b0d4d38fc4ba582ce884d8c93ff41a1",
    (16, 16):
        "49b2065aa9095e69d87238795f1506ae0cff66dc9af9cbe13e47d71540e143e7",
}


def _paths(n: int) -> dict[str, tuple[LayoutCandidate, ...]]:
    z = LayoutCandidate("(*, *, BLOCK)", (n, 1, 1))
    x = LayoutCandidate("(BLOCK, *, *)", (1, n, 1))

    def y(spec: str) -> LayoutCandidate:
        return LayoutCandidate(spec, (n, 1, 1))

    return {
        "paper": (z, z, y("(*, BLOCK, *)")),
        "cyclic2": (z, z, y("(*, CYCLIC(2), *)")),
        "cyclic": (z, z, y("(*, CYCLIC, *)")),
        "first-moves": (x, z, y("(*, BLOCK, *)")),
    }


def _digest(emitted) -> str:
    program = parse_program(emitted) if isinstance(emitted, str) else emitted
    return hashlib.sha256(print_program(program).encode()).hexdigest()


@pytest.mark.parametrize(
    "size,path,knob", list(PHASED_DIGESTS), ids=lambda v: str(v)
)
def test_phased_program_emission_is_pinned(size, path, knob):
    n, nprocs = size
    program = parse_program(fft3d_source(n, nprocs, 0))
    realization, frac = KNOBS[knob]
    emitted = generate_phased_program(
        program, detect_phases(program), _paths(n)[path], nprocs,
        realization=realization, max_temp_frac=frac,
    )
    assert _digest(emitted) == PHASED_DIGESTS[(size, path, knob)]


@pytest.mark.parametrize("size", list(FFT_STAGE3_DIGESTS), ids=str)
def test_fft3d_stage3_emission_is_pinned(size):
    n, nprocs = size
    assert _digest(fft3d_source(n, nprocs, 3)) == FFT_STAGE3_DIGESTS[size]
