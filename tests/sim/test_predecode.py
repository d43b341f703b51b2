"""The predecoded engine's closures are generated from the opcode table."""

from __future__ import annotations

import pytest

from repro.isa.instructions import OPCODES
from repro.sim import predecode


@pytest.mark.parametrize("name", sorted(OPCODES))
@pytest.mark.parametrize(
    "flavor",
    # The observed flavor keeps the id of the record-building flavor it replaced.
    [predecode.FAST, pytest.param(predecode.OBSERVED, id="record")],
)
@pytest.mark.parametrize("counted", [False, True])
def test_every_opcode_generates_both_flavors(name, flavor, counted):
    variants = [name, "return"] if name == "jr" else [name]
    hook_counts = [0] if flavor == predecode.FAST else [0, 1, 3]
    for variant in variants:
        for hooks in hook_counts:
            factory = predecode._generate(OPCODES[name], variant, flavor, counted, hooks)
            assert callable(factory)
