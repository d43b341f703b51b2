"""The predecoded engine's closures are generated from the opcode table."""

from __future__ import annotations

import pytest

from repro.isa.instructions import OPCODES
from repro.sim import predecode


@pytest.mark.parametrize("name", sorted(OPCODES))
@pytest.mark.parametrize("flavor", [predecode.FAST, predecode.RECORD])
@pytest.mark.parametrize("counted", [False, True])
def test_every_opcode_generates_both_flavors(name, flavor, counted):
    variants = [name, "return"] if name == "jr" else [name]
    for variant in variants:
        assert callable(predecode._generate(OPCODES[name], variant, flavor, counted))
