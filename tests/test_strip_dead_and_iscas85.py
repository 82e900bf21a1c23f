"""The ISCAS'85 profile additions."""

import pytest

from repro.errors import ConfigError
from repro.netlist.generate import (
    ISCAS85_PROFILES,
    generate_iscas,
)
from repro.netlist.validate import validate_circuit


class TestIscas85Profiles:
    def test_known_roster(self):
        assert {"c432", "c880", "c6288", "c7552"} <= set(ISCAS85_PROFILES)
        for profile in ISCAS85_PROFILES.values():
            assert profile.n_flip_flops == 0

    @pytest.mark.parametrize("name", ["c432", "c880", "c1908"])
    def test_generation_matches_profile(self, name):
        profile = ISCAS85_PROFILES[name]
        circuit = generate_iscas(name)
        assert not circuit.is_sequential
        assert len(circuit.inputs) == profile.n_inputs
        assert len(circuit.outputs) == profile.n_outputs
        assert len(circuit.gates) == profile.n_gates
        assert validate_circuit(circuit).ok

    def test_c6288_is_deep(self):
        circuit = generate_iscas("c6288")
        assert circuit.depth() >= 100  # multiplier-like depth profile

    def test_unknown_name_lists_both_families(self):
        with pytest.raises(ConfigError) as excinfo:
            generate_iscas("b17")
        assert "s38417" in str(excinfo.value)
        assert "c7552" in str(excinfo.value)
