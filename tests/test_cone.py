"""On-path cone extraction (paper steps 1 and 2)."""

import numpy as np
import pytest

from repro.core.cone import ConeExtractor
from repro.errors import AnalysisError
from repro.netlist.library import c17, figure1_circuit, s27


class TestFigure1:
    def test_on_path_members(self, fig1):
        compiled = fig1.compiled()
        cone = ConeExtractor(compiled).cone("A")
        names = {compiled.names[i] for i in cone.members}
        assert names == {"E", "D", "G", "H"}

    def test_gate_order_is_topological(self, fig1):
        compiled = fig1.compiled()
        cone = ConeExtractor(compiled).cone("A")
        order = [compiled.names[i] for i in cone.gate_order]
        assert order.index("E") < order.index("G")
        assert order.index("G") < order.index("H")
        assert order.index("D") < order.index("H")

    def test_sink_is_H(self, fig1):
        compiled = fig1.compiled()
        cone = ConeExtractor(compiled).cone("A")
        assert [compiled.names[i] for i in cone.sinks] == ["H"]

    def test_off_path_inputs_not_members(self, fig1):
        compiled = fig1.compiled()
        cone = ConeExtractor(compiled).cone("A")
        names = {compiled.names[i] for i in cone.members}
        assert not names & {"B", "C", "F"}


class TestStructure:
    def test_site_that_is_output_is_its_own_sink(self, c17_circuit):
        compiled = c17_circuit.compiled()
        cone = ConeExtractor(compiled).cone("N22")
        assert cone.size == 0
        assert cone.sinks == (compiled.index["N22"],)

    def test_dff_boundary(self, s27_circuit):
        compiled = s27_circuit.compiled()
        cone = ConeExtractor(compiled).cone("G10")  # feeds only DFF G5
        assert cone.size == 0
        assert [compiled.names[i] for i in cone.sinks] == ["G10"]

    def test_multi_sink_cone(self, c17_circuit):
        compiled = c17_circuit.compiled()
        cone = ConeExtractor(compiled).cone("N11")
        sink_names = {compiled.names[i] for i in cone.sinks}
        assert sink_names == {"N22", "N23"}

    def test_cone_size_counts_gates(self, c17_circuit):
        compiled = c17_circuit.compiled()
        assert ConeExtractor(compiled).cone("N11").size == 4  # N16, N19, N22, N23


class TestExtractor:
    def test_caching(self, c17_circuit):
        extractor = ConeExtractor(c17_circuit.compiled())
        assert extractor.cone("N11") is extractor.cone("N11")

    def test_resolve_by_id_and_name(self, c17_circuit):
        compiled = c17_circuit.compiled()
        extractor = ConeExtractor(compiled)
        by_name = extractor.cone("N11")
        by_id = extractor.cone(compiled.index["N11"])
        assert by_name is by_id
        assert extractor.cone(np.int64(compiled.index["N11"])) is by_id
        assert type(extractor.resolve(np.intp(compiled.index["N11"]))) is int

    def test_unknown_site(self, c17_circuit):
        extractor = ConeExtractor(c17_circuit.compiled())
        # A bool is an int to Python, but never a node id here.
        for site in ("zzz", -1, extractor.compiled.n, True, False, 1.0, None):
            with pytest.raises(AnalysisError):
                extractor.cone(site)
