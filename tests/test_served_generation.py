"""One generation, encoded and laid out once.

A snapshot or a structural delta starts a new
:class:`~repro.core.epp_delta.Generation` (its two result columns); a
harden-only revision shares its parent's.  What the generation
determines is computed once and shared: the JSON text of the served ``sites``/``p_sensitized``/
``cone_sizes`` columns, which :func:`~repro.server.protocol.encode`
splices into every response, and the report's
:class:`~repro.core.analysis.SiteRows`.  Model values stay per call.
These tests pin that the bytes on the wire are ``json.dumps``'s, that
the work happens once per generation, that a replaced model is honoured,
and that nothing new reaches the result store or the journal.
"""

from __future__ import annotations

import asyncio
import io
import json
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import analysis
from repro.core.analysis import SERAnalyzer
from repro.core.epp_delta import EditSet, Generation
from repro.netlist.generate import generate_iscas
from repro.netlist.library import c17
from repro.ser.latching import LatchingModel
from repro.ser.seu_rate import SEURateModel
from repro.server import AnalysisService, protocol, service
from repro.server.protocol import Payload, encode
from tests.golden_outputs import served_chain, served_responses


def plain(message) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


# ------------------------------------------------------------- encode


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1e300, -1e300, 1.7976931348623157e308]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    FLOATS,
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
    st.text(alphabet="é中  \x7f\"\\/\U0001f600"),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(
    result=st.dictionaries(st.text(max_size=8), VALUES, max_size=6),
    spliced=st.sets(st.integers(min_value=0, max_value=5)),
    meta=st.dictionaries(
        st.text(max_size=6).filter(lambda key: key != "result"), VALUES, max_size=3
    ),
    nested=st.booleans(),
)
def test_spliced_encoding_is_json_dumps(result, spliced, meta, nested):
    payload = Payload(result)
    for position, key in enumerate(list(payload)):
        if position in spliced:
            payload.splice(key, protocol.encode_json(payload[key]))
    if nested:
        payload["inner"] = Payload(dict(result))
        for key in list(result)[:1]:
            payload["inner"].splice(key, protocol.encode_json(result[key]))
    message = {"ok": True, "result": payload, **meta}
    assert encode(message) == plain(message)


def test_a_replaced_value_is_encoded_afresh():
    payload = Payload(p_sensitized=[0.5, 0.25], sites=["a", "b"])
    payload.splice("p_sensitized", protocol.encode_json(payload["p_sensitized"]))
    payload["p_sensitized"] = [1.0]  # no longer the object the text encodes
    message = {"ok": True, "result": payload}
    assert encode(message) == plain(message)
    assert b'"p_sensitized":[1.0]' in encode(message)


def test_non_string_keys_take_the_encoders_coercion():
    payload = Payload({1: "a", 2.5: [0.1], None: True, False: -0.0})
    message = {"ok": True, "result": payload}
    assert encode(message) == plain(message)


def served_lines(requests, tmp_path) -> list[tuple[bytes, bytes]]:
    """(encode, plain json.dumps) of each response, ``served_s`` included."""
    return [
        (encode(response), plain(response))
        for response in served_responses(requests, tmp_path)
    ]


@pytest.mark.parametrize("circuit", ["c17", "s953"])
def test_served_responses_encode_as_json_dumps(circuit, tmp_path):
    requests = served_chain(circuit) if circuit != "c17" else [
        {"op": "analyze", "circuit": "c17", "fit": True, "top": 3},
        *({"op": "analyze_delta", "circuit": "c17", "fit": True,
           "edits": [["harden", site, 4.0]]} for site in ("N10", "N22", "N10")),
        {"op": "analyze_delta", "circuit": "c17", "fit": False,
         "edits": [["replace_gate", "N16", "and"]]},
        {"op": "analyze", "circuit": "c17", "fit": True, "top": 3},  # cached
        {"op": "stats"},
        {"op": "analyze_delta", "circuit": "c17", "edits": [["harden", "nope", 2.0]]},
    ]
    lines = served_lines(requests, tmp_path)
    assert len(lines) == len(requests)
    for spliced, reference in lines:
        assert spliced == reference


@pytest.mark.slow
def test_s9234_responses_encode_as_json_dumps(tmp_path):
    for spliced, reference in served_lines(served_chain("s9234"), tmp_path):
        assert spliced == reference


# ------------------------------------------------- once per generation


@pytest.fixture
def spies(monkeypatch):
    """Counts of wire-column encodings and report-row builds."""
    counts = {"wire": 0, "rows": 0}
    wire_columns, site_rows = service._wire_columns, analysis.SiteRows

    def counting_wire(delta):
        counts["wire"] += 1
        return wire_columns(delta)

    def counting_rows(*args):
        counts["rows"] += 1
        return site_rows(*args)

    monkeypatch.setattr(service, "_wire_columns", counting_wire)
    monkeypatch.setattr(analysis, "SiteRows", counting_rows)
    return counts


def run_service(coroutine_of, tmp_path, **kwargs):
    async def main():
        svc = AnalysisService(tmp_path / "gen.sock", **kwargs)
        await svc.start()
        try:
            return await coroutine_of(svc)
        finally:
            await svc.drain()

    return asyncio.run(main())


def request(**fields) -> bytes:
    return json.dumps({"circuit": "s953", "fit": True, "top": 10, **fields}).encode() + b"\n"


def test_ten_harden_deltas_encode_and_lay_out_one_generation(spies, tmp_path):
    async def chain(svc):
        responses = [await svc._respond(request(op="analyze"))]
        base = responses[0]["result"]
        sites = [s for s, p in zip(base["sites"], base["p_sensitized"]) if p > 0]
        for site in sites[:10]:
            responses.append(await svc._respond(
                request(op="analyze_delta", edits=[["harden", site, 10.0]])
            ))
        state = next(iter(svc._circuits.values()))
        return responses, state.delta

    responses, last = run_service(chain, tmp_path)
    assert spies == {"wire": 1, "rows": 1}
    assert [r["result"]["revision"] for r in responses] == list(range(11))
    first = responses[0]["result"]
    for response in responses:
        result = response["result"]
        assert result["sweep"]["dirty"] == 0 or result is first
        assert result["p_sensitized"] == last.p_sensitized.tolist()
        assert result["cone_sizes"] == last.cone_sizes.tolist()
        assert result["sites"] == last.site_names
        assert encode(response) == plain(response)
    # Fresh lists in every response, even though their text is shared.
    assert responses[1]["result"]["p_sensitized"] is not responses[2]["result"]["p_sensitized"]
    totals = [r["result"]["fit"]["total_fit"] for r in responses]
    assert all(later < earlier for earlier, later in zip(totals, totals[1:]))


def test_replace_gate_starts_a_new_generation(spies, tmp_path):
    async def chain(svc):
        await svc._respond(request(op="analyze"))
        state = next(iter(svc._circuits.values()))
        hardened = await svc._respond(
            request(op="analyze_delta", edits=[["harden", "g330", 10.0]])
        )
        before = state.delta
        replaced = await svc._respond(
            request(op="analyze_delta", edits=[["replace_gate", "g330", "xnor"]])
        )
        again = await svc._respond(
            request(op="analyze_delta", edits=[["harden", "g339", 10.0]])
        )
        return hardened, before, replaced, again, state.delta

    hardened, before, replaced, again, after = run_service(chain, tmp_path)
    assert after.generation is not before.generation
    assert spies == {"wire": 2, "rows": 2}
    result = replaced["result"]
    assert result["sweep"]["dirty"] > 0
    assert result["p_sensitized"] == after.p_sensitized.tolist()
    assert result["cone_sizes"] == after.cone_sizes.tolist()
    assert result["p_sensitized"] != hardened["result"]["p_sensitized"]
    for response in (hardened, replaced, again):
        assert encode(response) == plain(response)
    plain_columns = {key: result[key] for key in ("sites", "p_sensitized", "cone_sizes")}
    assert protocol.encode_json(plain_columns)[1:-1] in encode(replaced).decode()


def assert_same_report(report, fresh) -> None:
    assert report.sites == fresh.sites and report.gate_types == fresh.gate_types
    for column in ("r_seu", "p_sensitized", "ser", "fit", "cone_sizes"):
        assert (getattr(report, column) == getattr(fresh, column)).all(), column
    assert report.p_latched == fresh.p_latched
    assert report.total_fit == fresh.total_fit
    for top in (None, 10):
        assert json.dumps(report.to_dict(top)) == json.dumps(fresh.to_dict(top))


def test_replaced_models_are_read_per_call():
    circuit = generate_iscas("s953")
    analyzer = SERAnalyzer(circuit)
    delta = analyzer.snapshot().apply(EditSet().harden("g330", 10.0))
    first = analyzer.report_for(delta)
    seu = SEURateModel(flux=2.0, drive_strength={"g339": 3.0, "g365": 0.5})
    latching = LatchingModel(clock_period=2e-10)
    for change in ({"seu_model": seu}, {"latching_model": latching}):
        for name, model in change.items():
            setattr(analyzer, name, model)
        report = analyzer.report_for(delta)
        fresh = SERAnalyzer(
            circuit, seu_model=analyzer.seu_model,
            latching_model=analyzer.latching_model,
        ).report_for(analyzer.snapshot().apply(EditSet().harden("g330", 10.0)))
        assert_same_report(report, fresh)
        assert report.total_fit != first.total_fit
    assert analyzer.report_for(delta).total_fit == report.total_fit


def test_racing_builders_share_one_finished_entry():
    generation = Generation(np.zeros(3), np.zeros(3, dtype=np.intp))
    built = []

    def build():
        value = {}
        for i in range(500):  # long enough for threads to interleave
            value[i] = i
        built.append(value)
        return value

    readers = 8
    seen = []
    barrier = threading.Barrier(readers)

    def read():
        barrier.wait(timeout=10)
        seen.append(generation.memo("entry", build))

    threads = [threading.Thread(target=read) for _ in range(readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == readers and 1 <= len(built) <= readers
    assert all(value is seen[0] for value in seen)
    assert seen[0] in built and len(seen[0]) == 500
    assert not generation.p_sensitized.flags.writeable
    assert not generation.cone_sizes.flags.writeable


def test_memoized_generation_arrays_are_read_only():
    analyzer = SERAnalyzer(c17())
    delta = analyzer.snapshot()
    columns = (delta.p_sensitized, delta.cone_sizes)
    assert all(array.flags.writeable for array in columns)
    analyzer.report_for(delta)
    assert not any(array.flags.writeable for array in columns)
    with pytest.raises(ValueError):
        delta.p_sensitized[0] = 0.5


# ------------------------------------------------------ stored records


class PlainUnpickler(pickle.Unpickler):
    """Refuses every class: plain containers and scalars need none."""

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"record pickles a class: {module}.{name}")


def assert_plain(value) -> None:
    assert type(value) in (dict, list, str, float, int, bool, type(None)), type(value)
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str
            assert_plain(item)
    elif isinstance(value, list):
        for item in value:
            assert_plain(item)


def test_stored_records_hold_plain_values(tmp_path):
    async def chain(svc):
        await svc._respond(request(op="analyze", idempotency_key="a"))
        for key in ("d1", "d1", "d2"):  # d1 twice: the second is a replay
            await svc._respond(request(
                op="analyze_delta", idempotency_key=key,
                edits=[["harden", "g330", 10.0]],
            ))
        return {
            kind_key: entry.payload
            for kind_key, entry in svc.store._entries.items()
            if kind_key[0] in ("result", "journal")
        }

    # The memory tier holds the very bytes the disk tier writes.
    records = run_service(chain, tmp_path, store_dir=tmp_path / "store")
    kinds = sorted(kind for kind, _ in records)
    assert kinds == ["journal", "journal", "journal", "result"]
    for blob in records.values():
        assert_plain(PlainUnpickler(io.BytesIO(blob)).load())
