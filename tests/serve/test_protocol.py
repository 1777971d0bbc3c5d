"""Wire protocol: decode/encode round trips, validation, framing."""

from __future__ import annotations

import io

import pytest

from repro.engine.cache import ResultCache
from repro.engine.session import SimulationSession
from repro.errors import ProtocolError
from repro.machine.chip import N_CORES
from repro.machine.runner import RunOptions
from repro.machine.workload import CurrentProgram, SyncSpec
from repro.serve.protocol import (
    decode_program,
    decode_request,
    encode_program,
    encode_result,
    read_message,
    write_message,
)


def _payload(**extra):
    payload = {"mapping": [{"i_low": 5.0, "i_high": 25.0, "freq_hz": 9e7}]}
    payload.update(extra)
    return payload


class TestDecodeRequest:
    def test_minimal_request_pads_idle_cores(self):
        request = decode_request(_payload())
        assert len(request.mapping) == N_CORES
        assert isinstance(request.mapping[0], CurrentProgram)
        assert all(entry is None for entry in request.mapping[1:])
        assert request.tag == "serve"

    def test_options_override_defaults(self):
        defaults = RunOptions(segments=4, base_samples=2048)
        request = decode_request(
            _payload(options={"segments": 2, "seed": 99}), defaults
        )
        assert request.options.segments == 2
        assert request.options.seed == 99
        assert request.options.base_samples == 2048  # inherited

    def test_mapping_required(self):
        with pytest.raises(ProtocolError, match="mapping"):
            decode_request({"op": "simulate"})

    def test_mapping_too_long(self):
        entry = {"i_low": 1.0, "i_high": 2.0}
        with pytest.raises(ProtocolError, match="1..6"):
            decode_request({"mapping": [entry] * (N_CORES + 1)})

    def test_unknown_program_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown program field"):
            decode_request(
                {"mapping": [{"i_low": 1.0, "i_high": 2.0, "nope": 1}]}
            )

    def test_unknown_option_rejected(self):
        with pytest.raises(ProtocolError, match="unknown option"):
            decode_request(_payload(options={"wibble": 1}))

    def test_collect_waveforms_not_servable(self):
        with pytest.raises(ProtocolError, match="collect_waveforms"):
            decode_request(_payload(options={"collect_waveforms": True}))

    def test_invalid_option_value_rejected(self):
        with pytest.raises(ProtocolError, match="invalid options"):
            decode_request(_payload(options={"segments": 0}))

    def test_non_scalar_tag_rejected(self):
        with pytest.raises(ProtocolError, match="tag"):
            decode_request(_payload(tag=["a", "b"]))

    def test_program_needs_currents(self):
        with pytest.raises(ProtocolError, match="i_high"):
            decode_request({"mapping": [{"i_low": 1.0}]})

    def test_bad_sync_rejected(self):
        with pytest.raises(ProtocolError, match="sync"):
            decode_request(
                {"mapping": [
                    {"i_low": 1.0, "i_high": 2.0, "sync": {"bogus": 1}}
                ]}
            )


class TestProgramRoundTrip:
    def test_encode_decode_round_trip(self):
        program = CurrentProgram(
            "m", i_low=14.0, i_high=32.0, freq_hz=2.6e6, rise_time=11e-9,
            sync=SyncSpec(offset=62.5e-9),  # one TOD step of misalignment
        )
        assert decode_program(encode_program(program), 0) == program

    def test_none_round_trips(self):
        assert encode_program(None) is None


class TestFingerprint:
    def test_matches_session_key_space(self, chip):
        """The service fingerprint IS the engine cache key: a request
        decoded from the wire addresses the same content as the same
        run issued through a batch SimulationSession."""
        options = RunOptions(segments=1, events_cap=40, base_samples=64)
        request = decode_request(_payload(), options)
        session = SimulationSession(
            chip, request.options,
            cache=ResultCache(cache_dir=None), jobs=1,
        )
        assert request.fingerprint(chip) == session.fingerprint(
            list(request.mapping), request.tag
        )

    def test_distinct_requests_distinct_keys(self, chip):
        a = decode_request(_payload())
        b = decode_request(
            {"mapping": [{"i_low": 5.0, "i_high": 26.0, "freq_hz": 9e7}]}
        )
        assert a.fingerprint(chip) != b.fingerprint(chip)


class TestFraming:
    def test_round_trip(self):
        buffer = io.BytesIO()
        write_message(buffer, {"op": "health", "n": 1})
        buffer.seek(0)
        assert read_message(buffer) == {"op": "health", "n": 1}

    def test_eof_returns_none(self):
        assert read_message(io.BytesIO(b"")) is None

    def test_bad_json_raises(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            read_message(io.BytesIO(b"{nope\n"))

    def test_non_object_raises(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            read_message(io.BytesIO(b"[1, 2]\n"))


def test_encode_result_shape(chip):
    options = RunOptions(segments=1, events_cap=40, base_samples=64)
    request = decode_request(_payload(), options)
    session = SimulationSession(
        chip, request.options,
        cache=ResultCache(cache_dir=None), jobs=1,
    )
    body = encode_result(session.run(list(request.mapping), request.tag))
    assert set(body) == {"max_p2p", "worst_vmin", "measurements"}
    assert len(body["measurements"]) == N_CORES
    assert body["max_p2p"] > 0
    import json

    json.dumps(body)  # must be pure JSON
