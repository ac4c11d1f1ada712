"""Fast checks of the end-to-end benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import pipeline as pl  # noqa: E402
import workloads as wl  # noqa: E402
from repro.gateway import GalioTGateway, StreamingGateway, iter_chunks  # noqa: E402
from repro.gateway.compression import SegmentCodec  # noqa: E402
from repro.types import PacketTruth, Segment  # noqa: E402
from tracing import Tracer  # noqa: E402

import run  # noqa: E402


def _packets() -> list[PacketTruth]:
    return [
        PacketTruth(0, "lora", 1_000, 60_000, 18.0, b"\x01" * 16),
        PacketTruth(1, "xbee", 100_000, 8_000, 18.0, b"\x02" * 16),
        PacketTruth(2, "zwave", 200_000, 7_400, 18.0, b"\x03" * 16),
    ]


def _frames(packets: list[PacketTruth]) -> list[checks.Frame]:
    return [checks.Frame("cloud", p.technology, p.payload, p.start + 3, "sic") for p in packets]


@pytest.fixture(scope="module")
def pipe() -> pl.Pipeline:
    return pl.Pipeline(wl.make_modems())


class TestChecker:
    def test_clean_delivery_has_no_violations(self):
        packets = _packets()
        delivery = checks.match_frames(packets, _frames(packets))
        assert delivery.violations == []
        assert delivery.missing(packets) == []

    def test_planted_false_decode_is_caught(self):
        packets = _packets()
        frames = _frames(packets) + [checks.Frame("cloud", "xbee", b"\xff" * 16, 100_000)]
        delivery = checks.match_frames(packets, frames)
        assert len(delivery.violations) == 1
        assert "false decode" in delivery.violations[0]

    def test_corrupted_payload_is_caught(self):
        packets = _packets()
        frames = _frames(packets)
        bad = bytearray(frames[1].payload)
        bad[5] ^= 0x10
        frames[1] = checks.Frame("edge", "xbee", bytes(bad), frames[1].start)
        delivery = checks.match_frames(packets, frames)
        assert any("false decode" in v for v in delivery.violations)
        assert delivery.missing(packets) == [1]

    def test_misplaced_frame_is_caught(self):
        packets = _packets()
        frames = _frames(packets)
        frames[2] = checks.Frame(
            "cloud", "zwave", packets[2].payload, packets[2].start + checks.START_TOLERANCE + 1
        )
        delivery = checks.match_frames(packets, frames)
        assert any("misplaced" in v for v in delivery.violations)

    def test_missing_packet_counts_as_failed_without_raising(self):
        packets = _packets()
        delivery = checks.match_frames(packets, _frames(packets)[:2])
        assert delivery.violations == []
        assert delivery.missing(packets) == [2]

    def test_cloud_copy_of_an_edge_frame_is_redundant(self):
        packets = _packets()
        edge = [checks.Frame("edge", "lora", packets[0].payload, packets[0].start)]
        delivery = checks.match_frames(packets, edge + _frames(packets))
        assert delivery.redundant_cloud_frames == 1
        assert delivery.by_edge == {0}

    def test_codec_round_trip_is_within_half_a_step(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        for bits in (4, 8):
            codec = SegmentCodec(bits=bits)
            blob, _ = codec.compress(Segment(0, samples, 1e6))
            decoded = codec.decompress(blob).samples
            assert checks.codec_violations(samples, decoded, bits) == []
            spoiled = decoded.copy()
            spoiled[17] += 2 * np.max(np.abs(samples)) / ((1 << bits) - 1)
            assert checks.codec_violations(samples, spoiled, bits)


class TestTracer:
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                sum(range(20_000))
        assert tracer.calls == {"parent": 1, "child": 1}
        assert 0 <= tracer.self_s["parent"] < tracer.self_s["child"]
        assert tracer.stage_self_s["parent", "child"] == tracer.self_s["child"]
        assert tracer.violations == []

    def test_children_exceeding_parent_are_reported(self):
        tracer = Tracer()
        tracer._enter("parent")
        tracer._stack[-1][2] = 10.0  # pretend a child ran for 10 s
        tracer._exit()
        assert tracer.violations

    def test_uninstall_restores_every_attribute(self, pipe):
        import repro.cloud.decoder as decoder
        import repro.cloud.sic as sic

        before = (decoder.try_decode, pipe.gateway.detector.detect)
        probe = pl.LayerProbe(pipe)
        probe.install()
        assert decoder.try_decode.__wrapped__ is before[0]
        probe.uninstall()
        assert decoder.try_decode is before[0] is sic.try_decode
        assert "detect" not in vars(pipe.gateway.detector)


class TestWorkloads:
    def test_same_seed_same_inputs(self, pipe):
        a = wl.sparse_clean(5, pipe.modems, n_packets=3)
        b = wl.sparse_clean(5, pipe.modems, n_packets=3)
        c = wl.sparse_clean(6, pipe.modems, n_packets=3)
        assert np.array_equal(a.captures[0], b.captures[0])
        assert a.packets == b.packets
        assert a.packets != c.packets

    def test_dense_burst_follows_the_seed(self, pipe):
        a = wl.dense_bursts(1, pipe.modems)
        b = wl.dense_bursts(1, pipe.modems)
        c = wl.dense_bursts(2, pipe.modems)
        assert all(np.array_equal(x, y) for x, y in zip(a.captures, b.captures))
        assert a.packets == b.packets
        assert a.packets[: wl.BURST_FRAMES] != c.packets[: wl.BURST_FRAMES]

    def test_streaming_equals_monolithic_with_frozen_threshold(self, pipe):
        work = wl.sparse_clean(7, pipe.modems, n_packets=3)
        capture = work.captures[0]
        gateway = pipe.gateway
        stream = StreamingGateway(gateway)
        streamed = stream.process_stream(iter_chunks(capture, wl.CHUNK))
        # The monolithic front sees the very samples the front end gave
        # the stream chunk by chunk (the model's gain follows each buffer).
        front = type(gateway.front_end)()
        samples = np.concatenate(
            [front.capture(chunk) for chunk in iter_chunks(capture, wl.CHUNK)]
        )
        mono = GalioTGateway(
            pipe.modems, wl.FS, use_edge=False, threshold=gateway.detector.threshold
        ).process(samples)
        # Same events; scores agree to rounding (chunked and whole-capture
        # correlation round differently in the last bits).
        assert [e.index for e in streamed.events] == [e.index for e in mono.events]
        np.testing.assert_allclose(
            [e.score for e in streamed.events], [e.score for e in mono.events], rtol=1e-12
        )
        assert [(s.start, s.length) for s in streamed.segments] == [
            (s.start, s.length) for s in mono.segments
        ]


class TestSmoke:
    """A tiny size of each workload through the whole path."""

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize(
        "make",
        [
            lambda seed, m: wl.sparse_clean(seed, m, n_packets=3),
            lambda seed, m: wl.xtech_collisions(seed, m, offsets=(-1.0,)),
        ],
        ids=["sparse_clean", "xtech_collisions"],
    )
    def test_small_workload_delivers_everything(self, pipe, make, seed):
        # Two independent renders of one seed give byte-identical ledgers.
        work = make(seed, pipe.modems)
        first = pl.ledger(work, seed, pipe.run_pass(work))
        work = make(seed, pipe.modems)
        again = pl.ledger(work, seed, pipe.run_pass(work))
        assert run.canonical(first) == run.canonical(again)
        assert first["violations"] == []
        assert first["failed"] == 0
        assert first["shipped_bits"] > 0

    def test_dense_burst_loses_frames_to_the_iteration_budget(self, pipe):
        work = wl.dense_bursts(11, pipe.modems)
        record = pl.ledger(work, 11, pipe.run_pass(work))
        assert record["violations"] == []
        assert record["segments"] == 2  # the burst merges into one segment
        assert record["failed"] == 1
        # Twelve decode iterations for thirteen burst frames, plus the lone packet.
        assert record["cloud_frames"] == 13

    def test_traced_pass_reports_every_layer(self, pipe):
        work = wl.xtech_collisions(11, pipe.modems, offsets=(-1.0,))
        probe = pl.LayerProbe(pipe)
        probe.install()
        try:
            result = pipe.run_pass(work, probe.tracer)
        finally:
            probe.uninstall()
        layer = probe.metrics(work, result)
        assert probe.tracer.violations == []
        for name in ("frontend", "detect", "fastcorr", "edge", "classify", "demod"):
            assert layer[f"{name}.self_s"] > 0, name
        assert layer["sic.decode_calls"] >= 2
        assert layer["kill.calls"] == layer["cloud.kill_invocations"]
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [*layer, "trace.overhead_ratio"]
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
            name: pl.layer_unit(name) for name in names
        }


def test_run_refuses_without_program_source(tmp_path):
    shutil.copy(HERE / "run.py", tmp_path / "run.py")
    done = subprocess.run(
        [sys.executable, str(tmp_path / "run.py"), "--workload", "sparse_clean",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_end_to_end_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == pl.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
