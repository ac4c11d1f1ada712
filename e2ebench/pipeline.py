"""The full GalioT path the benchmark drives, one pass at a time.

scene capture -> ``gateway.rtlsdr`` front end -> ``gateway.universal``
detect -> ``gateway.extractor`` -> ``gateway.edge`` ->
``gateway.compression`` + ``gateway.backhaul`` -> wire blob ->
``cloud.pipeline`` decompress -> Algorithm 1 (``cloud.classify``,
``cloud.kill_filters``, ``cloud.sic``, ``phy`` demodulate).

A :class:`Pipeline` is built once per process (construction and the
frozen detector threshold are set-up work) and then replays captures
pass after pass. Two taps, installed at build time and always on, let
the benchmark see what the program does not return: the wire blob the
gateway's codec produced for each segment (so the cloud receives exactly
what went on the backhaul) and the segment each edge outcome belongs to
(so edge frames can be placed in capture time).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.dsp.fastcorr as fastcorr
import repro.dsp.resample as resample
import repro.cloud.sic as sic
from repro.cloud.classify import SegmentClassifier
from repro.cloud.kill_filters import KillCodes, KillCss, KillFrequency
from repro.cloud.pipeline import CloudService
from repro.gateway import BackhaulLink, GalioTGateway, StreamingGateway, iter_chunks
from repro.gateway.compression import CompressedSegment, CompressionStats
from repro.gateway.rtlsdr import RtlSdrModel
from repro.phy.base import Modem
from repro.telemetry import Telemetry
from repro.types import DecodeResult, Segment

from checks import Frame, codec_violations, match_frames
from tracing import Tracer
from workloads import CHUNK, FS, Workload, calibration_noise

#: Program telemetry counters copied into every pass's ledger.
LEDGER_COUNTERS = (
    "fastcorr.forward_ffts",
    "fastcorr.inverse_ffts",
    "cloud.kill_invocations",
    "cloud.sic_cancellations",
    "edge.resolved_locally",
)


@dataclass
class PassResult:
    """Everything one pass produced, plus its two stage times.

    Frame starts are on the workload's time axis (captures back to back).
    """

    gateway_s: float = 0.0
    cloud_s: float = 0.0
    events: int = 0
    segments: list[Segment] = field(default_factory=list)
    shipped: list[Segment] = field(default_factory=list)
    blobs: list[tuple[CompressedSegment, CompressionStats]] = field(default_factory=list)
    shipped_bits: int = 0
    dropped_segments: int = 0
    edge_frames: list[Frame] = field(default_factory=list)
    cloud_frames: list[Frame] = field(default_factory=list)
    edge_outcomes: list[bool] = field(default_factory=list)  # ship_to_cloud
    counters: dict[str, float] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)


class Pipeline:
    """Gateway + serial cloud over the registered ``modems``."""

    def __init__(self, modems: list[Modem]) -> None:
        self.modems = modems
        self.rates = {m.name: m.sample_rate for m in modems}
        self.telemetry = Telemetry()
        self.gateway = GalioTGateway(
            modems, FS, front_end=RtlSdrModel(), telemetry=self.telemetry
        )
        # Freeze the detection threshold on a noise-only capture through
        # the same front end, as a deployed gateway calibrates at boot.
        self.gateway.detector.calibrate(
            RtlSdrModel().capture(calibration_noise())
        )
        self.cloud = CloudService(modems, FS, telemetry=self.telemetry)
        self._blobs: dict[int, tuple[CompressedSegment, CompressionStats]] = {}
        self._edge: list[tuple[Segment, Any]] = []
        compress = self.gateway.codec.compress
        try_decode = self.gateway.edge.try_decode

        def tap_compress(segment: Segment):
            blob, stats = compress(segment)
            self._blobs[id(segment)] = (blob, stats)
            return blob, stats

        def tap_edge(segment: Segment):
            outcome = try_decode(segment)
            self._edge.append((segment, outcome))
            return outcome

        self.gateway.codec.compress = tap_compress
        self.gateway.edge.try_decode = tap_edge

    def run_pass(self, workload: Workload, tracer: Tracer | None = None) -> PassResult:
        """Replay every capture of ``workload`` through gateway then cloud."""
        self.telemetry.reset()
        result = PassResult()
        for offset, capture in zip(workload.offsets, workload.captures, strict=True):
            self._run_capture(capture, offset, workload.streaming, tracer, result)
        counters = self.telemetry.snapshot()["counters"]
        result.counters = {k: counters.get(k, 0) for k in LEDGER_COUNTERS}
        return result

    def _run_capture(
        self,
        capture: np.ndarray,
        offset: int,
        streaming: bool,
        tracer: Tracer | None,
        result: PassResult,
    ) -> None:
        self._blobs.clear()
        self._edge.clear()
        # A fresh uplink per capture: each replay starts at capture time 0.
        self.gateway.backhaul = BackhaulLink(telemetry=self.telemetry)
        gateway_span = tracer.span("gateway") if tracer else nullcontext()
        cloud_span = tracer.span("cloud") if tracer else nullcontext()
        t0 = time.perf_counter()
        with gateway_span:
            if streaming:
                stream = StreamingGateway(self.gateway)
                report = stream.process_stream(iter_chunks(capture, CHUNK))
            else:
                report = self.gateway.process(capture)
        t1 = time.perf_counter()
        received: list[Segment] = []
        decoded: list[DecodeResult] = []
        with cloud_span:
            for segment in report.shipped:
                segment_in = self.cloud.codec.decompress(self._blobs[id(segment)][0])
                decoded.extend(self.cloud.process_segment(segment_in))
                received.append(segment_in)
        t2 = time.perf_counter()
        result.gateway_s += t1 - t0
        result.cloud_s += t2 - t1
        self._account(report, received, decoded, offset, result)

    def _account(self, report, received, decoded, offset, result: PassResult) -> None:
        """Check the wire and the bit accounting; fold the capture into ``result``."""
        violations = result.violations
        wire_bits = 0
        for segment, segment_in in zip(report.shipped, received, strict=True):
            blob, stats = self._blobs[id(segment)]
            result.blobs.append((blob, stats))
            wire_bits += blob.n_bits
            if stats.shipped_bits != blob.n_bits:
                violations.append("compression stats disagree with the wire blob size")
            if (segment_in.start, segment_in.sample_rate) != (segment.start, segment.sample_rate):
                violations.append(f"segment header changed on the wire at {segment.start}")
            violations += codec_violations(
                segment.samples, segment_in.samples, self.gateway.codec.bits
            )
        if report.shipped_bits != wire_bits:
            violations.append(
                f"shipped bits {report.shipped_bits} != wire blob bits {wire_bits}"
            )
        edge_frames = []
        for segment, outcome in self._edge:
            result.edge_outcomes.append(outcome.ship_to_cloud)
            for r in outcome.results:
                native = int(round(r.start * FS / self.rates[r.technology]))
                edge_frames.append(
                    Frame("edge", r.technology, r.payload, offset + segment.start + native)
                )
        if len(edge_frames) != len(report.edge_results):
            violations.append("edge outcomes disagree with the gateway report")
        result.edge_frames += edge_frames
        result.cloud_frames += [
            Frame("cloud", r.technology, r.payload, offset + r.start, r.method)
            for r in decoded
            if r.ok
        ]
        result.events += len(report.events)
        result.segments += report.segments
        result.shipped += report.shipped
        result.shipped_bits += report.shipped_bits
        result.dropped_segments += report.dropped_segments


def ledger(workload: Workload, seed: int, result: PassResult) -> dict[str, Any]:
    """Deterministic per-pass record: same seed, same bytes."""
    delivery = match_frames(workload.packets, result.edge_frames + result.cloud_frames)
    missing = delivery.missing(workload.packets)
    return {
        "workload": workload.name,
        "seed": seed,
        "air_samples": sum(len(c) for c in workload.captures),
        "attempted": len(workload.packets),
        "failed": len(missing),
        "missing": missing,
        "delivered": sorted(delivery.delivered),
        "by_edge": sorted(delivery.by_edge),
        "by_cloud": sorted(delivery.by_cloud),
        "redundant_cloud_frames": delivery.redundant_cloud_frames,
        "events": result.events,
        "segments": len(result.segments),
        "segment_samples": sum(s.length for s in result.segments),
        "shipped_segments": len(result.shipped),
        "dropped_segments": result.dropped_segments,
        "shipped_bits": result.shipped_bits,
        "edge_frames": len(result.edge_frames),
        "cloud_frames": len(result.cloud_frames),
        "counters": {k: int(v) for k, v in result.counters.items()},
        "violations": result.violations + delivery.violations,
    }


# -- traced run ---------------------------------------------------------------


class LayerProbe:
    """Installs the layer wraps and turns a traced pass into metrics."""

    def __init__(self, pipeline: Pipeline) -> None:
        self.pipeline = pipeline
        self.tracer = Tracer()

    def install(self) -> None:
        t = self.tracer
        gw = self.pipeline.gateway
        cloud = self.pipeline.cloud

        t.wrap_attribute(gw.front_end, "capture", "frontend")
        t.wrap_attribute(gw.detector, "detect", "detect")
        t.wrap_attribute(gw.detector, "stream_candidates", "detect")
        t.wrap_attribute(gw.extractor, "extract", "extract")
        # The streaming front cuts segments in its own window logic.
        t.wrap_attribute(StreamingGateway, "_close_ready", "extract")
        t.wrap_attribute(gw.edge, "try_decode", "edge")
        t.wrap_attribute(gw.codec, "compress", "compress")
        t.wrap_attribute(cloud.codec, "decompress", "decompress")
        t.wrap_attribute(cloud.decoder, "decode", "decode")
        t.wrap_attribute(
            SegmentClassifier, "classify", "classify",
            lambda found: t.counts.update({"classify.candidates": len(found)}),
        )
        for kill in (KillCss, KillFrequency, KillCodes):
            t.wrap_attribute(kill, "apply", "kill")
        t.wrap_function(
            sic.try_decode, "sic.decode",
            lambda frame: t.counts.update({"sic.frames": frame is not None}),
        )
        t.wrap_function(sic.reconstruct_and_subtract, "sic.cancel")
        t.wrap_function(fastcorr.correlate_many, "fastcorr")
        t.wrap_function(fastcorr.correlate_accumulate, "fastcorr")
        t.wrap_function(resample.to_rate, "resample")
        for modem in self.pipeline.modems:
            t.wrap_attribute(
                modem, "demodulate", "demod",
                lambda frame: t.counts.update({"demod.crc_ok": bool(frame.crc_ok)}),
            )

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def metrics(self, workload: Workload, result: PassResult) -> dict[str, float]:
        """Per-layer figures of one traced pass."""
        t = self.tracer
        n_packets = len(workload.packets)
        delivery = match_frames(workload.packets, result.edge_frames + result.cloud_frames)
        segments = len(result.segments)
        resolved = sum(1 for ship in result.edge_outcomes if not ship)
        raw = sum(stats.raw_bits for _, stats in result.blobs)
        wire = sum(stats.shipped_bits for _, stats in result.blobs)
        kill_frames = sum(1 for f in result.cloud_frames if f.method != "sic")
        kill_calls = t.calls["kill"]
        return {
            "gateway.self_s": t.self_s["gateway"],
            "frontend.self_s": t.self_s["frontend"],
            "detect.self_s": t.self_s["detect"],
            "detect.events_per_packet": result.events / n_packets,
            "fastcorr.self_s": t.self_s["fastcorr"],
            "fastcorr.gateway_self_s": t.stage_self_s["gateway", "fastcorr"],
            "fastcorr.cloud_self_s": t.stage_self_s["cloud", "fastcorr"],
            "fastcorr.calls": t.calls["fastcorr"],
            "fastcorr.inverse_ffts": result.counters["fastcorr.inverse_ffts"],
            "extract.self_s": t.self_s["extract"],
            "extract.segments": segments,
            "extract.samples_per_packet": sum(s.length for s in result.segments) / n_packets,
            "edge.self_s": t.self_s["edge"],
            "edge.resolved_segments": resolved,
            "edge.resolved_ratio": resolved / segments if segments else 0.0,
            "edge.resolved_locally": result.counters["edge.resolved_locally"],
            "compress.self_s": t.self_s["compress"],
            "compress.ratio": raw / wire if wire else 0.0,
            "backhaul.shipped_segments": len(result.shipped),
            "cloud.self_s": t.self_s["cloud"],
            "decompress.self_s": t.self_s["decompress"],
            "decode.self_s": t.self_s["decode"],
            "classify.self_s": t.self_s["classify"],
            "classify.calls": t.calls["classify"],
            "classify.candidates_per_call": (
                t.counts["classify.candidates"] / t.calls["classify"]
                if t.calls["classify"] else 0.0
            ),
            "kill.self_s": t.self_s["kill"],
            "kill.calls": kill_calls,
            "kill.yield": kill_frames / kill_calls if kill_calls else 0.0,
            "cloud.kill_invocations": result.counters["cloud.kill_invocations"],
            "sic.decode_self_s": t.self_s["sic.decode"],
            "sic.decode_calls": t.calls["sic.decode"],
            "sic.decode_yield": (
                t.counts["sic.frames"] / t.calls["sic.decode"]
                if t.calls["sic.decode"] else 0.0
            ),
            "sic.cancel_self_s": t.self_s["sic.cancel"],
            "cloud.sic_cancellations": result.counters["cloud.sic_cancellations"],
            "demod.self_s": t.self_s["demod"],
            "demod.gateway_self_s": t.stage_self_s["gateway", "demod"],
            "demod.cloud_self_s": t.stage_self_s["cloud", "demod"],
            "demod.calls": t.calls["demod"],
            "demod.crc_ok_ratio": (
                t.counts["demod.crc_ok"] / t.calls["demod"] if t.calls["demod"] else 0.0
            ),
            "resample.self_s": t.self_s["resample"],
            "resample.gateway_self_s": t.stage_self_s["gateway", "resample"],
            "resample.cloud_self_s": t.stage_self_s["cloud", "resample"],
            "cloud.redundant_frames": delivery.redundant_cloud_frames,
            "trace.spans": sum(t.calls.values()),
        }


END_TO_END_UNITS = {
    "gateway_rtf": "x",
    "cloud_s_per_packet": "s",
    "pipeline_air_per_s": "s/s",
    "backhaul_kbit_per_air_s": "kbit/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "detect.events_per_packet": "count/packet",
    "extract.samples_per_packet": "samples/packet",
    "classify.candidates_per_call": "count/call",
    "edge.resolved_ratio": "ratio",
    "compress.ratio": "ratio",
    "kill.yield": "ratio",
    "sic.decode_yield": "ratio",
    "demod.crc_ok_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    """Unit of per-layer metric ``name``: seconds per pass, or a count."""
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"
