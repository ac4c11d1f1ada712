"""Correctness checks that do not trust the receive path.

The benchmark draws every payload and start itself (see
:mod:`workloads`), so each delivered frame is checked against that
transmitted truth, and the wire codec and bit accounting are checked
against their own definitions. A *violation* (false decode, misplaced
frame, codec error beyond its bound, bits that do not add up) makes the
run fail; a *missing* packet is a failed operation, counted, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.types import PacketTruth

#: A delivered frame's start must lie within this many capture-rate
#: samples (128 us at 1 MS/s) of the transmitted packet's true start.
START_TOLERANCE = 128


@dataclass(frozen=True)
class Frame:
    """A delivered frame in capture-time coordinates.

    ``source`` is ``"edge"`` or ``"cloud"``; ``method`` is how the frame
    was recovered (``"direct"`` at the edge, ``"sic"`` or a kill filter's
    name in the cloud).
    """

    source: str
    technology: str
    payload: bytes
    start: int
    method: str = "direct"


@dataclass
class Delivery:
    """Outcome of matching delivered frames against transmitted truth."""

    delivered: set[int] = field(default_factory=set)
    by_edge: set[int] = field(default_factory=set)
    by_cloud: set[int] = field(default_factory=set)
    redundant_cloud_frames: int = 0
    violations: list[str] = field(default_factory=list)

    def missing(self, packets: list[PacketTruth]) -> list[int]:
        """Ids of transmitted packets nobody delivered (failed operations)."""
        return sorted(p.packet_id for p in packets if p.packet_id not in self.delivered)


def match_frames(
    packets: list[PacketTruth], frames: list[Frame], tolerance: int = START_TOLERANCE
) -> Delivery:
    """Match each delivered frame to the one packet it claims to be.

    A frame matches packet ``p`` when technology and payload are equal
    and the start is within ``tolerance``. A frame whose technology and
    payload match a packet but whose start does not is a misplaced frame;
    one whose payload matches no packet of its technology is a false
    decode. Both are violations. A cloud frame for a packet the edge
    already delivered is counted as redundant cloud work.
    """
    result = Delivery()
    by_key: dict[tuple[str, bytes], list[PacketTruth]] = {}
    for packet in packets:
        by_key.setdefault((packet.technology, packet.payload), []).append(packet)
    edge_frames = [f for f in frames if f.source == "edge"]
    cloud_frames = [f for f in frames if f.source != "edge"]
    for frame in edge_frames + cloud_frames:
        candidates = by_key.get((frame.technology, frame.payload))
        if not candidates:
            result.violations.append(
                f"false decode: {frame.source} delivered {frame.technology} "
                f"{frame.payload.hex()} at {frame.start}, never transmitted"
            )
            continue
        near = [p for p in candidates if abs(frame.start - p.start) <= tolerance]
        if not near:
            result.violations.append(
                f"misplaced frame: {frame.source} {frame.technology} at "
                f"{frame.start}, transmitted at {[p.start for p in candidates]}"
            )
            continue
        packet = min(near, key=lambda p: abs(frame.start - p.start))
        if frame.source == "edge":
            result.by_edge.add(packet.packet_id)
        else:
            if packet.packet_id in result.by_edge:
                result.redundant_cloud_frames += 1
            result.by_cloud.add(packet.packet_id)
        result.delivered.add(packet.packet_id)
    return result


def codec_violations(original: np.ndarray, decoded: np.ndarray, bits: int) -> list[str]:
    """``decoded`` must be within half a quantization step of ``original``.

    The codec scales both rails by the segment peak and requantizes to
    ``bits`` bits, so one step is ``2 * peak / (2**bits - 1)``.
    """
    if len(original) != len(decoded):
        return [f"codec changed the length: {len(original)} -> {len(decoded)}"]
    if not len(original):
        return []
    peak = float(np.max(np.abs(np.concatenate([original.real, original.imag]))))
    half_step = peak / ((1 << bits) - 1)
    error = float(
        max(
            np.max(np.abs(original.real - decoded.real)),
            np.max(np.abs(original.imag - decoded.imag)),
        )
    )
    if error > half_step * (1 + 1e-9):
        return [f"codec error {error:.6g} exceeds half a step {half_step:.6g}"]
    return []
