"""Seeded scene generators for the end-to-end benchmark's workloads.

Every workload is drawn by the benchmark itself: the payloads, starts,
SNRs and technology order come from ``numpy.random.default_rng(seed)``,
and the returned :class:`Workload` carries that transmitted truth so the
checker never trusts the receive path to say what was sent. Scene
generation is not part of any timed region.

All captures are complex baseband at 1 MS/s with LoRa and XBee
registered at the gateway and the cloud. Z-Wave, the prototype's third
technology, is not registered: its demodulator delivers frames that were
never transmitted on a seed-dependent few segments (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.net import SceneBuilder
from repro.phy import create_modem
from repro.phy.base import Modem
from repro.types import PacketTruth

FS = 1e6
TECHNOLOGIES = ("lora", "xbee")

#: Chunk size of the streaming front: one RTL-SDR USB buffer of samples.
CHUNK = 262_144

#: Samples per isolated-packet or per-collision slot. The extractor cuts
#: 205 312 samples around a detection (2 x the longest registered frame)
#: and the universal detector fires up to ~7 ms before and all through a
#: LoRa frame, so a 320 000-sample slot keeps every slot in a segment of
#: its own.
SLOT = 320_000
LEAD_IN = 40_000
SLOT_JITTER = 20_000

#: The set-up warm-up scene is drawn from a fixed seed: it only fills
#: lazy caches.
WARMUP_SEED = 0x3A7


@dataclass
class Workload:
    """Rendered captures plus what was transmitted in them.

    A pass replays ``captures`` in order, each as its own gateway run.
    ``packets`` carry workload-wide ids and starts on one time axis on
    which the captures follow each other back to back.
    """

    name: str
    captures: list[np.ndarray]
    packets: list[PacketTruth]
    streaming: bool
    description: str

    @property
    def offsets(self) -> list[int]:
        """First sample of each capture on the workload's time axis."""
        return [int(x) for x in np.cumsum([0] + [len(c) for c in self.captures[:-1]])]

    @property
    def air_s(self) -> float:
        """Total capture length in seconds of air time."""
        return sum(len(c) for c in self.captures) / FS


def _workload(name: str, scenes, streaming: bool, description: str) -> Workload:
    """Join rendered ``(capture, truth)`` scenes into one workload."""
    captures, packets, offset = [], [], 0
    for capture, truth in scenes:
        for packet in truth.packets:
            packets.append(
                replace(packet, packet_id=len(packets), start=packet.start + offset)
            )
        captures.append(capture)
        offset += len(capture)
    return Workload(name, captures, packets, streaming, description)


def make_modems() -> list[Modem]:
    """The registered technologies, in registration order."""
    return [create_modem(name) for name in TECHNOLOGIES]


def _payload(rng: np.random.Generator, size: int) -> bytes:
    return rng.integers(0, 256, size, dtype=np.uint8).tobytes()


def sparse_clean(seed: int, modems: list[Modem], n_packets: int = 6) -> Workload:
    """Isolated packets, three of each technology, one per slot.

    16-byte payloads at 17-21 dB in-band SNR, each slot ``SLOT`` samples
    with up to ``SLOT_JITTER`` samples of start jitter.
    """
    rng = np.random.default_rng(seed)
    by = {m.name: m for m in modems}
    order = list(TECHNOLOGIES) * (n_packets // len(TECHNOLOGIES))
    order = [order[i] for i in rng.permutation(len(order))]
    scene = SceneBuilder(FS, (LEAD_IN + len(order) * SLOT) / FS)
    for i, tech in enumerate(order):
        start = LEAD_IN + i * SLOT + int(rng.integers(0, SLOT_JITTER))
        scene.add_packet(
            by[tech], _payload(rng, 16), start, float(rng.uniform(17.0, 21.0)), rng,
            device_id=i,
        )
    return _workload(
        "sparse_clean", [scene.render(rng)], streaming=True,
        description=f"{len(order)} isolated packets, 16 B, 17-21 dB, {SLOT} sample slots",
    )


#: Head-on LoRa + XBee pairs: LoRa power relative to the XBee frame in
#: dB. At +3 dB LoRa decodes first (plain SIC order); at -6 and -9 dB the
#: XBee frame decodes first (plain SIC, O-QPSK on top); at -1 dB the XBee
#: decode fails until KILL-CSS removes the LoRa frame (the kill-filter
#: path, on about nine seeds in ten). Left out, see README.md: LoRa at -2
#: and -3 dB (the XBee frame is lost on some seeds), and XBee at 18 dB.
LORA_OFFSETS_DB = (3.0, -1.0, -6.0, -9.0)
XBEE_SNR_DB = 24.0


def xtech_collisions(
    seed: int, modems: list[Modem], offsets: tuple[float, ...] = LORA_OFFSETS_DB
) -> Workload:
    """One head-on LoRa + XBee collision per LoRa offset, each its own capture.

    A capture per pair keeps one pair's power out of another's front-end
    gain: in one long capture of four pairs at XBee 18 dB, the -3 dB pair
    lost its XBee frame on 1 of 5 seeds.
    """
    rng = np.random.default_rng(seed)
    by = {m.name: m for m in modems}
    scenes = []
    for i in rng.permutation(len(offsets)):
        scene = SceneBuilder(FS, (LEAD_IN + SLOT) / FS)
        start = LEAD_IN + int(rng.integers(0, SLOT_JITTER))
        scene.add_packet(
            by["lora"], _payload(rng, 16), start, XBEE_SNR_DB + offsets[i], rng
        )
        scene.add_packet(by["xbee"], _payload(rng, 16), start, XBEE_SNR_DB, rng)
        scenes.append(scene.render(rng))
    return _workload(
        "xtech_collisions", scenes, streaming=False,
        description=f"{len(offsets)} head-on LoRa+XBee pairs, one per capture, 16 B, "
        f"XBee at {XBEE_SNR_DB:g} dB, LoRa at {'/'.join(f'{o:+g}' for o in offsets)} dB",
    )


#: Burst layout: back-to-back XBee frames, 8-byte payloads, one frame
#: start every ``BURST_PITCH`` samples (a frame lasts 5.44 ms, so they
#: never overlap in the air but sit far closer than one segment span),
#: then silence; a second capture holds a lone LoRa packet in the quiet
#: time between bursts (16 B, 17-21 dB). Separate captures keep the lone
#: packet out of the burst's front-end gain.
BURST_FRAMES = 13
BURST_PITCH = 10_000
BURST_SNR_DB = 16.0


def dense_bursts(seed: int, modems: list[Modem]) -> Workload:
    """A burst of ``BURST_FRAMES`` frames, then one lone LoRa packet."""
    rng = np.random.default_rng(seed)
    by = {m.name: m for m in modems}
    burst = SceneBuilder(FS, (LEAD_IN + BURST_FRAMES * BURST_PITCH + SLOT) / FS)
    for i in range(BURST_FRAMES):
        burst.add_packet(
            by["xbee"], _payload(rng, 8),
            LEAD_IN + i * BURST_PITCH, BURST_SNR_DB, rng, device_id=i,
        )
    burst_capture = burst.render(rng)
    lone = SceneBuilder(FS, (LEAD_IN + SLOT) / FS)
    lone.add_packet(
        by["lora"], _payload(rng, 16), LEAD_IN + int(rng.integers(0, SLOT_JITTER)),
        float(rng.uniform(17.0, 21.0)), rng, device_id=BURST_FRAMES,
    )
    return _workload(
        "dense_bursts", [burst_capture, lone.render(rng)], streaming=False,
        description=f"burst of {BURST_FRAMES} XBee frames, 8 B, "
        f"{BURST_SNR_DB:g} dB, one start per {BURST_PITCH} samples, then a lone LoRa packet",
    )


def warmup(modems: list[Modem]) -> Workload:
    """Fixed set-up scene: one LoRa + XBee collision in a short capture."""
    rng = np.random.default_rng(WARMUP_SEED)
    by = {m.name: m for m in modems}
    scene = SceneBuilder(FS, (LEAD_IN + 110_000) / FS)
    scene.add_packet(by["lora"], _payload(rng, 16), LEAD_IN, 21.0, rng)
    scene.add_packet(by["xbee"], _payload(rng, 16), LEAD_IN, 18.0, rng)
    return _workload("warmup", [scene.render(rng)], False, "set-up warm-up scene")


def calibration_noise(n_samples: int = 400_000) -> np.ndarray:
    """Noise-only capture at the scenes' floor, for freezing the threshold."""
    rng = np.random.default_rng(WARMUP_SEED + 1)
    sigma = np.sqrt(0.5)
    return rng.normal(scale=sigma, size=n_samples) + 1j * rng.normal(
        scale=sigma, size=n_samples
    )


BUILDERS = {
    "sparse_clean": sparse_clean,
    "xtech_collisions": xtech_collisions,
    "dense_bursts": dense_bursts,
}


def build(name: str, seed: int, modems: list[Modem]) -> Workload:
    """Render workload ``name`` for ``seed``."""
    return BUILDERS[name](seed, modems)
