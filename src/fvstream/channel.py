"""Packet-level channel simulation with delayed acknowledgment feedback.

Each frame of each view splits into a fixed number of texture packets and
depth packets; a packet carries a contiguous run of macroblocks in raster
order.  Losses are i.i.d. per packet from a seeded generator, and the exact
outcome of every packet sent at frame s becomes known to the sender once the
current frame index reaches s + max(rtt, 1): at rtt 0 the outcome of frame
t - 1 is known when frame t is coded, never that of frame t itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

GENERATOR_NAME = "pcg64-v1"
VIEWS = 2


class ChannelError(ValueError):
    """Invalid channel configuration or trace file."""


class Component(IntEnum):
    TEXTURE = 0
    DEPTH = 1

    @property
    def label(self) -> str:
        return "texture" if self is Component.TEXTURE else "depth"

    @classmethod
    def from_label(cls, label: str) -> "Component":
        if label == "texture":
            return cls.TEXTURE
        if label == "depth":
            return cls.DEPTH
        raise ChannelError(f"unknown component label {label!r}")


@dataclass(frozen=True, order=True)
class PacketId:
    frame_index: int
    view_id: int
    component: Component
    packet_index: int


def build_schedule(frame_count: int, packets_texture: int, packets_depth: int
                   ) -> list[PacketId]:
    """Canonical transmission order for a whole sequence."""
    if frame_count <= 0 or packets_texture <= 0 or packets_depth <= 0:
        raise ChannelError("frame, texture packet and depth packet counts must be positive")
    schedule: list[PacketId] = []
    for t in range(frame_count):
        for view in range(VIEWS):
            for comp, npk in ((Component.TEXTURE, packets_texture),
                              (Component.DEPTH, packets_depth)):
                for p in range(npk):
                    schedule.append(PacketId(t, view, comp, p))
    return schedule


def packetize(mb_count: int, packets: int) -> list[range]:
    """Split mb_count raster-order macroblocks into contiguous packets.

    Packet sizes differ by at most one; the larger packets come first.
    """
    if packets <= 0:
        raise ChannelError("packet count must be positive")
    if packets > mb_count:
        raise ChannelError(f"cannot split {mb_count} macroblocks into {packets} packets")
    base, extra = divmod(mb_count, packets)
    ranges = []
    start = 0
    for p in range(packets):
        size = base + (1 if p < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


@dataclass
class LossTrace:
    """Realized per-packet loss outcomes for one channel condition."""

    seed: int
    loss_rate: float
    entries: list[tuple[PacketId, bool]]            # (packet, lost)
    generator: str = GENERATOR_NAME
    protected_frames: frozenset[int] = frozenset()
    _lookup: dict[PacketId, bool] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._lookup:
            self._lookup = {pid: lost for pid, lost in self.entries}

    def __contains__(self, pid: PacketId) -> bool:
        return pid in self._lookup

    def lost(self, pid: PacketId) -> bool:
        try:
            return self._lookup[pid]
        except KeyError:
            raise ChannelError(f"packet {pid} not in trace") from None


def make_iid_trace(seed: int, loss_rate: float, schedule: list[PacketId],
                   protected_frames=()) -> LossTrace:
    """Draw i.i.d. packet losses over the schedule from a seeded PCG64 stream.

    One uniform variate is consumed per packet in schedule order, so the same
    (seed, rate, schedule) always reproduces the same trace.  Packets of
    protected frames are forced to be delivered after drawing.
    """
    if not 0.0 <= loss_rate <= 1.0:
        raise ChannelError(f"loss rate {loss_rate} outside [0, 1]")
    if seed < 0:
        raise ChannelError(f"seed {seed} is negative")
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.random(len(schedule))
    protected = frozenset(int(f) for f in protected_frames)
    entries = []
    for pid, u in zip(schedule, draws):
        lost = bool(u < loss_rate) and pid.frame_index not in protected
        entries.append((pid, lost))
    return LossTrace(seed=seed, loss_rate=loss_rate, entries=entries,
                     protected_frames=protected)


def lost_mb_mask(trace: LossTrace, frame_index: int, view_id: int,
                 component: Component, mb_count: int, packets: int) -> np.ndarray:
    """Boolean mask over raster macroblocks hit by packet losses of one plane.

    ``packets`` must equal the number of packets the trace holds for the
    plane, so that the macroblock ranges match the packets that were sent;
    a count that differs raises ChannelError.
    """
    if PacketId(frame_index, view_id, component, packets) in trace:
        raise ChannelError(f"trace holds more than {packets} packets for frame "
                           f"{frame_index} view {view_id} {component.label}")
    mask = np.zeros(mb_count, dtype=bool)
    for p, rng in enumerate(packetize(mb_count, packets)):
        if trace.lost(PacketId(frame_index, view_id, component, p)):
            mask[rng.start:rng.stop] = True
    return mask


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def save_trace(path, trace: LossTrace) -> None:
    """Write the trace in its line-oriented text form."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# seed={trace.seed} loss_rate={trace.loss_rate!r} "
                 f"generator={trace.generator}")
        if trace.protected_frames:
            prot = ",".join(str(f) for f in sorted(trace.protected_frames))
            fh.write(f" protected={prot}")
        fh.write("\n")
        for pid, lost in trace.entries:
            fh.write(f"{pid.frame_index} {pid.view_id} {pid.component.label} "
                     f"{pid.packet_index} {int(lost)}\n")


def _count(text: str, what: str) -> int:
    # ASCII digits only: int() would also take signs, spaces and underscores
    if not (text.isascii() and text.isdigit()):
        raise ChannelError(f"{what} {text!r} is not a nonnegative integer")
    return int(text)


def load_trace(path) -> LossTrace:
    """Read a trace written by save_trace; malformed input raises ChannelError.

    Each (frame, view, component) must hold packets 0..n-1, each once.
    """
    seed, rate, generator = 0, 0.0, GENERATOR_NAME
    protected: frozenset[int] = frozenset()
    entries: list[tuple[PacketId, bool]] = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.strip() for line in fh]
    except UnicodeDecodeError as exc:
        raise ChannelError(f"trace file is not ASCII: {exc.reason}") from None
    for line in lines:
        if line.startswith("#"):
            for tok in line[1:].split():
                key, _, val = tok.partition("=")
                if key == "seed":
                    seed = _count(val, "seed")
                elif key == "loss_rate":
                    try:
                        rate = float(val)
                    except ValueError:
                        raise ChannelError(f"loss rate {val!r} is not a "
                                           f"number") from None
                    if not 0.0 <= rate <= 1.0:
                        raise ChannelError(f"loss rate {val!r} outside [0, 1]")
                elif key == "generator":
                    generator = val
                elif key == "protected" and val:
                    protected = frozenset(_count(f, "protected frame")
                                          for f in val.split(","))
        elif line:
            parts = line.split()
            if len(parts) != 5:
                raise ChannelError(f"bad trace line: {line!r}")
            frame, view, comp, packet, lost = parts
            if lost not in ("0", "1"):
                raise ChannelError(f"lost flag {lost!r} is neither 0 nor 1")
            entries.append((PacketId(_count(frame, "frame"),
                                     _count(view, "view"),
                                     Component.from_label(comp),
                                     _count(packet, "packet index")),
                            lost == "1"))
    if not entries:
        raise ChannelError("trace holds no packets")
    packets: dict[tuple, list[int]] = {}
    for pid, _ in entries:
        packets.setdefault((pid.frame_index, pid.view_id, pid.component),
                           []).append(pid.packet_index)
    for (f, v, comp), idx in packets.items():
        if sorted(idx) != list(range(len(idx))):
            raise ChannelError(f"frame {f} view {v} {comp.label} does not "
                               f"hold packets 0..{len(idx) - 1} once each")
    return LossTrace(seed=seed, loss_rate=rate, entries=entries,
                     generator=generator, protected_frames=protected)
