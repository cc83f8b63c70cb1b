"""Physical design advisor (paper §5.1).

Layout and compression — "techniques that reduce disk bandwidth
requirements, such as column-oriented storage and compression, will
need to be re-evaluated for their ability to reduce overall energy use"
(§5.1).  :meth:`DesignAdvisor.choose_codecs` prices each codec's
bandwidth savings against its decompression CPU energy on the target
hardware — the Figure 2 arithmetic run in reverse.  (Figure 1's width
choice is :meth:`~repro.core.profiler.EnergyProfile.best_efficiency`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.errors import OptimizerError
from repro.relational.types import DataType
from repro.storage.compression import codec_by_name
from repro.optimizer.objective import Objective


@dataclass
class CodecChoice:
    """Advice for one column."""

    column: str
    codec: str
    compressed_bytes: int
    plain_bytes: int
    scan_energy_joules: float


class DesignAdvisor:
    """Recommends physical designs under an energy objective."""

    def __init__(self, cpu_joules_per_cycle: float,
                 io_joules_per_byte: float,
                 scan_cycles_per_byte: float = 3.2,
                 cpu_seconds_per_cycle: Optional[float] = None,
                 io_seconds_per_byte: Optional[float] = None) -> None:
        if cpu_joules_per_cycle < 0 or io_joules_per_byte < 0:
            raise OptimizerError("energy prices cannot be negative")
        self.cpu_joules_per_cycle = cpu_joules_per_cycle
        self.io_joules_per_byte = io_joules_per_byte
        self.scan_cycles_per_byte = scan_cycles_per_byte
        # time prices default to the joule prices, so callers that only
        # care about energy ordering need not supply them
        self.cpu_seconds_per_cycle = (cpu_seconds_per_cycle
                                      if cpu_seconds_per_cycle is not None
                                      else cpu_joules_per_cycle)
        self.io_seconds_per_byte = (io_seconds_per_byte
                                    if io_seconds_per_byte is not None
                                    else io_joules_per_byte)

    # -- construction helpers ----------------------------------------------
    @classmethod
    def for_server(cls, server,
                   scan_cycles_per_byte: float = 3.2) -> "DesignAdvisor":
        """Derive energy prices from a server's device constants."""
        cpu = server.cpu
        joules_per_cycle = (cpu.active_power_per_unit_watts
                            / cpu.effective_frequency_hz)
        active_watts = 0.0
        bandwidth = 0.0
        for device in server.storage:
            spec = device.spec
            watts = getattr(spec, "active_watts", None)
            if watts is None:
                watts = spec.read_watts
            active_watts += watts
            bw = getattr(spec, "bandwidth_bytes_per_s", None)
            if bw is None:
                bw = spec.read_bandwidth_bytes_per_s
            bandwidth += bw
        if bandwidth <= 0:
            raise OptimizerError("server has no readable storage")
        return cls(cpu_joules_per_cycle=joules_per_cycle,
                   io_joules_per_byte=active_watts / bandwidth,
                   scan_cycles_per_byte=scan_cycles_per_byte,
                   cpu_seconds_per_cycle=1.0 / cpu.effective_frequency_hz,
                   io_seconds_per_byte=1.0 / bandwidth)

    # -- codec advice -----------------------------------------------------
    def scan_energy(self, plain_bytes: float, compressed_bytes: float,
                    decode_cycles_per_byte: float) -> float:
        """Energy of scanning one column once (the Figure 2 arithmetic)."""
        io = compressed_bytes * self.io_joules_per_byte
        cpu = (plain_bytes * self.scan_cycles_per_byte
               + compressed_bytes * decode_cycles_per_byte) \
            * self.cpu_joules_per_cycle
        return io + cpu

    def choose_codec(self, column: str, values: Sequence[Any],
                     dtype: DataType,
                     candidates: Sequence[str] = ("none", "rle",
                                                  "dictionary", "delta",
                                                  "lzlite"),
                     objective: Objective = Objective.ENERGY) -> CodecChoice:
        """Pick the codec minimizing scan energy (or time) for a column.

        Under ``Objective.TIME`` the choice minimizes scan seconds
        instead, which — as Figure 2 shows — can pick a different codec.
        """
        if not values:
            return CodecChoice(column, "none", 0, 0, 0.0)
        sample = list(values)
        plain = len(codec_by_name("none").encode(sample, dtype))
        best: Optional[CodecChoice] = None
        best_key = None
        for name in candidates:
            codec = codec_by_name(name)
            if not codec.supports(dtype):
                continue
            try:
                compressed = len(codec.encode(sample, dtype))
            except Exception:  # codec can't encode these values (NULLs)
                continue
            energy = self.scan_energy(plain, compressed,
                                      codec.decode_cycles_per_byte)
            if objective is Objective.TIME:
                # pipelined scan: time ~ max(io time, cpu time)
                io_s = compressed * self.io_seconds_per_byte
                cpu_s = (plain * self.scan_cycles_per_byte
                         + compressed * codec.decode_cycles_per_byte) \
                    * self.cpu_seconds_per_cycle
                key = max(io_s, cpu_s)
            else:
                key = energy
            if best_key is None or key < best_key:
                best_key = key
                best = CodecChoice(column, name, compressed, plain, energy)
        assert best is not None
        return best

    def choose_codecs(self, table, sample_rows: int = 4000,
                      objective: Objective = Objective.ENERGY
                      ) -> dict[str, str]:
        """Per-column codec advice for a whole table."""
        names = table.schema.column_names()
        samples: dict[str, list[Any]] = {n: [] for n in names}
        for i, row in enumerate(table.iterate()):
            if i >= sample_rows:
                break
            for name, value in zip(names, row):
                if value is not None:
                    samples[name].append(value)
        out = {}
        for name in names:
            dtype = table.schema.column(name).dtype
            out[name] = self.choose_codec(name, samples[name], dtype,
                                          objective=objective).codec
        return out
