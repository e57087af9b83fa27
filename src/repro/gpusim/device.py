"""Device specifications (Table 1 of the paper).

The experiments ran on five NVIDIA GPUs; this module records their published
characteristics plus the memory figures the timing model needs.  A
:class:`DeviceSpec` is a plain description — the shared-memory capacity
model and the timing model consume it, nothing here talks to real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceSpec", "TABLE1_DEVICES", "get_device", "DEFAULT_DEVICE"]


@dataclass(frozen=True)
class DeviceSpec:
    """Characteristics of one (simulated) GPU.

    The first six attributes are the columns of Table 1; the remaining ones
    feed the timing model (memory bandwidth, shared memory per block, kernel
    scheduling overheads).
    """

    name: str
    cuda_capability: float
    multiprocessors: int
    cores_per_mp: int
    clock_ghz: float
    host_cpu: str
    host_clock_ghz: float
    memory_bandwidth_gb_s: float
    #: Effective double-precision throughput of one streaming multiprocessor,
    #: in operations per cycle.  For the Tesla-class devices this is close to
    #: the number of FP64 units per SM (32 on P100/V100); for the Kepler and
    #: the consumer Turing part it is a calibration constant fitted to the
    #: cross-device ratios of Table 3 (see README, "Paper fidelity").
    double_units_per_mp: float = 32.0
    #: Clock actually sustained by double-precision kernels (GHz); defaults
    #: to the listed clock when zero.  The V100 lists a 1.91 GHz boost clock
    #: in Table 1 but its published 7.9 TFLOPS double peak corresponds to
    #: ~1.53 GHz, which is also what the measured P100/V100 ratios reflect.
    sustained_clock_ghz: float = 0.0
    shared_memory_per_block_kb: int = 48
    warp_size: int = 32
    #: Fixed scheduling cost per warp of a block, in GPU cycles (calibrated
    #: once on the V100 column of Table 5 and reused for every device).
    warp_overhead_cycles: float = 700.0
    #: Host-side cost per kernel launch in milliseconds (driver + index
    #: vector transfer), part of the wall clock but not of the kernel times.
    launch_overhead_ms: float = 0.25
    #: Additional host-side cost per job (index triplet staging), in
    #: microseconds.
    per_job_overhead_us: float = 0.12
    #: Effective host-to-device copy bandwidth (GB/s).  All five devices sit
    #: on PCIe 3.0 x16, whose ~12 GB/s effective rate dwarfs none of the
    #: kernels but dominates repeated input repacking — the cost the
    #: resident evaluation contexts avoid (see
    #: :meth:`repro.gpusim.TimingModel.predict_resident`).
    h2d_bandwidth_gb_s: float = 12.0
    #: Fixed latency of one host-to-device copy call, in microseconds.
    h2d_latency_us: float = 10.0

    @property
    def cores(self) -> int:
        """Total CUDA core count (``#MP * cores/MP``)."""
        return self.multiprocessors * self.cores_per_mp

    @property
    def compute_clock_ghz(self) -> float:
        """Clock used for arithmetic throughput (sustained if provided)."""
        return self.sustained_clock_ghz if self.sustained_clock_ghz > 0 else self.clock_ghz

    @property
    def peak_double_gflops(self) -> float:
        """Peak double-precision rate (FMA counted as two operations).

        Reproduces the figures the paper reasons with: about 4.7 TFLOPS for
        the P100 and 7.9 TFLOPS for the V100.
        """
        return 2.0 * self.double_units_per_mp * self.multiprocessors * self.compute_clock_ghz

    @property
    def per_sm_gflops(self) -> float:
        """Double-precision rate of one streaming multiprocessor (GFLOP/s)."""
        return self.double_units_per_mp * self.compute_clock_ghz

    @property
    def per_sm_bandwidth_gb_s(self) -> float:
        """Global-memory bandwidth available to one SM (GB/s)."""
        return self.memory_bandwidth_gb_s / self.multiprocessors

    def shared_memory_bytes(self) -> int:
        return self.shared_memory_per_block_kb * 1024

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: The five GPUs of Table 1 (memory bandwidths from the vendor datasheets).
TABLE1_DEVICES: dict[str, DeviceSpec] = {
    "C2050": DeviceSpec(
        name="Tesla C2050",
        cuda_capability=2.0,
        multiprocessors=14,
        cores_per_mp=32,
        clock_ghz=1.15,
        host_cpu="Intel X5690",
        host_clock_ghz=3.47,
        memory_bandwidth_gb_s=144.0,
        # Fermi executes doubles at half the single rate (16/SM nominal);
        # 12/SM reproduces the measured C2050/V100 ratio of Table 3.
        double_units_per_mp=12.0,
    ),
    "K20C": DeviceSpec(
        name="Kepler K20C",
        cuda_capability=3.5,
        multiprocessors=13,
        cores_per_mp=192,
        clock_ghz=0.71,
        host_cpu="Intel E5-2670",
        host_clock_ghz=2.60,
        memory_bandwidth_gb_s=208.0,
        # Kepler SMX ships 64 FP64 units but sustains far less on this
        # register-heavy workload; 24/SM matches the measured Table 3 ratio.
        double_units_per_mp=24.0,
        warp_overhead_cycles=900.0,
    ),
    "P100": DeviceSpec(
        name="Pascal P100",
        cuda_capability=6.0,
        multiprocessors=56,
        cores_per_mp=64,
        clock_ghz=1.33,
        host_cpu="Intel E5-2699",
        host_clock_ghz=2.20,
        memory_bandwidth_gb_s=732.0,
        double_units_per_mp=32.0,
    ),
    "V100": DeviceSpec(
        name="Volta V100",
        cuda_capability=7.0,
        multiprocessors=80,
        cores_per_mp=64,
        clock_ghz=1.91,
        host_cpu="Intel W2123",
        host_clock_ghz=3.60,
        memory_bandwidth_gb_s=900.0,
        double_units_per_mp=32.0,
        # 80 SMs * 32 FP64 units * 2 (FMA) * 1.53 GHz = 7.8 TFLOPS, the
        # double peak the paper quotes; the 1.91 GHz of Table 1 is the boost
        # clock, which double-heavy kernels do not sustain.
        sustained_clock_ghz=1.53,
    ),
    "RTX2080": DeviceSpec(
        name="GeForce RTX 2080",
        cuda_capability=7.5,
        multiprocessors=46,
        cores_per_mp=64,
        clock_ghz=1.10,
        host_cpu="Intel i9-9880H",
        host_clock_ghz=2.30,
        memory_bandwidth_gb_s=448.0,
        # Consumer Turing runs FP64 at 1/32 of the single rate (2 units/SM at
        # base clock); 5/SM reflects the boost clock plus integer-pipeline
        # help and reproduces the measured RTX2080/V100 ratio of Table 3.
        double_units_per_mp=5.0,
        warp_overhead_cycles=900.0,
    ),
}

#: Aliases accepted by :func:`get_device`.
_ALIASES = {
    "tesla c2050": "C2050",
    "c2050": "C2050",
    "kepler k20c": "K20C",
    "k20c": "K20C",
    "pascal p100": "P100",
    "p100": "P100",
    "volta v100": "V100",
    "v100": "V100",
    "geforce rtx 2080": "RTX2080",
    "rtx2080": "RTX2080",
    "rtx 2080": "RTX2080",
    "2080": "RTX2080",
}

#: Device used when none is specified (the paper's headline numbers are V100).
DEFAULT_DEVICE = "V100"


def get_device(spec) -> DeviceSpec:
    """Resolve a device from a :class:`DeviceSpec`, preset key or full name."""
    if spec is None:
        return TABLE1_DEVICES[DEFAULT_DEVICE]
    if isinstance(spec, DeviceSpec):
        return spec
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key in _ALIASES:
            return TABLE1_DEVICES[_ALIASES[key]]
        for device in TABLE1_DEVICES.values():
            if device.name.lower() == key:
                return device
        raise KeyError(f"unknown device {spec!r}; presets: {sorted(TABLE1_DEVICES)}")
    raise TypeError(f"cannot interpret {spec!r} as a device")
