"""Network configuration shared by routers, NICs and the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PseudoCircuitConfig:
    """Which pseudo-circuit features are enabled (paper Sections III-IV).

    ``enabled`` turns on the base scheme (reuse crossbar connections to skip
    SA); ``speculation`` and ``buffer_bypass`` are the two aggressive
    extensions and require ``enabled``.
    """

    enabled: bool = False
    speculation: bool = False
    buffer_bypass: bool = False

    def __post_init__(self):
        if (self.speculation or self.buffer_bypass) and not self.enabled:
            raise ValueError(
                "speculation/buffer_bypass require the base pseudo-circuit "
                "scheme to be enabled")

    @property
    def label(self) -> str:
        if not self.enabled:
            return "Baseline"
        name = "Pseudo"
        if self.speculation:
            name += "+S"
        if self.buffer_bypass:
            name += "+B"
        return name


#: The four scheme points evaluated throughout the paper, plus baseline.
BASELINE = PseudoCircuitConfig()
PSEUDO = PseudoCircuitConfig(enabled=True)
PSEUDO_S = PseudoCircuitConfig(enabled=True, speculation=True)
PSEUDO_B = PseudoCircuitConfig(enabled=True, buffer_bypass=True)
PSEUDO_SB = PseudoCircuitConfig(enabled=True, speculation=True,
                                buffer_bypass=True)
ALL_SCHEMES = (BASELINE, PSEUDO, PSEUDO_S, PSEUDO_B, PSEUDO_SB)
PC_SCHEMES = (PSEUDO, PSEUDO_S, PSEUDO_B, PSEUDO_SB)


@dataclass(frozen=True)
class NetworkConfig:
    """Structural and policy parameters of the simulated network.

    Defaults follow the paper's evaluation setup (Section V): 4 VCs per
    input port, 4-flit buffers per VC, 1-cycle links, credit return in 1
    cycle, 4-MSHR self-throttling NICs.
    """

    num_vcs: int = 4
    buffer_depth: int = 4
    credit_delay: int = 1
    pseudo: PseudoCircuitConfig = field(default_factory=PseudoCircuitConfig)
    # NIC parameters.
    mshrs: int = 0          # 0 = unlimited outstanding packets per terminal
    # Ejection side: depth of the NIC-side reassembly buffers, expressed as
    # credits granted to the router's ejection output port per VC.
    eject_buffer_depth: int = 8

    def __post_init__(self):
        if self.num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if self.credit_delay < 0:
            raise ValueError("credit_delay must be >= 0")
        if self.eject_buffer_depth < 1:
            raise ValueError("eject_buffer_depth must be >= 1")
        if self.mshrs < 0:
            raise ValueError("mshrs must be >= 0 (0: unlimited)")
