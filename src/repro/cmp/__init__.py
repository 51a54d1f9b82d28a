"""CMP coherence-traffic substrate (substitution for the paper's Simics
traces; see DESIGN.md §3).

Each name loads its module on first use."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".address_stream": ("AddressStream",),
    ".cache": ("SetAssociativeCache",),
    ".config": ("CmpConfig",),
    ".endpoints": ("Core", "L2Bank"),
    ".messages": ("ALL_TYPES", "INV_ACK", "INVAL", "READ_REQ", "READ_RESP",
                  "WRITE_ACK", "WRITE_REQ", "message_flits"),
    ".mshr": ("MshrFile",),
    ".system": ("CmpSystem",),
})
