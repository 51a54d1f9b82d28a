"""Express Virtual Channels baseline (paper Section VII.B, Fig. 14).

An EVC network is built only through the chip plan, from an
``ExperimentConfig(topology="evc_mesh", ...)``, whose construction applies
the one rule (``check_evc_point``). The topology and routing load on first
use: the config check loads neither, nor the scalar core.
"""

from __future__ import annotations

from .._lazy import lazy_exports

_names, __getattr__, __dir__ = lazy_exports(__name__, {
    ".routing": ("EvcRouting",),
    ".topology": ("EXPRESS_SPAN", "EvcMesh"),
})
__all__ = sorted([*_names, "EvcConfigError", "check_evc_point"])


class EvcConfigError(ValueError):
    """An EVC point asked for a scheme or routing EVC does not have."""


def check_evc_point(pseudo: bool, routing: str) -> None:
    """The one rule of an EVC point: the baseline router pipeline
    (``pseudo`` off) and routing ``xy``, which on ``evc_mesh`` is EVC's
    XY over normal and express channels. Anything else raises
    ``EvcConfigError``."""
    if pseudo or routing != "xy":
        asked = ("a pseudo-circuit scheme" if pseudo
                 else f"routing {routing!r}")
        raise EvcConfigError(
            f"evc_mesh is Fig. 14's EVC comparison point, the baseline "
            f"router with EVC's XY routing over normal and express "
            f"channels: use --scheme baseline --routing xy, not {asked} "
            f"(pseudo-circuits run on a plain mesh)")

