"""Express Virtual Channels baseline (paper Section VII.B, Fig. 14).

The topology and routing load on first use: a point's config check
(``check_evc_point``) loads neither, nor the scalar core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from ..network.config import NetworkConfig
    from ..network.simulator import Network

_names, __getattr__, __dir__ = lazy_exports(__name__, {
    ".routing": ("EvcRouting",),
    ".topology": ("EXPRESS_SPAN", "EvcMesh"),
})
__all__ = sorted([*_names, "EvcConfigError", "build_evc_network",
                  "check_evc_point"])


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


def build_evc_network(kx: int, ky: int, concentration: int = 1,
                      config: NetworkConfig | None = None,
                      vc_policy: str = "dynamic", seed: int = 1,
                      span: int | None = None) -> Network:
    """An EVC mesh network (always runs the baseline router pipeline);
    ``span`` defaults to ``EXPRESS_SPAN``."""
    from ..network.config import NetworkConfig
    from ..network.simulator import Network
    from .routing import EvcRouting
    from .topology import EXPRESS_SPAN, EvcMesh
    cfg = config if config is not None else NetworkConfig()
    check_evc_point(cfg.pseudo.enabled, "xy")
    topo = EvcMesh(kx, ky, concentration,
                   span=EXPRESS_SPAN if span is None else span)
    return Network(topo, cfg, routing=EvcRouting(topo), vc_policy=vc_policy,
                   seed=seed)
