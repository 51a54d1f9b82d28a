"""Static structure-of-arrays layout for the vectorized network core.

Flattens the (router, port, vc) id spaces of a topology into dense
integer indices so the per-cycle pipeline in ``core.py`` can address all
state with array gathers:

* input port   ``ipid = router * Pi + port``        (``Pi`` = max inports)
* input VC     ``ivc  = ipid * V + vc``
* output port  ``opid = router * Po + port``        (``Po`` = max outports)
* output VC    ``ovc  = opid * V + vc``

Credit counters live in one unified array: indices ``[0, NOVC)`` are the
router-side output VCs (including ejection endpoints), followed by ``T*V``
NIC injection-side counters. ``ip_upbase[ipid]`` holds the credit-space
base index (vc 0) of the upstream endpoint a port's credit returns
replenish, which makes the credit-return scatter a single ``add.at``.

What dividing an id by its space's stride would say is a table too
(``ip_router``, ``ip_local``, ``op_router``, ``r_lane``, ``t_lane``),
so the compiled cycle looks it up instead of dividing.
Every array the ``Chip`` points into is allocated with the element type
``kernel.c``'s ``CHIP_ARRAYS`` gives it (``kernel.dtypes``) — most are
32-bit — and a chip whose id spaces would not fit is refused by name
(``kernel.fits``).

Only point-to-point channels are supported (one endpoint per channel):
``build_layout`` refuses a multidrop channel on its one walk over the
channels.

``build_layout(..., lanes=S)`` replicates the solo layout ``S`` times
into one flat "mega-chip": lane ``s`` occupies its own contiguous block
of every id space (routers, terminals, ports, VCs, links, credits), so
the occupancy-driven pipeline in ``core.py`` steps all lanes in a
single pass of array ops with no per-lane masking — lanes never share
an index, so no array op couples them. This is what the batched
backend (``vectorized/batch.py``) runs S independent simulations on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...topology.base import Topology
from ..backend import BackendUnsupportedError, require_numpy
from ..config import NetworkConfig
from .kernel import dtypes, fits


@dataclass
class Layout:
    """Wiring and routing arrays shared by every cycle of a simulation."""

    R: int          # routers
    T: int          # terminals
    V: int          # VCs per port
    D: int          # input buffer depth (ring capacity)
    C: int          # route choices
    Pi: int         # max input ports per router
    Po: int         # max output ports per router
    NIP: int        # R * Pi
    NIVC: int       # NIP * V
    NOP: int        # R * Po
    NOVC: int       # NOP * V
    NCRED: int      # NOVC + T * V
    nip: object     # [R] actual input-port count (VA rotation modulus)
    op_valid: object    # [NOP] bool: port drives a channel or the NIC
    op_latency: object  # [NOP] channel latency
    op_link: object     # [NOP] global link id (-1: ejection/invalid)
    op_dest: object     # [NOP] downstream ipid (-1: ejection/invalid)
    op_eject: object    # [NOP] bool
    op_term: object     # [NOP] terminal behind an ejection port (-1)
    ip_upbase: object   # [NIP] credit base of the upstream endpoint (-1)
    inj_ipid: object    # [T] router input port fed by the NIC
    inj_link: object    # [T] link id of the injection channel
    ej_opid: object     # [T] router ejection output port
    route_out: object   # [R, C, T_local] out_port gather table
    vc_window: object   # [C, Po + 1, 2] VC window (lo, hi) per route
                        # choice and output port; column Po: injection
    cred_init: object   # [NCRED] initial credit counts
    lanes: int = 1      # replicated independent simulations
    # The divisions of the id spaces, as tables (``__post_init__``):
    ip_router: object = field(init=False)   # [NIP] ipid // Pi
    ip_local: object = field(init=False)    # [NIP] ipid % Pi
    op_router: object = field(init=False)   # [NOP] opid // Po
    r_lane: object = field(init=False)      # [R] lane of each router
    t_lane: object = field(init=False)      # [T] lane of each terminal

    def __post_init__(self):
        np = require_numpy()
        table = dtypes()
        ip, op = np.arange(self.NIP), np.arange(self.NOP)
        for name, values in (
                ("ip_router", ip // self.Pi), ("ip_local", ip % self.Pi),
                ("op_router", op // self.Po),
                ("r_lane", np.arange(self.R) // (self.R // self.lanes)),
                ("t_lane", np.arange(self.T) // (self.T // self.lanes))):
            setattr(self, name, values.astype(table[name]))


def build_layout(topology: Topology, config: NetworkConfig,
                 compiled, lanes: int = 1) -> Layout:
    """Flatten ``topology`` wiring + ``compiled`` routing into arrays.

    With ``lanes > 1`` the solo layout is tiled into that many disjoint
    index-shifted copies (see module docstring); every dimension field
    except V/D/C/Pi/Po is the solo value times ``lanes``. ``route_out``
    stays indexed by *local* destination terminal — packets keep their
    lane-local src/dst so routing is bit-identical to a solo run.
    """
    np = require_numpy()
    R = topology.num_routers
    T = topology.num_terminals
    V = config.num_vcs
    D = config.buffer_depth
    Pi = max(topology.num_inports(r) for r in range(R))
    Po = max(topology.num_outports(r) for r in range(R))
    NIP = R * Pi
    NIVC = NIP * V
    NOP = R * Po
    NOVC = NOP * V
    NCRED = NOVC + T * V
    # The largest ids of the replicated chip, against the arrays that
    # keep them (every other id is smaller than one of these).
    for name, largest, what in (
            ("vc_out_cred", lanes * NCRED, "credit indices"),
            ("smap", lanes * NIVC, "input VC ids"),
            ("p_pair", T * T, "source-destination pairs")):
        fits(name, largest, what)

    table = dtypes()
    nip = np.array([topology.num_inports(r) for r in range(R)],
                   dtype=table["nip"])
    op_valid = np.zeros(NOP, dtype=table["op_valid"])
    op_latency = np.zeros(NOP, dtype=table["op_latency"])
    op_link = np.full(NOP, -1, dtype=np.int64)
    op_dest = np.full(NOP, -1, dtype=table["op_dest"])
    op_eject = np.zeros(NOP, dtype=table["op_eject"])
    op_term = np.full(NOP, -1, dtype=table["op_term"])
    op_depth = np.zeros(NOP, dtype=np.int64)
    ip_upbase = np.full(NIP, -1, dtype=table["ip_upbase"])
    inj_ipid = np.zeros(T, dtype=table["inj_ipid"])
    inj_link = np.zeros(T, dtype=np.int64)
    ej_opid = np.zeros(T, dtype=table["ej_opid"])

    channels = topology.channels()
    for link_id, channel in enumerate(channels):
        if len(channel.endpoints) != 1:
            raise BackendUnsupportedError(
                f"the vectorized backend supports only point-to-point "
                f"channels (one endpoint); topology {topology.name!r} "
                f"has multidrop channels — use --backend scalar")
        ep = channel.endpoints[0]
        opid = channel.src_router * Po + channel.src_port
        op_valid[opid] = True
        op_latency[opid] = ep.latency
        op_link[opid] = link_id
        dest = ep.router * Pi + ep.in_port
        op_dest[opid] = dest
        if ip_upbase[dest] != -1:
            raise ValueError(
                f"input port {ep.in_port} of router {ep.router} "
                f"wired twice")
        ip_upbase[dest] = opid * V
        op_depth[opid] = config.buffer_depth

    # NIC wiring mirrors Network._build_nics: ejection output port per
    # terminal, then an injection link appended after all channel links.
    for terminal in range(T):
        router = topology.terminal_router(terminal)
        eject_port = topology.ejection_port(terminal)
        inject_port = topology.injection_port(terminal)
        opid = router * Po + eject_port
        op_valid[opid] = True
        op_latency[opid] = 1
        op_eject[opid] = True
        op_term[opid] = terminal
        op_depth[opid] = config.eject_buffer_depth
        ej_opid[terminal] = opid
        ipid = router * Pi + inject_port
        if ip_upbase[ipid] != -1:
            raise ValueError(
                f"injection port {inject_port} of router {router} "
                f"wired twice")
        ip_upbase[ipid] = NOVC + terminal * V
        inj_ipid[terminal] = ipid
        inj_link[terminal] = len(channels) + terminal

    route_out, route_drop, vc_window = compiled.as_arrays()
    if route_drop.size and route_drop.any():
        raise BackendUnsupportedError(
            f"the vectorized backend supports only point-to-point "
            f"channels (drop index 0); topology {topology.name!r} routes "
            f"over multidrop endpoints — use --backend scalar")

    cred_init = np.zeros(NCRED, dtype=table["cred"])
    cred_init[:NOVC] = np.repeat(op_depth, V)
    cred_init[NOVC:] = config.buffer_depth

    lay = Layout(
        R=R, T=T, V=V, D=D, C=compiled.num_route_choices, Pi=Pi, Po=Po,
        NIP=NIP, NIVC=NIVC, NOP=NOP, NOVC=NOVC, NCRED=NCRED, nip=nip,
        op_valid=op_valid, op_latency=op_latency, op_link=op_link,
        op_dest=op_dest, op_eject=op_eject, op_term=op_term,
        ip_upbase=ip_upbase, inj_ipid=inj_ipid, inj_link=inj_link,
        ej_opid=ej_opid, route_out=route_out, vc_window=vc_window,
        cred_init=cred_init)
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    return _replicate(lay, lanes) if lanes > 1 else lay


def _replicate(lay: Layout, lanes: int) -> Layout:
    """Tile a solo layout into ``lanes`` disjoint index-shifted copies.

    Every id-space reference shifts by the lane's offset in that space:
    lane ``s`` owns routers ``[s*R, (s+1)*R)``, terminals
    ``[s*T, (s+1)*T)``, links ``[s*nlinks, (s+1)*nlinks)`` (keeping the
    per-lane ascending-link arrival sort order), router-side credits
    ``[s*NOVC, (s+1)*NOVC)`` and NIC-side credits
    ``[S*NOVC + s*T*V, ...)`` — the unified credit space keeps all
    router rows first, mirroring the solo arrangement.
    """
    np = require_numpy()
    S = lanes
    T, V = lay.T, lay.V
    NIP, NOP, NOVC = lay.NIP, lay.NOP, lay.NOVC
    nlinks = int(lay.inj_link.max()) + 1 if T else 0
    lane = np.arange(S, dtype=np.int64)

    def shift(arr, stride):
        tiled = np.tile(arr, S)
        offs = np.repeat(lane * stride, len(arr))
        return np.where(tiled >= 0, tiled + offs, tiled).astype(arr.dtype)

    up = np.tile(lay.ip_upbase, S)
    offs = np.repeat(lane, NIP)
    ip_upbase = np.where(
        up < 0, up,
        np.where(up < NOVC, up + offs * NOVC,
                 S * NOVC + offs * (T * V) + (up - NOVC))).astype(up.dtype)
    cred_init = np.concatenate([np.tile(lay.cred_init[:NOVC], S),
                                np.tile(lay.cred_init[NOVC:], S)])
    return Layout(
        R=lay.R * S, T=T * S, V=V, D=lay.D, C=lay.C, Pi=lay.Pi,
        Po=lay.Po, NIP=NIP * S, NIVC=lay.NIVC * S, NOP=NOP * S,
        NOVC=NOVC * S, NCRED=lay.NCRED * S,
        nip=np.tile(lay.nip, S),
        op_valid=np.tile(lay.op_valid, S),
        op_latency=np.tile(lay.op_latency, S),
        op_link=shift(lay.op_link, nlinks),
        op_dest=shift(lay.op_dest, NIP),
        op_eject=np.tile(lay.op_eject, S),
        op_term=shift(lay.op_term, T),
        ip_upbase=ip_upbase,
        inj_ipid=shift(lay.inj_ipid, NIP),
        inj_link=shift(lay.inj_link, nlinks),
        ej_opid=shift(lay.ej_opid, NOP),
        route_out=np.tile(lay.route_out, (S, 1, 1)),
        vc_window=lay.vc_window, cred_init=cred_init, lanes=S)
