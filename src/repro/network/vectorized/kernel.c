/* The array core's cycle, compiled.
 *
 * One translation unit, built on first use by ``kernel.py`` with the
 * system C compiler and called through ``ctypes``. ``cycle()`` is the
 * only entry point a network steps through, and this file is the only
 * statement of what an array core does in a cycle: the bound sources'
 * injections, credit returns, ejection reassembly, arrival staging, the
 * router pipeline (VA | PC candidates | SA requests | circuit reuse | BW
 * | switch allocation | PC maintenance) and the NICs' start + send, in
 * that order. Each stage is a static function named after the phase
 * timer it is billed to (the source to none) and written as the plain
 * loops of the scalar reference (``network/router.py``,
 * ``network/nic.py``, ``traffic/synthetic.py``) over the
 * structure-of-arrays state: routers ascending, input ports in the
 * scalar visit order, VCs ascending, one flit at a time. The parity
 * suites hold it bit-identical to the scalar core, cycle by cycle.
 *
 * Contract ("arrays in, arrays out"): ``cycle()`` takes the ``Chip`` --
 * pointers to flat int64 / one-byte bool arrays plus a few sizes and
 * scheme flags, filled once per network by ``kernel.py`` -- and the
 * cycle number. It touches no Python object, allocates nothing and
 * keeps no state of its own between calls; everything that outlives a
 * call lives in arrays of the ``Chip``:
 *
 * - the three calendars (arrivals, ejections, credit returns) are rings
 *   of ``RD`` slots, slot ``cycle % RD``, each slot a packed list with
 *   its length in ``ring_n``. ``RD`` is the longest link latency plus
 *   the credit delay plus one (``core.py``), which no event outruns: a
 *   flit granted now crosses next cycle and lands ``latency`` later. A
 *   slot is emptied before anything is filed in the same call, so an
 *   event exactly ``RD`` ahead reuses it; one further ahead, or more
 *   events in a slot than it has links, is ``E_RING``.
 * - ``counts`` holds one row of ``NetworkStats`` counters per lane; an
 *   event is billed to the lane of the router or terminal it happens at.
 * - the source queues are lists threaded through ``p_next``
 *   (``q_head`` / ``q_tail``), the free packet slots a stack
 *   (``p_free``), the free flit blocks one stack per packet size
 *   threaded through ``f_link`` (``fb_head``). ``inject()`` in
 *   ``core.py`` pushes and pops the same structures and grows the pools
 *   before a call that could need it; a packet that still finds its
 *   pool full is ``E_POOL``, never a write past it.
 * - a lane's synthetic source, while ``core.py`` has bound one: its row
 *   of ``src`` (CHIP_SOURCE), its ``random.Random`` state in ``src_mt``,
 *   its destinations in ``src_dest``, the last row drawn in ``src_row``.
 * - ``state`` carries the whole-chip scalars both sides read.
 * - summaries of the pipeline's state, so that a phase visits what is
 *   occupied, not what exists: 64-bit masks (a bit per VC of a port,
 *   per port or output of a router, per router) and one sum, each
 *   written where the state under it changes and read by iterating its
 *   set bits, ascending. ``obs.summaries`` states every one from that
 *   state again; the checker's ``summary_*`` rules compare the two.
 *
 *   summary     what it says                       written by   read by
 *   ip_occ      port: VCs with buf_len > 0         summarise    VA, SA, PC
 *   ip_act      port: VCs in VC_ACTIVE             summarise    VA, SA
 *   r_occ       router: ports with ip_occ != 0     summarise    SA requests
 *   r_wait      ..with ip_occ & ~ip_act != 0       summarise    VA
 *   r_map       chip: routers with r_occ != 0      summarise    router lists
 *   r_pcv       router: ports, circuit valid       circuits*    PC candidates
 *   r_pcinv     ..invalid, still naming an output  circuits*    maintenance
 *   r_held      router: outputs with a holder      circuits*    maintenance
 *   op_credsum  output: sum of its VCs' credits    credits**    any_credit
 *
 *   * ``terminate``, ``establish`` and the restoration in
 *   ``pc_maintenance``, the three places ``pc_valid`` / ``op_holder``
 *   change; ** ``traverse`` and ``st_credit_returns``.
 *
 * What a call hands back: the return value is the number of packets
 * whose tail was reassembled, their slots and final fields in
 * ``ej_out`` (the slots are already free: ``core.py`` copies the fields
 * into the ``Packet`` objects before it injects again), or a negative
 * ``E_*`` code raised there as the error the scalar core raises at the
 * same place. Only while ``events_on`` (an observer is attached) the
 * index arrays of the six observer hooks are filled, lengths in
 * ``n[]``; while ``profile_on`` the stages' wall time accumulates in
 * ``prof_ns``.
 *
 * With -DREPRO_KERNEL_CHECK (the test suite's build) every array access
 * goes through ``A()``'s bounds check: an index outside its array is
 * recorded (``err_id``, ``err_idx``), the access is redirected to
 * element 0 and ``cycle()`` returns ``E_BOUNDS``; and every function
 * notes that it was entered (``repro_kernel_reach``). The release build
 * compiles ``A()`` to the bare access and ``ENTER()`` to nothing. The
 * checked build also counts, in the last entry of ``n[]``, the front
 * flits the VA, SA-request and PC-candidate scans examine.
 * -DREPRO_SEED_STALE_SUMMARY (tests only) leaves out the ``summarise``
 * of a flit buffered into an empty VC: the seeded bug the checker and
 * the drain must catch.
 */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <string.h>
#include <time.h>

typedef int64_t i64;
typedef uint8_t u8; /* numpy bool: one byte, 0 or 1 */

/* Bumped with any change to the Chip layout, the lists below or the
 * entry point's meaning; kernel.py refuses a library that answers
 * another number. */
#define REPRO_KERNEL_ABI 5001

/* Every array of the Chip: X(element type, name, owner). kernel.py
 * reads this list (it is the only statement of the struct layout) and
 * fills a pointer and a length per entry. Owner NET is an array of the
 * network or its layout, looked up by name; any other owner is the size
 * class of a zeroed buffer kernel.py allocates for this network. */
#define CHIP_ARRAYS(X) \
    /* input VC state, buffers, pseudo-circuit registers, arbiters */ \
    X(i64, vc_state, NET) \
    X(i64, vc_out_port, NET) \
    X(i64, vc_out_opid, NET) \
    X(i64, vc_out_vc, NET) \
    X(i64, vc_out_cred, NET) \
    X(i64, buf_fid, NET) \
    X(i64, buf_head, NET) \
    X(i64, buf_len, NET) \
    X(i64, pc_in_vc, NET) \
    X(i64, pc_out_port, NET) \
    X(u8, pc_valid, NET) \
    X(i64, ip_st, NET) \
    X(i64, ip_last_out, NET) \
    X(i64, ip_last_pair, NET) \
    X(i64, op_st, NET) \
    X(i64, op_holder, NET) \
    X(i64, op_hist, NET) \
    X(i64, in_arb_next, NET) \
    X(i64, out_arb_next, NET) \
    X(i64, cred, NET) \
    X(u8, cred_free, NET) \
    X(i64, r_buffered, NET) \
    /* summaries (the table above) */ \
    X(i64, ip_occ, NET) X(i64, ip_act, NET) X(i64, r_occ, NET) \
    X(i64, r_wait, NET) X(i64, r_map, NET) X(i64, r_pcv, NET) \
    X(i64, r_pcinv, NET) X(i64, r_held, NET) X(i64, op_credsum, NET) \
    /* packet pool, its free stack; flit pool, its free blocks by size \
     * (re-aimed when a pool grows) */ \
    X(i64, p_src, NET) \
    X(i64, p_dst, NET) \
    X(i64, p_size, NET) \
    X(i64, p_choice, NET) \
    X(i64, p_create, NET) \
    X(i64, p_pair, NET) \
    X(i64, p_inject, NET) \
    X(i64, p_hops, NET) \
    X(i64, p_sa, NET) \
    X(i64, p_buf, NET) \
    X(i64, p_rx, NET) \
    X(i64, p_next, NET) \
    X(i64, p_free, NET) \
    X(i64, f_pkt, NET) \
    X(u8, f_head, NET) \
    X(u8, f_tail, NET) \
    X(i64, f_vc, NET) \
    X(i64, f_ready, NET) \
    X(i64, f_link, NET) \
    X(i64, fb_head, NET) \
    /* NICs: source queues, one transmission per injection VC */ \
    X(i64, q_head, NET) \
    X(i64, q_tail, NET) \
    X(i64, q_len, NET) \
    X(i64, snd_pid, NET) \
    X(i64, snd_next, NET) \
    X(i64, snd_left, NET) \
    X(i64, snd_cnt, NET) \
    X(i64, send_rr, NET) \
    X(i64, outstanding, NET) \
    /* synthetic sources: one row of each per lane */ \
    X(i64, src, NET) \
    X(i64, src_mt, NET) \
    X(i64, src_dest, NET) \
    X(i64, src_row, NET) \
    /* layout: wiring and routing tables */ \
    X(i64, nip, NET) \
    X(u8, op_valid, NET) \
    X(i64, op_latency, NET) \
    X(i64, op_dest, NET) \
    X(u8, op_eject, NET) \
    X(i64, op_term, NET) \
    X(i64, ip_upbase, NET) \
    X(i64, inj_ipid, NET) \
    X(i64, ej_opid, NET) \
    X(i64, route_out, NET) \
    X(i64, route_lo, NET) \
    X(i64, route_hi, NET) \
    /* calendars: RD slots each, lengths in ring_n[RING_*][slot] */ \
    X(i64, arr_port, NET) \
    X(i64, arr_fid, NET) \
    X(i64, ej_term, NET) \
    X(i64, ej_fid, NET) \
    X(i64, cr_ci, NET) \
    X(i64, ring_n, NET) \
    /* per-lane counters and warm-up, whole-chip scalars, stage timers */ \
    X(i64, counts, NET) \
    X(i64, lane_warmup, NET) \
    X(i64, state, NET) \
    X(i64, prof_ns, NET) \
    /* arrivals staged for this cycle */ \
    X(i64, in_dest, NIP) \
    X(i64, in_fid, NIP) \
    /* SA scratch, all zero between cycles: request VC mask per input \
     * port, input mask per output, stage-1 winner */ \
    X(i64, port_mask, NIP) \
    X(i64, omask, NOP) \
    X(i64, smap, NIP) \
    /* scratch handed from stage to stage within one cycle: the routers \
     * with a buffered flit, those and the ones an arrival is staged for \
     * (as a bitmap like r_map, then as a list), ascending */ \
    X(i64, active, R) \
    X(i64, work_map, RW) \
    X(i64, work, R) \
    X(i64, cand_ip, NIP) \
    X(i64, cand_ivc, NIP) \
    X(i64, order, NIP) \
    X(u8, claimed_ip, NIP) \
    X(u8, claimed_op, NOP) \
    X(i64, out_order, NOP) \
    /* what a call hands back: ejected packets, then (events_on) the \
     * observer hooks' index arrays, lengths in n[] */ \
    X(i64, ej_out, TOUT) \
    X(i64, n, COUNTS) \
    X(i64, ev_bw, NIP) \
    X(i64, ev_trav, NIP3) \
    X(i64, ev_inj, T) \
    X(i64, ev_ej, T)

/* Sizes, scheme flags, switches and the checked build's fault record.
 * LR and TL are the routers and terminals of one lane; CD the credit
 * delay; RD the ring depth. */
#define CHIP_SCALARS(X) \
    X(R) X(Pi) X(Po) X(V) X(D) X(C) X(TL) X(LR) X(T) X(NIP) X(NOVC) \
    X(RD) X(CD) X(mshrs) X(inject_queue) \
    X(static_vc) X(pc_enabled) X(pc_speculation) X(pc_bypass) \
    X(events_on) X(profile_on) \
    X(err_id) X(err_idx)

/* One row of ``counts``: the integer slots of ``NetworkStats`` by
 * name, then one counter per reason of CHIP_TERMINATIONS. */
#define CHIP_STATS(X) \
    X(injected_packets) X(ejected_packets) \
    X(injected_flits) X(ejected_flits) \
    X(measured_packets) X(total_latency) X(total_network_latency) \
    X(total_hops) X(flit_hops) X(buffer_writes) X(buffer_reads) \
    X(sa_arbitrations) X(va_allocations) \
    X(sa_bypass_flits) X(buf_bypass_flits) \
    X(pc_established) X(pc_restored) \
    X(e2e_packets) X(e2e_repeats) X(xbar_flits) X(xbar_repeats)

/* Why a pseudo-circuit was torn down: the members of
 * ``repro.core.pseudo_circuit.Termination`` the pipeline raises. */
#define CHIP_TERMINATIONS(X) \
    X(CONFLICT_OUTPUT) X(CONFLICT_INPUT) X(ROUTE_MISMATCH) X(NO_CREDIT)

/* ``state``: flits buffered on the chip, packets in source queues,
 * transmissions in progress, packets started and not yet ejected, free
 * packet slots (height of ``p_free``), the packet and flit pools'
 * high-water marks, the next cycle a ring holds anything for and (the
 * chip not busy) the next a bound source injects in (-1: none). */
#define CHIP_STATE(X) \
    X(buffered) X(queued) X(sending) X(started) X(p_free) X(packets) \
    X(flits) X(next_event) X(next_injection)

/* One row of ``src``, a lane's ``SyntheticTraffic``: the Bernoulli
 * threshold (``random() < rate / size`` on the 53 bits ``random()`` is
 * made of), packet size, the cycle its window closes (0: none bound),
 * the last cycle drawn, how destinations are found (DRAW_*), the packets
 * of that cycle's row still to be offered, those handed over so far. */
#define CHIP_SOURCE(X) \
    X(threshold) X(size) X(end) X(drawn_until) X(draw) X(pending) \
    X(generated)

/* ``prof_ns``: the phase timers of ``VectorNetwork.profile``. */
#define CHIP_PHASES(X) X(bw) X(va_sa) X(st_credit) X(pc) X(inject)

/* The head of ``n[]``: how many entries each observer event list holds
 * after a call -- buffer writes (``ev_bw``), traversals by ``via`` (the
 * thirds of ``ev_trav``), packet starts (``ev_inj``), ejections
 * (``ev_ej``). */
#define CHIP_EVENTS(X) X(bw) X(sa) X(pc) X(buf) X(inj) X(ej)

/* One row of ``ej_out`` per packet ejected this cycle. ``latency`` is
 * -1 for a packet ejected before its lane's warm-up ended. */
#define CHIP_EJECTED(X) \
    X(slot) X(inject_cycle) X(hops) X(sa_bypass_hops) X(buf_bypass_hops) \
    X(latency) X(lane)

typedef struct Chip {
#define X(T, name, owner) T *name; i64 n_##name;
    CHIP_ARRAYS(X)
#undef X
#define X(name) i64 name;
    CHIP_SCALARS(X)
#undef X
} Chip;

enum {
#define X(name) ST_##name,
    CHIP_STATS(X)
#undef X
    ST_TERM
};
enum {
#define X(name) T_##name,
    CHIP_TERMINATIONS(X)
#undef X
    NSTAT_TERM, NSTAT = ST_TERM + NSTAT_TERM
};
enum {
#define X(name) S_##name,
    CHIP_STATE(X)
#undef X
    S_COUNT
};
enum {
#define X(name) SRC_##name,
    CHIP_SOURCE(X)
#undef X
    SRC_WIDTH
};
/* Read from ``src_dest`` (patterns that use no random number) or drawn. */
enum { DRAW_table, DRAW_uniform, DRAW_hotspot };
enum {
#define X(name) PH_##name,
    CHIP_PHASES(X)
#undef X
    PH_COUNT
};
enum {
#define X(name) EJ_##name,
    CHIP_EJECTED(X)
#undef X
    EJ_WIDTH
};
/* How a flit reached the crossbar: the ``via`` of ``on_traverse``. */
enum { VIA_SA, VIA_PC, VIA_BUF };
/* n[], CHIP_COUNTS entries: observer event counts (cleared on entry),
 * then the lengths of the scratch lists one stage leaves for a later
 * one; in the last, the checked build's count of front flits examined. */
#define CHIP_COUNTS 16
enum {
#define X(name) N_##name,
    CHIP_EVENTS(X)
#undef X
    N_EVENTS, N_CAND = N_EVENTS, N_ORDER, N_ACTIVE, N_WORK, N_LISTS,
    N_VISITS = CHIP_COUNTS - 1
};
_Static_assert(N_LISTS <= N_VISITS, "n[] has no room for its last list");
enum { RING_ARR, RING_EJ, RING_CR };
/* vc.VCState */
enum { VC_IDLE, VC_VA, VC_ACTIVE };

enum {
    E_BODY_AT_IDLE_FRONT = -1,  /* body flit at the front of an idle VC */
    E_BODY_ON_INACTIVE = -2,    /* body flit on inactive VC */
    E_HEAD_ON_ALLOCATED = -3,   /* head flit arrived on a still-allocated VC */
    E_BODY_ARRIVED_INACTIVE = -4, /* body flit arrived on an inactive VC */
    E_BUFFER_OVERFLOW = -5,     /* flit buffer overflow */
    E_TAIL_EARLY = -6,          /* tail arrived before all flits of its packet */
    E_POOL = -7,                /* a packet found its pool full */
    E_RING = -8,                /* an event beyond a calendar's depth or room */
    E_BOUNDS = -9,              /* checked build: see err_id / err_idx */
    E_QUEUE = -10               /* source queue overflow at NIC err_idx */
};

#ifdef REPRO_KERNEL_CHECK
enum {
#define X(T, name, owner) ID_##name,
    CHIP_ARRAYS(X)
#undef X
    ID_COUNT
};
static i64 ck(Chip *ch, i64 id, i64 i, i64 len)
{
    if (i >= 0 && i < len)
        return i;
    if (!ch->err_id) { /* the first fault is the one reported */
        ch->err_id = id + 1;
        ch->err_idx = i;
    }
    return 0;
}
#define A(name, i) (ch->name[ck(ch, ID_##name, (i), ch->n_##name)])
#define RETURN(value) return ch->err_id ? E_BOUNDS : (value)
#define VISIT() (A(n, N_VISITS)++)

/* Which functions of this file the process has entered, and how often:
 * one slot per ENTER() site. */
#define REACH_SITES 64
static i64 reach_hits[REACH_SITES];
static const char *reach_names[REACH_SITES];
#define ENTER() \
    do { \
        enum { site_ = __COUNTER__ }; \
        reach_names[site_] = __func__; \
        reach_hits[site_]++; \
    } while (0)
/* Times ENTER() site ``site`` ran and the function it sits in (null if
 * never); -1 past the last site. */
i64 repro_kernel_reach(i64 site, const char **function)
{
    if (site < 0 || site >= REACH_SITES)
        return -1;
    *function = reach_names[site];
    return reach_hits[site];
}
void repro_kernel_reach_reset(void)
{
    memset(reach_hits, 0, sizeof reach_hits);
    memset(reach_names, 0, sizeof reach_names);
}
#else
#define A(name, i) (ch->name[(i)])
#define RETURN(value) return (value)
#define VISIT() ((void)0)
#define ENTER() ((void)0)
#endif

i64 repro_kernel_abi(void)
{
    ENTER();
    return REPRO_KERNEL_ABI;
}

i64 repro_kernel_sizeof_chip(void)
{
    ENTER();
    return (i64)sizeof(Chip);
}

/* -- shared pieces ------------------------------------------------------ */

#define COUNT(row, stat) ((row)[ST_##stat])
#define TRY(call) \
    do { \
        i64 rc_ = (call); \
        if (rc_ < 0) \
            return rc_; \
    } while (0)

/* Every set bit of the uint64_t variable ``mask`` (used up on the way),
 * ascending, as ``i``; one bit switched to ``on``. */
#define EACH_BIT(i, mask) \
    for (i64 i; (mask) \
         && (i = __builtin_ctzll(mask), (mask) &= (mask) - 1, 1);)
#define BIT(i) ((i64)((uint64_t)1 << (i)))
#define PUT(word, bit, on) ((word) = (on) ? (word) | (bit) : (word) & ~(bit))

/* The counters of the lane that owns ``router`` / ``terminal``. */
static i64 *router_counts(Chip *ch, i64 router)
{
    ENTER();
    return &A(counts, router / ch->LR * NSTAT);
}

static i64 *terminal_counts(Chip *ch, i64 terminal)
{
    ENTER();
    return &A(counts, terminal / ch->TL * NSTAT);
}

static i64 now_ns(void)
{
    ENTER();
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (i64)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* Room for one more event of ``ring`` at cycle ``when``: the index to
 * write it at in the ring's arrays (``room`` entries per slot). */
static i64 ring_put(Chip *ch, int ring, i64 c, i64 when, i64 room)
{
    ENTER();
    if (when - c > ch->RD)
        return E_RING;
    i64 slot = when % ch->RD, k = A(ring_n, ring * ch->RD + slot);
    if (k >= room)
        return E_RING;
    A(ring_n, ring * ch->RD + slot) = k + 1;
    return slot * room + k;
}

static i64 credit_return(Chip *ch, i64 c, i64 ci)
{
    ENTER();
    i64 at = ring_put(ch, RING_CR, c, c + ch->CD, ch->NIP + ch->T);
    if (at < 0)
        return at;
    A(cr_ci, at) = ci;
    return 0;
}

/* ``mask`` (``size`` bits) turned so that bit ``next`` is bit 0: what is
 * at or after ``next`` comes first, then what is before it. */
static uint64_t rotated(i64 mask, i64 next, i64 size)
{
    ENTER();
    uint64_t m = (uint64_t)mask;
    return next ? ((m >> next) | (m << (size - next)))
        & (((uint64_t)1 << size) - 1) : m;
}

/* RoundRobinArbiter.grant_mask: lowest set bit at or after ``next``. */
static i64 rr_pick(i64 mask, i64 next, i64 size)
{
    ENTER();
    i64 cand = (i64)__builtin_ctzll(rotated(mask, next, size)) + next;
    return cand >= size ? cand - size : cand;
}

/* The one writer of the occupancy summaries: ``buf_len`` of input VC
 * ``ivc`` of ``port`` crossed zero, or its ``vc_state`` VC_ACTIVE. */
static void summarise(Chip *ch, i64 port, i64 ivc)
{
    ENTER();
    i64 r = port / ch->Pi, pbit = BIT(port - r * ch->Pi);
    i64 vbit = BIT(ivc - port * ch->V);
    i64 occ = PUT(A(ip_occ, port), vbit, A(buf_len, ivc) > 0);
    i64 act = PUT(A(ip_act, port), vbit, A(vc_state, ivc) == VC_ACTIVE);
    PUT(A(r_wait, r), pbit, occ & ~act);
    i64 ports = PUT(A(r_occ, r), pbit, occ);
    PUT(A(r_map, r >> 6), BIT(r & 63), ports);
}

/* VCAllocationPolicy.allocate over the output VCs at credit index
 * ``base``: the chosen VC or -1. Dynamic takes the free VC with the
 * most credits (lowest index on ties); static takes the destination's
 * designated VC, and the first free one on an ejection port. */
static i64 policy_pick(Chip *ch, i64 base, i64 pk, int eject)
{
    ENTER();
    i64 choice = A(p_choice, pk);
    i64 lo = A(route_lo, choice), hi = A(route_hi, choice);
    if (!ch->static_vc) {
        i64 best = -1, most = -1;
        for (i64 v = lo; v < hi; v++)
            if (A(cred_free, base + v) && A(cred, base + v) > most) {
                most = A(cred, base + v);
                best = v;
            }
        return best;
    }
    if (eject) {
        for (i64 v = lo; v < hi; v++)
            if (A(cred_free, base + v))
                return v;
        return -1;
    }
    i64 v = lo + A(p_dst, pk) % (hi - lo);
    return A(cred_free, base + v) ? v : -1;
}

static void grant_out_vc(Chip *ch, i64 port, i64 ivc, i64 ci, i64 vc)
{
    ENTER();
    A(cred_free, ci) = 0;
    A(vc_state, ivc) = VC_ACTIVE;
    A(vc_out_vc, ivc) = vc;
    A(vc_out_cred, ivc) = ci;
    summarise(ch, port, ivc);
    COUNT(router_counts(ch, port / ch->Pi), va_allocations) += 1;
}

static int any_credit(Chip *ch, i64 opid)
{
    ENTER();
    return A(op_credsum, opid) > 0;
}

/* Router._terminate_pc on a valid circuit. */
static void terminate(Chip *ch, i64 pp, int reason)
{
    ENTER();
    i64 r = pp / ch->Pi, local = pp - r * ch->Pi;
    i64 out = A(pc_out_port, pp), opid = r * ch->Po + out;
    A(pc_valid, pp) = 0;
    A(r_pcv, r) &= ~BIT(local);
    A(r_pcinv, r) |= BIT(local);
    if (A(op_holder, opid) == local) {
        A(op_holder, opid) = -1;
        A(r_held, r) &= ~BIT(out);
    }
    A(op_hist, opid) = local;
    router_counts(ch, r)[ST_TERM + reason] += 1;
}

/* Router._traverse: move one flit through the crossbar. ``fid`` < 0
 * pops the front of ``ivc``; otherwise the flit is an arriving buffer
 * bypass that never held the slot. */
static i64 traverse(Chip *ch, i64 c, i64 ivc, i64 port, int via,
                    i64 delayed, i64 fid)
{
    ENTER();
    i64 *count = router_counts(ch, port / ch->Pi), emptied = 0;
    if (fid < 0) {
        i64 head = A(buf_head, ivc);
        fid = A(buf_fid, ivc * ch->D + head);
        A(buf_head, ivc) = head + 1 == ch->D ? 0 : head + 1;
        emptied = (A(buf_len, ivc) -= 1) == 0;
        A(r_buffered, port / ch->Pi) -= 1;
        A(state, S_buffered) -= 1;
        COUNT(count, buffer_reads) += 1;
    }
    TRY(credit_return(ch, c, A(ip_upbase, port) + (ivc - port * ch->V)));
    i64 opid = A(vc_out_opid, ivc), outl = A(vc_out_port, ivc);
    i64 civ = A(vc_out_cred, ivc);
    A(cred, civ) -= 1;
    A(op_credsum, opid) -= 1;
    COUNT(count, flit_hops) += 1;
    COUNT(count, xbar_flits) += 1;
    if (via == VIA_SA)
        COUNT(count, sa_arbitrations) += 1;
    else {
        COUNT(count, sa_bypass_flits) += 1;
        if (via == VIA_BUF)
            COUNT(count, buf_bypass_flits) += 1;
    }
    if (A(f_head, fid)) {
        i64 pk = A(f_pkt, fid);
        A(p_hops, pk) += 1;
        if (via != VIA_SA) {
            A(p_sa, pk) += 1;
            if (via == VIA_BUF)
                A(p_buf, pk) += 1;
        }
        COUNT(count, e2e_packets) += 1;
        COUNT(count, e2e_repeats) += A(ip_last_pair, port) == A(p_pair, pk);
        A(ip_last_pair, port) = A(p_pair, pk);
    }
    COUNT(count, xbar_repeats) += A(ip_last_out, port) == outl;
    A(ip_last_out, port) = outl;
    if (ch->events_on)
        A(ev_trav, via * ch->NIP + A(n, N_sa + via)++) = ivc;
    A(f_vc, fid) = A(vc_out_vc, ivc);
    /* SA grants and streamed followers cross next cycle, bypasses now. */
    A(ip_st, port) = c + delayed;
    A(op_st, opid) = c + delayed;
    i64 when = c + 1 + delayed + A(op_latency, opid);
    if (A(op_eject, opid)) {
        i64 at = ring_put(ch, RING_EJ, c, when, ch->T);
        if (at < 0)
            return at;
        A(ej_term, at) = A(op_term, opid);
        A(ej_fid, at) = fid;
    } else {
        i64 at = ring_put(ch, RING_ARR, c, when, ch->NIP);
        if (at < 0)
            return at;
        A(arr_port, at) = A(op_dest, opid);
        A(arr_fid, at) = fid;
    }
    if (A(f_tail, fid)) {
        A(cred_free, civ) = 1;
        A(vc_state, ivc) = VC_IDLE;
        A(vc_out_port, ivc) = -1;
        A(vc_out_opid, ivc) = -1;
        A(vc_out_vc, ivc) = -1;
    }
    if (emptied || A(f_tail, fid))
        summarise(ch, port, ivc);
    return 0;
}

/* Router._establish_pc for the SA grant of ``port`` onto ``opid``. */
static void establish(Chip *ch, i64 port, i64 in_vc, i64 outl, i64 opid)
{
    ENTER();
    i64 r = port / ch->Pi, local = port - r * ch->Pi;
    i64 holder = A(op_holder, opid);
    if (holder != -1 && holder != local)
        terminate(ch, r * ch->Pi + holder, T_CONFLICT_OUTPUT);
    if (A(pc_valid, port) && A(pc_out_port, port) != outl)
        terminate(ch, port, T_CONFLICT_INPUT);
    int refreshed = A(pc_valid, port) && A(pc_in_vc, port) == in_vc
        && A(pc_out_port, port) == outl;
    COUNT(router_counts(ch, r), pc_established) += !refreshed;
    A(pc_in_vc, port) = in_vc;
    A(pc_out_port, port) = outl;
    A(pc_valid, port) = 1;
    A(op_holder, opid) = local;
    A(r_pcv, r) |= BIT(local);
    A(r_pcinv, r) &= ~BIT(local);
    A(r_held, r) |= BIT(outl);
}

/* -- the synthetic sources (traffic/synthetic.py, stated again) ----------- */

/* ``random.Random``'s next 32 bits: MT19937 over ``getstate()`` at ``mt``. */
static uint32_t source_word(Chip *ch, i64 mt)
{
    ENTER();
    i64 pos = A(src_mt, mt + 624);
    if (pos >= 624) {
        for (i64 k = 0, k1 = 1, km = 397; k < 624; k++) {
            uint32_t y = ((uint32_t)A(src_mt, mt + k) & 0x80000000u)
                | ((uint32_t)A(src_mt, mt + k1) & 0x7fffffffu);
            A(src_mt, mt + k) = (uint32_t)A(src_mt, mt + km)
                ^ (y >> 1) ^ (-(y & 1) & 0x9908b0dfu);
            k1 = k1 == 623 ? 0 : k1 + 1;
            km = km == 623 ? 0 : km + 1;
        }
        pos = 0;
    }
    uint32_t y = (uint32_t)A(src_mt, mt + pos);
    A(src_mt, mt + 624) = pos + 1;
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    return y ^ (y >> 18);
}

/* ``rng.random() < threshold / 2**53``. */
static int source_chance(Chip *ch, i64 mt, i64 threshold)
{
    ENTER();
    i64 a = source_word(ch, mt) >> 5, b = source_word(ch, mt) >> 6;
    return (a << 26 | b) < threshold;
}

/* ``rng._randbelow(n)``: ``n.bit_length()`` bits until they fall below. */
static i64 source_below(Chip *ch, i64 mt, i64 n)
{
    ENTER();
    i64 r, spare = __builtin_clzll((uint64_t)n) - 32;
    do
        r = source_word(ch, mt) >> spare;
    while (r >= n);
    return r;
}

/* SyntheticTraffic._draw_cycle: the lane's next undrawn cycle, terminals
 * ascending, becomes its row (``p_pair`` values). */
static void source_draw(Chip *ch, i64 lane)
{
    ENTER();
    i64 TL = ch->TL, *s = &A(src, lane * SRC_WIDTH), mt = lane * 625;
    s[SRC_pending] = 0;
    for (i64 t = 0; t < TL; t++) {
        if (!source_chance(ch, mt, s[SRC_threshold]))
            continue;
        i64 dst;
        if (s[SRC_draw] == DRAW_table)
            dst = A(src_dest, lane * TL + t);
        else if (s[SRC_draw] == DRAW_uniform) {
            dst = source_below(ch, mt, TL - 1);
            dst += dst >= t;
        } else if (source_chance(ch, mt, (i64)1 << 52))
            dst = source_below(ch, mt, 2) * (TL / 2); /* a hot terminal */
        else
            dst = source_below(ch, mt, TL);
        if (dst >= 0 && dst != t)
            A(src_row, lane * TL + s[SRC_pending]++) = t * TL + dst;
    }
    s[SRC_drawn_until] += 1;
}

/* SyntheticTraffic.tick for every lane whose window is open (a row for a
 * cycle never ticked is drawn over), then VectorNetwork.inject for each
 * packet of a row due now: a slot off the free stack, else past the
 * high-water mark, at the tail of its source queue. */
static i64 source_tick(Chip *ch, i64 c)
{
    ENTER();
    for (i64 lane = 0, TL = ch->TL; lane < ch->T / TL; lane++) {
        i64 *s = &A(src, lane * SRC_WIDTH);
        if (c >= s[SRC_end])
            continue;
        while (s[SRC_drawn_until] < c)
            source_draw(ch, lane);
        if (s[SRC_drawn_until] != c)
            continue;
        for (i64 k = 0; k < s[SRC_pending]; k++) {
            i64 pair = A(src_row, lane * TL + k), t = lane * TL + pair / TL;
            if (ch->inject_queue > 0 && A(q_len, t) >= ch->inject_queue) {
                ch->err_idx = t;
                return E_QUEUE;
            }
            i64 pk = A(state, S_packets);
            if (A(state, S_p_free))
                pk = A(p_free, --A(state, S_p_free));
            else if (pk < ch->n_p_src)
                A(state, S_packets) = pk + 1;
            else
                return E_POOL;
            A(p_src, pk) = t;
            A(p_dst, pk) = pair % TL;
            A(p_pair, pk) = pair;
            A(p_size, pk) = s[SRC_size];
            A(p_choice, pk) = 0;
            A(p_create, pk) = c;
            A(p_next, pk) = -1;
            if (A(q_tail, t) < 0)
                A(q_head, t) = pk;
            else
                A(p_next, A(q_tail, t)) = pk;
            A(q_tail, t) = pk;
            A(q_len, t) += 1;
            A(state, S_queued) += 1;
        }
        s[SRC_generated] += s[SRC_pending];
        s[SRC_pending] = 0;
    }
    return 0;
}

/* SyntheticTraffic.next_injection_cycle(c) over the open lanes: each
 * draws ahead to its first row with a packet in it (4096 cycles at the
 * most; it is asked again from there); the earliest, or -1. */
static i64 source_ahead(Chip *ch, i64 c)
{
    ENTER();
    i64 next = -1;
    for (i64 lane = 0; lane < ch->T / ch->TL; lane++) {
        i64 *s = &A(src, lane * SRC_WIDTH);
        if (c >= s[SRC_end] || !s[SRC_threshold])
            continue;
        while (s[SRC_drawn_until] < c
               || (!s[SRC_pending] && s[SRC_drawn_until] < c + 4096))
            source_draw(ch, lane);
        i64 at = s[SRC_drawn_until] + !s[SRC_pending];
        if (next < 0 || at < next)
            next = at;
    }
    return next;
}

/* -- the calendars' due slots ------------------------------------------- */

/* st_credit: credit returns reach the upstream counters. */
static void st_credit_returns(Chip *ch, i64 slot)
{
    ENTER();
    i64 room = ch->NIP + ch->T, due = A(ring_n, RING_CR * ch->RD + slot);
    for (i64 k = 0; k < due; k++) {
        i64 ci = A(cr_ci, slot * room + k);
        A(cred, ci) += 1;
        if (ci < ch->NOVC) /* a router's output VC, not a NIC's */
            A(op_credsum, ci / ch->V) += 1;
    }
    A(ring_n, RING_CR * ch->RD + slot) = 0;
}

/* st_credit: the receiving NICs (Nic.tick_eject). A flit frees its
 * reassembly buffer at once, the credit lands after the delay; a tail
 * closes its packet, whose slot and flit block go back to the pools
 * reading their initial values. Returns the packets closed. */
static i64 st_credit_eject(Chip *ch, i64 c, i64 slot)
{
    ENTER();
    i64 due = A(ring_n, RING_EJ * ch->RD + slot), closed = 0;
    for (i64 k = 0; k < due; k++) {
        i64 t = A(ej_term, slot * ch->T + k), fid = A(ej_fid, slot * ch->T + k);
        TRY(credit_return(ch, c, A(ej_opid, t) * ch->V + A(f_vc, fid)));
        i64 pk = A(f_pkt, fid), got = A(p_rx, pk) + 1;
        A(p_rx, pk) = got;
        if (!A(f_tail, fid))
            continue;
        i64 size = A(p_size, pk), src = A(p_src, pk);
        if (got != size)
            return E_TAIL_EARLY;
        i64 lane = src / ch->TL, *count = terminal_counts(ch, src);
        i64 row = closed++ * EJ_WIDTH;
        A(ej_out, row + EJ_slot) = pk;
        A(ej_out, row + EJ_inject_cycle) = A(p_inject, pk);
        A(ej_out, row + EJ_hops) = A(p_hops, pk);
        A(ej_out, row + EJ_sa_bypass_hops) = A(p_sa, pk);
        A(ej_out, row + EJ_buf_bypass_hops) = A(p_buf, pk);
        A(ej_out, row + EJ_latency) = -1;
        A(ej_out, row + EJ_lane) = lane;
        COUNT(count, ejected_packets) += 1;
        COUNT(count, ejected_flits) += size;
        if (c >= A(lane_warmup, lane)) {
            A(ej_out, row + EJ_latency) = c - A(p_create, pk);
            COUNT(count, measured_packets) += 1;
            COUNT(count, total_latency) += c - A(p_create, pk);
            COUNT(count, total_network_latency) += c - A(p_inject, pk);
            COUNT(count, total_hops) += A(p_hops, pk);
        }
        A(outstanding, src) -= 1;
        A(state, S_started) -= 1;
        if (ch->events_on)
            A(ev_ej, A(n, N_ej)++) = t;
        A(p_inject, pk) = -1;
        A(p_hops, pk) = A(p_sa, pk) = A(p_buf, pk) = A(p_rx, pk) = 0;
        A(p_free, A(state, S_p_free)++) = pk;
        i64 fid0 = fid - size + 1;
        for (i64 f = fid0; f <= fid; f++) {
            A(f_vc, f) = -1;
            A(f_ready, f) = 0;
        }
        A(f_link, fid0) = A(fb_head, size);
        A(fb_head, size) = fid0;
    }
    A(ring_n, RING_EJ * ch->RD + slot) = 0;
    return closed;
}

/* st_credit: this cycle's link arrivals, staged out of their slot (a
 * traversal of this same cycle may file into it again). */
static i64 st_credit_stage(Chip *ch, i64 slot)
{
    ENTER();
    i64 due = A(ring_n, RING_ARR * ch->RD + slot);
    for (i64 k = 0; k < due; k++) {
        A(in_dest, k) = A(arr_port, slot * ch->NIP + k);
        A(in_fid, k) = A(arr_fid, slot * ch->NIP + k);
    }
    A(ring_n, RING_ARR * ch->RD + slot) = 0;
    return due;
}

/* -- the router pipeline, in the order Router.step runs it --------------- */

/* va_sa: this cycle's router lists out of ``r_map`` and the staged
 * arrivals, then VA (Router._va_phase): route idle fronts and allocate
 * output VCs, ports rotated by the cycle, VCs ascending. */
static i64 va_sa_vcs(Chip *ch, i64 c, i64 n_arr)
{
    ENTER();
    i64 Pi = ch->Pi, Po = ch->Po, V = ch->V, n_active = 0, n_work = 0;
    /* Routers with buffered flits, and those or arrivals staged this
     * cycle; the rest return early from the scalar step, maintenance
     * included. */
    i64 words = (ch->R + 63) >> 6;
    for (i64 w = 0; w < words; w++)
        A(work_map, w) = A(r_map, w);
    for (i64 j = 0; j < n_arr; j++) {
        i64 r = A(in_dest, j) / Pi;
        A(work_map, r >> 6) |= BIT(r & 63);
    }
    for (i64 w = 0; w < words; w++) {
        uint64_t buffered = (uint64_t)A(r_map, w), all = A(work_map, w);
        EACH_BIT(b, buffered)
            A(active, n_active++) = w * 64 + b;
        EACH_BIT(b, all)
            A(work, n_work++) = w * 64 + b;
    }
    A(n, N_ACTIVE) = n_active;
    A(n, N_WORK) = n_work;
    for (i64 k = 0; k < n_active; k++) {
        i64 r = A(active, k), wait = A(r_wait, r);
        if (!wait)
            continue; /* its fronts all hold an output VC already */
        i64 num = A(nip, r), start = c % num;
        uint64_t ports = rotated(wait, start, num);
        EACH_BIT(turn, ports) {
            i64 port = r * Pi + (start + turn < num ? start + turn
                                 : start + turn - num);
            uint64_t vcs = (uint64_t)(A(ip_occ, port) & ~A(ip_act, port));
            EACH_BIT(v, vcs) {
                i64 ivc = port * V + v;
                i64 front = A(buf_fid, ivc * ch->D + A(buf_head, ivc));
                VISIT();
                if (A(f_ready, front) > c)
                    continue;
                i64 pk = A(f_pkt, front);
                if (A(vc_state, ivc) == VC_IDLE) { /* route the new head */
                    if (!A(f_head, front))
                        return E_BODY_AT_IDLE_FRONT;
                    i64 out = A(route_out, (r * ch->C + A(p_choice, pk))
                                * ch->TL + A(p_dst, pk));
                    A(vc_state, ivc) = VC_VA;
                    A(vc_out_port, ivc) = out;
                    A(vc_out_opid, ivc) = r * Po + out;
                }
                i64 opid = A(vc_out_opid, ivc);
                i64 vc = policy_pick(ch, opid * V, pk, A(op_eject, opid));
                if (vc >= 0)
                    grant_out_vc(ch, port, ivc, opid * V + vc, vc);
            }
        }
    }
    return 0;
}

/* pc: input ports whose circuit's VC has a matching, ready front flit
 * (Router._pc_candidates), ascending; mismatched and creditless
 * circuits are torn down on the way. */
static i64 pc_candidates(Chip *ch, i64 c)
{
    ENTER();
    i64 found = 0;
    for (i64 k = 0; k < A(n, N_ACTIVE); k++) {
        i64 r = A(active, k);
        uint64_t circuits = (uint64_t)A(r_pcv, r);
        EACH_BIT(local, circuits) {
            i64 pp = r * ch->Pi + local, vc = A(pc_in_vc, pp);
            if (!(A(ip_occ, pp) >> vc & 1))
                continue;
            i64 ivc = pp * ch->V + vc;
            i64 front = A(buf_fid, ivc * ch->D + A(buf_head, ivc));
            VISIT();
            if (A(f_ready, front) > c)
                continue;
            int active = A(vc_state, ivc) == VC_ACTIVE;
            if (A(f_head, front)) {
                /* Route is known (the VA phase ran first). */
                if (A(vc_out_port, ivc) != A(pc_out_port, pp)) {
                    terminate(ch, pp, T_ROUTE_MISMATCH);
                    continue;
                }
                if (!active)
                    continue; /* header still waiting for a VC */
            } else if (!active)
                return E_BODY_ON_INACTIVE;
            if (A(cred, A(vc_out_cred, ivc)) == 0) {
                terminate(ch, pp, T_NO_CREDIT);
                continue;
            }
            A(cand_ip, found) = pp;
            A(cand_ivc, found) = ivc;
            found++;
        }
    }
    A(n, N_CAND) = found;
    return 0;
}

/* va_sa: SA requests of every other ready, active, credited VC as one
 * VC mask per input port (Router._collect_requests). */
static void va_sa_requests(Chip *ch, i64 c)
{
    ENTER();
    memset(ch->claimed_ip, 0, (size_t)ch->n_claimed_ip);
    memset(ch->claimed_op, 0, (size_t)ch->n_claimed_op);
    i64 requesting = 0, ci = 0, n_cand = A(n, N_CAND);
    for (i64 k = 0; k < A(n, N_ACTIVE); k++) {
        i64 r = A(active, k);
        uint64_t ports = (uint64_t)A(r_occ, r);
        EACH_BIT(local, ports) {
            i64 port = r * ch->Pi + local, acc = 0;
            uint64_t vcs = (uint64_t)(A(ip_occ, port) & A(ip_act, port));
            while (ci < n_cand && A(cand_ip, ci) < port)
                ci++;
            i64 cand = ci < n_cand && A(cand_ip, ci) == port
                ? A(cand_ivc, ci) : -1;
            EACH_BIT(v, vcs) {
                i64 ivc = port * ch->V + v;
                if (ivc == cand)
                    continue;
                i64 front = A(buf_fid, ivc * ch->D + A(buf_head, ivc));
                VISIT();
                if (A(f_ready, front) > c
                    || A(cred, A(vc_out_cred, ivc)) == 0)
                    continue;
                acc |= BIT(v);
                A(claimed_op, A(vc_out_opid, ivc)) = 1;
            }
            if (acc) {
                A(port_mask, port) = acc;
                A(order, requesting++) = port;
                A(claimed_ip, port) = 1;
            }
        }
    }
    A(n, N_ORDER) = requesting;
}

/* st_credit: circuit reuse. A candidate whose crossbar ports are free
 * of SA claims bypasses SA now -- or, when both ports carry the
 * previous flit of its own stream, one cycle behind it; a blocked one
 * joins SA this same cycle (Router.step, the candidate loop). */
static i64 st_credit_reuse(Chip *ch, i64 c)
{
    ENTER();
    i64 requesting = A(n, N_ORDER);
    for (i64 k = 0; k < A(n, N_CAND); k++) {
        i64 port = A(cand_ip, k), ivc = A(cand_ivc, k);
        i64 opid = A(vc_out_opid, ivc);
        int in_busy = A(ip_st, port) == c, out_busy = A(op_st, opid) == c;
        if (A(claimed_ip, port) || A(claimed_op, opid)
            || in_busy != out_busy) {
            if (A(port_mask, port) == 0)
                A(order, requesting++) = port;
            A(port_mask, port) |= (i64)1 << (ivc - port * ch->V);
            A(claimed_ip, port) = 1;
            A(claimed_op, opid) = 1;
        } else
            TRY(traverse(ch, c, ivc, port, VIA_PC, in_busy, -1));
    }
    A(n, N_ORDER) = requesting;
    return 0;
}

/* Router._try_buffer_bypass for the flit ``fid`` arriving at the empty
 * circuit VC ``ivc`` of a free, unclaimed ``port``: 1 if it went
 * through, 0 if it has to be buffered, or an E_* code. */
static i64 try_buffer_bypass(Chip *ch, i64 c, i64 port, i64 ivc, i64 fid)
{
    ENTER();
    i64 opid, r = port / ch->Pi;
    if (A(f_head, fid)) {
        if (A(vc_state, ivc) != VC_IDLE)
            return E_HEAD_ON_ALLOCATED;
        i64 pk = A(f_pkt, fid), outl = A(pc_out_port, port);
        i64 out = A(route_out, (r * ch->C + A(p_choice, pk)) * ch->TL
                    + A(p_dst, pk));
        if (out != outl) { /* same VC, different output */
            terminate(ch, port, T_ROUTE_MISMATCH);
            return 0;
        }
        opid = r * ch->Po + out;
        if (A(claimed_op, opid) || A(op_st, opid) >= c)
            return 0;
        i64 vc = policy_pick(ch, opid * ch->V, pk, A(op_eject, opid));
        if (vc < 0 || A(cred, opid * ch->V + vc) == 0)
            return 0;
        A(vc_out_port, ivc) = outl;
        A(vc_out_opid, ivc) = opid;
        grant_out_vc(ch, port, ivc, opid * ch->V + vc, vc);
    } else {
        if (A(vc_state, ivc) != VC_ACTIVE)
            return E_BODY_ARRIVED_INACTIVE;
        opid = A(vc_out_opid, ivc);
        if (A(claimed_op, opid) || A(op_st, opid) >= c)
            return 0;
        if (A(cred, A(vc_out_cred, ivc)) == 0) {
            /* Out of credit before the flit arrived: tear the circuit
             * down and buffer normally (Section IV.B). */
            terminate(ch, port, T_NO_CREDIT);
            return 0;
        }
    }
    TRY(traverse(ch, c, ivc, port, VIA_BUF, 0, fid));
    return 1;
}

/* bw: the staged arrivals -- through a matching idle circuit in the
 * arrival cycle, else into the input buffer
 * (Router._process_arrivals). */
static i64 bw_arrivals(Chip *ch, i64 c, i64 n_arr)
{
    ENTER();
    for (i64 j = 0; j < n_arr; j++) {
        i64 port = A(in_dest, j), fid = A(in_fid, j);
        i64 vc = A(f_vc, fid), ivc = port * ch->V + vc;
        /* The port must be free this cycle and no earlier flit of it
         * may still be scheduled for a later ST (it would be
         * overtaken). */
        if (ch->pc_bypass && A(pc_valid, port) && A(pc_in_vc, port) == vc
            && A(buf_len, ivc) == 0 && A(ip_st, port) < c
            && !A(claimed_ip, port)) {
            i64 went = try_buffer_bypass(ch, c, port, ivc, fid);
            if (went < 0)
                return went;
            if (went)
                continue;
        }
        i64 len = A(buf_len, ivc);
        if (len >= ch->D)
            return E_BUFFER_OVERFLOW;
        A(buf_fid, ivc * ch->D + (A(buf_head, ivc) + len) % ch->D) = fid;
        A(buf_len, ivc) = len + 1;
#ifndef REPRO_SEED_STALE_SUMMARY
        if (!len)
            summarise(ch, port, ivc);
#endif
        A(f_ready, fid) = c + 1;
        A(r_buffered, port / ch->Pi) += 1;
        A(state, S_buffered) += 1;
        COUNT(router_counts(ch, port / ch->Pi), buffer_writes) += 1;
        if (ch->events_on)
            A(ev_bw, A(n, N_bw)++) = ivc;
    }
    return 0;
}

/* va_sa: separable input-first switch allocation over the requesting
 * ports, outputs served in first-requested order; every grant
 * traverses next cycle and (re-)establishes its pseudo-circuit
 * (Router._allocate_switch and the grant loop of Router.step). */
static i64 va_sa_switch(Chip *ch, i64 c)
{
    ENTER();
    i64 Pi = ch->Pi, Po = ch->Po, V = ch->V, outputs = 0;
    for (i64 k = 0; k < A(n, N_ORDER); k++) {
        i64 port = A(order, k);
        i64 vc = rr_pick(A(port_mask, port), A(in_arb_next, port), V);
        A(port_mask, port) = 0;
        A(in_arb_next, port) = vc + 1 == V ? 0 : vc + 1;
        A(smap, port) = port * V + vc;
        i64 opid = A(vc_out_opid, port * V + vc);
        if (A(omask, opid) == 0)
            A(out_order, outputs++) = opid;
        A(omask, opid) |= (i64)1 << (port % Pi);
    }
    A(n, N_ORDER) = 0;
    for (i64 k = 0; k < outputs; k++) {
        i64 opid = A(out_order, k), r = opid / Po, size = A(nip, r);
        i64 win = rr_pick(A(omask, opid), A(out_arb_next, opid), size);
        A(omask, opid) = 0;
        A(out_arb_next, opid) = win + 1 == size ? 0 : win + 1;
        i64 port = r * Pi + win, ivc = A(smap, port);
        i64 outl = A(vc_out_port, ivc); /* a tail resets it below */
        TRY(traverse(ch, c, ivc, port, VIA_SA, 1, -1));
        if (ch->pc_enabled)
            establish(ch, port, ivc - port * V, outl, opid);
    }
    return 0;
}

/* pc: end-of-cycle upkeep of the routers on the work list, one pass
 * over their held and restorable outputs -- credit terminations on held
 * ones, speculative restoration on free ones, the history register
 * resolving ties (Router._pc_maintenance). */
static void pc_maintenance(Chip *ch)
{
    ENTER();
    i64 Pi = ch->Pi, Po = ch->Po;
    for (i64 k = 0; k < A(n, N_WORK); k++) {
        /* Outputs some invalidated circuit still points at. The
         * terminations below only add candidates at their own
         * creditless port, so the snapshots stay exact. */
        i64 r = A(work, k), held = A(r_held, r), cand_outs = 0;
        uint64_t inv = ch->pc_speculation ? (uint64_t)A(r_pcinv, r) : 0;
        uint64_t ports = inv;
        EACH_BIT(i, ports)
            cand_outs |= BIT(A(pc_out_port, r * Pi + i));
        uint64_t outs = (uint64_t)(held | cand_outs);
        EACH_BIT(out, outs) {
            i64 opid = r * Po + out;
            if (held >> out & 1) {
                if (!any_credit(ch, opid))
                    terminate(ch, r * Pi + A(op_holder, opid), T_NO_CREDIT);
                continue;
            }
            if (!A(op_valid, opid))
                continue;
            i64 hist = A(op_hist, opid), chosen = -1, count = 0;
            int hist_ok = 0;
            ports = inv;
            EACH_BIT(i, ports) {
                if (A(pc_out_port, r * Pi + i) != out)
                    continue;
                count++;
                if (chosen == -1)
                    chosen = i;
                if (i == hist)
                    hist_ok = 1;
            }
            if (count > 1) {
                if (!hist_ok)
                    continue;
                chosen = hist;
            }
            if (!any_credit(ch, opid))
                continue; /* restoration needs credits downstream */
            A(pc_valid, r * Pi + chosen) = 1;
            A(op_holder, opid) = chosen;
            A(r_pcv, r) |= BIT(chosen);
            A(r_pcinv, r) &= ~BIT(chosen);
            A(r_held, r) |= BIT(out);
            COUNT(router_counts(ch, r), pc_restored) += 1;
        }
    }
}

/* -- the sending NICs (Nic.tick_inject) ---------------------------------- */

/* Sender VA for the packet at the head of ``t``'s source queue
 * (Nic._start_next_packet): once the MSHR gate and an injection VC let
 * it, the packet takes a flit block -- a free one of its size, else
 * fresh flits past the high-water mark -- and becomes that VC's
 * transmission. */
static i64 inject_start(Chip *ch, i64 c, i64 t)
{
    ENTER();
    i64 pk = A(q_head, t);
    if (ch->mshrs > 0 && A(outstanding, t) >= ch->mshrs)
        return 0; /* self-throttling: all MSHRs busy */
    i64 base = ch->NOVC + t * ch->V;
    i64 vc = policy_pick(ch, base, pk, 0);
    if (vc < 0)
        return 0;
    i64 size = A(p_size, pk), fid0 = A(fb_head, size);
    if (fid0 >= 0)
        A(fb_head, size) = A(f_link, fid0);
    else {
        fid0 = A(state, S_flits);
        if (fid0 + size > ch->n_f_pkt)
            return E_POOL;
        A(state, S_flits) = fid0 + size;
        A(f_head, fid0) = 1;
        A(f_tail, fid0 + size - 1) = 1;
    }
    for (i64 f = fid0; f < fid0 + size; f++)
        A(f_pkt, f) = pk;
    A(q_head, t) = A(p_next, pk);
    if (A(q_head, t) < 0)
        A(q_tail, t) = -1;
    A(q_len, t) -= 1;
    A(state, S_queued) -= 1;
    A(cred_free, base + vc) = 0;
    A(p_inject, pk) = c;
    i64 *count = terminal_counts(ch, t);
    COUNT(count, injected_packets) += 1;
    COUNT(count, injected_flits) += size;
    if (ch->events_on)
        A(ev_inj, A(n, N_inj)++) = t;
    A(outstanding, t) += 1;
    A(state, S_started) += 1;
    A(snd_pid, t * ch->V + vc) = pk;
    A(snd_next, t * ch->V + vc) = fid0;
    A(snd_left, t * ch->V + vc) = size;
    A(snd_cnt, t) += 1;
    A(state, S_sending) += 1;
    return 0;
}

/* One flit onto the injection channel: round-robin over ``t``'s
 * transmissions that have a credit. */
static i64 inject_send(Chip *ch, i64 c, i64 t)
{
    ENTER();
    i64 V = ch->V, base = ch->NOVC + t * V, mask = 0;
    for (i64 v = 0; v < V; v++)
        if (A(snd_left, t * V + v) > 0 && A(cred, base + v) > 0)
            mask |= (i64)1 << v;
    if (!mask)
        return 0;
    i64 vc = rr_pick(mask, A(send_rr, t), V), k = t * V + vc;
    A(send_rr, t) = vc + 1 == V ? 0 : vc + 1;
    i64 fid = A(snd_next, k);
    A(f_vc, fid) = vc;
    A(cred, base + vc) -= 1;
    i64 at = ring_put(ch, RING_ARR, c, c + 1, ch->NIP);
    if (at < 0)
        return at;
    A(arr_port, at) = A(inj_ipid, t);
    A(arr_fid, at) = fid;
    A(snd_next, k) = fid + 1;
    if (--A(snd_left, k) == 0) {
        A(cred_free, base + vc) = 1;
        A(snd_pid, k) = -1;
        A(snd_cnt, t) -= 1;
        A(state, S_sending) -= 1;
    }
    return 0;
}

/* -- one cycle ----------------------------------------------------------- */

#define STAMP(phase) \
    do { \
        if (ch->profile_on) { \
            i64 now_ = now_ns(); \
            A(prof_ns, PH_##phase) += now_ - mark; \
            mark = now_; \
        } \
    } while (0)

i64 cycle(Chip *ch, i64 c)
{
    ENTER();
    TRY(source_tick(ch, c));
    i64 slot = c % ch->RD, mark = ch->profile_on ? now_ns() : 0;
    for (i64 k = 0; k < N_EVENTS; k++)
        A(n, k) = 0;
    A(n, N_VISITS) = 0;
    st_credit_returns(ch, slot);
    i64 closed = st_credit_eject(ch, c, slot);
    if (closed < 0)
        return closed;
    i64 n_arr = st_credit_stage(ch, slot);
    STAMP(st_credit);
    if (A(state, S_buffered) || n_arr) {
        TRY(va_sa_vcs(ch, c, n_arr));
        STAMP(va_sa);
        A(n, N_CAND) = 0;
        if (ch->pc_enabled)
            TRY(pc_candidates(ch, c));
        STAMP(pc);
        va_sa_requests(ch, c);
        STAMP(va_sa);
        TRY(st_credit_reuse(ch, c));
        STAMP(st_credit);
        TRY(bw_arrivals(ch, c, n_arr));
        STAMP(bw);
        TRY(va_sa_switch(ch, c));
        STAMP(va_sa);
        if (ch->pc_enabled)
            pc_maintenance(ch);
        STAMP(pc);
    }
    if (A(state, S_queued) || A(state, S_sending)) {
        for (i64 t = 0; t < ch->T; t++) {
            if (A(q_head, t) >= 0)
                TRY(inject_start(ch, c, t));
            if (A(snd_cnt, t))
                TRY(inject_send(ch, c, t));
        }
        STAMP(inject);
    }
    /* The earliest cycle any ring still holds something for. */
    i64 next = -1;
    for (i64 ahead = 1; ahead <= ch->RD && next < 0; ahead++) {
        i64 s = (c + ahead) % ch->RD;
        if (A(ring_n, RING_ARR * ch->RD + s) || A(ring_n, RING_EJ * ch->RD + s)
            || A(ring_n, RING_CR * ch->RD + s))
            next = c + ahead;
    }
    A(state, S_next_event) = next;
    A(state, S_next_injection) = A(state, S_buffered) || A(state, S_queued)
        || A(state, S_sending) ? -1 : source_ahead(ch, c + 1);
    RETURN(closed);
}

#ifdef REPRO_KERNEL_CHECK
_Static_assert(__COUNTER__ <= REACH_SITES, "more ENTER() sites than slots");
#endif
