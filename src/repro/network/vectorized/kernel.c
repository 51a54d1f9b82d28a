/* The array core's cycle, compiled.
 *
 * One translation unit, built on first use by ``kernel.py`` with the
 * system C compiler and called through ``ctypes``. ``run()`` is the only
 * entry point a network steps through: it runs cycle after cycle
 * over a window and skips what nothing acts in, and this
 * file is the only statement of what an array core does in a cycle and
 * of which cycles it may skip. A cycle is: the bound sources'
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
 * Beside ``run()``, ``check_chip()`` (last in this file) is the one
 * statement of the array core's invariants: a walk over the chip, live or
 * drained, which ``run()`` makes at the bottom of every ``check_stride``-th
 * cycle it steps while a checker is attached (``--check``) and ``core.py``
 * makes at the end of a run.
 *
 * Contract ("arrays in, arrays out"): ``run()`` takes the ``Chip`` --
 * pointers to flat arrays, each of the element type ``CHIP_ARRAYS``
 * gives it (``i32`` for state, ids, pools, calendars and tables, ``u32``
 * for the sources' MT19937 words, ``i64`` for counters, whole-chip
 * scalars and 64-bit masks, ``u8`` for flags), plus a few sizes and
 * scheme flags, filled once per network by ``kernel.py`` -- and a
 * window of cycles. ``core.py`` allocates every array with that type
 * and refuses a chip whose ids, pools or cycles an ``i32`` array could
 * not hold, so nothing here wraps. Where a per-flit path would divide
 * an index by its space's stride (a port's router, an output's router,
 * a router's lane) the layout has a table; a credit's output, ``ci /
 * V``, is still divided (a table for it measured no gain). It touches no
 * Python object, allocates nothing and keeps no state of its own
 * between calls; everything that outlives a call lives in arrays of the
 * ``Chip``:
 *
 * - the three calendars (arrivals, ejections, credit returns) are rings
 *   of ``RD`` slots, slot ``cycle % RD`` (the ``Chip``'s ``slot``,
 *   worked out once a cycle; what is due ``ahead`` cycles later files
 *   at ``slot + ahead``, wrapped by one compare), each slot a packed
 *   list with its length in ``ring_n``. ``RD`` is the longest link latency plus
 *   the credit delay plus one (``core.py``), which no event outruns: a
 *   flit granted now crosses next cycle and lands ``latency`` later. A
 *   slot is emptied before anything is filed in the same call, so an
 *   event exactly ``RD`` ahead reuses it; one further ahead, or more
 *   events in a slot than it has links, is ``E_RING``.
 * - ``counts`` holds one row of ``NetworkStats`` counters per lane, and
 *   ``hist`` one row of the latency histogram (column = latency); an
 *   event is billed to the lane of the router or terminal it happens at.
 * - the source queues are lists threaded through ``p_next``
 *   (``q_head`` / ``q_tail``), the free packet slots a stack
 *   (``p_free``), the free flit blocks one stack per packet size
 *   threaded through ``f_link`` (``fb_head``). ``inject()`` in
 *   ``core.py`` pushes and pops the same structures and grows the pools
 *   when ``run()`` says a cycle could need it (``pools_short``, asked
 *   once a cycle); a packet that still finds its pool full is
 *   ``E_POOL``, never a write past it.
 * - a lane's synthetic source, while ``core.py`` has bound one: its row
 *   of ``src`` (CHIP_SOURCE), its ``random.Random`` state in ``src_mt``,
 *   its destinations in ``src_dest``, the last row drawn in ``src_row``.
 * - ``state`` carries the whole-chip scalars both sides read.
 * - summaries of the pipeline's state, so that a phase visits what is
 *   occupied, not what exists: 64-bit masks (a bit per VC of a port,
 *   per port or output of a router, per router) and one 32-bit sum, each
 *   written where the state under it changes and read by iterating its
 *   set bits, ascending. ``kernel.summaries`` states every one from that
 *   state again; the walk's ``summary_*`` rules compare the two.
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
 * What a call hands back: the cycle it got to (``state.cycle``) and why
 * it came back (``RUN_*``, at ``run()``), or a negative ``E_*`` code
 * raised in ``core.py`` as the error the scalar core raises at the same
 * place. A cycle that ejected a packet ``core.py`` holds a ``Packet``
 * for (``p_held``), or one whose latency the histogram is too narrow
 * for, leaves a row per such packet in ``ej_out`` (``state.rows`` of
 * them; the slots are already free: ``core.py`` copies the fields into
 * the ``Packet`` objects before it injects again). While ``deliver_on``
 * (``core.py`` holds delivery callbacks, the scalar ``Nic.on_packet``) a
 * cycle whose ejection stage closed such a packet stops right there:
 * ``run()`` comes back mid-cycle (``RUN_DELIVER``, ``state.half`` set,
 * the rows in ``ej_out``), the callbacks run and may inject, and the
 * next call finishes that cycle from arrival staging on before anything
 * else -- so what they inject may start in that very cycle, as on the
 * scalar core, whose NICs eject before they inject. Only while
 * ``events_on`` (an observer is attached) the index arrays of the six
 * observer hooks are filled, lengths in ``n[]``, and ``run()`` comes
 * back after every cycle; while ``profile_on`` the stages' wall time
 * accumulates in ``prof_ns``; while ``check_stride`` (a checker is
 * attached) every that many stepped cycles end with the walk, and a
 * finding comes back as ``RUN_FOUND``, recorded in ``walk``.
 *
 * With -DREPRO_KERNEL_CHECK (the test suite's build) every array access
 * goes through ``A()``'s bounds check: an index outside its array is
 * recorded (``err_id``, ``err_idx``), the access is redirected to
 * element 0 and ``run()`` returns ``E_BOUNDS``; and every function
 * notes that it was entered (``repro_kernel_reach``). The release build
 * compiles ``A()`` to the bare access and ``ENTER()`` to nothing. The
 * checked build also counts, in the last entry of ``n[]``, the front
 * flits the VA, SA-request and PC-candidate scans examine, and in the
 * one before it those of them not ready yet: this cycle's arrivals,
 * which BW writes after the scans -- so never one, and no flit carries a
 * readiness stamp.
 * -DREPRO_SEED_STALE_SUMMARY (tests only) leaves out the ``summarise``
 * of a flit buffered into an empty VC: the seeded bug the walk and the
 * drain must catch.
 */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <string.h>
#include <time.h>

typedef int64_t i64;
typedef int32_t i32;
typedef uint32_t u32;
typedef uint8_t u8; /* numpy bool: one byte, 0 or 1 */

/* Bumped with any change to the Chip layout, the lists below or the
 * entry point's meaning; kernel.py refuses a library that answers
 * another number. */
#define REPRO_KERNEL_ABI 7006

/* Every array of the Chip: X(element type, name, owner). kernel.py
 * reads this list (it is the only statement of the struct layout) and
 * fills a pointer and a length per entry. Owner NET is an array of the
 * network or its layout, looked up by name; any other owner is the size
 * class of a zeroed buffer kernel.py allocates for this network. */
#define CHIP_ARRAYS(X) \
    /* input VC state, buffers, pseudo-circuit registers, arbiters */ \
    X(i32, vc_state, NET) \
    X(i32, vc_out_port, NET) \
    X(i32, vc_out_opid, NET) \
    X(i32, vc_out_vc, NET) \
    X(i32, vc_out_cred, NET) \
    X(i32, buf_fid, NET) \
    X(i32, buf_head, NET) \
    X(i32, buf_len, NET) \
    X(i32, buf_shadow, NET) \
    X(i32, pc_in_vc, NET) \
    X(i32, pc_out_port, NET) \
    X(u8, pc_valid, NET) \
    X(i32, ip_st, NET) \
    X(i32, ip_last_out, NET) \
    X(i32, ip_last_pair, NET) \
    X(i32, op_st, NET) \
    X(i32, op_holder, NET) \
    X(i32, op_hist, NET) \
    X(i32, in_arb_next, NET) \
    X(i32, out_arb_next, NET) \
    X(i32, cred, NET) \
    X(u8, cred_free, NET) \
    X(i32, r_buffered, NET) \
    /* summaries (the table above) */ \
    X(i64, ip_occ, NET) X(i64, ip_act, NET) X(i64, r_occ, NET) \
    X(i64, r_wait, NET) X(i64, r_map, NET) X(i64, r_pcv, NET) \
    X(i64, r_pcinv, NET) X(i64, r_held, NET) X(i32, op_credsum, NET) \
    /* packet pool, its free stack; flit pool, its free blocks by size; \
     * a zeroed mark per slot and per flit, which only check_chip() \
     * writes, and sets back (re-aimed when a pool grows) */ \
    X(i32, p_src, NET) \
    X(i32, p_dst, NET) \
    X(i32, p_size, NET) \
    X(i32, p_choice, NET) \
    X(i32, p_create, NET) \
    X(i32, p_pair, NET) \
    X(i32, p_held, NET) \
    X(i32, p_inject, NET) \
    X(i32, p_hops, NET) \
    X(i32, p_sa, NET) \
    X(i32, p_buf, NET) \
    X(i32, p_rx, NET) \
    X(i32, p_next, NET) \
    X(i32, p_free, NET) \
    X(i32, p_mark, NET) \
    X(i32, f_pkt, NET) \
    X(u8, f_head, NET) \
    X(u8, f_tail, NET) \
    X(i32, f_vc, NET) \
    X(i32, f_link, NET) \
    X(i32, f_mark, NET) \
    X(i32, fb_head, NET) \
    /* NICs: source queues, one transmission per injection VC */ \
    X(i32, q_head, NET) \
    X(i32, q_tail, NET) \
    X(i32, q_len, NET) \
    X(i32, snd_pid, NET) \
    X(i32, snd_next, NET) \
    X(i32, snd_left, NET) \
    X(i32, snd_cnt, NET) \
    X(i32, send_rr, NET) \
    X(i32, outstanding, NET) \
    /* synthetic sources: one row of each per lane */ \
    X(i64, src, NET) \
    X(u32, src_mt, NET) \
    X(i32, src_dest, NET) \
    X(i32, src_row, NET) \
    /* layout: wiring and routing tables, each credit's start value */ \
    X(i32, nip, NET) \
    X(u8, op_valid, NET) \
    X(i32, op_latency, NET) \
    X(i32, op_dest, NET) \
    X(u8, op_eject, NET) \
    X(i32, op_term, NET) \
    X(i32, ip_upbase, NET) \
    X(i32, inj_ipid, NET) \
    X(i32, ej_opid, NET) \
    X(i32, route_out, NET) \
    X(i32, vc_window, NET) \
    X(i32, cred_init, NET) \
    /* layout: what the id spaces' divisions would say -- input port -> \
     * router and local port, output -> router, router and terminal -> \
     * lane (its row of counts) */ \
    X(i32, ip_router, NET) \
    X(i32, ip_local, NET) \
    X(i32, op_router, NET) \
    X(i32, r_lane, NET) \
    X(i32, t_lane, NET) \
    /* calendars: RD slots each, lengths in ring_n[RING_*][slot] */ \
    X(i32, arr_port, NET) \
    X(i32, arr_fid, NET) \
    X(i32, ej_term, NET) \
    X(i32, ej_fid, NET) \
    X(i32, cr_ci, NET) \
    X(i32, ring_n, NET) \
    /* per-lane counters, warm-up and latency histogram (a row per lane, \
     * re-aimed when it widens), whole-chip scalars, stage timers */ \
    X(i64, counts, NET) \
    X(i64, lane_warmup, NET) \
    X(i64, hist, NET) \
    X(i64, state, NET) \
    X(i64, prof_ns, NET) \
    /* arrivals staged for this cycle */ \
    X(i32, in_dest, NIP) \
    X(i32, in_fid, NIP) \
    /* SA scratch, all zero between cycles: request VC mask per input \
     * port, input mask per output, stage-1 winner */ \
    X(i64, port_mask, NIP) \
    X(i64, omask, NOP) \
    X(i32, smap, NIP) \
    /* scratch handed from stage to stage within one cycle (and the \
     * walk's list of occupied ports, in cand_ip): the routers with a \
     * buffered flit, those and the ones an arrival is staged for (as a \
     * bitmap like r_map, then as a list), ascending */ \
    X(i32, active, R) \
    X(i64, work_map, RW) \
    X(i32, work, R) \
    X(i32, cand_ip, NIP) \
    X(i32, cand_ivc, NIP) \
    X(i32, order, NIP) \
    X(u8, claimed_ip, NIP) \
    X(u8, claimed_op, NOP) \
    X(i32, out_order, NOP) \
    /* what a call hands back: ejected packets, the walk's record, then \
     * (events_on) the observer hooks' index arrays, lengths in n[] */ \
    X(i64, ej_out, TOUT) \
    X(i64, walk, WALK) \
    X(i64, n, COUNTS) \
    X(i64, ev_bw, NIP) \
    X(i64, ev_trav, NIP3) \
    X(i64, ev_inj, T) \
    X(i64, ev_ej, T)

/* Sizes, scheme flags, switches, the ring slot of the cycle being run
 * and the checked build's fault record. TL is the terminals of one
 * lane; CD the credit delay; RD the ring depth; ``check_stride`` the
 * stepped cycles between two walks of ``run()`` (0: none). */
#define CHIP_SCALARS(X) \
    X(R) X(Pi) X(Po) X(V) X(D) X(C) X(TL) X(T) X(NIP) X(NOVC) \
    X(RD) X(CD) X(slot) X(mshrs) \
    X(static_vc) X(pc_enabled) X(pc_speculation) X(pc_bypass) \
    X(events_on) X(deliver_on) X(profile_on) X(check_stride) \
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
 * high-water marks; the first cycle after the last one run in which
 * anything may happen (``next_act``: the next while the chip is busy,
 * else the earliest a ring holds something for or an open source
 * injects in, -1 for none; what ``run()`` skips to); the cycle a call
 * got to, the rows it left in ``ej_out``, the cycles run and skipped
 * (``profile()``), the pool sizes a cycle could need and the cycle they
 * were last asked for (``pools_short``); 1 while cycle ``cycle`` has run
 * only through its ejection stage (``half``: a delivery stopped it). */
#define CHIP_STATE(X) \
    X(buffered) X(queued) X(sending) X(started) X(p_free) X(packets) \
    X(flits) X(next_act) X(cycle) X(rows) X(stepped) X(skipped) \
    X(need_packets) X(need_flits) X(asked) X(half)

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

/* One row of ``ej_out`` per packet of the cycle core.py must see (see
 * ``st_credit_eject``). ``latency`` is -1 unless it is one for core.py
 * to count: measured, and past the histogram's last row; ``held`` is 1
 * for a packet core.py holds a ``Packet`` for. */
#define CHIP_EJECTED(X) \
    X(slot) X(eject_cycle) X(inject_cycle) X(hops) X(sa_bypass_hops) \
    X(buf_bypass_hops) X(latency) X(lane) X(held)

/* What ``check_chip()`` answers, in the order it looks (``ok``:
 * nothing wrong), each a rule of ``VectorInvariantChecker`` (obs.py's
 * ``_FINDINGS``, ``summary_*`` its own). Conservation: a flit id held
 * twice (in an input buffer or the arrival ring, placed at an input VC;
 * in the ejection ring, at a credit index), a VC's occupancy against its
 * buffer's writes - reads, the occupancy caches. Then credits, circuits,
 * the pools -- a slot on the free stack twice, the blocks' tiling, their
 * free lists, a held flit id outside every live block (input VC or
 * credit index: a NIC's send slot is its injection VC's), a slot in use
 * but free, a live slot nothing names, ``p_held`` on a free slot, a live
 * block no started packet of its size owns, a started packet without
 * exactly one -- and one per summary of the table above, in its order.
 * Last, on a chip ``core.py`` counts as drained, what says it is not: a
 * whole-chip count of packets queued, sent or started, a flit in an
 * input buffer, the arrival or the ejection ring, a NIC transmission, a
 * source queue, an input VC not idle, an output or injection VC still
 * owned. */
#define CHIP_CHECKS(X) \
    X(ok) X(flit_twice_ivc) X(flit_twice_cred) X(occupancy_shadow) \
    X(occupancy_sync) X(occupancy_total) X(credit_range) X(credit_count) \
    X(pc_output_shared) X(pc_holder_sync) X(packet_double_free) \
    X(block_tiling) X(block_free_list) X(block_double_free) \
    X(flit_outside_ivc) X(flit_outside_cred) X(packet_named_free) \
    X(packet_leaked) X(packet_held_free) X(block_leaked) X(packet_blocks) \
    X(summary_ip_occ) X(summary_ip_act) X(summary_r_occ) X(summary_r_wait) \
    X(summary_r_map) X(summary_r_pcv) X(summary_r_pcinv) \
    X(summary_r_held) X(summary_op_credsum) \
    X(held_count) X(held_buffer) X(held_arrival) X(held_ejection) \
    X(held_send) X(held_queue) X(busy_input_vc) X(busy_output_vc)

/* ``walk``: the stepped cycles since ``run()``'s last walk, the walks it
 * made, the cycle of the last one, and what the last walk of either
 * caller found (a CHIP_CHECKS entry) with the index it is at and the
 * values expected and found there. */
#define CHIP_WALK(X) \
    X(tick) X(walks) X(cycle) X(check) X(index) X(expected) X(actual)

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
enum {
#define X(name) CK_##name,
    CHIP_CHECKS(X)
#undef X
    CK_COUNT
};
enum {
#define X(name) W_##name,
    CHIP_WALK(X)
#undef X
    W_COUNT
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
 * one; in the last two, the checked build's counts of front flits
 * examined not ready yet and examined at all. */
#define CHIP_COUNTS 16
enum {
#define X(name) N_##name,
    CHIP_EVENTS(X)
#undef X
    N_EVENTS, N_CAND = N_EVENTS, N_ORDER, N_ACTIVE, N_WORK, N_STAGED,
    N_LISTS,
    N_UNREADY = CHIP_COUNTS - 2, N_VISITS = CHIP_COUNTS - 1
};
_Static_assert(N_LISTS <= N_UNREADY, "n[] has no room for its last list");
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
    E_BOUNDS = -9               /* checked build: see err_id / err_idx */
};
/* Why ``run()`` came back, when it did not fail: its window is done,
 * the pools must grow before the next cycle, core.py must see the cycle
 * just run, its delivery callbacks must run before the rest of it, or
 * the walk found something at the end of a cycle (``walk``). */
enum { RUN_DONE, RUN_GROW, RUN_CYCLE, RUN_DELIVER, RUN_FOUND };

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
/* A scan examines the front flit of input VC ``ivc``: counted, and
 * counted again if it is one of this cycle's staged arrivals -- a flit
 * BW writes into its buffer later this cycle, not ready before the next
 * (the scans run before BW, so this never counts). */
static void visit(Chip *ch, i64 ivc)
{
    i64 front = A(buf_fid, ivc * ch->D + A(buf_head, ivc));
    A(n, N_VISITS)++;
    for (i64 j = 0; j < A(n, N_STAGED); j++)
        A(n, N_UNREADY) += A(in_fid, j) == front;
}
#define VISIT(ivc) visit(ch, (ivc))

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
#define VISIT(ivc) ((void)0)
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
    return &A(counts, A(r_lane, router) * NSTAT);
}

static i64 *terminal_counts(Chip *ch, i64 terminal)
{
    ENTER();
    return &A(counts, A(t_lane, terminal) * NSTAT);
}

static i64 now_ns(void)
{
    ENTER();
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (i64)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* Room for one more event of ``ring`` ``ahead`` cycles after the one
 * being run: the index to write it at in the ring's arrays (``room``
 * entries per slot). */
static i64 ring_put(Chip *ch, int ring, i64 ahead, i64 room)
{
    ENTER();
    if (ahead > ch->RD)
        return E_RING;
    i64 slot = ch->slot + ahead;
    if (slot >= ch->RD)
        slot -= ch->RD;
    i64 k = A(ring_n, ring * ch->RD + slot);
    if (k >= room)
        return E_RING;
    A(ring_n, ring * ch->RD + slot) = k + 1;
    return slot * room + k;
}

static i64 credit_return(Chip *ch, i64 ci)
{
    ENTER();
    i64 at = ring_put(ch, RING_CR, ch->CD, ch->NIP + ch->T);
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

/* arbiters.round_robin: lowest set bit at or after ``next``. */
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
    i64 r = A(ip_router, port), pbit = BIT(A(ip_local, port));
    i64 vbit = BIT(ivc - port * ch->V);
    i64 occ = PUT(A(ip_occ, port), vbit, A(buf_len, ivc) > 0);
    i64 act = PUT(A(ip_act, port), vbit, A(vc_state, ivc) == VC_ACTIVE);
    PUT(A(r_wait, r), pbit, occ & ~act);
    i64 ports = PUT(A(r_occ, r), pbit, occ);
    PUT(A(r_map, r >> 6), BIT(r & 63), ports);
}

/* VCAllocationPolicy.allocate over the output VCs at credit index
 * ``base``, inside the VC window of ``pk``'s route choice on local
 * output ``port`` (Po: the injection channel): the chosen VC or -1.
 * Dynamic takes the free VC with the most credits (lowest index on
 * ties); static takes the destination's designated VC, and the first
 * free one on an ejection port. */
static i64 policy_pick(Chip *ch, i64 base, i64 pk, i64 port, int eject)
{
    ENTER();
    i64 w = (A(p_choice, pk) * (ch->Po + 1) + port) * 2;
    i64 lo = A(vc_window, w), hi = A(vc_window, w + 1);
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
    COUNT(router_counts(ch, A(ip_router, port)), va_allocations) += 1;
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
    i64 r = A(ip_router, pp), local = A(ip_local, pp);
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
    i64 r = A(ip_router, port), *count = router_counts(ch, r), emptied = 0;
    if (fid < 0) {
        i64 head = A(buf_head, ivc);
        fid = A(buf_fid, ivc * ch->D + head);
        A(buf_head, ivc) = head + 1 == ch->D ? 0 : head + 1;
        emptied = (A(buf_len, ivc) -= 1) == 0;
        A(buf_shadow, ivc) -= 1;
        A(r_buffered, r) -= 1;
        A(state, S_buffered) -= 1;
        COUNT(count, buffer_reads) += 1;
    }
    TRY(credit_return(ch, A(ip_upbase, port) + (ivc - port * ch->V)));
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
    i64 ahead = 1 + delayed + A(op_latency, opid);
    if (A(op_eject, opid)) {
        i64 at = ring_put(ch, RING_EJ, ahead, ch->T);
        if (at < 0)
            return at;
        A(ej_term, at) = A(op_term, opid);
        A(ej_fid, at) = fid;
    } else {
        i64 at = ring_put(ch, RING_ARR, ahead, ch->NIP);
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
    i64 r = A(ip_router, port), local = A(ip_local, port);
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

/* MT19937's twist of word ``k`` of the state at ``mt`` from the next
 * word ``k1`` and the word ``km`` a shift of 397 ahead. */
#define TWIST(k, k1, km) \
    do { \
        u32 y_ = (A(src_mt, mt + (k)) & 0x80000000u) \
            | (A(src_mt, mt + (k1)) & 0x7fffffffu); \
        A(src_mt, mt + (k)) = A(src_mt, mt + (km)) ^ (y_ >> 1) \
            ^ (-(y_ & 1) & 0x9908b0dfu); \
    } while (0)

/* ``random.Random``'s next 32 bits: MT19937 over ``getstate()`` at ``mt``
 * (624 words, then the position), twisted in the reference's three
 * loops: the words whose partner 397 ahead is still old, the rest, the
 * last one. */
static u32 source_word(Chip *ch, i64 mt)
{
    ENTER();
    enum { N = 624, M = 397 };
    i64 pos = A(src_mt, mt + N);
    if (pos >= N) {
        i64 k = 0;
        for (; k < N - M; k++)
            TWIST(k, k + 1, k + M);
        for (; k < N - 1; k++)
            TWIST(k, k + 1, k + M - N);
        TWIST(N - 1, 0, M - 1);
        pos = 0;
    }
    u32 y = A(src_mt, mt + pos);
    A(src_mt, mt + N) = (u32)pos + 1;
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
            A(p_held, pk) = 0;
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
 * closes its packet -- counted, its latency into its lane's row of
 * ``hist`` -- whose slot and flit block go back to the pools reading
 * their initial values. A packet core.py holds a ``Packet`` for (which
 * it lets go of with the row), or whose latency is past the histogram's
 * last row, leaves a row in ``ej_out``; returns the rows. */
static i64 st_credit_eject(Chip *ch, i64 c, i64 slot)
{
    ENTER();
    i64 due = A(ring_n, RING_EJ * ch->RD + slot), rows = 0;
    i64 width = ch->n_hist / (ch->T / ch->TL);
    for (i64 k = 0; k < due; k++) {
        i64 t = A(ej_term, slot * ch->T + k), fid = A(ej_fid, slot * ch->T + k);
        TRY(credit_return(ch, A(ej_opid, t) * ch->V + A(f_vc, fid)));
        i64 pk = A(f_pkt, fid), got = A(p_rx, pk) + 1;
        A(p_rx, pk) = got;
        if (!A(f_tail, fid))
            continue;
        i64 size = A(p_size, pk), src = A(p_src, pk), late = -1;
        if (got != size)
            return E_TAIL_EARLY;
        i64 lane = A(t_lane, src), *count = terminal_counts(ch, src);
        COUNT(count, ejected_packets) += 1;
        COUNT(count, ejected_flits) += size;
        if (c >= A(lane_warmup, lane)) {
            i64 latency = c - A(p_create, pk);
            COUNT(count, measured_packets) += 1;
            COUNT(count, total_latency) += latency;
            COUNT(count, total_network_latency) += c - A(p_inject, pk);
            COUNT(count, total_hops) += A(p_hops, pk);
            if (latency < width)
                A(hist, lane * width + latency) += 1;
            else
                late = latency;
        }
        if (A(p_held, pk) || late >= 0) {
            i64 row = rows++ * EJ_WIDTH;
            A(ej_out, row + EJ_slot) = pk;
            A(ej_out, row + EJ_eject_cycle) = c;
            A(ej_out, row + EJ_inject_cycle) = A(p_inject, pk);
            A(ej_out, row + EJ_hops) = A(p_hops, pk);
            A(ej_out, row + EJ_sa_bypass_hops) = A(p_sa, pk);
            A(ej_out, row + EJ_buf_bypass_hops) = A(p_buf, pk);
            A(ej_out, row + EJ_latency) = late;
            A(ej_out, row + EJ_lane) = lane;
            A(ej_out, row + EJ_held) = A(p_held, pk);
        }
        A(outstanding, src) -= 1;
        A(state, S_started) -= 1;
        if (ch->events_on)
            A(ev_ej, A(n, N_ej)++) = t;
        A(p_inject, pk) = -1;
        A(p_hops, pk) = A(p_sa, pk) = A(p_buf, pk) = A(p_rx, pk) = 0;
        A(p_held, pk) = 0;
        A(p_free, A(state, S_p_free)++) = pk;
        i64 fid0 = fid - size + 1;
        for (i64 f = fid0; f <= fid; f++)
            A(f_vc, f) = -1;
        A(f_link, fid0) = A(fb_head, size);
        A(fb_head, size) = fid0;
    }
    A(ring_n, RING_EJ * ch->RD + slot) = 0;
    return rows;
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
    return A(n, N_STAGED) = due;
}

/* -- the router pipeline, in the order Router.step runs it --------------- */
/* (Each stage names the block of ``Router.step`` it mirrors.) */

/* va_sa: this cycle's router lists out of ``r_map`` and the staged
 * arrivals, then VA (Router.step, "VA"): route idle fronts and allocate
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
        i64 r = A(ip_router, A(in_dest, j));
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
                VISIT(ivc);
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
                i64 vc = policy_pick(ch, opid * V, pk, A(vc_out_port, ivc),
                                     A(op_eject, opid));
                if (vc >= 0)
                    grant_out_vc(ch, port, ivc, opid * V + vc, vc);
            }
        }
    }
    return 0;
}

/* pc: input ports whose circuit's VC has a matching front flit
 * (Router.step, "PC candidates"), ascending; mismatched and creditless
 * circuits are torn down on the way. */
static i64 pc_candidates(Chip *ch)
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
            VISIT(ivc);
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

/* va_sa: SA requests of every other active, credited VC as one VC mask
 * per input port (Router.step, "SA requests"). */
static void va_sa_requests(Chip *ch)
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
                VISIT(ivc);
                if (A(cred, A(vc_out_cred, ivc)) == 0)
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
 * joins SA this same cycle (Router.step, "circuit reuse"). */
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
    i64 opid, r = A(ip_router, port);
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
        i64 vc = policy_pick(ch, opid * ch->V, pk, out, A(op_eject, opid));
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
 * (Router.step, "BW"). */
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
        i64 len = A(buf_len, ivc), at = A(buf_head, ivc) + len;
        if (len >= ch->D)
            return E_BUFFER_OVERFLOW;
        A(buf_fid, ivc * ch->D + (at >= ch->D ? at - ch->D : at)) = fid;
        A(buf_len, ivc) = len + 1;
        A(buf_shadow, ivc) += 1;
#ifndef REPRO_SEED_STALE_SUMMARY
        if (!len)
            summarise(ch, port, ivc);
#endif
        i64 r = A(ip_router, port);
        A(r_buffered, r) += 1;
        A(state, S_buffered) += 1;
        COUNT(router_counts(ch, r), buffer_writes) += 1;
        if (ch->events_on)
            A(ev_bw, A(n, N_bw)++) = ivc;
    }
    return 0;
}

/* va_sa: separable input-first switch allocation over the requesting
 * ports, outputs served in first-requested order; every grant
 * traverses next cycle and (re-)establishes its pseudo-circuit
 * (Router.step, "switch allocation"). */
static i64 va_sa_switch(Chip *ch, i64 c)
{
    ENTER();
    i64 Pi = ch->Pi, V = ch->V, outputs = 0;
    for (i64 k = 0; k < A(n, N_ORDER); k++) {
        i64 port = A(order, k);
        i64 vc = rr_pick(A(port_mask, port), A(in_arb_next, port), V);
        A(port_mask, port) = 0;
        A(in_arb_next, port) = vc + 1 == V ? 0 : vc + 1;
        A(smap, port) = port * V + vc;
        i64 opid = A(vc_out_opid, port * V + vc);
        if (A(omask, opid) == 0)
            A(out_order, outputs++) = opid;
        A(omask, opid) |= BIT(A(ip_local, port));
    }
    A(n, N_ORDER) = 0;
    for (i64 k = 0; k < outputs; k++) {
        i64 opid = A(out_order, k), r = A(op_router, opid);
        i64 size = A(nip, r);
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
 * resolving ties (Router.step, "PC upkeep"). */
static void pc_maintenance(Chip *ch)
{
    ENTER();
    i64 Pi = ch->Pi, Po = ch->Po;
    for (i64 k = 0; k < A(n, N_WORK); k++) {
        /* Outputs some invalidated circuit still points at (a port
         * that names none -- a wrong bit -- is left to the walk's
         * ``summary_r_pcinv``). The terminations below only add
         * candidates at their own creditless port, so the snapshots
         * stay exact. */
        i64 r = A(work, k), held = A(r_held, r), cand_outs = 0;
        uint64_t inv = ch->pc_speculation ? (uint64_t)A(r_pcinv, r) : 0;
        uint64_t ports = inv;
        EACH_BIT(i, ports) {
            i64 out = A(pc_out_port, r * Pi + i);
            if (out >= 0)
                cand_outs |= BIT(out);
        }
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
    i64 vc = policy_pick(ch, base, pk, ch->Po, 0);
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
static i64 inject_send(Chip *ch, i64 t)
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
    i64 at = ring_put(ch, RING_ARR, 1, ch->NIP);
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

/* Cycle ``c`` of the whole chip up to and including its ejection stage:
 * the bound sources' injections, credit returns, the receiving NICs.
 * The rows it left in ``ej_out``, or an E_* code. */
static i64 cycle_eject(Chip *ch, i64 c)
{
    ENTER();
    TRY(source_tick(ch, c));
    i64 slot = ch->slot = c % ch->RD, mark = ch->profile_on ? now_ns() : 0;
    for (i64 k = 0; k < N_EVENTS; k++)
        A(n, k) = 0;
    A(n, N_UNREADY) = A(n, N_VISITS) = 0;
    st_credit_returns(ch, slot);
    i64 rows = st_credit_eject(ch, c, slot);
    if (rows < 0)
        return rows;
    STAMP(st_credit);
    RETURN(rows);
}

/* Whether one of the ``rows`` packets ``cycle_eject`` left in ``ej_out``
 * is one core.py held a ``Packet`` for. Its slot is free already, but
 * only the next cycle's sources or core.py take a slot. */
static int delivers(Chip *ch, i64 rows)
{
    ENTER();
    for (i64 k = 0; k < rows; k++)
        if (A(ej_out, k * EJ_WIDTH + EJ_held))
            return 1;
    return 0;
}

/* The rest of cycle ``c``: arrival staging, the router pipeline, the
 * NICs' start + send, then ``next_act``. 0 or an E_* code. */
static i64 cycle_rest(Chip *ch, i64 c)
{
    ENTER();
    i64 slot = ch->slot = c % ch->RD, mark = ch->profile_on ? now_ns() : 0;
    i64 n_arr = st_credit_stage(ch, slot);
    STAMP(st_credit);
    if (A(state, S_buffered) || n_arr) {
        TRY(va_sa_vcs(ch, c, n_arr));
        STAMP(va_sa);
        A(n, N_CAND) = 0;
        if (ch->pc_enabled)
            TRY(pc_candidates(ch));
        STAMP(pc);
        va_sa_requests(ch);
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
                TRY(inject_send(ch, t));
        }
        STAMP(inject);
    }
    /* The next cycle anything may happen in: the next one while a flit
     * or packet is buffered, queued or being sent (those act every
     * cycle), else the earliest any ring holds something for or an open
     * source injects in. */
    i64 next = c + 1;
    if (!(A(state, S_buffered) || A(state, S_queued) || A(state, S_sending))) {
        next = source_ahead(ch, c + 1);
        for (i64 ahead = 1, s = slot; ahead <= ch->RD; ahead++) {
            s = s + 1 == ch->RD ? 0 : s + 1;
            if (A(ring_n, RING_ARR * ch->RD + s)
                || A(ring_n, RING_EJ * ch->RD + s)
                || A(ring_n, RING_CR * ch->RD + s)) {
                if (next < 0 || c + ahead < next)
                    next = c + ahead;
                break;
            }
        }
    }
    A(state, S_next_act) = next;
    RETURN(0);
}

/* -- the entry point ------------------------------------------------------ */

static int quiescent(Chip *ch)
{
    ENTER();
    return !(A(state, S_queued) + A(state, S_started));
}

/* Whether the pools might not hold what cycle ``c`` takes: one start per
 * terminal (an open source may first queue a packet at each of its own),
 * each of at most the largest size seen, and a packet slot per open
 * source terminal. The sizes that would take are left in ``state``
 * (``need_flits``, ``need_packets``) for core.py to grow the pools to.
 * Asked once a cycle: a cycle the pools are still short for after that
 * runs, and fails by name (E_POOL) if it finds them full. */
static int pools_short(Chip *ch, i64 c)
{
    ENTER();
    if (A(state, S_asked) == c)
        return 0;
    A(state, S_asked) = c;
    i64 offered = 0;
    for (i64 lane = 0; lane < ch->T / ch->TL; lane++)
        if (c < A(src, lane * SRC_WIDTH + SRC_end))
            offered += ch->TL;
    i64 starts = A(state, S_queued) + offered;
    if (starts > ch->T)
        starts = ch->T;
    A(state, S_need_flits) = A(state, S_flits) + starts * (ch->n_fb_head - 1);
    A(state, S_need_packets) = A(state, S_packets) - A(state, S_p_free)
        + offered;
    return A(state, S_need_flits) > ch->n_f_pkt
        || A(state, S_need_packets) > ch->n_p_src;
}

i64 check_chip(Chip *ch, i64 shadow, i64 drained);

/* Cycles ``c``, ``c`` + 1, ... until ``stop`` -- with ``drain``, until
 * no packet is in flight or ``stop`` -- each by ``cycle_eject()`` then
 * ``cycle_rest()``, every ``check_stride``-th of them (while that is not
 * 0) then by the walk, ``check_chip()``. After a cycle in which nothing
 * is buffered, queued or being sent it skips to ``next_act`` (at most to
 * ``stop``; a drained chip stays where it is): the cycles in between
 * would change nothing and are not counted towards the stride.
 * A call never skips before its first cycle. Comes back RUN_DONE there,
 * or early for what only core.py can do: RUN_GROW before a cycle the
 * pools might not hold (``pools_short``; nothing of it run), RUN_DELIVER
 * in the middle of a cycle whose ejection stage closed a packet core.py
 * holds a ``Packet`` for while ``deliver_on`` (``state.half``; the call
 * after it, at that cycle, first finishes it, whatever its window, and
 * asks the pools again: the callbacks may have queued packets), RUN_CYCLE
 * after a cycle (and its skip) that left rows in ``ej_out`` or while an
 * observer is attached, RUN_FOUND after one (and its skip) whose walk
 * found something, or the E_* code of a cycle that failed (``state.cycle``
 * is that cycle). */
i64 run(Chip *ch, i64 c, i64 stop, i64 drain)
{
    ENTER();
    i64 rc = RUN_DONE;
    A(state, S_rows) = 0;
    while (A(state, S_half) || (c < stop && !(drain && quiescent(ch)))) {
        if (pools_short(ch, c)) {
            rc = RUN_GROW;
            break;
        }
        i64 rows = 0;
        if (A(state, S_half))
            A(state, S_half) = 0; /* its rows went back with RUN_DELIVER */
        else {
            rows = cycle_eject(ch, c);
            if (rows < 0) {
                rc = rows;
                break;
            }
            if (ch->deliver_on && delivers(ch, rows)) {
                A(state, S_half) = 1;
                A(state, S_asked) = -1;
                A(state, S_rows) = rows;
                rc = RUN_DELIVER;
                break;
            }
        }
        i64 done = cycle_rest(ch, c);
        if (!done && ch->check_stride
            && ++A(walk, W_tick) >= ch->check_stride) {
            A(walk, W_tick) = 0;
            A(walk, W_walks) += 1;
            A(walk, W_cycle) = c;
            done = check_chip(ch, 1, 0);
        }
        if (done < 0) {
            rc = done;
            break;
        }
        c += 1;
        A(state, S_stepped) += 1;
        A(state, S_rows) = rows;
        i64 to = A(state, S_next_act);
        if (to < 0 || to > stop)
            to = stop;
        if (to > c && !(drain && quiescent(ch))) {
            A(state, S_skipped) += to - c;
            c = to;
        }
        if (done || rows || ch->events_on) {
            rc = done ? RUN_FOUND : RUN_CYCLE;
            break;
        }
    }
    A(state, S_cycle) = c;
    RETURN(rc);
}

/* -- the invariant walk ---------------------------------------------------- */

/* What the walk found: ``walk`` takes the CHIP_CHECKS entry, the index it
 * is at and the values expected and found there. */
#define FOUND(check, at, want, have) \
    do { \
        A(walk, W_index) = (at); \
        A(walk, W_expected) = (want); \
        A(walk, W_actual) = (have); \
        A(walk, W_check) = CK_##check; \
        RETURN(CK_##check); \
    } while (0)
/* A part of the walk, whose finding (or bounds fault) ends it. */
#define WALK(call) \
    do { \
        i64 found_ = (call); \
        if (found_) \
            return found_; \
    } while (0)
/* Bit ``i`` set if ``cond``. */
#define BIT_IF(cond, i) ((i64)((uint64_t)!!(cond) << (i)))

/* The marks the walk counts in, zero again when it returns: a flit's
 * ``f_mark`` counts the places holding its id (F_HELD each) and the free
 * lists holding its block (F_FREE each);
 * a packet slot's ``p_mark`` counts the free stack's entries naming it
 * (P_FREE each), then notes that the chip names it and counts the blocks
 * it owns. */
enum { F_FREE = 1, F_HELD = 1 << 16, F_FREES = F_HELD - 1 };
enum { P_FREE = 1, P_NAMED = 1 << 16, P_BLOCK = 1 << 17 };

/* What a walk learns on the way. From the census of the routers, the
 * first element each summary is wrong at -- a port (``ip_*``), a router
 * (``r_*``), an ``r_map`` word, an output (``op_credsum``) -- the first
 * router whose ``r_buffered`` is wrong, the first output two valid
 * circuits share and whose holder register is wrong (-1: none), the
 * flits buffered and the ports holding one, listed ascending in
 * ``cand_ip``. Then the lowest flit id held twice (-1: none), whether at
 * a credit index, and where; the flit ids ``f_mark`` counts end before
 * ``marked``. */
typedef struct Walk {
    i64 ip_occ, ip_act, r_occ, r_wait, r_map, r_pcv, r_pcinv, r_held;
    i64 op_credsum, sync, shared, holder, total, ports;
    i64 twice, twice_cred, twice_at, marked;
} Walk;

/* Router ``r`` as its state has it: the flits buffered, the ports
 * ``r_occ``, ``r_wait``, ``r_pcv`` and ``r_pcinv`` should name, the outputs
 * ``r_held`` should, the outputs two valid circuits share, each output's
 * holder by the circuits (the highest port) and the sum of its credits;
 * the lowest of its ports whose ``ip_occ`` or ``ip_act`` is wrong (-1:
 * none). A router with no flit and no active VC is seen by its sums. */
typedef struct Router {
    i64 flits, occs, waits, valid, invalid, held, shared, bad_occ, bad_act;
    i64 holder[64], credits[64];
} Router;

static void router_census(Chip *ch, i64 r, Router *at)
{
    ENTER();
    i64 Pi = ch->Pi, Po = ch->Po, V = ch->V, busy = 0, seen = 0;
    at->flits = at->occs = at->waits = at->valid = at->invalid = 0;
    at->held = at->shared = 0;
    at->bad_occ = at->bad_act = -1;
    for (i64 ivc = r * Pi * V; ivc < (r + 1) * Pi * V; ivc++)
        busy |= A(buf_len, ivc) | A(vc_state, ivc);
    for (i64 p = Pi - 1; p >= 0; p--) {
        i64 port = r * Pi + p, occ = 0, act = 0;
        for (i64 v = V - 1; busy && v >= 0; v--) {
            i64 ivc = port * V + v, len = A(buf_len, ivc);
            at->flits += len;
            occ = occ << 1 | (len > 0);
            act = act << 1 | (A(vc_state, ivc) == VC_ACTIVE);
        }
        if (occ != A(ip_occ, port))
            at->bad_occ = port;
        if (act != A(ip_act, port))
            at->bad_act = port;
        at->occs = at->occs << 1 | (occ != 0);
        at->waits = at->waits << 1 | ((occ & ~act) != 0);
        at->valid = at->valid << 1 | A(pc_valid, port);
        at->invalid = at->invalid << 1
            | (!A(pc_valid, port) && A(pc_in_vc, port) >= 0);
    }
    for (i64 out = 0; out < Po; out++) {
        at->holder[out] = -1;
        at->credits[out] = 0;
        for (i64 v = 0; v < V; v++)
            at->credits[out] += A(cred, (r * Po + out) * V + v);
    }
    for (i64 p = 0; p < Pi; p++) {
        i64 out = A(pc_out_port, r * Pi + p);
        if (A(pc_valid, r * Pi + p) && out >= 0 && out < Po) {
            at->shared |= seen & BIT(out);
            seen |= BIT(out);
            at->holder[out] = p;
        }
    }
    for (i64 out = Po - 1; out >= 0; out--)
        at->held = at->held << 1 | (A(op_holder, r * Po + out) != -1);
}

/* The census: every router's, noting in ``w`` the first element each
 * summary, cache and circuit rule is wrong at, the chip's flits and the
 * ports holding one. */
static void census(Chip *ch, Walk *w)
{
    ENTER();
    i64 map = 0, Po = ch->Po;
    Router at;
#define NOTE(rule, wrong, where) \
    if ((wrong) && w->rule < 0) \
        w->rule = (where)
    for (i64 r = 0; r < ch->R; r++) {
        router_census(ch, r, &at);
        w->total += at.flits;
        uint64_t ports = (uint64_t)at.occs;
        EACH_BIT(p, ports)
            A(cand_ip, w->ports++) = r * ch->Pi + p;
        NOTE(ip_occ, at.bad_occ >= 0, at.bad_occ);
        NOTE(ip_act, at.bad_act >= 0, at.bad_act);
        NOTE(sync, at.flits != A(r_buffered, r), r);
        NOTE(r_occ, at.occs != A(r_occ, r), r);
        NOTE(r_wait, at.waits != A(r_wait, r), r);
        NOTE(r_pcv, at.valid != A(r_pcv, r), r);
        NOTE(r_pcinv, at.invalid != A(r_pcinv, r), r);
        NOTE(r_held, at.held != A(r_held, r), r);
        NOTE(shared, at.shared, r * Po + __builtin_ctzll(at.shared));
        for (i64 out = 0; out < Po; out++) {
            NOTE(holder, A(op_holder, r * Po + out) != at.holder[out],
                 r * Po + out);
            NOTE(op_credsum, A(op_credsum, r * Po + out) != at.credits[out],
                 r * Po + out);
        }
        map |= BIT_IF(at.occs, r & 63);
        if ((r & 63) == 63 || r + 1 == ch->R) {
            NOTE(r_map, map != A(r_map, r >> 6), r >> 6);
            map = 0;
        }
    }
#undef NOTE
}

/* What ``refs`` does with each flit id the chip holds: counts it, or
 * finds it outside every live block and names its packet. */
enum { REF_COUNT, REF_LIVE };

/* Flit id ``fid``, held at ``at`` (an input VC; a credit index if
 * ``cred``), for ``refs``' ``job``: COUNT counts it in ``f_mark`` and
 * keeps the lowest id met a second time in ``w``; LIVE finds it outside
 * every live block (``f_mark`` counts each flit's block on the free
 * lists), else marks its packet named. */
#define REF(job, fid, cred, at) \
    do { \
        i64 fid_ = (fid); \
        if (job == REF_COUNT) { \
            if (fid_ >= 0 && fid_ < ch->n_f_mark) { \
                w->marked = fid_ < w->marked ? w->marked : fid_ + 1; \
                if ((A(f_mark, fid_) += F_HELD) / F_HELD == 2 \
                    && (w->twice < 0 || fid_ < w->twice)) { \
                    w->twice = fid_; \
                    w->twice_cred = (cred); \
                    w->twice_at = (at); \
                } \
            } \
        } else if (fid_ < 0 || fid_ >= n || A(f_mark, fid_) & F_FREES) { \
            if (cred) \
                FOUND(flit_outside_cred, at, 0, fid_); \
            FOUND(flit_outside_ivc, at, 0, fid_); \
        } else if (A(f_pkt, fid_) >= 0 && A(f_pkt, fid_) < ch->n_p_mark) \
            A(p_mark, A(f_pkt, fid_)) |= P_NAMED; \
    } while (0)

/* Every flit id the chip holds, for ``job`` (``REF``), in the sweep's
 * order: the input buffers (VCs ascending, front first), the arrival and
 * the ejection ring (slots ascending), and but for COUNT the NICs' send
 * slots (the next flit of each, then the last). */
static i64 refs(Chip *ch, Walk *w, int job)
{
    ENTER();
    i64 V = ch->V, D = ch->D, RD = ch->RD, NIP = ch->NIP, T = ch->T;
    i64 n = A(state, S_flits);
    for (i64 j = 0; j < w->ports; j++)
        for (i64 ivc = A(cand_ip, j) * V; ivc < (A(cand_ip, j) + 1) * V; ivc++)
            for (i64 k = 0, len = A(buf_len, ivc); k < len && k < D; k++)
                REF(job, A(buf_fid, ivc * D + (A(buf_head, ivc) + k) % D), 0,
                    ivc);
    for (i64 s = 0; s < RD; s++)
        for (i64 k = 0, due = A(ring_n, RING_ARR * RD + s); k < due; k++) {
            i64 fid = A(arr_fid, s * NIP + k);
            REF(job, fid, 0, A(arr_port, s * NIP + k) * V + A(f_vc, fid));
        }
    for (i64 s = 0; s < RD; s++)
        for (i64 k = 0, due = A(ring_n, RING_EJ * RD + s); k < due; k++) {
            i64 fid = A(ej_fid, s * T + k);
            REF(job, fid, 1,
                A(ej_opid, A(ej_term, s * T + k)) * V + A(f_vc, fid));
        }
    for (i64 last = 0; job != REF_COUNT && last < 2; last++)
        for (i64 k = 0; k < T * V; k++)
            if (A(snd_left, k) > 0)
                REF(job, A(snd_next, k) + last * (A(snd_left, k) - 1), 1,
                    ch->NOVC + k);
    RETURN(0);
}
#undef REF

/* Conservation: no flit id held twice (send slots aside: one naming a
 * single flit names it twice), each VC holding what its buffer was
 * written less what was read (``shadow``: while a checker keeps
 * ``buf_shadow``), the occupancy caches agreeing with ``buf_len``. */
static i64 walk_flits(Chip *ch, Walk *w, i64 shadow)
{
    ENTER();
    i64 NIVC = ch->NIP * ch->V;
    Router at;
    WALK(refs(ch, w, REF_COUNT));
    if (w->twice >= 0) {
        if (w->twice_cred)
            FOUND(flit_twice_cred, w->twice_at, 1, w->twice);
        FOUND(flit_twice_ivc, w->twice_at, 1, w->twice);
    }
    if (shadow && memcmp(ch->buf_len, ch->buf_shadow,
                         (size_t)NIVC * sizeof *ch->buf_len))
        for (i64 ivc = 0; ivc < NIVC; ivc++)
            if (A(buf_len, ivc) != A(buf_shadow, ivc))
                FOUND(occupancy_shadow, ivc, A(buf_shadow, ivc),
                      A(buf_len, ivc));
    if (w->sync >= 0) {
        router_census(ch, w->sync, &at);
        FOUND(occupancy_sync, w->sync, at.flits, A(r_buffered, w->sync));
    }
    if (w->total != A(state, S_buffered))
        FOUND(occupancy_total, 0, w->total, A(state, S_buffered));
    RETURN(0);
}

/* Credit counter ``ci`` owed ``k`` more, for ``owed``: ``sign`` times that
 * added to it; with ``sign`` 0, the lowest such counter below 0 kept in
 * ``low``. */
static void owe(Chip *ch, i64 ci, i64 k, i64 sign, i64 *low)
{
    ENTER();
    A(cred, ci) += sign * k;
    if (!sign && A(cred, ci) < 0 && (*low < 0 || ci < *low))
        *low = ci;
}

/* ``owe`` each credit counter what it is owed: the flits buffered
 * downstream of it, on the link toward it and in the ejection ring from
 * it, and the returns still due to it. */
static void owed(Chip *ch, const Walk *w, i64 sign, i64 *low)
{
    ENTER();
    i64 V = ch->V, RD = ch->RD, NIP = ch->NIP, T = ch->T;
    for (i64 j = 0; j < w->ports; j++) {
        i64 port = A(cand_ip, j), up = A(ip_upbase, port);
        for (i64 v = 0; up >= 0 && v < V; v++)
            if (A(buf_len, port * V + v) > 0)
                owe(ch, up + v, A(buf_len, port * V + v), sign, low);
    }
    for (i64 s = 0; s < RD; s++) {
        for (i64 k = 0; k < A(ring_n, RING_ARR * RD + s); k++)
            owe(ch, A(ip_upbase, A(arr_port, s * NIP + k))
                + A(f_vc, A(arr_fid, s * NIP + k)), 1, sign, low);
        for (i64 k = 0; k < A(ring_n, RING_EJ * RD + s); k++)
            owe(ch, A(ej_opid, A(ej_term, s * T + k)) * V
                + A(f_vc, A(ej_fid, s * T + k)), 1, sign, low);
        for (i64 k = 0; k < A(ring_n, RING_CR * RD + s); k++)
            owe(ch, A(cr_ci, s * (NIP + T) + k), 1, sign, low);
    }
}

/* Credits: each counter within [0, its start value], and that value less
 * what it is owed. When every counter plus what it is owed is its start
 * value, only one owed something can be out of range, below 0. */
static i64 walk_credits(Chip *ch, const Walk *w)
{
    ENTER();
    i64 NCRED = ch->n_cred, wrong = 0, plus = 0, low = -1;
    owed(ch, w, 1, &low);
    int right = !memcmp(ch->cred, ch->cred_init,
                        (size_t)NCRED * sizeof *ch->cred);
    owed(ch, w, -1, &low);
    if (right) {
        owed(ch, w, 0, &low);
        if (low >= 0)
            FOUND(credit_range, low, A(cred_init, low), A(cred, low));
        RETURN(0);
    }
    for (i64 ci = 0; ci < NCRED; ci++)
        if (A(cred, ci) < 0 || A(cred, ci) > A(cred_init, ci))
            FOUND(credit_range, ci, A(cred_init, ci), A(cred, ci));
    owed(ch, w, 1, &low);
    while (wrong < NCRED && A(cred, wrong) == A(cred_init, wrong))
        wrong++;
    plus = A(cred, wrong);
    owed(ch, w, -1, &low);
    FOUND(credit_count, wrong,
          A(cred_init, wrong) - (plus - A(cred, wrong)), A(cred, wrong));
}

/* Pseudo-circuits: valid ones on distinct outputs, whose holder
 * registers name them (the highest port, were two on one), as the
 * census found them. */
static i64 walk_circuits(Chip *ch, const Walk *w)
{
    ENTER();
    Router at;
    if (w->shared >= 0)
        FOUND(pc_output_shared, w->shared, 0, 0);
    if (w->holder >= 0) {
        router_census(ch, w->holder / ch->Po, &at);
        FOUND(pc_holder_sync, w->holder, at.holder[w->holder % ch->Po],
              A(op_holder, w->holder));
    }
    RETURN(0);
}

/* The length of the flit block that starts at ``f0``, -1 if none does
 * (``f0`` outside the high-water mark ``n``, or no head). Asked once the
 * blocks are known to tile the pool, so a tail ends the run. */
static i64 block_size(Chip *ch, i64 f0, i64 n)
{
    ENTER();
    if (f0 < 0 || f0 >= n || !A(f_head, f0))
        return -1;
    i64 f = f0;
    while (!A(f_tail, f))
        f++;
    return f - f0 + 1;
}

/* The pools: every packet slot below the high-water mark live or on the
 * free stack once, the blocks tiling the flit pool up to its mark and on
 * the free list of their size at most once; every flit id held in a live
 * block; the live slots exactly those the chip names (a held flit's
 * packet, a transmission's, a queued one) and those ``p_held`` marks
 * among them; each live block owned by a started packet of its size,
 * each started packet owning one. Of the slots and blocks counted most
 * often on the free stacks, the lowest is the one named twice. */
static i64 walk_pools(Chip *ch, Walk *w)
{
    ENTER();
    i64 hwm = A(state, S_packets), n = A(state, S_flits);
    i64 pcap = ch->n_p_mark, most = 0, at = -1, leaked = -1;
    for (i64 k = 0; k < A(state, S_p_free); k++) {
        i64 pk = A(p_free, k), seen;
        if (pk < 0 || pk >= pcap)
            continue;
        seen = A(p_mark, pk) += P_FREE;
        if (seen > most || (seen == most && pk < at)) {
            most = seen;
            at = pk;
        }
    }
    if (most > 1)
        FOUND(packet_double_free, at, 0, at);
    if (n && (!A(f_head, 0) || !A(f_tail, n - 1)
              || memcmp(ch->f_tail, ch->f_head + 1, (size_t)n - 1)))
        FOUND(block_tiling, 0, n, 0);
    most = 0;
    for (i64 size = 0; size < ch->n_fb_head; size++)
        for (i64 f0 = A(fb_head, size), k = 0; f0 >= 0 && k <= n; k++) {
            if (block_size(ch, f0, n) != size)
                FOUND(block_free_list, f0, size, f0);
            for (i64 f = f0 + 1; f < f0 + size; f++)
                A(f_mark, f) += F_FREE;
            i64 seen = (A(f_mark, f0) += F_FREE) & F_FREES;
            if (seen > most || (seen == most && f0 < at)) {
                most = seen;
                at = f0;
            }
            f0 = A(f_link, f0);
        }
    if (most > 1)
        FOUND(block_double_free, at, 0, at);
    WALK(refs(ch, w, REF_LIVE));
    for (i64 k = 0; k < ch->T * ch->V; k++)
        if (A(snd_left, k) > 0 && A(snd_pid, k) >= 0 && A(snd_pid, k) < pcap)
            A(p_mark, A(snd_pid, k)) |= P_NAMED;
    for (i64 t = 0, seen = 0; A(state, S_queued) && t < ch->T; t++)
        for (i64 pk = A(q_len, t) > 0 ? A(q_head, t) : -1;
             pk >= 0 && pk < hwm && seen <= hwm; pk = A(p_next, pk), seen++)
            A(p_mark, pk) |= P_NAMED;
#define LIVE(k) ((k) < hwm && !(A(p_mark, k) & P_FREE))
    for (i64 f0 = 0, size; leaked < 0 && f0 < n; f0 += size) {
        size = block_size(ch, f0, n);
        i64 pk = A(f_pkt, f0);
        if (A(f_mark, f0) & F_FREES)
            continue;
        if (pk < 0 || pk >= pcap || !LIVE(pk) || A(p_inject, pk) < 0
            || A(p_size, pk) != size || A(f_pkt, f0 + size - 1) != pk)
            leaked = f0;
        else
            A(p_mark, pk) += P_BLOCK;
    }
    /* The first slot wrong by each rule: named but not live, live but
     * not named, held but not live, owning other than one block. Past
     * the high-water mark no slot is live or owns a block: only one
     * named or held there is wrong. */
    i64 first[4] = {-1, -1, -1, -1};
    for (i64 k = 0; k < pcap; k++) {
        if (k >= hwm && !A(p_mark, k) && !A(p_held, k))
            continue;
        i64 mark = A(p_mark, k), live = LIVE(k);
        int named = !!(mark & P_NAMED), wrong[4] = {
            named && !live, live && !named, A(p_held, k) && !live,
            mark / P_BLOCK != (live && A(p_inject, k) >= 0)};
        for (int rule = 0; rule < 4; rule++)
            if (wrong[rule] && first[rule] < 0)
                first[rule] = k;
    }
#undef LIVE
    if (first[0] >= 0)
        FOUND(packet_named_free, first[0], 0, first[0]);
    if (first[1] >= 0)
        FOUND(packet_leaked, first[1], 0, first[1]);
    if (first[2] >= 0)
        FOUND(packet_held_free, first[2], 0, first[2]);
    if (leaked >= 0)
        FOUND(block_leaked, leaked, block_size(ch, leaked, n), leaked);
    if (first[3] >= 0)
        FOUND(packet_blocks, first[3], 1, A(p_mark, first[3]) / P_BLOCK);
    RETURN(0);
}

/* The summaries, each against the state it summarises (``kernel.summaries``
 * states the same), as the census found them. */
static i64 walk_summaries(Chip *ch, const Walk *w)
{
    ENTER();
    i64 V = ch->V, Po = ch->Po;
    Router at;
    if (w->ip_occ >= 0 || w->ip_act >= 0) {
        i64 port = w->ip_occ >= 0 ? w->ip_occ : w->ip_act, occ = 0, act = 0;
        for (i64 v = 0; v < V; v++) {
            occ |= BIT_IF(A(buf_len, port * V + v) > 0, v);
            act |= BIT_IF(A(vc_state, port * V + v) == VC_ACTIVE, v);
        }
        if (w->ip_occ >= 0)
            FOUND(summary_ip_occ, port, occ, A(ip_occ, port));
        FOUND(summary_ip_act, port, act, A(ip_act, port));
    }
#define RECOUNT(rule, value)     if (w->rule >= 0) {         router_census(ch, w->rule, &at);         FOUND(summary_##rule, w->rule, at.value, A(rule, w->rule));     }
    RECOUNT(r_occ, occs)
    RECOUNT(r_wait, waits)
    if (w->r_map >= 0) {
        i64 map = 0;
        for (i64 r = w->r_map * 64; r < ch->R && r < (w->r_map + 1) * 64;
             r++) {
            router_census(ch, r, &at);
            map |= BIT_IF(at.occs, r & 63);
        }
        FOUND(summary_r_map, w->r_map, map, A(r_map, w->r_map));
    }
    RECOUNT(r_pcv, valid)
    RECOUNT(r_pcinv, invalid)
    RECOUNT(r_held, held)
#undef RECOUNT
    if (w->op_credsum >= 0) {
        router_census(ch, w->op_credsum / Po, &at);
        FOUND(summary_op_credsum, w->op_credsum,
              at.credits[w->op_credsum % Po], A(op_credsum, w->op_credsum));
    }
    RETURN(0);
}

/* A chip core.py counts as drained holds nothing: no packet queued, sent
 * or started by the whole-chip counts, no flit in a buffer, a ring or a
 * send slot, no source queue, every VC free. */
static i64 walk_drained(Chip *ch)
{
    ENTER();
    i64 V = ch->V, NIP = ch->NIP, RD = ch->RD, T = ch->T;
    for (i64 s = S_queued; s <= S_started; s++) /* ..., sending, started */
        if (A(state, s))
            FOUND(held_count, s, 0, A(state, s));
    for (i64 ivc = 0; ivc < NIP * V; ivc++)
        if (A(buf_len, ivc))
            FOUND(held_buffer, ivc, 0, A(buf_len, ivc));
    for (i64 s = 0; s < RD; s++) {
        if (A(ring_n, RING_ARR * RD + s))
            FOUND(held_arrival, A(arr_port, s * NIP), 0, A(arr_fid, s * NIP));
        if (A(ring_n, RING_EJ * RD + s))
            FOUND(held_ejection, A(ej_term, s * T), 0, A(ej_fid, s * T));
    }
    for (i64 t = 0; t < T; t++) {
        for (i64 v = 0; v < V; v++)
            if (A(snd_left, t * V + v))
                FOUND(held_send, ch->NOVC + t * V + v, 0,
                      A(snd_left, t * V + v));
        if (A(q_len, t) || A(q_head, t) >= 0)
            FOUND(held_queue, t, 0, A(q_len, t));
    }
    for (i64 ivc = 0; ivc < NIP * V; ivc++)
        if (A(vc_state, ivc) != VC_IDLE)
            FOUND(busy_input_vc, ivc, VC_IDLE, A(vc_state, ivc));
    for (i64 ci = 0; ci < ch->n_cred; ci++)
        if (!A(cred_free, ci))
            FOUND(busy_output_vc, ci, 1, 0);
    RETURN(0);
}

/* The walk: every rule of the array core, checked over the whole chip in
 * the order CHIP_CHECKS lists them, answering the first finding (``walk``
 * records it) or ``ok``. ``shadow``: a checker has kept ``buf_shadow``
 * since it was attached; ``drained``: the chip is one ``core.py`` counts
 * as drained (no packet queued or started, none held), which must hold
 * nothing. ``run()`` walks the live chip every ``check_stride`` stepped
 * cycles; ``core.py`` walks it when a run ends. What it writes -- the
 * credit counters, the marks -- it sets back; it keeps ``walk`` and the
 * occupied ports it listed in ``cand_ip``, SA's scratch, which the next
 * cycle fills again before it reads it. */
i64 check_chip(Chip *ch, i64 shadow, i64 drained)
{
    ENTER();
    Walk w = {-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0,
              -1, 0, 0, 0};
    census(ch, &w);
    A(walk, W_check) = CK_ok;
    i64 found = walk_flits(ch, &w, shadow);
    if (!found)
        found = walk_credits(ch, &w);
    if (!found && ch->pc_enabled)
        found = walk_circuits(ch, &w);
    if (!found)
        found = walk_pools(ch, &w);
    i64 n = A(state, S_flits);
    n = w.marked > n ? w.marked : n;
    memset(ch->p_mark, 0, (size_t)ch->n_p_mark * sizeof *ch->p_mark);
    memset(ch->f_mark, 0, (size_t)(n < ch->n_f_mark ? n : ch->n_f_mark)
           * sizeof *ch->f_mark);
    WALK(found);
    WALK(walk_summaries(ch, &w));
    if (drained)
        WALK(walk_drained(ch));
    RETURN(CK_ok);
}

#ifdef REPRO_KERNEL_CHECK
_Static_assert(__COUNTER__ <= REACH_SITES, "more ENTER() sites than slots");
#endif
