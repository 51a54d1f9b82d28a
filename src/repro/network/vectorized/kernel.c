/* The array core's closed router step, compiled.
 *
 * One translation unit, built on first use by ``kernel.py`` with the
 * system C compiler and called through ``ctypes``. Each entry point is
 * one phase of ``VectorNetwork._step_routers`` (``core.py``), named
 * after the phase timer it is billed to (``va_sa_*``, ``pc_*``,
 * ``st_credit_*``, ``bw_*``), and is written as the plain loops of the
 * scalar reference, ``network/router.py``, over the structure-of-arrays
 * state: routers ascending, input ports in the scalar visit order, VCs
 * ascending, one flit at a time. The numpy phases it stands in for
 * reach the same state with whole-chip sort and mask passes; both are
 * held bit-identical to the scalar core by the parity suites.
 *
 * Contract ("arrays in, arrays out"): every entry point takes the
 * ``Chip`` -- pointers to flat int64 / one-byte bool arrays plus a few
 * sizes and scheme flags, filled once per network by ``kernel.py`` --
 * the cycle and the number of staged arrivals. It touches no Python
 * object, allocates nothing and keeps no state of its own between
 * calls: what one phase leaves for the next (work set, candidates, SA
 * requests) lives in scratch arrays of the ``Chip``. Events come back
 * in caller-owned buffers with their lengths in ``n[]``: the same index
 * arrays the numpy phases hand to the ``_count_*`` stats hooks, the
 * observer hooks and the arrival / ejection / credit calendars. The
 * return value is the number of events written, or a negative ``E_*``
 * code that ``core.py`` raises as the error the numpy phase would have
 * raised.
 *
 * With -DREPRO_KERNEL_CHECK (the test suite's build) every array access
 * goes through ``A()``'s bounds check: an index outside its array is
 * recorded (``err_id``, ``err_idx``), the access is redirected to
 * element 0 and the entry point returns ``E_BOUNDS``. The release build
 * compiles ``A()`` to the bare access.
 */

#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef uint8_t u8; /* numpy bool: one byte, 0 or 1 */

/* Bumped with any change to the Chip layout, n[] or an entry point's
 * meaning; kernel.py refuses a library that answers another number. */
#define REPRO_KERNEL_ABI 2001

/* Every array of the Chip: X(element type, name, owner). kernel.py
 * reads this list (it is the only statement of the struct layout) and
 * fills a pointer and a length per entry. Owner NET is an array of the
 * network or its layout, looked up by name; any other owner is the size
 * class of a buffer kernel.py allocates for this network, uninitialised:
 * a phase reads nothing there that it or an earlier phase of the same
 * cycle has not written. */
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
    /* packet and flit pools (re-filled when a pool grows) */ \
    X(i64, p_dst, NET) \
    X(i64, p_choice, NET) \
    X(i64, p_hops, NET) \
    X(i64, p_sa, NET) \
    X(i64, p_buf, NET) \
    X(i64, p_pair, NET) \
    X(i64, f_pkt, NET) \
    X(u8, f_head, NET) \
    X(u8, f_tail, NET) \
    X(i64, f_vc, NET) \
    X(i64, f_ready, NET) \
    /* layout: wiring and routing tables */ \
    X(i64, nip, NET) \
    X(u8, op_valid, NET) \
    X(i64, op_latency, NET) \
    X(i64, op_link, NET) \
    X(i64, op_dest, NET) \
    X(u8, op_eject, NET) \
    X(i64, op_term, NET) \
    X(i64, ip_upbase, NET) \
    X(i64, route_out, NET) \
    X(i64, route_lo, NET) \
    X(i64, route_hi, NET) \
    /* staged arrivals, in ascending link order */ \
    X(i64, in_dest, NIP) \
    X(i64, in_fid, NIP) \
    /* the network's SA scratch, all zero between cycles: request VC \
     * mask per input port, input mask per output, stage-1 winner */ \
    X(i64, port_mask, NET) \
    X(i64, omask, NET) \
    X(i64, smap, NET) \
    /* scratch handed from phase to phase within one cycle */ \
    X(u8, work, R) \
    X(i64, cand_ip, NIP) \
    X(i64, cand_ivc, NIP) \
    X(i64, order, NIP) \
    X(u8, claimed_ip, NIP) \
    X(u8, claimed_op, NOP) \
    X(i64, out_order, NOP) \
    /* events, lengths in n[] */ \
    X(i64, n, COUNTS) \
    X(i64, va_ivc, NIVC) \
    X(i64, t_ivc, NIP) \
    X(i64, t_port, NIP) \
    X(u8, t_xrep, NIP) \
    X(i64, h_port, NIP) \
    X(u8, h_e2e, NIP) \
    X(i64, cr_idx, NIP) \
    X(i64, a_cycle, NIP) \
    X(i64, a_link, NIP) \
    X(i64, a_dest, NIP) \
    X(i64, a_fid, NIP) \
    X(i64, e_cycle, NIP) \
    X(i64, e_term, NIP) \
    X(i64, e_fid, NIP) \
    X(i64, term, NIP4) \
    X(i64, est_port, NIP) \
    X(u8, est_ref, NIP) \
    X(i64, rest_op, NOP) \
    X(i64, bw_ivc, NIP)

/* Sizes, scheme flags and the checked build's fault record. */
#define CHIP_SCALARS(X) \
    X(R) X(Pi) X(Po) X(V) X(D) X(C) X(TL) X(NIP) \
    X(static_vc) X(pc_enabled) X(pc_speculation) X(pc_bypass) \
    X(err_id) X(err_idx)

typedef struct Chip {
#define X(T, name, owner) T *name; i64 n_##name;
    CHIP_ARRAYS(X)
#undef X
#define X(name) i64 name;
    CHIP_SCALARS(X)
#undef X
} Chip;

/* n[]: event counts first (cleared on entry to every phase), then what
 * the flush in core.py needs to file the traversals, then the lengths
 * of the scratch lists that outlive a phase. */
enum {
    N_VA, N_TRAV, N_HEAD, N_ARR, N_EJ, N_BW, N_EST, N_REST,
    N_TERM, /* one per termination reason, T_* below */
    N_VIA = N_TERM + 4, N_ARR_LO, N_ARR_HI, N_EJ_LO, N_EJ_HI,
    N_EVENTS,
    N_CAND = N_EVENTS, N_ORDER
};
/* repro.core.pseudo_circuit.Termination, in declaration order. */
enum { T_CONFLICT_OUTPUT, T_CONFLICT_INPUT, T_ROUTE_MISMATCH, T_NO_CREDIT };
/* How a flit reached the crossbar: the ``via`` of ``on_traverse``. */
enum { VIA_SA, VIA_PC, VIA_BUF };
/* vc.VCState */
enum { VC_IDLE, VC_VA, VC_ACTIVE };

enum {
    E_BODY_AT_IDLE_FRONT = -1,  /* body flit at the front of an idle VC */
    E_BODY_ON_INACTIVE = -2,    /* body flit on inactive VC */
    E_HEAD_ON_ALLOCATED = -3,   /* head flit arrived on a still-allocated VC */
    E_BODY_ARRIVED_INACTIVE = -4, /* body flit arrived on an inactive VC */
    E_BUFFER_OVERFLOW = -5,     /* flit buffer overflow */
    E_BOUNDS = -9               /* checked build: see err_id / err_idx */
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
#else
#define A(name, i) (ch->name[(i)])
#define RETURN(value) return (value)
#endif

i64 repro_kernel_abi(void) { return REPRO_KERNEL_ABI; }
i64 repro_kernel_sizeof_chip(void) { return (i64)sizeof(Chip); }

/* -- shared pieces ------------------------------------------------------ */

static void clear_events(Chip *ch)
{
    for (i64 k = 0; k < N_EVENTS; k++)
        A(n, k) = 0;
}

static i64 events(Chip *ch)
{
    i64 total = A(n, N_VA) + A(n, N_TRAV) + A(n, N_BW) + A(n, N_EST)
        + A(n, N_REST);
    for (i64 k = 0; k < 4; k++)
        total += A(n, N_TERM + k);
    return total;
}

/* RoundRobinArbiter.grant_mask: lowest set bit at or after ``next``. */
static i64 rr_pick(i64 mask, i64 next, i64 size)
{
    uint64_t m = (uint64_t)mask;
    if (next)
        m = ((m >> next) | (m << (size - next)))
            & (((uint64_t)1 << size) - 1);
    i64 cand = (i64)__builtin_ctzll(m) + next;
    return cand >= size ? cand - size : cand;
}

/* VCAllocationPolicy.allocate over the output VCs at credit index
 * ``base``: the chosen VC or -1. Dynamic takes the free VC with the
 * most credits (lowest index on ties); static takes the destination's
 * designated VC, and the first free one on an ejection port. */
static i64 policy_pick(Chip *ch, i64 base, i64 pk, int eject)
{
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

static void grant_out_vc(Chip *ch, i64 ivc, i64 ci, i64 vc)
{
    A(cred_free, ci) = 0;
    A(vc_state, ivc) = VC_ACTIVE;
    A(vc_out_vc, ivc) = vc;
    A(vc_out_cred, ivc) = ci;
    A(va_ivc, A(n, N_VA)++) = ivc;
}

static int any_credit(Chip *ch, i64 opid)
{
    for (i64 v = 0; v < ch->V; v++)
        if (A(cred, opid * ch->V + v) > 0)
            return 1;
    return 0;
}

/* Router._terminate_pc on a valid circuit. */
static void terminate(Chip *ch, i64 pp, int reason)
{
    i64 r = pp / ch->Pi, local = pp - r * ch->Pi;
    i64 opid = r * ch->Po + A(pc_out_port, pp);
    A(pc_valid, pp) = 0;
    if (A(op_holder, opid) == local)
        A(op_holder, opid) = -1;
    A(op_hist, opid) = local;
    A(term, reason * ch->NIP + A(n, N_TERM + reason)++) = pp;
}

static void note_cycle(Chip *ch, i64 count, i64 lo, i64 when)
{
    if (count == 0 || when < A(n, lo))
        A(n, lo) = when;
    if (count == 0 || when > A(n, lo + 1))
        A(n, lo + 1) = when;
}

/* Router._traverse: move one flit through the crossbar. ``fid`` < 0
 * pops the front of ``ivc``; otherwise the flit is an arriving buffer
 * bypass that never held the slot. */
static void traverse(Chip *ch, i64 c, i64 ivc, i64 port, int via,
                     i64 delayed, i64 fid)
{
    if (fid < 0) {
        i64 head = A(buf_head, ivc);
        fid = A(buf_fid, ivc * ch->D + head);
        A(buf_head, ivc) = head + 1 == ch->D ? 0 : head + 1;
        A(buf_len, ivc) -= 1;
        A(r_buffered, port / ch->Pi) -= 1;
    }
    i64 k = A(n, N_TRAV)++;
    A(cr_idx, k) = A(ip_upbase, port) + (ivc - port * ch->V);
    i64 opid = A(vc_out_opid, ivc), outl = A(vc_out_port, ivc);
    i64 civ = A(vc_out_cred, ivc);
    A(cred, civ) -= 1;
    if (A(f_head, fid)) {
        i64 pk = A(f_pkt, fid), h = A(n, N_HEAD)++;
        A(p_hops, pk) += 1;
        if (via != VIA_SA) {
            A(p_sa, pk) += 1;
            if (via == VIA_BUF)
                A(p_buf, pk) += 1;
        }
        A(h_port, h) = port;
        A(h_e2e, h) = A(ip_last_pair, port) == A(p_pair, pk);
        A(ip_last_pair, port) = A(p_pair, pk);
    }
    A(t_ivc, k) = ivc;
    A(t_port, k) = port;
    A(t_xrep, k) = A(ip_last_out, port) == outl;
    A(ip_last_out, port) = outl;
    A(f_vc, fid) = A(vc_out_vc, ivc);
    /* SA grants and streamed followers cross next cycle, bypasses now. */
    A(ip_st, port) = c + delayed;
    A(op_st, opid) = c + delayed;
    i64 when = c + 1 + delayed + A(op_latency, opid);
    if (A(op_eject, opid)) {
        i64 e = A(n, N_EJ);
        note_cycle(ch, e, N_EJ_LO, when);
        A(e_cycle, e) = when;
        A(e_term, e) = A(op_term, opid);
        A(e_fid, e) = fid;
        A(n, N_EJ) = e + 1;
    } else {
        i64 a = A(n, N_ARR);
        note_cycle(ch, a, N_ARR_LO, when);
        A(a_cycle, a) = when;
        A(a_link, a) = A(op_link, opid);
        A(a_dest, a) = A(op_dest, opid);
        A(a_fid, a) = fid;
        A(n, N_ARR) = a + 1;
    }
    if (A(f_tail, fid)) {
        A(cred_free, civ) = 1;
        A(vc_state, ivc) = VC_IDLE;
        A(vc_out_port, ivc) = -1;
        A(vc_out_opid, ivc) = -1;
        A(vc_out_vc, ivc) = -1;
    }
}

/* Router._establish_pc for the SA grant of ``port`` onto ``opid``. */
static void establish(Chip *ch, i64 port, i64 in_vc, i64 outl, i64 opid)
{
    i64 r = port / ch->Pi, local = port - r * ch->Pi;
    i64 holder = A(op_holder, opid);
    if (holder != -1 && holder != local)
        terminate(ch, r * ch->Pi + holder, T_CONFLICT_OUTPUT);
    if (A(pc_valid, port) && A(pc_out_port, port) != outl)
        terminate(ch, port, T_CONFLICT_INPUT);
    i64 k = A(n, N_EST)++;
    A(est_port, k) = port;
    A(est_ref, k) = A(pc_valid, port) && A(pc_in_vc, port) == in_vc
        && A(pc_out_port, port) == outl;
    A(pc_in_vc, port) = in_vc;
    A(pc_out_port, port) = outl;
    A(pc_valid, port) = 1;
    A(op_holder, opid) = local;
}

/* -- phases, in the order _step_routers runs them ----------------------- */

/* va_sa: the work set, then VA (Router._va_phase): route idle fronts and
 * allocate output VCs, ports rotated by the cycle, VCs ascending. */
i64 va_sa_vcs(Chip *ch, i64 c, i64 n_arr)
{
    i64 Pi = ch->Pi, Po = ch->Po, V = ch->V;
    clear_events(ch);
    /* Routers with buffered flits or arrivals staged this cycle; the
     * rest return early from the scalar step, maintenance included. */
    for (i64 r = 0; r < ch->R; r++)
        A(work, r) = A(r_buffered, r) > 0;
    for (i64 j = 0; j < n_arr; j++)
        A(work, A(in_dest, j) / Pi) = 1;
    for (i64 r = 0; r < ch->R; r++) {
        if (A(r_buffered, r) <= 0)
            continue;
        i64 num = A(nip, r), start = c % num;
        for (i64 k = 0; k < num; k++) {
            i64 i = start + k < num ? start + k : start + k - num;
            for (i64 v = 0; v < V; v++) {
                i64 ivc = (r * Pi + i) * V + v;
                if (A(buf_len, ivc) == 0 || A(vc_state, ivc) == VC_ACTIVE)
                    continue;
                i64 front = A(buf_fid, ivc * ch->D + A(buf_head, ivc));
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
                    grant_out_vc(ch, ivc, opid * V + vc, vc);
            }
        }
    }
    RETURN(events(ch));
}

/* pc: input ports whose circuit's VC has a matching, ready front flit
 * (Router._pc_candidates), ascending; mismatched and creditless
 * circuits are torn down on the way. */
i64 pc_candidates(Chip *ch, i64 c, i64 n_arr)
{
    (void)n_arr;
    clear_events(ch);
    i64 found = 0;
    if (ch->pc_enabled)
        for (i64 r = 0; r < ch->R; r++) {
            if (!A(work, r))
                continue;
            for (i64 pp = r * ch->Pi; pp < (r + 1) * ch->Pi; pp++) {
                if (!A(pc_valid, pp))
                    continue;
                i64 ivc = pp * ch->V + A(pc_in_vc, pp);
                if (A(buf_len, ivc) == 0)
                    continue;
                i64 front = A(buf_fid, ivc * ch->D + A(buf_head, ivc));
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
    RETURN(events(ch));
}

/* va_sa: SA requests of every other ready, active, credited VC as one
 * VC mask per input port (Router._collect_requests). */
i64 va_sa_requests(Chip *ch, i64 c, i64 n_arr)
{
    (void)n_arr;
    clear_events(ch);
    memset(ch->claimed_ip, 0, (size_t)ch->n_claimed_ip);
    memset(ch->claimed_op, 0, (size_t)ch->n_claimed_op);
    i64 requesting = 0, ci = 0, n_cand = A(n, N_CAND);
    for (i64 r = 0; r < ch->R; r++) {
        if (A(r_buffered, r) <= 0)
            continue;
        for (i64 port = r * ch->Pi; port < (r + 1) * ch->Pi; port++) {
            while (ci < n_cand && A(cand_ip, ci) < port)
                ci++;
            i64 cand = ci < n_cand && A(cand_ip, ci) == port
                ? A(cand_ivc, ci) : -1;
            i64 acc = 0;
            for (i64 v = 0; v < ch->V; v++) {
                i64 ivc = port * ch->V + v;
                if (A(buf_len, ivc) == 0 || A(vc_state, ivc) != VC_ACTIVE
                    || ivc == cand)
                    continue;
                i64 front = A(buf_fid, ivc * ch->D + A(buf_head, ivc));
                if (A(f_ready, front) > c
                    || A(cred, A(vc_out_cred, ivc)) == 0)
                    continue;
                acc |= (i64)1 << v;
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
    RETURN(0);
}

/* st_credit: circuit reuse. A candidate whose crossbar ports are free
 * of SA claims bypasses SA now -- or, when both ports carry the
 * previous flit of its own stream, one cycle behind it; a blocked one
 * joins SA this same cycle (Router.step, the candidate loop). */
i64 st_credit_reuse(Chip *ch, i64 c, i64 n_arr)
{
    (void)n_arr;
    clear_events(ch);
    A(n, N_VIA) = VIA_PC;
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
            traverse(ch, c, ivc, port, VIA_PC, in_busy, -1);
    }
    A(n, N_ORDER) = requesting;
    RETURN(events(ch));
}

/* Router._try_buffer_bypass for the flit ``fid`` arriving at the empty
 * circuit VC ``ivc`` of a free, unclaimed ``port``: 1 if it went
 * through, 0 if it has to be buffered, or an E_* code. */
static i64 try_buffer_bypass(Chip *ch, i64 c, i64 port, i64 ivc, i64 fid)
{
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
        grant_out_vc(ch, ivc, opid * ch->V + vc, vc);
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
    traverse(ch, c, ivc, port, VIA_BUF, 0, fid);
    return 1;
}

/* bw: arrivals, in link order -- through a matching idle circuit in
 * the arrival cycle, else into the input buffer
 * (Router._process_arrivals). */
i64 bw_arrivals(Chip *ch, i64 c, i64 n_arr)
{
    clear_events(ch);
    A(n, N_VIA) = VIA_BUF;
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
        A(f_ready, fid) = c + 1;
        A(r_buffered, port / ch->Pi) += 1;
        A(bw_ivc, A(n, N_BW)++) = ivc;
    }
    RETURN(events(ch));
}

/* va_sa: separable input-first switch allocation over the requesting
 * ports, outputs served in first-requested order; every grant
 * traverses next cycle and (re-)establishes its pseudo-circuit
 * (Router._allocate_switch and the grant loop of Router.step). */
i64 va_sa_switch(Chip *ch, i64 c, i64 n_arr)
{
    (void)n_arr;
    i64 Pi = ch->Pi, Po = ch->Po, V = ch->V, outputs = 0;
    clear_events(ch);
    A(n, N_VIA) = VIA_SA;
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
        traverse(ch, c, ivc, port, VIA_SA, 1, -1);
        if (ch->pc_enabled)
            establish(ch, port, ivc - port * V, outl, opid);
    }
    RETURN(events(ch));
}

/* pc: end-of-cycle upkeep of the work routers, one pass over their
 * outputs -- credit terminations on held ones, speculative restoration
 * on free ones, the history register resolving ties
 * (Router._pc_maintenance). */
i64 pc_maintenance(Chip *ch, i64 c, i64 n_arr)
{
    (void)c;
    (void)n_arr;
    i64 Pi = ch->Pi, Po = ch->Po;
    clear_events(ch);
    if (ch->pc_enabled)
        for (i64 r = 0; r < ch->R; r++) {
            if (!A(work, r))
                continue;
            /* Outputs some invalidated circuit still points at. The
             * terminations below only add candidates at their own
             * creditless port, so the snapshot stays exact. */
            i64 cand_outs = 0;
            if (ch->pc_speculation)
                for (i64 pp = r * Pi; pp < (r + 1) * Pi; pp++)
                    if (!A(pc_valid, pp) && A(pc_in_vc, pp) >= 0)
                        cand_outs |= (i64)1 << A(pc_out_port, pp);
            for (i64 out = 0; out < Po; out++) {
                i64 opid = r * Po + out, holder = A(op_holder, opid);
                if (holder != -1) {
                    if (!any_credit(ch, opid))
                        terminate(ch, r * Pi + holder, T_NO_CREDIT);
                    continue;
                }
                if (!(cand_outs >> out & 1) || !A(op_valid, opid))
                    continue;
                i64 hist = A(op_hist, opid), chosen = -1, count = 0;
                int hist_ok = 0;
                for (i64 i = 0; i < Pi; i++) {
                    i64 pp = r * Pi + i;
                    if (A(pc_valid, pp) || A(pc_in_vc, pp) < 0
                        || A(pc_out_port, pp) != out)
                        continue;
                    count++;
                    if (chosen == -1)
                        chosen = i;
                    if (i == hist)
                        hist_ok = 1;
                }
                if (count == 0)
                    continue;
                if (count > 1) {
                    if (!hist_ok)
                        continue;
                    chosen = hist;
                }
                if (!any_credit(ch, opid))
                    continue; /* restoration needs credits downstream */
                A(pc_valid, r * Pi + chosen) = 1;
                A(op_holder, opid) = chosen;
                A(rest_op, A(n, N_REST)++) = opid;
            }
        }
    RETURN(events(ch));
}
