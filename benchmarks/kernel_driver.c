/* The compiled cycle without Python in the way: load one network's Chip
 * from a dump (``kernel_dump.py``), drive it through ``run()`` the way
 * ``VectorNetwork._drive`` and ``drain`` do -- one call for the window,
 * then one to drain -- and the drained chip through ``check_chip()``, the
 * end-of-run walk, as ``check_invariants`` does; print what a cycle and a
 * flit-hop cost, a digest of what the run left in ``counts``, ``hist``
 * and ``state`` (``kernel_dump.digest`` of the same chip run through
 * ``VectorNetwork`` answers the same), and the walk's verdict (0: nothing
 * found) and cost. A third argument N has ``run()`` walk the live chip
 * every N stepped cycles too, as ``--check --check-stride N`` does; a
 * finding there ends the driver (exit 1). For sizing a change to
 * ``kernel.c`` under a profiler:
 *
 *   PYTHONPATH=src python3 benchmarks/kernel_dump.py low.chip
 *   cc -O2 -pg -o driver benchmarks/kernel_driver.c
 *   ./driver low.chip 20 && gprof driver
 *
 * (run from the repository root; ``-pg`` only when gprof is wanted.) The
 * dump is in the order of this tree's CHIP_ARRAYS / CHIP_SCALARS: make it
 * with the same ``kernel.c`` the driver is compiled against.
 */
#include "../src/repro/network/vectorized/kernel.c"

#include <stdio.h>
#include <stdlib.h>

static FILE *dump;

static i64 word(void)
{
    i64 value;
    if (fread(&value, sizeof value, 1, dump) != 1)
        exit(2);
    return value;
}

/* The next array of the dump: its length, then its elements. */
static void *take(i64 *count, size_t width)
{
    size_t bytes = (size_t)(*count = word()) * width;
    void *data = malloc(bytes + 1);
    if (!data || (bytes && fread(data, bytes, 1, dump) != 1))
        exit(2);
    return data;
}

/* FNV-1a (64 bits) over ``size`` bytes at ``data``, from ``hash``. */
static uint64_t fnv(uint64_t hash, const void *data, size_t size)
{
    const unsigned char *byte = data;
    for (size_t k = 0; k < size; k++)
        hash = (hash ^ byte[k]) * 0x100000001b3u;
    return hash;
}

static i64 flit_hops(Chip *ch)
{
    i64 hops = 0;
    for (i64 lane = 0; lane < ch->T / ch->TL; lane++)
        hops += COUNT(&ch->counts[lane * NSTAT], flit_hops);
    return hops;
}

int main(int argc, char **argv)
{
    if (argc < 2 || !(dump = fopen(argv[1], "rb")))
        return fprintf(stderr, "usage: %s CHIP-DUMP [repeats] [walk-every]\n",
                       argv[0]), 2;
    int repeats = argc > 2 ? atoi(argv[2]) : 1;
    i64 stride = argc > 3 ? atoi(argv[3]) : 0;
    Chip first, ch;
#define X(T, name, owner) first.name = take(&first.n_##name, sizeof(T));
    CHIP_ARRAYS(X)
#undef X
#define X(name) first.name = word();
    CHIP_SCALARS(X)
#undef X
    i64 c0 = word(), end = c0 + word();
    i64 cycles = 0, hops = 0, spent = 0, checked = 0, verdict = 0;
    /* The walk holds each buffer to its writes - reads from here on. */
    memcpy(first.buf_shadow, first.buf_len,
           (size_t)first.n_buf_len * sizeof *first.buf_len);
    first.check_stride = stride;
    ch = first;
    for (int rep = 0; rep < repeats; rep++) {
        /* Every repeat starts from the dumped state, in arrays of its own. */
#define X(T, name, owner) \
        ch.name = memcpy(realloc(rep ? ch.name : NULL, \
                                 (size_t)first.n_##name * sizeof(T) + 1), \
                         first.name, (size_t)first.n_##name * sizeof(T));
        CHIP_ARRAYS(X)
#undef X
        i64 before = flit_hops(&ch), stepped = ch.state[S_stepped];
        i64 began = now_ns();
        /* The window, then the drain. The dump's pools hold the whole
         * run, and the rows a call stops for (latencies past the
         * histogram) are Python's to count: call again. */
        for (i64 c = c0, drain = 0, stop = end;;) {
            i64 rc = run(&ch, c, stop, drain);
            c = ch.state[S_cycle];
            if (rc < 0)
                return fprintf(stderr, "cycle %lld: E %lld\n", (long long)c,
                               (long long)rc), 1;
            if (rc == RUN_FOUND)
                return fprintf(stderr, "cycle %lld: walk found %lld at %lld\n",
                               (long long)ch.walk[W_cycle],
                               (long long)ch.walk[W_check],
                               (long long)ch.walk[W_index]), 1;
            if (rc != RUN_DONE)
                continue;
            if (drain)
                break;
            drain = 1;
            stop = c + 1000000;
        }
        spent += now_ns() - began;
        cycles += ch.state[S_stepped] - stepped;
        hops += flit_hops(&ch) - before;
        began = now_ns();
        verdict = check_chip(&ch, 0, 1);
        checked += now_ns() - began;
    }
    uint64_t digest = 0xcbf29ce484222325u;
    digest = fnv(digest, ch.counts, (size_t)ch.n_counts * sizeof *ch.counts);
    digest = fnv(digest, ch.hist, (size_t)ch.n_hist * sizeof *ch.hist);
    digest = fnv(digest, ch.state, (size_t)ch.n_state * sizeof *ch.state);
    printf("%lld cycles run, %lld flit-hops: %.2f us/cycle, "
           "%.1f ns/flit-hop, digest %016llx; drained check %lld in "
           "%.2f us\n", (long long)cycles / repeats,
           (long long)hops / repeats, spent / 1e3 / cycles,
           (double)spent / hops, (unsigned long long)digest,
           (long long)verdict, checked / 1e3 / repeats);
    return 0;
}
