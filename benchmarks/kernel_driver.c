/* The compiled cycle without Python in the way: load one network's Chip
 * from a dump (``kernel_dump.py``), drive ``cycle()`` the way
 * ``VectorNetwork._drive`` and ``drain`` do -- skipping what nothing acts
 * in -- and print what a call and a flit-hop cost. For sizing a change to
 * ``kernel.c`` under a profiler:
 *
 *   PYTHONPATH=src python3 benchmarks/kernel_dump.py /root/scratch/low.chip
 *   cc -O2 -pg -o /root/scratch/driver benchmarks/kernel_driver.c
 *   /root/scratch/driver /root/scratch/low.chip 20 && gprof /root/scratch/driver
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
        return fprintf(stderr, "usage: %s CHIP-DUMP [repeats]\n", argv[0]), 2;
    int repeats = argc > 2 ? atoi(argv[2]) : 1;
    Chip first, ch;
#define X(T, name, owner) first.name = take(&first.n_##name, sizeof(T));
    CHIP_ARRAYS(X)
#undef X
#define X(name) first.name = word();
    CHIP_SCALARS(X)
#undef X
    i64 c0 = word(), end = c0 + word();
    i64 calls = 0, hops = 0, spent = 0;
    ch = first;
    for (int rep = 0; rep < repeats; rep++) {
        /* Every repeat starts from the dumped state, in arrays of its own. */
#define X(T, name, owner) \
        ch.name = memcpy(realloc(rep ? ch.name : NULL, \
                                 (size_t)first.n_##name * sizeof(T) + 1), \
                         first.name, (size_t)first.n_##name * sizeof(T));
        CHIP_ARRAYS(X)
#undef X
        i64 before = flit_hops(&ch), began = now_ns();
        for (i64 c = c0; c < end || ch.state[S_queued] + ch.state[S_started];
             calls++) {
            i64 rc = cycle(&ch, c++);
            if (rc < 0)
                return fprintf(stderr, "cycle %lld: E %lld\n",
                               (long long)c - 1, (long long)rc), 1;
            if (ch.state[S_buffered] || ch.state[S_queued]
                || ch.state[S_sending])
                continue;
            /* Quiescent: on to the next arrival or injection. */
            i64 next = c < end ? end : c + 1000000;
            i64 events[] = {ch.state[S_next_event],
                            c < end ? ch.state[S_next_injection] : -1};
            for (int k = 0; k < 2; k++)
                if (events[k] >= c && events[k] < next)
                    next = events[k];
            c = next;
        }
        spent += now_ns() - began;
        hops += flit_hops(&ch) - before;
    }
    printf("%lld calls, %lld flit-hops: %.2f us/cycle, %.1f ns/flit-hop\n",
           (long long)calls / repeats, (long long)hops / repeats,
           spent / 1e3 / calls, (double)spent / hops);
    return 0;
}
