"""Build, cache, verify and load the compiled cycle (``kernel.c``).

``load()`` is called by the first array-core construction of a process
(never at import): it finds a C compiler (``$CC`` if set, else ``cc``,
``gcc``, ``clang``), builds ``kernel.c`` into a per-user cache keyed by
sha256(source + flags + ``cc --version``), checks the artifact and
``ctypes.CDLL``s it. The outcome is remembered for the life of the
process (forked workers inherit the handle) and is never an exception:
a ``Kernel`` whose ``status`` is ``c:<12 hex of the artifact key>``
carries the library, any other — ``refused:<reason>``, the reason one
of ``REASONS`` — carries none. The array cores have no other way to
step, so ``VectorNetwork`` turns that ``Kernel`` into a
``BackendUnsupportedError`` (``Kernel.refusal``: the reason, ``$CC``,
the compiler's last words, the way out); ``auto`` and the sweep
scheduler take the scalar core from there.

The loader follows the rules of the result store. The artifact is
written under a temporary name, sealed with the SHA-256 of its own
bytes and moved into place with ``os.replace``, so a killed compile
leaves nothing loadable (and its temporary file is swept by the next
build once it is older than any compile may run); a file that fails its
seal (truncated, garbage) is never handed to ``dlopen`` — it is rebuilt
in place. The cache directory (``$XDG_CACHE_HOME`` or ``~/.cache``,
then ``repro/kernel``) must be owned by the caller and closed to
everyone else, or it is refused (``store.sealed.cache_dir``, the rule
the trace cache follows too). Before a handle is trusted it answers
a known-answer self-test: the ABI number, ``sizeof(Chip)`` against the
``ctypes`` mirror built from the same source text, and a two-router chip
run for one whole cycle, then over a window with a skip in it, walked at
the end of each cycle, then checked by the end-of-run walk.

To force a rebuild delete the cache directory; a different compiler,
flag set or source text already keys a different artifact.

``summaries`` is the one Python statement of what each summary
``kernel.c`` keeps means: construction and the self-test fill a chip's
from it, and the tests hold the walk's ``summary_*`` rules to it.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import re
import subprocess
import tempfile
import time
from functools import lru_cache
from types import SimpleNamespace

from ...store.sealed import cache_dir, cache_home
from ..backend import BackendUnsupportedError

#: ``REPRO_KERNEL_ABI`` of the ``kernel.c`` this module drives.
ABI = 7006

#: The build every network runs.
RELEASE_FLAGS = ("-O2", "-shared", "-fPIC")
#: The test suite's build: every array access bounds-checked and every
#: function's entry noted (see ``kernel.c``), every warning an error.
CHECK_FLAGS = ("-O1", "-shared", "-fPIC", "-DREPRO_KERNEL_CHECK",
               "-Wall", "-Wextra", "-Werror")

#: Why a process has no compiled cycle; the closed set behind
#: ``refused:<reason>``.
REASONS = ("no-compiler", "compile-failed", "cache-unwritable",
           "load-failed", "self-test-failed")

#: Return code of the checked build's bounds fault.
E_BOUNDS = -9
#: Why ``run`` came back when it did not fail (``RUN_*`` in ``kernel.c``):
#: its window is done, the pools must grow, a cycle is to be seen, the
#: delivery callbacks run before the rest of a cycle, or the walk found
#: something.
RUN_DONE, RUN_GROW, RUN_CYCLE, RUN_DELIVER, RUN_FOUND = range(5)
#: A compile may run this long; a ``build-*.tmp`` older than that was
#: left by a killed one.
_COMPILE_TIMEOUT_S = 300
#: How much of the compiler's stderr a refusal quotes.
_STDERR_LINES = 5

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "kernel.c")
_SEAL_BYTES = hashlib.sha256().digest_size
#: numpy dtype of each element typedef of ``kernel.c``.
_DTYPES = {"i64": "int64", "i32": "int32", "u32": "uint32", "u8": "bool"}
#: The largest value an ``int32`` array of the ``Chip`` holds. A chip
#: whose ids, pools or cycles would pass it is refused (``fits``).
I32_MAX = 2 ** 31 - 1


def _macro_names(text: str, macro: str) -> list:
    """The ``X(...)`` argument lists of the backslash-continued body of
    ``#define macro(X)``, one tuple per entry."""
    match = re.search(rf"#define {macro}\(X\)((?:.*\\\n)*.*)\n", text)
    if match is None:
        raise ValueError(f"kernel.c declares no {macro}")
    return [tuple(arg.strip() for arg in args.split(","))
            for args in re.findall(r"X\(([^()]*)\)", match.group(1))]


def _chip_arrays(source: str) -> list:
    """(numpy dtype name, field, owner) per array of the ``Chip``, in
    struct order: ``CHIP_ARRAYS`` of ``source``."""
    return [(_DTYPES[ctype], name, owner) for ctype, name, owner
            in _macro_names(source, "CHIP_ARRAYS")]


@lru_cache(maxsize=None)
def dtypes() -> dict:
    """Array of the ``Chip`` -> its numpy dtype name, from the
    ``kernel.c`` beside this module: what every array the ``Chip`` points
    into is allocated as, compiler or none."""
    with open(_SOURCE, encoding="utf-8") as fh:
        return {name: dtype for dtype, name, _ in _chip_arrays(fh.read())}


def room(name: str) -> float:
    """The largest value ``Chip`` array ``name`` holds (``I32_MAX`` for
    a 32-bit one; the wider ones hold any this simulator reaches)."""
    return I32_MAX if dtypes()[name] == "int32" else math.inf


def fits(name: str, largest: int, what: str) -> None:
    """Refuse by name a chip that would store ``largest`` (``what``) in
    ``Chip`` array ``name`` when that array's elements cannot hold it."""
    if largest > room(name):
        raise BackendUnsupportedError(
            f"the vectorized backend keeps {what} in kernel array {name}, "
            f"whose elements are 32-bit integers (at most {I32_MAX}); "
            f"this chip needs {largest} — use --backend scalar")


def summaries(np, get, R: int, Pi: int, Po: int, V: int) -> dict:
    """Every summary ``kernel.c`` keeps (the table in its header comment),
    worked out again from the state it summarises — the one Python
    statement of what each means. ``get(name)`` hands over a state array
    (flat, at least its chip's size); the answer maps summary to array.
    """
    def field(name, *shape):
        return get(name)[:math.prod(shape)].reshape(shape)

    def mask(flags, word=np.int64):
        # Bit ``i`` of an answer is ``flags[..., i]``.
        shifts = np.arange(flags.shape[-1], dtype=word)
        return (flags.astype(word) << shifts).sum(axis=-1, dtype=word)

    occ = field("buf_len", R, Pi, V) > 0
    act = field("vc_state", R, Pi, V) == 2      # vc.VCState.ACTIVE
    valid = field("pc_valid", R, Pi).astype(bool)
    routers = np.zeros(-(-R // 64) * 64, dtype=bool)
    routers[:R] = occ.any(axis=(1, 2))
    return {
        "ip_occ": mask(occ).ravel(), "ip_act": mask(act).ravel(),
        "r_occ": mask(occ.any(axis=2)),
        "r_wait": mask((occ & ~act).any(axis=2)),
        "r_map": mask(routers.reshape(-1, 64), np.uint64).view(np.int64),
        "r_pcv": mask(valid),
        "r_pcinv": mask(~valid & (field("pc_in_vc", R, Pi) >= 0)),
        "r_held": mask(field("op_holder", R, Po) != -1),
        "op_credsum": field("cred", R * Po, V).sum(axis=1)}


class Kernel:
    """The process's compiled cycle, or the reason there is none."""

    def __init__(self, status: str, lib=None, source: str = "",
                 compiler: str | None = None, detail: str = ""):
        self.status = status
        self.lib = lib
        #: What was asked to compile (``$CC``, else the first of ``cc``,
        #: ``gcc``, ``clang`` that answered) and the last lines it wrote
        #: to stderr when it failed.
        self.compiler = compiler
        self.detail = detail
        if lib is None:
            return
        #: (numpy dtype name, field, owner) per array of the ``Chip``.
        self.arrays = _chip_arrays(source)
        #: The other lists ``kernel.c`` declares, as names in C order:
        #: the ``Chip``'s scalars, one row of ``counts`` (``stats`` then
        #: ``terminations``), ``state``, ``prof_ns``, the event counts at
        #: the head of ``n[]``, one row of ``ej_out``, one row of ``src``,
        #: what the walk (``check_chip``) answers, its record ``walk``.
        (self.scalars, self.stats, self.terminations, self.state,
         self.phases, self.events, self.ejected, self.source,
         self.checks, self.walk) = (
            [name for name, in _macro_names(source, macro)]
            for macro in ("CHIP_SCALARS", "CHIP_STATS", "CHIP_TERMINATIONS",
                          "CHIP_STATE", "CHIP_PHASES", "CHIP_EVENTS",
                          "CHIP_EJECTED", "CHIP_SOURCE", "CHIP_CHECKS",
                          "CHIP_WALK"))
        #: Room in ``n[]`` (``kernel.c`` asserts its last entry fits).
        self.counts = int(re.search(r"#define CHIP_COUNTS (\d+)\n",
                                    source).group(1))
        fields = []
        for _, name, _ in self.arrays:
            fields += [(name, ctypes.c_void_p),
                       ("n_" + name, ctypes.c_int64)]
        fields += [(name, ctypes.c_int64) for name in self.scalars]
        self.Chip = type("Chip", (ctypes.Structure,), {"_fields_": fields})
        self.run = lib.run
        self.run.argtypes = (ctypes.POINTER(self.Chip), *[ctypes.c_int64] * 3)
        self.run.restype = ctypes.c_int64
        self.check_chip = lib.check_chip
        self.check_chip.argtypes = (ctypes.POINTER(self.Chip),
                                    *[ctypes.c_int64] * 2)
        self.check_chip.restype = ctypes.c_int64
        for entry in ("repro_kernel_abi", "repro_kernel_sizeof_chip"):
            fn = getattr(lib, entry)
            fn.argtypes = ()
            fn.restype = ctypes.c_int64

    def refusal(self) -> str:
        """Why no array core can be built here, for the error that says
        so: the reason, the compiler asked, its last words, the way out."""
        reason = self.status.partition(":")[2]
        asked = (f"$CC={os.environ['CC']!r}" if os.environ.get("CC")
                 else f"compiler {self.compiler!r}" if self.compiler
                 else "none of cc, gcc, clang answered --version")
        said = f"; it said: {self.detail}" if self.detail else ""
        return (f"the array core (a vectorized point, a grouped unit's "
                f"lanes) steps through one compiled C file, and this "
                f"process has none: {reason} "
                f"({asked}{said}) — use --backend scalar|auto, or point "
                f"$CC at a working C compiler")

    def reached(self) -> dict:
        """Checked build only: function of ``kernel.c`` -> times entered
        since ``reach_reset``."""
        probe = self.lib.repro_kernel_reach
        probe.argtypes = (ctypes.c_int64, ctypes.POINTER(ctypes.c_char_p))
        probe.restype = ctypes.c_int64
        function = ctypes.c_char_p()
        entered: dict = {}
        site = 0
        while (hits := probe(site, ctypes.byref(function))) >= 0:
            if hits:
                name = function.value.decode()
                entered[name] = entered.get(name, 0) + hits
            site += 1
        return entered

    def reach_reset(self) -> None:
        self.lib.repro_kernel_reach_reset()

    def self_test(self, np) -> bool:
        """Known answers before the handle is trusted: the ABI number,
        the struct size, and two one-port routers wired to each other,
        each with the head flit of a two-flit packet at the front of a
        VC, run for one cycle — the dynamic policy takes the free VC with
        the most credits at router 0 and the lowest index on a tie at
        router 1, both flits win their switch and leave, and both events
        are counted — then on to cycle 3: the credits come back in cycle
        1, nothing happens in cycle 2, which is skipped, and the window
        ends as the flits land. The walk at the end of each cycle run
        finds nothing; the end-of-run walk of the chip as if drained
        finds the flits in the arrival ring: router 0's flit 0, first,
        bound for port 1."""
        lib = self.lib
        if (lib.repro_kernel_abi() != ABI or lib.repro_kernel_sizeof_chip()
                != ctypes.sizeof(self.Chip)):
            return False
        state = {name: np.zeros(64, dtype=dtype)
                 for dtype, name, owner in self.arrays if owner == "NET"}
        state["nip"][:2] = 1
        state["r_buffered"][:2] = 1
        for name, value in (("buffered", 2), ("packets", 2), ("flits", 4)):
            state["state"][self.state.index(name)] = value
        state["buf_len"][[0, 3]] = 1      # (router 0, vc 0), (router 1, vc 1)
        state["buf_shadow"][[0, 3]] = 1
        state["buf_fid"][3] = 2
        state["f_head"][[0, 2]] = state["f_tail"][[1, 3]] = True
        state["f_pkt"][2:4] = 1
        state["fb_head"][:] = -1
        state["p_size"][:2] = 2
        state["p_dst"][1] = 1
        state["vc_window"][[1, 3]] = 2    # choice 0: port 0 and injection
        state["ip_router"][:2] = state["op_router"][:2] = (0, 1)
        state["op_latency"][:2] = 1
        state["op_dest"][:2] = (1, 0)
        state["ip_upbase"][:2] = (2, 0)   # fed by router 1's, 0's output
        state["cred"][:4] = (1, 2, 2, 2)
        state["cred_init"][:4] = (1, 3, 3, 2)   # less the flits buffered
        state["cred_free"][:4] = True
        sizes = dict(R=2, Pi=1, Po=1, V=2, D=1, C=1, TL=2, T=2, NIP=2,
                     NOVC=4, RD=3, CD=1, check_stride=1)
        for name, summary in summaries(np, state.get, 2, 1, 1, 2).items():
            state[name][:len(summary)] = summary
        chip = Binding(self, np, state, sizes, NOP=2)
        stats = state["counts"][:len(self.stats)].tolist

        def scalars(name):
            return state["state"][self.state.index(name)]

        def walked(name):
            return chip.walk[self.walk.index(name)]
        return (self.run(chip.ref, 0, 1, 0) == RUN_DONE
                and scalars("cycle") == 1
                and state["vc_out_cred"][[0, 3]].tolist() == [1, 2]
                and state["cred"][:4].tolist() == [1, 1, 1, 2]
                and state["cred_free"][:4].tolist() == [True, False, False,
                                                        True]
                and state["buf_len"][:4].tolist() == [0, 0, 0, 0]
                # Granted at 0, across the switch at 1, off the link at 3
                # (ring slot 0 again); the credits return at 1.
                and state["ring_n"][:9].tolist() == [2, 0, 0, 0, 0, 0,
                                                     0, 2, 0]
                and dict(zip(self.stats, stats()))["va_allocations"] == 2
                and dict(zip(self.stats, stats()))["flit_hops"] == 2
                and scalars("next_act") == 1
                and self.run(chip.ref, 1, 3, 0) == RUN_DONE
                and (scalars("cycle"), scalars("stepped"),
                     scalars("skipped")) == (3, 2, 1)
                and state["ring_n"][:9].tolist() == [2] + [0] * 8
                and (walked("walks"), walked("cycle")) == (2, 1)
                and self.checks[self.check_chip(chip.ref, 1, 1)]
                == "held_arrival"
                and chip.walk[self.walk.index("index"):].tolist()
                == [1, 0, 0])


class Binding:
    """One network's ``Chip``: the struct, a reference to every array
    it points into (``ctypes`` keeps none), and the kernel-owned
    scratch and hand-back buffers as attributes."""

    def __init__(self, kernel: Kernel, np, net_arrays: dict, scalars: dict,
                 **extents):
        self.chip = kernel.Chip()
        self.ref = ctypes.byref(self.chip)
        #: Field -> dtype, in struct order; field -> the array aimed at.
        self._dtypes = {name: np.dtype(dtype)
                        for dtype, name, _ in kernel.arrays}
        self._arrays = {}
        #: Field -> a ``memoryview`` of the array aimed at: the Python
        #: side reads and writes single elements through these, at a
        #: fraction of a numpy scalar access's cost. ``point`` is the one
        #: place either is aimed, so a re-aimed array's view follows it.
        self.view = SimpleNamespace()
        # Size classes of the buffers allocated here: some are sizes the
        # Chip carries anyway (R, NIP, T), the rest the caller names.
        extents = dict(scalars, **extents, COUNTS=kernel.counts)
        extents["NIP3"] = 3 * extents["NIP"]
        extents["RW"] = -(-extents["R"] // 64)   # one bit per router
        extents["TOUT"] = len(kernel.ejected) * extents["T"]
        extents["WALK"] = len(kernel.walk)
        for dtype, name, owner in kernel.arrays:
            if owner == "NET":
                self.point(name, net_arrays[name])
            else:
                buf = np.zeros(extents[owner], dtype=dtype)
                self.point(name, buf)
                setattr(self, name, buf)
        for name in kernel.scalars:
            setattr(self.chip, name, int(scalars.get(name, 0)))

    def __contains__(self, name: str) -> bool:
        return name in self._dtypes

    def point(self, name: str, array) -> None:
        """Aim ``Chip.name`` at ``array`` (and record its length for the
        checked build); refuses anything C would misread."""
        if (array.dtype != self._dtypes[name]
                or not array.flags.c_contiguous):
            raise TypeError(f"kernel array {name}: need C-contiguous "
                            f"{self._dtypes[name]}, got {array.dtype}")
        self._arrays[name] = array
        setattr(self.view, name, memoryview(array))
        setattr(self.chip, name, array.ctypes.data)
        setattr(self.chip, "n_" + name, array.size)

    def fault(self) -> str:
        """The checked build's bounds fault, naming array and index."""
        name = list(self._dtypes)[self.chip.err_id - 1]
        return (f"kernel bounds check: {name}[{self.chip.err_idx}] is "
                f"outside its {self._arrays[name].size} elements")


def load(flags=RELEASE_FLAGS) -> Kernel:
    """The process's kernel for ``flags``: built, verified and loaded
    on the first call, answered from memory afterwards."""
    return _load(os.environ.get("CC"), cache_home(), tuple(flags))


@lru_cache(maxsize=None)
def _load(cc_env, home, flags) -> Kernel:
    from ..backend import require_numpy
    np = require_numpy()
    compiler = _find_compiler(cc_env)
    if compiler is None:
        return Kernel("refused:no-compiler")
    argv, version = compiler
    asked = " ".join(argv)
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError as err:  # nothing to compile
        return Kernel("refused:compile-failed", compiler=asked,
                      detail=str(err))
    key = hashlib.sha256(
        b"\0".join((source, " ".join(flags).encode(), version))).hexdigest()
    cache = cache_dir(home, "kernel")
    if cache is None:
        return Kernel("refused:cache-unwritable", compiler=asked)
    path = os.path.join(cache, f"step-{key[:32]}.so")
    if not _sealed(path):
        reason, detail = _build(argv, flags, source, path)
        if reason is not None:
            return Kernel("refused:" + reason, compiler=asked, detail=detail)
    try:
        kernel = Kernel(f"c:{key[:12]}", ctypes.CDLL(path),
                        source.decode("utf-8"), compiler=asked)
    except (OSError, AttributeError, ValueError) as err:
        return Kernel("refused:load-failed", compiler=asked, detail=str(err))
    if not kernel.self_test(np):
        return Kernel("refused:self-test-failed", compiler=asked)
    return kernel


def _find_compiler(cc_env):
    """``(argv, version text)`` of the first compiler that answers
    ``--version``; ``$CC``, when set, is the only one asked (and may
    carry arguments, ``ccache gcc``)."""
    for candidate in ([cc_env] if cc_env else ["cc", "gcc", "clang"]):
        argv = candidate.split()
        try:
            out = subprocess.run([*argv, "--version"], capture_output=True,
                                 timeout=30)
        except (OSError, subprocess.SubprocessError, ValueError):
            continue
        if argv and out.returncode == 0:
            return argv, out.stdout
    return None


def _sealed(path: str) -> bool:
    """Whether ``path`` holds an artifact whose trailing SHA-256 matches
    the bytes before it (the dynamic loader ignores the trailer)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return False
    body, seal = data[:-_SEAL_BYTES], data[-_SEAL_BYTES:]
    return bool(body) and hashlib.sha256(body).digest() == seal


def _sweep_stale(cache: str) -> None:
    """Remove the temporary files of compiles that were killed: no
    ``finally`` ran for them, and no live compile is this old."""
    cutoff = time.time() - _COMPILE_TIMEOUT_S
    try:
        names = os.listdir(cache)
    except OSError:
        return
    for name in names:
        if name.startswith("build-") and name.endswith(".tmp"):
            path = os.path.join(cache, name)
            try:
                if os.stat(path).st_mtime < cutoff:
                    os.unlink(path)
            except OSError:
                pass  # another process swept it first


def _build(argv, flags, source: bytes, path: str) -> tuple:
    """Compile ``source`` to a sealed artifact at ``path``; ``(reason,
    the compiler's last lines)`` on failure (the reason one of
    ``REASONS``), ``(None, "")`` on success."""
    _sweep_stale(os.path.dirname(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix="build-", suffix=".tmp")
        os.close(fd)
    except OSError as err:
        return "cache-unwritable", str(err)
    try:
        try:
            out = subprocess.run([*argv, *flags, "-x", "c", "-o", tmp, "-"],
                                 input=source, capture_output=True,
                                 timeout=_COMPILE_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as err:
            return "compile-failed", str(err)
        if out.returncode != 0:
            said = out.stderr.decode("utf-8", "replace").strip().splitlines()
            return "compile-failed", " | ".join(
                [f"exit status {out.returncode}", *said[-_STDERR_LINES:]])
        try:
            with open(tmp, "rb") as fh:
                body = fh.read()
            with open(tmp, "ab") as fh:
                fh.write(hashlib.sha256(body).digest())
            os.replace(tmp, path)
        except OSError as err:
            return "cache-unwritable", str(err)
        return None, ""
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass  # moved into place, or never written
