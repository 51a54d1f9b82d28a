"""Build, cache, verify and load the compiled router step (``kernel.c``).

``load()`` is called by the first array-core construction of a process
(never at import): it finds a C compiler (``$CC`` if set, else ``cc``,
``gcc``, ``clang``), builds ``kernel.c`` into a per-user cache keyed by
sha256(source + flags + ``cc --version``), checks the artifact and
``ctypes.CDLL``s it. The outcome is remembered for the life of the
process (forked workers inherit the handle) and is never an exception:
a ``Kernel`` whose ``status`` is ``c:<12 hex of the artifact key>``
carries the library, any other — ``numpy:<reason>``, the reason one of
``REASONS`` — carries none and the network keeps its numpy phases.

The loader follows the rules of the result store. The artifact is
written under a temporary name, sealed with the SHA-256 of its own
bytes and moved into place with ``os.replace``, so a killed compile
leaves nothing loadable; a file that fails its seal (truncated, garbage)
is never handed to ``dlopen`` — it is rebuilt in place. The cache
directory (``$XDG_CACHE_HOME`` or ``~/.cache``, then ``repro/kernel``)
must be owned by the caller and closed to everyone else, or it is
refused. Before a handle is trusted it answers a known-answer self-test:
the ABI number, ``sizeof(Chip)`` against the ``ctypes`` mirror built
from the same source text, and one VC allocation on a two-router chip.

To force a rebuild delete the cache directory; a different compiler,
flag set or source text already keys a different artifact.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import stat
import subprocess
import tempfile
from functools import lru_cache

#: ``REPRO_KERNEL_ABI`` of the ``kernel.c`` this module drives.
ABI = 2001

#: The build every network runs.
RELEASE_FLAGS = ("-O2", "-shared", "-fPIC")
#: The test suite's build: every array access bounds-checked (see
#: ``kernel.c``), every warning an error.
CHECK_FLAGS = ("-O1", "-shared", "-fPIC", "-DREPRO_KERNEL_CHECK",
               "-Wall", "-Wextra", "-Werror")

#: Why a process runs the numpy phases; the closed set behind
#: ``numpy:<reason>``.
REASONS = ("no-compiler", "compile-failed", "cache-unwritable",
           "load-failed", "self-test-failed")

#: The phases of ``_step_routers`` in the order it runs them: (phase
#: timer key, entry point). Every entry point is ``f(chip, cycle,
#: n_arrivals) -> events written, or a negative E_* code``.
PHASES = (("va_sa", "va_sa_vcs"), ("pc", "pc_candidates"),
          ("va_sa", "va_sa_requests"), ("st_credit", "st_credit_reuse"),
          ("bw", "bw_arrivals"), ("va_sa", "va_sa_switch"),
          ("pc", "pc_maintenance"))

#: ``n[]`` entries the event flush reads (``N_EVENTS`` in ``kernel.c``)
#: and the room the array is given.
N_EVENTS = 17
_COUNTS = 24
#: Return code of the checked build's bounds fault.
E_BOUNDS = -9

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "kernel.c")
_SEAL_BYTES = hashlib.sha256().digest_size
#: numpy dtype of each element typedef of ``kernel.c``.
_DTYPES = {"i64": "int64", "u8": "bool"}


def _macro_body(text: str, name: str) -> str:
    """The backslash-continued body of ``#define name(X)``."""
    match = re.search(rf"#define {name}\(X\)((?:.*\\\n)*.*)\n", text)
    if match is None:
        raise ValueError(f"kernel.c declares no {name}")
    return match.group(1)


class Kernel:
    """The process's compiled step, or the reason there is none."""

    def __init__(self, status: str, lib=None, source: str = ""):
        self.status = status
        self.lib = lib
        if lib is None:
            return
        #: (numpy dtype name, field, owner) per array of the ``Chip``.
        self.arrays = [(_DTYPES[ctype], name, owner) for ctype, name, owner
                       in re.findall(r"X\((\w+), (\w+), (\w+)\)",
                                     _macro_body(source, "CHIP_ARRAYS"))]
        self.scalars = re.findall(r"X\((\w+)\)",
                                  _macro_body(source, "CHIP_SCALARS"))
        fields = []
        for _, name, _ in self.arrays:
            fields += [(name, ctypes.c_void_p),
                       ("n_" + name, ctypes.c_int64)]
        fields += [(name, ctypes.c_int64) for name in self.scalars]
        self.Chip = type("Chip", (ctypes.Structure,), {"_fields_": fields})
        chip_p = ctypes.POINTER(self.Chip)
        self.phases = []
        for key, entry in PHASES:
            fn = getattr(lib, entry)
            fn.argtypes = (chip_p, ctypes.c_int64, ctypes.c_int64)
            fn.restype = ctypes.c_int64
            self.phases.append((key, fn))
        for entry in ("repro_kernel_abi", "repro_kernel_sizeof_chip"):
            fn = getattr(lib, entry)
            fn.argtypes = ()
            fn.restype = ctypes.c_int64

    def self_test(self, np) -> bool:
        """Known answers before the handle is trusted: the ABI number,
        the struct size, and VA on two one-port routers — the dynamic
        policy takes the free VC with the most credits at router 0 and
        the lowest index on a tie at router 1."""
        lib = self.lib
        if (lib.repro_kernel_abi() != ABI or lib.repro_kernel_sizeof_chip()
                != ctypes.sizeof(self.Chip)):
            return False
        state = {name: np.zeros(8, dtype=dtype)
                 for dtype, name, owner in self.arrays if owner == "NET"}
        state["nip"][:2] = 1
        state["r_buffered"][:2] = 1
        state["buf_len"][[0, 3]] = 1      # (router 0, vc 0), (router 1, vc 1)
        state["buf_fid"][3] = 1
        state["f_head"][:2] = True
        state["f_pkt"][1] = 1
        state["p_dst"][1] = 1
        state["route_hi"][0] = 2
        state["cred"][:4] = (1, 2, 2, 2)
        state["cred_free"][:4] = True
        sizes = dict(R=2, Pi=1, Po=1, V=2, D=1, C=1, TL=2, NIP=2)
        chip = Binding(self, np, state, sizes, NIVC=4, NOP=2)
        _, va = self.phases[0]
        return (va(chip.ref, 0, 0) == 2
                and chip.va_ivc[:2].tolist() == [0, 3]
                and state["vc_out_cred"][[0, 3]].tolist() == [1, 2]
                and state["vc_state"][[0, 3]].tolist() == [2, 2]
                and state["cred_free"][:4].tolist() == [True, False, False,
                                                        True])


class Binding:
    """One network's ``Chip``: the struct, a reference to every array
    it points into (``ctypes`` keeps none), and the kernel-owned
    scratch and event buffers as attributes."""

    def __init__(self, kernel: Kernel, np, net_arrays: dict, scalars: dict,
                 **extents):
        self.chip = kernel.Chip()
        self.ref = ctypes.byref(self.chip)
        self.phases = kernel.phases
        #: Field -> dtype, in struct order; field -> the array aimed at.
        self._dtypes = {name: np.dtype(dtype)
                        for dtype, name, _ in kernel.arrays}
        self._arrays = {}
        # Size classes of the buffers allocated here: some are sizes the
        # Chip carries anyway (R, NIP), the rest the caller names.
        extents = dict(scalars, **extents, COUNTS=_COUNTS)
        extents["NIP4"] = 4 * extents["NIP"]
        for dtype, name, owner in kernel.arrays:
            if owner == "NET":
                self.point(name, net_arrays[name])
            else:
                buf = np.empty(extents[owner], dtype=dtype)
                self.point(name, buf)
                setattr(self, name, buf)
        for name in kernel.scalars:
            setattr(self.chip, name, int(scalars.get(name, 0)))
        #: What one flush reads, and the per-reason termination rows.
        self.events = self.n[:N_EVENTS]
        self.term = tuple(self.term.reshape(4, -1))
        #: Most arrivals one cycle can stage: one per input port.
        self.capacity = len(self.in_dest)

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
    return _load(os.environ.get("CC"),
                 os.environ.get("XDG_CACHE_HOME")
                 or os.path.join(os.path.expanduser("~"), ".cache"),
                 tuple(flags))


@lru_cache(maxsize=None)
def _load(cc_env, cache_home, flags) -> Kernel:
    from ..backend import require_numpy
    np = require_numpy()
    compiler = _find_compiler(cc_env)
    if compiler is None:
        return Kernel("numpy:no-compiler")
    argv, version = compiler
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError:
        return Kernel("numpy:compile-failed")  # nothing to compile
    key = hashlib.sha256(
        b"\0".join((source, " ".join(flags).encode(), version))).hexdigest()
    cache = _cache_dir(cache_home)
    if cache is None:
        return Kernel("numpy:cache-unwritable")
    path = os.path.join(cache, f"step-{key[:32]}.so")
    if not _sealed(path):
        reason = _build(argv, flags, source, path)
        if reason is not None:
            return Kernel("numpy:" + reason)
    try:
        kernel = Kernel(f"c:{key[:12]}", ctypes.CDLL(path),
                        source.decode("utf-8"))
    except (OSError, AttributeError, ValueError):
        return Kernel("numpy:load-failed")
    if not kernel.self_test(np):
        return Kernel("numpy:self-test-failed")
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


def _cache_dir(cache_home: str) -> str | None:
    """The artifact directory, created owner-only; ``None`` if it cannot
    be made, is not the caller's, or is open to anyone else."""
    path = os.path.join(cache_home, "repro", "kernel")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.stat(path)
    except OSError:
        return None
    if info.st_uid != os.getuid() or stat.S_IMODE(info.st_mode) & 0o077:
        return None
    return path


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


def _build(argv, flags, source: bytes, path: str) -> str | None:
    """Compile ``source`` to a sealed artifact at ``path``; the reason
    (one of ``REASONS``) on failure."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix="build-", suffix=".tmp")
        os.close(fd)
    except OSError:
        return "cache-unwritable"
    try:
        try:
            out = subprocess.run([*argv, *flags, "-x", "c", "-o", tmp, "-"],
                                 input=source, capture_output=True,
                                 timeout=300)
        except (OSError, subprocess.SubprocessError):
            return "compile-failed"
        if out.returncode != 0:
            return "compile-failed"
        try:
            with open(tmp, "rb") as fh:
                body = fh.read()
            with open(tmp, "ab") as fh:
                fh.write(hashlib.sha256(body).digest())
            os.replace(tmp, path)
        except OSError:
            return "cache-unwritable"
        return None
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass  # moved into place, or never written
