"""Helpers shared by every workload: statistics, spans, failure
accounting, process probes and provenance.

Nothing here imports ``repro``: the orchestrator (``run.py``) loads this
module before any package import, so set-up time stays attributable to
the worker that pays it.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

#: A tail percentile is only reported when at least this many samples
#: lie beyond it; fewer make the value one outlier's opinion.
TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, wanted: float) -> float | None:
    """The highest percentile up to ``wanted`` that has at least
    :data:`TAIL_SAMPLES` of ``n`` samples strictly beyond it, from the
    ladder 50, 75, 90, 95, 99, 99.9; ``None`` when even the median has
    fewer."""
    best = None
    for q in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if q > wanted:
            break
        beyond = n - 1 - math.floor((n - 1) * q / 100.0)
        if beyond >= TAIL_SAMPLES:
            best = q
    return best


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile it could honestly claim."""

    q: float | None   # None: too few samples, ``value`` is the maximum
    value: float
    n: int

    def label(self) -> str:
        return f"max of {self.n}" if self.q is None else f"p{self.q:g} of {self.n}"


def tail(values, wanted: float) -> Tail:
    """Latency at the highest percentile (up to ``wanted``) that keeps
    :data:`TAIL_SAMPLES` samples beyond it; the maximum when none does."""
    xs = list(values)
    q = tail_percentile(len(xs), wanted)
    return Tail(q, max(xs) if q is None else percentile(xs, q), len(xs))


def fixed_tail(values, q: float | None) -> Tail:
    """The tail at percentile ``q`` exactly, or the maximum for ``None``.

    A workload reports one percentile under one metric name, so a run
    with too few samples for ``q`` raises ``ValueError`` instead of
    quietly reporting a lower percentile."""
    xs = list(values)
    if q is None:
        return Tail(None, max(xs), len(xs))
    t = tail(xs, q)
    if t.q != q:
        raise ValueError(f"p{q:g} needs {TAIL_SAMPLES} samples beyond it; "
                         f"{len(xs)} samples only reach {t.label()}")
    return t


def gmean(values) -> float:
    """Geometric mean of positive values."""
    xs = list(values)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def median(values) -> float:
    return statistics.median(list(values))


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

def python_kernel() -> int:
    """Fixed pure-Python work independent of the package: small dicts,
    tuples, sorting, string keys and integer arithmetic, the kind of
    object churn the compiler layers do."""
    acc = 0
    for i in range(1100):
        row = {f"v{j}": (i * j) % 7 - 3 for j in range(12)}
        key = tuple(sorted(row.items(), key=lambda kv: (kv[1], kv[0])))
        acc += sum(c for _, c in key) + len(key) + hash(key[0][0]) % 3
    return acc


def numpy_kernel() -> float:
    """Fixed NumPy work: row-by-row slice assignments over a 256x256
    array, the memory traffic of vectorized generated code."""
    import numpy as np

    a = np.ones((256, 256))
    b = np.full((256, 256), 0.5)
    for _ in range(16):
        for i in range(1, 256):
            a[i, 1:] = a[i - 1, :-1] * 0.5 + b[i, 1:]
    return float(a[-1, -1])


#: Kernel time, in seconds, at the reference host speed that reported
#: times are scaled to (a 2-CPU Xeon at its slower usual speed).
REFERENCE_S = {python_kernel: 0.015, numpy_kernel: 0.019}


class Calibrator:
    """Samples a calibration kernel between timed ops.

    The host this runs on changes speed by up to 2x over seconds to
    minutes (shared cores).  Times measured in a run are scaled by
    ``REFERENCE_S[kernel] / mean kernel time`` over the same run, which
    cancels most of that drift; the samples are taken outside every
    timed region, spread over the run.  A workload calibrates with the
    kernel whose work resembles its ops: NumPy memory traffic slows
    differently from interpreter work.
    """

    #: samples on each side of an op that :meth:`factor_at` averages
    NEAR = 3

    def __init__(self, kernel=python_kernel, every_s: float = 0.5):
        self.kernel = kernel
        self.every_s = every_s
        kernel()  # warm-up: imports, first-touch allocation
        self.samples: list[float] = []
        #: the time each sample ended, ascending
        self.stamps: list[float] = []
        self._last = -math.inf

    def sample(self, reps: int = 1) -> None:
        # the collector is held off so that the sample tracks the host,
        # not the size of the heap the measured program left behind
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(reps):
                t0 = time.perf_counter()
                self.kernel()
                t1 = time.perf_counter()
                self.samples.append(t1 - t0)
                self.stamps.append(t1)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()

    def maybe(self) -> None:
        """One sample if ``every_s`` has passed since the last one."""
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def factor(self) -> float:
        """Multiplier taking this run's times to the reference speed."""
        return REFERENCE_S[self.kernel] / statistics.fmean(self.samples)

    def factor_at(self, t: float) -> float:
        """Multiplier for an op that started at ``t``, from the
        :data:`NEAR` samples before ``t`` and the :data:`NEAR` after it
        (no sample runs during an op): it follows the host's swings from
        op to op, which the run's mean does not."""
        i = bisect.bisect(self.stamps, t)
        near = self.samples[max(i - self.NEAR, 0):i + self.NEAR]
        return REFERENCE_S[self.kernel] / statistics.fmean(near)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

@dataclass
class SpanRecord:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int


class Tracer:
    """Spans recorded around the benchmark's own calls into the package.

    Spans stay in memory until :meth:`dump`.  Each thread keeps its own
    span stack, so concurrent clients get correct parents.
    ``enabled=False`` makes :meth:`span` a no-op, so the untraced run
    pays one attribute test.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def op(self, name: str, op_id: int):
        """Root span of one timed operation."""
        self._local.op = op_id
        with self.span(name):
            yield

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            rec = SpanRecord(len(self.spans), name, time.perf_counter_ns(), 0,
                             parent, getattr(self._local, "op", 0))
            self.spans.append(rec)
        stack.append(rec.sid)
        try:
            yield
        finally:
            stack.pop()
            rec.end_ns = time.perf_counter_ns()

    def dump(self, path: str) -> None:
        import json

        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.__dict__) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: the span's duration minus the union of
    the intervals its direct children cover (children are clipped to the
    parent, overlapping children are counted once)."""
    kids: dict[int, list[SpanRecord]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(kids.get(s.sid, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end_ns - s.start_ns) - covered
    return out


def layer_table(spans) -> tuple[dict[str, float], dict[str, int], int]:
    """Per span name: total self seconds and call count, plus the number
    of root (op) spans.  Self times of one op add up to its wall by
    construction; :func:`check_additive` measures how closely."""
    st = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + st[s.sid] / 1e9
        calls[s.name] = calls.get(s.name, 0) + 1
    return total, calls, sum(1 for s in spans if s.parent is None)


def check_additive(spans) -> float:
    """Largest |sum of self times - wall| over ops, in seconds."""
    st = self_times(spans)
    per_op: dict[int, int] = {}
    wall: dict[int, int] = {}
    for s in spans:
        per_op[s.op] = per_op.get(s.op, 0) + st[s.sid]
        if s.parent is None:
            wall[s.op] = wall.get(s.op, 0) + s.end_ns - s.start_ns
    return max((abs(per_op[k] - wall.get(k, 0)) for k in per_op), default=0) / 1e9


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------

@dataclass
class Ledger:
    """Attempted ops and the failed ones, each with a reason.

    A failed op is an untyped exception, a wrong output, a timeout or a
    server error; a typed error where one was expected is a success.
    """

    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, op: str, reason: str) -> None:
        self.attempted += 1
        self.failures.append((op, reason))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def classify(expect_error: bool, error: BaseException | None, typed) -> str | None:
    """Failure reason for one op outcome, or ``None`` for success.

    ``typed`` is the package's error base class: an exception of that
    class is the correct outcome exactly when one was expected."""
    if error is None:
        return "expected a typed error, got a result" if expect_error else None
    if isinstance(error, typed):
        return None if expect_error else f"unexpected {type(error).__name__}: {error}"
    return f"untyped {type(error).__name__}: {error}"


class OpTimeout(Exception):
    """Raised inside an op that overran its time limit."""


@contextmanager
def time_limit(seconds: float):
    """Interrupt the enclosed pure-Python code after ``seconds``."""
    import signal

    def _alarm(signum, frame):
        raise OpTimeout(f"op exceeded {seconds:g} s")

    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# processes and provenance
# ---------------------------------------------------------------------------

def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set of ``pid`` (default: this process) in MiB."""
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def digest(texts) -> str:
    """SHA-256 over an ordered sequence of input texts."""
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def source_digest(root: str) -> str:
    """SHA-256 over every file under ``root/src`` (path and content):
    identifies the measured code even where no git metadata exists."""
    h = hashlib.sha256()
    base = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _git(root: str, *args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", root, *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: str, seed: int, workload: str) -> dict:
    """Commit, dirty flag, host fingerprint and seed for one result.

    Outside a git checkout ``commit`` and ``dirty`` are ``None`` and the
    source digest alone identifies the code."""
    sha = _git(root, "rev-parse", "HEAD") if os.path.isdir(os.path.join(root, ".git")) else None
    dirty = None
    if sha is not None:
        dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no", "--", "src"))
    try:
        import numpy

        np_version = numpy.__version__
    except ImportError:
        np_version = None
    return {
        "workload": workload,
        "seed": seed,
        "commit": sha,
        "dirty": dirty,
        "source_sha256": source_digest(root),
        "host": {
            "cpus": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np_version,
        },
        "python_executable": os.path.basename(sys.executable),
    }
