"""``serve``: closed-loop clients against one ``repro serve`` daemon.

Two client threads (``ServiceClient``, one connection each at a time)
replay one seeded request stream of analyze / check / transform / run
requests over the zoo and a fixed corpus of random programs.  The mix
follows the repo's service concurrency test (see :data:`SHAPE` and
:data:`REPEAT_SHARE`); no record of real traffic exists, so the mix is
an assumption, and cache-miss and cache-hit latencies are reported
apart so that a result can be read without it.  There are more distinct
programs than the daemon's default shard limit (64), so shards get
evicted.  Every response is compared, after the timed window, with the
in-process ``repro.api`` render of the same request.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

from harness import gmean, median, peak_rss_mb
from inputs import ZOO, generic_specs, random_spec, small_params
from repro import api, kernels, parse_program, program_to_str
from repro.service.client import ServiceClient
from repro.service.engine_pool import DEFAULT_MAX_SHARDS
from repro.util.errors import ReproError, ServiceError
from workload import Workload

CLIENTS = 2
#: Requests per program, after ``tests/service/test_concurrency.py``:
#: an analyze, a check of a spec, a check of a second (probe) spec and a
#: transform with the first spec; plus a run, which that test lacks
#: (zoo kernels only).  ``(op, index of the spec)``.
SHAPE = (("analyze", 0), ("check", 0), ("check", 1), ("transform", 0), ("run", 0))
#: That test replays its request set for three rounds, so two thirds of
#: its requests repeat an earlier one.  An assumption about real use.
REPEAT_SHARE = 2 / 3
#: Requests every run makes however slow the host: 201 put 10 samples
#: beyond p95, so ``op_tail_s`` is always p95.
MIN_REQUESTS = 201
#: Random programs beside the zoo: together more than the shard limit.
RANDOM_PROGRAMS = DEFAULT_MAX_SHARDS
RANDOM_CORPUS_SEED = 1000
STREAM_LENGTH = 50_000
READY_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 60.0

#: Requests whose correct outcome is a typed error (``error_kind``),
#: one in :data:`MALFORMED_EVERY` (an assumption: "a few" per run).
#: ``None`` marks the raw malformed body, sent outside the protocol.
MALFORMED = (
    ("check", "cholesky", "permute(K,Q)"),   # unknown loop variable
    ("transform", "trmm", "permute(I,J"),    # unparsable spec
    ("raw", None, None),                     # malformed request body
)
MALFORMED_EVERY = 97


def _request_args(op: str, text: str, spec: str, params) -> dict:
    if op == "analyze":
        return {"program": text}
    if op == "check":
        return {"program": text, "spec": spec}
    if op == "transform":
        return {"program": text, "spec": spec, "simplify": True}
    return {"program": text, "params": dict(params), "backend": "source-vec"}


def build_stream(seed: int) -> tuple[list[tuple], list[tuple]]:
    """(distinct requests, stream of indices into them).  A request is
    ``(op, args-json)``; the stream interleaves fresh requests, repeats
    and, every :data:`MALFORMED_EVERY`-th slot, a malformed one."""
    rng = random.Random(seed)
    progs = []
    for name in ZOO:
        p = getattr(kernels, name)()
        specs = generic_specs(p)
        if specs:
            progs.append((p, (specs[0], specs[-1]), True))
    for i in range(RANDOM_PROGRAMS):
        # a fixed corpus of shallow nests (a cold request costs about as
        # much as on a zoo kernel); the seed draws the traffic over it
        p = kernels.random_program(RANDOM_CORPUS_SEED + i, max_depth=2, max_children=2)
        srng = random.Random(RANDOM_CORPUS_SEED + i)
        progs.append((p, (random_spec(srng, p), random_spec(srng, p)), False))
    rng.shuffle(progs)
    # program-major: the first len(progs) fresh requests each touch a new
    # program, so a run goes past the shard limit early
    fresh = []
    for r in range(len(SHAPE)):
        for j, (p, specs, zoo) in enumerate(progs):
            op, which = SHAPE[(j + r) % len(SHAPE)]
            if op == "run" and not zoo:
                # random nests declare arrays padded by 64 on every side:
                # their run payloads would dwarf every other response
                continue
            if which and specs[1] == specs[0]:
                continue
            args = _request_args(op, program_to_str(p), specs[which], small_params(p, 5))
            fresh.append((op, json.dumps(args, sort_keys=True)))
    malformed = []
    for op, name, spec in MALFORMED:
        if op == "raw":
            malformed.append(("raw", '{"protocol": 1, "op": "check", "args": {"program": '))
            continue
        text = program_to_str(getattr(kernels, name)())
        malformed.append((op, json.dumps(_request_args(op, text, spec, {}), sort_keys=True)))
    requests = fresh + malformed
    stream = []
    issued: list[int] = []
    nxt = 0
    for i in range(STREAM_LENGTH):
        if i % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            stream.append(len(fresh) + (i // MALFORMED_EVERY) % len(malformed))
        elif issued and (rng.random() < REPEAT_SHARE or nxt == len(fresh)):
            stream.append(rng.choice(issued))
        else:
            issued.append(nxt)
            stream.append(nxt)
            nxt += 1
    return requests, stream


class Serve(Workload):
    name = "serve"
    # p99 needs over 1000 requests, which a run may or may not reach;
    # capping at p95 makes every run report the same percentile
    tail_wanted = 95.0

    def setup(self) -> list[str]:
        self.requests, self.stream = build_stream(self.seed)
        self.daemon = None
        self._start_daemon()
        return [f"{op}\0{args}" for op, args in self.requests] + [
            ",".join(map(str, self.stream))]

    def _start_daemon(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.daemon_err = open(os.path.join(self.out_dir, "daemon.stderr"), "w")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--tune-dir", os.path.join(self.out_dir, "tune-serve")],
            stdout=subprocess.PIPE, stderr=self.daemon_err, text=True,
            cwd=self.root, env=env,
        )
        line = self.daemon.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = line.rsplit(" ", 1)[1].strip()
        self.client = ServiceClient(self.url, timeout=REQUEST_TIMEOUT_S)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not self.client.healthz():
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never reported healthy")
            time.sleep(0.01)

    def close(self) -> None:
        if self.daemon is None:
            return
        self.daemon.send_signal(signal.SIGTERM)
        try:
            self.daemon.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon.stdout.close()
        self.daemon_err.close()
        self.daemon = None

    def peak_rss_mb(self) -> float:
        return self.rss

    # -- timed loop -------------------------------------------------------

    def _raw(self, body: str) -> dict:
        """POST a body outside the protocol; a 5xx status is a failure."""
        conn = http.client.HTTPConnection(self.client.host, self.client.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("POST", "/v1", body=body.encode(),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            raw = resp.read()
        finally:
            conn.close()
        if resp.status >= 500:
            raise ServiceError(f"HTTP {resp.status}")
        return json.loads(raw)

    def _client_loop(self, out: list, traced_every: bool):
        while True:
            with self.lock:
                while self.paused:
                    self.resume.wait()
                if time.perf_counter() >= self.end and self.next_i >= MIN_REQUESTS:
                    return
                i = self.next_i
                self.next_i += 1
                self.in_flight += 1
            ri = self.stream[i % len(self.stream)]
            op, args = self.requests[ri]
            traced = traced_every and i % 2 == 0
            span_name = "service.malformed" if ri >= self.n_fresh else f"service.{op}"
            t0 = time.perf_counter()
            try:
                with self.tracer.op("op.serve", i) if traced else nullcontext(), \
                        self.tracer.span(span_name) if traced else nullcontext():
                    if op == "raw":
                        resp = self._raw(args)
                    else:
                        resp = self.client.request_full(op, **json.loads(args))
                err = None
            except Exception as exc:  # noqa: BLE001 - every op outcome is accounted
                resp, err = None, exc
            out.append((i, ri, time.perf_counter() - t0, resp, err, traced))
            with self.lock:
                self.in_flight -= 1
                self.resume.notify_all()

    def _calibrate_paused(self) -> None:
        """Hold new requests, wait out the in-flight ones, take one
        host-speed sample with daemon and clients idle, and extend the
        window by the pause."""
        t0 = time.perf_counter()
        with self.lock:
            self.paused = True
            while self.in_flight:
                self.resume.wait()
        self.cal.sample()
        with self.lock:
            self.paused = False
            pause = time.perf_counter() - t0
            self.end += pause
            self.paused_s += pause
            self.resume.notify_all()

    def run(self, seconds: float) -> dict:
        self.n_fresh = len(self.requests) - len(MALFORMED)
        before = self.client.metrics()
        results: list = []
        self.lock = threading.Lock()
        self.resume = threading.Condition(self.lock)
        self.paused = False
        self.in_flight = self.next_i = 0
        self.paused_s = 0.0
        start = time.perf_counter()
        self.end = start + seconds
        threads = [
            threading.Thread(target=self._client_loop,
                             args=(results, self.tracer.enabled))
            for _ in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        while time.perf_counter() < self.end - self.cal.every_s:
            time.sleep(self.cal.every_s)
            self._calibrate_paused()
        for t in threads:
            t.join(REQUEST_TIMEOUT_S + seconds)
        wall = time.perf_counter() - start - self.paused_s
        after = self.client.metrics()
        self.rss = peak_rss_mb(self.daemon.pid)
        self.close()
        results.sort(key=lambda r: r[0])
        self.verify(results)
        return self.summarize(results, wall, before, after)

    # -- verification -----------------------------------------------------

    def expected(self, ri: int, memo: dict):
        """In-process outcome for request ``ri``: ``("ok", render)`` or
        ``("error", kind, message)``; the daemon parses every program
        under the name ``service``."""
        if ri in memo:
            return memo[ri]
        op, args = self.requests[ri]
        if op == "raw":
            # the protocol's own typed error, with any message
            memo[ri] = ("error", ServiceError.__name__, None)
            return memo[ri]
        a = json.loads(args)
        try:
            program = parse_program(api.canonical_text(a.pop("program")), "service")
            if op == "analyze":
                res = api.analyze_op(program)
            elif op == "check":
                res = api.check_op(program, a["spec"])
            elif op == "transform":
                res = api.transform_op(program, a["spec"], simplify=a["simplify"])
            else:
                res = api.run_op(program, a["params"], backend=a["backend"])
            memo[ri] = ("ok", res.render())
        except ReproError as exc:
            memo[ri] = ("error", type(exc).__name__, str(exc))
        return memo[ri]

    def verify(self, results) -> None:
        memo: dict = {}
        self.accepted = self.decisions = 0
        for i, ri, dt, resp, err, _ in results:
            op, _ = self.requests[ri]
            label = f"{op}#{ri}"
            want = self.expected(ri, memo)
            if err is not None:
                reason = f"{type(err).__name__}: {err}"
            elif op == "raw":
                # an untyped crash is relayed as error_kind=<its class>
                # with an "internal error:" message: a failure
                ok = (not resp.get("ok", True) and resp.get("error_kind") == want[1]
                      and not str(resp.get("error", "")).startswith("internal error:"))
                reason = None if ok else f"malformed body answered {resp!r}"[:200]
            elif want[0] == "error":
                reason = None if (not resp.ok and resp.error_kind == want[1]
                                  and resp.error == want[2]) else (
                    f"expected {want[1]}, got ok={resp.ok} kind={resp.error_kind}")
            elif not resp.ok:
                reason = f"unexpected {resp.error_kind}: {resp.error}"
            else:
                got = api.OPS[op].from_payload(resp.result).render()
                reason = None if got == want[1] else "response differs from in-process render"
            if ri < self.n_fresh and err is None:
                # a transform of a rejected schedule answers LegalityError
                self.decisions += 1
                self.accepted += resp.ok
            self.record(label, reason, dt)

    def summarize(self, results, wall, before, after) -> dict:
        lat = [r[2] for r in results]
        by_op: dict[str, list[float]] = {}
        served, client = [], []
        halves: tuple[list, list] = ([], [])
        #: client latency of well-formed requests the daemon computed
        #: (neither result-cached nor coalesced) and of cached ones
        miss, hit = [], []
        for _, ri, dt, resp, _, traced in results:
            op = "malformed" if ri >= self.n_fresh else self.requests[ri][0]
            by_op.setdefault(op, []).append(dt)
            halves[traced].append(dt)
            if op != "malformed" and resp is not None:
                if resp.cached:
                    hit.append(dt)
                elif not resp.coalesced:
                    miss.append(dt)
            if resp is not None and getattr(resp, "served_ns", None):
                served.append(resp.served_ns / 1e9)
                client.append(dt)
        ca, cb = after["counters"], before["counters"]

        def delta(name):
            return ca.get(name, 0) - cb.get(name, 0)

        hits, misses = delta("service.cache.hits"), delta("service.cache.misses")
        lookups = hits + misses + delta("service.batch.coalesced")
        self.layer_values.update({f"service.{op}_s": median(v) for op, v in by_op.items()})
        self.layer_values.update({
            "service.served_s": median(served),
            "service.miss_s": median(miss),
            "service.hit_s": median(hit),
            "service.transport_share": (sum(client) - sum(served)) / sum(client),
            "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "service.coalesced_ratio": delta("service.batch.coalesced") / lookups if lookups else 0.0,
            "service.shard_evictions": delta("service.shard.evictions"),
        })
        if self.tracer.enabled and all(halves):
            # traced and untraced requests interleave over one stream; their
            # medians are compared, as the latency mix is heavy-tailed
            self.twin_walls = [median(halves[0]), median(halves[1])]
        t = self.tail(lat)
        return {
            "op_p50_s": median(lat),
            "op_tail_s": t.value,
            "ops_per_s": len(lat) / wall,
            "run_gmean_s": gmean(lat),
            "accepted_share": self.accepted / self.decisions if self.decisions else 0.0,
            "_samples": len(lat),
            "_tail": t.label(),
            "_also": {"cache-miss p50": (median(miss), "s", len(miss)),
                      "cache-hit p50": (median(hit), "s", len(hit))},
        }
