#!/usr/bin/env python3
"""Smoke and soak tests for `transtore_cli serve`.

Default (stdio) mode -- replay the six-assay batch twice through one
long-lived server process on stdin/stdout and assert

  * every first-pass request misses the cache and solves,
  * every second-pass request is a cache hit,
  * second-pass result documents are byte-identical to the first pass,
  * a `recover` request (auto fault at 50% execution) reuses the cached
    base result and answers ok or degraded with a spliced schedule,
  * the stats op reports exactly six stores and seven memory hits (the
    six replays plus the recovery's base lookup),
  * a disk-cache restart: two `serve --cache-dir D` processes in turn
    take the six assays plus one CPA request under the default `combined`
    engine at a 1 s MILP limit (its document holds a -inf bound); every
    reply of the second process is a cache hit whose result is
    byte-identical to the first process's.

Socket mode (--socket) -- the same server behind its unix-socket listener,
under many concurrent connections:

  * warm pass: one connection solves the six assays (all misses),
  * soak pass: --connections concurrent connections each replay all six;
    every response must be an ok cache hit, byte-identical to the warm
    pass, and the measured requests/sec is recorded,
  * the stats op's atomic snapshot must account for exactly the traffic
    sent (6 stores/misses, connections*6 memory hits, zero sheds),
  * overload pass: a second server with --workers 1 --queue 2 takes a
    32-request burst of distinct keys; every request must be answered
    (status ok or a structured queue_full -- nothing dropped silently),
    at least one must be shed, and the server must stay alive through a
    final ping and exit 0.

With --out FILE the soak measurements are written in the BENCH json shape
so scripts/diff_bench.py can gate requests_per_sec against a committed
baseline.

Usage: serve_smoke.py [path/to/transtore_cli] [--socket]
                      [--connections N] [--out FILE]

Exit codes: 0 ok, 1 assertion failed, 2 could not run the server.
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time


def result_doc(line):
    """Raw bytes of the "result" member (always the last member the server
    writes), for byte-level comparison between passes. None when the
    response carries no result."""
    marker = '"result":'
    i = line.find(marker)
    if i < 0:
        return None
    return line[i + len(marker):-1]


# ----------------------------------------------------------------- stdio


def stdio_smoke(cli):
    names = subprocess.run([cli, "bench-names"], capture_output=True,
                           text=True, check=True).stdout.split()
    if len(names) != 6:
        print(f"serve_smoke: expected 6 built-in assays, got {names}",
              file=sys.stderr)
        return 1

    # Heuristic engine keeps the smoke fast; the cache does not care which
    # engine produced the result.
    options = {"schedule_engine": "heuristic"}
    requests = []
    rid = 0
    for _ in range(2):
        for name in names:
            rid += 1
            requests.append({"id": rid, "op": "synth", "assay": name,
                             "options": options})
    # One mid-assay fault recovery on a multi-device design: the base
    # synthesis is already cached, so only the recovery ladder runs.
    recover_assay = "RA30" if "RA30" in names else names[0]
    requests.append({"id": "recover", "op": "recover", "assay": recover_assay,
                     "at": 0.5, "fault": "auto", "options": options})
    requests.append({"id": "stats", "op": "stats"})
    requests.append({"op": "shutdown"})
    stdin = "".join(json.dumps(r) + "\n" for r in requests)

    try:
        proc = subprocess.run([cli, "serve", "--workers", "2"], input=stdin,
                              capture_output=True, text=True, timeout=600)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"serve_smoke: cannot run {cli} serve: {e}", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(f"serve_smoke: serve exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return 2

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    responses = {}
    stats = None
    for line in lines:
        r = json.loads(line)
        if r.get("op") == "stats":
            stats = r
        elif r.get("op") != "shutdown" and r.get("id") is not None:
            responses[r["id"]] = line

    failures = []
    n = len(names)
    for k, name in enumerate(names):
        first_id, second_id = k + 1, n + k + 1
        first = responses.get(first_id)
        second = responses.get(second_id)
        if first is None or second is None:
            failures.append(f"{name}: missing response")
            continue
        f, s = json.loads(first), json.loads(second)
        bad_status = [(which, r) for which, r in (("first", f), ("second", s))
                      if r.get("status") != "ok"]
        if bad_status:
            for which, r in bad_status:
                failures.append(
                    f"{name}: {which} pass status {r.get('status')} "
                    f"({r.get('message', 'no message')})")
            continue
        if f.get("cache_hit"):
            failures.append(f"{name}: first pass unexpectedly hit the cache")
        if not s.get("cache_hit"):
            failures.append(f"{name}: second pass missed the cache")
        d1, d2 = result_doc(first), result_doc(second)
        if d1 is None or d2 is None:
            failures.append(f"{name}: response is missing its result")
        elif d1 != d2:
            failures.append(f"{name}: second-pass result is not "
                            f"byte-identical to the first pass")

    recovery = responses.get("recover")
    if recovery is None:
        failures.append("recover: missing response")
    else:
        r = json.loads(recovery)
        if r.get("status") not in ("ok", "degraded"):
            failures.append(f"recover: status {r.get('status')} "
                            f"({r.get('message', 'no message')})")
        else:
            if not r.get("cache_hit"):
                failures.append("recover: base synthesis missed the cache")
            if r.get("rung") not in ("reroute", "reschedule", "resynthesize"):
                failures.append(f"recover: unexpected rung {r.get('rung')}")
            if r.get("completed", 0) <= 0:
                failures.append("recover: no completed operations kept")
            rec = r.get("recovery", {})
            if rec.get("recovered_makespan", 0) <= 0:
                failures.append("recover: no recovered schedule in response")
            if sorted(rec.get("completed_ops", []) +
                      rec.get("rescheduled_ops", [])) != \
                    sorted(set(rec.get("completed_ops", []) +
                               rec.get("rescheduled_ops", []))):
                failures.append("recover: op partition has duplicates")

    if stats is None:
        failures.append("stats response missing")
    else:
        cache = stats["cache"]
        if cache["stores"] != n:
            failures.append(f"expected {n} stores, got {cache['stores']}")
        # n replay hits plus the recovery's base-synthesis lookup.
        if cache["memory_hits"] != n + 1:
            failures.append(
                f"expected {n + 1} memory hits, got {cache['memory_hits']}")
        if cache["misses"] != n:
            failures.append(f"expected {n} misses, got {cache['misses']}")
        if cache["negative_stores"] != 0:
            failures.append(f"expected 0 negative stores, "
                            f"got {cache['negative_stores']}")

    restart_failures, restart_seconds = disk_restart_smoke(cli, names)
    failures.extend(restart_failures)

    if failures:
        print(f"serve_smoke: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"serve_smoke: ok -- {n} assays replayed twice, "
          f"{n} cache hits, byte-identical results, 1 fault recovery; "
          f"disk-cache restart: {n + 1} byte-identical disk hits "
          f"(second process {restart_seconds:.2f} s)")
    return 0


def disk_restart_smoke(cli, names):
    """Runs `serve --cache-dir D` twice over one directory. Returns the
    failures and the second process's wall time."""
    requests = [{"id": name, "op": "synth", "assay": name,
                 "options": {"schedule_engine": "heuristic"}}
                for name in names]
    requests.append({"id": "CPA combined", "op": "synth", "assay": "CPA",
                     "options": {"schedule_engine": "combined",
                                 "sched_ilp_time_limit": 1.0}})
    stdin = "".join(json.dumps(r) + "\n"
                    for r in requests + [{"op": "shutdown"}])
    passes = []
    with tempfile.TemporaryDirectory(prefix="transtore_disk_cache_") as d:
        for _ in range(2):
            start = time.monotonic()
            proc = subprocess.run([cli, "serve", "--workers", "2",
                                   "--cache-dir", d], input=stdin,
                                  capture_output=True, text=True,
                                  timeout=600)
            seconds = time.monotonic() - start
            if proc.returncode != 0:
                raise RuntimeError(f"serve --cache-dir exited "
                                   f"{proc.returncode}\n{proc.stderr}")
            replies = {}
            for line in proc.stdout.splitlines():
                if line.strip():
                    replies[json.loads(line).get("id")] = line
            passes.append(replies)

    failures = []
    for request in requests:
        rid = request["id"]
        first, second = passes[0].get(rid), passes[1].get(rid)
        if first is None or second is None:
            failures.append(f"restart {rid}: missing response")
            continue
        f, s = json.loads(first), json.loads(second)
        if f.get("status") != "ok" or s.get("status") != "ok":
            failures.append(f"restart {rid}: status {f.get('status')} then "
                            f"{s.get('status')} ({s.get('message', '')})")
        elif f.get("cache_hit"):
            failures.append(f"restart {rid}: first process hit the cache")
        elif not s.get("cache_hit"):
            failures.append(f"restart {rid}: second process missed the "
                            f"disk cache")
        elif result_doc(first) != result_doc(second):
            failures.append(f"restart {rid}: second-process result is not "
                            f"byte-identical to the first process's")
    return failures, seconds


# ---------------------------------------------------------------- socket


class Conn:
    """One line-delimited JSON client connection on a unix socket."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.file = self.sock.makefile("rw")

    def send(self, request):
        self.file.write(json.dumps(request) + "\n")

    def flush(self):
        self.file.flush()

    def recv_line(self):
        return self.file.readline().rstrip("\n")

    def recv(self):
        return json.loads(self.recv_line())

    def close(self):
        self.file.close()
        self.sock.close()


def start_server(cli, sock_path, extra_flags, log):
    proc = subprocess.Popen([cli, "serve", "--socket", sock_path] +
                            extra_flags, stdout=subprocess.DEVNULL,
                            stderr=log)
    deadline = time.monotonic() + 30.0
    while not os.path.exists(sock_path):
        if proc.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError(f"server did not come up on {sock_path}")
        time.sleep(0.02)
    return proc


def socket_smoke(cli, connections, out_path):
    names = subprocess.run([cli, "bench-names"], capture_output=True,
                           text=True, check=True).stdout.split()
    options = {"schedule_engine": "heuristic"}
    failures = []
    bench_records = []
    tmp = tempfile.mkdtemp(prefix="transtore_serve_smoke_")
    log = open(os.path.join(tmp, "serve.log"), "w")

    # ---- server 1: warm + soak ------------------------------------------
    sock1 = os.path.join(tmp, "soak.sock")
    server = start_server(cli, sock1, ["--workers", "2"], log)

    warm = Conn(sock1)
    warm_start = time.monotonic()
    for i, name in enumerate(names):
        warm.send({"id": i, "op": "synth", "assay": name,
                   "options": options})
    warm.flush()
    warm_docs = {}
    for _ in names:
        line = warm.recv_line()
        r = json.loads(line)
        name = r.get("assay")
        if r.get("status") != "ok":
            failures.append(f"warm {name}: status {r.get('status')}")
        elif r.get("cache_hit"):
            failures.append(f"warm {name}: unexpectedly hit the cache")
        else:
            warm_docs[name] = result_doc(line)
    warm_seconds = time.monotonic() - warm_start

    def replay(tag, errors):
        try:
            c = Conn(sock1)
            for i, name in enumerate(names):
                c.send({"id": f"{tag}-{i}", "op": "synth", "assay": name,
                        "options": options})
            c.flush()
            for _ in names:
                line = c.recv_line()
                r = json.loads(line)
                name = r.get("assay")
                if r.get("status") != "ok":
                    errors.append(f"{tag} {name}: status {r.get('status')}")
                elif not r.get("cache_hit"):
                    errors.append(f"{tag} {name}: missed the cache")
                elif result_doc(line) != warm_docs.get(name):
                    errors.append(f"{tag} {name}: result not byte-identical "
                                  f"to the warm pass")
            c.close()
        except OSError as e:
            errors.append(f"{tag}: connection error: {e}")

    soak_errors = []
    threads = [threading.Thread(target=replay, args=(f"c{k}", soak_errors))
               for k in range(connections)]
    soak_start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    soak_seconds = time.monotonic() - soak_start
    failures.extend(soak_errors)
    soak_requests = connections * len(names)
    soak_rps = soak_requests / soak_seconds if soak_seconds > 0 else 0.0

    # Atomic stats snapshot must account exactly for the traffic sent. The
    # writer threads record response metrics just after the bytes hit the
    # socket, so a client can observe its last response a hair before the
    # counters move -- poll until the synth latency count settles.
    n = len(names)
    deadline = time.monotonic() + 5.0
    while True:
        warm.send({"id": "stats", "op": "stats"})
        warm.flush()
        stats = warm.recv()
        synth_count = stats.get("serve", {}).get("latency", {}) \
            .get("synth", {}).get("count", 0)
        if synth_count >= n + connections * n or \
                time.monotonic() > deadline:
            break
        time.sleep(0.01)
    cache = stats.get("cache", {})
    serve = stats.get("serve", {})
    pool = stats.get("executor", {})
    checks = [
        (cache.get("stores"), n, "cache.stores"),
        (cache.get("misses"), n, "cache.misses"),
        (cache.get("memory_hits"), soak_requests, "cache.memory_hits"),
        (cache.get("entries"), n, "cache.entries"),
        (serve.get("shed"), 0, "serve.shed"),
        (serve.get("framing_errors"), 0, "serve.framing_errors"),
        (serve.get("connections_accepted"), connections + 1,
         "serve.connections_accepted"),
        (pool.get("rejected_queue_full"), 0,
         "executor.rejected_queue_full"),
        (pool.get("submitted"), n + soak_requests, "executor.submitted"),
    ]
    for got, want, label in checks:
        if got != want:
            failures.append(f"stats: {label} = {got}, expected {want}")
    if cache.get("lookups") != (cache.get("memory_hits", 0) +
                                cache.get("disk_hits", 0) +
                                cache.get("misses", 0)):
        failures.append(f"stats: lookup identity violated: {cache}")
    synth_latency = serve.get("latency", {}).get("synth", {})
    if synth_latency.get("count") != n + soak_requests:
        failures.append(f"stats: latency.synth.count = "
                        f"{synth_latency.get('count')}, expected "
                        f"{n + soak_requests}")
    if cache.get("bytes", 0) <= 0:
        failures.append("stats: cache.bytes not accounted")

    warm.send({"op": "shutdown"})
    warm.flush()
    if warm.recv().get("op") != "shutdown":
        failures.append("soak server: no shutdown ack")
    warm.close()
    if server.wait(timeout=60) != 0:
        failures.append(f"soak server exited {server.returncode}")

    # ---- server 2: overload ---------------------------------------------
    # One worker and a two-slot queue against a 32-request burst of
    # distinct cache keys: most submissions must be shed with a structured
    # queue_full, every request must be answered, the server must survive.
    sock2 = os.path.join(tmp, "overload.sock")
    server = start_server(
        cli, sock2, ["--workers", "1", "--queue", "2"], log)
    burst_conns, burst_reqs = 16, 2
    statuses = {}
    overload_errors = []

    def burst(k):
        try:
            c = Conn(sock2)
            for j in range(burst_reqs):
                rid = f"b{k}-{j}"
                c.send({"id": rid, "op": "synth", "assay": "PCR",
                        "options": dict(options,
                                        seed=1 + k * burst_reqs + j)})
            c.flush()
            for _ in range(burst_reqs):
                r = c.recv()
                statuses[r.get("id")] = r.get("status")
            c.close()
        except OSError as e:
            overload_errors.append(f"burst {k}: connection error: {e}")

    overload_start = time.monotonic()
    threads = [threading.Thread(target=burst, args=(k,))
               for k in range(burst_conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    overload_seconds = time.monotonic() - overload_start
    failures.extend(overload_errors)

    expected_ids = {f"b{k}-{j}" for k in range(burst_conns)
                    for j in range(burst_reqs)}
    missing = expected_ids - statuses.keys()
    if missing:
        failures.append(f"overload: {len(missing)} request(s) never "
                        f"answered: {sorted(missing)[:4]}...")
    bad = {i: s for i, s in statuses.items()
           if s not in ("ok", "queue_full")}
    if bad:
        failures.append(f"overload: unexpected statuses {bad}")
    shed = sum(1 for s in statuses.values() if s == "queue_full")
    if shed == 0:
        failures.append("overload: bounded queue never shed a request")

    # The server must still be fully alive after the burst.
    c = Conn(sock2)
    c.send({"id": "alive", "op": "ping"})
    c.flush()
    if c.recv().get("status") != "ok":
        failures.append("overload: ping after the burst failed")
    c.send({"id": "stats", "op": "stats"})
    c.flush()
    stats = c.recv()
    if stats.get("executor", {}).get("rejected_queue_full") != shed:
        failures.append(
            f"overload: executor.rejected_queue_full = "
            f"{stats.get('executor', {}).get('rejected_queue_full')}, "
            f"expected {shed}")
    c.send({"op": "shutdown"})
    c.flush()
    c.recv()
    c.close()
    if server.wait(timeout=60) != 0:
        failures.append(f"overload server exited {server.returncode}")
    log.close()

    bench_records = [
        {"assay": "six_assays", "config": "warm_cold_solve",
         "status": "throughput", "requests": n, "seconds": warm_seconds,
         "requests_per_sec": n / warm_seconds, "connections": 1},
        {"assay": "six_assays", "config": f"soak_hits_c{connections}",
         "status": "throughput", "requests": soak_requests,
         "seconds": soak_seconds, "requests_per_sec": soak_rps,
         "connections": connections},
        {"assay": "PCR", "config": "overload_w1_q2",
         "status": "throughput",
         "requests": burst_conns * burst_reqs,
         "seconds": overload_seconds, "queue_full": shed,
         "connections": burst_conns},
    ]
    if out_path:
        with open(out_path, "w") as f:
            json.dump({"tool": "serve_smoke", "results": bench_records}, f,
                      indent=1)
        print(f"serve_smoke: wrote {out_path}")

    if failures:
        print(f"serve_smoke: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"serve_smoke: ok -- socket soak: {connections} connections x "
          f"{n} assays all byte-identical hits at {soak_rps:.0f} req/s; "
          f"overload: {shed}/{burst_conns * burst_reqs} shed with "
          f"queue_full, none dropped")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("cli", nargs="?", default="./transtore_cli")
    ap.add_argument("--socket", action="store_true",
                    help="run the unix-socket soak instead of stdio mode")
    ap.add_argument("--connections", type=int, default=16,
                    help="concurrent soak connections (default 16)")
    ap.add_argument("--out", default="",
                    help="write soak measurements as BENCH json")
    args = ap.parse_args()
    try:
        if args.socket:
            return socket_smoke(args.cli, args.connections, args.out)
        return stdio_smoke(args.cli)
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        print(f"serve_smoke: cannot run {args.cli}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
