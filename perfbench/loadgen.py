"""Open-loop heartbeat generator for the live workloads.

One process, one thread, one connected UDP socket::

    python loadgen.py '<plan json>'

It prints ``ready`` once its socket is open, reads the shared start time
``t0`` (a ``time.monotonic()`` reading; CLOCK_MONOTONIC is the same clock
in every process of the host) from stdin, and then:

1. sends a *scheduled stream* from ``t0`` to ``t0 + stream_end``: node
   ``i`` of ``nodes`` sends its ``k``-th heartbeat at
   ``t0 + (k * nodes + i) / (nodes * rate)`` whether or not the monitor
   keeps up, stamped with that due time; sends whose due time falls in a
   node's failure episode are skipped, and a node whose episode says
   ``reset`` comes back with its sequence number restarted at 0;
2. sends ``bursts["count"]`` bursts, one every ``bursts["period"]`` from
   ``t0 + bursts["start"]``: ``bursts["size"]`` heartbeats, every node in
   turn, as fast as one thread can send.

At the end it prints one JSON report: scheduled datagrams sent, how late
they ran, each episode's last send before it went silent and its first
send after, and when each burst began and ended.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time


def main() -> int:
    plan = json.loads(sys.argv[1])
    if plan["cpu"] is not None:
        os.sched_setaffinity(0, {plan["cpu"]})
    sys.path.insert(0, plan["src"])
    from repro.runtime.udp import pack_heartbeat

    nodes = int(plan["nodes"])
    ids = [f"n{i:05d}" for i in range(nodes)]
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.connect(tuple(plan["target"]))
        print("ready", flush=True)
        t0 = float(sys.stdin.readline())
        report = stream(sock, pack_heartbeat, ids, plan, t0)
        report.update(bursts(sock, pack_heartbeat, ids, plan, t0, report.pop("seq")))
    finally:
        sock.close()
    print(json.dumps(report), flush=True)
    return 0


def stream(sock, pack, ids, plan, t0: float) -> dict:
    nodes = len(ids)
    per_send = 1.0 / (nodes * float(plan["rate"]))
    total = int(float(plan["stream_end"]) / per_send)
    sent = 0
    inf = float("inf")
    quiet_from = [inf] * nodes
    quiet_to = [inf] * nodes
    reset = [False] * nodes
    for node, start, end, restart in plan["episodes"]:
        quiet_from[node] = t0 + start
        quiet_to[node] = t0 + end
        reset[node] = bool(restart)
    seq = [0] * nodes
    last_send = [0.0] * nodes
    went_quiet: dict[int, float] = {}
    came_back: dict[int, float] = {}
    late_max = 0.0
    late_1ms = 0
    late_5ms = 0
    errors = 0
    clock = time.monotonic
    send = sock.send
    parent = os.getppid()
    j = 0
    while j < total:
        now = clock()
        due = t0 + j * per_send
        if due > now:
            if os.getppid() != parent:
                raise SystemExit("monitor exited")
            time.sleep(due - now)
            continue
        limit = min(total, int((now - t0) / per_send) + 1)
        while j < limit:
            node = j % nodes
            due = t0 + j * per_send
            j += 1
            if quiet_from[node] <= due < quiet_to[node]:
                went_quiet.setdefault(node, last_send[node])
                continue
            if node in went_quiet and node not in came_back:
                if reset[node]:
                    seq[node] = 0
            t = clock()
            try:
                send(pack(ids[node], seq[node], due))
            except OSError:
                errors += 1
                continue
            if node in went_quiet and node not in came_back:
                came_back[node] = t
            seq[node] += 1
            last_send[node] = t
            late = t - due
            if late > late_max:
                late_max = late
            if late > 0.001:
                late_1ms += 1
                if late > 0.005:
                    late_5ms += 1
            sent += 1
    return {
        "sent": sent,
        "late_max_ms": late_max * 1e3,
        "late_over_1ms": late_1ms,
        "late_over_5ms": late_5ms,
        "send_errors": errors,
        "episodes": [
            [node, went_quiet.get(node), came_back.get(node)]
            for node, *_ in plan["episodes"]
        ],
        "seq": seq,
    }


def bursts(sock, pack, ids, plan, t0: float, seq: list[int]) -> dict:
    spec = plan["bursts"]
    clock = time.monotonic
    nodes = len(ids)
    send = sock.send
    out = []
    errors = 0
    j = 0
    for k in range(spec["count"]):
        at = t0 + spec["start"] + k * spec["period"]
        while (now := clock()) < at:
            time.sleep(at - now)
        began = clock()
        for _ in range(spec["size"]):
            node = j % nodes
            j += 1
            try:
                send(pack(ids[node], seq[node], began))
            except OSError:
                errors += 1
                continue
            seq[node] += 1
        out.append([began, clock()])
    return {"bursts": out, "burst_errors": errors}


if __name__ == "__main__":
    sys.exit(main())
