#!/usr/bin/env python3
"""End-to-end smoke for dartd, the live monitoring daemon.

Two scenarios against a generated campus trace:

  drain       — a rate-paced live run must drain to the barrier, serve a
                /deterministic report that is byte-stable across scrapes,
                byte-identical to an offline ``dartd replay`` of the same
                trace, and identical to the --final-out file; its /metrics
                scrape must carry the accounting identity and the same
                routed total; SIGTERM on the drained daemon must exit 0.
  sigterm     — a slow-paced run killed *mid-ingest* must drain to the
                barrier (exit 0, "drained cleanly"), and the partial
                final report must still carry the accounting identity
                processed + shed + abandoned + lost_to_crash == routed.

The offline replay is run twice first: byte-identical reports are the
precondition for every later comparison (the deterministic tier).

This script is both the ctest ``daemon_smoke`` row (--quick) and the CI
``daemon-smoke`` job's payload, where it runs under ASan/UBSan.

Exit status: 0 if every assertion holds, 1 otherwise.
"""

import argparse
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time


def fail(message):
    print("daemon_smoke: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def log(message):
    print("daemon_smoke: " + message, flush=True)


def run_checked(cmd, what):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail("%s exited %d\nstdout: %s\nstderr: %s"
             % (what, proc.returncode, proc.stdout, proc.stderr))
    return proc


def query(port, path, timeout_s=10.0):
    """One line-protocol request: send the path, read to EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as s:
        s.sendall(path.encode() + b"\n")
        chunks = []
        while True:
            data = s.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks).decode()


def wait_for_ports(path, deadline):
    """Poll the atomically-written port file until it appears."""
    while time.monotonic() < deadline:
        try:
            with open(path) as f:
                text = f.read().strip()
            if text:
                query_port, ingest_port = text.split()
                return int(query_port), int(ingest_port)
        except (FileNotFoundError, ValueError):
            pass
        time.sleep(0.05)
    fail("port file %s never appeared" % path)


def wait_for_status(port, predicate, what, deadline):
    last = ""
    while time.monotonic() < deadline:
        last = query(port, "/status")
        if predicate(last):
            return last
        time.sleep(0.1)
    fail("timed out waiting for %s; last /status:\n%s" % (what, last))


def aggregate_value(report, name):
    """Value of the unlabeled aggregate line ``name value``."""
    for line in report.splitlines():
        if line.startswith(name + " "):
            return int(line.split()[1])
    fail("report lacks aggregate line %r:\n%s" % (name, report))


def check_identity(report, what):
    routed = aggregate_value(report, "dart_routed_total")
    accounted = (aggregate_value(report, "dart_processed_total")
                 + aggregate_value(report, "dart_shed_total")
                 + aggregate_value(report, "dart_abandoned_total")
                 + aggregate_value(report, "dart_lost_to_crash_total"))
    if accounted != routed:
        fail("%s: identity broken: accounted %d != routed %d\n%s"
             % (what, accounted, routed, report))
    return routed


def start_daemon(binary, trace, rate, port_file, final_out, shards,
                 epoch_interval):
    cmd = [binary, "run", "--trace", trace, "--rate", str(rate),
           "--shards", str(shards), "--epoch-interval", str(epoch_interval),
           "--port-file", port_file, "--final-out", final_out]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def stop_and_reap(daemon, what, deadline_s=60):
    daemon.send_signal(signal.SIGTERM)
    try:
        stdout, stderr = daemon.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.communicate()
        fail("%s did not exit within %ds of SIGTERM" % (what, deadline_s))
    if daemon.returncode != 0:
        fail("%s exited %d after SIGTERM\nstderr: %s"
             % (what, daemon.returncode, stderr))
    if "drained cleanly" not in stderr:
        fail("%s exit message missing 'drained cleanly': %s" % (what, stderr))
    return stderr


def scenario_drain(binary, trace, replay_report, workdir, rate, shards,
                   epoch_interval, timeout_s):
    port_file = os.path.join(workdir, "drain.ports")
    final_out = os.path.join(workdir, "drain.final")
    daemon = start_daemon(binary, trace, rate, port_file, final_out,
                          shards, epoch_interval)
    try:
        deadline = time.monotonic() + timeout_s
        query_port, _ = wait_for_ports(port_file, deadline)
        if query(query_port, "/healthz") != "ok\n":
            fail("/healthz did not answer ok")
        wait_for_status(query_port, lambda s: "state drained" in s,
                        "drain", deadline)

        first = query(query_port, "/deterministic")
        second = query(query_port, "/deterministic")
        if first != second:
            fail("two /deterministic scrapes differ:\n%s\n-- vs --\n%s"
                 % (first, second))
        if first != replay_report:
            fail("live paced report differs from offline replay:\n%s\n"
                 "-- vs --\n%s" % (first, replay_report))
        routed = check_identity(first, "live report")
        log("drain: live == offline, identity holds over %d packets"
            % routed)

        # The live telemetry tier is folded from the same settled results
        # at drain, so it must agree with the deterministic report.
        metrics = query(query_port, "/metrics")
        metrics_routed = check_identity(metrics, "/metrics")
        if metrics_routed != routed:
            fail("/metrics routed %d != /deterministic routed %d\n%s"
                 % (metrics_routed, routed, metrics))
        log("drain: /metrics identity holds, routed matches")

        stderr = stop_and_reap(daemon, "drained daemon")
        log("drain: " + stderr.strip().splitlines()[-1])
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()
    with open(final_out) as f:
        if f.read() != replay_report:
            fail("--final-out differs from offline replay")


def scenario_sigterm_mid_run(binary, trace, workdir, shards,
                             epoch_interval, timeout_s):
    port_file = os.path.join(workdir, "sigterm.ports")
    final_out = os.path.join(workdir, "sigterm.final")
    # Real-time pacing: the trace spans seconds, so the daemon is still
    # mid-ingest when the signal lands.
    daemon = start_daemon(binary, trace, 1.0, port_file, final_out,
                          shards, epoch_interval)
    try:
        deadline = time.monotonic() + timeout_s
        query_port, _ = wait_for_ports(port_file, deadline)
        wait_for_status(query_port, lambda s: "state running" in s,
                        "ingest start", deadline)
        stderr = stop_and_reap(daemon, "mid-run daemon")
        log("sigterm: " + stderr.strip().splitlines()[-1])
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()
    with open(final_out) as f:
        report = f.read()
    routed = check_identity(report, "mid-run final report")
    log("sigterm: identity holds over %d routed packets" % routed)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True, help="path to dartd")
    parser.add_argument("--quick", action="store_true",
                        help="smaller trace, faster pace (the ctest row)")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a temp dir)")
    args = parser.parse_args()

    connections = 300 if args.quick else 1500
    duration_s = 2 if args.quick else 4
    rate = 50.0 if args.quick else 20.0  # trace seconds per wall second
    shards, epoch_interval = 3, 500
    timeout_s = 60 if args.quick else 120

    workdir = args.workdir or tempfile.mkdtemp(prefix="daemon_smoke_")
    os.makedirs(workdir, exist_ok=True)
    trace = os.path.join(workdir, "smoke.dtrc")

    run_checked([args.binary, "gen", "--out", trace, "--seed", "7",
                 "--connections", str(connections),
                 "--duration-s", str(duration_s)], "dartd gen")

    # Offline reference, twice: determinism first, then everything else
    # compares against these bytes.
    replays = []
    for i in (1, 2):
        out = os.path.join(workdir, "replay%d.txt" % i)
        run_checked([args.binary, "replay", "--trace", trace,
                     "--shards", str(shards),
                     "--epoch-interval", str(epoch_interval),
                     "--out", out], "dartd replay #%d" % i)
        with open(out) as f:
            replays.append(f.read())
    if replays[0] != replays[1]:
        fail("two offline replays differ — deterministic tier broken")
    check_identity(replays[0], "offline replay")
    log("offline replay: byte-stable, identity holds")

    scenario_drain(args.binary, trace, replays[0], workdir, rate, shards,
                   epoch_interval, timeout_s)
    scenario_sigterm_mid_run(args.binary, trace, workdir, shards,
                             epoch_interval, timeout_s)
    log("OK")


if __name__ == "__main__":
    main()
