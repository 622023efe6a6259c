#!/usr/bin/env python3
"""Periodic snapshot smoke: with --snapshot-interval 1, silicond writes
an `interval` cache snapshot while it is still serving (on stdio, or
over TCP with --port 0), and a restart from that snapshot is warm: it
restores every entry and answers the golden corpus byte-identically,
with cache misses left only for the lines never cached (errors).

    snapshot_interval_smoke.py SILICOND REQUESTS GOLDEN WORKDIR stdio|tcp
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time


def fail(message):
    sys.exit("snapshot_interval_smoke: " + message)


class log_reader:
    """Collects silicond's stderr JSONL events on a background thread."""

    def __init__(self, stream):
        self.events = []
        self.lock = threading.Lock()
        self.thread = threading.Thread(target=self._read, args=(stream,))
        self.thread.start()

    def _read(self, stream):
        for line in stream:
            try:
                event = json.loads(line)
            except ValueError:
                continue
            with self.lock:
                self.events.append(event)

    def wait_for(self, predicate, after=0, timeout=15.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                for event in self.events[after:]:
                    if predicate(event):
                        return event
            time.sleep(0.05)
        fail("timed out waiting for a log event; saw %r" % self.events)

    def count(self):
        with self.lock:
            return len(self.events)


def is_interval_write(event):
    return (event.get("event") == "silicond.snapshot_written"
            and event.get("reason") == "interval")


def main():
    silicond, requests_path, golden_path, workdir, mode = sys.argv[1:6]
    os.makedirs(workdir, exist_ok=True)
    snapshot = os.path.join(workdir, "live.snap")
    kept = os.path.join(workdir, "interval.snap")
    for path in (snapshot, snapshot + ".tmp", kept):
        if os.path.exists(path):
            os.remove(path)
    with open(requests_path, "rb") as f:
        requests = f.read()
    with open(golden_path, "rb") as f:
        golden = f.read()
    replies_wanted = golden.count(b"\n")

    args = [silicond, "--cache-snapshot", snapshot, "--snapshot-interval",
            "1", "--metrics"]
    if mode == "tcp":
        args += ["--port", "0"]
    server = subprocess.Popen(args, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=False)
    log = log_reader(server.stderr)
    client = None
    if mode == "tcp":
        port = log.wait_for(
            lambda e: e.get("event") == "silicond.listening")["port"]
        client = socket.create_connection(("127.0.0.1", port))
        client.sendall(requests)
        reply_stream = client.makefile("rb")
    else:
        server.stdin.write(requests)
        server.stdin.flush()
        reply_stream = server.stdout
    replies = b"".join(reply_stream.readline()
                       for _ in range(replies_wanted))
    if replies != golden:
        fail("%s replies differ from the golden corpus" % mode)

    # Every request is answered and the stream is still open: the next
    # interval write holds the whole cache, written while serving.
    written = log.wait_for(is_interval_write, after=log.count())
    if written["entries"] == 0:
        fail("the interval snapshot is empty")
    if server.poll() is not None:
        fail("silicond exited before the interval snapshot")
    shutil.copyfile(snapshot, kept)

    if client is not None:
        reply_stream.close()
        client.close()
        server.send_signal(signal.SIGTERM)
    server.stdin.close()
    if server.wait(timeout=30) != 0:
        fail("silicond exited with status %d" % server.returncode)
    log.thread.join()
    cold_cache = [e["cache"] for e in log.events if "cache" in e][0]

    # Restart from the interval snapshot: warm, and the same bytes.
    warm = subprocess.run([silicond, "--cache-snapshot", kept, "--metrics"],
                          input=requests, capture_output=True, timeout=60)
    if warm.returncode != 0:
        fail("the restarted silicond exited with %d" % warm.returncode)
    if warm.stdout != golden:
        fail("the warm restart's replies differ from the golden corpus")
    events = [json.loads(l) for l in warm.stderr.decode().splitlines()
              if l.startswith("{")]
    restored = [e for e in events
                if e.get("event") == "silicond.snapshot_restored"]
    if not restored or restored[0]["entries"] != written["entries"]:
        fail("the restart did not restore the interval snapshot's %d "
             "entries: %r" % (written["entries"], events))
    # Every line the first run evaluated hits now, but the ones never
    # cached (errors), which miss again.
    warm_cache = [e["cache"] for e in events if "cache" in e][0]
    if (warm_cache["misses"] >= cold_cache["misses"]
            or warm_cache["hits"] < cold_cache["misses"] - warm_cache["misses"]):
        fail("the restart is not warm: %r after %r" % (warm_cache, cold_cache))
    print("%s: interval snapshot of %d entries restored warm, cache %r"
          % (mode, written["entries"], warm_cache))


if __name__ == "__main__":
    main()
