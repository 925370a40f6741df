"""Statistics, the response oracle's comparison and the daemon client."""

import math
import re
import socket
import statistics
import time


# --- Statistics ----------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolation percentile (p in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    position = p * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_count(n, p):
    """Samples that lie beyond the p-th percentile of n samples."""
    return n - math.ceil(p * n)


def reportable(n, p, beyond=10):
    """A percentile is reported only when at least `beyond` samples lie past it."""
    return n > 0 and tail_count(n, p) >= beyond


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def median(values):
    return statistics.median(values)


# --- Oracle ----------------------------------------------------------------------

_TIMING = r'"(?:seconds|engine_seconds|from_cache)":(?:true|false|null|-?[0-9][0-9.eE+-]*)'
_TIMING_AFTER = re.compile("," + _TIMING)
_TIMING_FIRST = re.compile(r"(?<=\{)" + _TIMING + ",?")


def strip_timing(payload):
    """Drop the fields that legitimately differ between two runs of one
    request: wall-clock timings and whether the response came from a cache.
    Everything else must match byte for byte."""
    return _TIMING_FIRST.sub("", _TIMING_AFTER.sub("", payload))


def payloads_match(daemon_payload, oracle_payload):
    return strip_timing(daemon_payload) == strip_timing(oracle_payload)


def cache_flags(payload):
    """(hits, misses) recorded in a payload's from_cache flags."""
    return payload.count('"from_cache":true'), payload.count('"from_cache":false')


# --- Daemon client ---------------------------------------------------------------

class ProtocolError(RuntimeError):
    pass


class Connection:
    """One client session of the line-delimited JSON protocol.

    Replies are matched by id; server-pushed event lines are skipped
    unparsed. Ids are strings, so the echoed id is found by a byte prefix
    match instead of a JSON parse of a possibly multi-megabyte line."""

    def __init__(self, port):
        # A stuck daemon must end the run, not hang it.
        self._socket = socket.create_connection(("127.0.0.1", port), timeout=120)
        self._reader = self._socket.makefile("rb")
        self._next = 0

    def close(self):
        self._reader.close()
        self._socket.close()

    def call(self, method, params_json):
        """Send one request (params already JSON text); return the raw reply
        line (bytes, newline stripped)."""
        self._next += 1
        prefix = b'{"id":"q%d",' % self._next
        line = b'{"id":"q%d","method":"%s","params":%s}\n' % (
            self._next, method.encode(), params_json.encode())
        self._socket.sendall(line)
        while True:
            reply = self._reader.readline()
            if not reply:
                raise ProtocolError(f"connection closed awaiting {method}")
            if reply.startswith(prefix):
                reply = reply.rstrip(b"\n")
                if reply[len(prefix):].startswith(b'"error":'):
                    raise ProtocolError(f"{method} failed: {reply[:300]!r}")
                return reply


_JOB_ID = re.compile(rb'"job_id":"(j\d+)"')
_ATTEMPTS = re.compile(rb'"attempts":(\d+)')
_CIRCUIT_ID = re.compile(rb'"circuit_id":"(c\d+)"')


def job_id(reply):
    return _JOB_ID.search(reply).group(1).decode()


def circuit_id(reply):
    return _CIRCUIT_ID.search(reply).group(1).decode()


def wait_payload(reply):
    """The job's response payload inside a wait reply, as the daemon wrote
    it: {"id":..,"result":{<job info>..,"result":PAYLOAD}}. Job info
    precedes the payload and holds no nested "result" key."""
    text = reply.decode()
    start = text.index(',"result":', len('{"id":"q0","result":')) + len(',"result":')
    if not text.endswith("}}"):
        raise ProtocolError("wait reply without a result payload")
    return text[start:-2]


_SECONDS = re.compile(r'"seconds":(-?[0-9][0-9.eE+-]*)')


def service_seconds(payload):
    """The service time the daemon reported in a payload (its first, top-level
    "seconds" member; 0 for failure payloads, which carry none)."""
    match = _SECONDS.search(payload)
    return float(match.group(1)) if match else 0.0


def attempts(reply):
    match = _ATTEMPTS.search(reply)
    return int(match.group(1)) if match else 1


def read_rss_mb(pid):
    """VmHWM (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ProtocolError("no VmHWM")


def now():
    return time.perf_counter()
