#!/usr/bin/env python3
"""Self-test of the benchmark's own code. Run from the root of a checkout:

    python3 refbench/test_refbench.py

The request-parsing test builds the probe (as run.py does) and feeds every
generated request through api::request_from_json.
"""

import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

UNITS_PER_STREAM = 150


def stream_bytes(name, seed, threads=4):
    """Serialized first units of every connection of a workload, set-up and
    warm-up included."""
    workload = workloads.WORKLOADS[name](seed, threads)
    out = []
    for connection in range(workload.connections):
        out += [json.dumps(deck) for deck in workload.setup_decks[connection]]
        units = itertools.islice(workload.stream[connection], UNITS_PER_STREAM)
        for unit in list(workload.warmup) + list(units):
            for op in unit.ops:
                out.append(json.dumps([unit.rid, unit.label, op.kind, op.key, op.netlist,
                                       op.request], sort_keys=True))
    return "\n".join(out).encode()


def all_requests(name, seed, threads=4):
    workload = workloads.WORKLOADS[name](seed, threads)
    requests = []
    for connection in range(workload.connections):
        units = itertools.islice(workload.stream[connection], UNITS_PER_STREAM)
        for unit in list(workload.warmup) + list(units):
            requests += [op.request for op in unit.ops if op.kind == "run"]
    return requests


class StreamTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(stream_bytes(name, 7), stream_bytes(name, 7))

    def test_other_seed_other_bytes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(stream_bytes(name, 7), stream_bytes(name, 8))

    def test_mix_repeats_about_one_in_five(self):
        requests = [json.dumps(workloads.normalized(r), sort_keys=True)
                    for r in all_requests("daemon_mix", 3)]
        repeats = len(requests) - len(set(requests))
        self.assertGreater(repeats / len(requests), 0.15)

    def test_every_request_parses(self):
        run.build(os.cpu_count() or 1)
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as handle:
            count = 0
            for name in workloads.WORKLOADS:
                for request in all_requests(name, 11):
                    for form in (request, workloads.normalized(request)):
                        handle.write(json.dumps(form) + "\n")
                        count += 1
            for job in run.layer_probe_units(4):
                if job["op"] == "run":
                    handle.write(json.dumps(job["request"]) + "\n")
                    count += 1
            path = handle.name
        try:
            out = subprocess.run([run.PROBE, "parse", path], capture_output=True, text=True)
        finally:
            os.unlink(path)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        self.assertEqual(json.loads(out.stdout), {"requests": count, "rejected": 0})


class StatisticsTest(unittest.TestCase):
    def test_percentile(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(harness.percentile(values, 0.5), 3.0)
        self.assertEqual(harness.percentile(values, 0.0), 1.0)
        self.assertEqual(harness.percentile(values, 1.0), 5.0)
        self.assertAlmostEqual(harness.percentile(values, 0.9), 4.6)
        self.assertAlmostEqual(harness.percentile(list(range(1, 101)), 0.99), 99.01)

    def test_percentile_needs_ten_beyond(self):
        self.assertTrue(harness.reportable(20, 0.5))
        self.assertFalse(harness.reportable(19, 0.5))
        self.assertTrue(harness.reportable(100, 0.9))
        self.assertFalse(harness.reportable(99, 0.9))
        self.assertTrue(harness.reportable(1000, 0.99))
        self.assertFalse(harness.reportable(999, 0.99))

    def test_quartile_spread(self):
        # statistics.quantiles([1..10], n=4) -> 2.75, 5.5, 8.25
        self.assertAlmostEqual(harness.quartile_spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertAlmostEqual(harness.quartile_spread([10.0] * 10), 0.0)
        self.assertAlmostEqual(harness.quartile_spread([1, 2, 3, 4]), (3.75 - 1.25) / 2.5)


PAYLOAD = ('{"type":"refgen","status":{"code":"ok"},"from_cache":false,"seconds":0.0039,'
           '"termination":"complete","iterations":12,"engine_seconds":0.0037,'
           '"reference":{"numerator":{"coefficients":[{"index":0,"value":'
           '{"mantissa":"0x1.2eea14996a592p+0","exp2":-363}}]}}}')


class OracleTest(unittest.TestCase):
    def test_timing_and_cache_fields_are_ignored(self):
        other = (PAYLOAD.replace('"from_cache":false', '"from_cache":true')
                 .replace('"seconds":0.0039', '"seconds":1.5e-05')
                 .replace('"engine_seconds":0.0037', '"engine_seconds":2'))
        self.assertTrue(harness.payloads_match(PAYLOAD, other))

    def test_one_altered_byte_is_rejected(self):
        # Every byte outside the value of a timing or cache field matters.
        ignored = set()
        for match in re.finditer(r'"(?:seconds|engine_seconds|from_cache)":([^,}]*)', PAYLOAD):
            ignored.update(range(match.start(1), match.end(1)))
        for index in range(len(PAYLOAD)):
            if index in ignored:
                continue
            altered = PAYLOAD[:index] + chr(ord(PAYLOAD[index]) ^ 1) + PAYLOAD[index + 1:]
            self.assertFalse(harness.payloads_match(PAYLOAD, altered), (index, altered))

    def test_hex_mantissa_change_is_rejected(self):
        altered = PAYLOAD.replace("0x1.2eea14996a592p+0", "0x1.2eea14996a593p+0")
        self.assertFalse(harness.payloads_match(PAYLOAD, altered))

    def test_wait_payload_extraction(self):
        reply = ('{"id":"q3","result":{"job_id":"j1","state":"done","type":"refgen",'
                 '"circuit":"ua741","iterations":12,"attempts":1,"cancel_requested":false,'
                 '"seconds":0.004,"result":' + PAYLOAD + '}}').encode()
        self.assertEqual(harness.wait_payload(reply), PAYLOAD)
        self.assertEqual(harness.attempts(reply), 1)
        self.assertEqual(harness.service_seconds(PAYLOAD), 0.0039)
        self.assertEqual(harness.cache_flags(PAYLOAD), (0, 1))


if __name__ == "__main__":
    unittest.main()
