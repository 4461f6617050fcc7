"""The repository's benchmark: verified alarms/s and send -> store-ack latency.

Run with ``python3 -m bench.run`` from the repository root; see
``bench/README.md``.  Only :mod:`bench.adapter` imports ``repro``.
"""
