"""Seeded workload generation.

Every workload is a pure function of its seed: the same seed yields the
same cells (or requests) in the same order.  The program under test only
ever sees the generated cells and request payloads.

``cold-sweep`` and ``service-mixed`` are the benchmark's workloads (see
README.md for why each exists).  The ``selftest-*``
workloads are tiny versions used only by ``selftest.py``.
"""

from __future__ import annotations

import random

#: cold-sweep: (target, toolchain, opt level) for each benchmark.
COLD_CONFIGS = (("wasm", "cheerp", "O2"), ("wasm", "cheerp", "Oz"),
                ("wasm", "cheerp", "Ofast"), ("js", "cheerp", "O2"),
                ("x86", "llvm-x86", "O2"))

#: service-mixed: one payload per quick-set benchmark × size × profile.
SERVICE_SIZES = ("XS", "S")
SERVICE_PROFILES = ("chrome-desktop", "firefox-desktop")

#: service-mixed sequence shape: REQUESTS_PER_PAYLOAD requests per payload
#: of the pool.  The first sends open the sequence, every TWIN_EVERY-th
#: followed at once by a repeat of the same payload, which the other client
#: sends while the first is still cold (in-flight dedupe).  The rest repeat
#: a seeded choice of payloads (memo-warm reads).  Warm reads come after the
#: cold sends: interleaved, each warm read competed for the CPUs with the
#: scheduler's worker processes, and the warm median tracked host load at
#: twice its amplitude.
REQUESTS_PER_PAYLOAD = 5
TWIN_EVERY = 2


class Workload:
    """One generated workload.

    ``kind`` is ``"direct"`` (cells run one per ``direct_lines`` call)
    or ``"service"`` (request payloads sent to a ``SweepServer``)."""

    def __init__(self, name, kind, cells=(), payloads=(), warm_from=0):
        self.name = name
        self.kind = kind
        self.cells = list(cells)
        self.payloads = list(payloads)
        #: service: the requests from this index on are memo-warm reads.
        self.warm_from = warm_from

    def expected_cells(self):
        """Every cell whose result the reference capture must hold."""
        if self.kind == "direct":
            return list(self.cells)
        from repro.service import canonicalize_request
        cells = []
        for payload in self.payloads:
            cells.extend(canonicalize_request(payload).cells)
        return cells


def _cell(benchmark, target, toolchain, opt_level, size):
    from repro.service.requests import CellSpec
    return CellSpec(benchmark=benchmark, target=target, toolchain=toolchain,
                    opt_level=opt_level, size=size, profile="chrome-desktop",
                    repetitions=1)


def _benchmark_names():
    from repro.suites import all_benchmarks
    return [b.name for b in all_benchmarks()]


def _quick_names():
    from repro.experiments.common import QUICK_SET
    return [name for name in _benchmark_names() if name in QUICK_SET]


def _payload(benchmark, size, profile):
    return {"benchmarks": [benchmark], "targets": ["wasm", "js"],
            "opt_levels": ["O2"], "sizes": [size], "profiles": [profile],
            "repetitions": 1}


def request_sequence(pool, count, rng):
    """A ``count``-long request sequence over ``pool`` (already shuffled):
    every payload's first send, some followed by a twin, then seeded
    repeats.  Returns the sequence and the index of its first repeat."""
    sequence = []
    for index, payload in enumerate(pool):
        sequence.append(payload)
        if index % TWIN_EVERY == 0:
            sequence.append(payload)
    warm_from = len(sequence)
    while len(sequence) < count:
        sequence.append(rng.choice(pool))
    return sequence, warm_from


def _service(name, benchmarks, sizes, profiles, seed):
    rng = random.Random(seed)
    pool = [_payload(b, s, p) for b in benchmarks for s in sizes
            for p in profiles]
    rng.shuffle(pool)
    count = len(pool) * REQUESTS_PER_PAYLOAD
    payloads, warm_from = request_sequence(pool, count, rng)
    return Workload(name, "service", payloads=payloads, warm_from=warm_from)


def _shuffled(cells, seed):
    random.Random(seed).shuffle(cells)
    return cells


def build(name, seed):
    """Generate workload ``name`` from ``seed``."""
    if name == "cold-sweep":
        cells = [_cell(b, *config, "XS") for b in _benchmark_names()
                 for config in COLD_CONFIGS]
        return Workload(name, "direct", cells=_shuffled(cells, seed))
    if name == "service-mixed":
        return _service(name, _quick_names(), SERVICE_SIZES,
                        SERVICE_PROFILES, seed)
    if name == "selftest-direct":
        cells = [_cell(b, "wasm", "cheerp", "O2", "XS")
                 for b in ("gemm", "atax", "SHA")]
        return Workload(name, "direct", cells=_shuffled(cells, seed))
    if name == "selftest-fail":
        # One cell the program must reject (no such input size).
        cells = [_cell("gemm", "wasm", "cheerp", "O2", "XS"),
                 _cell("gemm", "wasm", "cheerp", "O2", "XXL")]
        return Workload(name, "direct", cells=cells)
    if name == "selftest-service":
        return _service(name, ["gemm", "SHA"], ("XS",), ("chrome-desktop",),
                        seed)
    raise KeyError(name)


#: The benchmark's workloads.
WORKLOADS = ("cold-sweep", "service-mixed")

#: Every name :func:`build` accepts.
ALL = WORKLOADS + ("selftest-direct", "selftest-fail", "selftest-service")
