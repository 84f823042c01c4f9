"""The annotation service's counter contract under concurrent callers.

Every serving path folds its outcome into the service's registry in
one place, the kernel's end-of-call fold, under the service's fold
lock (see :mod:`repro.obs.metrics`).  Threads that mix single requests and
batches while another thread keeps reloading must leave the totals
exact: ``requests`` equals the hostnames annotated, it splits into
``annotated + misses``, and the latency histogram counts every request.
"""

import sys
import threading

from repro.bench import serve_conventions, zipf_hostnames
from repro.serve.service import AnnotationService

THREADS = 4
ROUNDS = 1500
BATCH = 8


def _caller(service, hostnames, offset, oracle, made, errors):
    try:
        calls = 0
        for i in range(ROUNDS):
            start = (offset * 997 + i * BATCH) % len(hostnames)
            hostname = hostnames[start]
            if service.annotate_one(hostname) != oracle[hostname]:
                errors.append(("one", hostname))
            batch = hostnames[start:start + BATCH]
            if service.annotate_batch(batch) != [oracle[h] for h in batch]:
                errors.append(("batch", batch))
            calls += 1 + len(batch)
        made[offset] = calls
    except Exception as exc:  # reported by the test, never lost
        errors.append(exc)


def _reloader(service, result, stop, reloads):
    while not stop.is_set():
        service.reload_result(result)
        reloads.append(1)


def test_service_counters_exact_under_threads_and_reloads():
    result = serve_conventions()
    # A small memo keeps puts, hits and evictions all in play.
    service = AnnotationService(result, memo_size=64)
    service.warm()
    hostnames = zipf_hostnames(n=3000, universe=400) + [None, "", " . "]
    reference = AnnotationService(result, memo_size=0)
    oracle = dict(zip(hostnames, reference.annotate_batch(hostnames)))
    made = [0] * THREADS
    errors = []
    reloads = []
    stop = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        reloader = threading.Thread(target=_reloader,
                                    args=(service, result, stop, reloads))
        callers = [threading.Thread(target=_caller,
                                    args=(service, hostnames, k, oracle,
                                          made, errors))
                   for k in range(THREADS)]
        reloader.start()
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(120)
        stop.set()
        reloader.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers + [reloader])
    assert not errors, errors[:5]
    assert reloads, "the reloader never ran"
    stats = service.stats()
    counters = stats["counters"]
    assert counters["requests"] == sum(made)
    assert counters["requests"] == \
        counters["annotated"] + counters["misses"]
    assert stats["histograms"]["latency_seconds"]["count"] == \
        counters["requests"]
