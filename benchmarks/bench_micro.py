"""Microbenchmarks of the performance-critical kernels.

Unlike the experiment benchmarks (one timed run each), these use
pytest-benchmark's statistical timing: the learner on one suffix, the
congruence classifier, the Damerau-Levenshtein kernel, longest-prefix-match
lookups, routing-model construction and traceroute expansion.
"""

import pytest

from repro.bench import bench_regex_set
from repro.core.evaluate import evaluate_nc, evaluate_regex
from repro.core.hoiho import HoihoConfig, learn_suffix
from repro.core.matchcache import MatchCache
from repro.core.regex_model import Regex
from repro.core.types import SuffixDataset, TrainingItem
from repro.topology.world import WorldConfig, generate_world
from repro.traceroute.campaign import CampaignConfig, run_campaign
from repro.traceroute.routing import RoutingModel
from repro.util.ipaddr import IPv4Prefix
from repro.util.radix import PrefixTable
from repro.util.strings import damerau_levenshtein


@pytest.fixture(scope="module")
def suffix_dataset():
    asns = [1000 + 37 * i for i in range(60)]
    items = [TrainingItem("as%d-10ge-pop%d.example.net" % (asn, i % 7), asn)
             for i, asn in enumerate(asns)]
    items += [TrainingItem("lo0.cr%d.pop%d.example.net" % (i, i % 7), 1000)
              for i in range(20)]
    return SuffixDataset("example.net", items)


def test_learn_one_suffix(benchmark, suffix_dataset):
    convention = benchmark(learn_suffix, suffix_dataset)
    assert convention is not None
    assert convention.score.tp == 60


def test_learn_one_suffix_uncached(benchmark, suffix_dataset):
    """Baseline without the match-vector cache; compare against
    ``test_learn_one_suffix`` to read the cache speedup."""
    config = HoihoConfig(enable_cache=False)
    convention = benchmark(learn_suffix, suffix_dataset, config)
    assert convention is not None
    assert convention.score.tp == 60


def test_evaluate_regex(benchmark, suffix_dataset):
    regex = Regex.raw(r"^as(\d+)-10ge-pop\d+\.example\.net$")
    score = benchmark(evaluate_regex, regex, suffix_dataset)
    assert score.tp == 60


def test_evaluate_nc_set_uncached(benchmark, suffix_dataset):
    """First-match scoring of a multi-regex set, regex engine per item."""
    regexes = bench_regex_set()
    score = benchmark(evaluate_nc, regexes, suffix_dataset)
    assert score.tp == 60


def test_evaluate_nc_set_cached_cold(benchmark, suffix_dataset):
    """Cache path including vector construction (cold start)."""
    regexes = bench_regex_set()

    def cold():
        cache = MatchCache(suffix_dataset)
        return cache.score_nc(regexes)

    score = benchmark(cold)
    assert score.tp == 60


def test_evaluate_nc_set_cached_warm(benchmark, suffix_dataset):
    """Pure vector composition once every regex is already scored."""
    regexes = bench_regex_set()
    cache = MatchCache(suffix_dataset)
    cache.score_nc(regexes)   # warm the vectors
    score = benchmark(cache.score_nc, regexes)
    assert score.tp == 60


def test_damerau_levenshtein(benchmark):
    result = benchmark(damerau_levenshtein, "2021531997", "2021351997")
    assert result == 1


#: Prefix count per length in the seed-2020 SMALL world's route table.
SMALL_ROUTE_SHAPE = {14: 4, 16: 22, 17: 50, 18: 26, 20: 80, 24: 8}


def small_shaped_table():
    """A route table shaped like SMALL's: 190 disjoint prefixes, /14-/24,
    lengths interleaved, allocated upward from 4.0.0.0."""
    lengths = [length for length, count in SMALL_ROUTE_SHAPE.items()
               for _ in range(count)]
    lengths = [lengths[(i * 37) % len(lengths)] for i in range(len(lengths))]
    table = PrefixTable()
    cursor = 4 << 24
    for index, length in enumerate(lengths):
        size = 1 << (32 - length)
        cursor = -(-cursor // size) * size  # align to the prefix size
        table.insert(IPv4Prefix(cursor, length), index)
        cursor += size
    return table, cursor


def test_radix_lookup(benchmark):
    """One hit inside every prefix plus as many misses past the last."""
    table, end = small_shaped_table()
    hits = [prefix.network + prefix.size // 3 for prefix, _ in table.items()]
    probes = hits + [end + 97 * i for i in range(len(hits))]

    def lookups():
        return sum(table.lookup(address) is not None for address in probes)

    assert len(table) == 190
    assert benchmark(lookups) == len(hits)


@pytest.fixture(scope="module")
def tiny_world():
    return generate_world(42, WorldConfig.tiny())


def test_routing_model_build(benchmark, tiny_world):
    model = benchmark(RoutingModel, tiny_world.graph)
    asns = tiny_world.graph.asns()
    assert model.as_path(asns[0], asns[-1]) is not None


def test_campaign(benchmark, tiny_world):
    routing = RoutingModel(tiny_world.graph)
    traces = benchmark.pedantic(
        run_campaign, args=(tiny_world, routing, 3,
                            CampaignConfig(n_vps=4)),
        rounds=3, iterations=1)
    assert traces
