"""Tests for the single fetch path every get-next algorithm shares."""
import pytest

from repro.core.dense_index import DenseIndex
from repro.core.onedim import OneDBinary, OneDRerank
from repro.core.session import Session
from repro.webdb import sources
from repro.webdb.crawler import crawl
from repro.webdb.predicates import QuerySpec, Range


@pytest.fixture()
def db():
    return sources.bluenile(n=300, k=10)


@pytest.fixture()
def bounds(db):
    return {a: db.true_domain(a) for a in db.numeric_attrs}


class TestFetch:
    def test_repeated_spec_costs_nothing(self, db, bounds):
        algo, s = OneDBinary(db, bounds), Session()
        spec = QuerySpec({"price": Range(None, 3000)})
        before = db.stats.n_queries
        first = algo._fetch(s, [spec])
        assert db.stats.n_queries - before == 1
        assert algo._fetch(s, [spec]) == first
        assert db.stats.n_queries - before == 1

    def test_misses_share_one_batch(self, db, bounds):
        algo, s = OneDBinary(db, bounds), Session()
        specs = [QuerySpec({"price": Range(None, 1000)}), QuerySpec({"price": Range(1000, 2000)})]
        before = db.stats.snapshot()
        answers = algo._fetch(s, specs)
        assert db.stats.since(before).batch_sizes == [2]
        assert {r["tid"] for rows, _ in answers for r in rows} <= set(s.pool)

    def test_dense_index_hit_is_free_and_not_cached(self, db, bounds):
        region = QuerySpec({"price": Range(1000, 4000)})
        index = DenseIndex(db.name)
        index.add(region, crawl(db, region, bounds).rows)
        algo, s = OneDBinary(db, bounds, dense_index=index), Session()
        before = db.stats.n_queries
        [(rows, overflow)] = algo._fetch(s, [QuerySpec({"price": Range(1500, 2500)})])
        assert db.stats.n_queries == before
        assert overflow is False
        want = set(db.pdf.loc[db.pdf["price"].between(1500, 2500), "tid"])
        assert {r["tid"] for r in rows} == want
        assert want <= set(s.pool)
        assert s.query_cache == {}

    def test_speculative_extras_cached_not_absorbed(self, db, bounds):
        algo, s = OneDBinary(db, bounds), Session()
        spec = QuerySpec({"price": Range(None, 2000)})
        extra = QuerySpec({"price": Range(5000, 6000)})
        missed_seen = []

        def speculate(missed):
            missed_seen.append(missed)
            return [extra]

        before = db.stats.snapshot()
        algo._fetch(s, [spec], speculate)
        assert missed_seen == [[0]]
        assert db.stats.since(before).batch_sizes == [2]
        extra_rows, _ = s.query_cache[extra.to_sql()]
        assert extra_rows
        assert not {r["tid"] for r in extra_rows} & set(s.pool)
        # asked for later, the speculated answer is free and now absorbed
        n = db.stats.n_queries
        algo._fetch(s, [extra])
        assert db.stats.n_queries == n
        assert {r["tid"] for r in extra_rows} <= set(s.pool)

    def test_crawl_indexes_only_for_rerank(self, db, bounds):
        region = QuerySpec({"price": Range(1000, 2000)})
        index = DenseIndex(db.name)
        s = Session()
        want = set(db.pdf.loc[db.pdf["price"].between(1000, 2000), "tid"])
        OneDBinary(db, bounds, dense_index=index)._crawl(s, region)
        assert index.entries == []
        assert want <= set(s.pool)
        OneDRerank(db, bounds, dense_index=index)._crawl(Session(), region)
        assert [e.spec for e in index.entries] == [region]
        assert set(index.entries[0].rows) == want
