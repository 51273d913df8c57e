"""Smoke tests: every table harness runs (pandas backend, small n) and its
measured shape matches the paper's qualitative claims.

Each test also pins the table's query counts exactly. They are the paper's
cost metric and deterministic, so a change that moves one must say so and
update the expected values here.
"""
import pytest

from repro.experiments import ALL_TABLES, t1_onedim, t2_md, t3_index, t4_cases, t5_parallel, t6_zillow
from repro.webdb import crawler
from repro.webdb.crawler import CrawlError


class TestHarnesses:
    def test_t1_runs_and_shape_holds(self):
        df = t1_onedim.run(None, n=600, h=8)
        assert len(df) == len(t1_onedim.CONFIGS) * 3
        t1_onedim.check_shape(df)
        # row order: CONFIGS x (baseline, binary, rerank)
        assert list(df.queries) == [
            23, 21, 44, 61, 2, 2, 5, 8, 12, 65, 7, 7,
            23, 14, 14, 51, 6, 6, 20, 15, 21, 38, 2, 2,
        ]

    def test_t2_runs_and_shape_holds(self):
        df = t2_md.run(None, n=500, h=4, quick=True)
        assert set(df.algorithm) == {"md-baseline", "md-binary", "md-rerank", "md-ta"}
        t2_md.check_shape(df)
        # row order: functions x (baseline, binary, rerank, ta)
        assert list(df.queries) == [6, 21, 25, 48, 81, 50, 47, 290, 25, 21, 21, 185]

    def test_t2_crawl_error_is_not_a_budget_cell(self, monkeypatch):
        """Only budget exhaustion becomes a ">max" cell; a failed crawl
        inside an MD algorithm propagates."""

        def failing_crawl(*args, **kwargs):
            raise CrawlError("injected crawl failure")

        monkeypatch.setattr(crawler, "crawl", failing_crawl)
        with pytest.raises(CrawlError, match="injected"):
            t2_md.run(None, n=500, h=4, quick=True)

    def test_t3_runs_and_shape_holds(self):
        df = t3_index.run(None, n=600, h=8, n_sessions=4)
        t3_index.check_shape(df)
        assert list(df.queries) == [62, 80, 6, 80, 6, 80, 6, 80]
        assert list(df.index_rows) == [120, 0, 120, 0, 120, 0, 120, 0]

    def test_t4_runs_and_shape_holds(self):
        df = t4_cases.run(None, n=800, h=4)
        t4_cases.check_shape(df)
        assert list(df.queries) == [84, 6, 25, 13]
        assert list(df.indexed_rows) == [171, 171, 16, 16]

    def test_t5_runs_and_shape_holds(self):
        df = t5_parallel.run(None, n=600, h=6)
        t5_parallel.check_shape(df)
        assert list(df.total_queries) == [113, 35]
        assert list(df.parallel_queries) == [108, 35]
        assert list(df.iterations) == [35, 13]
        assert list(df.max_batch) == [8, 4]

    def test_t6_runs_and_shape_holds(self):
        df = t6_zillow.run(None, n=600)
        t6_zillow.check_shape(df)
        assert list(df.queries) == [38, 19]
        assert list(df.parallel_queries) == [36, 18]

    def test_registry_complete(self):
        assert set(ALL_TABLES) == {"t1", "t2", "t3", "t4", "t5", "t6"}
        for mod in ALL_TABLES.values():
            assert hasattr(mod, "run") and hasattr(mod, "PAPER_CLAIMS")

    @pytest.mark.parametrize("name", list(ALL_TABLES))
    def test_claims_documented(self, name):
        assert len(ALL_TABLES[name].PAPER_CLAIMS) >= 2
