"""Common frame of every get-next algorithm, and its single fetch path.

Every web-database access an algorithm makes goes through
:meth:`RerankAlgorithm._fetch`, which answers each spec from the cheapest
layer that can:

1. the shared dense index (the on-the-fly index of [11]): a covered spec is
   answered completely (never overflows) at zero cost;
2. the session's response cache (QR2 section II-A): the same query asked
   earlier in this session, at zero cost;
3. the web database: all remaining misses as one parallel batch, whose
   answers are cached for the session.

An overflowing spec that must be fully enumerated goes to
:meth:`RerankAlgorithm._crawl`, which crawls it and, for the RERANK
algorithms, adds it to the dense index.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Mapping, Optional, Sequence

from ..webdb import crawler
from ..webdb.interface import QueryResult, Row, WebDB
from ..webdb.predicates import QuerySpec
from ..webdb.ranking import LinearRanking
from .dense_index import DenseIndex
from .session import Session


class RerankAlgorithm(ABC):
    """A get-next implementation over one web database."""

    #: crawled regions go into the shared dense index (the RERANK variants)
    index_crawls = False

    def __init__(
        self,
        db: WebDB,
        bounds: Mapping[str, tuple[float, float]],
        *,
        dense_index: Optional[DenseIndex] = None,
    ):
        self.db = db
        #: attribute domains used by the crawler for splitting (discovered
        #: once per source through the public interface)
        self.bounds = dict(bounds)
        self.dense_index = dense_index

    @abstractmethod
    def get_next(self, session: Session, ranking: LinearRanking) -> Optional[Row]:
        """Deliver the next-best undelivered tuple, or None when exhausted."""

    def get_top_h(self, session: Session, ranking: LinearRanking, h: int) -> list[Row]:
        """Deliver the next ``h`` tuples (repeated get-next)."""
        out = []
        for _ in range(h):
            r = self.get_next(session, ranking)
            if r is None:
                break
            out.append(r)
        return out

    def _fetch(
        self,
        session: Session,
        specs: Sequence[QuerySpec],
        speculate: Optional[Callable[[list[int]], list[QuerySpec]]] = None,
    ) -> list[QueryResult]:
        """Answer ``specs`` in order: dense index, session cache, web DB.

        Returns one (rows, overflow) per spec and absorbs the rows into the
        session pool. ``speculate`` receives the indices of the specs that
        missed both caches and returns extra specs to send in the same
        batch; their answers are only cached, not absorbed.
        """
        answers: list = [None] * len(specs)
        missed: list[int] = []
        batch: list[tuple[str, QuerySpec]] = []
        for i, spec in enumerate(specs):
            hit = None if self.dense_index is None else self.dense_index.rows_matching(spec)
            if hit is not None:
                answers[i] = (hit, False)
                continue
            key = spec.to_sql()
            answers[i] = session.query_cache.get(key)
            if answers[i] is None:
                missed.append(i)
                batch.append((key, spec))
        if speculate is not None:
            for spec in speculate(missed):
                key = spec.to_sql()
                if key not in session.query_cache:
                    batch.append((key, spec))
        results = self.db.query_batch([s for _, s in batch]) if batch else []
        for (key, _), result in zip(batch, results):
            session.query_cache[key] = result
        for i, result in zip(missed, results):
            answers[i] = result
        for rows, _ in answers:
            session.absorb(rows)
        return answers

    def _crawl(self, session: Session, spec: QuerySpec) -> None:
        """Fully enumerate ``spec`` into the pool; index it if this
        algorithm indexes its crawls."""
        # looked up on the module at call time, so a patched crawler.crawl
        # (perfbench/tracing.py) sees every crawl
        rows = crawler.crawl(self.db, spec, self.bounds).rows
        session.absorb(rows.values())
        if self.index_crawls:
            self.dense_index.add(spec, rows)
