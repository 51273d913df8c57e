"""Seeded user-session streams for the QR2 page-latency benchmark.

A workload is a list of :class:`SessionPlan`: which source a user searches,
the ranking they choose, the categorical filter they tick and how many pages
they read (the first page is ``submit``, the rest are ``get_next_page``).
The stream is a pure function of ``(workload, seed, seconds)``; the service
only ever sees the generated queries.

Every workload is built from a fixed list of *templates* (which attributes,
which slider weights, which facet) that decide the cost class of a session,
and the seed only draws what varies inside a class: a small scaling of the
sliders, which filter option is left out and, for repeat-dense, the arrival
order. Per-run medians then come from the
same mix on every seed, so seed-to-seed spread measures the system rather
than the draw.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from repro import synth_data as sd

#: categorical facets a user can tick, with the site's option lists
FACETS = {
    "bluenile": {
        "cut": sd.DIAMOND_CUTS,
        "color": sd.DIAMOND_COLORS,
        "clarity": sd.DIAMOND_CLARITIES,
        "shape": sd.DIAMOND_SHAPES,
    },
    "zillow": {"zipcode": sd.HOUSE_ZIPS},
}


@dataclass(frozen=True)
class SessionPlan:
    """One user's session: a search and the number of pages read."""

    source: str
    #: (attr, signed weight) pairs; one pair is a 1-D ORDER BY whose sign
    #: is the direction (negative = descending)
    weights: tuple
    #: (facet, allowed values) pairs; empty = no filter
    cats: tuple
    pages: int

    @property
    def is_1d(self) -> bool:
        return len(self.weights) == 1


def _session(rng, source, weights, facet, drop: int) -> SessionPlan:
    """A template made concrete by the seed: each MD slider scaled by a
    factor in [0.9, 1.0] and, when the template filters, option ``drop`` of
    its facet left unticked. Both leave the session's cost class unchanged.
    Every user submits and then pages once."""
    if len(weights) > 1:
        weights = tuple((a, round(w * rng.uniform(0.9, 1.0), 3)) for a, w in weights)
    cats = ()
    if facet:
        options = list(FACETS[source][facet])
        del options[drop]
        cats = ((facet, tuple(options)),)
    return SessionPlan(source, tuple(weights), cats, pages=2)


# ----- cold-mix: distinct searches, submit + one get-next each ------------
#: (source, ((attr, slider weight), ...), facet or None) in arrival order:
#: 1-D, 2-D and 3-D rankings on both sources. Each was picked for a query
#: cost that stays put under the seed's draw, so that the median pages are
#: the same cost class on every seed: the 1-D second pages come from the
#: pool for free, and the templates with 6-query second pages come first,
#: so that a run of one block and a third of the next (12 users) has 5 of
#: them in the middle of its 12 next pages.
COLD_TEMPLATES = [
    ("bluenile", (("price", -0.5), ("carat", -0.5)), None),
    ("zillow", (("price", -0.5), ("beds", 0.5)), None),
    ("bluenile", (("lwr", -1.0),), "cut"),
    ("bluenile", (("carat", 0.5), ("table_pct", 0.5)), None),
    ("zillow", (("price", -0.5), ("baths", 0.5)), None),
    ("bluenile", (("depth", -0.5), ("lwr", -0.5)), None),
    ("zillow", (("sqft", -0.6), ("beds", 0.8), ("baths", 0.5)), "zipcode"),
    ("zillow", (("baths", -1.0),), "zipcode"),
    ("zillow", (("beds", -0.5), ("baths", 0.5)), None),
]


def cold_mix(rng: random.Random, n_users: int) -> list[SessionPlan]:
    """The templates in order, block after block, each made concrete by the
    seed. A filtered template leaves out a different option in each block,
    so no search repeats (up to four blocks)."""
    drops = {i: rng.sample(range(len(FACETS[s][f])), len(FACETS[s][f]))
             for i, (s, _, f) in enumerate(COLD_TEMPLATES) if f}
    plans = []
    for n in range(n_users):
        block, i = divmod(n, len(COLD_TEMPLATES))
        source, weights, facet = COLD_TEMPLATES[i]
        plans.append(_session(rng, source, weights, facet, drops[i][block] if facet else 0))
    return plans


# ----- repeat-dense: popular searches over a dense region -----------------
#: (ranking, filter) pairs by popularity, all over Blue Nile's lwr == 1.0
#: spike (20% of the table, the paper's worst-case dense region)
DENSE_PAIRS = [
    ((("lwr", 1.0),), ()),
    ((("price", 0.5), ("lwr", 0.5)), ()),
    ((("lwr", 1.0),), (("shape", ("Round",)),)),
    ((("lwr", 0.5), ("carat", 0.5)), ()),
]
ZIPF_S = 1.5


def repeat_dense(rng: random.Random, n_users: int) -> tuple[list, list]:
    """Fresh sessions over Zipf-popular (ranking, filter) pairs.

    The first user asks the most popular search and crawls the lwr region
    into the shared index; that session runs before the timed window (its
    cost is the cold-mix kind, not this workload's). Each pair's share of
    the timed users is its Zipf weight, rounded with largest remainders
    first, so every seed has the same mix: the 1-D pairs are about three
    quarters of the users and the median page sits inside their cost
    cluster. The seed sets the arrival order.
    """
    w = [1.0 / (i + 1) ** ZIPF_S for i in range(len(DENSE_PAIRS))]
    exact = [n_users * x / sum(w) for x in w]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(w)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: n_users - sum(counts)]:
        counts[i] += 1
    picks = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(picks)
    plan = lambda i: SessionPlan("bluenile", DENSE_PAIRS[i][0], DENSE_PAIRS[i][1], pages=2)  # noqa: E731
    return [plan(0)], [plan(i) for i in picks]


WORKLOADS = ("cold-mix", "repeat-dense")


def make(workload: str, seed: int, seconds: int) -> tuple[list, list]:
    """(untimed prelude, timed sessions) of one workload for one seed.

    ``seconds`` scales the number of timed sessions, calibrated so that
    ``--seconds 24`` times about 24 s on a 4-core machine; the amount never
    depends on elapsed time.
    """
    rng = random.Random(f"{workload}:{seed}")
    scale = seconds / 24.0
    if workload == "cold-mix":
        return [], cold_mix(rng, max(2, round(12 * scale)))
    if workload == "repeat-dense":
        return repeat_dense(rng, max(2, round(22 * scale)))
    raise KeyError(f"unknown workload {workload!r}")
