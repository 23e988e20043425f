"""DeathStarBench service graphs: SocialNetwork, Media, Hotel.

The paper evaluates the 8 SocialNetwork request types of DeathStarBench
(Figure 14): Text, SGraph, User, PstStr, UsrMnt, HomeT, CPost, UrlShort.
We model each as an :class:`~repro.workloads.spec.AppSpec` rooted at the
corresponding service, over a shared pool of services whose fanout and
compute are calibrated to the paper's characterization: the average
request executes ~120 us of compute and performs ~3.1 RPC invocations
(Section 3.3), with CPost the heaviest orchestration and UrlShort the
lightest (Figures 14/19).

Two further DeathStarBench applications (per *The Architectural
Implications of Cloud Microservices*) widen the scenario pool:

* **Media Service** — review composition (MCompose: a 6-way unique-id /
  movie-id / text / rating / user / review-storage orchestration) and
  page reads (MPage: movie info + plot + cast + reviews);
* **Hotel Reservation** — front-end search (HSearch: geo + rates behind
  a search aggregator, plus profiles), booking (HReserve), and
  recommendations (HRecommend).

Each application keeps its own service pool (no cross-app calls);
:data:`DEATHSTAR_APPS` is the combined label -> :class:`AppSpec`
registry the CLI ``--app`` flag resolves against.
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.spec import STORAGE, AppSpec, CallSpec, ServiceSpec

K = 1000.0


def _storage(n: int = 1):
    return tuple(CallSpec(STORAGE) for __ in range(n))


#: Shared service pool (SocialNetwork microservices).
SERVICES: Dict[str, ServiceSpec] = {
    spec.name: spec
    for spec in [
        ServiceSpec("urlshorten", segment_instructions=225 * K,
                    calls=_storage(1)),
        ServiceSpec("usermention", segment_instructions=150 * K,
                    calls=_storage(1)),
        ServiceSpec("userservice", segment_instructions=175 * K,
                    calls=_storage(1)),
        ServiceSpec("poststorage", segment_instructions=175 * K,
                    calls=_storage(1)),
        ServiceSpec("socialgraph", segment_instructions=150 * K,
                    calls=_storage(2)),
        ServiceSpec("text", segment_instructions=150 * K,
                    calls=(CallSpec("urlshorten"), CallSpec("usermention"))),
        ServiceSpec("hometimeline", segment_instructions=125 * K,
                    calls=(CallSpec("socialgraph"), CallSpec("poststorage"),
                           CallSpec(STORAGE))),
        ServiceSpec("composepost", segment_instructions=150 * K,
                    calls=(CallSpec("text"), CallSpec("userservice"),
                           CallSpec("poststorage"), CallSpec(STORAGE))),
    ]
}

#: Figure label -> root service of that request type.
APP_ROOTS: Dict[str, str] = {
    "Text": "text",
    "SGraph": "socialgraph",
    "User": "userservice",
    "PstStr": "poststorage",
    "UsrMnt": "usermention",
    "HomeT": "hometimeline",
    "CPost": "composepost",
    "UrlShort": "urlshorten",
}


#: Media Service pool (review composition + page reads).
MEDIA_SERVICES: Dict[str, ServiceSpec] = {
    spec.name: spec
    for spec in [
        ServiceSpec("uniqueid", segment_instructions=100 * K),
        ServiceSpec("movieid", segment_instructions=150 * K,
                    calls=_storage(1)),
        ServiceSpec("mediatext", segment_instructions=150 * K),
        ServiceSpec("rating", segment_instructions=125 * K,
                    calls=_storage(1)),
        ServiceSpec("mediauser", segment_instructions=150 * K,
                    calls=_storage(1)),
        ServiceSpec("reviewstorage", segment_instructions=175 * K,
                    calls=_storage(1)),
        ServiceSpec("movieinfo", segment_instructions=175 * K,
                    calls=_storage(1)),
        ServiceSpec("plot", segment_instructions=150 * K,
                    calls=_storage(1)),
        ServiceSpec("castinfo", segment_instructions=150 * K,
                    calls=_storage(1)),
        ServiceSpec("composereview", segment_instructions=175 * K,
                    calls=(CallSpec("uniqueid"), CallSpec("movieid"),
                           CallSpec("mediatext"), CallSpec("rating"),
                           CallSpec("mediauser"),
                           CallSpec("reviewstorage"))),
        ServiceSpec("readpage", segment_instructions=150 * K,
                    calls=(CallSpec("movieinfo"), CallSpec("plot"),
                           CallSpec("castinfo"),
                           CallSpec("reviewstorage"))),
    ]
}

#: Hotel Reservation pool (search front-end, booking, recommendations).
HOTEL_SERVICES: Dict[str, ServiceSpec] = {
    spec.name: spec
    for spec in [
        ServiceSpec("geo", segment_instructions=125 * K,
                    calls=_storage(1)),
        ServiceSpec("hotelrate", segment_instructions=150 * K,
                    calls=_storage(1)),
        ServiceSpec("hotelprofile", segment_instructions=175 * K,
                    calls=_storage(2)),
        ServiceSpec("hoteluser", segment_instructions=150 * K,
                    calls=_storage(1)),
        ServiceSpec("reservation", segment_instructions=175 * K,
                    calls=_storage(2)),
        ServiceSpec("hotelsearch", segment_instructions=150 * K,
                    calls=(CallSpec("geo"), CallSpec("hotelrate"))),
        ServiceSpec("hotelfrontend", segment_instructions=125 * K,
                    calls=(CallSpec("hotelsearch"),
                           CallSpec("hotelprofile"))),
        ServiceSpec("bookhotel", segment_instructions=150 * K,
                    calls=(CallSpec("hoteluser"), CallSpec("reservation"),
                           CallSpec("hotelrate"))),
        ServiceSpec("recommend", segment_instructions=150 * K,
                    calls=(CallSpec("hotelprofile"), CallSpec(STORAGE))),
    ]
}

#: Media Service request types (label -> root service).
MEDIA_APP_ROOTS: Dict[str, str] = {
    "MCompose": "composereview",
    "MPage": "readpage",
    "MInfo": "movieinfo",
}

#: Hotel Reservation request types (label -> root service).
HOTEL_APP_ROOTS: Dict[str, str] = {
    "HSearch": "hotelfrontend",
    "HReserve": "bookhotel",
    "HRecommend": "recommend",
}

#: label -> (service pool, root) across the three applications.
_ALL_ROOTS: Dict[str, tuple] = {}
for __label, __root in APP_ROOTS.items():
    _ALL_ROOTS[__label] = (SERVICES, __root)
for __label, __root in MEDIA_APP_ROOTS.items():
    _ALL_ROOTS[__label] = (MEDIA_SERVICES, __root)
for __label, __root in HOTEL_APP_ROOTS.items():
    _ALL_ROOTS[__label] = (HOTEL_SERVICES, __root)
del __label, __root


def _reachable(root: str,
               pool: Dict[str, ServiceSpec] = None) -> Dict[str, ServiceSpec]:
    pool = SERVICES if pool is None else pool
    out: Dict[str, ServiceSpec] = {}

    def visit(name: str):
        if name in out:
            return
        spec = pool[name]
        out[name] = spec
        for call in spec.calls:
            if not call.is_storage:
                visit(call.target)

    visit(root)
    return out


def deathstar_app(label: str, compute_scale: float = 1.0,
                  segment_cv: float = None) -> AppSpec:
    """Build the AppSpec for any DeathStarBench request type by label.

    Spans all three applications (SocialNetwork, Media Service, Hotel
    Reservation); see :data:`_ALL_ROOTS` for the label set.

    ``compute_scale`` multiplies every service's per-segment instruction
    count; the characterization experiments (Figures 3, 6, 7) use heavier
    requests to reach the utilizations the paper reports at 50K RPS.
    ``segment_cv`` overrides the per-segment variability (e.g. the
    queue-granularity study uses a tight 0.3 so queueing effects are not
    masked by intrinsic service-time spread).
    """
    if label not in _ALL_ROOTS:
        raise KeyError(f"unknown DeathStarBench app {label!r}; "
                       f"expected one of {sorted(_ALL_ROOTS)}")
    if compute_scale <= 0:
        raise ValueError("compute_scale must be positive")
    pool, root = _ALL_ROOTS[label]
    services = _reachable(root, pool)
    if compute_scale != 1.0 or segment_cv is not None:
        from dataclasses import replace
        overrides = {}
        if segment_cv is not None:
            overrides["segment_cv"] = segment_cv
        services = {
            name: replace(spec, segment_instructions=
                          spec.segment_instructions * compute_scale,
                          **overrides)
            for name, spec in services.items()}
    return AppSpec(name=label, root=root, services=services)


def social_network_app(label: str, compute_scale: float = 1.0,
                       segment_cv: float = None) -> AppSpec:
    """Build the AppSpec for one of the 8 SocialNetwork request types."""
    if label not in APP_ROOTS:
        raise KeyError(f"unknown SocialNetwork app {label!r}; "
                       f"expected one of {sorted(APP_ROOTS)}")
    return deathstar_app(label, compute_scale=compute_scale,
                         segment_cv=segment_cv)


#: All 8 SocialNetwork request types, in the paper's figure order.
SOCIAL_NETWORK_APPS: Dict[str, AppSpec] = {
    label: social_network_app(label) for label in APP_ROOTS
}

#: Every DeathStarBench request type across the three applications.
DEATHSTAR_APPS: Dict[str, AppSpec] = {
    label: deathstar_app(label) for label in _ALL_ROOTS
}


def app_by_name(name: str) -> AppSpec:
    """A DeathStarBench request type by label, or a synthetic app by its
    distribution name (the CLI's ``--app`` and the fuzz trials' app).

    Raises:
        ValueError: ``name`` is neither; the message lists both sets.
    """
    if name in DEATHSTAR_APPS:
        return DEATHSTAR_APPS[name]
    from repro.workloads.synthetic import SYNTHETIC_DISTRIBUTIONS, \
        synthetic_app

    if name in SYNTHETIC_DISTRIBUTIONS:
        return synthetic_app(name)
    raise ValueError(f"unknown app {name!r}; pick one of "
                     f"{sorted(DEATHSTAR_APPS)} or "
                     f"{list(SYNTHETIC_DISTRIBUTIONS)}")
