"""Unit tests + analytic validation for the Resource queueing model."""

import pytest

from repro.sim import Engine, Resource, RngStreams


def test_single_server_serializes_jobs():
    eng = Engine()
    res = Resource(eng, capacity=1)
    finishes = []
    res.acquire(10.0, lambda: finishes.append(eng.now))
    res.acquire(10.0, lambda: finishes.append(eng.now))
    eng.run()
    assert finishes == [10.0, 20.0]
    assert res.jobs_served == 2
    assert res.busy_time == 20.0 and res.wait_time_total == 10.0


def test_capacity_two_runs_jobs_in_parallel():
    eng = Engine()
    res = Resource(eng, capacity=2)
    finishes = []
    for __ in range(2):
        res.acquire(10.0, lambda: finishes.append(eng.now))
    eng.run()
    assert finishes == [10.0, 10.0]


def test_fifo_order_preserved():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []
    for i in range(5):
        res.acquire(1.0, lambda i=i: order.append(i))
    eng.run()
    assert order == [0, 1, 2, 3, 4]


def test_utilization_accounting():
    eng = Engine()
    res = Resource(eng, capacity=1)
    res.acquire(30.0, lambda: None)
    eng.run()
    eng.now = 60.0
    assert res.utilization() == pytest.approx(0.5)


def test_negative_service_time_rejected():
    eng = Engine()
    res = Resource(eng)
    with pytest.raises(ValueError):
        res.acquire(-1.0, lambda: None)


def test_mm1_queue_matches_theory():
    """M/M/1 with rho=0.5: mean sojourn time = 1/(mu-lambda)."""
    eng = Engine()
    res = Resource(eng, capacity=1)
    rng = RngStreams(seed=7).stream("mm1")
    mu = 1.0 / 10.0       # service rate per ns (mean service 10 ns)
    lam = 0.05            # arrival rate per ns -> rho = 0.5
    n_jobs = 40000
    sojourn = []

    t = 0.0
    for __ in range(n_jobs):
        t += rng.exponential(1.0 / lam)
        svc = rng.exponential(1.0 / mu)
        def arrive(svc=svc, arrival=t):
            res.acquire(svc, lambda a=arrival: sojourn.append(eng.now - a))
        eng.schedule_at(t, arrive)
    eng.run()

    mean = sum(sojourn) / len(sojourn)
    expected = 1.0 / (mu - lam)   # 20 ns
    assert mean == pytest.approx(expected, rel=0.05)


def test_rng_streams_reproducible_and_independent():
    a1 = RngStreams(seed=1).stream("x").random(5)
    a2 = RngStreams(seed=1).stream("x").random(5)
    b = RngStreams(seed=1).stream("y").random(5)
    c = RngStreams(seed=2).stream("x").random(5)
    assert list(a1) == list(a2)
    assert list(a1) != list(b)
    assert list(a1) != list(c)
