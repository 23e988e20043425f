"""Analytic M/M/c queueing formulas.

Used as ground truth in tests: a Village with exponential service times
and Poisson arrivals must match Erlang-C predictions, which validates
the whole dispatch path (RQ, cores, scheduler) against theory.
"""

from __future__ import annotations


def erlang_c(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Probability an arrival waits in an M/M/c queue.

    Builds the Erlang-B blocking probability with the recursion
    ``B(i) = a B(i-1) / (i + a B(i-1))`` and converts it to Erlang C, so
    no ``a**k / k!`` term is ever formed: the result stays finite for
    thousands of servers.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if arrival_rate <= 0 or service_rate <= 0:
        raise ValueError("rates must be positive")
    a = arrival_rate / service_rate          # offered load (Erlangs)
    rho = a / servers
    if rho >= 1.0:
        return 1.0
    b = 1.0
    for i in range(1, servers + 1):
        b = a * b / (i + a * b)
    return b / (1.0 - rho * (1.0 - b))


def mmc_mean_wait(arrival_rate: float, service_rate: float,
                  servers: int) -> float:
    """Mean time in queue (excluding service) for M/M/c."""
    rho = arrival_rate / (servers * service_rate)
    if rho >= 1.0:
        return float("inf")
    pw = erlang_c(arrival_rate, service_rate, servers)
    return pw / (servers * service_rate - arrival_rate)


def mmc_mean_sojourn(arrival_rate: float, service_rate: float,
                     servers: int) -> float:
    """Mean time in system (queue + service) for M/M/c."""
    return mmc_mean_wait(arrival_rate, service_rate, servers) \
        + 1.0 / service_rate
