"""Seeded job lists for the three benchmark workloads.

A job is the argument list of one ``avw`` command, without the program
name, so ``avw <job...>`` re-runs it from a shell.  Every valued flag is
written as ``--flag=value`` so that negative ranges and rationals parse
without the CLI's dash-merging step.  The same seed always gives the same
list; the program under test only ever sees the generated arguments.

Each list is one *pass*.  Its shape (commands, depths, window sizes, loop
lambdas) is fixed; the seed picks rational parameters, jacobi windows,
scramble seeds and primes, so the work per pass barely moves between seeds.
README.md says why each workload exists.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

Job = Tuple[str, ...]

WORKLOADS = ("hw_probe", "hw_scan", "catalog_sweep")

HW_PROBE_WEIGHTS = 4   # per pass: 2 integral, 2 generic
HW_SCAN_WEIGHTS = 6    # per pass: 3 integral, 3 generic
# witness at the default charge bound (N + 4 = 7) takes 6-8 s per job, which
# leaves too few jobs in one run for a latency tail; charge 4 keeps nullspace
# at about two thirds of the job time (see README.md)
HW_SCAN_CHARGE = 4

# each parameter slot has a fixed prime denominator, so the size of the exact
# arithmetic, and with it a job's cost, changes little from seed to seed
A_DEN, B_DEN, C_DEN = 3, 5, 7


def _fraction(rng: random.Random, q: int) -> Fraction:
    """A non-integral rational p/q with |p/q| < 2, for a prime q."""
    while True:
        p = rng.randint(-2 * q + 1, 2 * q - 1)
        if p % q:
            return Fraction(p, q)


def _weight(rng: random.Random, integral: bool) -> Tuple[str, ...]:
    """Highest-weight flags.  Integral weights have mu in 0..3 and
    c - mu in 0..2, so f_0^(mu+1) v and e_-1^(c-mu+1) v are singular and
    sit inside a depth-5 singular search (Kac-Kazhdan)."""
    lamd = _fraction(rng, A_DEN)
    if integral:
        mu = rng.randint(0, 3)
        c = mu + rng.randint(0, 2)
    else:
        mu, c = _fraction(rng, B_DEN), _fraction(rng, C_DEN)
    return (f"--lamd={lamd}", f"--mu={mu}", f"--c={c}")


def _weights(rng: random.Random, n: int) -> List[Tuple[str, ...]]:
    return [_weight(rng, integral=(j % 2 == 0)) for j in range(n)]


def hw_probe(rng: random.Random) -> List[Job]:
    jobs: List[Job] = []
    for hw in _weights(rng, HW_PROBE_WEIGHTS):
        jobs.append(("injectivity", *hw, "--depth=3", "--k=0", "--i=1"))
        jobs.append(("singular", *hw, "--depth=5"))
    return jobs


def hw_scan(rng: random.Random) -> List[Job]:
    return [("witness", *hw, "--depth=3", f"--charge={HW_SCAN_CHARGE}")
            for hw in _weights(rng, HW_SCAN_WEIGHTS)]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; these bases are exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_11_digits(rng: random.Random) -> int:
    # a narrow range keeps sqrt(n), the cost of the trial division in
    # catalog_match, within 5% from seed to seed
    while True:
        n = rng.randrange(90_000_000_000, 100_000_000_000)
        if _is_prime(n):
            return n


def catalog_sweep(rng: random.Random) -> List[Job]:
    a = lambda: _fraction(rng, A_DEN)  # noqa: E731
    b = lambda: _fraction(rng, B_DEN)  # noqa: E731
    c = lambda: _fraction(rng, C_DEN)  # noqa: E731
    checks = [f"A:a={a()},b={b()}", f"A2:a={a()}", f"B:a={a()}",
              f"H:a={a()},b={b()},c={c()}", f"T2:a={a()},b={b()},c={c()}",
              f"loop:lambda=1,a={a()},b={b()}", f"T2corrupt:a={a()},b={b()},c={c()}"]
    # three jacobi sweeps over seeded windows of 7 degrees cost the same and
    # are the slowest jobs of a pass; a run holds at least 4 complete passes
    # even on a host slowed 2.5x, so the latency tail is always one of them
    jobs: List[Job] = [("jacobi", f"--range={lo}..{lo + 6}")
                       for lo in rng.sample(range(-6, 1), 3)]
    jobs += [("module-check", f"--module={spec}", "--deg-range=-3..3",
              "--label-range=-3..3") for spec in checks]
    jobs.append(("catalog", f"--module=loop:lambda=2,a={a()},b={b()}",
                 "--window=-2..2", "--matrices"))
    # A(n, 0) with n in the window has the trivial line v_-n as a submodule
    jobs.append(("witness", f"--module=A:a={rng.randint(-2, 2)},b=0", "--window=-3..3"))
    jobs.append(("witness", f"--module=H:a={a()},b={b()},c={c()}", "--window=-3..3"))
    for lam in (1, 2):
        spec = f"loop:lambda={lam},a={a()},b={b()}"
        jobs.append(("witness", f"--module={spec}", "--window=-3..3"))
        jobs.append(("injectivity", f"--module={spec}", "--window=-4..4",
                     "--k=0", "--i=1"))
    for lam in (0, 1, 2):
        jobs.append(("match", f"--module=loop:lambda={lam},a={a()},b={b()}",
                     f"--scramble-seed={rng.randrange(1000)}"))
    # the trial-division defect of catalog_match stays on the measured path
    big_b = Fraction(_prime_11_digits(rng), _prime_11_digits(rng))
    jobs.append(("match", f"--module=loop:lambda=0,a={a()},b={big_b}",
                 f"--scramble-seed={rng.randrange(1000)}"))
    return jobs


_BUILDERS = {"hw_probe": hw_probe, "hw_scan": hw_scan, "catalog_sweep": catalog_sweep}


def jobs_for(workload: str, seed: int) -> List[Job]:
    """The job list of one pass of ``workload`` for ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def command_line(job: Job) -> str:
    return "avw " + " ".join(job)
