"""Acceptance gate: one test per criterion, exact comparisons throughout.

Each test prints a single ``criterion N: PASS`` line on success (pytest -s
shows them; any assertion failure marks the criterion FAIL).  Stated time
limits are asserted with a monotonic clock.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import ddmlab
from ddmlab import measures, suites, verify
from ddmlab.budgeted import BudgetedProblem, psi_budgeted, psi_eps_grid, psi_signed
from ddmlab.cli import main
from ddmlab.covers import TruncationConfig, cover_cost, disjointify
from ddmlab.engine import brute_force_phi, brute_force_phi_overlapping, phi_truncated
from ddmlab.measures import DiracMeasure, eval0
from ddmlab.symbolic import WindowSet

CHAIN_A = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
ALT = DiracMeasure(2, (0, 1))
X = WindowSet.full_space(2)
# SHA-256 of the stdout of `python -m ddmlab verify all --seed 7`; a change
# that alters the verification output on purpose records the new digest
VERIFY_ALL_SEED_7_SHA256 = "667168b3d94ee395e7b4c89705a65e9a94a43177b6a06cf3d7a94c0b2a94aa04"
# SHA-256 of the stdout of `python -m ddmlab <command> --witness` on the
# built-in spec, pinned the same way
CLI_WITNESS_SHA256 = {
    "eval": "e6c94e5d06cb25ce1922071f86b06ec58fe113675b72e046a6f299aa0bce2b00",
    "phi": "3edfd204fd6a69709a421fb6b5ca9207e8bec1f9b35528a944b7397f83dc6eb0",
    "psi": "05e7310b02ec4e0d25a6fb687a7027e5fd8283313eb93d9cadbc6f419ca636f5",
    "chain": "c87ea234d0198a3159f5c690e051ead94c40cb729d55a1c8c6cd18b3642470de",
}


class Clock:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"ran {self.elapsed:.1f}s, limit {self.limit}s"
            )


def done(k, note=""):
    print(f"criterion {k}: PASS {note}".rstrip())


def test_criterion_01_point_mass_zero_optimum():
    with Clock(1):
        cert = phi_truncated(X, ALT, TruncationConfig(1, 0, 0))
        assert cert.value == 0
    done(1, "(value 0/1)")


def test_criterion_02_running_average_family():
    with Clock(10):
        for n in (1, 2, 3, 4):
            avg = measures.cesaro(ALT, n)
            for depth, width in ((1, 0), (2, 1), (3, 2)):
                value = phi_truncated(X, avg, TruncationConfig(depth, width, 0)).value
                if n % 2 == 1:
                    assert value == 1
                else:
                    assert F(n, n + 1) <= value <= 1
    done(2)


def test_criterion_03_two_state_chain_sandwich():
    with Clock(30):
        pi = measures.stationary_distribution(CHAIN_A)
        assert pi == (F(1, 3), F(2, 3))
        pi0 = (F(1, 2), F(1, 2))
        lam0 = min(pi[i] / pi0[i] for i in range(2))
        alpha0 = max(pi[i] / pi0[i] for i in range(2))
        assert (lam0, alpha0) == (F(2, 3), F(4, 3))
        phi = measures.MarkovMeasure(pi, CHAIN_A)
        phi0 = measures.MarkovMeasure(pi0, CHAIN_A)
        cfg = TruncationConfig(2, 1, 0)
        assert phi_truncated(X, phi, cfg).value == 1
        full0 = phi_truncated(X, phi0, cfg).value
        assert full0 >= 1 / alpha0 == F(3, 4)
        assert full0 >= F(1, 2)
        bound = max(alpha0 - 1, 1 / lam0 - 1)
        for q in suites.example_sample_sets(42, 2, count=20):
            v = phi_truncated(q, phi, cfg).value
            v0 = phi_truncated(q, phi0, cfg).value
            assert lam0 * v0 <= v <= alpha0 * v0
            assert abs(v0 - v) <= bound
    done(3, f"(lambda0={lam0} alpha0={alpha0})")


def test_criterion_04_consistent_collapse_on_a_grid():
    with Clock(60):
        rng = random.Random(404)
        mu = measures.stationary_markov(CHAIN_A)
        grid = [
            TruncationConfig(d, w, i)
            for d in (1, 2, 3)
            for w in (0, 1, 2)
            for i in (0, -1, -2)
        ]
        for _ in range(50):
            q = suites.random_cylinder(rng, 2, lo_range=(0, 2), max_len=3)
            direct = eval0(mu, q)
            values = {phi_truncated(q, mu, cfg).value for cfg in grid}
            assert values == {direct}
    done(4, "(50 cylinders x 27 truncations)")


def test_criterion_05_oracle_equivalence():
    with Clock(60):
        rng = random.Random(505)
        kinds = ["dirac", "markov", "bernoulli", "cesaro", "convex"]
        for k in range(100):
            q = suites.random_window_set(rng, 2, lo_range=(-2, 1), max_span=4,
                                         allow_degenerate=True)
            if q.is_empty:
                q = X
            phi = suites.random_measure(rng, 2, kinds[k % len(kinds)])
            cfg = TruncationConfig(rng.randint(1, 2), rng.randint(0, 1),
                                   rng.choice([0, -1]))
            assert phi_truncated(q, phi, cfg).value == brute_force_phi(q, phi, cfg)
    done(5, "(100/100 exact)")


def test_criterion_06_disjointification():
    with Clock(60):
        rng = random.Random(606)
        for _ in range(1000):
            cover = suites.random_cover(rng, 2, rng.choice([0, -1]), rng.randint(1, 2))
            mu = suites.random_measure(rng, 2)
            refined = disjointify(cover)
            assert refined.union() == cover.union()
            assert cover_cost(refined, mu) <= cover_cost(cover, mu)
        for _ in range(30):
            q = suites.random_window_set(rng, 2, lo_range=(0, 1), max_span=2)
            phi = suites.random_measure(rng, 2)
            cfg = TruncationConfig(1, 0, 0)
            assert phi_truncated(q, phi, cfg).value == brute_force_phi_overlapping(
                q, phi, cfg
            )
    done(6, "(1000 covers, 30 overlapping-search instances)")


def test_criterion_07_budgeted_grid_monotonicity():
    with Clock(120):
        rng = random.Random(707)
        eps_list = [F(1), F(1, 2), F(1, 4), F(1, 8)]
        i_list = [0, -1, -2]
        for _ in range(50):
            q = suites.random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            phi = suites.random_measure(rng, 2, rng.choice(["markov", "bernoulli", "dirac"]))
            psi = suites.random_measure(rng, 2)
            grid = psi_eps_grid(q, psi, phi, eps_list, i_list, TruncationConfig(1, 0, 0))
            # values never decrease as the slack shrinks
            assert grid.nondecreasing_as_eps_shrinks
            # and never decrease as the shift moves away from zero
            assert grid.nondecreasing_as_i_decreases
    done(7, "(50 instances, 12-cell grids)")


def test_criterion_08_splitting_identity_at_finite_scale():
    with Clock(120):
        n = 2
        algebra = verify.FiniteAlgebra(
            n, [WindowSet.cylinder(n, j, [0]) for j in (-1, 0, 1)]
        )
        assert len(algebra) == 256
        cfg = suites.caratheodory_config(depth=1)
        chain = measures.stationary_markov(CHAIN_A)
        handles = [
            verify.phi_handle("truncated point-mass optimum", ALT, cfg),
            verify.phi_handle("truncated chain optimum", chain, cfg),
            verify.psi_handle(
                "budgeted optimum",
                measures.BernoulliMeasure((F(1, 2), F(1, 2))), chain, F(4), cfg
            ),
        ]
        generators = [
            WindowSet.cylinder(n, j, [s]) for j in (-2, -1, 0, 1, 2) for s in (0, 1)
        ]
        for handle in handles:
            for a in generators:
                assert verify.caratheodory_measurable(handle, a, algebra).ok
            closure = verify.check_splitting_closure(handle, algebra)
            assert closure.ok
            detail = [c.detail for c in closure.checks if c.name == "family size"][0]
            assert detail.startswith("256 of 256")
    done(8, "(3 evaluators x 10 generators over the 256-member algebra)")


def test_criterion_09_approximation_axioms():
    with Clock(60):
        report = suites.suite_approximation(909)
        assert report.ok
        names = {c.name: c.verdict for c in report.checks}
        for key, verdict in names.items():
            if key.startswith("consistent pair"):
                assert verdict == verify.PASS
        assert not any(v == verify.FAIL for v in names.values())
    done(9)


def test_criterion_10_signed_bracket():
    with Clock(120):
        rng = random.Random(1010)
        for case in range(50):
            depth_n = 1 + (case % 2)
            q = suites.random_window_set(rng, 2, lo_range=(-1, 1), max_span=2)
            phi = suites.random_measure(rng, 2, rng.choice(["markov", "bernoulli"]))
            psis = [suites.random_measure(rng, 2) for _ in range(depth_n)]
            cs = [F(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(depth_n)]
            eps = F(1, 2)
            cfg = TruncationConfig(1, 0, 0)
            floor = phi_truncated(q, phi, cfg).value
            budget = floor + eps
            signed_certs = psi_signed(q, phi, psis, cs, eps, cfg)
            constraints = [(phi, budget)]
            for level in range(depth_n):
                unsigned = psi_budgeted(
                    BudgetedProblem(q, psis[level], tuple(constraints), cfg)
                ).value
                signed_value = signed_certs[level].value
                c = cs[level]
                assert unsigned - c * budget <= signed_value <= unsigned - c * floor
                obj = (
                    measures.SignedDiffMeasure(psis[level], c, phi)
                    if c != 0 else psis[level]
                )
                constraints.append((obj, signed_value + eps))
            zeroed = psi_signed(q, phi, psis, [F(0)] * depth_n, eps, cfg)
            from ddmlab.budgeted import psi_chain

            assert [c.value for c in zeroed] == [
                c.value for c in psi_chain(q, phi, psis, eps, cfg)
            ]
    done(10, "(50 instances, chain lengths 1 and 2)")


def test_criterion_11_norm_defect():
    with Clock(10):
        cfg = TruncationConfig(1, 0, 0)
        for mu in (
            measures.stationary_markov(CHAIN_A),
            measures.BernoulliMeasure((F(1, 3), F(2, 3))),
        ):
            res = verify.norm_defect(mu, 1, 1, cfg)
            assert res.defect == 0
            assert res.truncated_total == res.total_mass
            assert res.bound_holds
        res = verify.norm_defect(ALT, 1, 1, cfg)
        assert res.defect == 1
        assert res.truncated_total == 0
        assert res.bound_holds
    done(11)


def test_criterion_12_byte_identical_verification():
    cmd = [sys.executable, "-m", "ddmlab", "verify", "all", "--seed", "7"]
    # the child imports the package the tests import, installed or not
    src = str(Path(ddmlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    first = subprocess.run(cmd, capture_output=True, check=False, env=env)
    second = subprocess.run(cmd, capture_output=True, check=False, env=env)
    assert first.returncode == 0, first.stdout.decode()[:500]
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert hashlib.sha256(first.stdout).hexdigest() == VERIFY_ALL_SEED_7_SHA256
    payload = json.loads(first.stdout)
    assert payload["counts"]["FAIL"] == 0
    done(12, f"({payload['counts']['PASS']} checks, byte-identical)")


@pytest.mark.parametrize("command", sorted(CLI_WITNESS_SHA256))
def test_cli_tables_are_byte_identical(command, capsys):
    assert main([command, "--witness"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CLI_WITNESS_SHA256[command]
