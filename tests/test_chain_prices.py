"""The surrogate and the levels of a psi chain share one frame and one memo.

Level k of ``psi_chain``/``psi_signed`` minimizes objective k under budgets
set by the surrogate (the phi optimum) and levels 0..k-1, on the same query
and the same truncation.  Its walk reads back the node prices of the
surrogate and of earlier levels, and a witness they re-checked is not
re-validated or re-priced again; each level's certificate still compares
its own vector with the witness's prices.  The reference here is the
level-by-level chain of fresh ``psi_budgeted`` solves.
"""

import random
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ddmlab import covers, engine, measures, suites, symbolic
from ddmlab.budgeted import BudgetedProblem, psi_budgeted, psi_chain, psi_signed
from ddmlab.covers import TruncationConfig
from ddmlab.errors import CertificateError, InfeasibleError

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
KINDS = ("dirac", "markov", "bernoulli", "cesaro", "convex")
CHAIN_A = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
PHI = measures.stationary_markov(CHAIN_A)


def cyl(j, *word):
    return symbolic.WindowSet.cylinder(2, j, word)


def level_by_level(q, phi, objectives, eps, cfg):
    """The chain as separate budgeted problems, each walked afresh."""
    constraints = [(phi, engine.phi_truncated(q, phi, cfg).value + eps)]
    certs = []
    for objective in objectives:
        cert = psi_budgeted(BudgetedProblem(q, objective, tuple(constraints), cfg))
        certs.append(cert)
        constraints.append((objective, cert.value + eps))
    return certs


def outcome(solve):
    """The certificates with their witness literals, or the error."""
    try:
        certs = solve()
    except InfeasibleError as exc:
        return "infeasible", str(exc)
    return [(c, [(m, e.literal()) for m, e in c.witness.entries]) for c in certs]


@st.composite
def chains(draw):
    """A query, a nonnegative phi, one to three objectives of the five kinds
    (point masses give ties) with signed scales from 0 to 1, and a small
    truncation."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    q = suites.random_window_set(rng, 2, lo_range=(-1, 1), max_span=2, allow_degenerate=True)
    phi = suites.random_measure(rng, 2, draw(st.sampled_from(KINDS)))
    levels = draw(st.integers(1, 3))
    psis = [suites.random_measure(rng, 2, draw(st.sampled_from(KINDS))) for _ in range(levels)]
    scales = [F(draw(st.integers(0, 4)), 4) for _ in range(levels)]
    cfg = TruncationConfig(draw(st.integers(0, 1)), draw(st.integers(0, 1)),
                           draw(st.sampled_from([0, -1])))
    return q, phi, psis, scales, draw(st.sampled_from([F(1, 8), F(1, 2)])), cfg


@SETTINGS
@given(chains())
def test_chains_equal_the_level_by_level_reference(instance):
    q, phi, psis, scales, eps, cfg = instance
    assert outcome(lambda: psi_chain(q, phi, psis, eps, cfg)) == outcome(
        lambda: level_by_level(q, phi, psis, eps, cfg))
    signed = [measures.SignedDiffMeasure(p, c, phi) if c else p for p, c in zip(psis, scales)]
    assert outcome(lambda: psi_signed(q, phi, psis, scales, eps, cfg)) == outcome(
        lambda: level_by_level(q, phi, signed, eps, cfg))


def three_levels(seed):
    rng = random.Random(seed)
    return [suites.random_measure(rng, 2, kind) for kind in ("markov", "bernoulli", "convex")]


def test_each_price_and_each_witness_check_is_made_once(monkeypatch):
    # the surrogate shares the chain's memo, so it is counted with the levels
    q, psis, cfg, eps = cyl(0, 0, 1), three_levels(5), TruncationConfig(1, 1, 0), F(1, 8)
    state = {"cover_cost": False}
    nodes, validated, priced = [], [], []

    def eval_shifted(mu, m, s):
        if not state["cover_cost"]:
            nodes.append((mu, m, s))
        return price(mu, m, s)

    def is_valid_cover(q, c):
        validated.append(c)
        return valid(q, c)

    def cover_cost(c, mu):
        state["cover_cost"] = True
        try:
            priced.append((c, mu))
            return cost(c, mu)
        finally:
            state["cover_cost"] = False

    surrogate = engine.phi_truncated(q, PHI, cfg).witness
    price, valid, cost = measures.eval_shifted, covers.is_valid_cover, covers.cover_cost
    monkeypatch.setattr(measures, "eval_shifted", eval_shifted)
    monkeypatch.setattr(covers, "is_valid_cover", is_valid_cover)
    monkeypatch.setattr(covers, "cover_cost", cover_cost)
    counts = []
    for chain in (psi_chain, level_by_level):
        del nodes[:], validated[:], priced[:]
        certs = chain(q, PHI, psis, eps, cfg)
        counts.append((len(nodes), len(validated), len(priced)))
        if chain is psi_chain:
            # one price per (measure, node), one validation per distinct
            # witness and one price per (witness, measure) pair
            assert nodes and len(nodes) == len(set(nodes))
            assert len({cert.witness for cert in certs}) < len(certs)
            assert len(validated) == len({surrogate} | {cert.witness for cert in certs})
            comps, pairs = [PHI], {(surrogate, PHI)}
            for cert, psi in zip(certs, psis):
                comps.append(psi)
                pairs |= {(cert.witness, mu) for mu in comps}
            assert len(priced) == len(pairs) and set(priced) == pairs
            shared = certs
    assert shared == certs
    # the fresh walks price each level's nodes again, and re-check the
    # surrogate's witness and every level's on every component
    assert all(chain < fresh for chain, fresh in zip(counts[0], counts[1]))
    assert counts[1][1:] == (1 + 3, 1 + 2 + 3 + 4)


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("signed", [False, True])
def test_a_trace_picked_again_reads_its_witness_back(monkeypatch, seed, signed):
    # the surrogate and three levels certify four options; a level that picks
    # a trace certified before builds no witness for it
    q, psis, cfg, eps = cyl(0, 0, 1), three_levels(seed), TruncationConfig(1, 1, 0), F(1, 8)
    scales = [F(1, 2), F(0), F(1, 4)] if signed else [F(0)] * 3
    objectives = [measures.SignedDiffMeasure(p, c, PHI) if c else p for p, c in zip(psis, scales)]
    reference = level_by_level(q, PHI, objectives, eps, cfg)
    traces = []
    witness = engine._witness
    monkeypatch.setattr(engine, "_witness", lambda root, trace: traces.append(trace)
                        or witness(root, trace))
    certs = psi_signed(q, PHI, psis, scales, eps, cfg) if signed else psi_chain(
        q, PHI, psis, eps, cfg)
    assert certs == reference
    assert len(traces) == len(set(traces)) < 1 + len(certs)


def test_a_mispriced_level_still_fails_its_certificate(monkeypatch):
    # levels 1 and 2 pick one witness, so level 2 finds it re-checked and
    # priced already; its mispriced vector must still be caught
    q, psis, cfg, eps = cyl(0, 0, 1), three_levels(0), TruncationConfig(1, 1, 0), F(1, 8)
    certs = psi_chain(q, PHI, psis, eps, cfg)
    assert certs[1].witness == certs[2].witness
    walk = engine._walk

    def mispriced(frame, comps, keep, **kwargs):
        options, dens = walk(frame, comps, keep, **kwargs)
        if len(comps) < 4:  # the surrogate and levels 0 and 1
            return options, dens
        # one more on a numerator: the least mispricing an integer front carries
        return tuple(((*vec[:3], vec[3] + 1), trace) for vec, trace in options), dens

    validated = []
    valid = covers.is_valid_cover
    monkeypatch.setattr(engine, "_walk", mispriced)
    monkeypatch.setattr(covers, "is_valid_cover", lambda q, c: validated.append(c) or valid(q, c))
    with pytest.raises(CertificateError, match="cost component 3"):
        psi_chain(q, PHI, psis, eps, cfg)
    assert certs[2].witness in validated


def test_a_chain_builds_one_frame(monkeypatch):
    frames = []
    build = engine.build_frame
    monkeypatch.setattr(engine, "build_frame", lambda *args: frames.append(1) or build(*args))
    psi_signed(cyl(0, 0, 1), PHI, three_levels(5), [F(1, 2)] * 3, F(1, 8),
               TruncationConfig(1, 1, 0))
    assert len(frames) == 1  # the surrogate's, which the levels share

