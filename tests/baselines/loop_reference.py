"""Per-pair loop versions of TruthFinder, Invest/PooledInvest and RTD.

Production runs these methods as ``np.bincount`` passes over the
columns of :class:`repro.baselines.base.Votes`.  This module keeps them
as the dict-of-lists loops they were written as: one dict entry per
(source, claim) pair, one list per fact and per source.  Every float
total is an explicit ``+=`` loop, because the builtin ``sum()`` is
compensated on CPython 3.12 and plain before it; the loops here give
the same bits on every interpreter, so production has to match them
bit for bit, not merely closely.

The semantics the columnar versions are held to:

- a pair's net value adds its reports' values in input order; a pair
  whose first report is neutral enters at that report for TruthFinder
  and Invest, and at its first non-neutral report for RTD;
- TruthFinder and Invest vote ``sign(net attitude)`` and drop a pair
  whose attitudes cancel; RTD keeps the pair with its net weight;
- the hyperparameters are the production module constants.
"""

import collections
import math

from repro.baselines import invest, rtd, truthfinder
from repro.core.types import TruthValue


def total(values):
    """Sequential float total, the same on every interpreter."""
    acc = 0.0
    for value in values:
        acc += value
    return acc


def source_claim_votes(reports):
    """Net attitude sign of each (source, claim) pair, balanced ones dropped."""
    net = collections.defaultdict(float)
    for report in reports:
        net[(report.source_id, report.claim_id)] += float(report.attitude)
    votes = {}
    for key, value in net.items():
        if value > 0:
            votes[key] = 1
        elif value < 0:
            votes[key] = -1
    return votes


def truthfinder_claims(reports):
    tf = truthfinder
    votes = source_claim_votes(reports)
    if not votes:
        return {}
    supporters = collections.defaultdict(list)
    facts_of_source = collections.defaultdict(list)
    claims = set()
    for (source_id, claim_id), vote in votes.items():
        fact = (claim_id, vote)
        supporters[fact].append(source_id)
        facts_of_source[source_id].append(fact)
        claims.add(claim_id)

    trust = {source: tf.INITIAL_TRUST for source in facts_of_source}
    confidence = {}
    for _ in range(tf.MAX_ITER):
        raw = {}
        for fact, sources in supporters.items():
            raw[fact] = total(
                -math.log(max(1.0 - trust[s], tf._EPS)) for s in sources
            )
        for claim_id in claims:
            for polarity in (1, -1):
                fact = (claim_id, polarity)
                if fact not in raw and (claim_id, -polarity) not in raw:
                    continue
                own = raw.get(fact, 0.0)
                other = raw.get((claim_id, -polarity), 0.0)
                adjusted = own - tf.RHO * other
                exponent = min(max(-tf.GAMMA * adjusted, -500.0), 500.0)
                confidence[fact] = 1.0 / (1.0 + math.exp(exponent))
        delta = 0.0
        for source_id, facts in facts_of_source.items():
            new_trust = total(confidence.get(f, 0.5) for f in facts) / len(facts)
            new_trust = min(max(new_trust, tf._EPS), 1.0 - tf._EPS)
            delta = max(delta, abs(new_trust - trust[source_id]))
            trust[source_id] = new_trust
        if delta < tf.TOL:
            break

    decisions = {}
    for claim_id in claims:
        true_conf = confidence.get((claim_id, 1), 0.0)
        false_conf = confidence.get((claim_id, -1), 0.0)
        if true_conf >= false_conf:
            decisions[claim_id] = (TruthValue.TRUE, true_conf)
        else:
            decisions[claim_id] = (TruthValue.FALSE, false_conf)
    return decisions


def invest_claims(reports, pooled):
    growth = invest.POOLED_GROWTH if pooled else invest.INVEST_GROWTH
    eps = invest._EPS
    votes = source_claim_votes(reports)
    if not votes:
        return {}
    facts_of_source = collections.defaultdict(list)
    for (source_id, claim_id), vote in votes.items():
        facts_of_source[source_id].append((claim_id, vote))

    trust = {source: 1.0 for source in facts_of_source}
    belief = {}
    for _ in range(invest.MAX_ITER):
        invested = collections.defaultdict(float)
        allocation = {}
        for source_id, facts in facts_of_source.items():
            share = trust[source_id] / len(facts)
            for fact in facts:
                grown = share**growth if pooled else share
                invested[fact] += grown
                allocation[(source_id, fact)] = grown
        if pooled:
            belief = dict(invested)
        else:
            belief = {fact: x**growth for fact, x in invested.items()}

        delta = 0.0
        for source_id, facts in facts_of_source.items():
            returns = 0.0
            for fact in facts:
                pool = invested[fact]
                if pool > eps:
                    returns += belief[fact] * (allocation[(source_id, fact)] / pool)
            new_trust = max(returns, eps)
            delta = max(delta, abs(new_trust - trust[source_id]))
            trust[source_id] = new_trust
        mean_trust = total(trust.values()) / len(trust)
        for source_id in trust:
            trust[source_id] /= max(mean_trust, eps)
        if delta < invest.TOL:
            break

    decisions = {}
    for claim_id in {claim_id for claim_id, _ in belief}:
        true_belief = belief.get((claim_id, 1), 0.0)
        false_belief = belief.get((claim_id, -1), 0.0)
        both = true_belief + false_belief
        if true_belief >= false_belief:
            conf = true_belief / both if both > eps else 0.0
            decisions[claim_id] = (TruthValue.TRUE, conf)
        else:
            conf = false_belief / both if both > eps else 0.0
            decisions[claim_id] = (TruthValue.FALSE, conf)
    return decisions


def rtd_claims(reports):
    eps = rtd._EPS
    net = collections.defaultdict(float)
    for report in reports:
        if report.attitude:
            net[(report.source_id, report.claim_id)] += (
                float(report.attitude)
                * report.independence
                * (1.0 - report.uncertainty)
            )
    if not net:
        return {}
    votes_of_claim = collections.defaultdict(list)
    votes_of_source = collections.defaultdict(list)
    for (source_id, claim_id), weight in net.items():
        votes_of_claim[claim_id].append((source_id, weight))
        votes_of_source[source_id].append((claim_id, weight))

    reliability = {source: rtd.PRIOR_RELIABILITY for source in votes_of_source}
    truth_sign = {}
    for _ in range(rtd.MAX_ITER):
        new_sign = {}
        for claim_id, claim_votes in votes_of_claim.items():
            score = total(
                weight * (2.0 * reliability[source] - 1.0)
                for source, weight in claim_votes
            )
            new_sign[claim_id] = 1.0 if score > 0 else -1.0
        delta = 0.0
        for source_id, source_votes in votes_of_source.items():
            agree = 0.0
            weight_total = 0.0
            for claim_id, weight in source_votes:
                magnitude = abs(weight)
                if magnitude < eps:
                    continue
                weight_total += magnitude
                if (weight > 0) == (new_sign[claim_id] > 0):
                    agree += magnitude
            numer = agree + rtd.PRIOR_RELIABILITY * rtd.PRIOR_STRENGTH
            denom = weight_total + rtd.PRIOR_STRENGTH
            new_rel = min(max(numer / denom, eps), 1.0 - eps)
            delta = max(delta, abs(new_rel - reliability[source_id]))
            reliability[source_id] = new_rel
        changed = [c for c in new_sign if truth_sign.get(c) != new_sign[c]]
        truth_sign = new_sign
        if delta < rtd.TOL and not changed:
            break

    decisions = {}
    for claim_id, sign in truth_sign.items():
        claim_votes = votes_of_claim[claim_id]
        support = total(abs(w) * reliability[s] for s, w in claim_votes)
        agree = total(
            abs(w) * reliability[s]
            for s, w in claim_votes
            if (w > 0) == (sign > 0)
        )
        confidence = agree / support if support > eps else 0.0
        value = TruthValue.TRUE if sign > 0 else TruthValue.FALSE
        decisions[claim_id] = (value, confidence)
    return decisions


#: Production method name -> its loop reference.
REFERENCES = {
    "TruthFinder": truthfinder_claims,
    "Invest": lambda reports: invest_claims(reports, pooled=False),
    "PooledInvest": lambda reports: invest_claims(reports, pooled=True),
    "RTD": rtd_claims,
}
