"""Closed-form accuracy gap between subpopulations, and its verification.

Population model: binary label Y with P(Y=1) = p_y1, binary subpopulation Z
with P(Z=1|Y=1) = pi1 and P(Z=1|Y=0) = pi0, and scores X drawn from F_y given
Y only (so X and Z are conditionally independent given Y).  For any classifier
with true positive rate TPR under F_1 and true negative rate TNR under F_0,
the accuracy difference between the two subpopulations is

    gap = [p_y1 (1 - p_y1) / (p_z1 (1 - p_z1))] * |pi1 - pi0| * |TPR - TNR|,

which follows from the per-group decomposition

    acc(Z=z) = TPR * P(Y=1|Z=z) + TNR * P(Y=0|Z=z)

with the conditionals obtained by Bayes inversion.  The gap vanishes exactly
when label and subpopulation are independent (pi1 == pi0) or the classifier
treats the classes symmetrically (TPR == TNR).

Sweeping a threshold over a fixed pair of score distributions visits points
(1-TNR, TPR) along one ROC curve; because TPR varies nonlinearly with TNR,
so does the gap, and the traced (majority, minority) accuracy pairs bend into
the same crescent the model sweeps produce empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegeneratePopulationError, EmptyGroupError, InvalidSpecError
from .gauss import bisect, normal_cdf_array, normal_quantile

_GRID_CLIP = (0.001, 0.999)
_MC_CHUNK = 1 << 16  # scores drawn per Monte Carlo block


@dataclass(frozen=True)
class PopulationSpec:
    p_y1: float
    pi1: float
    pi0: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p_y1 < 1.0:
            raise InvalidSpecError(f"p_y1 must be in (0,1), got {self.p_y1}")
        if not (0.0 <= self.pi1 <= 1.0 and 0.0 <= self.pi0 <= 1.0):
            raise InvalidSpecError("pi1 and pi0 must lie in [0,1]")
        if not 0.0 < self.p_z1 < 1.0:
            raise DegeneratePopulationError(
                f"P(Z=1) = {self.p_z1} is degenerate; conditionals undefined")

    @property
    def p_z1(self) -> float:
        return self.pi1 * self.p_y1 + self.pi0 * (1.0 - self.p_y1)

    def p_y1_given_z(self, z: int) -> float:
        """Bayes inversion of the (Y, Z) dependence."""
        if z == 1:
            return self.pi1 * self.p_y1 / self.p_z1
        return (1.0 - self.pi1) * self.p_y1 / (1.0 - self.p_z1)


@dataclass(frozen=True)
class ScoreModel:
    """1-D Gaussian score distributions: X|Y=0 ~ N(mu0, s0^2), X|Y=1 ~ N(mu1, s1^2)."""

    mu0: float = -1.0
    mu1: float = 1.0
    s0: float = 1.0
    s1: float = 1.0

    def __post_init__(self) -> None:
        # below 2**1023 the ends, midpoints and x - mu of roc_traverse's bracket stay finite
        # each comparison is False for NaN, so a NaN mean or deviation is rejected too
        if not (0 < self.s0 and 0 < self.s1 and abs(self.mu0) + 10 * self.s0 < 2.0**1023
                and abs(self.mu1) + 10 * self.s1 < 2.0**1023):
            raise InvalidSpecError("score parameters must be finite, standard deviations > 0, "
                                   "and each |mu| + 10 * s below 2**1023")

    def component_cdfs(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F_0(x) and F_1(x), the score CDFs given Y=0 and Y=1, from one
        ``normal_cdf_array`` call."""
        with np.errstate(over="ignore"):  # a far x standardizes to +-inf, whose CDF is exact
            c = normal_cdf_array(np.concatenate(((x - self.mu0) / self.s0,
                                                 (x - self.mu1) / self.s1)))
        return c[:x.size], c[x.size:]

    def tpr(self, threshold: float) -> float:
        """P(X > t | Y=1) for the rule: predict 1 iff x > t."""
        return 1.0 - float(self.component_cdfs(np.array([threshold]))[1][0])

    def tnr(self, threshold: float) -> float:
        """P(X <= t | Y=0)."""
        return float(self.component_cdfs(np.array([threshold]))[0][0])

    def threshold_for_rates(self, tpr: float, tnr: float) -> tuple[float, "ScoreModel"]:
        """A (threshold, score model) pair realizing the requested rates.

        Keeps this model's shapes but shifts the means so that the rule
        ``x > 0`` attains exactly (tpr, tnr); used to turn rate draws into
        samplable populations.
        """
        if not (0.0 < tpr < 1.0 and 0.0 < tnr < 1.0):
            raise InvalidSpecError("tpr and tnr must be strictly inside (0,1)")
        mu1 = -self.s1 * normal_quantile(1.0 - tpr)
        mu0 = -self.s0 * normal_quantile(tnr)
        return 0.0, ScoreModel(mu0=mu0, mu1=mu1, s0=self.s0, s1=self.s1)


def accuracy_gap(pop: PopulationSpec, tpr: float, tnr: float) -> float:
    """Closed-form |acc(Z=1) - acc(Z=0)| for a classifier with these rates."""
    scale = (pop.p_y1 * (1.0 - pop.p_y1)) / (pop.p_z1 * (1.0 - pop.p_z1))
    return scale * abs(pop.pi1 - pop.pi0) * abs(tpr - tnr)


def subpop_accuracy(pop: PopulationSpec, tpr: float, tnr: float, z: int) -> float:
    """Accuracy on subpopulation z via the conditional decomposition."""
    if z not in (0, 1):
        raise InvalidSpecError(f"z must be 0 or 1, got {z}")
    p1 = pop.p_y1_given_z(z)
    return tpr * p1 + tnr * (1.0 - p1)


def check_gap_inputs(threshold: float, n_samples: int, seed: int) -> None:
    """InvalidSpecError unless the operating point and Monte Carlo draw are valid."""
    if not np.isfinite(threshold):
        raise InvalidSpecError(f"threshold must be finite, got {threshold}")
    if not 10_000 <= n_samples < 2**63:
        raise InvalidSpecError(f"n_samples must be at least 10^4 and below 2**63, got {n_samples}")
    if seed < 0:
        raise InvalidSpecError(f"seed must be non-negative, got {seed}")


def monte_carlo_gap(pop: PopulationSpec, score: ScoreModel, threshold: float,
                    n_samples: int, seed: int = 0) -> tuple[float, float]:
    """Estimate the subpopulation accuracy gap by direct simulation.

    Samples in the model's generative direction, by cell counts: #{Y=1} ~
    Bin(n_samples, p_y1), then #{Y=y, Z=1} ~ Bin(n_y, pi_y) for y = 1, 0
    (successive binomials give the multinomial's joint law of the counts).
    Each (Y, Z) cell, in the order (1, 1), (1, 0), (0, 1), (0, 0), then draws
    that many scores from its label's distribution, ``_MC_CHUNK`` at a time
    into one reused buffer, and counts those ``x > threshold`` classifies
    correctly; memory does not grow with ``n_samples``, and as consecutive
    ``standard_normal`` calls continue one stream, the chunk size does not
    change the result.  Returns the absolute gap of the per-Z accuracies and
    a binomially propagated standard error.  No Bayes inversion or normal CDF
    is shared with :func:`accuracy_gap`, which makes this a usable cross-check.
    """
    check_gap_inputs(threshold, n_samples, seed)
    rng = np.random.default_rng(seed)
    n1 = rng.binomial(n_samples, pop.p_y1)
    n1_z1 = rng.binomial(n1, pop.pi1)
    n0_z1 = rng.binomial(n_samples - n1, pop.pi0)
    buf = np.empty(_MC_CHUNK)
    n_z, correct = [0, 0], [0, 0]  # indexed by z
    for y, z, count in ((1, 1, n1_z1), (1, 0, n1 - n1_z1),
                        (0, 1, n0_z1), (0, 0, n_samples - n1 - n0_z1)):
        mu, s = (score.mu1, score.s1) if y else (score.mu0, score.s0)
        above = 0
        for start in range(0, count, _MC_CHUNK):
            x = buf[:min(_MC_CHUNK, count - start)]
            rng.standard_normal(out=x)
            x *= s
            x += mu
            above += int(np.count_nonzero(x > threshold))
        n_z[z] += count
        correct[z] += above if y else count - above

    accs, ses = [], []
    for z in (1, 0):
        if n_z[z] == 0:
            raise EmptyGroupError(f"no Monte Carlo samples landed in Z={z}")
        acc = correct[z] / n_z[z]
        accs.append(acc)
        ses.append(acc * (1.0 - acc) / n_z[z])
    return abs(accs[0] - accs[1]), float(np.sqrt(ses[0] + ses[1]))


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    tnr: float
    tpr: float
    maj_acc: float
    min_acc: float
    gap: float


def check_thresholds(n_thresholds: int) -> None:
    if not 3 <= n_thresholds < 2**63:
        raise InvalidSpecError(f"need at least 3 thresholds and below 2**63, got {n_thresholds}")


def roc_traverse(pop: PopulationSpec, score: ScoreModel,
                 n_thresholds: int = 101) -> list[RocPoint]:
    """Trace the analytic accuracy curve obtained by sweeping the threshold.

    Thresholds are placed at evenly spaced quantiles of the mixed score
    distribution (clipped to [0.001, 0.999]), so the informative region of the
    ROC curve is covered uniformly.  Each threshold is one "model"; the
    emitted (maj_acc, min_acc) sequence is the analytic counterpart of a
    trained sweep's point cloud.
    """
    check_thresholds(n_thresholds)

    def mixture_cdf(x: np.ndarray) -> np.ndarray:
        f0, f1 = score.component_cdfs(x)
        return (1.0 - pop.p_y1) * f0 + pop.p_y1 * f1

    t = bisect(mixture_cdf, np.linspace(_GRID_CLIP[0], _GRID_CLIP[1], n_thresholds),
               min(score.mu0 - 10 * score.s0, score.mu1 - 10 * score.s1),
               max(score.mu0 + 10 * score.s0, score.mu1 + 10 * score.s1))
    tnr, f1 = score.component_cdfs(t)
    tpr = 1.0 - f1
    maj = subpop_accuracy(pop, tpr, tnr, 1)
    mnr = subpop_accuracy(pop, tpr, tnr, 0)
    return [RocPoint(*row) for row in zip(t.tolist(), tnr.tolist(), tpr.tolist(), maj.tolist(),
                                          mnr.tolist(), np.abs(maj - mnr).tolist())]


def moon_arm(points: list[RocPoint]) -> list[RocPoint]:
    """The majority-rising branch of a traversal.

    The full (maj_acc, min_acc) trace folds back once the threshold passes
    the majority subpopulation's optimum, so the trace as a whole is not a
    function of majority accuracy.  The prefix up to that peak is the
    single-valued crescent arm, which is the piece comparable to a trained
    sweep (real sweeps never produce majority accuracy below chance).
    """
    peak = max(range(len(points)), key=lambda i: points[i].maj_acc)
    return points[:peak + 1]


def write_traversal_csv(points: list[RocPoint], path: str | Path) -> None:
    """One row per point, every value at ``format_sig``'s 12 digits, in one write."""
    values = tuple(v for p in points for v in vars(p).values())
    with open(path, "w", newline="") as fh:
        fh.write("threshold,tnr,tpr,maj_acc,min_acc,gap\n"
                 + ("%.12g," * 5 + "%.12g\n") * len(points) % values)


def gap_summary(pop: PopulationSpec, score: ScoreModel, threshold: float,
                n_samples: int = 1_000_000, seed: int = 0) -> dict:
    """Closed form vs Monte Carlo at one operating point, with a verdict."""
    tpr = score.tpr(threshold)
    tnr = score.tnr(threshold)
    closed = accuracy_gap(pop, tpr, tnr)
    mc, se = monte_carlo_gap(pop, score, threshold, n_samples, seed=seed)
    consistent = abs(closed - mc) <= 3.0 * se
    return {
        "p_y1": pop.p_y1, "pi1": pop.pi1, "pi0": pop.pi0,
        "threshold": threshold, "tpr": tpr, "tnr": tnr,
        "closed_form_gap": closed,
        "mc_gap": mc, "mc_se": se, "n_samples": n_samples,
        "verdict": "consistent" if consistent else "inconsistent",
    }
