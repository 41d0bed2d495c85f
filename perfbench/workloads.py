"""The benchmark's workloads: lists of one-stanza `ipmaps verify` configs.

Each check carries its expected verdict next to the stanza, never inside it,
so the report a check produces is byte for byte the one a user would get
from the same config. Config seeds derive from the workload seed and the
check id alone, so a workload seed fixes every input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

GEOMETRIC_04 = {"kind": "geometric", "params": {"theta": 0.4}}
THREE_POINT = {"kind": "three_point", "params": {"p": 0.2, "q": 0.5, "r": 0.3}}
GIG_21 = {"kind": "gig", "params": {"alpha": 2.0, "lam": 1.0}}
GAMMA_21 = {"kind": "gamma", "params": {"shape": 2.0, "rate": 1.0}}
UNIFORM = {"kind": "uniform"}
GAUSS = {"beta": 0.5, "sigma": 1.0}
# stationary law of the Gaussian AR(1) kernel: variance sigma^2 / (1 - beta^2)
GAUSS_MU = {"kind": "normal", "params": {"mean": 0.0, "variance": 4.0 / 3.0}}


@dataclass(frozen=True)
class Check:
    """One verify stanza and the verdict the paper predicts for it.

    `exact` marks checks whose verdict involves no sampling error: a
    mismatch there is a wrong answer, not a statistical false reject.
    """

    id: str
    stanza: dict
    expected: bool
    exact: bool

    def config(self, workload, seed):
        return {"seed": derive_seed(workload, seed, self.id),
                "checks": [self.stanza]}


def derive_seed(workload, seed, check_id):
    digest = hashlib.sha256(f"{workload}:{seed}:{check_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def statistical(tiny=False):
    """Sampling at n = 10^6: involution round trips, the augmentation
    hypotheses, reversibility, the criterion-5 ip cases and the known-bad
    ip cases, and the numeric Skorokhod construction."""
    n = 20_000 if tiny else 1_000_000
    checks = []
    for name, params in (("matsumoto_yor", None),
                         ("swapped_matsumoto_yor", None),
                         ("beta_map", None), ("beta_walk", None),
                         ("gaussian_rosenblatt", GAUSS)):
        stanza = {"kind": "involution", "map": name, "n": n}
        if params:
            stanza["params"] = params
        checks.append(Check(f"involution:{name}", stanza, True, True))
    checks.append(Check(
        "involution:spd_matsumoto_yor",
        {"kind": "involution", "map": "spd_matsumoto_yor",
         "params": {"d": 3}, "n": 50 if tiny else 1000}, True, True))
    for name, expected in (("matsumoto_yor", True), ("beta_walk", True),
                           ("kdv", False)):
        checks.append(Check(f"hypotheses:{name}",
                            {"kind": "hypotheses", "map": name, "n": 1000},
                            expected, True))
    for cid, name, mu, nu, expected in (
            ("reflecting_rw", "reflecting_rw", GEOMETRIC_04, THREE_POINT, True),
            ("my:gig-gamma", "matsumoto_yor", GIG_21, GAMMA_21, True),
            ("my:gig-uniform", "matsumoto_yor", GIG_21, UNIFORM, False)):
        checks.append(Check(
            f"reversibility:{cid}",
            {"kind": "reversibility", "map": name, "mu": mu, "nu": nu,
             "n": n}, expected, False))
    ip_cases = (
        ("my:gig-gamma", "matsumoto_yor", None, GIG_21, GAMMA_21, True),
        ("beta_map", "beta_map", None,
         {"kind": "beta", "params": {"a": 2.0, "b": 1.0}},
         {"kind": "beta", "params": {"a": 3.0, "b": 2.0}}, True),
        ("gaussian_rosenblatt", "gaussian_rosenblatt", GAUSS, GAUSS_MU,
         UNIFORM, True),
        ("reflecting_rw", "reflecting_rw", None, GEOMETRIC_04, THREE_POINT,
         True),
        ("my:gig-uniform", "matsumoto_yor", None, GIG_21, UNIFORM, False),
        ("kdv_g2", "kdv_g2", None,
         {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": 2}},
         {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 2}}, False),
        ("beta_walk:product", "beta_walk", None,
         {"kind": "beta", "params": {"a": 2.0, "b": 3.0}},
         {"kind": "product", "components": [
             {"kind": "bernoulli", "params": {"p": 0.4}},
             {"kind": "beta", "params": {"a": 1.0, "b": 5.0}}]}, False),
    )
    for cid, name, params, mu, nu, expected in ip_cases:
        stanza = {"kind": "ip", "map": name, "mu": mu, "nu": nu, "n": n}
        if params:
            stanza["params"] = params
        checks.append(Check(f"ip:{cid}", stanza, expected, False))
    for beta, sigma in ((0.5, 1.0), (0.9, 2.0)):
        checks.append(Check(
            f"skorokhod:{beta}:{sigma}",
            {"kind": "skorokhod-gaussian", "beta": beta, "sigma": sigma},
            True, True))
    return checks


# replicates per field size: the small sizes put enough checks in a pass
# for a tail percentile, and the large ones keep the size dependence
BURKE_SIZES = ((100, 6), (200, 2), (400, 1))
BURKE_LAWS = (("reflecting_rw", GEOMETRIC_04, THREE_POINT),
              ("matsumoto_yor", GIG_21, GAMMA_21))


def burke_field(tiny=False):
    """The `simulate-burke` path: simulate a lattice field, verify its
    row and column laws, write field.csv and report.json.

    The replicates of each (map, size) are spread evenly over the pass, so
    a slow spell of the machine does not fall on one size alone.
    """
    sizes = ((60, 2),) if tiny else BURKE_SIZES
    slots = []
    for name, mu, nu in BURKE_LAWS:
        for size, copies in sizes:
            for copy in range(copies):
                slots.append(((copy + 0.5) / copies, Check(
                    f"burke:{name}:{size}:{copy}",
                    {"kind": "burke", "map": name, "mu": mu, "nu": nu,
                     "N": size, "T": size, "csv": "field.csv"},
                    True, False)))
    slots.sort(key=lambda slot: slot[0])
    return [check for _, check in slots]


# (p, q, r, p') of the reflecting walk's step law; r = 0 needs p', and the
# grid holds both p' = p (the law collapses to a geometric) and p' != p
RRW_GRID = ((0.2, 0.5, 0.3, None), (0.1, 0.6, 0.3, None),
            (0.3, 0.7, 0.0, 0.3), (0.3, 0.7, 0.0, 0.15),
            (0.4, 0.6, 0.0, 0.2))
# (ell, M): M is the noise truncation; theta^(M + 1 + ell) must stay
# below the default 1e-9 tail limit at theta = 0.7
KDV_SIZES = ((2, 60), (4, 120), (8, 200))


def exact_enum(tiny=False):
    """Exact rational enumeration: the reflecting walk characterization,
    the KdV total-variation dichotomy and exact detailed balance."""
    box = 100 if tiny else 1000
    checks = []
    for p, q, r, pprime in RRW_GRID:
        stanza = {"kind": "rrw-characterize", "p": p, "q": q, "r": r,
                  "box": box}
        if pprime is not None:
            stanza["pprime"] = pprime
        checks.append(Check(f"rrw:{p}:{q}:{r}:{pprime}", stanza, True, True))
    for theta in (0.3, 0.5, 0.7):
        for ell, M in KDV_SIZES[:1] if tiny else KDV_SIZES:
            for variant in ("g1", "g2"):
                checks.append(Check(
                    f"kdv:{variant}:{theta}:{ell}",
                    {"kind": "kdv-tv", "theta": theta, "ell": ell,
                     "variant": variant, "M": M}, True, True))
    for theta, expected in ((0.4, True), (0.5, False)):
        checks.append(Check(
            f"detailed-balance:geometric:{theta}",
            {"kind": "detailed-balance", "map": "reflecting_rw",
             "mu": {"kind": "geometric", "params": {"theta": theta}},
             "nu": THREE_POINT}, expected, True))
    return checks


WORKLOADS = {
    "statistical": statistical,
    "burke-field": burke_field,
    "exact-enum": exact_enum,
}
