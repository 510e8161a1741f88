"""The benchmark's workloads: CLI case lists made from a seed, and their gates.

Each workload is a list of ``Case``s, every one an argv for
``hermgrs.cli.main`` with the exit code it must return and the gate its
output must pass.  Cases run as a closed loop: one caller, each command
starting after the previous one returns.  All commands run with
``--threads 1``.  No case takes more than about 2.5 s on a 2.1 GHz Xeon,
and a pass over a list takes 4-7 s, so a run repeats every case several
times and reports medians.

Why these workloads:

* ``sweep`` - every sweep cell with k >= 2 at q >= 11 is ``constructive``,
  so the time goes to ``linalg.rref`` on the u-space generators and almost
  none to enumeration.  The workload for elimination-kernel work.  q <= 9
  is left out because its k=2 certification would swamp the rref signal,
  and q = 17, 19 (4 s and 8.5 s a sweep) because a pass would be too long
  to repeat.
* ``certify`` - the package's enumerators.  Small-k certification, where
  ``linalg.min_weight_scan`` is most of the time (level scan with
  lonely-column pruning, and the full meet-in-the-middle path at (5,4))
  and the rref matrices are tiny; and the two full enumerators,
  ``linalg.weight_distribution`` and ``grscode.min_weight`` (MDS tier 2),
  which no other workload calls at size.  (8,2), 7-8.5 s alone, is
  replaced by the small p = 2 case (4,2); the distribution runs at (4,3),
  as (5,4) takes 23 s.  Its inputs do not depend on the seed.
* ``construct`` - construct + verify pairs.  The only workload that runs
  ``grscode`` (Gram, minors, truncation, JSON round trip) and
  ``constructions`` at size; it runs no rref and no scan.

Every workload ends with the same three toy cases at q = 3 (``_probe``),
a few milliseconds that touch every layer, so that no per-layer time is
zero by construction.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "certify", "construct")

# workloads whose inputs are the same for every seed
SEED_FREE = ("certify",)

# GF(q) inside GF(q^2) at q = 9: index 0 and the powers w^(10j), index 1 + 10j
_GF9_INDICES = [0] + [1 + 10 * j for j in range(8)]

SWEEP_QS = (11, 13, 16)

# qsq-plus-one --q 32 cases a construct pass draws from the valid --e
QSQ32_DRAWS = 4

# the 22 valid --e at q = 32 (e^33 = 1, e^11 != 1), as element indices
_QSQ32_E = [1 + 31 * s for s in range(1, 33) if s % 3 != 0]

# the toy field of the probe cases every workload ends with
PROBE_Q = 3

# a code record that parses as JSON but carries a zero theta: verify must exit 4
MALFORMED_RECORD = '{"result": {"p": 3, "h": 2, "k": 3, "support": [1, 2], "thetas": [0, 5]}}\n'
MALFORMED_FILE = "malformed.json"


@dataclass(frozen=True)
class Case:
    """One CLI command, what it must return and how its output is checked.

    ``key`` names the inputs in full; the reference digest is stored under
    it.  ``mode_key`` names what decides the certification mode or MDS
    tier; the reference mode is stored under it, so seed-drawn inputs are
    checked too.
    """

    argv: tuple[str, ...]
    expect: int
    gate: str
    key: str
    mode_key: str = ""
    params: dict = field(default_factory=dict)
    output: str | None = None  # file the command writes


def _cmd(*argv) -> tuple[str, ...]:
    return tuple(str(a) for a in argv)


def fields(workload: str) -> list[tuple[int, int]]:
    """(p, h) of every field the workload uses, set up before the first case."""
    qs = {
        "sweep": list(SWEEP_QS),
        "certify": [5, 7, 4],
        "construct": [32, 7, 9, 16, 5, 4],
    }[workload]
    return [_prime_power(q) for q in qs + [PROBE_Q]]


def _prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    h = 0
    while q > 1:
        q //= p
        h += 1
    return p, h


def cases(workload: str, seed: int) -> list[Case]:
    """The workload's case list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    out = {
        "sweep": _sweep,
        "certify": _certify,
        "construct": _construct,
    }[workload](rng)
    _probe(out)
    return out


def _probe(out: list[Case]) -> None:
    """Every layer at toy size (q = 3), a few milliseconds per pass.

    Each workload ends with these cases, so every per-layer figure is
    measured on every workload and no layer time is zero by construction.
    """
    argv = _cmd("puncture", "--q", PROBE_Q, "--k", 2, "--method", "all", "--check-min-weight",
                "--distribution", "--g-samples", 1, "--threads", 1)
    out.append(Case(argv, 0, "probe", " ".join(argv), "probe q=3 k=2",
                    {"q": PROBE_Q, "k": 2, "samples": 1}))
    # --mds-cap 1 sends verify to MDS tier 2, enumeration of 9 words
    _pair(out, "custom", ("--q", PROBE_Q, "--k", 1, "--g", 1, "--c", 0), "probe custom q=3 k=1",
          ("--mds-cap", 1))


def _sweep(rng: random.Random) -> list[Case]:
    out = []
    for q in SWEEP_QS:
        argv = _cmd("sweep", "--q", q, "--threads", 1)
        out.append(Case(argv, 0, "sweep", " ".join(argv), f"sweep q={q}", {"q": q}))
    n1, s1 = rng.randrange(8, 17), rng.randrange(2**31)
    n2, s2 = rng.randrange(8, 17), rng.randrange(2**31)
    for q, k, method, n, s in ((11, 3, "all", n1, s1), (16, 4, "u-space", n2, s2)):
        argv = _cmd("puncture", "--q", q, "--k", k, "--method", method,
                    "--g-samples", n, "--seed", s, "--threads", 1)
        out.append(Case(argv, 0, "puncture", " ".join(argv), params={"q": q, "k": k, "samples": n}))
    argv = _cmd("puncture", "--q", 13, "--k", 3, "--method", "direct", "--threads", 1)
    out.append(Case(argv, 3, "refusal", " ".join(argv)))
    return out


def _certify(rng: random.Random) -> list[Case]:
    out = []
    for q, k in ((5, 3), (5, 4), (7, 2), (4, 2), (7, 6)):
        argv = _cmd("puncture", "--q", q, "--k", k, "--method", "u-space",
                    "--check-min-weight", "--threads", 1)
        out.append(Case(argv, 0, "certify", " ".join(argv), f"certify q={q} k={k}", {"q": q, "k": k}))
    # (4,3) is the only distribution between toy size (dim 8, 4^8 words) and
    # (5,4) (5^10 words, 23 s, too long to repeat in a run)
    argv = _cmd("puncture", "--q", 4, "--k", 3, "--method", "u-space", "--distribution", "--threads", 1)
    out.append(Case(argv, 0, "distribution", " ".join(argv), params={"q": 4, "k": 3}))
    # a cap of 1000 minors forces MDS tier 2: enumeration of 49^3 words
    _pair(out, "custom", ("--q", 7, "--k", 3, "--g", 0, "--c", 1), "custom q=7 k=3", ("--mds-cap", 1000))
    argv = _cmd("puncture", "--q", 5, "--k", 3, "--method", "u-space", "--distribution", "--threads", 1)
    out.append(Case(argv, 3, "refusal", " ".join(argv)))
    return out


def _pair(out: list[Case], family: str, args: tuple, mode_key: str, verify_args: tuple = ()) -> None:
    """A construct writing a record, then verify reading it back."""
    name = f"code{len(out):02d}.json"
    argv = _cmd("construct", family, *args, "--output", name)
    key = " ".join(argv)
    out.append(Case(argv, 0, "construct", key, mode_key, output=name))
    verify = _cmd("verify", name, *verify_args, "--threads", 1)
    out.append(Case(verify, 0, "verify", f"{key} | {' '.join(verify)}",
                    f"{mode_key} {' '.join(map(str, verify_args))}".strip()))


def _construct(rng: random.Random) -> list[Case]:
    out: list[Case] = []
    for e in sorted(rng.sample(_QSQ32_E, QSQ32_DRAWS)):
        _pair(out, "qsq-plus-one", ("--q", 32, "--e", e), "qsq-plus-one q=32")
    for family, args in (
        ("odd-min", ("--q", 7, "--k", 6)),
        ("odd-min", ("--q", 9, "--k", 6)),
        ("even-min", ("--q", 16, "--k", 8)),
        ("example1", ("--q", 5, "--k", 4, "--t", 3, "--f", 1)),
        ("example2", ("--q", 7, "--k", 3, "--t", 4, "--r", 9)),
    ):
        _pair(out, family, args, " ".join(map(str, (family,) + args)))
    for _ in range(3):
        # deg g <= (q-k)q-1 = 53; c in GF(q)
        deg = rng.randrange(54)
        g = [rng.randrange(81) for _ in range(deg)] + [rng.randrange(1, 81)]
        c = rng.choice(_GF9_INDICES)
        _pair(out, "custom", ("--q", 9, "--k", 3, "--g", ",".join(map(str, g)), "--c", c),
              "custom q=9 k=3")
    for argv, expect in (
        (_cmd("construct", "qsq-plus-one", "--q", 4), 2),
        (_cmd("construct", "custom", "--q", 9, "--k", 3, "--g", 0, "--c", 2), 2),  # c outside GF(9)
        (_cmd("verify", MALFORMED_FILE), 4),
    ):
        out.append(Case(argv, expect, "refusal", " ".join(argv)))
    return out


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------
def min_weight_formula(q: int, k: int) -> int:
    """The paper's minimum distance of P(C), restated here as an independent check."""
    if k == q:
        return q * q + 1
    if 2 * k <= q:
        return 2 * k
    if q % 2 == 0:
        return q * (k + 1 - q // 2)
    return (q + 1) * (k - (q - 1) // 2)


_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def digest(stdout: str, file_text: str | None) -> str:
    """sha256 of the command's output with the timestamp blanked."""
    text = stdout + "\0" + (file_text or "")
    return hashlib.sha256(_TIMESTAMP.sub('"timestamp": ""', text).encode()).hexdigest()


def check(case: Case, rc: int | None, stdout: str, file_text: str | None,
          reference: dict) -> tuple[list[str], object]:
    """Gate one case.  Returns (problems, mode), empty problems on success.

    ``mode`` is the certification mode or MDS tier the output reports, the
    value stored in the reference under ``case.mode_key``.
    """
    if rc != case.expect:
        return [f"exit {rc}, expected {case.expect}"], None
    if case.gate == "refusal":
        return [], None
    try:
        problems, mode = _GATES[case.gate](case, stdout, file_text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], None
    if case.mode_key:
        want = reference.get("modes", {}).get(case.mode_key)
        if want is None:
            problems.append(f"no reference mode for {case.mode_key!r}")
        elif mode != want:
            problems.append(f"mode {mode!r}, reference {want!r}")
    want = reference.get("digests", {}).get(case.key)
    if want is not None and digest(stdout, file_text) != want:
        problems.append("output digest differs from the reference")
    return problems, mode


def _result(text: str) -> dict:
    return json.loads(text)["result"]


def _gate_sweep(case, stdout, _file):
    rows = list(csv.DictReader(io.StringIO("".join(
        line for line in io.StringIO(stdout) if not line.startswith("#")))))
    q = case.params["q"]
    problems = []
    if [int(r["k"]) for r in rows] != list(range(1, q + 1)):
        problems.append("sweep rows do not cover k = 1..q")
    problems += [f"k={r['k']}: agrees={r['agrees']}" for r in rows if r["agrees"] != "True"]
    problems += [f"k={r['k']}: weight {r['witness_weight']} != formula {r['formula']}"
                 for r in rows if int(r["formula"]) != min_weight_formula(q, int(r["k"]))]
    return problems, [r["mode"] for r in rows]


def _gate_puncture(case, stdout, _file):
    r = _result(stdout)
    problems = []
    if r["dim"] != r["expected_dim"] or len(r["basis"]) != r["dim"]:
        problems.append(f"dim {r['dim']} != expected {r['expected_dim']}")
    if r.get("methods_agree", True) is not True:
        problems.append("direct and u-space bases differ")
    samples = r["g_form_samples"]
    if samples["count"] != case.params["samples"] or samples["all_members"] is not True:
        problems.append(f"g-form samples {samples}")
    return problems, None


def _gate_certify(case, stdout, _file):
    r = _result(stdout)
    q, k = case.params["q"], case.params["k"]
    mw = r["min_weight"]
    problems = []
    if mw["value"] != min_weight_formula(q, k) or r["agrees"] is not True:
        problems.append(f"weight {mw['value']} != formula {min_weight_formula(q, k)}")
    witness = mw["witness"]
    if witness is None or sum(1 for x in witness if x) != mw["value"]:
        problems.append("witness weight differs from the reported weight")
    return problems, mw["mode"]


def _gate_construct(case, _stdout, file_text):
    r = _result(file_text)
    problems = [] if r["self_orthogonal"] is True else ["record is not self-orthogonal"]
    if len(r["support"]) != r["params"]["n"]:
        problems.append("support length differs from n")
    return problems, r["mds"]


def _gate_verify(case, stdout, _file):
    r = _result(stdout)
    problems = [] if r["self_orthogonal"] is True else ["verify finds the code not self-orthogonal"]
    claims = r["matches_file"]
    if not claims or not all(v is True for v in claims.values()):
        problems.append(f"matches_file {claims}")
    return problems, r["mds"]


def _gate_distribution(case, stdout, _file):
    r = _result(stdout)
    dist = {int(w): c for w, c in r["weight_distribution"].items()}
    problems = []
    if sum(dist.values()) != case.params["q"] ** r["dim"]:
        problems.append(f"distribution sums to {sum(dist.values())}, not q^{r['dim']}")
    if dist.get(0) != 1:
        problems.append("the zero word is not counted once")
    lightest = min(w for w in dist if w)
    if lightest != min_weight_formula(case.params["q"], case.params["k"]):
        problems.append(f"lightest nonzero word weighs {lightest}, not the formula value")
    return problems, None


def _gate_probe(case, stdout, file_text):
    problems, mode = _gate_certify(case, stdout, file_text)
    problems += _gate_puncture(case, stdout, file_text)[0] + _gate_distribution(case, stdout, file_text)[0]
    return problems, mode


_GATES = {
    "probe": _gate_probe,
    "sweep": _gate_sweep,
    "puncture": _gate_puncture,
    "certify": _gate_certify,
    "construct": _gate_construct,
    "verify": _gate_verify,
    "distribution": _gate_distribution,
}
