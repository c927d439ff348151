"""Seeded workload generators.

Each generator turns a seed into scenario-file texts plus the command line
of every op.  The program under test only ever sees the files written from
these texts.  The generators use no part of fforbits, so a change to the
program cannot change its own inputs.

Op shapes rotate in a fixed order and only the coefficients come from the
seed.  Every seed therefore has the same mix of costs, and one run's
median op time does not depend on the luck of the draw.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

WORKLOADS = ("scenario-batch", "dense-intersect", "rational-heights",
             "verify-all")

# ops generated per seed; a run that finishes them all starts over, and a
# repeated op must give the same bytes as its first run
OPS_PER_SEED = {"scenario-batch": 160, "dense-intersect": 160,
                "rational-heights": 160, "verify-all": 1}

# dense-intersect: the last orbit point of each walk ends near this degree
DENSE_DEGREE = 256


@dataclass
class Op:
    """One call of fforbits.cli.main: the scenario files it reads, the
    flags after them, and what the output must show."""

    files: List[str]
    flags: List[str]
    fmt: str
    planted: Optional[Dict[str, int]] = None   # capM, capN of a planted pair

    def argv(self, paths: Dict[str, str]) -> List[str]:
        out = []
        for name in self.files:
            out += ["--scenario", paths[name]]
        return out + self.flags + ["--format", self.fmt]


@dataclass
class Workload:
    name: str
    files: Dict[str, str] = field(default_factory=dict)   # name -> text
    ops: List[Op] = field(default_factory=list)
    warmup: Optional[Op] = None


# ---- GF(p)[t] helpers (coefficient lists, lowest degree first) ----------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        _trim(a)
    return a


def _coprime(a, b, p) -> bool:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _pmod(a, b, p)
    return len(a) == 1


def _rand_poly(rng, p, deg, monic=False):
    coeffs = [rng.randrange(p) for _ in range(deg)]
    coeffs.append(1 if monic else rng.randrange(1, p))
    return coeffs


def _rand_sparse(rng, p, deg, terms):
    exps = sorted(rng.sample(range(deg), min(terms - 1, deg)) + [deg])
    coeffs = [0] * (deg + 1)
    for e in exps:
        coeffs[e] = rng.randrange(1, p)
    return coeffs


def poly_text(coeffs) -> str:
    """The polynomial in t with these coefficients, highest degree first."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mono = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
        if not mono:
            parts.append(str(c))
        else:
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


def _rand_ratfunc(rng, p, height, avoid=(1,)):
    """(num, den) of a reduced a/b with b monic of degree `height`, coprime
    to `avoid`, and deg a <= height, so a/b has no pole at infinity."""
    while True:
        den = _rand_poly(rng, p, height, monic=True)
        num = _rand_poly(rng, p, rng.randrange(height + 1))
        if _coprime(num, den, p) and _coprime(den, avoid, p):
            return num, den


def _ratfunc_text(num, den) -> str:
    return f"({poly_text(num)})/({poly_text(den)})"


# ---- dense-intersect ----------------------------------------------------

# (p, d), x^d not additive.  Over GF(3) a dense point has more zero
# coefficients, so (3, 2) ops are the cheapest and (5, 3) the dearest; with
# (5, 2) twice in the rotation the median op lies inside the (5, 2) group
# rather than on the edge between two groups.
_DENSE_SHAPES = ((3, 2), (5, 2), (5, 3), (5, 2))
# starting degrees whose orbits reach DENSE_DEGREE (3^5 = 243 for d = 3)
_DENSE_START = {2: (2, 4), 3: (1, 3)}


def _dense_cap(start_deg: int, d: int) -> int:
    """The cap whose last orbit point has degree start_deg * d^cap closest
    to DENSE_DEGREE on a log scale."""
    cap = 0
    while (start_deg * d ** (cap + 1)) ** 2 <= DENSE_DEGREE ** 2 * d:
        cap += 1
    return cap


def _full_poly(rng, p, deg):
    """Degree deg with every coefficient nonzero, so orbits stay dense."""
    return poly_text([rng.randrange(1, p) for _ in range(deg + 1)])


def dense_intersect(seed: int) -> Workload:
    rng = random.Random(f"dense-intersect:{seed}")
    w = Workload("dense-intersect")
    for i in range(OPS_PER_SEED[w.name]):
        p, d = _DENSE_SHAPES[i % len(_DENSE_SHAPES)]
        planted = (i // 4) % 2 == 0
        a_deg = _DENSE_START[d][(i // 8) % 2]
        alpha = _full_poly(rng, p, a_deg)
        c = _full_poly(rng, p, rng.randrange(a_deg))
        f = f"x^{d} + {c}"
        cap_m = _dense_cap(a_deg, d)
        if planted:
            g, beta = f, f"({alpha})^{d} + {c}"
            cap_n = cap_m - 1
        else:
            b_deg = _DENSE_START[d][(i // 16) % 2]
            c_g = c
            while c_g == c:
                c_g = _full_poly(rng, p, rng.randrange(b_deg))
            g, beta = f"x^{d} + {c_g}", _full_poly(rng, p, b_deg)
            cap_n = _dense_cap(b_deg, d)
        name = f"dense-{i:03d}.txt"
        w.files[name] = (f"field = GF({p})\ntask = intersect\nf = {f}\n"
                         f"g = {g}\nalpha = {alpha}\nbeta = {beta}\n"
                         f"capM = {cap_m}\ncapN = {cap_n}\n")
        w.ops.append(Op([name], [], "json",
                        {"capM": cap_m, "capN": cap_n} if planted else None))
    w.files["warmup.txt"] = ("field = GF(3)\ntask = intersect\nf = x^2 + t\n"
                             "g = x^2 + t\nalpha = t + 1\n"
                             "beta = (t + 1)^2 + t\ncapM = 4\ncapN = 3\n")
    w.warmup = Op(["warmup.txt"], [], "json", {"capM": 4, "capN": 3})
    return w


# ---- rational-heights ---------------------------------------------------

# (p, d, h(c), h(alpha), iterations) for f = x^d + c.  The poles of c and
# alpha lie at distinct places and none at infinity, so the canonical height
# is exactly h(alpha) + h(c)/d and each shape has one final height and
# about one cost: the op-time quantiles then barely move from seed to seed.
_RATIONAL_SHAPES = ((3, 2, 2, 2, 5), (5, 2, 1, 2, 5), (3, 2, 1, 2, 5),
                    (5, 3, 1, 2, 3))


def rational_heights(seed: int) -> Workload:
    rng = random.Random(f"rational-heights:{seed}")
    w = Workload("rational-heights")
    for i in range(OPS_PER_SEED[w.name]):
        p, d, h_c, h_alpha, n = _RATIONAL_SHAPES[i % len(_RATIONAL_SHAPES)]
        c = _rand_ratfunc(rng, p, h_c)
        alpha = _rand_ratfunc(rng, p, h_alpha, avoid=c[1])
        # f = x^d + c has gap constant B = d*h(c); this target error makes
        # canonical_height stop after exactly n iterations
        target = Fraction(d * h_c, d ** n * (d - 1))
        name = f"heights-{i:03d}.txt"
        w.files[name] = (f"field = GF({p})\ntask = heights\n"
                         f"f = x^{d} + {_ratfunc_text(*c)}\n"
                         f"alpha = {_ratfunc_text(*alpha)}\n"
                         f"targetError = {target}\ndenomBound = 16\n")
        w.ops.append(Op([name], [], "json"))
    w.files["warmup.txt"] = ("field = GF(3)\ntask = heights\nf = x^2 + 1/t\n"
                             "alpha = (t + 1)/(t^2 + 2)\ntargetError = 1/4\n")
    w.warmup = Op(["warmup.txt"], [], "json")
    return w


# ---- scenario-batch -----------------------------------------------------

_GF9 = "GF(9; mod=w^2+1)"
_GF9_UNITS = ("1", "2", "w", "2*w", "w + 1", "w + 2", "2*w + 1", "2*w + 2")
_CHEAP_EXAMPLES = ("example = 101", "example = 102", "example = 11-12",
                   "example = exg1", "example = 2.5",
                   "example = 2.8; p = 3; nmax = 4")


_CAPS = (16, 32, 48, 64)


def _gf2_pair(rng, k):
    """x^2 + x against x^2 + (h^2 + h) from alpha = h, beta = 0: the orbits
    meet along powers of two and every point stays sparse."""
    h = poly_text(_rand_sparse(rng, 2, rng.randrange(1, 6), 1 + k % 3))
    return (f"field = GF(2)\nf = x^2 + x\ng = x^2 + (({h})^2 + ({h}))\n"
            f"alpha = {h}\nbeta = 0\n")


def _additive_pair(rng, k):
    """Additive maps T + a (that is x^3 + a*x) over GF(3) or GF(9), against
    themselves from beta = f(alpha) or against T^2 + b."""
    spec, units = (("GF(3)", ("1", "2")), (_GF9, _GF9_UNITS))[k % 2]
    a = rng.choice(units)
    alpha = poly_text(_rand_sparse(rng, 3, rng.randrange(1, 4), 2))
    if k // 2 % 2:
        g, beta = f"T + {a}", f"({alpha})^3 + ({a})*({alpha})"
    else:
        g = f"T^2 + {rng.choice(units)}"
        beta = poly_text(_rand_sparse(rng, 3, rng.randrange(1, 4), 2))
    return (f"field = {spec}\nf = T + {a}\ng = {g}\nalpha = {alpha}\n"
            f"beta = {beta}\n")


def _ext_pair(rng, k):
    """Values in K[y]/(y^2 + y + t) over GF(2), where f(y) = t for
    f = x^2 + x.  t/y = y + 1 is parsed through an inverse in the ring; a
    starting point with a true denominator such as 1/y is left out because
    its orbit raises RecursionError at these caps."""
    h = poly_text(_rand_sparse(rng, 2, rng.randrange(1, 4), 2))
    alpha = f"{('y', 't/y')[k % 2]} + {h}"
    return (f"field = GF(2)\next = y^2 + y + t\nf = x^2 + x\ng = x^2 + x\n"
            f"alpha = {alpha}\nbeta = ({alpha})^2 + ({alpha})\n")


def _batch_files(rng, i):
    """One file per task.  Families, variants, caps and pruning follow the
    op index; pruning cannot run in an extension ring."""
    def caps(j):
        return (f"capM = {_CAPS[(i + j) % 4]}\n"
                f"capN = {_CAPS[(i + 2 * j + 1) % 4]}\n")

    prune = f"prune = {('on', 'off')[i // 2 % 2]}\n"
    files = {}
    body = (_gf2_pair, _additive_pair, _ext_pair)[i % 3](rng, i // 3)
    files["intersect"] = (body + "task = intersect\n" + caps(0)
                          + ("" if "ext" in body else prune))
    body = (_gf2_pair, _additive_pair)[i % 2](rng, i // 2)
    files["classify"] = body + "task = classify\n" + caps(1) + prune
    files["synchronized"] = (_gf2_pair(rng, i) + "task = synchronized\n"
                             f"r = 1\ns = 1\na = {i % 2}\nb = 0\n"
                             f"capN = {_CAPS[(i + 2) % 4]}\n")
    files["curve-return"] = (_gf2_pair(rng, i + 1) + "task = curve-return\n"
                             f"curve = x1 + x2\ncapN = {_CAPS[(i + 3) % 4]}\n")
    h = poly_text(_rand_sparse(rng, 2, rng.randrange(1, 6), 2))
    c = poly_text(_rand_sparse(rng, 2, rng.randrange(1, 4), 2))
    files["heights"] = (f"field = GF(2)\ntask = heights\nf = x^2 + {c}\n"
                        f"alpha = {h}\ndenomBound = 8\n")
    files["verify-example"] = (_CHEAP_EXAMPLES[i % len(_CHEAP_EXAMPLES)]
                               + "\nexpect = PASS\n")
    return files


def scenario_batch(seed: int) -> Workload:
    rng = random.Random(f"scenario-batch:{seed}")
    w = Workload("scenario-batch")
    for i in range(OPS_PER_SEED[w.name]):
        names = []
        for task, text in _batch_files(rng, i).items():
            name = f"batch-{i:03d}-{task}.txt"
            w.files[name] = text
            names.append(name)
        w.ops.append(Op(names, [], ("json", "text")[i % 2]))
    w.files["warmup.txt"] = ("field = GF(2)\nf = x^2 + x\n"
                             "g = x^2 + (t^2 + t)\nalpha = t\nbeta = 0\n"
                             "task = intersect\ncapM = 8\ncapN = 8\n")
    w.warmup = Op(["warmup.txt"], [], "json")
    return w


# ---- verify-all ---------------------------------------------------------

def verify_all(seed: int) -> Workload:
    """Fixed inputs: the seed is ignored."""
    del seed
    w = Workload("verify-all")
    w.ops.append(Op([], ["--verify-all"], "json"))
    w.warmup = Op([], ["--verify-all", "--pmax", "2"], "json")
    return w


GENERATORS = {"scenario-batch": scenario_batch,
              "dense-intersect": dense_intersect,
              "rational-heights": rational_heights,
              "verify-all": verify_all}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
