"""Seeded, labelled corpus of structured 4x4 matrices for the benchmark.

The generator uses only the standard library and never calls the program,
so neither a change to the package nor to the test helpers can change the
traffic or its labels.  Random numbers come from ``random.Random.random``,
whose sequence Python guarantees for a given seed; normals are drawn from it
by Box-Muller, so the same seed gives byte-identical documents everywhere.

Mix (the one of acceptance criterion 4): in every run of ten instances the
first seven are random special forms (label negative) and the last three are
drawn round-robin from the four constructive bi-elliptical families (label
positive).  Each label is the family's, fixed by construction:

* real case i   -- real diagonal parameter, equal imaginary parts on the
  diagonal of B, coupling b = |xi1^2 - xi2^2| / (2|u|);
* real case ii  -- zero diagonal parameter, purely imaginary diagonal of B;
* imaginary     -- purely imaginary diagonal parameter, |b1| = |b2|,
  coupling b = |eta1 - eta2| / |v|;
* general       -- complex diagonal parameter with an entry layout that
  makes Im T vanish for every coupling; b^2 is the smallest positive root of
  the quadratic Re T(b^2) = 0 (the closed form behind ``solve_b``).

Negatives whose normalized criterion value |T| / scale^4 lies below 1e-6
(a thousand times the program's tolerance) are redrawn, and positives whose
own |T| / scale^4 exceeds 1e-12 are redrawn, so every label is unambiguous
in double precision.

Every instance is then hidden behind a rotation, a scale e^U(-0.7, 0.7), a
complex shift and two random 2x2 block unitaries.  The affine variant drops
that scale and shift and applies A -> tA + c instead, with t log-uniform on
1e-8..1e8 and |c| log-uniform on 1e-2 t..1e6 t.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random

NEGATIVE_MARGIN = 1e-6
POSITIVE_RESIDUAL = 1e-12


class Stream:
    """Normal and uniform variates built on ``random.Random.random``."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._rng.random()

    def normal(self) -> float:
        u1 = 1.0 - self._rng.random()
        u2 = self._rng.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def cnormal(self) -> complex:
        return complex(self.normal(), self.normal())

    def nonzero(self, floor: float = 0.2) -> float:
        x = self.normal()
        return math.copysign(abs(x) + floor, x)


# 2x2 complex matrices are tuples of rows.
def _mul(a, b):
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
        for i in range(2)
    )


def _adj(a):
    return tuple(tuple(a[j][i].conjugate() for j in range(2)) for i in range(2))


def _scaled(s: complex, a):
    return tuple(tuple(s * x for x in row) for row in a)


def _unitary(st: Stream):
    """Haar-random 2x2 unitary: a random SU(2) element times a phase."""
    a, b = st.cnormal(), st.cnormal()
    r = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / r, b / r
    ph = cmath.exp(1j * st.uniform(0.0, 2.0 * math.pi))
    return ((ph * a, -ph * b.conjugate()), (ph * b, ph * a.conjugate()))


def _blocks(u: float, v: float, b1: complex, b2: complex, b: float):
    """Diagonal parameter and blocks C = B* + I, D = B - I of a special form."""
    c = ((b1.conjugate() + 1.0, 0j), (complex(b), b2.conjugate() + 1.0))
    d = ((b1 - 1.0, complex(b)), (0j, b2 - 1.0))
    return complex(u, v), c, d


def _t_normalized(u: float, v: float, b1: complex, b2: complex, b: float) -> float:
    """|T| / scale^4 of a special form, scale = 1 + Frobenius norm."""
    xi1, xi2, eta1, eta2 = b1.real, b2.real, b1.imag, b2.imag
    ab1, ab2 = abs(b1) ** 2, abs(b2) ** 2
    four_p2 = ((eta1 - eta2) ** 2 + b * b) / (1.0 + v * v)
    p2 = four_p2 / 4.0
    re_t = (four_p2 - (b * b + ab1 + ab2)) ** 2 - 16.0 * u * u * p2 - 4.0 * ab1 * ab2
    im_t = 16.0 * v * (v * (eta1 + eta2) - 2.0 * u) * p2 + 4.0 * (
        xi1 * xi1 - xi2 * xi2
    ) * (eta1 - eta2)
    alpha, c, d = _blocks(u, v, b1, b2, b)
    fro2 = 4.0 * abs(alpha) ** 2 + sum(abs(x) ** 2 for m in (c, d) for r in m for x in r)
    return math.hypot(re_t, im_t) / (1.0 + math.sqrt(fro2)) ** 4


def _random_special(st: Stream):
    while True:
        params = (
            st.normal(), st.normal(), st.cnormal(), st.cnormal(),
            abs(st.normal()) + 0.2,
        )
        if _t_normalized(*params) > NEGATIVE_MARGIN:
            return params


def _real_case_i(st: Stream):
    while True:
        u = st.nonzero()
        xi1, xi2, eta = st.normal(), st.normal(), st.normal()
        b = abs(xi1 * xi1 - xi2 * xi2) / (2.0 * abs(u))
        if 0.05 < b < 20.0:
            return u, 0.0, complex(xi1, eta), complex(xi2, eta), b


def _real_case_ii(st: Stream):
    eta1, eta2 = st.normal(), st.normal()
    return 0.0, 0.0, complex(0.0, eta1), complex(0.0, eta2), abs(st.normal()) + 0.2


def _imaginary(st: Stream):
    while True:
        v = st.nonzero()
        rho = abs(st.normal()) + 0.5
        eta1, eta2 = st.uniform(-rho, rho), st.uniform(-rho, rho)
        b = abs(eta1 - eta2) / abs(v)
        if not 0.05 < b < 20.0:
            continue
        xi1 = math.copysign(math.sqrt(max(rho * rho - eta1 * eta1, 0.0)), st.uniform(-1, 1))
        xi2 = math.copysign(math.sqrt(max(rho * rho - eta2 * eta2, 0.0)), st.uniform(-1, 1))
        return 0.0, v, complex(xi1, eta1), complex(xi2, eta2), b


def _general(st: Stream):
    while True:
        u, v = st.nonzero(), st.nonzero()
        d = st.normal()
        xi = abs(st.normal()) + 0.1
        b1 = complex(xi, u / v + d)
        b2 = complex(-xi, u / v - d)
        # Re T = 0 as a quadratic qa w^2 + qb w + qc in w = b^2, with
        # k = 1 + v^2, g = (eta1 - eta2)^2, m = |b1|^2 + |b2|^2.
        k = 1.0 + v * v
        g = (b1.imag - b2.imag) ** 2
        m = abs(b1) ** 2 + abs(b2) ** 2
        q = (abs(b1) * abs(b2)) ** 2
        qa = v**4
        qb = -(2.0 * v * v * (g - k * m) + 4.0 * u * u * k)
        qc = (g - k * m) ** 2 - 4.0 * u * u * k * g - 4.0 * q * k * k
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            continue
        # Cancellation-free pair of roots.
        big = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
        roots = sorted(w for w in (big / qa, qc / big if big else 0.0) if w > 0.0)
        for w in roots:
            b = math.sqrt(w)
            if 0.05 < b < 20.0 and _t_normalized(u, v, b1, b2, b) <= POSITIVE_RESIDUAL:
                return u, v, b1, b2, b


FAMILIES = (
    ("real_case_i", _real_case_i),
    ("real_case_ii", _real_case_ii),
    ("imaginary", _imaginary),
    ("general", _general),
)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _grid(m) -> list[list[list[float]]]:
    return [[_pair(x) for x in row] for row in m]


def _instance(st: Stream, k: int, affine: bool) -> dict:
    """The k-th labelled instance; see the module docstring for the mix."""
    if k % 10 < 7:
        family, params = "random_special", _random_special(st)
    else:
        family, make = FAMILIES[(3 * (k // 10) + k % 10 - 7) % len(FAMILIES)]
        params = make(st)
    alpha, c, d = _blocks(*params)
    u1, u2 = _unitary(st), _unitary(st)
    w = cmath.exp(1j * st.uniform(0.0, math.pi))
    if affine:
        t = 10.0 ** st.uniform(-8.0, 8.0)
        shift = t * 10.0 ** st.uniform(-2.0, 6.0) * cmath.exp(
            1j * st.uniform(0.0, 2.0 * math.pi)
        )
    else:
        t = math.exp(st.uniform(-0.7, 0.7))
        shift = st.cnormal()
    w *= t
    a = w * alpha
    return {
        "label": family != "random_special",
        "family": family,
        "alpha": a + shift,
        "beta": -a + shift,
        "C": _scaled(w, _mul(_mul(_adj(u1), c), u2)),
        "D": _scaled(w, _mul(_mul(_adj(u2), d), u1)),
    }


def generate(seed: int, count: int, affine: bool = False) -> list[dict]:
    """``count`` labelled instances; the stream depends only on the seed and
    on whether the affine variant is asked for.  Each family's instances
    alternate between block and raw documents."""
    st = Stream(f"birange-bench/{'affine' if affine else 'disguised'}/{seed}")
    seen: dict[str, int] = {}
    out = []
    for k in range(count):
        inst = _instance(st, k, affine)
        n = seen.get(inst["family"], 0)
        seen[inst["family"]] = n + 1
        inst["form"] = "raw" if n % 2 else "block"
        out.append(inst)
    return out


def document(inst: dict) -> dict:
    """Input document for ``birange`` in the instance's form."""
    if inst["form"] == "block":
        return {
            "form": "block",
            "alpha": _pair(inst["alpha"]),
            "beta": _pair(inst["beta"]),
            "C": _grid(inst["C"]),
            "D": _grid(inst["D"]),
        }
    a, b = inst["alpha"], inst["beta"]
    (c00, c01), (c10, c11) = inst["C"]
    (d00, d01), (d10, d11) = inst["D"]
    rows = (
        (a, 0j, c00, c01),
        (0j, a, c10, c11),
        (d00, d01, b, 0j),
        (d10, d11, 0j, b),
    )
    return {"form": "raw", "matrix": _grid(rows)}


def digest(instances: list[dict]) -> str:
    """SHA-256 of the canonical serialization of labels and documents."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(dump({"label": inst["label"], "doc": document(inst)}))
    return h.hexdigest()


def dump(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()
