"""Bank placement for the accelerator's n x n coefficient memory.

N coefficients live in n = sqrt(N) banks of depth n, where square_side
checks N: a power of two, even log2, 16 <= N <= MAX_N. Row r is rotated
right by r banks:

    (address, bank) = (i // n, (i mod n + i // n) mod n)

so a coefficient never shares a bank with any partner at power-of-two
distance, which is exactly the set of butterfly pairings. The plain
row-major placement ("sequential"), the same rule without the rotation,
is kept around as the counterexample the detectors must flag.
"""

import json
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from nttsim.ntt import check_max_n

# row r is rotated right by rotation * r banks (see LayoutMap)
_ROTATION = {"shifted": 1, "sequential": 0}
KINDS = tuple(_ROTATION)


def square_side(n_total: int) -> int:
    bits = n_total.bit_length() - 1
    if n_total < 16 or n_total & (n_total - 1) or bits % 2:
        raise ValueError(f"N={n_total} unsupported: the square memory needs "
                         "a power of two with even log2 and N >= 16")
    check_max_n(n_total)
    return 1 << (bits // 2)


def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"unknown layout kind {kind!r}; expected {KINDS}")
    return kind


def place(i: int, n: int) -> Tuple[int, int]:
    """Shifted placement of coefficient i into (address, bank)."""
    return make_layout(n * n).place(i)


def coefficient_at(addr: int, bank: int, n: int) -> int:
    """Inverse of place: which coefficient sits in (address, bank)."""
    return make_layout(n * n).coefficient_at(addr, bank)


@dataclass(frozen=True)
class LayoutMap:
    """Bijection between coefficient indices and (address, bank) cells:
    (address, bank) = (i // n, (i mod n + r * (i // n)) mod n), where the
    rotation r is 1 for the shifted kind and 0 for the sequential one."""

    N: int
    n: int
    kind: str = "shifted"

    @property
    def rotation(self) -> int:
        return _ROTATION[self.kind]

    def place(self, i: int) -> Tuple[int, int]:
        n = self.n
        if not 0 <= i < self.N:
            raise ValueError(f"coefficient index {i} outside [0, {self.N})")
        return i // n, (i + self.rotation * (i // n)) % n

    def coefficient_at(self, addr: int, bank: int) -> int:
        n = self.n
        if not (0 <= addr < n and 0 <= bank < n):
            raise ValueError(f"cell ({addr}, {bank}) outside the {n}x{n} memory")
        return addr * n + (bank - self.rotation * addr) % n

    def banks_of(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized bank numbers for an index array, in its dtype; n is
        a power of two, so // and % are a shift and a mask."""
        indices = np.asarray(indices)
        shift = self.n.bit_length() - 1
        return (indices + self.rotation * (indices >> shift)) & (self.n - 1)

    def cells(self, indices: np.ndarray) -> np.ndarray:
        """Flat memory cells (bank * n + address) for an index array, in its dtype."""
        shift = self.n.bit_length() - 1
        return self.banks_of(indices) << shift | np.asarray(indices) >> shift


def make_layout(n_total: int, kind: str = "shifted") -> LayoutMap:
    return LayoutMap(kind=check_kind(kind), N=n_total, n=square_side(n_total))


# one row per violation: the pair (i, j = i + 2^t) shares bank `bank`
VIOLATION_DTYPE = np.dtype([(name, np.int64) for name in ("i", "j", "bank", "t")])

# a violation's JSON line, as json.dumps(..., sort_keys=True) writes it
_VIOLATION_LINE = '{"bank": %d, "i": %d, "j": %d, "t": %d}'


@dataclass
class ConflictReport:
    """Outcome of the exhaustive power-of-two-distance bank check.

    violations is one structured array of VIOLATION_DTYPE, ordered by t,
    then by i: violations["i"] is a column, and violations[k]["i"] a field
    of one finding."""

    N: int
    kind: str
    pairs_checked: int
    violations: np.ndarray = field(default_factory=lambda: np.empty(0, VIOLATION_DTYPE))

    def to_json_lines(self) -> str:
        v = self.violations
        columns = (v[name].tolist() for name in ("bank", "i", "j", "t"))
        lines = list(map(_VIOLATION_LINE.__mod__, zip(*columns)))
        lines.append(
            json.dumps(
                {
                    "N": self.N,
                    "layout": self.kind,
                    "pairs_checked": self.pairs_checked,
                    "violations": len(v),
                },
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"


def verify_conflict_free(n_total: int, kind: str = "shifted") -> ConflictReport:
    """Check bank(i) != bank(i +/- 2^t) for every i and every t.

    Violations are report content, not errors; the shifted layout is
    expected to produce none for any supported N. Each distance's
    findings fill one slice of the report's structured array.
    """
    layout = make_layout(n_total, kind)
    banks = layout.banks_of(np.arange(n_total, dtype=np.int64))
    dists = [1 << t for t in range(n_total.bit_length() - 1)]
    same = [np.flatnonzero(banks[:-dist] == banks[dist:]) for dist in dists]
    violations = np.empty(sum(map(len, same)), dtype=VIOLATION_DTYPE)
    start = 0
    for t, (dist, i) in enumerate(zip(dists, same)):
        rows = violations[start:start + len(i)]
        rows["i"] = i
        rows["j"] = i + dist
        rows["bank"] = banks[i]
        rows["t"] = t
        start += len(i)
    return ConflictReport(
        N=n_total,
        kind=kind,
        pairs_checked=sum(n_total - dist for dist in dists),
        violations=violations,
    )
