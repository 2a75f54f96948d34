"""Linear-optical transfer matrices and their factorizations.

A transfer matrix M acts on single-photon amplitude vectors as psi -> M psi,
so column j of M is the image of a photon injected into mode j. The real
two-mode element with mixing angle theta has the block

    [[cos(theta), sin(theta)], [-sin(theta), cos(theta)]]

on its mode pair, and complex elements add a single phase on the first mode of
the pair, applied after the rotation. Products compose right-to-left as usual,
so the first factor of a decomposition is the last operation applied to a
state. A ReckDecomposition is the one form in which a network is evolved
(``evolution.apply_network``) or multiplied back (``reconstruct``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .configurations import _as_configuration
from .errors import ValidationError, check_memory

UNITARY = "unitary"
ORTHOGONAL = "orthogonal"

DEFAULT_ATOL = 1e-10
EMBED_ATOL = 1e-8


class LinearNetwork:
    """A validated m x m transfer matrix, either unitary or special-orthogonal.

    Orthogonal networks are stored with a real dtype and must have determinant
    +1 unless ``allow_reflection`` is set (used for Haar sampling over the full
    orthogonal group).
    """

    def __init__(self, entries, kind: str, *, atol: float = DEFAULT_ATOL,
                 allow_reflection: bool = False):
        if kind not in (UNITARY, ORTHOGONAL):
            raise ValidationError(f"unknown network kind {kind!r}")
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValidationError(f"network matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("network matrix entries must be finite")
        if kind == ORTHOGONAL:
            if np.iscomplexobj(arr):
                if np.max(np.abs(arr.imag)) > atol:
                    raise ValidationError("orthogonal network has non-real entries")
                arr = arr.real
            arr = arr.astype(np.float64, copy=True)
        else:
            arr = arr.astype(np.complex128, copy=True)
        defect = np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])))
        if defect > atol:
            raise ValidationError(
                f"matrix is not {kind} within {atol:g} (defect {defect:.3e})"
            )
        if kind == ORTHOGONAL and not allow_reflection:
            det = float(np.linalg.det(arr))
            if abs(det - 1.0) > max(atol, 1e-8):
                raise ValidationError(
                    f"special-orthogonal network needs det +1, got {det:.6f}"
                )
        arr.setflags(write=False)
        self.entries = arr
        self.kind = kind

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def unitarity_defect(self) -> float:
        arr = self.entries
        return float(np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0]))))

    def to_json_dict(self) -> dict:
        d = {
            "m": self.dimension,
            "kind": self.kind,
            "re": [[float(x) for x in row] for row in np.real(self.entries)],
        }
        if self.kind == UNITARY:
            d["im"] = [[float(x) for x in row] for row in np.imag(self.entries)]
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "LinearNetwork":
        try:
            m = int(data["m"])
            kind = data["kind"]
            re = np.asarray(data["re"], dtype=np.float64)
            im = data.get("im")
            if im is not None:
                im = np.asarray(im, dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed network record: {exc}") from exc
        if re.shape != (m, m):
            raise ValidationError(f"network record shape {re.shape} does not match m={m}")
        if im is None:
            return cls(re, kind)
        if im.shape != (m, m):
            raise ValidationError("network record re/im shapes differ")
        return cls(re + 1j * im, kind)

    def __repr__(self):
        return f"LinearNetwork(m={self.dimension}, kind={self.kind!r})"


@dataclass(frozen=True)
class TwoModeElement:
    """One two-mode mixer: mode pair (i, j) with i < j, mixing angle, one phase.

    The embedded matrix places ``[[c, s], [-s, c]]`` on the pair and, when phi
    is nonzero, multiplies row i by exp(1j * phi) afterwards.
    """

    i: int
    j: int
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (0 <= self.i < self.j):
            raise ValidationError(f"element needs 0 <= i < j, got ({self.i}, {self.j})")

    @property
    def is_real(self) -> bool:
        return self.phi == 0.0

    def block(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        b = np.array([[c, s], [-s, c]], dtype=np.complex128)
        if self.phi:
            b[0, :] *= cmath.exp(1j * self.phi)
        return b

    def embedded(self, m: int) -> np.ndarray:
        if self.j >= m:
            raise ValidationError(f"element pair ({self.i}, {self.j}) exceeds m={m}")
        full = np.eye(m, dtype=np.complex128)
        full[np.ix_((self.i, self.j), (self.i, self.j))] = self.block()
        return full

    def to_json_dict(self) -> dict:
        return {"i": self.i, "j": self.j, "theta": float(self.theta), "phi": float(self.phi)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "TwoModeElement":
        try:
            return cls(int(data["i"]), int(data["j"]), float(data["theta"]),
                       float(data.get("phi", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed element record: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ReckDecomposition:
    """Ordered two-mode elements plus a residual diagonal of unit phases.

    The product ``elements[0] @ elements[1] @ ... @ diag(residual)`` rebuilds
    the decomposed matrix, so the residual acts first on states and
    ``elements[0]`` acts last.
    """

    elements: tuple[TwoModeElement, ...]
    residual: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.residual)

    @property
    def is_real(self) -> bool:
        return all(el.is_real for el in self.elements) and bool(
            np.all(self.residual.imag == 0.0)
        )

    def to_json_dict(self) -> dict:
        return {
            "m": self.dimension,
            "elements": [el.to_json_dict() for el in self.elements],
            "residual_re": [float(x) for x in np.real(self.residual)],
            "residual_im": [float(x) for x in np.imag(self.residual)],
        }


def _check_seed(seed: int) -> int:
    if seed is None:
        raise ValidationError("a seed is required for random network generation")
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return seed


def _check_draw_size(m: int, arrays: int, itemsize: int) -> None:
    """Refuse a network that holds ``arrays`` m x m arrays over MEMORY_LIMIT, before any is made."""
    check_memory(arrays * itemsize * m * m,
                 f"a {m}-mode network of {arrays} arrays of {m} x {m} entries")


def haar_unitary(m: int, seed: int) -> LinearNetwork:
    """Haar-distributed m x m unitary, deterministic per seed.

    QR of a complex Ginibre matrix with the diagonal phase correction
    d / |d| applied to the columns, which makes the factorization unique and
    the distribution exactly Haar. The draw holds at most eight complex
    m x m arrays: the Ginibre matrix, Q, R, the corrected Q, LinearNetwork's
    copy, its conjugate and their product, and the QR step's working copy.
    """
    if m < 1:
        raise ValidationError(f"dimension must be positive, got {m}")
    _check_draw_size(m, 8, 16)
    rng = np.random.default_rng(_check_seed(seed))
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return LinearNetwork(q * phase, UNITARY)


def haar_special_orthogonal(m: int, seed: int, *, special: bool = True) -> LinearNetwork:
    """Haar-distributed rotation matrix, deterministic per seed.

    QR of a real Gaussian matrix with sign-corrected diagonal samples the full
    orthogonal group; by default a determinant of -1 is repaired by negating
    the last column, which maps the reflection component measure-preservingly
    onto SO(m). Pass ``special=False`` for the unrepaired O(m) sample. The
    draw holds at most seven real m x m arrays: the Gaussian matrix, Q, R,
    LinearNetwork's copy, its conjugate and their product, and the QR step's
    working copy.
    """
    if m < 1:
        raise ValidationError(f"dimension must be positive, got {m}")
    _check_draw_size(m, 7, 8)
    rng = np.random.default_rng(_check_seed(seed))
    g = rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    sign = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    q = q * sign
    if special and np.linalg.det(q) < 0.0:
        q[:, -1] = -q[:, -1]
    return LinearNetwork(q, ORTHOGONAL, allow_reflection=not special)


def embed_unitary_as_orthogonal(network) -> LinearNetwork:
    """Realification U = A + iB -> [[A, -B], [B, A]] in SO(2m).

    A group homomorphism: the embedding of a product is the product of the
    embeddings. Rejects inputs that are not unitary within 1e-8. Counted as
    five real 2m x 2m arrays before any is made: the doubled block,
    LinearNetwork's copy, the product and identity of its unitarity check,
    and the m x m complex input, which is half of one.
    """
    if isinstance(network, LinearNetwork):
        u = np.asarray(network.entries, dtype=np.complex128)
    else:
        u = np.asarray(network, dtype=np.complex128)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValidationError(f"embedding needs a square matrix, got shape {u.shape}")
    _check_draw_size(2 * u.shape[0], 5, 8)
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if defect > EMBED_ATOL:
        raise ValidationError(
            f"embedding input is not unitary within {EMBED_ATOL:g} (defect {defect:.3e})"
        )
    a, b = u.real, u.imag
    doubled = np.block([[a, -b], [b, a]])
    return LinearNetwork(doubled, ORTHOGONAL, atol=max(DEFAULT_ATOL, 4.0 * defect))


def reck_decompose(network: LinearNetwork) -> ReckDecomposition:
    """Factor a network into a triangular sequence of two-mode elements.

    Entries below the diagonal are eliminated column by column, within each
    column from the last row up, each step pairing adjacent modes. At most
    m(m-1)/2 elements are emitted; trivial steps are skipped. Orthogonal input
    yields phase-free elements and a residual of exactly +1 or -1 per mode:
    the eliminated matrix is diagonal with entries within rounding of +-1,
    and each is snapped to its sign. Every elimination step leaves a positive
    pivot, so a network that needs all m(m-1)/2 steps (any Haar sample) has
    the residual diag(1, ..., 1, det). Unitary input yields one phase per
    element plus a residual diagonal of unit phases.
    """
    if not isinstance(network, LinearNetwork):
        raise ValidationError("reck_decompose expects a LinearNetwork")
    m = network.dimension
    real = network.kind == ORTHOGONAL
    w = network.entries.astype(np.float64 if real else np.complex128, copy=True)
    elements: list[TwoModeElement] = []
    for c in range(m - 1):
        for r in range(m - 1, c, -1):
            a, b = w[r - 1, c], w[r, c]
            if b == 0.0:
                continue
            if real:
                theta = math.atan2(-b, a)
                phi = 0.0
            elif a == 0.0:
                theta = math.pi / 2.0
                phi = 0.0
            else:
                rho = -b / a
                theta = math.atan(abs(rho))
                phi = -cmath.phase(rho)
            elements.append(TwoModeElement(r - 1, r, theta, phi))
            _rotate_rows(w, r - 1, r, theta, phi, inverse=True)
    diagonal = np.diagonal(w)
    residual = (np.sign(diagonal) if real else diagonal).astype(np.complex128)
    return ReckDecomposition(tuple(elements), residual)


def _rotate_rows(w: np.ndarray, i: int, j: int, theta: float, phi: float, *,
                 inverse: bool = False):
    """Left-multiply w, in place, by the (i, j, theta, phi) element or its inverse.

    Only rows i and j change, so a network of O(m^2) elements costs O(m^3).
    """
    c, s = math.cos(theta), math.sin(theta)
    if inverse:
        ph = cmath.exp(-1j * phi) if phi else 1.0
        (a, b), (p, q) = (ph * c, -s), (ph * s, c)
    else:
        ph = cmath.exp(1j * phi) if phi else 1.0
        (a, b), (p, q) = (ph * c, ph * s), (-s, c)
    row_i = w[i].copy()
    row_j = w[j].copy()
    w[i] = a * row_i + b * row_j
    w[j] = p * row_i + q * row_j


def reconstruct(decomposition: ReckDecomposition) -> LinearNetwork:
    """Multiply a decomposition back into a network.

    The factors multiply in element order with the residual diagonal
    rightmost. The result is orthogonal when every entry is real and unitary
    otherwise.
    """
    if not isinstance(decomposition, ReckDecomposition):
        raise ValidationError("reconstruct expects a ReckDecomposition")
    m = decomposition.dimension
    if m < 1:
        raise ValidationError(f"dimension must be positive, got {m}")
    matrix = np.diag(decomposition.residual.astype(np.complex128))
    for el in reversed(decomposition.elements):
        if el.j >= m:
            raise ValidationError(f"element pair ({el.i}, {el.j}) exceeds m={m}")
        _rotate_rows(matrix, el.i, el.j, el.theta, el.phi)
    if np.all(matrix.imag == 0.0):
        return LinearNetwork(matrix.real, ORTHOGONAL, allow_reflection=True)
    return LinearNetwork(matrix, UNITARY)


def scattering_submatrix(network: LinearNetwork, input_config, output_config) -> np.ndarray:
    """The n x n matrix whose permanent gives the transition amplitude.

    Row i of the network is repeated once per output photon in mode i and
    column j once per input photon in mode j, so rows index the output
    configuration and columns the input configuration.
    """
    t = _as_configuration(input_config)
    s = _as_configuration(output_config)
    m = network.dimension
    if t.modes != m or s.modes != m:
        raise ValidationError(
            f"configurations over {t.modes}/{s.modes} modes do not match m={m}"
        )
    if t.total != s.total:
        raise ValidationError(
            f"photon totals differ: input {t.total}, output {s.total}"
        )
    rows = np.repeat(np.arange(m), s.occupations)
    cols = np.repeat(np.arange(m), t.occupations)
    return network.entries[np.ix_(rows, cols)].copy()
