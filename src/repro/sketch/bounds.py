"""Provable divergence lower bounds from per-tuple projection sketches.

A tuple's sketch record stores four things about its (f32-exact) sparse
probability vector ``v``:

* ``fp`` — the 64-bit hashed-support fingerprint.  A query item whose
  fingerprint bit is *clear* in ``fp`` is certified absent from ``v``'s
  support (``v_i = 0``); a set bit says nothing (hash collisions).
* ``mass`` — ``sum_i v_i`` (an all-ones projection).
* ``proj`` — signed Rademacher projections ``s_j(v) = <r_j, v>`` with
  ``r_j in {-1, +1}^d``.
* ``nnz`` — the support size.

From these we derive, per divergence, a **lower bound** on the true
divergence from any query vector ``q``:

l1 (three bounds, take the max)
    * *deficit*: ``sum_{i clear} q_i <= sum_i |q_i - v_i|`` — every
      certified-absent item contributes its full ``q_i``;
    * *Hölder / projection*: ``|s_j(q) - s_j(v)| = |<r_j, q - v>|
      <= ||r_j||_inf * ||q - v||_1 = l1``;
    * *mass*: ``|mass(q) - mass(v)| = |<1, q - v>| <= l1``.

l2 (two bounds, take the max)
    * *deficit*: ``sqrt(sum_{i clear} q_i^2) <= l2``;
    * *Cauchy–Schwarz*: ``l1 <= sqrt(|supp(q) ∪ supp(v)|) * l2``, so
      ``l2 >= l1_lb / sqrt(nnz_q + nnz_v)``.

KL (termwise, against the epsilon-floored :func:`~repro.core.divergence.sparse_kl`)
    ``kl_hat(q, v) = sum_{i in supp(q)} q_i log(q_i / max(v_i, eps))``.
    For a *clear* item ``v_i = 0`` exactly, so its term is exactly
    ``q_i log(q_i / eps)``; for a *set* item ``max(v_i, eps) <= 1``
    bounds the term below by ``q_i log(q_i)``.  Summing gives a sound
    (possibly negative) lower bound.

    The Pinsker route the literature suggests — ``KL >= l1^2 / 2`` — is
    **unsound** here: ``kl_hat`` is the paper's epsilon-floored sum over
    ``q``'s support only, and for mass-deficient UDAs it can be far
    below the true KL (even negative: ``q = {a: 0.5}``,
    ``v = {a: 1.0}`` gives ``kl_hat = -0.35`` while ``l1 = 0.5``).  The
    property suite (``tests/sketch/test_bounds_property.py``) rejects
    any bound that can exceed the verified divergence, which is exactly
    why exact mode uses the termwise bound above instead.  See
    ``docs/sketch-prefilter.md`` for the full derivations.

symmetric KL
    ``0.5 * (kl_hat(q,v) + kl_hat(v,q))``.  The reverse term is bounded
    below by ``-(mass_q + nnz_v * eps) / e`` (each summand
    ``x log(x/c)`` is minimized at ``x = c/e`` with value ``-c/e``),
    giving a weak but sound combined bound.

Floating-point safety: every stored f32 quantity carries an absolute
slack (:data:`PROJECTION_SLACK`), and the final bound is shaved by a
relative + absolute margin (:func:`shave`) larger than any admissible
difference in summation order between the bound computation and the
exact divergence kernels.  Exact mode then prunes with a *strict*
comparison, so a pruned tuple provably cannot qualify.
"""

from __future__ import annotations

import numpy as np

from repro.core.divergence import KL_EPSILON
from repro.core.exceptions import QueryError

from repro.sketch.minhash import (
    fingerprint_bits,
    fingerprints,
    project,
    projections,
    row_sums,
)

#: Absolute slack absorbing f32 storage rounding of mass/projection
#: coordinates (|s| <= 1, so the cast error is < 2^-24 ~ 6e-8).
PROJECTION_SLACK = 1e-6

#: Relative / absolute shave applied to every final bound, absorbing
#: summation-order differences against the exact divergence kernels.
_REL_SHAVE = 1e-9
_ABS_SHAVE = 1e-12

#: Divergences the sketch can lower-bound (the sparse registry's keys).
BOUNDED_DIVERGENCES = ("l1", "l2", "kl", "symmetric_kl")


def record_dtype(num_projections: int) -> np.dtype:
    """The fixed-width on-page layout of one projection-sketch record."""
    return np.dtype(
        [
            ("tid", "<u4"),
            ("nnz", "<u2"),
            ("pad", "<u2"),
            ("mass", "<f4"),
            ("fp", "<u8"),
            ("proj", "<f4", (num_projections,)),
        ]
    )


def encode_records(
    tids: np.ndarray,
    items: np.ndarray,
    probs: np.ndarray,
    offsets: np.ndarray,
    num_projections: int,
    seed: int,
) -> np.ndarray:
    """The projection-sketch records of N tuples given as CSR rows.

    Tuple ``tids[i]`` holds ``items[offsets[i]:offsets[i + 1]]`` and the
    matching ``probs``.  Returns a structured array of
    :func:`record_dtype`; ``.tobytes()`` is the on-page record stream.
    Every field is one segmented reduction over the rows (an empty row
    gets nnz 0, mass 0, fp 0 and zero projections); ``mass`` equals each
    row's ``ndarray.sum`` bit for bit (:func:`~repro.sketch.minhash.row_sums`).
    """
    items = np.asarray(items, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    records = np.zeros(len(offsets) - 1, dtype=record_dtype(num_projections))
    records["tid"] = tids
    records["nnz"] = np.diff(offsets)
    records["mass"] = row_sums(probs, offsets)
    records["fp"] = fingerprints(items, offsets, seed)
    records["proj"] = projections(items, probs, offsets, num_projections, seed)
    return records


def shave(bounds: np.ndarray) -> np.ndarray:
    """Conservatively shrink bounds below any float-roundoff ambiguity."""
    return bounds - (_REL_SHAVE * np.abs(bounds) + _ABS_SHAVE)


class QuerySketch:
    """Per-query precomputation shared across every record comparison."""

    def __init__(
        self,
        items: np.ndarray,
        probs: np.ndarray,
        divergence: str,
        num_projections: int,
        seed: int,
    ) -> None:
        if divergence not in BOUNDED_DIVERGENCES:
            raise QueryError(
                f"sketch bounds support {BOUNDED_DIVERGENCES}; "
                f"got {divergence!r}"
            )
        self.divergence = divergence
        items = np.asarray(items, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=np.float64)
        self.bits = fingerprint_bits(items, seed)
        self.mass = float(self.probs.sum())
        self.nnz = len(items)
        self.proj = project(items, self.probs, num_projections, seed)
        if divergence in ("kl", "symmetric_kl"):
            log_q = np.log(self.probs)
            #: Term of a certified-absent item: q log(q / eps), exact.
            self.term_absent = self.probs * (log_q - np.log(KL_EPSILON))
            #: Floor for a possibly-present item: q log(q / 1) = q log q.
            self.term_present = self.probs * log_q

    def lower_bounds(self, records: np.ndarray) -> np.ndarray:
        """Sound lower bounds on divergence(q, v) for each record.

        ``records`` is a structured array with :func:`record_dtype`
        fields.  The returned array is safe to compare *strictly*
        against the exact divergence the verification step computes:
        ``lb > x`` implies ``divergence > x``.
        """
        if len(records) == 0:
            return np.zeros(0)
        clear = (records["fp"][:, None] & self.bits[None, :]) == 0
        divergence = self.divergence
        if divergence in ("kl", "symmetric_kl"):
            forward = clear @ self.term_absent + (~clear) @ self.term_present
            if divergence == "kl":
                return shave(forward)
            reverse_floor = -(
                self.mass + records["nnz"].astype(np.float64) * KL_EPSILON
            ) / np.e
            return shave(0.5 * (forward + reverse_floor))
        deficit = clear @ self.probs
        projections = np.abs(
            self.proj[None, :] - records["proj"].astype(np.float64)
        ).max(axis=1)
        mass_gap = np.abs(self.mass - records["mass"].astype(np.float64))
        l1 = np.maximum(
            deficit,
            np.maximum(projections, mass_gap) - PROJECTION_SLACK,
        )
        l1 = np.maximum(l1, 0.0)
        if divergence == "l1":
            return shave(l1)
        deficit_l2 = np.sqrt(clear @ np.square(self.probs))
        union = self.nnz + records["nnz"].astype(np.float64)
        cauchy_schwarz = np.where(union > 0.0, l1 / np.sqrt(union), 0.0)
        return shave(np.maximum(deficit_l2, cauchy_schwarz))


def lower_bound(
    q_items: np.ndarray,
    q_probs: np.ndarray,
    v_items: np.ndarray,
    v_probs: np.ndarray,
    divergence: str,
    num_projections: int = 2,
    seed: int = 0,
) -> float:
    """One-shot bound for a pair of sparse vectors (tests and docs).

    Builds ``v``'s sketch record and ``q``'s query sketch, then returns
    the same bound the paged scan would produce — the soundness
    contract ``lower_bound(q, v) <= divergence(q, v)`` is property
    tested against every registered divergence.
    """
    record = encode_records(
        [0], v_items, v_probs, [0, len(v_items)], num_projections, seed
    )
    sketch = QuerySketch(q_items, q_probs, divergence, num_projections, seed)
    return float(sketch.lower_bounds(record)[0])
