"""Stage 2: the MILP transformation of the EXP-3D problem (Section 3.2).

For a pair of canonical relations ``T1, T2`` with an initial tuple mapping the
transformation introduces, per Algorithm 1:

* a binary ``x_t`` per canonical tuple -- the tuple is a provenance-based
  explanation (Definition 2.5: it maps to no tuple on the other side);
* a binary ``z_ij`` per initial tuple match -- the match is selected into the
  evidence mapping;
* per *anchor* tuple (the side whose tuples may have degree > 1 in a valid
  mapping -- the right side for ``<=``/equivalence matches, the left side for
  ``>=``), a binary ``y_t`` ("impact unchanged") and a continuous refined
  impact ``I*_t``.

The formulation follows Equations (7)-(13) with two strengthenings that do not
change the optimum but make the program far easier to solve than a literal
big-M transcription:

1. **Unmatched tuples are provenance explanations.**  Definition 2.5 ties the
   two directly, so we add ``x_t >= 1 - sum_j z_tj`` (and ``z_ij <= 1 - x_t``),
   which makes ``x_t`` exactly "tuple t has no selected match".
2. **Value corrections are attributed to anchor tuples.**  Within a component
   anchored at ``t_j``, balancing the impacts requires at most one correction,
   and correcting the anchor (``I*_j = sum of the selected neighbours' original
   impacts``) is always optimal.  Non-anchor tuples therefore keep their
   original impacts, and the component impact-equality constraint
   (Equations (11)-(12)) becomes the *linear* equation
   ``sum_i z_ij * I_i = I*_j`` -- the products involve constants only.

The objective is Equation (13): per-tuple log-probabilities (Equation (8),
using the semantically consistent reading of Equation (3)) plus per-match
log-probabilities (Equation (9)).

:meth:`MILPTransformation.build` assembles the model as index and coefficient
arrays; :meth:`MILPTransformation.build_reference`, its oracle twin, builds the
same model one ``LinearExpression`` row at a time.  Both export bit-identical
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from repro.core.canonical import CanonicalRelation
from repro.core.explanations import ExplanationSet, ProvenanceExplanation, ValueExplanation
from repro.core.scoring import MatchLogProbability, Priors, anchor_side
from repro.graphs.bipartite import Side
from repro.matching.attribute_match import SemanticRelation
from repro.matching.tuple_matching import TupleMapping, TupleMatch
from repro.solver.backends import MILPSolution, MILPSolver, default_solver
from repro.solver.linearize import add_equality_indicator
from repro.solver.model import ConstraintSense, LinearExpression, MILPModel, ObjectiveSense, linear_sum

_IMPACT_TOLERANCE = 1e-6


class NonFiniteImpactError(ValueError):
    """A canonical tuple's impact is NaN or infinite.

    The aligner and Stage 1 compare non-finite values, but Stage 2 sums,
    bounds and balances impacts, which means nothing for NaN or an infinity.
    The error names the tuple; the service answers it with a 400.
    """

    def __init__(self, side: Side, key: str, impact: float):
        self.side = side
        self.key = key
        self.impact = impact
        super().__init__(
            f"canonical tuple {key!r} on the {side.name.lower()} side has impact "
            f"{impact!r}; Stage 2 needs finite impacts"
        )


@dataclass
class _AnchorVariables:
    """Variables of an anchor-side tuple."""

    removed: object          # x_t
    unchanged: object        # y_t (kept with original impact)
    refined_impact: object   # I*_t


class MILPTransformation:
    """Builds and solves the MILP for one (sub-)problem of EXP-3D."""

    def __init__(
        self,
        canonical_left: CanonicalRelation,
        canonical_right: CanonicalRelation,
        mapping: TupleMapping,
        relation: SemanticRelation,
        priors: Priors = Priors(),
        *,
        solver: MILPSolver | None = None,
        name: str = "exp3d",
    ):
        self.canonical_left = canonical_left
        self.canonical_right = canonical_right
        self.mapping = mapping
        self.relation = relation
        self.priors = priors
        self.solver = solver or default_solver()
        self.name = name

        for canonical in (canonical_left, canonical_right):
            for canonical_tuple in canonical:
                if not math.isfinite(canonical_tuple.impact):
                    raise NonFiniteImpactError(
                        canonical.side, canonical_tuple.key, canonical_tuple.impact
                    )

        # Orientation is fixed by the relation: resolve it once, not per match.
        self._anchor_side = anchor_side(relation)
        if self._anchor_side is Side.LEFT:
            self._anchor_relation, self._other_relation = canonical_left, canonical_right
            self._anchor_key_of = attrgetter("left_key")
            self._other_key_of = attrgetter("right_key")
            self._anchor_limited = relation.left_degree_limited
        else:
            self._anchor_relation, self._other_relation = canonical_right, canonical_left
            self._anchor_key_of = attrgetter("right_key")
            self._other_key_of = attrgetter("left_key")
            self._anchor_limited = relation.right_degree_limited

        self._model: MILPModel | None = None
        # Columns read by decode(): x per tuple (non-anchor, then anchor), I* per
        # anchor, z per usable match (the mapping rows in ``self._usable``).
        self._removed_columns = np.zeros(0, dtype=np.int64)
        self._refined_columns = np.zeros(0, dtype=np.int64)
        self._match_columns = np.zeros(0, dtype=np.int64)
        self._usable = np.zeros(0, dtype=np.intp)

    # -- orientation ------------------------------------------------------------------
    def anchor_side(self) -> Side:
        """The side whose tuples may have degree > 1 (component anchors)."""
        return self._anchor_side

    def _usable_matches(self) -> list[TupleMatch]:
        """Matches whose both endpoints lie in this (sub-)problem."""
        return [
            match
            for match in self.mapping
            if self._anchor_key_of(match) in self._anchor_relation
            and self._other_key_of(match) in self._other_relation
        ]

    # -- model construction --------------------------------------------------------------
    def build(self) -> MILPModel:
        """Construct the MILP (Algorithm 1, lines 1-10) from index arrays.

        Emits :meth:`build_reference`'s columns, rows and coefficients in the
        same order, so both export bit-identical arrays:

        * columns: ``x`` per non-anchor tuple; ``x, y, I*`` per anchor tuple;
          ``z`` per usable match (relation and mapping order);
        * rows: per anchor, ``y + x <= 1`` and the two halves of Equation (7);
          per match, ``z + x_anchor <= 1`` and ``z + x_other <= 1``; per
          non-anchor then anchor tuple, ``x = 1`` (no usable match) or
          ``x + sum z >= 1``; ``sum z <= 1`` per non-anchor key with several
          matches, then per such anchor key when the relation limits the
          anchor degree (first-appearance order); per anchor, the balance
          ``sum I_other z - I* = 0``.

        Scalars whose rounding depends on the order of operations (each
        anchor's neighbour-impact sum, bounds and big-M, and the objective
        constant) are computed with the reference's Python arithmetic in the
        reference's order.
        """
        model = MILPModel(self.name)
        priors = self.priors
        a = priors.removed
        u = priors.kept_unchanged
        v = priors.kept_changed
        anchors = self._anchor_relation.tuples
        others = self._other_relation.tuples
        num_anchors, num_others = len(anchors), len(others)

        # Usable matches (mapping rows) and their endpoints' positions, in mapping order.
        anchor_at = {canonical_tuple.key: i for i, canonical_tuple in enumerate(anchors)}
        other_at = {canonical_tuple.key: j for j, canonical_tuple in enumerate(others)}
        if self._anchor_side is Side.LEFT:
            anchor_of, other_of = self.mapping.positions(anchor_at, other_at)
        else:
            other_of, anchor_of = self.mapping.positions(other_at, anchor_at)
        usable = np.flatnonzero((anchor_of >= 0) & (other_of >= 0))
        num_matches = len(usable)
        match_anchor = anchor_of[usable]
        match_other = other_of[usable]

        # -- columns ----------------------------------------------------------------------
        other_x = np.arange(num_others)
        anchor_x = num_others + 3 * np.arange(num_anchors)
        anchor_y = anchor_x + 1
        refined = anchor_x + 2
        selected = num_others + 3 * num_anchors + np.arange(num_matches)

        # Per anchor: I* bounds and the big-M of Equation (7).
        other_impacts = [canonical_tuple.impact for canonical_tuple in others]
        neighbour_impacts: list[list] = [[] for _ in anchors]
        for i, j in zip(match_anchor.tolist(), match_other.tolist()):
            neighbour_impacts[i].append(other_impacts[j])
        refined_lower, refined_upper, big_m, kept_upper, kept_lower = [], [], [], [], []
        for canonical_tuple, impacts in zip(anchors, neighbour_impacts):
            impact = canonical_tuple.impact
            upper = max(impact, sum(impacts), 0.0)
            lower = min(impact, 0.0)
            m = (upper - lower) + abs(impact) + 1.0
            refined_lower.append(lower)
            refined_upper.append(upper)
            big_m.append(m)
            kept_upper.append(impact + m)
            kept_lower.append(impact - m)

        num_columns = num_others + 3 * num_anchors + num_matches
        lower_bounds = np.zeros(num_columns)
        upper_bounds = np.ones(num_columns)
        integral = np.ones(num_columns, dtype=np.int8)
        lower_bounds[refined] = refined_lower
        upper_bounds[refined] = refined_upper
        integral[refined] = 0
        model.add_columns(lower_bounds, upper_bounds, integral)

        # -- objective: Equation (8) per tuple, Equation (9) per match ---------------------
        # The reference's per-term constants (``0.0 * (a - u) + u`` and the like)
        # are exactly u, v and log(1 - p): all three are strictly negative, as the
        # priors and probabilities are clamped below 1.
        terms = [MatchLogProbability.of(p) for p in self.mapping.probabilities[usable].tolist()]
        constant = 0.0
        for term in chain(
            repeat(u, num_others), repeat(v, num_anchors), (t.rejected for t in terms)
        ):
            constant += term
        model.set_objective_terms(
            np.concatenate([other_x, np.column_stack([anchor_x, anchor_y]).ravel(), selected]),
            np.concatenate([
                np.full(num_others, a - u),
                np.tile([a - v, u - v], num_anchors),
                np.array([t.selected - t.rejected for t in terms], dtype=float),
            ]),
            constant,
            ObjectiveSense.MAXIMIZE,
        )

        # -- rows (each block's row indices start at 0) -------------------------------------
        anchor_rows = np.arange(num_anchors)
        ones = np.ones(num_anchors)
        big_m = np.array(big_m, dtype=float)
        # y + x <= 1; Equation (7): I* + M y <= I + M and I* - M y >= I - M.
        model.add_rows(
            np.concatenate([np.repeat(3 * anchor_rows, 2), np.repeat(3 * anchor_rows + 1, 2),
                            np.repeat(3 * anchor_rows + 2, 2)]),
            np.concatenate([np.column_stack([anchor_y, anchor_x]).ravel(),
                            np.column_stack([refined, anchor_y]).ravel(),
                            np.column_stack([refined, anchor_y]).ravel()]),
            np.concatenate([np.ones(2 * num_anchors),
                            np.column_stack([ones, big_m]).ravel(),
                            np.column_stack([ones, -big_m]).ravel()]),
            np.column_stack([np.full(num_anchors, -np.inf), np.full(num_anchors, -np.inf),
                             kept_lower]).ravel(),
            np.column_stack([ones, kept_upper, np.full(num_anchors, np.inf)]).ravel(),
        )
        # A selected match requires both endpoints to be kept (Equation 9).
        match_rows = 2 * np.arange(num_matches)
        model.add_rows(
            np.concatenate([match_rows, match_rows, match_rows + 1, match_rows + 1]),
            np.concatenate([selected, anchor_x[match_anchor], selected, other_x[match_other]]),
            np.ones(4 * num_matches),
            np.full(2 * num_matches, -np.inf),
            np.ones(2 * num_matches),
        )
        # Definition 2.5: a kept tuple must have a selected match.
        degree = np.concatenate([
            np.bincount(match_other, minlength=num_others),
            np.bincount(match_anchor, minlength=num_anchors),
        ])
        model.add_rows(
            np.concatenate([np.arange(num_others + num_anchors), match_other,
                            num_others + match_anchor]),
            np.concatenate([other_x, anchor_x, selected, selected]),
            np.ones(num_others + num_anchors + 2 * num_matches),
            np.ones(num_others + num_anchors),
            np.where(degree == 0, 1.0, np.inf),
        )
        # Equation (10): valid-mapping cardinality.  The non-anchor side is
        # degree-limited by construction of the anchor choice.
        for endpoint in (match_other, match_anchor) if self._anchor_limited else (match_other,):
            rows, count = _degree_rows(endpoint)
            in_row = rows >= 0
            model.add_rows(
                rows[in_row], selected[in_row], np.ones(int(in_row.sum())),
                np.full(count, -np.inf), np.ones(count),
            )
        # Equations (11)-(12): component impact equality.  The reference's
        # coefficient ``0.0 + 1.0 * I`` is ``float(I)`` but for -0.0, which
        # export drops as a zero either way.
        model.add_rows(
            np.concatenate([match_anchor, anchor_rows]),
            np.concatenate([selected, refined]),
            np.concatenate([np.array(other_impacts, dtype=float)[match_other],
                            np.full(num_anchors, -1.0)]),
            np.zeros(num_anchors),
            np.zeros(num_anchors),
        )

        self._removed_columns = np.concatenate([other_x, anchor_x])
        self._refined_columns = refined
        self._match_columns = selected
        self._usable = usable
        self._model = model
        return model

    def build_reference(self) -> MILPModel:
        """The oracle twin of :meth:`build`: the model one row at a time.

        Builds every row as a ``LinearExpression`` through the per-name
        model API.  Used by tests and ``benchmarks/bench_perf_pipeline.py``
        to check that :meth:`build` exports bit-identical arrays; the
        returned model is not kept for solving.
        """
        model = MILPModel(self.name)
        priors = self.priors
        a = priors.removed
        u = priors.kept_unchanged
        v = priors.kept_changed

        anchor_side = self._anchor_side
        other_side = anchor_side.other()
        anchor_relation = self._anchor_relation
        other_relation = self._other_relation
        matches = self._usable_matches()
        removed_vars: dict[tuple[str, str], object] = {}
        anchor_vars: dict[str, _AnchorVariables] = {}
        match_vars: dict[tuple[str, str], object] = {}

        matches_by_anchor: dict[str, list[TupleMatch]] = {}
        matches_by_other: dict[str, list[TupleMatch]] = {}
        for match in matches:
            matches_by_anchor.setdefault(self._anchor_key_of(match), []).append(match)
            matches_by_other.setdefault(self._other_key_of(match), []).append(match)

        objective = LinearExpression()

        # -- non-anchor tuples: only x_t ----------------------------------------------
        for canonical_tuple in other_relation:
            tag = f"{other_side.value}[{canonical_tuple.key}]"
            removed = model.add_binary(f"x_{tag}")
            removed_vars[(other_side.value, canonical_tuple.key)] = removed
            # Equation (8) with the impact fixed: kept tuples keep their impact.
            objective += u + (a - u) * removed

        # -- anchor tuples: x_t, y_t, I*_t ---------------------------------------------
        for canonical_tuple in anchor_relation:
            tag = f"{anchor_side.value}[{canonical_tuple.key}]"
            removed = model.add_binary(f"x_{tag}")
            unchanged = model.add_binary(f"y_{tag}")
            neighbour_impact = sum(
                other_relation[self._other_key_of(match)].impact
                for match in matches_by_anchor.get(canonical_tuple.key, [])
            )
            upper = max(canonical_tuple.impact, neighbour_impact, 0.0)
            lower = min(canonical_tuple.impact, 0.0)
            refined = model.add_continuous(f"istar_{tag}", lower=lower, upper=upper)

            removed_vars[(anchor_side.value, canonical_tuple.key)] = removed
            anchor_vars[canonical_tuple.key] = _AnchorVariables(removed, unchanged, refined)

            # y is only meaningful for kept tuples.
            model.add_constraint(
                unchanged + removed, ConstraintSense.LESS_EQUAL, 1.0, f"yx_{tag}"
            )
            # Equation (7): y = 1 forces I* = I.
            add_equality_indicator(
                model,
                unchanged,
                refined,
                canonical_tuple.impact,
                big_m=(upper - lower) + abs(canonical_tuple.impact) + 1.0,
                name=f"eq_{tag}",
            )
            # Equation (8): a removed tuple scores `a`, a kept unchanged tuple `u`,
            # a kept corrected tuple `v`.
            objective += v + (a - v) * removed + (u - v) * unchanged

        # -- matches: z_ij --------------------------------------------------------------
        for match in matches:
            anchor_key = self._anchor_key_of(match)
            other_key = self._other_key_of(match)
            tag = f"{match.left_key}|{match.right_key}"
            selected = model.add_binary(f"z_{tag}")
            match_vars[match.pair] = selected

            # A selected match requires both endpoints to be kept (Equation 9).
            model.add_constraint(
                selected + removed_vars[(anchor_side.value, anchor_key)],
                ConstraintSense.LESS_EQUAL,
                1.0,
                f"keep_a_{tag}",
            )
            model.add_constraint(
                selected + removed_vars[(other_side.value, other_key)],
                ConstraintSense.LESS_EQUAL,
                1.0,
                f"keep_o_{tag}",
            )
            terms = MatchLogProbability.of(match.probability)
            objective += terms.rejected + (terms.selected - terms.rejected) * selected

        # -- Definition 2.5: a kept tuple must have a selected match ----------------------
        for relation, side, by_key in (
            (other_relation, other_side, matches_by_other),
            (anchor_relation, anchor_side, matches_by_anchor),
        ):
            for canonical_tuple in relation:
                tag = f"{side.value}[{canonical_tuple.key}]"
                removed = removed_vars[(side.value, canonical_tuple.key)]
                incident = by_key.get(canonical_tuple.key, [])
                if not incident:
                    model.add_constraint(removed, ConstraintSense.EQUAL, 1.0, f"forced_{tag}")
                    continue
                gate = LinearExpression.from_variable(removed)
                for match in incident:
                    gate += match_vars[match.pair]
                model.add_constraint(gate, ConstraintSense.GREATER_EQUAL, 1.0, f"matched_{tag}")

        # -- Equation (10): valid-mapping cardinality -------------------------------------
        # The non-anchor side is degree-limited by construction of the anchor choice.
        limited = {"o": matches_by_other}
        if self._anchor_limited:
            limited["a"] = matches_by_anchor
        for label, by_key in limited.items():
            for key, incident in by_key.items():
                if len(incident) > 1:
                    expr = linear_sum(match_vars[match.pair] for match in incident)
                    model.add_constraint(expr, ConstraintSense.LESS_EQUAL, 1.0, f"deg_{label}_{key}")

        # -- Equations (11)-(12): component impact equality --------------------------------
        for canonical_tuple in anchor_relation:
            incident = matches_by_anchor.get(canonical_tuple.key, [])
            variables = anchor_vars[canonical_tuple.key]
            balance = linear_sum(
                other_relation[self._other_key_of(match)].impact * match_vars[match.pair]
                for match in incident
            )
            balance -= variables.refined_impact
            model.add_constraint(
                balance, ConstraintSense.EQUAL, 0.0, f"balance_{anchor_side.value}[{canonical_tuple.key}]"
            )

        model.set_objective(objective, ObjectiveSense.MAXIMIZE)
        return model

    # -- solving and decoding ---------------------------------------------------------------
    def solve(self) -> ExplanationSet:
        """Build (if needed), solve, and decode the explanation set (Algorithm 1)."""
        if not len(self.canonical_left) and not len(self.canonical_right):
            return ExplanationSet()
        model = self._model or self.build()
        solution = self.solver.solve(model)
        return self.decode(solution)

    def decode(self, solution: MILPSolution) -> ExplanationSet:
        """DecodeVariables: translate the solved assignment into explanations.

        Reads the solution vector through the columns :meth:`build` recorded.
        """
        x = solution.x
        anchor_side = self._anchor_side
        anchors = self._anchor_relation.tuples
        others = self._other_relation.tuples
        removed = np.round(x[self._removed_columns]) >= 1
        removed_others, removed_anchors = removed[: len(others)], removed[len(others):]

        provenance = [
            ProvenanceExplanation(anchor_side.other(), others[position].key)
            for position in np.flatnonzero(removed_others).tolist()
        ]
        provenance += [
            ProvenanceExplanation(anchor_side, anchors[position].key)
            for position in np.flatnonzero(removed_anchors).tolist()
        ]

        value: list[ValueExplanation] = []
        refined = x[self._refined_columns].tolist()
        for position in np.flatnonzero(~removed_anchors).tolist():
            canonical_tuple = anchors[position]
            if abs(refined[position] - canonical_tuple.impact) > _IMPACT_TOLERANCE:
                value.append(
                    ValueExplanation(
                        anchor_side, canonical_tuple.key, canonical_tuple.impact,
                        round(refined[position], 6),
                    )
                )

        rows = self._usable[np.round(x[self._match_columns]) >= 1]
        mapping = self.mapping
        # Evidence reports the probability, not the score: similarity 0.0.
        evidence = TupleMapping.from_columns(
            mapping.left_keys[rows], mapping.right_keys[rows], mapping.probabilities[rows],
            np.zeros(len(rows)),
        )

        return ExplanationSet(
            provenance=provenance,
            value=value,
            evidence=evidence,
            objective=solution.objective,
        )

    # -- introspection -----------------------------------------------------------------------
    @property
    def model(self) -> MILPModel | None:
        return self._model

    def problem_size(self) -> dict[str, int]:
        """Sizes used in reports: tuples, matches, variables, constraints."""
        model = self._model or self.build()
        return {
            "tuples": len(self.canonical_left) + len(self.canonical_right),
            "matches": len(self.mapping),
            "variables": model.num_variables,
            "constraints": model.num_constraints,
        }


def _degree_rows(endpoint: np.ndarray) -> tuple[np.ndarray, int]:
    """Equation (10) rows over one side's match endpoints.

    Returns each match's row (``-1`` when its endpoint has a single match)
    and the row count: one row per endpoint with several matches, in order of
    the endpoint's first match.
    """
    keys, first, inverse, counts = np.unique(
        endpoint, return_index=True, return_inverse=True, return_counts=True
    )
    shared = np.flatnonzero(counts > 1)
    row_of_key = np.full(len(keys), -1, dtype=np.int64)
    row_of_key[shared[np.argsort(first[shared])]] = np.arange(len(shared))
    return row_of_key[inverse], len(shared)
