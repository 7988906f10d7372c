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
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

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

        # Orientation is fixed by the relation: resolve it once, not per match.
        self._anchor_side = anchor_side(relation)
        if self._anchor_side is Side.LEFT:
            self._anchor_relation, self._other_relation = canonical_left, canonical_right
            self._anchor_key_of = attrgetter("left_key")
            self._other_key_of = attrgetter("right_key")
        else:
            self._anchor_relation, self._other_relation = canonical_right, canonical_left
            self._anchor_key_of = attrgetter("right_key")
            self._other_key_of = attrgetter("left_key")

        self._model: MILPModel | None = None
        self._removed_vars: dict[tuple[str, str], object] = {}
        self._anchor_vars: dict[str, _AnchorVariables] = {}
        self._match_vars: dict[tuple[str, str], object] = {}

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
        """Construct the MILP (Algorithm 1, lines 1-10)."""
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
            self._removed_vars[(other_side.value, canonical_tuple.key)] = removed
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

            self._removed_vars[(anchor_side.value, canonical_tuple.key)] = removed
            self._anchor_vars[canonical_tuple.key] = _AnchorVariables(removed, unchanged, refined)

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
            self._match_vars[match.pair] = selected

            # A selected match requires both endpoints to be kept (Equation 9).
            model.add_constraint(
                selected + self._removed_vars[(anchor_side.value, anchor_key)],
                ConstraintSense.LESS_EQUAL,
                1.0,
                f"keep_a_{tag}",
            )
            model.add_constraint(
                selected + self._removed_vars[(other_side.value, other_key)],
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
                removed = self._removed_vars[(side.value, canonical_tuple.key)]
                incident = by_key.get(canonical_tuple.key, [])
                if not incident:
                    model.add_constraint(removed, ConstraintSense.EQUAL, 1.0, f"forced_{tag}")
                    continue
                gate = LinearExpression.from_variable(removed)
                for match in incident:
                    gate += self._match_vars[match.pair]
                model.add_constraint(gate, ConstraintSense.GREATER_EQUAL, 1.0, f"matched_{tag}")

        # -- Equation (10): valid-mapping cardinality -------------------------------------
        self._add_degree_constraints(model, matches_by_anchor, matches_by_other)

        # -- Equations (11)-(12): component impact equality --------------------------------
        for canonical_tuple in anchor_relation:
            incident = matches_by_anchor.get(canonical_tuple.key, [])
            variables = self._anchor_vars[canonical_tuple.key]
            balance = linear_sum(
                other_relation[self._other_key_of(match)].impact * self._match_vars[match.pair]
                for match in incident
            )
            balance -= variables.refined_impact
            model.add_constraint(
                balance, ConstraintSense.EQUAL, 0.0, f"balance_{anchor_side.value}[{canonical_tuple.key}]"
            )

        model.set_objective(objective, ObjectiveSense.MAXIMIZE)
        self._model = model
        return model

    def _add_degree_constraints(self, model, matches_by_anchor, matches_by_other) -> None:
        anchor_limited = (
            self.relation.left_degree_limited
            if self._anchor_side is Side.LEFT
            else self.relation.right_degree_limited
        )
        # The non-anchor side is degree-limited by construction of the anchor choice.
        limited = {"o": matches_by_other}
        if anchor_limited:
            limited["a"] = matches_by_anchor
        for label, by_key in limited.items():
            for key, incident in by_key.items():
                if len(incident) > 1:
                    expr = linear_sum(self._match_vars[match.pair] for match in incident)
                    model.add_constraint(expr, ConstraintSense.LESS_EQUAL, 1.0, f"deg_{label}_{key}")

    # -- solving and decoding ---------------------------------------------------------------
    def solve(self) -> ExplanationSet:
        """Build (if needed), solve, and decode the explanation set (Algorithm 1)."""
        if not len(self.canonical_left) and not len(self.canonical_right):
            return ExplanationSet()
        model = self._model or self.build()
        solution = self.solver.solve(model)
        return self.decode(solution)

    def decode(self, solution: MILPSolution) -> ExplanationSet:
        """DecodeVariables: translate the solved assignment into explanations."""
        provenance: list[ProvenanceExplanation] = []
        value: list[ValueExplanation] = []
        evidence = TupleMapping()
        anchor_relation = self._anchor_relation

        for (side_value, key), variable in self._removed_vars.items():
            if solution.binary(variable.name):
                provenance.append(ProvenanceExplanation(Side(side_value), key))

        for key, variables in self._anchor_vars.items():
            if solution.binary(variables.removed.name):
                continue
            canonical_tuple = anchor_relation.get(key)
            refined = solution.value(variables.refined_impact.name)
            if canonical_tuple is not None and abs(refined - canonical_tuple.impact) > _IMPACT_TOLERANCE:
                value.append(
                    ValueExplanation(self._anchor_side, key, canonical_tuple.impact, round(refined, 6))
                )

        for pair, variable in self._match_vars.items():
            if solution.binary(variable.name):
                probability = self.mapping.probability(*pair) or 1.0
                evidence.add(TupleMatch(pair[0], pair[1], probability))

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
