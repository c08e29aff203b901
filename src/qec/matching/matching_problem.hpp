/**
 * @file
 * Common types for minimum-weight matching over defects.
 *
 * A MatchingProblem is a complete graph over n defects, each of which
 * may alternatively be matched to the boundary at a per-defect cost.
 * Solvers return a mate array where -1 denotes a boundary match.
 *
 * Weights are the integers of weight.hpp, so every solver sums them
 * exactly; a solution's totalWeight is that integer total in nats.
 */

#ifndef QEC_MATCHING_MATCHING_PROBLEM_HPP
#define QEC_MATCHING_MATCHING_PROBLEM_HPP

#include <cstddef>
#include <limits>
#include <vector>

#include "qec/graph/weight.hpp"

namespace qec
{

/** Weight marking a disallowed pairing. Never added: every solver
 *  tests for it first. */
constexpr Weight kNoEdge = std::numeric_limits<Weight>::max();

/** Dense matching instance over n defects plus the boundary. */
struct MatchingProblem
{
    int n = 0;
    /** Symmetric n*n pair weights; kNoEdge where pairing is illegal. */
    std::vector<Weight> pairWeight;
    /** Per-defect boundary weight; kNoEdge where illegal. */
    std::vector<Weight> boundaryWeight;

    Weight pair(int a, int b) const
    {
        return pairWeight[static_cast<size_t>(a) * n + b];
    }
    void setPair(int a, int b, Weight w)
    {
        pairWeight[static_cast<size_t>(a) * n + b] = w;
        pairWeight[static_cast<size_t>(b) * n + a] = w;
    }
};

/** A (possibly partial) solution to a MatchingProblem. */
struct MatchingSolution
{
    /** mate[i] = partner defect, or -1 for a boundary match. */
    std::vector<int> mate;
    /** Sum of the chosen edge weights, in nats. */
    double totalWeight = 0.0;
    /** False if the solver could not produce a perfect matching. */
    bool valid = false;
};

/**
 * Recompute a solution's integer weight from the problem.
 *
 * A solution that uses a disallowed pairing (kNoEdge pair or
 * boundary weight) is not a solution at all: it is marked
 * valid=false and the returned weight is kNoEdge.
 */
Weight matchingWeight(const MatchingProblem &problem,
                      MatchingSolution &solution);

} // namespace qec

#endif // QEC_MATCHING_MATCHING_PROBLEM_HPP
