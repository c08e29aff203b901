/**
 * @file
 * Budgeted branch-and-bound matcher — the search engine behind the
 * Astrea-G decoder model (pruned, prioritized near-exhaustive walk
 * with greedy completion when the state budget runs out).
 *
 * Promoted out of the decoder into the matching layer so it can be
 * reused as a first-class solver: like BlossomSolver, a
 * NearExhaustiveSolver keeps its per-defect candidate lists and mate
 * scratch across solves (flat CSR storage, grown monotonically), so
 * a warm solver performs zero heap allocations per solve. One
 * instance must not be shared between threads.
 */

#ifndef QEC_MATCHING_NEAR_EXHAUSTIVE_HPP
#define QEC_MATCHING_NEAR_EXHAUSTIVE_HPP

#include <utility>
#include <vector>

#include "qec/matching/matching_problem.hpp"

namespace qec
{

/** Reusable budgeted branch-and-bound over pairings of a (pruned)
 *  defect graph. */
class NearExhaustiveSolver
{
  public:
    /**
     * Run the search; `out` is reset and filled in place (reusing
     * capacity) with the best matching found — possibly a greedy
     * completion when the budget was exhausted. out.valid is false
     * when not even a greedy completion existed.
     *
     * @param budget    search-state budget (Astrea-G's pipeline
     *                  walk length)
     * @param use_bound prune with an admissible lower bound (the
     *                  "smarter Astrea-G" ablation)
     */
    void solve(const MatchingProblem &problem, long long budget,
               bool use_bound, MatchingSolution &out);

    /** States explored by the last solve. */
    long long statesExplored() const { return states_; }
    /** Whether the last solve hit its budget. */
    bool truncated() const { return hitBudget_; }

  private:
    Weight remainingBound() const;
    void greedyComplete(Weight weight);
    void recurse(Weight weight);

    const MatchingProblem *problem_ = nullptr;
    long long budget_ = 0;
    bool useBound_ = false;
    std::vector<int> mate_, bestMate_, savedMate_;
    /**
     * Per-defect candidate lists sorted by ascending weight, the
     * "prioritized matchings" of Astrea-G's greedy order, stored as
     * one flat (weight, partner) array with per-defect offsets;
     * partner -1 is the boundary.
     */
    std::vector<int> optOffset_;
    std::vector<std::pair<Weight, int>> options_;
    std::vector<Weight> minOption_;
    Weight best_ = kNoEdge;
    long long states_ = 0;
    bool hitBudget_ = false;
};

} // namespace qec

#endif // QEC_MATCHING_NEAR_EXHAUSTIVE_HPP
