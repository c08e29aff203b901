/**
 * @file
 * Exhaustive minimum-weight matcher.
 *
 * Recursively enumerates every perfect matching (boundary matches
 * included). This is the reference oracle for the blossom
 * implementation and the exact engine behind the Astrea model, whose
 * hardware performs precisely this brute-force search for HW <= 10
 * (945 pairings at HW = 10, §2.3 of the paper).
 *
 * ExhaustiveSolver is reusable: its mate scratch grows to the
 * largest instance seen and is overwritten on subsequent solves, so
 * a warm solver allocates nothing per solve (the DecodeWorkspace
 * memory contract). One instance must not be shared between threads.
 */

#ifndef QEC_MATCHING_EXHAUSTIVE_HPP
#define QEC_MATCHING_EXHAUSTIVE_HPP

#include <cstdint>
#include <vector>

#include "qec/matching/matching_problem.hpp"

namespace qec
{

/** Reusable brute-force matcher. Practical for n <= ~14. */
class ExhaustiveSolver
{
  public:
    /**
     * Solve by exhaustive search; `out` is reset and filled in
     * place, reusing its capacity.
     *
     * @param explored if non-null, receives the number of complete
     *        matchings enumerated (the quantity Astrea's pipeline
     *        walks).
     */
    void solve(const MatchingProblem &problem, MatchingSolution &out,
               uint64_t *explored = nullptr);

  private:
    void recurse(const MatchingProblem &problem, Weight weight);
    void seedGreedyBound(const MatchingProblem &problem);

    std::vector<int> mate_, bestMate_;
    Weight best_ = kNoEdge;
    uint64_t explored_ = 0;
};

} // namespace qec

#endif // QEC_MATCHING_EXHAUSTIVE_HPP
