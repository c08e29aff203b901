#include "qec/matching/exhaustive.hpp"

#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

Weight
matchingWeight(const MatchingProblem &problem,
               MatchingSolution &solution)
{
    Weight total = 0;
    for (int i = 0; i < problem.n; ++i) {
        const int m = solution.mate[i];
        const Weight w = (m == -1)  ? problem.boundaryWeight[i]
                         : (m > i)  ? problem.pair(i, m)
                                    : 0;
        if (w == kNoEdge) {
            // Disallowed pairing: not a valid solution.
            solution.valid = false;
            return kNoEdge;
        }
        total += w;
    }
    return total;
}

void
ExhaustiveSolver::recurse(const MatchingProblem &problem,
                          Weight weight)
{
    if (weight >= best_) {
        // Even a complete extension cannot improve (weights >= 0).
        return;
    }
    const int n = problem.n;
    int first = 0;
    while (first < n && mate_[first] != -2) {
        ++first;
    }
    if (first == n) {
        ++explored_;
        if (weight < best_) {
            best_ = weight;
            rt::assignRange(bestMate_, mate_.begin(),
                            mate_.begin() + n);
        }
        return;
    }

    // Option 1: boundary.
    const Weight bw = problem.boundaryWeight[first];
    if (bw != kNoEdge) {
        mate_[first] = -1;
        recurse(problem, weight + bw);
        mate_[first] = -2;
    }
    // Option 2: each later unmatched defect.
    for (int j = first + 1; j < n; ++j) {
        if (mate_[j] != -2) {
            continue;
        }
        const Weight pw = problem.pair(first, j);
        if (pw == kNoEdge) {
            continue;
        }
        mate_[first] = j;
        mate_[j] = first;
        recurse(problem, weight + pw);
        mate_[first] = -2;
        mate_[j] = -2;
    }
}

void
ExhaustiveSolver::seedGreedyBound(const MatchingProblem &problem)
{
    // Seed best_ with the weight of one greedily built matching so
    // the branch-and-bound prunes above it from the first descent.
    // Seeding bound + 1 keeps every matching with weight <= bound
    // reachable. The DFS winner (first matching attaining the
    // optimum in DFS order) has all prefix weights <= the optimum
    // <= bound, so it is never pruned: the solution is identical
    // with the unseeded search, only the explored count shrinks.
    const int n = problem.n;
    Weight bound = 0;
    for (int first = 0; first < n; ++first) {
        if (mate_[first] != -2) {
            continue;
        }
        Weight best_w = problem.boundaryWeight[first];
        int best_j = -1;
        for (int j = first + 1; j < n; ++j) {
            if (mate_[j] != -2) {
                continue;
            }
            const Weight pw = problem.pair(first, j);
            if (pw < best_w) {
                best_w = pw;
                best_j = j;
            }
        }
        if (best_w == kNoEdge) {
            // Greedy got stuck (no boundary, no free partner):
            // leave best_ unseeded rather than guess a bound.
            rt::assignFill(mate_, n, -2);
            return;
        }
        if (best_j >= 0) {
            mate_[first] = best_j;
            mate_[best_j] = first;
        } else {
            mate_[first] = -1;
        }
        bound += best_w;
    }
    rt::assignFill(mate_, n, -2);
    best_ = bound + 1;
}

// Outlined so the QEC_REALTIME anchor stays inside this body: if
// GCC inlined the whole solve into a caller, the audit root would
// migrate to that caller.
QEC_RT_OUTLINE void
ExhaustiveSolver::solve(const MatchingProblem &problem,
                        MatchingSolution &out, uint64_t *explored)
{
    QEC_REALTIME;
    rt::assignFill(mate_, problem.n, -2);
    rt::assignFill(bestMate_, problem.n, -2);
    best_ = kNoEdge;
    explored_ = 0;
    seedGreedyBound(problem);
    recurse(problem, 0);
    if (explored) {
        *explored = explored_;
    }
    if (best_ == kNoEdge) {
        out.mate.clear();
        out.totalWeight = 0.0;
        out.valid = false;
        return;
    }
    rt::assignRange(out.mate, bestMate_.begin(),
                    bestMate_.end());
    out.totalWeight = toNats(best_);
    out.valid = true;
}

} // namespace qec
