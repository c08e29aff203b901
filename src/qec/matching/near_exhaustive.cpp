#include "qec/matching/near_exhaustive.hpp"

#include <algorithm>
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

Weight
NearExhaustiveSolver::remainingBound() const
{
    // Each unmatched defect pays at least half its cheapest option
    // (a pair is shared by two); rounded up, which stays admissible
    // against the integer weight it is added to. kNoEdge when some
    // unmatched defect has no option at all.
    Weight twice = 0;
    for (int i = 0; i < problem_->n; ++i) {
        if (mate_[i] == -2) {
            if (minOption_[i] == kNoEdge) {
                return kNoEdge;
            }
            twice += minOption_[i];
        }
    }
    return (twice + 1) / 2;
}

void
NearExhaustiveSolver::greedyComplete(Weight weight)
{
    rt::assignRange(savedMate_, mate_.begin(), mate_.end());
    for (int i = 0; i < problem_->n; ++i) {
        if (mate_[i] != -2) {
            continue;
        }
        Weight best_w = kNoEdge;
        int best_j = -3;
        for (int o = optOffset_[i]; o < optOffset_[i + 1]; ++o) {
            const auto &[w, j] = options_[o];
            if (j == -1 || mate_[j] == -2) {
                best_w = w;
                best_j = j;
                break; // Options are sorted by weight.
            }
        }
        if (best_j == -3) {
            rt::assignRange(mate_, savedMate_.begin(),
                        savedMate_.end());
            return; // Dead end; keep previous best.
        }
        mate_[i] = best_j;
        if (best_j >= 0) {
            mate_[best_j] = i;
        }
        weight += best_w;
    }
    if (weight < best_) {
        best_ = weight;
        rt::assignRange(bestMate_, mate_.begin(), mate_.end());
    }
    rt::assignRange(mate_, savedMate_.begin(),
                        savedMate_.end());
}

void
NearExhaustiveSolver::recurse(Weight weight)
{
    if (hitBudget_) {
        return;
    }
    if (++states_ > budget_) {
        hitBudget_ = true;
        return;
    }
    const Weight bound = useBound_ ? remainingBound() : 0;
    if (bound == kNoEdge || weight + bound >= best_) {
        return;
    }
    int first = 0;
    const int n = problem_->n;
    while (first < n && mate_[first] != -2) {
        ++first;
    }
    if (first == n) {
        if (weight < best_) {
            best_ = weight;
            rt::assignRange(bestMate_, mate_.begin(), mate_.end());
        }
        return;
    }
    for (int o = optOffset_[first]; o < optOffset_[first + 1];
         ++o) {
        const auto [w, j] = options_[o];
        if (j >= 0 && mate_[j] != -2) {
            continue;
        }
        mate_[first] = j;
        if (j >= 0) {
            mate_[j] = first;
        }
        recurse(weight + w);
        mate_[first] = -2;
        if (j >= 0) {
            mate_[j] = -2;
        }
        if (hitBudget_) {
            // Out of budget mid-expansion: finish this branch
            // greedily so we always return some matching.
            mate_[first] = j;
            if (j >= 0) {
                mate_[j] = first;
            }
            greedyComplete(weight + w);
            mate_[first] = -2;
            if (j >= 0) {
                mate_[j] = -2;
            }
            return;
        }
    }
}

void
NearExhaustiveSolver::solve(const MatchingProblem &problem,
                            long long budget, bool use_bound,
                            MatchingSolution &out)
{
    QEC_REALTIME;
    problem_ = &problem;
    budget_ = budget;
    useBound_ = use_bound;
    const int n = problem.n;
    rt::assignFill(mate_, n, -2);
    rt::assignFill(bestMate_, n, -2);
    best_ = kNoEdge;
    states_ = 0;
    hitBudget_ = false;

    rt::assignFill(optOffset_, n + 1, 0);
    options_.clear();
    rt::assignFill(minOption_, n, kNoEdge);
    for (int i = 0; i < n; ++i) {
        optOffset_[i] = static_cast<int>(options_.size());
        if (problem.boundaryWeight[i] != kNoEdge) {
            rt::pushBack(options_,
                         {problem.boundaryWeight[i], -1});
        }
        for (int j = 0; j < n; ++j) {
            if (j != i && problem.pair(i, j) != kNoEdge) {
                rt::pushBack(options_,
                             {problem.pair(i, j), j});
            }
        }
        std::sort(options_.begin() + optOffset_[i],
                  options_.end());
        if (static_cast<int>(options_.size()) > optOffset_[i]) {
            minOption_[i] = options_[optOffset_[i]].first;
        }
    }
    optOffset_[n] = static_cast<int>(options_.size());

    recurse(0);
    if (best_ == kNoEdge) {
        // Not even a greedy completion existed.
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
