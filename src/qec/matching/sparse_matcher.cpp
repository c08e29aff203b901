#include "qec/matching/sparse_matcher.hpp"

#include <bit>
#include <cstdlib>

#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

namespace
{

/** db(i) + db(j): the cost of matching both ends to the boundary
 *  (at least kNoPath when either boundary is unreachable). */
Weight
boundaryPairCost(const PathCell &bi, const PathCell &bj)
{
    return Weight{bi.dist} + Weight{bj.dist};
}

/** Keep a pair iff it is strictly cheaper than matching both ends
 *  to the boundary (see the header's exactness argument; exact ties
 *  are dropped because the two boundary matches cost the same). */
bool
keepCandidate(const PathCell &cell, Weight boundary_cost)
{
    return cell.dist != kNoPath && cell.dist < boundary_cost;
}

/** True when some landmark column proves d(i, j) >= boundary_cost
 *  (header: landmarks), so the pair fails keepCandidate without a
 *  search. */
bool
landmarksProvePrunable(const uint32_t *li, const uint32_t *lj,
                       int lms, Weight boundary_cost)
{
    for (int l = 0; l < lms; ++l) {
        const Weight gap = Weight{li[l]} - Weight{lj[l]};
        if (std::abs(gap) >= boundary_cost) {
            return true;
        }
    }
    return false;
}

} // namespace

void
SparseMatchingProblem::build(const PathTable &paths,
                             std::span<const uint32_t> defects)
{
    QEC_REALTIME;
    n_ = static_cast<int>(defects.size());
    rt::assignRange(defects_, defects.begin(), defects.end());
    rt::resizeTo(bcells_, n_);
    for (int i = 0; i < n_; ++i) {
        bcells_[i] = paths.boundaryCell(defects_[i]);
    }
    offsets_.clear();
    cands_.clear();

    // Per source, the targets the landmarks do not prove prunable
    // (none are on a dense table, which has no landmark columns)
    // carry the bound db(i) + db(j) beyond which keepCandidate
    // rejects them, so on a deferred table the oracle stops as soon
    // as no remaining target can be kept. Both cuts drop only pairs
    // keepCandidate would drop (header: exactness), and the oracle's
    // cells are bit-identical to the table's, so the two table modes
    // produce the identical candidate set.
    const int lms = paths.numLandmarks();
    rt::resizeTo(rowScratch_,
                 n_ > 0 ? static_cast<size_t>(n_) : 0);
    for (int i = 0; i < n_; ++i) {
        rt::pushBack(offsets_,
                     static_cast<int32_t>(cands_.size()));
        const uint32_t *li = paths.landmarkRow(defects_[i]);
        targetDets_.clear();
        targetBounds_.clear();
        targetLocal_.clear();
        for (int j = i + 1; j < n_; ++j) {
            const Weight cost = boundaryPairCost(bcells_[i], bcells_[j]);
            if (landmarksProvePrunable(
                    li, paths.landmarkRow(defects_[j]), lms, cost)) {
                continue;
            }
            rt::pushBack(targetDets_, defects_[j]);
            rt::pushBack(targetBounds_, cost);
            rt::pushBack(targetLocal_, static_cast<int32_t>(j));
        }
        readPairCells(paths, oracle_, defects_[i], targetDets_,
                      targetBounds_, rowScratch_.data());
        for (size_t k = 0; k < targetDets_.size(); ++k) {
            const PathCell &cell = rowScratch_[k];
            if (keepCandidate(cell, targetBounds_[k])) {
                rt::pushBack(cands_, {targetLocal_[k], cell});
            }
        }
    }
    rt::pushBack(offsets_,
                 static_cast<int32_t>(cands_.size()));
}

const PathCell &
SparseMatchingProblem::pairCell(int i, int j) const
{
    for (const SparseCandidate &cand : candidates(i)) {
        if (cand.j == j) {
            return cand.cell;
        }
    }
    QEC_PANIC("matched pair is not a kept sparse candidate");
}

uint64_t
SparseMatchingProblem::solutionObs(
    const MatchingSolution &solution) const
{
    QEC_ASSERT(solution.mate.size() == static_cast<size_t>(n_),
               "solution size mismatch");
    uint64_t obs = 0;
    for (int i = 0; i < n_; ++i) {
        const int m = solution.mate[i];
        if (m == -1) {
            obs ^= bcells_[i].obs;
        } else if (m > i) {
            obs ^= pairCell(i, m).obs;
        }
    }
    return obs;
}

void
SparseMatchingProblem::chainLengthsInto(
    const MatchingSolution &solution, std::vector<int> &out) const
{
    QEC_ASSERT(solution.mate.size() == static_cast<size_t>(n_),
               "solution size mismatch");
    out.clear();
    for (int i = 0; i < n_; ++i) {
        const int m = solution.mate[i];
        if (m == -1) {
            rt::pushBack(out, int{bcells_[i].hops});
        } else if (m > i) {
            rt::pushBack(out, int{pairCell(i, m).hops});
        }
    }
}

int32_t
SparseMatcher::find(int32_t x)
{
    while (parent_[x] != x) {
        parent_[x] = parent_[parent_[x]]; // Path halving.
        x = parent_[x];
    }
    return x;
}

void
SparseMatcher::solve(const SparseMatchingProblem &problem,
                     MatchingSolution &out)
{
    QEC_REALTIME;
    const int n = problem.size();
    rt::assignFill(out.mate, n, -2);
    out.totalWeight = 0.0;
    out.valid = true;
    if (n == 0) {
        return;
    }

    // Connected components of the candidate graph: defects in
    // different components never match each other (no kept edge),
    // so each component is an independent exact subproblem — the
    // win over one monolithic dense solve.
    rt::resizeTo(parent_, n);
    for (int i = 0; i < n; ++i) {
        parent_[i] = i;
    }
    for (int i = 0; i < n; ++i) {
        for (const SparseCandidate &cand : problem.candidates(i)) {
            const int32_t a = find(i);
            const int32_t b = find(cand.j);
            if (a != b) {
                parent_[b] = a;
            }
        }
    }
    rt::assignFill(compOf_, n, -1);
    compCount_.clear();
    int comps = 0;
    for (int i = 0; i < n; ++i) {
        const int32_t r = find(i);
        if (compOf_[r] == -1) {
            compOf_[r] = comps++;
            rt::pushBack(compCount_, 0);
        }
        compOf_[i] = compOf_[r];
        ++compCount_[compOf_[i]];
    }
    rt::resizeTo(compStart_, comps + 1);
    compStart_[0] = 0;
    for (int c = 0; c < comps; ++c) {
        compStart_[c + 1] = compStart_[c] + compCount_[c];
    }
    rt::resizeTo(members_, n);
    rt::resizeTo(localPos_, n);
    {
        // Counting sort by component, ascending local index within.
        std::vector<int32_t> &fill = compCount_; // Reuse as cursor.
        for (int c = 0; c < comps; ++c) {
            fill[c] = compStart_[c];
        }
        for (int i = 0; i < n; ++i) {
            const int c = compOf_[i];
            localPos_[i] = fill[c] - compStart_[c];
            members_[fill[c]++] = i;
        }
    }

    for (int c = 0; c < comps; ++c) {
        const int32_t *mem = members_.data() + compStart_[c];
        const int m = compStart_[c + 1] - compStart_[c];
        if (m == 1) {
            // Isolated defect: every pair was pruned (or none is
            // finite), so the boundary is the only legal mate.
            const int i = mem[0];
            if (problem.boundaryCell(i).dist == kNoPath) {
                out.valid = false;
                return;
            }
            out.mate[i] = -1;
            continue;
        }
        if (m == 2) {
            // One candidate edge by construction, and keepCandidate
            // kept it only because it is strictly cheaper than two
            // boundary matches.
            out.mate[mem[0]] = mem[1];
            out.mate[mem[1]] = mem[0];
            continue;
        }
        // General component: its dense subproblem over members only.
        sub_.n = m;
        rt::assignFill(sub_.pairWeight,
                       static_cast<size_t>(m) * m, kNoEdge);
        rt::assignFill(sub_.boundaryWeight,
                       static_cast<size_t>(m), kNoEdge);
        for (int a = 0; a < m; ++a) {
            const int i = mem[a];
            const uint32_t db = problem.boundaryCell(i).dist;
            if (db != kNoPath) {
                sub_.boundaryWeight[a] = db;
            }
            for (const SparseCandidate &cand :
                 problem.candidates(i)) {
                sub_.setPair(a, localPos_[cand.j], cand.cell.dist);
            }
        }
        if (m <= kDpMaxSize) {
            // Subset DP: dp[mask] is the cheapest way to resolve
            // the defect subset `mask`, matching the mask's lowest
            // bit either to the boundary or to another member.
            // kNoEdge (a pruned pair, an unreachable boundary, an
            // unresolvable subset) is never added; kNoEdge at
            // dp[full] means the component is infeasible.
            const uint32_t full = (1u << m) - 1;
            rt::resizeTo(dpCost_,
                         static_cast<size_t>(full) + 1);
            rt::resizeTo(dpChoice_,
                         static_cast<size_t>(full) + 1);
            Weight *const dp = dpCost_.data();
            int8_t *const choice_of = dpChoice_.data();
            dp[0] = 0;
            for (uint32_t mask = 1; mask <= full; ++mask) {
                const int i = std::countr_zero(mask);
                const uint32_t rest = mask & (mask - 1);
                const Weight *const prow =
                    sub_.pairWeight.data() +
                    static_cast<size_t>(i) * m;
                Weight best = kNoEdge;
                int8_t choice = -1;
                if (sub_.boundaryWeight[i] != kNoEdge &&
                    dp[rest] != kNoEdge) {
                    best = sub_.boundaryWeight[i] + dp[rest];
                }
                for (uint32_t bits = rest; bits != 0;) {
                    const uint32_t low = bits & (0u - bits);
                    bits ^= low;
                    const int j = std::countr_zero(low);
                    if (prow[j] == kNoEdge ||
                        dp[rest ^ low] == kNoEdge) {
                        continue;
                    }
                    const Weight w = prow[j] + dp[rest ^ low];
                    if (w < best) {
                        best = w;
                        choice = static_cast<int8_t>(j);
                    }
                }
                dp[mask] = best;
                choice_of[mask] = choice;
            }
            if (dp[full] == kNoEdge) {
                out.valid = false;
                return;
            }
            uint32_t mask = full;
            while (mask != 0) {
                const int i = std::countr_zero(mask);
                const int8_t choice = dpChoice_[mask];
                mask &= mask - 1;
                if (choice < 0) {
                    out.mate[mem[i]] = -1;
                } else {
                    out.mate[mem[i]] = mem[choice];
                    out.mate[mem[choice]] = mem[i];
                    mask ^= 1u << choice;
                }
            }
            continue;
        }
        blossom_.solve(sub_, subSol_);
        if (!subSol_.valid) {
            out.valid = false;
            return;
        }
        for (int a = 0; a < m; ++a) {
            const int sm = subSol_.mate[a];
            out.mate[mem[a]] = sm == -1 ? -1 : mem[sm];
        }
    }

    Weight total = 0;
    for (int i = 0; i < n; ++i) {
        const int m = out.mate[i];
        if (m == -1) {
            total += problem.boundaryCell(i).dist;
        } else if (m > i) {
            total += problem.pairCell(i, m).dist;
        }
    }
    out.totalWeight = toNats(total);
}

} // namespace qec
