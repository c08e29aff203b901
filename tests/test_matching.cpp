/**
 * @file
 * Property tests for the matching engines.
 *
 * The blossom implementation is validated against the exhaustive
 * oracle over thousands of random instances, including instances with
 * forbidden edges and odd-cycle structures that force blossom
 * shrinking.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "qec/matching/blossom.hpp"
#include "qec/matching/exhaustive.hpp"
#include "qec/util/rng.hpp"

namespace qec
{
namespace
{

MatchingProblem
randomProblem(Rng &rng, int n, double no_edge_prob,
              bool allow_boundary)
{
    MatchingProblem p;
    p.n = n;
    p.pairWeight.assign(static_cast<size_t>(n) * n, kNoEdge);
    p.boundaryWeight.assign(n, kNoEdge);
    for (int i = 0; i < n; ++i) {
        // Integer weights in 0.5 .. 10.5 nats (32 .. 672 units).
        if (allow_boundary) {
            p.boundaryWeight[i] =
                32 + static_cast<Weight>(rng.next64() % 641);
        }
        for (int j = i + 1; j < n; ++j) {
            if (!rng.nextBool(no_edge_prob)) {
                p.setPair(i, j,
                          32 + static_cast<Weight>(rng.next64() % 641));
            }
        }
    }
    return p;
}

void
expectSolutionsMatch(const MatchingProblem &problem, int trial)
{
    ExhaustiveSolver exhaustive;
    MatchingSolution oracle;
    exhaustive.solve(problem, oracle);
    MatchingSolution blossom = solveBlossom(problem);
    ASSERT_EQ(oracle.valid, blossom.valid) << "trial " << trial;
    if (!oracle.valid) {
        return;
    }
    // Integer weights: the totals agree exactly; the mate arrays
    // may legitimately differ between equal-weight optima.
    EXPECT_EQ(oracle.totalWeight, blossom.totalWeight)
        << "trial " << trial;
    // The blossom solution must be internally consistent.
    EXPECT_EQ(toNats(matchingWeight(problem, blossom)),
              blossom.totalWeight);
    for (int i = 0; i < problem.n; ++i) {
        const int m = blossom.mate[i];
        ASSERT_TRUE(m == -1 || (m >= 0 && m < problem.n));
        if (m >= 0) {
            EXPECT_EQ(blossom.mate[m], i);
        }
    }
}

class BlossomRandomTest
    : public ::testing::TestWithParam<std::tuple<int, double, bool>>
{
};

TEST_P(BlossomRandomTest, AgreesWithExhaustiveOracle)
{
    const auto [n, no_edge_prob, allow_boundary] = GetParam();
    Rng rng(0xabcdu + n * 1000 +
            static_cast<int>(no_edge_prob * 100));
    const int trials = 120;
    for (int trial = 0; trial < trials; ++trial) {
        const MatchingProblem problem =
            randomProblem(rng, n, no_edge_prob, allow_boundary);
        expectSolutionsMatch(problem, trial);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlossomRandomTest,
    ::testing::Values(
        std::make_tuple(2, 0.0, true),
        std::make_tuple(3, 0.0, true),
        std::make_tuple(4, 0.0, true),
        std::make_tuple(5, 0.2, true),
        std::make_tuple(6, 0.0, true),
        std::make_tuple(6, 0.3, true),
        std::make_tuple(7, 0.2, true),
        std::make_tuple(8, 0.0, true),
        std::make_tuple(8, 0.4, true),
        std::make_tuple(9, 0.3, true),
        std::make_tuple(10, 0.2, true),
        std::make_tuple(4, 0.0, false),
        std::make_tuple(6, 0.2, false),
        std::make_tuple(8, 0.3, false),
        std::make_tuple(10, 0.0, false)));

TEST(Blossom, OddCycleForcesBlossom)
{
    // C5 plus pendant edges: the optimum requires shrinking the odd
    // cycle. Without boundary, 5 nodes have no perfect matching, so
    // add a 6th vertex attached to one cycle node.
    MatchingProblem p;
    p.n = 6;
    p.pairWeight.assign(36, kNoEdge);
    p.boundaryWeight.assign(6, kNoEdge);
    // Cycle 0-1-2-3-4-0, cheap chord weights to tempt greed.
    p.setPair(0, 1, 64);
    p.setPair(1, 2, 64);
    p.setPair(2, 3, 64);
    p.setPair(3, 4, 64);
    p.setPair(4, 0, 64);
    p.setPair(4, 5, 128);
    expectSolutionsMatch(p, 0);
    const MatchingSolution s = solveBlossom(p);
    ASSERT_TRUE(s.valid);
    // Optimal: (4,5) + two cycle edges = 4.0 total.
    EXPECT_EQ(s.totalWeight, 4.0);
}

TEST(Blossom, PrefersBoundaryWhenCheaper)
{
    MatchingProblem p;
    p.n = 2;
    p.pairWeight.assign(4, kNoEdge);
    p.boundaryWeight = {64, 64};
    p.setPair(0, 1, 640);
    const MatchingSolution s = solveBlossom(p);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.mate[0], -1);
    EXPECT_EQ(s.mate[1], -1);
    EXPECT_EQ(s.totalWeight, 2.0);
}

TEST(Blossom, PrefersPairWhenCheaper)
{
    MatchingProblem p;
    p.n = 2;
    p.pairWeight.assign(4, kNoEdge);
    p.boundaryWeight = {640, 640};
    p.setPair(0, 1, 64);
    const MatchingSolution s = solveBlossom(p);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.mate[0], 1);
    EXPECT_EQ(s.totalWeight, 1.0);
}

TEST(Blossom, EmptyProblem)
{
    MatchingProblem p;
    p.n = 0;
    const MatchingSolution s = solveBlossom(p);
    EXPECT_TRUE(s.valid);
    EXPECT_DOUBLE_EQ(s.totalWeight, 0.0);
}

TEST(Blossom, SingleDefectMatchesBoundary)
{
    MatchingProblem p;
    p.n = 1;
    p.pairWeight.assign(1, kNoEdge);
    p.boundaryWeight = {224};
    const MatchingSolution s = solveBlossom(p);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.mate[0], -1);
    EXPECT_EQ(s.totalWeight, 3.5);
}

TEST(Blossom, InfeasibleWithoutBoundaryOddN)
{
    MatchingProblem p;
    p.n = 3;
    p.pairWeight.assign(9, kNoEdge);
    p.boundaryWeight.assign(3, kNoEdge);
    p.setPair(0, 1, 64);
    p.setPair(1, 2, 64);
    p.setPair(0, 2, 64);
    const MatchingSolution s = solveBlossom(p);
    EXPECT_FALSE(s.valid);
    ExhaustiveSolver exhaustive;
    MatchingSolution oracle;
    exhaustive.solve(p, oracle);
    EXPECT_FALSE(oracle.valid);
}

TEST(Blossom, DenseEntryAcceptsEitherTriangle)
{
    // maxWeightMatchingDense copies each directed entry as-is, so
    // a caller filling only one triangle (legal historically) gets
    // the same matching as a symmetric fill.
    const int n = 4;
    std::vector<std::vector<long long>> lower(
        n + 1, std::vector<long long>(n + 1, 0));
    // Path 1-2, 3-4 heavy; chord 2-3 light.
    lower[2][1] = 10;
    lower[4][3] = 10;
    lower[3][2] = 1;
    std::vector<std::vector<long long>> symmetric = lower;
    for (int u = 1; u <= n; ++u) {
        for (int v = 1; v <= n; ++v) {
            if (lower[u][v]) {
                symmetric[v][u] = lower[u][v];
            }
        }
    }
    const std::vector<int> from_lower =
        maxWeightMatchingDense(lower);
    const std::vector<int> from_symmetric =
        maxWeightMatchingDense(symmetric);
    for (int u = 1; u <= n; ++u) {
        EXPECT_EQ(from_lower[u], from_symmetric[u]) << u;
    }
    EXPECT_EQ(from_lower[1], 2);
    EXPECT_EQ(from_lower[3], 4);
}

TEST(Blossom, SolverReuseMatchesFreshSolves)
{
    // One BlossomSolver cycled over instances of varying size must
    // reproduce the one-shot results exactly (stale-state guard
    // for the workspace reuse contract).
    Rng rng(0xb10550);
    BlossomSolver solver;
    MatchingSolution reused;
    for (int trial = 0; trial < 60; ++trial) {
        const int n = 1 + static_cast<int>(rng.next64() % 10);
        const MatchingProblem p =
            randomProblem(rng, n, 0.2, true);
        solver.solve(p, reused);
        const MatchingSolution fresh = solveBlossom(p);
        ASSERT_EQ(reused.valid, fresh.valid) << trial;
        if (!fresh.valid) {
            continue;
        }
        EXPECT_EQ(reused.mate, fresh.mate) << trial;
        EXPECT_DOUBLE_EQ(reused.totalWeight, fresh.totalWeight)
            << trial;
    }
}

TEST(Matching, MatchingWeightFlagsDisallowedPairing)
{
    // Regression: matchingWeight used to silently sum kNoEdge
    // into the total when a solution used a disallowed
    // pairing; it must report valid=false instead.
    MatchingProblem p;
    p.n = 2;
    p.pairWeight.assign(4, kNoEdge); // Pairing 0-1 is illegal.
    p.boundaryWeight.assign(2, 96);

    MatchingSolution bad;
    bad.mate = {1, 0};
    bad.valid = true;
    EXPECT_EQ(matchingWeight(p, bad), kNoEdge);
    EXPECT_FALSE(bad.valid);

    MatchingSolution boundary;
    boundary.mate = {-1, -1};
    boundary.valid = true;
    EXPECT_EQ(matchingWeight(p, boundary), 192);
    EXPECT_TRUE(boundary.valid);

    // Disallowed boundary matches are caught too.
    p.boundaryWeight[1] = kNoEdge;
    MatchingSolution badBoundary;
    badBoundary.mate = {-1, -1};
    badBoundary.valid = true;
    EXPECT_EQ(matchingWeight(p, badBoundary), kNoEdge);
    EXPECT_FALSE(badBoundary.valid);
}

TEST(Exhaustive, CountsMatchingsWithoutPruning)
{
    // With uniform weights the pruning bound never fires before a
    // first solution exists, but we only check the oracle's result.
    MatchingProblem p;
    p.n = 4;
    p.pairWeight.assign(16, kNoEdge);
    p.boundaryWeight.assign(4, 64);
    for (int i = 0; i < 4; ++i) {
        for (int j = i + 1; j < 4; ++j) {
            p.setPair(i, j, 64);
        }
    }
    ExhaustiveSolver exhaustive;
    MatchingSolution s;
    exhaustive.solve(p, s);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.totalWeight, 2.0); // Two pair matches.
}

} // namespace
} // namespace qec
