#include "qec/dem/decompose.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "qec/util/assert.hpp"

namespace qec
{

namespace
{

/** Key for an edge: (u, v) with u < v, or (u, kBoundary). */
using EdgeKey = std::pair<uint32_t, uint32_t>;

EdgeKey
makeKey(uint32_t a, uint32_t b)
{
    if (a > b) {
        std::swap(a, b);
    }
    return {a, b};
}

/** One block of a decomposition: an edge key plus its obs mask. */
struct Block
{
    EdgeKey key;
    uint64_t obsMask;
};

/**
 * Recursive exact partition of `dets` into blocks drawn from
 * `atomic` (pairs and singles that already exist as graphlike
 * mechanisms). Returns the first partition whose obs masks XOR to
 * `target_obs`; if `respect_obs` is false any partition is accepted.
 */
bool
partitionDets(const std::vector<uint32_t> &dets, size_t used_mask,
              const std::map<EdgeKey, std::set<uint64_t>> &atomic,
              uint64_t target_obs, bool respect_obs,
              std::vector<Block> &blocks)
{
    const size_t n = dets.size();
    size_t first = 0;
    while (first < n && (used_mask >> first) & 1) {
        ++first;
    }
    if (first == n) {
        if (!respect_obs) {
            return true;
        }
        uint64_t acc = 0;
        for (const Block &b : blocks) {
            acc ^= b.obsMask;
        }
        return acc == target_obs;
    }

    // Try pairing `first` with each later unused detector.
    for (size_t j = first + 1; j < n; ++j) {
        if ((used_mask >> j) & 1) {
            continue;
        }
        const EdgeKey key = makeKey(dets[first], dets[j]);
        const auto it = atomic.find(key);
        if (it == atomic.end()) {
            continue;
        }
        for (uint64_t obs : it->second) {
            blocks.push_back({key, obs});
            if (partitionDets(dets,
                              used_mask | (1u << first) | (1u << j),
                              atomic, target_obs, respect_obs,
                              blocks)) {
                return true;
            }
            blocks.pop_back();
            if (!respect_obs) {
                break; // Any obs variant is as good as another.
            }
        }
    }

    // Try `first` alone as a boundary block.
    const EdgeKey bkey = makeKey(dets[first], kBoundary);
    const auto bit = atomic.find(bkey);
    if (bit != atomic.end()) {
        for (uint64_t obs : bit->second) {
            blocks.push_back({bkey, obs});
            if (partitionDets(dets, used_mask | (1u << first), atomic,
                              target_obs, respect_obs, blocks)) {
                return true;
            }
            blocks.pop_back();
            if (!respect_obs) {
                break;
            }
        }
    }
    return false;
}

} // namespace

GraphlikeDem
decomposeToGraphlike(const DetectorErrorModel &dem)
{
    GraphlikeDem out;
    out.numDetectors = dem.numDetectors();
    out.numObservables = dem.numObservables();

    // Pass 1: collect atomic (graphlike) mechanisms and the obs-mask
    // variants each edge appears with.
    std::map<EdgeKey, std::set<uint64_t>> atomic;
    for (const DemMechanism &m : dem.mechanisms()) {
        if (m.dets.size() == 1) {
            atomic[makeKey(m.dets[0], kBoundary)].insert(m.obsMask);
        } else if (m.dets.size() == 2) {
            atomic[makeKey(m.dets[0], m.dets[1])].insert(m.obsMask);
        }
    }

    // Accumulate probability per (edge, obs) with XOR combination.
    std::map<std::pair<EdgeKey, uint64_t>, double> edge_probs;
    auto accumulate = [&](EdgeKey key, uint64_t obs, double prob) {
        double &slot = edge_probs[{key, obs}];
        slot = xorProbability(slot, prob);
    };

    // Pass 2: route every mechanism into edges.
    for (const DemMechanism &m : dem.mechanisms()) {
        QEC_ASSERT(!m.dets.empty(), "mechanism with no detectors");
        if (m.dets.size() == 1) {
            accumulate(makeKey(m.dets[0], kBoundary), m.obsMask,
                       m.prob);
            continue;
        }
        if (m.dets.size() == 2) {
            accumulate(makeKey(m.dets[0], m.dets[1]), m.obsMask,
                       m.prob);
            continue;
        }

        ++out.stats.compositeMechanisms;
        if (m.dets.size() > 16) {
            throw DemError("mechanism flips " +
                           std::to_string(m.dets.size()) +
                           " detectors; at most 16 can be "
                           "decomposed");
        }
        std::vector<Block> blocks;
        if (partitionDets(m.dets, 0, atomic, m.obsMask,
                          /*respect_obs=*/true, blocks)) {
            for (const Block &b : blocks) {
                accumulate(b.key, b.obsMask, m.prob);
            }
            continue;
        }
        blocks.clear();
        if (partitionDets(m.dets, 0, atomic, m.obsMask,
                          /*respect_obs=*/false, blocks)) {
            ++out.stats.obsRelaxed;
            for (const Block &b : blocks) {
                accumulate(b.key, b.obsMask, m.prob);
            }
            continue;
        }
        // Last resort: pair consecutive detectors, inventing edges.
        ++out.stats.forcedPairings;
        for (size_t i = 0; i + 1 < m.dets.size(); i += 2) {
            accumulate(makeKey(m.dets[i], m.dets[i + 1]),
                       (i == 0) ? m.obsMask : 0, m.prob);
        }
        if (m.dets.size() % 2) {
            accumulate(makeKey(m.dets.back(), kBoundary), 0, m.prob);
        }
    }

    for (const auto &[key_obs, prob] : edge_probs) {
        const auto &[key, obs] = key_obs;
        out.edges.push_back({key.first, key.second, obs, prob});
    }
    return out;
}

} // namespace qec
