#include "qec/graph/distance_oracle.hpp"

#include <bit>

#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
DistanceOracle::bind(const DecodingGraph &graph)
{
    // A different graph may occupy the address of the last one
    // (e.g. re-emplaced in the same std::optional), so the sizes are
    // checked too before the scratch is trusted.
    const size_t slots = std::bit_ceil(
        static_cast<size_t>(graph.maxEdgeWeight()) + 1);
    if (graph_ == &graph && n_ == graph.numDetectors() &&
        head_.size() == slots) {
        return;
    }
    graph_ = &graph;
    n_ = graph.numDetectors();
    rt::assignFill(labels_, n_, PathLabel{});
    rt::assignFill(targetSlot_, n_, uint32_t{kNoEntry});
    rt::assignFill(head_, slots, uint32_t{kNoEntry});
    rt::assignFill(occupied_, (slots + 63) / 64, uint64_t{0});
    pool_.clear();
    queued_ = 0;
}

inline void
DistanceOracle::push(uint32_t dist, uint32_t node)
{
    const size_t slot = dist & (head_.size() - 1);
    occupied_[slot / 64] |= uint64_t{1} << (slot % 64);
    rt::pushBack(pool_, Entry{node, head_[slot]});
    head_[slot] = static_cast<uint32_t>(pool_.size() - 1);
    ++queued_;
}

bool
DistanceOracle::pop(uint32_t &node)
{
    const size_t slots = head_.size();
    size_t slot = curDist_ & (slots - 1);
    if (head_[slot] == kNoEntry) {
        if (queued_ == 0) {
            return false;
        }
        // Next occupied slot in ring order from the current one
        // (header: every live distance is within one ring turn).
        size_t word = slot / 64;
        uint64_t bits = occupied_[word] & (~uint64_t{0} << (slot % 64));
        while (bits == 0) {
            word = (word + 1) % occupied_.size();
            bits = occupied_[word];
        }
        const size_t next = word * 64 + std::countr_zero(bits);
        curDist_ += (next - slot) & (slots - 1);
        slot = next;
    }
    const Entry &entry = pool_[head_[slot]];
    node = entry.node;
    head_[slot] = entry.next;
    --queued_;
    if (head_[slot] == kNoEntry) {
        occupied_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
    }
    return true;
}

void
DistanceOracle::grow(uint32_t src, std::span<const uint32_t> targets,
                     std::span<const Weight> bounds, PathCell *out)
{
    QEC_REALTIME;
    QEC_ASSERT(graph_ != nullptr, "DistanceOracle is not bound");
    QEC_ASSERT(bounds.size() == targets.size(),
               "one bound per target");
    size_t remaining = targets.size();
    rt::resizeTo(byBound_, targets.size());
    for (size_t k = 0; k < targets.size(); ++k) {
        out[k] = PathCell{};
        targetSlot_[targets[k]] = static_cast<uint32_t>(k);
        // Insertion sort by descending bound: target lists are a
        // few dozen entries at most.
        size_t pos = k;
        for (; pos > 0 && bounds[byBound_[pos - 1]] < bounds[k];
             --pos) {
            byBound_[pos] = byBound_[pos - 1];
        }
        byBound_[pos] = static_cast<uint32_t>(k);
    }
    size_t widest = 0; //!< First unsettled entry of byBound_.

    // Reset the labels the last query lowered and empty the ring of
    // its leftovers (a truncated search stops with nodes still
    // queued); the pool lists every node that query queued.
    for (const Entry &entry : pool_) {
        labels_[entry.node] = PathLabel{};
    }
    for (size_t word = 0; word < occupied_.size(); ++word) {
        for (uint64_t bits = occupied_[word]; bits != 0;
             bits &= bits - 1) {
            head_[word * 64 + std::countr_zero(bits)] = kNoEntry;
        }
        occupied_[word] = 0;
    }
    pool_.clear();
    queued_ = 0;
    curDist_ = 0;
    labels_[src] = PathLabel::of(0, 0, 0);
    push(0, src);

    // A target is settled exactly when its out cell is finite.
    uint32_t u = 0;
    while (remaining > 0 && pop(u)) {
        const PathLabel lu = labels_[u];
        if (lu.dist() != curDist_) {
            continue; // Stale: u was queued again closer.
        }
        while (out[byBound_[widest]].dist != kNoPath) {
            ++widest; // Stops: some target is still unsettled.
        }
        if (lu.dist() > bounds[byBound_[widest]]) {
            break; // Past every unsettled target's bound.
        }
        if (targetSlot_[u] != kNoEntry) {
            out[targetSlot_[u]] = lu.cell();
            --remaining;
        }
        relaxPairEdges(
            *graph_, u, lu,
            [this](uint32_t v) -> PathLabel & { return labels_[v]; },
            [this](uint32_t v) { push(labels_[v].dist(), v); });
    }
    for (const uint32_t target : targets) {
        targetSlot_[target] = kNoEntry;
    }
}

void
readPairCells(const PathTable &paths, DistanceOracle &oracle,
              uint32_t src, std::span<const uint32_t> targets,
              std::span<const Weight> bounds, PathCell *out)
{
    if (targets.empty()) {
        return;
    }
    if (!paths.pairsAvailable()) {
        oracle.bind(paths.graph());
        oracle.grow(src, targets, bounds, out);
        return;
    }
    const PathCell *row = paths.row(src);
    for (size_t k = 0; k < targets.size(); ++k) {
        out[k] = row[targets[k]];
    }
}

} // namespace qec
