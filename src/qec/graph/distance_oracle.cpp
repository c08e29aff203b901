#include "qec/graph/distance_oracle.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();

} // namespace

void
DistanceOracle::bind(const DecodingGraph &graph)
{
    // A different graph may occupy the address of the last one
    // (e.g. re-emplaced in the same std::optional), so the detector
    // count is checked too before the scratch is trusted.
    if (graph_ == &graph && n_ == graph.numDetectors()) {
        return;
    }
    graph_ = &graph;
    n_ = graph.numDetectors();
    epoch_ = 0;
    rt::assignFill(labels_, n_, Label{0.0, 0, 0, 0});
    rt::assignFill(targetStamp_, n_, uint32_t{0});
    rt::resizeTo(targetSlot_, n_);
    rt::resizeTo(ring_, kBuckets);
}

void
DistanceOracle::nextEpoch()
{
    if (++epoch_ == 0) {
        // Stamp wraparound: invalidate everything the hard way.
        for (Label &label : labels_) {
            label.stamp = 0;
        }
        std::fill(targetStamp_.begin(), targetStamp_.end(), 0);
        epoch_ = 1;
    }
}

void
DistanceOracle::resetQueue()
{
    // Bucket width from the bound graph's largest pair weight (see
    // the header's bucket-order argument). Read per query, not
    // cached at bind, so it always matches the graph being searched.
    const double max_w = graph_->maxPairWeight();
    invWidth_ = max_w > 0.0 ? (kBuckets - 4) / max_w : 0.0;
    for (std::vector<Entry> &slot : ring_) {
        slot.clear();
    }
    lateHeap_.clear();
    curKey_ = 0;
    pending_ = 0;
}

void
DistanceOracle::push(double dist, uint32_t node)
{
    const auto key = static_cast<uint64_t>(dist * invWidth_);
    if (key <= curKey_) {
        rt::pushBack(lateHeap_, {dist, node});
        std::push_heap(lateHeap_.begin(), lateHeap_.end(),
                       std::greater<>{});
        return;
    }
    rt::pushBack(ring_[key % kBuckets], {dist, node});
    ++pending_;
}

bool
DistanceOracle::pop(Entry &out)
{
    for (;;) {
        std::vector<Entry> &cur = ring_[curKey_ % kBuckets];
        if (!lateHeap_.empty() &&
            (cur.empty() || lateHeap_.front() < cur.back())) {
            std::pop_heap(lateHeap_.begin(), lateHeap_.end(),
                          std::greater<>{});
            out = lateHeap_.back();
            lateHeap_.pop_back();
            return true;
        }
        if (!cur.empty()) {
            out = cur.back();
            cur.pop_back();
            return true;
        }
        if (pending_ == 0) {
            return false;
        }
        do {
            ++curKey_;
        } while (ring_[curKey_ % kBuckets].empty());
        std::vector<Entry> &next = ring_[curKey_ % kBuckets];
        pending_ -= next.size();
        std::sort(next.begin(), next.end(), std::greater<>{});
    }
}

void
DistanceOracle::grow(uint32_t src, std::span<const uint32_t> targets,
                     std::span<const double> bounds, PathCell *out)
{
    QEC_REALTIME;
    QEC_ASSERT(graph_ != nullptr, "DistanceOracle is not bound");
    QEC_ASSERT(bounds.size() == targets.size(),
               "one bound per target");
    const DecodingGraph &graph = *graph_;
    nextEpoch();
    size_t remaining = targets.size();
    rt::resizeTo(byBound_, targets.size());
    for (size_t k = 0; k < targets.size(); ++k) {
        out[k] = PathCell{kInf, 0, 255};
        targetStamp_[targets[k]] = epoch_;
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

    resetQueue();
    labels_[src] = Label{0.0, epoch_, 0, 0};
    push(0.0, src);

    // The relax loop mirrors PathTable::buildPairs (see the header's
    // bit-identity contract). A node is pushed again only with a
    // strictly smaller distance, so the entry whose distance equals
    // its label is the one the table's heap pops first; every other
    // entry is stale (the table's done[] check). A target is settled
    // exactly when its out cell is finite.
    Entry top;
    while (remaining > 0 && pop(top)) {
        const auto [du, u] = top;
        const Label lu = labels_[u];
        if (du != lu.dist) {
            continue;
        }
        while (out[byBound_[widest]].dist != kInf) {
            ++widest; // Stops: some target is still unsettled.
        }
        if (static_cast<double>(static_cast<float>(du)) >
            bounds[byBound_[widest]]) {
            // Frontier past every unsettled target's bound, even
            // after float narrowing (header: per-target truncation).
            break;
        }
        if (targetStamp_[u] == epoch_) {
            PathCell &cell = out[targetSlot_[u]];
            cell.dist = static_cast<float>(du);
            cell.obs = lu.obs;
            cell.hops = static_cast<uint8_t>(
                std::min<uint16_t>(lu.hops, 255));
            --remaining;
        }
        const std::span<const PairHalfEdge> half =
            graph.pairNeighbors(u);
        const std::span<const double> weight = graph.pairWeights(u);
        for (size_t e = 0; e < half.size(); ++e) {
            Label &lw = labels_[half[e].neighbor];
            const double dw = du + weight[e];
            const double old =
                lw.stamp == epoch_
                    ? lw.dist
                    : std::numeric_limits<double>::infinity();
            if (dw < old) {
                lw = Label{dw, epoch_,
                           static_cast<uint16_t>(lu.hops + 1),
                           static_cast<uint8_t>(
                               lu.obs ^ static_cast<uint8_t>(
                                            graph.edgeObsMask(
                                                half[e].edgeId)))};
                push(dw, half[e].neighbor);
            }
        }
    }
}

} // namespace qec
