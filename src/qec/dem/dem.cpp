#include "qec/dem/dem.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "qec/util/assert.hpp"

namespace qec
{

double
xorProbability(double a, double b)
{
    return a * (1.0 - b) + b * (1.0 - a);
}

namespace
{

uint64_t
hashDets(const std::vector<uint32_t> &dets, uint64_t obs_mask)
{
    uint64_t h = 0x9e3779b97f4a7c15ull ^ obs_mask;
    for (uint32_t d : dets) {
        h ^= d + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
}

} // namespace

int
DetectorErrorModel::findMechanism(const std::vector<uint32_t> &dets,
                                  uint64_t obs_mask,
                                  uint64_t hash) const
{
    auto [begin, end] = index_.equal_range(hash);
    for (auto it = begin; it != end; ++it) {
        const uint32_t pos = it->second;
        if (mechanisms_[pos].dets == dets &&
            mechanisms_[pos].obsMask == obs_mask) {
            return static_cast<int>(pos);
        }
    }
    return -1;
}

void
DetectorErrorModel::addMechanism(std::vector<uint32_t> dets,
                                 uint64_t obs_mask, double prob)
{
    // Untrusted entry path (imported DEMs): recoverable throws, so
    // one bad external model fails alone instead of aborting.
    if (!(prob < 1.0)) {
        throw DemError("mechanism probability " +
                       std::to_string(prob) +
                       " is not below 1 (or is NaN)");
    }
    if (prob <= 0.0) {
        return;
    }
    std::sort(dets.begin(), dets.end());
    // Repeated detectors cancel pairwise.
    std::vector<uint32_t> unique;
    for (size_t i = 0; i < dets.size();) {
        size_t j = i;
        while (j < dets.size() && dets[j] == dets[i]) {
            ++j;
        }
        if ((j - i) % 2) {
            unique.push_back(dets[i]);
        }
        i = j;
    }
    if (unique.empty() && obs_mask == 0) {
        return; // Invisible and harmless.
    }
    if (unique.empty() && obs_mask != 0) {
        throw DemError("undetectable logical error mechanism "
                       "(distance-0 circuit?)");
    }
    for (uint32_t d : unique) {
        if (d >= numDetectors_) {
            throw DemError("mechanism detector index " +
                           std::to_string(d) +
                           " out of range (model declares " +
                           std::to_string(numDetectors_) +
                           " detectors)");
        }
    }

    const uint64_t h = hashDets(unique, obs_mask);
    const int existing = findMechanism(unique, obs_mask, h);
    if (existing >= 0) {
        mechanisms_[existing].prob =
            xorProbability(mechanisms_[existing].prob, prob);
        return;
    }
    index_.emplace(h, static_cast<uint32_t>(mechanisms_.size()));
    mechanisms_.push_back({std::move(unique), obs_mask, prob});
}

double
DetectorErrorModel::expectedMechanisms() const
{
    double total = 0.0;
    for (const DemMechanism &m : mechanisms_) {
        total += m.prob;
    }
    return total;
}

std::string
DetectorErrorModel::str() const
{
    std::ostringstream out;
    out << "DEM with " << mechanisms_.size() << " mechanisms over "
        << numDetectors_ << " detectors\n";
    for (const DemMechanism &m : mechanisms_) {
        out << "  p=" << m.prob << " dets={";
        for (size_t i = 0; i < m.dets.size(); ++i) {
            out << (i ? "," : "") << m.dets[i];
        }
        out << "} obs=" << m.obsMask << "\n";
    }
    return out.str();
}

} // namespace qec
