#include "qec/harness/importance_sampler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "qec/util/assert.hpp"

namespace qec
{

namespace
{

/** k_max, once the constructor's inputs are known to be usable
 *  (checked before anything is sized by k_max). */
int
checkedKMax(const DetectorErrorModel &dem, int k_max)
{
    if (dem.mechanisms().empty()) {
        throw DemError("empty detector error model: no mechanism "
                       "can fire");
    }
    if (k_max < 1) {
        throw std::invalid_argument("k_max must be at least 1, got " +
                                    std::to_string(k_max));
    }
    return k_max;
}

} // namespace

ImportanceSampler::ImportanceSampler(const DetectorErrorModel &dem,
                                     int k_max)
    : dem_(dem), kMax_(checkedKMax(dem, k_max)),
      po(static_cast<size_t>(kMax_) + 1, 0.0)
{
    const auto &mechanisms = dem.mechanisms();
    // Probabilities must lie in [0, 1): p == 1 breaks both the DP
    // (the 1-p factors collapse) and the p/(1-p) draw weights below,
    // and negative or >1 values are corrupt input. At least one
    // mechanism must be able to fire, or conditional sampling has
    // nothing to draw from.
    for (const DemMechanism &m : mechanisms) {
        QEC_ASSERT(m.prob >= 0.0 && m.prob < 1.0,
                   "mechanism probability must be in [0, 1)");
        positive_ += m.prob > 0.0 ? 1 : 0;
    }
    QEC_ASSERT(positive_ > 0,
               "all mechanism probabilities are zero");

    // Exact Poisson-binomial DP over the fault count, truncated at
    // k_max (the tail above k_max is irrelevant for Eq. 1). The
    // inner loop must run all the way up to kMax_: capping it lower
    // silently drops the mass above the cap, so occurrenceProb()
    // would underreport for models whose fault count concentrates
    // past it (regression-tested in tests/test_harness.cpp).
    po[0] = 1.0;
    for (const DemMechanism &m : mechanisms) {
        lambda += m.prob;
        for (int k = kMax_; k >= 1; --k) {
            po[k] = po[k] * (1.0 - m.prob) + po[k - 1] * m.prob;
        }
        po[0] *= (1.0 - m.prob);
    }

    cumulative.reserve(mechanisms.size());
    double acc = 0.0;
    for (const DemMechanism &m : mechanisms) {
        acc += m.prob / (1.0 - m.prob);
        cumulative.push_back(acc);
    }
    // Cache-resident draw index: the per-draw upper-bound search is
    // the sample stage's hot loop (42% of the pinball stack's serial
    // time before this), and the Eytzinger layout keeps its first
    // probe levels in cache instead of striding across the whole
    // prefix-sum array. Bit-identical ranks (see eytzinger.hpp).
    draw_.build(cumulative);
}

void
ImportanceSampler::sample(int k, Rng &rng, Sample &out) const
{
    QEC_ASSERT(k >= 1 && k <= kMax_, "k out of range");
    // k distinct draws need k mechanisms that can fire; past that the
    // rejection loop below could only spin.
    QEC_ASSERT(static_cast<size_t>(k) <= positive_,
               "k exceeds the number of positive-probability "
               "mechanisms");
    const auto &mechanisms = dem_.mechanisms();
    const double total = cumulative.back();
    out.obsMask = 0;

    // Draw k distinct mechanisms, weight-proportionally, by
    // rejection on duplicates (k << M so collisions are rare).
    std::vector<uint32_t> &chosen = out.chosen;
    chosen.clear();
    int guard = 0;
    while (static_cast<int>(chosen.size()) < k) {
        QEC_ASSERT(++guard < 100000,
                   "importance sampling stuck rejecting duplicates");
        const double u = rng.nextDouble() * total;
        const uint32_t idx = static_cast<uint32_t>(
            std::min<size_t>(draw_.upperBound(u),
                             cumulative.size() - 1));
        if (std::find(chosen.begin(), chosen.end(), idx) ==
            chosen.end()) {
            chosen.push_back(idx);
        }
    }

    // XOR together the symptoms of the chosen mechanisms:
    // concatenate, sort, and collapse odd-parity runs in place
    // (defects doubles as the flip buffer — no transient vector).
    std::vector<uint32_t> &flips = out.defects;
    flips.clear();
    for (uint32_t idx : chosen) {
        const DemMechanism &m = mechanisms[idx];
        flips.insert(flips.end(), m.dets.begin(), m.dets.end());
        out.obsMask ^= m.obsMask;
    }
    std::sort(flips.begin(), flips.end());
    size_t write = 0;
    for (size_t i = 0; i < flips.size();) {
        size_t j = i;
        while (j < flips.size() && flips[j] == flips[i]) {
            ++j;
        }
        if ((j - i) % 2) {
            flips[write++] = flips[i];
        }
        i = j;
    }
    flips.resize(write);
}

ImportanceSampler::Sample
ImportanceSampler::sample(int k, Rng &rng) const
{
    Sample out;
    sample(k, rng, out);
    return out;
}

} // namespace qec
