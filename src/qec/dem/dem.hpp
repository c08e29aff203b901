/**
 * @file
 * Detector error model (DEM).
 *
 * A DEM is the decoder-facing summary of a noisy circuit: a list of
 * independent error mechanisms, each with a probability, the set of
 * detectors it flips, and the logical observables it flips. This is
 * our substitute for Stim's detector_error_model() (DESIGN.md §2).
 */

#ifndef QEC_DEM_DEM_HPP
#define QEC_DEM_DEM_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace qec
{

/**
 * A DEM that violates its own dimensions (a mechanism naming a
 * detector past numDetectors, or an undetectable logical error).
 * Thrown, not asserted: DEMs cross the trust boundary when they are
 * imported from external circuit models, and one bad model must not
 * abort a process serving others.
 */
class DemError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One independent error mechanism. */
struct DemMechanism
{
    /** Detectors flipped (sorted, deduplicated). */
    std::vector<uint32_t> dets;
    /** Bitmask of flipped observables (bit o = observable o). */
    uint64_t obsMask = 0;
    /** Probability that this mechanism fires. */
    double prob = 0.0;
};

/** A detector error model: mechanisms plus dimension metadata. */
class DetectorErrorModel
{
  public:
    DetectorErrorModel() = default;
    DetectorErrorModel(uint32_t num_detectors, uint32_t num_observables)
        : numDetectors_(num_detectors), numObservables_(num_observables)
    {
    }

    uint32_t numDetectors() const { return numDetectors_; }
    uint32_t numObservables() const { return numObservables_; }

    const std::vector<DemMechanism> &mechanisms() const
    {
        return mechanisms_;
    }

    /**
     * Add a mechanism, merging with an existing one that has the same
     * detector set and observable mask. Merging uses XOR-combination
     * (p = p1(1-p2) + p2(1-p1)): the symptom appears iff an odd
     * number of the underlying faults fire.
     *
     * Throws DemError when the probability is NaN or >= 1, a
     * detector index is out of range, or the mechanism is an
     * undetectable logical error (flips observables but no
     * detectors); p <= 0 inputs are dropped silently.
     */
    void addMechanism(std::vector<uint32_t> dets, uint64_t obs_mask,
                      double prob);

    /** Sum of mechanism probabilities (expected faults per shot). */
    double expectedMechanisms() const;

    /** Human-readable dump for debugging. */
    std::string str() const;

  private:
    uint32_t numDetectors_ = 0;
    uint32_t numObservables_ = 0;
    std::vector<DemMechanism> mechanisms_;
    // Index from hashed (detector set, obs mask) to mechanism position.
    std::unordered_multimap<uint64_t, uint32_t> index_;

    int findMechanism(const std::vector<uint32_t> &dets,
                      uint64_t obs_mask, uint64_t hash) const;
};

/** XOR-combine two independent event probabilities. */
double xorProbability(double a, double b);

} // namespace qec

#endif // QEC_DEM_DEM_HPP
