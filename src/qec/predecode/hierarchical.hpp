/**
 * @file
 * Model of Delfosse's hierarchical predecoder [20] — NSM.
 *
 * The hierarchical scheme targets bandwidth reduction: it locally
 * resolves the overwhelmingly common weight-1 faults, i.e. isolated
 * vertical (time-like) defect pairs caused by measurement errors and
 * isolated space-like pairs from single data errors, and forwards
 * anything more complex untouched. Like Clique it never lowers the
 * Hamming weight of what the main decoder must handle.
 */

#ifndef QEC_PREDECODE_HIERARCHICAL_HPP
#define QEC_PREDECODE_HIERARCHICAL_HPP

#include "qec/predecode/predecoder.hpp"

namespace qec
{

/** NSM predecoder for isolated weight-1 fault patterns. */
class HierarchicalPredecoder : public Predecoder
{
  public:
    using Predecoder::Predecoder;

    void predecode(std::span<const uint32_t> defects,
                   long long cycle_budget,
                   DecodeWorkspace &workspace,
                   PredecodeResult &result) override;

    std::unique_ptr<Predecoder>
    clone() const override
    {
        return std::make_unique<HierarchicalPredecoder>(graph_,
                                                        paths_);
    }

    std::string name() const override { return "Hierarchical"; }
};

} // namespace qec

#endif // QEC_PREDECODE_HIERARCHICAL_HPP
