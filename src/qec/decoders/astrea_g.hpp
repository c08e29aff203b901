/**
 * @file
 * Behavioural model of the Astrea-G decoder [66] (§4.2.3).
 *
 * Astrea-G builds the complete MWPM graph over the flipped bits,
 * prunes edges whose error-chain probability falls below the LER
 * scale, and then runs a greedy near-exhaustive (budgeted
 * branch-and-bound) search over the remaining pairings. Sparse
 * syndromes prune well and decode exactly; dense high-HW syndromes
 * exhaust the search budget and fall back to the best greedy
 * matching found, which is where the paper's 43x accuracy loss at
 * d = 13 comes from.
 */

#ifndef QEC_DECODERS_ASTREA_G_HPP
#define QEC_DECODERS_ASTREA_G_HPP

#include "qec/decoders/decoder.hpp"
#include "qec/decoders/latency.hpp"

namespace qec
{

/** Pruned, budgeted near-exhaustive matching decoder. */
class AstreaGDecoder : public Decoder
{
  public:
    AstreaGDecoder(const DecodingGraph &graph, const PathTable &paths,
                   const LatencyConfig &latency = {})
        : Decoder(graph, paths), latency_(latency)
    {
    }

    /**
     * Decode; search statistics (states expanded, budget
     * truncation) land in DecodeTrace::searchStates /
     * searchTruncated.
     */
    DecodeResult decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace = nullptr) override;

    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<AstreaGDecoder>(graph_, paths_,
                                                latency_);
    }

    std::string name() const override { return "Astrea-G"; }

  private:
    LatencyConfig latency_;
};

} // namespace qec

#endif // QEC_DECODERS_ASTREA_G_HPP
