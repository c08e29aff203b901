/**
 * @file
 * Graphlike decomposition of a detector error model.
 *
 * Matching decoders require every mechanism to flip at most two
 * detectors ("graphlike"). Circuit-level noise produces a minority of
 * composite mechanisms (e.g. a two-qubit depolarizing component whose
 * data half makes a space-like pair while its ancilla half makes a
 * time-like pair). Following Stim's decompose_errors semantics, each
 * composite mechanism is split into blocks that already exist as
 * graphlike mechanisms, preferring a split whose observable masks XOR
 * to the composite's mask.
 */

#ifndef QEC_DEM_DECOMPOSE_HPP
#define QEC_DEM_DECOMPOSE_HPP

#include <cstdint>
#include <limits>
#include <vector>

#include "qec/dem/dem.hpp"

namespace qec
{

/** Sentinel node index for the (virtual) boundary. */
constexpr uint32_t kBoundary = std::numeric_limits<uint32_t>::max();

/** A graphlike error mechanism: one or two detectors. */
struct DemEdge
{
    uint32_t u = 0;         //!< First detector.
    uint32_t v = kBoundary; //!< Second detector or kBoundary.
    uint64_t obsMask = 0;   //!< Observables flipped by this mechanism.
    double prob = 0.0;      //!< Probability the mechanism fires.
};

/** Diagnostics from the decomposition pass. */
struct DecomposeStats
{
    uint32_t compositeMechanisms = 0; //!< Mechanisms with > 2 dets.
    uint32_t obsRelaxed = 0; //!< Split found only ignoring obs masks.
    uint32_t forcedPairings = 0; //!< No atomic split existed at all.
};

/** A fully graphlike detector error model. */
struct GraphlikeDem
{
    uint32_t numDetectors = 0;
    uint32_t numObservables = 0;
    std::vector<DemEdge> edges;
    DecomposeStats stats;
};

/** Decompose an arbitrary DEM into a graphlike one. Throws DemError
 *  for a mechanism that flips more than 16 detectors. */
GraphlikeDem decomposeToGraphlike(const DetectorErrorModel &dem);

} // namespace qec

#endif // QEC_DEM_DECOMPOSE_HPP
