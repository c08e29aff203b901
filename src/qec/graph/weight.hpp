/**
 * @file
 * The one weight domain of every decoder.
 *
 * An edge of probability p weighs log((1-p)/p) nats (§2.2). The
 * decoding graph rounds that weight once, when it is built, to an
 * integer count of kWeightUnit and clamps it to at least one unit.
 * From then on every consumer — path table, oracle, matchers,
 * predecoders — reads and adds integers, so sums are exact and do
 * not depend on the order they are formed in, and two exact
 * matchers that find optima of the same problem report the same
 * total. Totals leave the integer domain only as reported doubles
 * (toNats), which is exact because the unit is a power of two.
 *
 * Weight is the arithmetic type (sums of many edges never overflow
 * it); path distances are stored in 32 bits, with kNoPath marking
 * an unreachable pair. DecodingGraph::fromDem rejects a graph whose
 * longest possible path would not fit.
 */

#ifndef QEC_GRAPH_WEIGHT_HPP
#define QEC_GRAPH_WEIGHT_HPP

#include <cstdint>
#include <limits>

namespace qec
{

/** An integer weight: a count of kWeightUnit. */
using Weight = int64_t;

/** The weight resolution: 2^-6 nat. Fixed, not an option. */
inline constexpr double kWeightUnit = 0x1p-6;

/** Stored path distance (PathCell::dist) of an unreachable pair. */
inline constexpr uint32_t kNoPath = std::numeric_limits<uint32_t>::max();

/** A weight in nats (exact: the unit is a power of two). */
constexpr double
toNats(Weight w)
{
    return static_cast<double>(w) * kWeightUnit;
}

} // namespace qec

#endif // QEC_GRAPH_WEIGHT_HPP
