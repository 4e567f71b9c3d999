/**
 * @file
 * Seeded request stream of the serve-estimates workload.  The stream
 * is regenerated from the workload seed on every run and never
 * stored.  Make-up, per request index i:
 *
 *  - i % 100 == 0: the paper's default factoring request
 *    {"kind":"factoring"} (the 2048-bit RSA headline);
 *  - otherwise, with probability 1/5 (and once there is an earlier
 *    request to copy): a byte-identical copy of a uniformly chosen
 *    earlier non-default request;
 *  - otherwise a fresh request of one of the six closed-form kinds,
 *    chosen uniformly, with continuous parameters drawn uniformly
 *    from the ranges in stream.cc (all inside each estimator's
 *    feasible domain, so no request fails).
 */

#ifndef TRAQ_PERFBENCH_STREAM_HH
#define TRAQ_PERFBENCH_STREAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** The six closed-form estimator kinds the stream draws from. */
inline constexpr const char *kKinds[] = {
    "factoring",      "chemistry",      "gidney-ekera",
    "qldpc-storage",  "factory-design", "idle-storage"};

struct StreamItem
{
    std::string line;        //!< one request JSON line (no newline)
    std::int64_t dupOf = -1; //!< index of the first copy, or -1
};

std::vector<StreamItem> makeStream(std::uint64_t seed, std::size_t n);

} // namespace perfbench

#endif // TRAQ_PERFBENCH_STREAM_HH
