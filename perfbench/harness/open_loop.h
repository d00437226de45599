// Open-loop arrival schedule and due-time latency accounting.
//
// An open-loop generator sends each request at its scheduled due time
// regardless of how earlier requests fare, so a stall delays every later
// request too. Latency is therefore timed from the due time, not from the
// moment the request was actually sent; the difference (send - due) is
// the generator's own lateness, reported separately as a health check.

#ifndef PERFBENCH_HARNESS_OPEN_LOOP_H_
#define PERFBENCH_HARNESS_OPEN_LOOP_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// Arrivals at a fixed rate over [0, seconds): due offsets in nanoseconds
// from the schedule start. Arrival i is due at (i + u_i) / rate_per_s with
// u_i drawn uniformly from [0.25, 0.75) by `seed`, so gaps stay within
// half and one and a half periods: a seeded schedule without the bursts
// of Poisson arrivals, which a generator capped at a few connections
// would send late.
std::vector<std::uint64_t> FixedRateSchedule(double rate_per_s, double seconds,
                                             std::uint64_t seed);

// One request's timestamps on a shared clock: due (schedule start + due
// offset), sent, and response complete.
struct Arrival {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;

  // Client-visible latency: from due time to response.
  double LatencyMs() const {
    return done_ns > due_ns ? static_cast<double>(done_ns - due_ns) * 1e-6
                            : 0.0;
  }
  // How late the generator sent the request (0 when on time).
  double LateMs() const {
    return sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) * 1e-6
                            : 0.0;
  }
  // Time from send to response (what a closed-loop client would see).
  double ServiceMs() const {
    return done_ns > sent_ns ? static_cast<double>(done_ns - sent_ns) * 1e-6
                             : 0.0;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_OPEN_LOOP_H_
