// Open-loop constant-throughput load driver (wrk2-style) for the
// asynchronous batch path.
//
// The paper measures Figure 5 with wrk2, which fixes the *offered* request
// rate and measures latency from each request's scheduled send time — the
// discipline that avoids coordinated omission (a closed-loop generator
// would slow down with the server and hide queueing delay). This driver
// offers that schedule to one PrivateSearchClient through try_submit/wait,
// so the client's own batch lanes are the server under test.
//
// The dispatcher sleeps until each request is due (absolute
// CLOCK_MONOTONIC, 1 ns timer slack) instead of spinning, so it does not
// take a core from the system it measures. A sleeping dispatcher can wake
// late; a request is still charged from its scheduled instant, and the
// report carries the dispatcher's lateness so a late generator is visible
// rather than hidden.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "api/client.hpp"
#include "common/clock.hpp"
#include "common/histogram.hpp"

namespace xsearch::api {

struct LoadConfig {
  /// Offered request rate (requests/second).
  double target_rps = 1000.0;
  /// Length of the offered schedule.
  Nanos duration = 500 * kMilli;
};

struct LoadReport {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  /// Requests the client refused (batch queue full): offered, not served.
  std::uint64_t dropped = 0;
  Histogram latency;   // nanoseconds, scheduled send to completion
  Histogram lateness;  // nanoseconds, scheduled send to actual submit

  [[nodiscard]] double p50_ms() const {
    return static_cast<double>(latency.percentile(50)) / static_cast<double>(kMilli);
  }
  [[nodiscard]] double p99_ms() const {
    return static_cast<double>(latency.percentile(99)) / static_cast<double>(kMilli);
  }
  [[nodiscard]] double mean_ms() const {
    return latency.mean() / static_cast<double>(kMilli);
  }
  [[nodiscard]] double late_us_p50() const {
    return static_cast<double>(lateness.percentile(50)) / static_cast<double>(kMicro);
  }
  [[nodiscard]] double late_us_max() const {
    return static_cast<double>(lateness.max()) / static_cast<double>(kMicro);
  }
};

/// Offers `config.target_rps` requests/s to `client` via `try_submit` for
/// `config.duration`, waits for every accepted request, and reports
/// latency from each request's scheduled send time. `next_query` supplies
/// one query text per request; it is called from the dispatcher thread
/// only, before that request's due time. Parallelism comes from the
/// client's batch lanes (`ClientConfig::batch_workers`).
[[nodiscard]] LoadReport run_open_loop_batch(
    PrivateSearchClient& client, const std::function<std::string()>& next_query,
    const LoadConfig& config);

}  // namespace xsearch::api
