#include "api/load_driver.hpp"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <exception>
#include <thread>
#include <utility>

#include "common/queue.hpp"

namespace xsearch::api {

namespace {

/// Accepted requests awaiting collection; far more than a batch queue holds.
constexpr std::size_t kMaxPending = 1 << 16;

struct Pending {
  Ticket ticket = kInvalidTicket;
  Nanos late = 0;  // submit entry minus scheduled instant
};

/// Sleeps until `when` on wall_now()'s clock (steady_clock is
/// CLOCK_MONOTONIC), resuming after signals.
void sleep_until(Nanos when) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(when / kSecond);
  ts.tv_nsec = static_cast<long>(when % kSecond);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

}  // namespace

LoadReport run_open_loop_batch(PrivateSearchClient& client,
                               const std::function<std::string()>& next_query,
                               const LoadConfig& config) {
  LoadReport report;
  report.offered_rps = config.target_rps;
  if (config.target_rps <= 0 || config.duration <= 0) return report;

  BoundedQueue<Pending> pending(kMaxPending);
  const double interval_ns = static_cast<double>(kSecond) / config.target_rps;
  // A short lead, so the first request is not late by the thread spawn.
  const Nanos start = wall_now() + kMilli;
  const Nanos end = start + config.duration;

  // The dispatcher owns issued/dropped/lateness, the collector below owns
  // completed/latency; neither reads the other's until the join.
  std::exception_ptr failure;  // from next_query or try_submit
  std::thread dispatcher([&] {
    // Wake at the due instant, not up to the default 50 us slack after it.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    try {
      for (std::uint64_t i = 0;; ++i) {
        const Nanos scheduled =
            start + static_cast<Nanos>(static_cast<double>(i) * interval_ns);
        if (scheduled >= end) break;
        std::string query = next_query();
        sleep_until(scheduled);
        const Nanos late = std::max<Nanos>(0, wall_now() - scheduled);
        report.lateness.record(late);
        ++report.issued;
        const Ticket ticket = client.try_submit(std::move(query));
        if (ticket == kInvalidTicket) {
          // Batch queue full: the request was offered but the client lost
          // it — dropped, not delayed (delaying would hide the overload).
          ++report.dropped;
        } else {
          (void)pending.push({ticket, late});
        }
      }
    } catch (...) {
      failure = std::current_exception();  // rethrown after the join
    }
    pending.close();
  });

  // submit() stamps an outcome's latency from its own entry; adding the
  // dispatcher's lateness charges the request from its scheduled instant,
  // so a late wake-up cannot hide queueing (coordinated omission).
  while (auto next = pending.pop()) {
    const SearchOutcome outcome = client.wait(next->ticket);
    report.latency.record(next->late + outcome.latency);
    ++report.completed;
  }
  dispatcher.join();
  if (failure) std::rethrow_exception(failure);

  // Measured over the whole schedule at least: at low rates the last reply
  // lands before the schedule ends, which would overstate the rate.
  const Nanos elapsed = std::max(wall_now() - start, config.duration);
  report.achieved_rps = static_cast<double>(report.completed) *
                        static_cast<double>(kSecond) / static_cast<double>(elapsed);
  return report;
}

}  // namespace xsearch::api
