// RetryPolicy: shared retry/backoff configuration for the recoverable
// executor and the optimizer service.
//
// A retry masks *transient* failures (Unavailable, IOError — the codes
// the fault injector and flaky storage produce); every other code is
// treated as deterministic and surfaces immediately. Backoff is
// exponential with optional jitter, drawn from an explicitly seeded Rng
// so retry timing is reproducible in tests.

#ifndef ETLOPT_COMMON_RETRY_H_
#define ETLOPT_COMMON_RETRY_H_

#include <cstdint>
#include <functional>

#include "common/random.h"
#include "common/status.h"

namespace etlopt {

struct RetryPolicy {
  /// Total attempts, including the first (1 = no retries).
  int max_attempts = 3;
  /// Backoff before the first retry; doubles (see multiplier) after each.
  int64_t initial_backoff_millis = 1;
  /// Backoff growth factor per retry.
  double backoff_multiplier = 2.0;
  /// Ceiling on any single backoff.
  int64_t max_backoff_millis = 1000;
  /// Fraction of each backoff randomized away: the sleep is drawn
  /// uniformly from [backoff * (1 - jitter), backoff]. 0 = deterministic.
  double jitter = 0.5;
};

/// Seed of every retry loop's backoff jitter, so retry timing is
/// reproducible.
inline constexpr uint64_t kRetrySeed = 42;

/// Rejects nonsensical policies (max_attempts < 1, zero/negative backoff,
/// multiplier < 1, max_backoff < initial_backoff, jitter outside [0, 1])
/// with InvalidArgument. Mirrors ValidateSearchOptions: every entry point
/// that takes a policy validates it before doing any work.
Status ValidateRetryPolicy(const RetryPolicy& policy);

/// True for codes a retry can plausibly fix: Unavailable and IOError.
bool IsRetryableStatus(const Status& status);

/// The jittered backoff before retry number `retry` (0-based: the sleep
/// between attempt 1 and attempt 2 is retry 0). Requires a validated
/// policy.
int64_t BackoffMillis(const RetryPolicy& policy, int retry, Rng& rng);

/// Runs `attempt` up to policy.max_attempts times, sleeping the jittered
/// backoff between attempts, until it returns OK or a non-retryable
/// status. `what` labels the operation in the final error's context.
/// Increments *retries (when given) once per performed retry.
Status RetryWithBackoff(const RetryPolicy& policy, Rng& rng, const char* what,
                        const std::function<Status()>& attempt,
                        uint64_t* retries = nullptr);

}  // namespace etlopt

#endif  // ETLOPT_COMMON_RETRY_H_
