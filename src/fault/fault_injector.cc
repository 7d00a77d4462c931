#include "fault/fault_injector.h"

#include <chrono>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

// The crash-point message marker IsInjectedCrash keys on. Kept unique
// enough that no organic Internal error matches it.
constexpr std::string_view kCrashMarker = "injected crash-point";

}  // namespace

std::string_view FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kActivityExecute: return "activity_execute";
    case FaultSite::kRecordSetScan: return "recordset_scan";
    case FaultSite::kRecordSetAppend: return "recordset_append";
    case FaultSite::kThreadPoolTask: return "thread_pool_task";
    case FaultSite::kServiceRequest: return "service_request";
    case FaultSite::kSearchExecute: return "search_execute";
    case FaultSite::kPlanCacheSave: return "plan_cache_save";
    case FaultSite::kPlanCacheLoad: return "plan_cache_load";
    case FaultSite::kCheckpointWrite: return "checkpoint_write";
    case FaultSite::kCheckpointRead: return "checkpoint_read";
    case FaultSite::kStreamSourceNext: return "stream.source_next";
    case FaultSite::kStreamStateCheckpoint: return "stream.state_checkpoint";
    case FaultSite::kVectorizedBatch: return "engine.vectorized_batch";
    case FaultSite::kNetAccept: return "net.accept";
    case FaultSite::kNetRead: return "net.read";
    case FaultSite::kNetWrite: return "net.write";
    case FaultSite::kCacheLookup: return "cache.lookup";
    case FaultSite::kCacheMaterialize: return "cache.materialize";
    case FaultSite::kRecoveryPlaceCheckpoint:
      return "recovery.place_checkpoint";
  }
  return "unknown";
}

const std::array<FaultSite, kNumFaultSites>& AllFaultSites() {
  static const std::array<FaultSite, kNumFaultSites> sites = {
      FaultSite::kActivityExecute, FaultSite::kRecordSetScan,
      FaultSite::kRecordSetAppend, FaultSite::kThreadPoolTask,
      FaultSite::kServiceRequest,  FaultSite::kSearchExecute,
      FaultSite::kPlanCacheSave,   FaultSite::kPlanCacheLoad,
      FaultSite::kCheckpointWrite, FaultSite::kCheckpointRead,
      FaultSite::kStreamSourceNext, FaultSite::kStreamStateCheckpoint,
      FaultSite::kVectorizedBatch,  FaultSite::kNetAccept,
      FaultSite::kNetRead,          FaultSite::kNetWrite,
      FaultSite::kCacheLookup,      FaultSite::kCacheMaterialize,
      FaultSite::kRecoveryPlaceCheckpoint,
  };
  return sites;
}

FaultSchedule MakeRandomFaultSchedule(uint64_t seed,
                                      const FaultScheduleOptions& options) {
  Rng rng(seed);
  FaultSchedule schedule;
  schedule.faults.reserve(options.num_faults);
  constexpr double kErrorWeight = 0.6;
  constexpr double kDelayWeight = 0.2;
  constexpr double kCrashWeight = 0.2;
  for (size_t i = 0; i < options.num_faults; ++i) {
    FaultSpec spec;
    spec.site = AllFaultSites()[rng.UniformIndex(kNumFaultSites)];
    spec.hit = options.max_hit == 0 ? 0 : rng.Next() % options.max_hit;
    double draw =
        rng.UniformDouble() * (kErrorWeight + kDelayWeight + kCrashWeight);
    if (draw < kErrorWeight) {
      spec.kind = FaultKind::kError;
    } else if (draw < kErrorWeight + kDelayWeight) {
      spec.kind = FaultKind::kDelay;
    } else {
      spec.kind = FaultKind::kCrash;
    }
    spec.delay_micros = options.delay_micros;
    schedule.faults.push_back(spec);
  }
  return schedule;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(FaultSchedule schedule) {
  // Stop concurrent hits from reading the tables mid-rebuild.
  armed_.store(false, std::memory_order_seq_cst);
  for (int i = 0; i < kNumFaultSites; ++i) {
    schedule_[i].clear();
    hits_[i].store(0, std::memory_order_relaxed);
    fired_[i].store(0, std::memory_order_relaxed);
  }
  for (const FaultSpec& spec : schedule.faults) {
    schedule_[static_cast<int>(spec.site)][spec.hit] = spec;
  }
  armed_.store(true, std::memory_order_seq_cst);
}

void FaultInjector::Disarm() {
  armed_.store(false, std::memory_order_seq_cst);
}

Status FaultInjector::Hit(FaultSite site) {
  if (!armed_.load(std::memory_order_relaxed)) return Status::OK();
  const int index = static_cast<int>(site);
  const uint64_t hit = hits_[index].fetch_add(1, std::memory_order_relaxed);
  const auto& site_schedule = schedule_[index];
  if (site_schedule.empty()) return Status::OK();
  auto it = site_schedule.find(hit);
  if (it == site_schedule.end()) return Status::OK();
  const FaultSpec& spec = it->second;
  fired_[index].fetch_add(1, std::memory_order_relaxed);
  switch (spec.kind) {
    case FaultKind::kError:
      return Status::Unavailable(
          StrFormat("injected fault at %s#%llu",
                    std::string(FaultSiteName(site)).c_str(),
                    static_cast<unsigned long long>(hit)));
    case FaultKind::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(spec.delay_micros));
      return Status::OK();
    case FaultKind::kCrash:
      return Status::Internal(
          StrFormat("%s at %s#%llu",
                    std::string(kCrashMarker).c_str(),
                    std::string(FaultSiteName(site)).c_str(),
                    static_cast<unsigned long long>(hit)));
  }
  return Status::OK();
}

FaultStats FaultInjector::Stats() const {
  FaultStats stats;
  for (int i = 0; i < kNumFaultSites; ++i) {
    stats.hits[i] = hits_[i].load(std::memory_order_relaxed);
    stats.fired[i] = fired_[i].load(std::memory_order_relaxed);
  }
  return stats;
}

bool IsInjectedCrash(const Status& status) {
  return status.IsInternal() &&
         status.message().find(kCrashMarker) != std::string::npos;
}

}  // namespace etlopt
