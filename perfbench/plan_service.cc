// plan_service: an open loop of optimize requests over loopback ETLNET1
// to an OptimizerServer, from `threads` client connections.
//
// Why: the median is bound by wire framing, parse and the plan cache;
// the tail is bound by search. No engine runs.
//
// Sizes: a hot set of 8 small and 2 medium workflows (generator seeds
// 8100+), warmed into every server from a plan file made in setup,
// draws 98% of requests (uniformly); every 50th request is a
// never-seen small-family workflow (generator seeds 9100+) that misses
// the plan cache and runs HS with a 100-state budget. The hot set's
// plans (a few hundred KB) fit the default 64 MiB plan cache. Both sets
// are fixed so that every --seed serves the same workflows; --seed
// draws the request order.
//
// Load: requests are due on a fixed schedule and timed from their due
// time, so a stalled connection delays the requests queued behind it.
// A ladder of rates (kLadderRps) runs one fresh warm server per rung,
// each rung opening with kWarmupMs of unmeasured requests. The first
// rung is the reference rate and takes all of the run but kRungMs per
// later rung; its requests give p50_ms and tail_ms. The ladder climbs until a rung's tail exceeds
// kTailLimitMs, a request fails, or the outstanding count grows over
// the rung's second half (a rung still sending at twice its length stops
// and fails); ops_per_s (max_rps) is the throughput achieved
// at the highest rung that passed.
//
// Oracle (setup): each request's plan bytes from an in-process
// OptimizerService given the same canonical text.
//
// Not in BENCHMARK.json: over ten seeds on a shared 4-vCPU host its
// p50_ms spread 30% and its ladder flipped between rungs, both wider than
// the largest allowed bound. It stays runnable through run.py, and
// nightly_batch's traced run measures the serving layers with a short
// run of it.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "common/macros.h"
#include "common/random.h"
#include "cost/cost_model.h"
#include "io/plan_format.h"
#include "io/text_format.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/optimizer_service.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace etlopt;

constexpr size_t kHotSmall = 8;
constexpr size_t kHotMedium = 2;
constexpr uint64_t kHotGeneratorSeed = 8100;
constexpr uint64_t kMissGeneratorSeed = 9100;
// Every kMissEvery-th request is a plan-cache miss (2%): enough misses
// that the reference phase's tail falls among them.
constexpr size_t kMissEvery = 50;
constexpr size_t kSearchStates = 100;
// The ladder; its first rung is the reference rate.
constexpr double kLadderRps[] = {200, 800, 3200};
constexpr double kTailLimitMs = 500;
constexpr double kWarmupMs = 250;
constexpr double kRungMs = 2000;  // each rung after the reference

struct Request {
  Workflow workflow;        // what the client packages per request
  std::string plan_bytes;   // oracle
  size_t wire_bytes = 0;    // request frame + response frame
  std::string text;         // canonical request text
  NetOptimizeResponse reply;  // oracle reply, for the frame microbench
};

struct Sample {
  double latency_ms = 0;  // due -> verified reply
  double late_ms = 0;     // due -> send
  double rtt_ms = 0;      // client Optimize call
  double server_ms = 0;   // reply's server_millis
  double print_us = 0;    // client-side request text + plan bytes
  bool sent = false;
  bool ok = false;
  bool miss = false;
  uint64_t visited = 0;
};

struct LoopResult {
  std::vector<Sample> samples;
  std::vector<BacklogSample> backlog;
  bool cut = false;  // stopped sending at twice its length
  uint64_t warmup_attempted = 0;
  uint64_t warmup_failed = 0;
  double duration_ms = 0;
  double last_done_ms = 0;
  ServiceStats service;
  NetServerStats net;
};

class PlanService : public Workload {
 public:
  explicit PlanService(const RunConfig& config) : config_(config) {
    search_.max_states = kSearchStates;
    search_.max_millis = 600000;
    plan_file_ = config.out_dir + "/hot_plans_" + std::to_string(getpid()) +
                 ".bin";
  }

  ~PlanService() override {
    std::error_code ec;
    std::filesystem::remove(plan_file_, ec);
  }

  Status Setup() override {
    hot_.clear();
    misses_.clear();
    OptimizerService reference(model_);
    auto add = [&](WorkloadCategory category, uint64_t gen_seed,
                   std::vector<Request>& into) -> Status {
      GeneratorOptions gen;
      gen.category = category;
      gen.seed = gen_seed;
      ETLOPT_ASSIGN_OR_RETURN(GeneratedWorkflow generated,
                              GenerateWorkflow(gen));
      Request r;
      ETLOPT_ASSIGN_OR_RETURN(
          NetOptimizeRequest net,
          MakeNetRequest(generated.workflow, SearchAlgorithm::kHeuristic,
                         search_));
      for (const Request& seen : hot_) {
        if (seen.text == net.workflow_text) return Status::OK();
      }
      for (const Request& seen : misses_) {
        if (seen.text == net.workflow_text) return Status::OK();
      }
      OptimizeRequest in_process;
      ETLOPT_ASSIGN_OR_RETURN(in_process.workflow,
                              ParseWorkflowText(net.workflow_text));
      in_process.algorithm = net.algorithm;
      in_process.options = net.options;
      ETLOPT_ASSIGN_OR_RETURN(OptimizeResponse answer,
                              reference.Optimize(std::move(in_process)));
      r.plan_bytes = SerializePlanBinary(answer.plan->plan);
      r.reply.plan = answer.plan->plan;
      r.wire_bytes =
          EncodeFrame(FrameType::kOptimizeRequest, EncodeOptimizeRequest(net))
              .size() +
          EncodeFrame(FrameType::kOptimizeResponse,
                      EncodeOptimizeResponse(r.reply))
              .size();
      r.text = std::move(net.workflow_text);
      r.workflow = std::move(generated.workflow);
      into.push_back(std::move(r));
      return Status::OK();
    };
    for (uint64_t i = 0; hot_.size() < kHotSmall; ++i) {
      ETLOPT_RETURN_NOT_OK(
          add(WorkloadCategory::kSmall, kHotGeneratorSeed + i, hot_));
    }
    for (uint64_t i = 0; hot_.size() < kHotSmall + kHotMedium; ++i) {
      ETLOPT_RETURN_NOT_OK(
          add(WorkloadCategory::kMedium, kHotGeneratorSeed + i, hot_));
    }
    // The in-process service holds exactly the hot set here.
    ETLOPT_RETURN_NOT_OK(reference.SavePlans(
        plan_file_, OptimizerService::PlanFileFormat::kBinary));
    // One pool entry per miss of the largest phase, so no phase asks for
    // the same miss twice (the second would hit).
    size_t most = 0;
    for (const auto& [rps, ms] : Phases(config_.seconds)) {
      most = std::max(most, Requests(rps, kWarmupMs) + Requests(rps, ms));
    }
    const size_t pool = most / kMissEvery + 1;
    for (uint64_t i = 0; misses_.size() < pool; ++i) {
      ETLOPT_RETURN_NOT_OK(
          add(WorkloadCategory::kSmall, kMissGeneratorSeed + i, misses_));
    }
    return Status::OK();
  }

  Phase Measure(double seconds, Tracer& tracer) override {
    Phase phase;
    const std::vector<std::pair<double, double>> phases = Phases(seconds);
    ladder_.clear();
    max_rps_ = 0;
    for (size_t p = 0; p < phases.size(); ++p) {
      const double rps = phases[p].first;
      LoopResult rung = RunLoop(rps, phases[p].second, p, tracer);
      Count(rung, phase);
      phase.busy_ms += rung.last_done_ms;
      std::vector<double> latencies;
      bool failed = false;
      size_t answered = 0;
      for (const Sample& s : rung.samples) {
        if (!s.sent) continue;
        latencies.push_back(s.ok ? s.latency_ms
                                 : std::numeric_limits<double>::infinity());
        failed = failed || !s.ok;
        answered += s.ok ? 1 : 0;
      }
      const Tail tail = TailOf(latencies);
      // Outstanding requests may wander by a connection's worth or 1% of
      // the rung; true overload grows them by far more per quarter.
      const double slack =
          std::max(static_cast<double>(config_.threads),
                   0.01 * static_cast<double>(rung.samples.size()));
      const bool grows = BacklogGrows(rung.backlog, rung.duration_ms, slack);
      const bool pass =
          !failed && !grows && !rung.cut && tail.value <= kTailLimitMs;
      const double achieved =
          rung.last_done_ms > 0
              ? 1000.0 * static_cast<double>(answered) / rung.last_done_ms
              : 0.0;
      ladder_.push_back(Format(
          "ladder %5.0f req/s: achieved %7.1f, tail %.2f ms (p%.2f of %zu), "
          "backlog %s%s, %s",
          rps, achieved, tail.value, tail.percentile, tail.samples,
          grows ? "GROWS" : "flat", rung.cut ? " (cut short)" : "",
          pass ? "pass" : "FAIL"));
      if (p == 0) {
        phase.latency_ms = std::move(latencies);
        reference_ = std::move(rung);
      }
      if (!pass) break;
      max_rps_ = achieved;
    }
    return phase;
  }

  void ReportEndToEnd(const Phase& phase, Report& report) override {
    const Tail tail = TailOf(phase.latency_ms);
    report.Add("p50_ms", Median(phase.latency_ms), "ms");
    report.Add("ops_per_s", max_rps_, "1/s");
    report.Note(Format("reference phase: %.0f req/s open loop over %zu "
                       "connections, %zu requests, %zu plan-cache misses",
                       kLadderRps[0], config_.threads, tail.samples,
                       Misses(reference_)));
    report.Note(Format("tail_ms: %.4f ms, p%.2f of %zu requests (%s)",
                       tail.value, tail.percentile, tail.samples,
                       tail.defined ? "10+ samples beyond" : "UNDEFINED"));
    report.Note(Format("max_rps (ops_per_s): %.1f req/s, highest ladder rung "
                       "with tail <= %.0f ms and no backlog growth",
                       max_rps_, kTailLimitMs));
    for (const std::string& line : ladder_) report.Note(line);
    report.Note(Format("fail_frac: %.6f (%llu of %llu)",
                       phase.attempted ? static_cast<double>(phase.failed) /
                                             static_cast<double>(phase.attempted)
                                       : 0.0,
                       static_cast<unsigned long long>(phase.failed),
                       static_cast<unsigned long long>(phase.attempted)));
  }

  void ReportLayers(const Phase&, LayerValues& layers,
                    Report& report) override {
    std::vector<double> server, wire, late, print;
    double visited = 0;
    size_t misses = 0, wire_bytes = 0;
    for (const Sample& s : reference_.samples) {
      if (!s.ok) continue;
      server.push_back(s.server_ms);
      wire.push_back(s.rtt_ms - s.server_ms);
      late.push_back(s.late_ms);
      print.push_back(s.print_us);
      if (s.miss) {
        ++misses;
        visited += static_cast<double>(s.visited);
      }
    }
    for (size_t i = 0; i < reference_.samples.size(); ++i) {
      wire_bytes += RequestAt(reference_seq_, i).wire_bytes;
    }
    layers["service.server_ms_p50"] = Median(server);
    layers["service.server_ms_tail"] = TailOf(server).value;
    layers["net.wire_ms_p50"] = Median(wire);
    layers["loadgen.late_ms_tail"] = TailOf(late).value;
    layers["io.print_us"] = Median(print);
    layers["optimizer.states_visited"] =
        misses ? visited / static_cast<double>(misses) : 0.0;
    layers["net.bytes_per_request"] =
        reference_.samples.empty()
            ? 0.0
            : static_cast<double>(wire_bytes) /
                  static_cast<double>(reference_.samples.size());
    const ServiceStats& st = reference_.service;
    layers["service.plan_cache_hit_rate"] = st.cache.hit_rate();
    layers["service.shed"] =
        static_cast<double>(st.rejected + reference_.net.requests_shed);
    layers["optimizer.search_ms"] =
        st.searches_run ? st.search_millis / static_cast<double>(st.searches_run)
                        : 0.0;

    // Microbenchmarks over the hot set, each checked.
    std::vector<double> parse_us, encode_us, decode_us;
    for (const Request& r : hot_) {
      for (int i = 0; i < 5; ++i) {
        Clock::time_point t0 = Clock::now();
        StatusOr<Workflow> parsed = ParseWorkflowText(r.text);
        parse_us.push_back(1000.0 * MillisSince(t0));
        ++report.attempted;
        if (!parsed.ok()) ++report.failed;
      }
      StatusOr<NetOptimizeRequest> net =
          MakeNetRequest(r.workflow, SearchAlgorithm::kHeuristic, search_);
      if (!net.ok()) {
        ++report.failed;
        continue;
      }
      const std::string request_payload = EncodeOptimizeRequest(*net);
      const std::string reply_payload = EncodeOptimizeResponse(r.reply);
      for (int i = 0; i < 5; ++i) {
        Clock::time_point t0 = Clock::now();
        std::string request_frame =
            EncodeFrame(FrameType::kOptimizeRequest, request_payload);
        std::string reply_frame =
            EncodeFrame(FrameType::kOptimizeResponse, reply_payload);
        encode_us.push_back(1000.0 * MillisSince(t0));
        t0 = Clock::now();
        StatusOr<Frame> a = DecodeFrame(request_frame, kMaxFrame);
        StatusOr<Frame> b = DecodeFrame(reply_frame, kMaxFrame);
        decode_us.push_back(1000.0 * MillisSince(t0));
        ++report.attempted;
        if (!a.ok() || !b.ok() || a->payload != request_payload ||
            b->payload != reply_payload) {
          ++report.failed;
        }
      }
    }
    layers["io.parse_us"] = Median(parse_us);
    layers["net.frame_encode_us"] = Median(encode_us);
    layers["net.frame_decode_us"] = Median(decode_us);
  }

 private:
  static constexpr size_t kMaxFrame = static_cast<size_t>(64) << 20;

  // (rate, duration ms) of each ladder rung. The first rung is the
  // reference phase: the run minus kRungMs per later rung, and at least
  // half the run.
  static std::vector<std::pair<double, double>> Phases(double seconds) {
    const double later = static_cast<double>(std::size(kLadderRps) - 1);
    const double rung_ms = std::min(kRungMs, seconds * 1000.0 / 2 / later);
    std::vector<std::pair<double, double>> phases;
    for (double rps : kLadderRps) {
      phases.emplace_back(
          rps, phases.empty() ? seconds * 1000.0 - later * rung_ms : rung_ms);
    }
    return phases;
  }

  static size_t Requests(double rps, double duration_ms) {
    return static_cast<size_t>(rps * duration_ms / 1000.0);
  }

  // Which request the i-th send of a phase carries: hot (index < hot
  // count) or a pool miss. Deterministic in the seed and phase.
  std::vector<size_t> Sequence(size_t n, uint64_t phase_id) const {
    const uint64_t seed = Mix64(config_.seed * 7919 + phase_id);
    Rng rng(seed);
    // A phase's misses are the first pool entries it needs, so every seed
    // searches the same workflows; the seed only orders them.
    const std::vector<size_t> miss_order =
        SeededOrder(std::min(misses_.size(), n / kMissEvery + 1), seed);
    std::vector<size_t> seq(n);
    size_t next_miss = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i % kMissEvery == kMissEvery / 2) {
        seq[i] = hot_.size() + miss_order[next_miss++ % miss_order.size()];
      } else {
        seq[i] = rng.UniformIndex(hot_.size());
      }
    }
    return seq;
  }

  const Request& RequestAt(const std::vector<size_t>& seq, size_t i) const {
    const size_t k = seq[i];
    return k < hot_.size() ? hot_[k] : misses_[k - hot_.size()];
  }

  static size_t Misses(const LoopResult& loop) {
    size_t n = 0;
    for (const Sample& s : loop.samples) n += s.miss ? 1 : 0;
    return n;
  }

  static void Count(const LoopResult& loop, Phase& phase) {
    phase.attempted += loop.warmup_attempted;
    phase.failed += loop.warmup_failed;
    for (const Sample& s : loop.samples) {
      if (!s.sent) continue;
      ++phase.attempted;
      if (!s.ok) ++phase.failed;
    }
  }

  // One open-loop phase against a fresh server warmed with the hot set.
  // The phase opens with kWarmupMs of requests at the same rate that are
  // sent and checked but left out of the phase's figures.
  LoopResult RunLoop(double rps, double duration_ms, uint64_t phase_id,
                     Tracer& tracer) {
    LoopResult out;
    out.duration_ms = duration_ms;
    const size_t warm = Requests(rps, kWarmupMs);
    const size_t n = warm + Requests(rps, duration_ms);
    std::vector<size_t> seq = Sequence(n, phase_id);
    std::vector<Sample> samples(n);

    ServerOptions options;
    options.ephemeral_port = true;
    options.service.num_threads = config_.threads;
    options.max_connections = config_.threads + 1;
    OptimizerServer server(model_, options);
    StatusOr<size_t> loaded = server.service().LoadPlans(plan_file_);
    Status started = loaded.ok() ? server.Start() : loaded.status();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      return out;  // every sample stays failed
    }

    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};  // measured requests only
    std::mutex backlog_mu;
    // t0 is when the measured part starts; warm-up requests fall due
    // before it.
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(5) +
        std::chrono::microseconds(static_cast<int64_t>(1000 * kWarmupMs));
    auto due_of = [&](size_t i) {
      const double offset_s =
          (static_cast<double>(i) - static_cast<double>(warm)) / rps;
      return t0 + std::chrono::nanoseconds(static_cast<int64_t>(1e9 * offset_s));
    };
    auto sender = [&]() {
      StatusOr<OptimizerClient> client =
          OptimizerClient::Connect("127.0.0.1", server.port());
      std::vector<BacklogSample> local_backlog;
      for (size_t i = next++; i < n; i = next++) {
        // An overloaded rung stops sending at twice its length; requests
        // never sent are not attempted.
        if (MillisSince(t0) > 2 * duration_ms) break;
        const Request& r = RequestAt(seq, i);
        Sample& s = samples[i];
        s.sent = true;
        s.miss = seq[i] >= hot_.size();
        const Clock::time_point due = due_of(i);
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        s.late_ms = MillisBetween(due, sent);
        ScopedSpan root(tracer, "bench.request", i + 1);
        if (!client.ok()) continue;
        double print_ms = 0;
        StatusOr<NetOptimizeRequest> request = Status::Internal("not run");
        {
          ScopedSpan span(tracer, "io.print", i + 1);
          request = MakeNetRequest(r.workflow, SearchAlgorithm::kHeuristic,
                                   search_);
          print_ms += MillisSince(sent);
        }
        if (!request.ok()) continue;
        StatusOr<NetOptimizeResponse> reply = Status::Internal("not run");
        {
          ScopedSpan span(tracer, "net.optimize", i + 1);
          Clock::time_point rt = Clock::now();
          reply = client->Optimize(*request);
          s.rtt_ms = MillisSince(rt);
        }
        if (!reply.ok()) continue;
        std::string bytes;
        {
          ScopedSpan span(tracer, "io.print", i + 1);
          Clock::time_point pt = Clock::now();
          bytes = SerializePlanBinary(reply->plan);
          print_ms += MillisSince(pt);
        }
        const Clock::time_point done = Clock::now();
        {
          ScopedSpan span(tracer, "check.verify", i + 1);
          s.ok = bytes == r.plan_bytes;
        }
        s.latency_ms = MillisBetween(due, done);
        s.server_ms = reply->server_millis;
        s.print_us = 1000.0 * print_ms;
        s.visited = reply->plan.visited_states;
        if (i < warm) continue;
        const size_t finished = ++completed;
        const double t_ms = MillisBetween(t0, done);
        const double due_count = std::min<double>(
            static_cast<double>(n - warm), std::floor(t_ms * rps / 1000.0) + 1);
        local_backlog.push_back(
            {t_ms, due_count - static_cast<double>(finished)});
      }
      std::lock_guard<std::mutex> lock(backlog_mu);
      out.backlog.insert(out.backlog.end(), local_backlog.begin(),
                         local_backlog.end());
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < config_.threads; ++c) threads.emplace_back(sender);
    for (std::thread& t : threads) t.join();
    for (const BacklogSample& b : out.backlog) {
      out.last_done_ms = std::max(out.last_done_ms, b.t_ms);
    }
    out.service = server.service().Stats();
    out.net = server.NetStats();
    (void)server.Stop();
    for (size_t i = 0; i < warm; ++i) {
      if (!samples[i].sent) continue;
      ++out.warmup_attempted;
      if (!samples[i].ok) ++out.warmup_failed;
    }
    for (const Sample& s : samples) out.cut = out.cut || !s.sent;
    out.samples.assign(samples.begin() + static_cast<std::ptrdiff_t>(warm),
                       samples.end());
    if (phase_id == 0) {
      reference_seq_.assign(seq.begin() + static_cast<std::ptrdiff_t>(warm),
                            seq.end());
    }
    return out;
  }

  RunConfig config_;
  LinearLogCostModel model_;
  SearchOptions search_;
  std::string plan_file_;
  std::vector<Request> hot_;
  std::vector<Request> misses_;
  LoopResult reference_;
  std::vector<size_t> reference_seq_;
  std::vector<std::string> ladder_;
  double max_rps_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakePlanService(const RunConfig& config) {
  return std::make_unique<PlanService>(config);
}

}  // namespace perfbench
