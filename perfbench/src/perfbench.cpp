// perfbench: the repository benchmark. One invocation runs one seeded
// workload through the public API at the shared configuration (backbone
// surrogate, W = 2^20, k = 512, 256-packet bursts, 2 shards), checks the
// outputs against exact references, and prints every metric by name with
// its unit; the last line of stdout is the JSON result perfbench/run.py
// relays. See perfbench/NOTES.md for why each workload exists and which
// layer metric should move which end-to-end metric.
//
//   perfbench --workload hh_full|hh_sampled|flood_mitigate|hhh_2d --seed N
//             --seconds S --trace 0|1 [--packets N] [--spans PATH]
//             [--corrupt-checkpoint]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 reports the per-layer metrics instead: it alternates untraced
// and traced end-to-end repetitions (their ratio is the tracing overhead),
// then climbs the layer ladder L1..L5, one public layer added per rung, and
// writes every span to --spans. Exit status: 0 when every check passed,
// 1 when an output check failed, 2 on bad usage, 3 when the host has fewer
// CPUs than the workload's threads.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "control/checkpoint.hpp"
#include "harness.hpp"
#include "oracle.hpp"
#include "pipeline/pipeline.hpp"
#include "shard/sharded_h_memento.hpp"
#include "shard/sharded_memento.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/flood_injector.hpp"
#include "trace/trace_generator.hpp"
#include "util/latency_histogram.hpp"
#include "util/normal.hpp"

namespace {

using namespace memento;
using perfbench::median;
using perfbench::metric;
using perfbench::now_ns;
using perfbench::tracer;

// --- the shared configuration -------------------------------------------------

constexpr std::uint64_t kWindow = 1u << 20;
constexpr std::size_t kCounters = 512;
constexpr std::size_t kBurst = 256;
constexpr std::size_t kShards = 2;
constexpr std::size_t kRingCapacity = 1u << 14;
constexpr double kHhTheta = 0.005;   ///< HH bar for recall/precision (fraction of W)
constexpr double kHhhTheta = 0.05;   ///< HHH bar: prefixes above 5% of the window
constexpr double kDelta = 1e-3;      ///< confidence of the sampling terms
/// Packets between output() calls: one HHH report per window. A shorter
/// stride puts the bursts that refill caches after each lattice walk right
/// at the 99th percentile of burst time, which then jumps between runs.
constexpr std::uint64_t kHhhOutputStride = kWindow;
/// fig10's flood thresholds: block 1%, rate-limit 0.5%, release 0.2%.
constexpr lb::mitigation_config kMitigation{0.01, 0.005, 0.002, 256};
constexpr int kSetupReps = 3;
constexpr std::size_t kMinReps = 3;
constexpr int kCheckpointsPerRep = 10;  ///< timed captures (and restores) after each rep
constexpr int kQueriesPerRep = 20;      ///< timed HH queries after each rep
constexpr std::size_t kWarmupPackets = 1u << 18;

struct workload {
  const char* name;
  double tau;
  std::uint64_t detect_stride;  ///< 0 = no detect stage
  bool enforce;                 ///< parse-stage filter drops blocked subnets
  bool threaded;                ///< push mode: one producer, kShards workers
  bool flood;                   ///< Section 6.4 flood over the backbone trace
  bool hhh;                     ///< sharded 2-D H-Memento instead of the pipeline
  std::size_t packets;          ///< fixed packet count of one repetition
};

constexpr workload kWorkloads[] = {
    {"hh_full", 1.0, 1u << 16, false, true, false, false, std::size_t{1} << 22},
    {"hh_sampled", 1.0 / 256, 1u << 16, false, true, false, false, std::size_t{1} << 22},
    {"flood_mitigate", 1.0 / 16, 4096, true, false, true, false, std::size_t{1} << 22},
    {"hhh_2d", 1.0, 0, false, false, false, true, std::size_t{1} << 22},
};

struct options {
  const workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t packets = 0;  ///< 0 = the workload's fixed count
  std::string spans_path;
  bool corrupt_checkpoint = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "hh_full|hh_sampled|flood_mitigate|hhh_2d --seed N --seconds S --trace 0|1\n"
               "                 [--packets N] [--spans PATH] [--corrupt-checkpoint]\n",
               why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt-checkpoint") {
      o.corrupt_checkpoint = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      for (const auto& w : kWorkloads) {
        if (v == w.name) o.w = &w;
      }
      if (o.w == nullptr) usage(("unknown workload " + v).c_str());
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--packets") {
      o.packets = std::strtoull(v.c_str(), &end, 10);
      if (o.packets < kBurst) usage("--packets must be at least one burst");
    } else if (a == "--spans") {
      o.spans_path = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("not a number: " + v).c_str());
  }
  if (o.w == nullptr) usage("--workload is required");
  return o;
}

/// Output checks: every failure is printed and fails the run.
class checks {
 public:
  bool expect(bool ok, const std::string& what) {
    ++run_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  [[nodiscard]] std::uint64_t run() const noexcept { return run_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t run_ = 0;
  std::uint64_t failed_ = 0;
};

// --- inputs ---------------------------------------------------------------------

struct inputs {
  std::vector<packet> pkts;
  std::vector<std::uint8_t> is_attack;  ///< flood ground truth (empty without a flood)
  std::vector<std::uint32_t> flood_subnets;  ///< first octets of the flooding /8s
  std::size_t onset = 0;
};

/// The workload's packets, made from the seed alone. The flood composes
/// Section 6.4's attack over enough backbone lines to fill the fixed count.
inputs make_inputs(const workload& w, std::uint64_t seed, std::size_t packets) {
  inputs in;
  if (!w.flood) {
    in.pkts = make_trace(trace_kind::backbone, packets, seed);
    return in;
  }
  // After onset 3 of every 10 lines are original, so 0.3 * count plus the
  // longest possible onset covers the count.
  flood_config fc;
  fc.start_range = std::min<std::size_t>(1'000'000, packets / 4);
  fc.seed = mix64(seed);
  const auto base = make_trace(trace_kind::backbone, packets * 3 / 10 + fc.start_range, seed);
  const flood_trace ft = inject_flood(base, fc);
  const std::size_t n = std::min(packets, ft.packets.size());
  in.pkts.reserve(n);
  in.is_attack.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    in.pkts.push_back(ft.packets[i].pkt);
    in.is_attack.push_back(ft.packets[i].is_attack ? 1 : 0);
  }
  for (const std::uint32_t s : ft.subnets) in.flood_subnets.push_back(s >> 24);
  in.onset = ft.flood_start;
  return in;
}

// --- measurement records --------------------------------------------------------

/// Everything a run reports; each workload fills what it measures and the
/// layer metrics of idle layers stay 0.
struct results {
  double setup_s = 0, gen_s = 0;
  double throughput_mpps = 0, burst_p50_us = 0, burst_p99_us = 0;
  double query_p50_ms = 0, hh_query_ms = 0;  ///< the workload's query; its HH form
  double recall = 0, precision = 0, err_mean_over_bound = 0, err_max_over_bound = 0;
  double drop_frac = 0;
  // flood_mitigate only: the mitigation outcome, per packet
  double flood_leak_frac = 0, legit_drop_frac = 0, detect_delay_kpkt = 0, mitigated_flood_frac = 0;
  double checkpoint_save_ms = 0, checkpoint_restore_ms = 0, checkpoint_kb = 0;
  double peak_buffered_kb = 0;
  // layer ladder and layer counters
  double update_ns_pkt = 0, route_ns_pkt = 0, stage_ns_pkt = 0, detect_ns_pkt = 0;
  double offer_ns_pkt = 0, ring_hwm_frac = 0, worker_busy_frac = 0, chunk_pkts = 0, drain_ms = 0;
  double candidates = 0, forced_drains = 0, index_mean_probe = 0, overflow_load = 0;
  double load_ratio = 0, sweeps = 0, active_rules = 0, mitigated = 0;
  double output_ms = 0, output_entries = 0, trace_overhead_frac = 0, peak_rss_mb = 0;
  std::size_t packets = 0, burst_samples = 0, reps = 0;
  std::uint64_t offered = 0, lost = 0;
};

/// Set-up, repeated kSetupReps times for a median: make the inputs from the
/// seed, then `warm_up` a throwaway instance on them.
template <typename WarmUp>
inputs set_up(const options& opt, results& r, WarmUp&& warm_up) {
  const std::size_t packets = opt.packets != 0 ? opt.packets : opt.w->packets;
  inputs in;
  std::vector<double> setup_s, gen_s;
  for (int k = 0; k < kSetupReps; ++k) {
    const std::uint64_t t0 = now_ns();
    in = inputs{};  // one trace resident at a time, so peak RSS is one setup's
    in = make_inputs(*opt.w, opt.seed, packets);
    gen_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    warm_up(in);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  r.setup_s = median(setup_s);
  r.gen_s = median(gen_s);
  r.packets = in.pkts.size();
  return in;
}

/// What one timed repetition reports back.
struct rep_result {
  double seconds = 0;         ///< wall time of the drive loop
  std::uint64_t counted = 0;  ///< packets the frontend ingested
};

/// Timed repetitions until the end-to-end budget is spent, at least kMinReps
/// untraced ones. `one_rep(rep, traced, burst_ns)` runs the fixed packet
/// count once on a fresh instance, filling burst_ns with each driving call's
/// time. In trace mode every other repetition is traced and the budget is
/// half of --seconds (the ladder gets the other half).
///
/// Throughput is every untraced packet over every untraced wall second, and
/// the burst percentiles come from one histogram over all untraced bursts:
/// the host this was written on has contention phases of seconds to
/// minutes, and pooling blends a run's phases in proportion to their length
/// where a median of per-repetition figures jumps between them. The
/// histogram keeps memory constant however many repetitions fit in the
/// budget, so peak RSS does not depend on the host's speed.
template <typename OneRep>
void run_reps(const options& opt, tracer* tr, results& r, OneRep&& one_rep) {
  const std::size_t n = r.packets;
  std::vector<std::uint32_t> burst_ns;
  burst_ns.reserve(n / kBurst + 1);
  latency_histogram pooled;
  double seconds = 0, traced_seconds = 0;
  std::size_t traced_reps = 0;
  const double budget = tr != nullptr ? opt.seconds / 2 : opt.seconds;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(budget * 1e9);
  const std::uint32_t n_rep = tr != nullptr ? tr->intern("e2e.rep") : 0;
  for (int rep = 0; rep < 1000; ++rep) {
    if (r.reps >= kMinReps && traced_reps >= (tr != nullptr ? kMinReps : 0) &&
        now_ns() >= deadline) {
      break;
    }
    const bool traced = tr != nullptr && rep % 2 == 1;
    if (traced) tr->open(n_rep);
    const rep_result rr = one_rep(rep, traced, burst_ns);
    if (traced) tr->close();
    r.offered += n;
    r.lost += n - std::min<std::uint64_t>(n, rr.counted);
    if (traced) {
      traced_seconds += rr.seconds;
      ++traced_reps;
      continue;
    }
    seconds += rr.seconds;
    ++r.reps;
    for (const std::uint32_t ns : burst_ns) pooled.record(ns);
  }
  const double packets = static_cast<double>(n) * static_cast<double>(r.reps);
  r.throughput_mpps = packets / seconds / 1e6;
  r.burst_samples = static_cast<std::size_t>(pooled.count());
  r.burst_p50_us = static_cast<double>(pooled.p50()) / 1e3;
  r.burst_p99_us = static_cast<double>(pooled.p99()) / 1e3;
  r.drop_frac = static_cast<double>(r.lost) / static_cast<double>(r.offered);
  if (tr != nullptr) {
    const double traced_mpps = static_cast<double>(n) * static_cast<double>(traced_reps) /
                               traced_seconds / 1e6;
    r.trace_overhead_frac = 1.0 - traced_mpps / r.throughput_mpps;
  }
}

/// Detection outcome of a reported set against the exact set.
template <typename Key>
void score(const std::unordered_set<Key>& exact, const std::vector<Key>& reported, results& r) {
  std::size_t hit = 0;
  for (const Key& k : reported) hit += exact.count(k);
  r.recall = exact.empty() ? 1.0 : static_cast<double>(hit) / static_cast<double>(exact.size());
  r.precision =
      reported.empty() ? 1.0 : static_cast<double>(hit) / static_cast<double>(reported.size());
}

/// |estimate - exact| / bound over a population of keys: the mean is the
/// steady accuracy figure, the max is what the guarantee (<= 1) is checked on.
template <typename Key, typename ErrOf>
void score_error(const std::unordered_set<Key>& population, ErrOf&& err_of, results& r) {
  double sum = 0;
  for (const Key& k : population) {
    const double e = err_of(k);
    sum += e;
    r.err_max_over_bound = std::max(r.err_max_over_bound, e);
  }
  r.err_mean_over_bound = population.empty() ? 0.0 : sum / static_cast<double>(population.size());
}

/// The sampling term of Theorems 5.2/5.3 as src/netwide/batch_optimizer.hpp
/// evaluates it for H = 1, sqrt(W Z_{1-delta/2} / tau); 0 at tau = 1, where
/// the ACCURACY.md section 1 width is a deterministic bound on its own.
double sampling_term(std::uint64_t window, double tau) {
  if (tau >= 1.0) return 0.0;
  return std::sqrt(static_cast<double>(window) * z_value(1.0 - kDelta / 2.0) / tau);
}

/// Checkpoint timings and the round-trip checks. Streamed frontends go
/// through the controller's checkpoint_store (capture / restore_latest); 2-D
/// HHH frontends cannot - prefix2d keys do not fit the streamed format's
/// 64-bit key column - so they checkpoint through the buffered snapshot
/// envelope, which holds the whole image. Timings are sampled after every
/// repetition, so their medians span the run rather than one instant of it.
template <bool Streamed, typename Frontend>
class checkpoint_bench {
 public:
  /// Times `reps` captures, then `reps` restores of the latest image.
  void sample(const Frontend& fe, int reps, checks& chk) {
    for (int i = 0; i < reps; ++i) {
      const std::uint64_t t0 = now_ns();
      const bool ok = capture(fe);
      save_ms_.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      if (!chk.expect(ok, "checkpoint capture")) return;
    }
    for (int i = 0; i < reps; ++i) {
      const std::uint64_t t0 = now_ns();
      const bool ok = restore().has_value();
      restore_ms_.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      if (!chk.expect(ok, "checkpoint restore_latest")) return;
    }
  }

  /// Captures `fe` once more and checks the round trip: the restored
  /// frontend re-saves to identical bytes and answers `same_answers`
  /// identically. `corrupt` flips one byte of the image first, which these
  /// checks must catch.
  template <typename SameAnswers>
  void verify(const Frontend& fe, bool corrupt, checks& chk, SameAnswers&& same_answers) {
    if (!chk.expect(capture(fe), "checkpoint capture")) return;
    std::vector<std::uint8_t> image = bytes();
    if (corrupt) image[image.size() / 2] ^= 0x01;
    std::optional<Frontend> back;
    if constexpr (Streamed) {
      wire::source src{std::span<const std::uint8_t>(image)};
      back = snapshot::stream_restore<Frontend>(src);
    } else {
      back = snapshot::restore<Frontend>(image);
    }
    if (!chk.expect(back.has_value(), "checkpoint restores")) return;
    chk.expect(image_of(*back) == image_of(fe), "restored checkpoint re-saves to identical bytes");
    chk.expect(same_answers(*back), "restored checkpoint answers identically");
  }

  void report(results& r) const {
    r.checkpoint_save_ms = median(save_ms_);
    r.checkpoint_restore_ms = median(restore_ms_);
    r.checkpoint_kb = static_cast<double>(bytes().size()) / 1024.0;
    r.peak_buffered_kb =
        static_cast<double>(Streamed ? store_.peak_buffered() : image_.size()) / 1024.0;
  }

  [[nodiscard]] static std::vector<std::uint8_t> image_of(const Frontend& fe) {
    if constexpr (Streamed) {
      return snapshot::save_streamed(fe);
    } else {
      return snapshot::save(fe);
    }
  }

 private:
  bool capture(const Frontend& fe) {
    if constexpr (Streamed) {
      return store_.capture(fe) > 0;
    } else {
      image_ = snapshot::save(fe);
      return !image_.empty();
    }
  }
  [[nodiscard]] std::optional<Frontend> restore() const {
    if constexpr (Streamed) {
      return store_.restore_latest<Frontend>();
    } else {
      return snapshot::restore<Frontend>(image_);
    }
  }
  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    if constexpr (Streamed) {
      return {store_.image().begin(), store_.image().end()};
    } else {
      return image_;
    }
  }

  checkpoint_store store_;
  std::vector<std::uint8_t> image_;  ///< buffered path only
  std::vector<double> save_ms_, restore_ms_;
};

// --- the pipeline workloads (hh_full, hh_sampled, flood_mitigate) ------------------

using hh_pipeline = pipeline<>;
using hh_frontend = hh_pipeline::frontend_type;

shard_config sharding_for(const workload& w, std::uint64_t seed) {
  return shard_config{kWindow, kCounters, w.tau, seed, kShards};
}

std::unique_ptr<hh_pipeline> make_pipeline(const workload& w, std::uint64_t seed,
                                           std::uint64_t detect_stride, bool enforce) {
  pipeline_config pc;
  pc.sharding = sharding_for(w, seed);
  pc.ring_capacity = kRingCapacity;
  pc.policy = backpressure_policy::block;
  pc.detect_stride = detect_stride;
  pc.mitigation = kMitigation;
  pc.enforce = enforce;
  return std::make_unique<hh_pipeline>(pc);
}

/// One closed-loop repetition: every burst through process() (inline, or
/// into the rings under block backpressure when threaded), then drain.
/// Returns wall seconds; burst_ns receives each process() call's time.
double drive_pipeline(hh_pipeline& pipe, const std::vector<packet>& pkts,
                      std::vector<std::uint32_t>& burst_ns, tracer* tr, std::uint32_t name) {
  burst_ns.clear();
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < pkts.size(); i += kBurst) {
    const std::size_t m = std::min(kBurst, pkts.size() - i);
    const std::uint64_t b0 = now_ns();
    pipe.process(pkts.data() + i, m);
    const std::uint64_t b1 = now_ns();
    burst_ns.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(b1 - b0, UINT32_MAX)));
    if (tr != nullptr) tr->leaf(name, b0, b1);
  }
  if (pipe.started()) pipe.drain();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Per-shard snapshot images: the state identity every ladder rung must end on.
template <typename Shards>
std::vector<std::vector<std::uint8_t>> shard_images(std::size_t n, Shards&& shard) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t s = 0; s < n; ++s) out.push_back(snapshot::save_streamed(shard(s)));
  return out;
}

/// Cost of recording one span (open + close), measured so the ladder can take
/// each rung's own span bookkeeping out of its total.
double span_cost_ns() {
  tracer t;
  const std::uint32_t name = t.intern("calibration");
  constexpr int kSpans = 20000;
  t.reserve(kSpans + 1);
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) {
    t.open(name);
    t.close();
  }
  return static_cast<double>(now_ns() - t0) / kSpans;
}

/// Ladder inputs pre-split per shard, burst by burst, exactly as a sharded
/// frontend's update_batch splits each burst: shard s's part of burst b is
/// split[s][cut[b][s], cut[b + 1][s]).
template <typename Item>
struct presplit {
  std::vector<std::vector<Item>> split;
  std::vector<std::array<std::size_t, kShards>> cut;
};

template <typename Item, typename ShardOf>
presplit<Item> split_bursts(const std::vector<Item>& items, ShardOf&& shard_of) {
  const std::size_t n = items.size();
  const std::size_t bursts = (n + kBurst - 1) / kBurst;
  presplit<Item> p{std::vector<std::vector<Item>>(kShards),
                   std::vector<std::array<std::size_t, kShards>>(bursts + 1)};
  for (std::size_t b = 0; b < bursts; ++b) {
    for (std::size_t j = b * kBurst; j < std::min(n, (b + 1) * kBurst); ++j) {
      p.split[shard_of(items[j])].push_back(items[j]);
    }
    for (std::size_t s = 0; s < kShards; ++s) p.cut[b + 1][s] = p.split[s].size();
  }
  return p;
}

/// Rung L1: each standalone shard's update_batch on its part of every burst,
/// one span per call. Returns the spans recorded.
template <typename Shard, typename Item>
std::size_t feed_standalone(std::vector<Shard>& shards, const presplit<Item>& in, tracer& tr,
                            std::uint32_t name) {
  std::size_t spans = 0;
  for (std::size_t b = 0; b + 1 < in.cut.size(); ++b) {
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::size_t len = in.cut[b + 1][s] - in.cut[b][s];
      if (len == 0) continue;
      tr.open(name);
      shards[s].update_batch(in.split[s].data() + in.cut[b][s], len);
      tr.close();
      ++spans;
    }
  }
  return spans;
}

/// One span per burst around `call(offset, count)`. Returns the spans recorded.
template <typename Call>
std::size_t feed_bursts(std::size_t n, tracer& tr, std::uint32_t name, Call&& call) {
  std::size_t spans = 0;
  for (std::size_t i = 0; i < n; i += kBurst) {
    tr.open(name);
    call(i, std::min(kBurst, n - i));
    tr.close();
    ++spans;
  }
  return spans;
}

/// Closes a rung's root span; returns its seconds less its own spans' cost.
double close_rung(tracer& tr, double span_ns, std::size_t spans) {
  return (static_cast<double>(tr.close()) - span_ns * static_cast<double>(spans)) / 1e9;
}

struct ladder_out {
  std::vector<double> rung_s;  ///< median wall seconds per rung, span cost removed
  double offer_s = 0, drain_s = 0, ring_hwm_frac = 0, busy_frac = 0, chunk_pkts = 0;
};

/// The HH layer ladder: each rung feeds the same per-shard inputs as the one
/// below it and adds one layer. L1 standalone shards (inputs pre-split with
/// shard_of, burst by burst, exactly as the frontend splits them); L2 the
/// sharded frontend; L3 inline process() with detect off; L4 with detect on
/// (observe, so the stream is unchanged); L5 the threaded front door driven
/// as core_of steering, offer() per core, drain(). All rungs must end with
/// identical per-shard save() bytes.
ladder_out hh_ladder(const workload& w, std::uint64_t seed, const std::vector<packet>& pkts,
                     double budget_s, tracer& tr, checks& chk) {
  const shard_config sc = sharding_for(w, seed);
  const std::size_t n = pkts.size();
  const hh_frontend router(sc);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = flow_id(pkts[i]);
  const auto pre = split_bursts(keys, [&](std::uint64_t k) { return router.shard_of(k); });

  const std::uint32_t n_rung[5] = {tr.intern("rung.L1"), tr.intern("rung.L2"),
                                   tr.intern("rung.L3"), tr.intern("rung.L4"),
                                   tr.intern("rung.L5")};
  const std::uint32_t n_kernel = tr.intern("memento_sketch.update_batch");
  const std::uint32_t n_shard = tr.intern("sharded_memento.update_batch");
  const std::uint32_t n_process = tr.intern("pipeline.process");
  const std::uint32_t n_steer = tr.intern("pipeline.core_of");
  const std::uint32_t n_offer = tr.intern("pipeline.offer");
  const std::uint32_t n_drain = tr.intern("pipeline.drain");
  const double span_ns = span_cost_ns();

  std::vector<std::vector<double>> rung(5);
  std::vector<double> offer_s, drain_s, hwm, busy, chunk;
  std::vector<std::vector<std::uint8_t>> reference;
  auto finish_rung = [&](int k, std::size_t spans, std::vector<std::vector<std::uint8_t>> images) {
    rung[k].push_back(close_rung(tr, span_ns, spans));
    if (reference.empty()) reference = std::move(images);
    else chk.expect(images == reference, "ladder rung L" + std::to_string(k + 1) +
                                             " ends with the L1 save() bytes");
  };
  auto images_of = [](const hh_frontend& fe) {
    return shard_images(kShards, [&](std::size_t s) -> const auto& { return fe.shard(s); });
  };

  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  for (int round = 0; round < 5 && (round == 0 || now_ns() < deadline); ++round) {
    {  // L1
      std::vector<memento_sketch<>> shards;
      for (std::size_t s = 0; s < kShards; ++s) {
        shards.emplace_back(hh_frontend::shard_config_for(sc, s));
      }
      tr.open(n_rung[0]);
      const std::size_t spans = feed_standalone(shards, pre, tr, n_kernel);
      finish_rung(0, spans, shard_images(kShards, [&](std::size_t s) -> const auto& {
                    return shards[s];
                  }));
    }
    {  // L2
      hh_frontend fe(sc);
      tr.open(n_rung[1]);
      const std::size_t spans = feed_bursts(n, tr, n_shard, [&](std::size_t i, std::size_t m) {
        fe.update_batch(keys.data() + i, m);
      });
      finish_rung(1, spans, images_of(fe));
    }
    for (int k = 2; k <= 3; ++k) {  // L3 detect off, L4 detect on (observe)
      auto pipe = make_pipeline(w, seed, k == 2 ? 0 : w.detect_stride, false);
      tr.open(n_rung[k]);
      const std::size_t spans = feed_bursts(n, tr, n_process, [&](std::size_t i, std::size_t m) {
        pipe->process(pkts.data() + i, m);
      });
      finish_rung(k, spans, images_of(pipe->frontend()));
    }
    {  // L5: the threaded front door
      auto pipe = make_pipeline(w, seed, w.detect_stride, false);
      std::vector<std::vector<packet>> steer(kShards);
      pipe->start();
      std::size_t spans = 0;
      double offer_ns = 0;
      tr.open(n_rung[4]);
      const std::uint64_t wall0 = now_ns();
      for (std::size_t i = 0; i < n; i += kBurst) {
        tr.open(n_steer);
        partition_into(steer, [&](const packet& p) { return pipe->core_of(p); }, pkts.data() + i,
                       std::min(kBurst, n - i));
        tr.close();
        ++spans;
        for (std::size_t c = 0; c < kShards; ++c) {
          if (steer[c].empty()) continue;
          tr.open(n_offer);
          pipe->offer(c, std::span<const packet>(steer[c]));
          offer_ns += static_cast<double>(tr.close());
          ++spans;
        }
      }
      tr.open(n_drain);
      pipe->drain();
      drain_s.push_back(static_cast<double>(tr.close()) / 1e9);
      ++spans;
      const double wall = static_cast<double>(now_ns() - wall0);
      offer_s.push_back(offer_ns / 1e9);
      finish_rung(4, spans, images_of(pipe->frontend()));
      double hwm_max = 0, busy_sum = 0;
      std::uint64_t ingested = 0, calls = 0;
      for (std::size_t c = 0; c < kShards; ++c) {
        const core_report rep = pipe->report(c);
        hwm_max = std::max(hwm_max, static_cast<double>(pipe->ingest_stats(c).occupancy_hwm));
        busy_sum += rep.latency.mean() * static_cast<double>(rep.latency.count()) / wall;
        ingested += rep.ingested;
        calls += rep.bursts;
      }
      hwm.push_back(hwm_max / static_cast<double>(kRingCapacity));
      busy.push_back(busy_sum / static_cast<double>(kShards));
      chunk.push_back(calls == 0 ? 0.0 : static_cast<double>(ingested) / static_cast<double>(calls));
      pipe->stop();
    }
  }
  ladder_out out;
  for (const auto& r : rung) out.rung_s.push_back(median(r));
  out.offer_s = median(offer_s);
  out.drain_s = median(drain_s);
  out.ring_hwm_frac = median(hwm);
  out.busy_frac = median(busy);
  out.chunk_pkts = median(chunk);
  return out;
}

/// Flood ground truth replayed through an inline pipeline that predicts,
/// before every burst, which packets the parse stage will drop: a packet is
/// mitigated exactly when its core blocks its /8 (blocks(core_of(p), src>>24))
/// at the start of the burst, since a core's bitmap changes only at the end
/// of its own stage run.
struct flood_replay {
  std::vector<std::uint8_t> reached;  ///< 1 = the packet reached its shard's sketch
  std::uint64_t predicted_mitigated = 0;
  std::vector<std::size_t> first_blocked;  ///< per flood subnet: offset every core blocks it
};

flood_replay replay_flood(hh_pipeline& pipe, const inputs& in) {
  const std::size_t n = in.pkts.size();
  flood_replay fr;
  fr.reached.assign(n, 1);
  fr.first_blocked.assign(in.flood_subnets.size(), n);
  for (std::size_t i = 0; i < n; i += kBurst) {
    const std::size_t m = std::min(kBurst, n - i);
    for (std::size_t j = i; j < i + m; ++j) {
      const packet& p = in.pkts[j];
      if (pipe.blocks(pipe.core_of(p), p.src >> 24)) {
        fr.reached[j] = 0;
        ++fr.predicted_mitigated;
      }
    }
    for (std::size_t k = 0; k < in.flood_subnets.size(); ++k) {
      if (fr.first_blocked[k] != n) continue;
      bool all = true;
      for (std::size_t c = 0; c < pipe.cores(); ++c) all = all && pipe.blocks(c, in.flood_subnets[k]);
      if (all) fr.first_blocked[k] = i;
    }
    pipe.process(in.pkts.data() + i, m);
  }
  return fr;
}

results run_pipeline_workload(const options& opt, checks& chk, tracer* tr) {
  const workload& w = *opt.w;
  results r;
  const inputs in = set_up(opt, r, [&](const inputs& warm_in) {
    auto warm = make_pipeline(w, opt.seed, w.detect_stride, w.enforce);
    if (w.threaded) warm->start();
    warm->process(warm_in.pkts.data(), std::min(kWarmupPackets, warm_in.pkts.size()));
  });
  const std::size_t n = r.packets;

  // A fresh pipeline per repetition over the same fixed packet count, so
  // every repetition must end in the same state.
  std::vector<std::uint8_t> final_state;
  std::unique_ptr<hh_pipeline> pipe;
  std::vector<double> query_ms;
  checkpoint_bench<true, hh_frontend> ckpt;
  const std::uint32_t n_process = tr != nullptr ? tr->intern("pipeline.process") : 0;
  run_reps(opt, tr, r, [&](int rep, bool traced, std::vector<std::uint32_t>& burst_ns) {
    pipe = make_pipeline(w, opt.seed, w.detect_stride, w.enforce);
    if (w.threaded) pipe->start();
    const double secs = drive_pipeline(*pipe, in.pkts, burst_ns, traced ? tr : nullptr, n_process);
    pipe->stop();
    const pipeline_report total = pipe->report();
    const std::string tag = "rep " + std::to_string(rep);
    chk.expect(total.drops == 0 && total.ingested == n,
               tag + ": every offered packet ingested under block");
    auto state = snapshot::save_streamed(pipe->frontend());
    if (final_state.empty()) final_state = std::move(state);
    else chk.expect(state == final_state, tag + " ends in the same state");
    if (!traced) {
      std::size_t answers = 0;
      for (int q = 0; q < kQueriesPerRep; ++q) {
        const std::uint64_t t0 = now_ns();
        answers += pipe->frontend().heavy_hitters(kHhTheta).size();
        query_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      }
      chk.expect(answers == kQueriesPerRep * pipe->frontend().heavy_hitters(kHhTheta).size(),
                 tag + ": repeated heavy-hitter queries agree");
      ckpt.sample(pipe->frontend(), kCheckpointsPerRep, chk);
    }
    return rep_result{secs, total.ingested};
  });
  r.query_p50_ms = median(query_ms);
  r.hh_query_ms = r.query_p50_ms;

  const hh_frontend& fe = pipe->frontend();
  const pipeline_report total = pipe->report();
  double max_ingested = 0, sum_ingested = 0, sweeps = 0;
  for (std::size_t c = 0; c < pipe->cores(); ++c) {
    const core_report cr = pipe->report(c);
    max_ingested = std::max(max_ingested, static_cast<double>(cr.ingested));
    sum_ingested += static_cast<double>(cr.ingested);
    sweeps += static_cast<double>(cr.detect_sweeps);
  }
  r.load_ratio = max_ingested / (sum_ingested / static_cast<double>(pipe->cores()));
  r.sweeps = sweeps;
  r.active_rules = static_cast<double>(total.active_rules);
  r.mitigated = static_cast<double>(total.mitigated);

  // Which packets reached a sketch: all of them, unless the flood's parse
  // stage dropped some - then a deterministic replay predicts exactly which.
  std::vector<std::uint8_t> reached(n, 1);
  if (w.flood) {
    auto replay = make_pipeline(w, opt.seed, w.detect_stride, w.enforce);
    flood_replay fr = replay_flood(*replay, in);
    chk.expect(fr.predicted_mitigated == replay->report().mitigated,
               "predicted mitigations (" + std::to_string(fr.predicted_mitigated) +
                   ") equal report().mitigated (" +
                   std::to_string(replay->report().mitigated) + ")");
    chk.expect(snapshot::save_streamed(replay->frontend()) == final_state,
               "the prediction replay ends in the timed repetitions' state");
    std::uint64_t attack = 0, leaked = 0, legit_after = 0, legit_dropped = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (in.is_attack[i]) {
        ++attack;
        leaked += fr.reached[i];
      } else if (i >= in.onset) {
        ++legit_after;
        legit_dropped += 1 - fr.reached[i];
      }
    }
    r.flood_leak_frac = attack == 0 ? 0.0 : static_cast<double>(leaked) / static_cast<double>(attack);
    r.legit_drop_frac =
        legit_after == 0 ? 0.0 : static_cast<double>(legit_dropped) / static_cast<double>(legit_after);
    std::vector<double> delay;
    for (const std::size_t first : fr.first_blocked) {
      delay.push_back(static_cast<double>(first > in.onset ? first - in.onset : 0) / 1e3);
    }
    r.detect_delay_kpkt = median(delay);
    r.mitigated_flood_frac = fr.predicted_mitigated == 0
                                 ? 0.0
                                 : static_cast<double>(attack - leaked) /
                                       static_cast<double>(fr.predicted_mitigated);
    reached = std::move(fr.reached);
  }

  // Accuracy against exact per-shard windows (sharded_memento semantics).
  const auto window = perfbench::sharded_window(
      n, kShards, fe.shard(0).window_size(),
      [&](std::size_t i) { return pipe->core_of(in.pkts[i]); },
      [&](std::size_t i) { return reached[i] != 0; });
  std::unordered_map<std::uint64_t, std::uint64_t> exact;
  for (const std::size_t i : window) ++exact[flow_id(in.pkts[i])];
  const double bar = kHhTheta * static_cast<double>(fe.window_size());
  const double bound = fe.estimate_width() + sampling_term(fe.shard(0).window_size(), w.tau);
  std::unordered_set<std::uint64_t> heavy;
  for (const auto& [key, count] : exact) {
    if (static_cast<double>(count) >= bar) heavy.insert(key);
  }
  std::vector<std::uint64_t> reported;
  for (const auto& hh : fe.heavy_hitters(kHhTheta)) reported.push_back(hh.key);
  score(heavy, reported, r);
  // The bound holds for every key, so the error population is every exact
  // heavy hitter plus every key the sketch monitors - never empty, even when
  // the flood's parse stage leaves no heavy flow in the window.
  std::unordered_set<std::uint64_t> population = heavy;
  for (const std::uint64_t key : fe.monitored_keys()) population.insert(key);
  score_error(population, [&](std::uint64_t key) {
    const auto it = exact.find(key);
    const double f = it == exact.end() ? 0.0 : static_cast<double>(it->second);
    return std::abs(fe.query(key) - f) / bound;
  }, r);
  chk.expect(r.err_max_over_bound <= 1.0,
             "HH estimates within the ACCURACY.md bound (max err/bound " +
                 std::to_string(r.err_max_over_bound) + ")");

  // Layer counters of the final state.
  std::uint64_t drains = 0;
  double probe = 0, load = 0;
  for (std::size_t s = 0; s < fe.num_shards(); ++s) {
    drains += fe.shard(s).forced_drains();
    probe += fe.shard(s).counter_index_stats().mean_probe / static_cast<double>(kShards);
    load += fe.shard(s).overflow_table_stats().load_factor / static_cast<double>(kShards);
  }
  r.candidates = static_cast<double>(fe.candidate_count());
  r.forced_drains = static_cast<double>(drains);
  r.index_mean_probe = probe;
  r.overflow_load = load;
  chk.expect(drains == 0, "no forced drains");

  ckpt.report(r);
  ckpt.verify(fe, opt.corrupt_checkpoint, chk, [&](const hh_frontend& back) {
    const auto a = back.heavy_hitters(kHhTheta);
    const auto b = fe.heavy_hitters(kHhTheta);
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].key != b[i].key || a[i].estimate != b[i].estimate) return false;
    }
    return true;
  });

  if (tr != nullptr) {
    const ladder_out lo = hh_ladder(w, opt.seed, in.pkts, opt.seconds / 2, *tr, chk);
    const double per_pkt = 1e9 / static_cast<double>(n);
    r.update_ns_pkt = lo.rung_s[0] * per_pkt;
    r.route_ns_pkt = (lo.rung_s[1] - lo.rung_s[0]) * per_pkt;
    r.stage_ns_pkt = (lo.rung_s[2] - lo.rung_s[1]) * per_pkt;
    r.detect_ns_pkt = (lo.rung_s[3] - lo.rung_s[2]) * per_pkt;
    r.offer_ns_pkt = lo.offer_s * per_pkt;
    r.ring_hwm_frac = lo.ring_hwm_frac;
    r.worker_busy_frac = lo.busy_frac;
    r.chunk_pkts = lo.chunk_pkts;
    r.drain_ms = lo.drain_s * 1e3;
  }
  return r;
}

// --- hhh_2d: sharded 2-D H-Memento fed by update_batch inline ---------------------

using hhh_hierarchy = two_dim_hierarchy;
using hhh_frontend = sharded_h_memento<hhh_hierarchy>;

h_memento_config hhh_config(const workload& w, std::uint64_t seed) {
  return h_memento_config{kWindow, kCounters * hhh_hierarchy::hierarchy_size, w.tau, kDelta, seed};
}

struct hhh_rep {
  double seconds = 0;
  std::vector<double> output_ms;
  std::size_t last_entries = 0;
};

hhh_rep drive_hhh(hhh_frontend& fe, const std::vector<packet>& pkts,
                  std::vector<std::uint32_t>& burst_ns, tracer* tr, std::uint32_t n_update,
                  std::uint32_t n_output) {
  hhh_rep out;
  burst_ns.clear();
  std::uint64_t since_output = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < pkts.size(); i += kBurst) {
    const std::size_t m = std::min(kBurst, pkts.size() - i);
    const std::uint64_t b0 = now_ns();
    fe.update_batch(pkts.data() + i, m);
    const std::uint64_t b1 = now_ns();
    burst_ns.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(b1 - b0, UINT32_MAX)));
    if (tr != nullptr) tr->leaf(n_update, b0, b1);
    since_output += m;
    if (since_output >= kHhhOutputStride) {
      since_output = 0;
      const std::uint64_t q0 = now_ns();
      out.last_entries = fe.output(kHhhTheta).size();
      const std::uint64_t q1 = now_ns();
      out.output_ms.push_back(static_cast<double>(q1 - q0) / 1e6);
      if (tr != nullptr) tr->leaf(n_output, q0, q1);
    }
  }
  out.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return out;
}

/// The HHH ladder: L1 each shard's standalone h_memento on its pre-split
/// packets, L2 the sharded frontend. The pipeline and lb rungs do not exist
/// for HHH (the pipeline counts flows), so their layer metrics stay 0.
std::vector<double> hhh_ladder(const workload& w, std::uint64_t seed,
                               const std::vector<packet>& pkts, double budget_s, tracer& tr,
                               checks& chk) {
  const h_memento_config cfg = hhh_config(w, seed);
  const hhh_frontend router(cfg, kShards);
  const auto pre = split_bursts(pkts, [&](const packet& p) { return router.shard_of(p); });
  const std::uint32_t n_l1 = tr.intern("rung.L1"), n_l2 = tr.intern("rung.L2");
  const std::uint32_t n_kernel = tr.intern("h_memento.update_batch");
  const std::uint32_t n_shard = tr.intern("sharded_h_memento.update_batch");
  const double span_ns = span_cost_ns();
  std::vector<double> l1, l2;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  for (int round = 0; round < 5 && (round == 0 || now_ns() < deadline); ++round) {
    std::vector<h_memento<hhh_hierarchy>> shards;
    for (std::size_t s = 0; s < kShards; ++s) {
      shards.emplace_back(hhh_frontend::shard_config_for(cfg, kShards, s));
    }
    tr.open(n_l1);
    l1.push_back(close_rung(tr, span_ns, feed_standalone(shards, pre, tr, n_kernel)));

    hhh_frontend fe(cfg, kShards);
    tr.open(n_l2);
    const std::size_t spans = feed_bursts(pkts.size(), tr, n_shard, [&](std::size_t i, std::size_t m) {
      fe.update_batch(pkts.data() + i, m);
    });
    l2.push_back(close_rung(tr, span_ns, spans));
    for (std::size_t s = 0; s < kShards; ++s) {
      chk.expect(snapshot::save(shards[s]) == snapshot::save(fe.shard(s)),
                 "ladder rung L2 ends with the L1 save() bytes");
    }
  }
  return {median(l1), median(l2)};
}

bool same_output(const hhh_frontend::hhh_result& a, const hhh_frontend::hhh_result& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].key == b[i].key) || a[i].conditioned_frequency != b[i].conditioned_frequency ||
        a[i].upper_estimate != b[i].upper_estimate) {
      return false;
    }
  }
  return true;
}

results run_hhh_workload(const options& opt, checks& chk, tracer* tr) {
  const workload& w = *opt.w;
  const h_memento_config cfg = hhh_config(w, opt.seed);
  results r;
  const inputs in = set_up(opt, r, [&](const inputs& warm_in) {
    hhh_frontend warm(cfg, kShards);
    warm.update_batch(warm_in.pkts.data(), std::min(kWarmupPackets, warm_in.pkts.size()));
  });
  const std::size_t n = r.packets;

  std::vector<double> output_ms;
  std::vector<std::uint8_t> final_state;
  std::unique_ptr<hhh_frontend> fe;
  checkpoint_bench<false, hhh_frontend> ckpt;
  const std::uint32_t n_update = tr != nullptr ? tr->intern("sharded_h_memento.update_batch") : 0;
  const std::uint32_t n_output = tr != nullptr ? tr->intern("sharded_h_memento.output") : 0;
  run_reps(opt, tr, r, [&](int rep, bool traced, std::vector<std::uint32_t>& burst_ns) {
    fe = std::make_unique<hhh_frontend>(cfg, kShards);
    const hhh_rep hr =
        drive_hhh(*fe, in.pkts, burst_ns, traced ? tr : nullptr, n_update, n_output);
    const std::string tag = "rep " + std::to_string(rep);
    chk.expect(fe->stream_length() == n, tag + ": every packet counted");
    auto state = snapshot::save(*fe);
    if (final_state.empty()) final_state = std::move(state);
    else chk.expect(state == final_state, tag + " ends in the same state");
    if (!traced) {
      output_ms.insert(output_ms.end(), hr.output_ms.begin(), hr.output_ms.end());
      ckpt.sample(*fe, kCheckpointsPerRep, chk);
    }
    return rep_result{hr.seconds, fe->stream_length()};
  });
  r.query_p50_ms = median(output_ms);
  r.output_ms = r.query_p50_ms;

  // Recall / precision against the exact HHH set of the global last-W window.
  const auto reported = fe->output(kHhhTheta);
  r.output_entries = static_cast<double>(reported.size());
  std::vector<prefix2d> exact_keys;
  {
    const std::size_t last = std::min<std::size_t>(n, fe->window_size());
    const perfbench::prefix_counts_2d global(
        std::span<const packet>(in.pkts.data() + (n - last), last));
    for (const auto& e : global.hhh(kHhhTheta, fe->window_size())) exact_keys.push_back(e.key);
  }
  std::vector<prefix2d> reported_keys;
  for (const auto& e : reported) reported_keys.push_back(e.key);
  score(std::unordered_set<prefix2d>(exact_keys.begin(), exact_keys.end()),
        reported_keys, r);

  // Estimate error against exact counts over the union of the per-shard
  // windows (sharded_h_memento semantics), over the H-Memento bound: H times
  // the inner width plus Alg. 2's sampling term of the owning shard (summed
  // over shards for the wildcard patterns). Taken over every exact HHH
  // prefix and every prefix the shards monitor.
  std::vector<packet> in_window;
  for (const std::size_t i : perfbench::sharded_window(
           n, kShards, fe->shard(0).window_size(),
           [&](std::size_t i) { return fe->shard_of(in.pkts[i]); },
           [](std::size_t) { return true; })) {
    in_window.push_back(in.pkts[i]);
  }
  const perfbench::prefix_counts_2d sharded_counts(in_window);
  auto shard_bound = [&](std::size_t s) {
    const auto& sh = fe->shard(s);
    return static_cast<double>(hhh_hierarchy::hierarchy_size) * sh.inner().estimate_width() +
           sh.sampling_compensation();
  };
  std::unordered_set<prefix2d> population(exact_keys.begin(), exact_keys.end());
  for (std::size_t s = 0; s < kShards; ++s) {
    for (const prefix2d& k : fe->shard(s).inner().monitored_keys()) population.insert(k);
  }
  score_error(population, [&](const prefix2d& k) {
    double bound = 0;
    if (hhh_frontend::routable(k)) {
      bound = shard_bound(fe->shard_of_key(k));
    } else {
      for (std::size_t s = 0; s < kShards; ++s) bound += shard_bound(s);
    }
    const auto f = static_cast<double>(sharded_counts.count(k));
    return std::abs(fe->query(k) - f) / bound;
  }, r);
  chk.expect(r.err_max_over_bound <= 1.0,
             "HHH estimates within the H-Memento bound (max err/bound " +
                 std::to_string(r.err_max_over_bound) + ")");

  std::uint64_t drains = 0;
  double probe = 0, load = 0, cand = 0, max_len = 0, sum_len = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto& inner = fe->shard(s).inner();
    drains += inner.forced_drains();
    probe += inner.counter_index_stats().mean_probe / static_cast<double>(kShards);
    load += inner.overflow_table_stats().load_factor / static_cast<double>(kShards);
    cand += static_cast<double>(inner.candidate_count());
    max_len = std::max(max_len, static_cast<double>(inner.stream_length()));
    sum_len += static_cast<double>(inner.stream_length());
  }
  r.forced_drains = static_cast<double>(drains);
  r.index_mean_probe = probe;
  r.overflow_load = load;
  r.candidates = cand;
  r.load_ratio = max_len / (sum_len / static_cast<double>(kShards));
  chk.expect(drains == 0, "no forced drains");

  ckpt.report(r);
  ckpt.verify(*fe, opt.corrupt_checkpoint, chk, [&](const hhh_frontend& back) {
    return same_output(back.output(kHhhTheta), reported);
  });

  if (tr != nullptr) {
    const auto rung = hhh_ladder(w, opt.seed, in.pkts, opt.seconds / 2, *tr, chk);
    const double per_pkt = 1e9 / static_cast<double>(n);
    r.update_ns_pkt = rung[0] * per_pkt;
    r.route_ns_pkt = (rung[1] - rung[0]) * per_pkt;
  }
  return r;
}

// --- report -------------------------------------------------------------------------

std::vector<metric> end_to_end(const results& r) {
  return {
      {"setup_s", r.setup_s, "s"},
      {"throughput_mpps", r.throughput_mpps, "Mpps"},
      {"recall", r.recall, "ratio"},
      {"err_mean_over_bound", r.err_mean_over_bound, "ratio"},
      {"checkpoint_kb", r.checkpoint_kb, "KB"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

std::vector<metric> per_layer(const results& r) {
  return {
      {"trace.gen_s", r.gen_s, "s"},
      {"trace.overhead_frac", r.trace_overhead_frac, "ratio"},
      {"core.update_ns_pkt", r.update_ns_pkt, "ns/pkt"},
      {"core.candidates", r.candidates, "count"},
      {"core.forced_drains", r.forced_drains, "count"},
      {"sketch.index_mean_probe", r.index_mean_probe, "slots"},
      {"sketch.overflow_load", r.overflow_load, "ratio"},
      {"sketch.precision", r.precision, "ratio"},
      {"sketch.err_max_over_bound", r.err_max_over_bound, "ratio"},
      {"shard.route_ns_pkt", r.route_ns_pkt, "ns/pkt"},
      {"shard.load_ratio", r.load_ratio, "ratio"},
      {"shard.hh_query_ms", r.hh_query_ms, "ms"},
      {"pipeline.stage_ns_pkt", r.stage_ns_pkt, "ns/pkt"},
      {"pipeline.offer_ns_pkt", r.offer_ns_pkt, "ns/pkt"},
      {"pipeline.ring_hwm_frac", r.ring_hwm_frac, "ratio"},
      {"pipeline.worker_busy_frac", r.worker_busy_frac, "ratio"},
      {"pipeline.chunk_pkts", r.chunk_pkts, "pkts"},
      {"pipeline.drain_ms", r.drain_ms, "ms"},
      {"pipeline.drop_frac", r.drop_frac, "ratio"},
      {"lb.detect_ns_pkt", r.detect_ns_pkt, "ns/pkt"},
      {"lb.sweeps", r.sweeps, "count"},
      {"lb.active_rules", r.active_rules, "count"},
      {"lb.mitigated", r.mitigated, "count"},
      {"hierarchy.output_ms", r.output_ms, "ms"},
      {"hierarchy.output_entries", r.output_entries, "count"},
      {"snapshot.capture_ms", r.checkpoint_save_ms, "ms"},
      {"snapshot.restore_ms", r.checkpoint_restore_ms, "ms"},
      {"snapshot.peak_buffered_kb", r.peak_buffered_kb, "KB"},
  };
}

/// The flood's mitigation outcome: printed for flood_mitigate, which stays
/// out of BENCHMARK.json (see NOTES.md), so these are report lines only.
std::vector<metric> flood_outcome(const results& r) {
  return {
      {"flood_leak_frac", r.flood_leak_frac, "ratio"},
      {"legit_drop_frac", r.legit_drop_frac, "ratio"},
      {"detect_delay_kpkt", r.detect_delay_kpkt, "kpkt"},
      {"mitigated_flood_frac", r.mitigated_flood_frac, "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse(argc, argv);
  const workload& w = *opt.w;
  const perfbench::host_fingerprint host = perfbench::fingerprint();
  // hh_* push into kShards worker threads; the traced ladder's L5 rung does
  // the same for every pipeline workload. Everything else is one thread.
  const unsigned threads = !w.hhh && (w.threaded || opt.trace) ? 1 + kShards : 1;
  std::printf("# host nproc=%u simd=%s compiler=\"%s\" build=%s\n", host.nproc,
              host.simd.c_str(), host.compiler.c_str(), host.build_type.c_str());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d threads=%u\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0, threads);
  if (threads > host.nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %u threads (producer + workers) but this host grants %u "
                 "CPUs; refusing to report timeslicing as parallel throughput\n",
                 w.name, threads, host.nproc);
    return 3;
  }

  checks chk;
  tracer spans;
  tracer* tr = opt.trace ? &spans : nullptr;
  results r = w.hhh ? run_hhh_workload(opt, chk, tr) : run_pipeline_workload(opt, chk, tr);
  r.peak_rss_mb = perfbench::peak_rss_mb();
  if (tr != nullptr && !opt.spans_path.empty()) {
    chk.expect(spans.write(opt.spans_path), "spans written to " + opt.spans_path);
  }

  std::printf("# %zu untraced repetitions of %zu packets; %zu bursts timed in all\n", r.reps,
              r.packets, r.burst_samples);
  for (const auto& m : end_to_end(r)) {
    std::printf("metric %-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (tr != nullptr) {
    for (const auto& m : per_layer(r)) {
      std::printf("layer  %-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  } else {
    // Measured but unbounded: too noisy or 0 by construction (see NOTES.md).
    const metric also[] = {
        {"burst_p50_us", r.burst_p50_us, "us"},
        {"burst_p99_us", r.burst_p99_us, "us"},
        {"query_p50_ms", r.query_p50_ms, "ms"},
        {"checkpoint_save_ms", r.checkpoint_save_ms, "ms"},
        {"checkpoint_restore_ms", r.checkpoint_restore_ms, "ms"},
        {"precision", r.precision, "ratio"},
        {"err_max_over_bound", r.err_max_over_bound, "ratio"},
        {"drop_frac", r.drop_frac, "ratio"},
    };
    for (const auto& m : also) {
      std::printf("also   %-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (w.flood) {
    for (const auto& m : flood_outcome(r)) {
      std::printf("flood  %-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (tr != nullptr) std::printf("# %zu spans recorded\n", spans.size());
  std::printf("# checks: %llu run, %llu failed\n", static_cast<unsigned long long>(chk.run()),
              static_cast<unsigned long long>(chk.failed()));

  const bool correct = chk.failed() == 0 && r.lost == 0;
  perfbench::print_result(correct, r.offered + chk.run(), r.lost + chk.failed(),
                          opt.trace ? per_layer(r) : end_to_end(r));
  return correct ? 0 : 1;
}
