// The four perfbench workloads. Each one times the program from
// load_dataset onward: set-up (load + construction) is repeated through the
// run and its median reported; the first epoch / serving warm-up runs
// untimed; the timed phase then runs for the run's time budget. The training
// and sampling workloads interleave a serving probe on their own graph with
// their epochs, so every run reports the serving metrics; serve-open is the
// workload built around them.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "bench_util.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/minibatch.hpp"
#include "core/node2vec.hpp"
#include "graph/io.hpp"
#include "nn/model.hpp"
#include "serve/engine.hpp"
#include "train/pipeline.hpp"

namespace perfbench {

using namespace dms;

namespace {

// --- workload shapes ----------------------------------------------------------

constexpr int kSetupReps = 9;          ///< set-up repetitions per run (median)
constexpr double kProbeShare = 0.4;    ///< share of the budget for the serving probe
constexpr int kMinProbePasses = 1;
constexpr int kMinTimedEpochs = 3;
constexpr int kMaxTimedEpochs = 200;
constexpr index_t kBatch = 64;         ///< paper: 1024 (bench-scale arch)
constexpr index_t kHidden = 32;
constexpr int kFeatures = 32;
constexpr int kScaleShift = -2;        ///< stand-ins at 1/4 of their default size
const std::vector<index_t> kSageFanout = {8, 4, 4};  // paper: (15,10,5)
const std::vector<index_t> kServeFanout = {8, 4};    // 2-layer serving model

/// Serving traffic. Rates, window and cap are absolute (never calibrated on
/// the host), so every build sees the same arrival schedule.
struct Traffic {
  std::size_t open_requests = 0;     ///< Poisson trace length (one open-loop pass)
  double rate_rps = 0.0;             ///< arrival rate on the serving clock
  double window_s = 0.0;             ///< coalescing deadline
  index_t cap = 1;                   ///< coalescing batch cap
  std::size_t backlog_requests = 0;  ///< requests per saturated-backlog pass
};

/// serve-open: ~15% of a one-request-at-a-time server's capacity, so queues
/// stay short and latency reflects per-request cost.
constexpr Traffic kServeOpenTraffic{2000, 500.0, 0.25e-3, 16, 512};
/// The serving probe interleaved with the epochs of the other workloads.
constexpr Traffic kProbeTraffic{1500, 100.0, 0.25e-3, 16, 512};

StandInConfig standin_config(std::uint64_t seed) {
  StandInConfig c;
  c.scale_shift = kScaleShift;
  c.feature_dim = kFeatures;
  c.seed = derive_seed(seed, 0xda7aULL);
  return c;
}

std::uint64_t serve_sampler_seed(std::uint64_t seed) { return derive_seed(seed, 0x5a3eULL); }

bool uses_papers(const std::string& workload) { return workload == "train-partitioned"; }

// --- small helpers ------------------------------------------------------------

void add(std::vector<Metric>* out, const std::string& name, double value,
         const std::string& unit) {
  out->push_back({name, value, unit});
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

double sum_ops(const std::map<std::string, double>& ops, const std::string& suffix) {
  double s = 0.0;
  for (const auto& [key, sec] : ops) {
    if (suffix.empty() ||
        (key.size() >= suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0)) {
      s += sec;
    }
  }
  return s;
}

std::map<std::string, double> diff_ops(const std::map<std::string, double>& after,
                                       const std::map<std::string, double>& before) {
  std::map<std::string, double> d = after;
  for (const auto& [key, sec] : before) d[key] -= sec;
  return d;
}

double phase_seconds(const EpochStats& s, const std::string& phase) {
  double t = 0.0;
  if (auto it = s.compute_phases.find(phase); it != s.compute_phases.end()) t += it->second;
  if (auto it = s.comm_phases.find(phase); it != s.comm_phases.end()) t += it->second;
  return t;
}

/// Per-epoch communication totals, read from the cluster after an epoch.
struct CommTotals {
  std::map<std::string, CommStats> phases;
  double bytes() const {
    double b = 0.0;
    for (const auto& [_, c] : phases) b += static_cast<double>(c.bytes);
    return b;
  }
  double messages() const {
    double m = 0.0;
    for (const auto& [_, c] : phases) m += static_cast<double>(c.messages);
    return m;
  }
  double seconds() const {
    double s = 0.0;
    for (const auto& [_, c] : phases) s += c.seconds;
    return s;
  }
  double mb(const std::string& phase) const {
    auto it = phases.find(phase);
    return it == phases.end() ? 0.0 : static_cast<double>(it->second.bytes) / 1e6;
  }
};

/// Times set-up — load_dataset plus construction — kSetupReps times per run
/// (a fixed count, so the run's allocation history and peak memory do not
/// depend on host speed) and reports the median. The first repetition
/// builds the instance the run keeps; the others build throwaway instances
/// at even steps through the timed phase. The host's speed drifts over
/// seconds, so repetitions taken back to back at the start of a run read the
/// speed of that one second, and their median spread 0.15-0.30 between runs.
template <typename Instance>
class SetupReps {
 public:
  using Make = std::function<Instance(const Dataset&)>;

  SetupReps(const Options& opt, Tracer& tr, Make make)
      : opt_(opt), tr_(tr), make_(std::move(make)) {}

  /// The first repetition; the run keeps its dataset and instance.
  Instance first(std::unique_ptr<Dataset>* ds) {
    Timer t;
    *ds = load();
    Instance inst = make_(**ds);
    secs_.push_back(t.seconds());
    return inst;
  }

  /// Runs the throwaway repetitions due once `share` of the timed phase has
  /// passed: repetition k is due at share k / (kSetupReps - 1).
  void at(double share) {
    while (static_cast<int>(secs_.size()) < kSetupReps &&
           share * (kSetupReps - 1) >= static_cast<double>(secs_.size())) {
      Timer t;
      const std::unique_ptr<Dataset> ds = load();
      const Instance inst = make_(*ds);
      secs_.push_back(t.seconds());
    }
  }

  /// Runs the repetitions not yet run; returns the median set-up seconds.
  double finish() {
    at(1.0);
    return median(secs_);
  }

 private:
  std::unique_ptr<Dataset> load() {
    auto span = tr_.span("load_dataset");
    return std::make_unique<Dataset>(load_dataset(opt_.data_path));
  }

  const Options& opt_;
  Tracer& tr_;
  Make make_;
  std::vector<double> secs_;
};

// --- serving -------------------------------------------------------------------

std::vector<index_t> request_seeds(const Dataset& ds, Pcg32& rng) {
  const std::size_t k = 1 + static_cast<std::size_t>(rng.bounded(4));
  std::vector<index_t> seeds;
  while (seeds.size() < k) {
    const index_t v = ds.train_idx[static_cast<std::size_t>(
        rng.bounded(static_cast<std::uint32_t>(ds.train_idx.size())))];
    if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) seeds.push_back(v);
  }
  return seeds;
}

/// Seeded Poisson trace: ids [0, n), 1-4 distinct train-split seeds each.
std::vector<ServeRequest> poisson_trace(const Dataset& ds, std::size_t n,
                                        double rate, std::uint64_t seed) {
  std::vector<ServeRequest> reqs(n);
  Pcg32 rng(derive_seed(seed, 0x7a11ULL), 0x5e12eULL);
  double clock = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i].id = static_cast<index_t>(i);
    reqs[i].seeds = request_seeds(ds, rng);
    reqs[i].arrival = clock;
    clock += -std::log(1.0 - rng.uniform()) / rate;
  }
  return reqs;
}

/// Sample buffer of fixed capacity, allocated and touched up front, so a
/// run's memory footprint does not depend on how many samples its time
/// budget allows.
class SampleBuffer {
 public:
  explicit SampleBuffer(std::size_t capacity) : v_(capacity, 0.0) {}
  void push(double x) {
    if (n_ < v_.size()) v_[n_++] = x;
  }
  double percentile(double q) const {
    return dms::percentile(std::vector<double>(v_.begin(), v_.begin() + static_cast<long>(n_)), q);
  }

 private:
  std::vector<double> v_;
  std::size_t n_ = 0;
};

/// Drives serving traffic through a ServeEngine as a discrete-event single
/// server: arrivals replay on the serving clock, the server's busy time is
/// the measured host time of each serve() call, and a batch starts at
/// max(ready_at, server_free) — backlog behind a busy server coalesces.
/// Latency runs from a request's arrival (when it was due) to its batch's
/// completion. Callers alternate open-loop passes with saturated-backlog
/// passes until their time budget ends. Each pass serves fresh seeded
/// requests (pass k's Poisson trace derives from the seed and k), so the
/// latency percentiles rest on every request of the run rather than on the
/// few heaviest requests of one short trace replayed many times.
class ServeRunner {
 public:
  ServeRunner(const Dataset& ds, const ProcessGrid& grid, const SageModel& model,
              const std::vector<index_t>& fanouts, const Traffic& traffic,
              std::uint64_t seed, Tracer& tr, FeatureStore& store,
              std::unique_ptr<ServeEngine> engine)
      : ds_(ds), grid_(grid), model_(model), traffic_(traffic), tr_(tr), store_(store),
        cost_(dms::bench::perlmutter_links()),
        seed_(seed),
        trace_(trace_for(0)),
        backlog_rng_(derive_seed(seed, 0xbac0ULL), 3),
        latency_(traffic.open_requests * kMaxPasses),
        queue_wait_(traffic.open_requests * kMaxPasses),
        engine_(std::move(engine)) {
    ecfg_.fanouts = fanouts;
    ecfg_.sampler_seed = serve_sampler_seed(seed);
    if (!engine_) {
      auto span = tr_.span("ServeEngine::ServeEngine");
      engine_ = std::make_unique<ServeEngine>(ds.graph, store, model, ecfg_, &grid);
    }
    refill_backlog();
    // Warm-up (untimed): grow the arena on cap-sized batches, then freeze.
    std::vector<std::vector<index_t>> warm;
    for (index_t i = 0; i < traffic.cap; ++i) {
      warm.push_back(backlog_[static_cast<std::size_t>(i) % backlog_.size()].seeds);
    }
    {
      auto span = tr_.span("ServeEngine::warmup");
      engine_->warmup(warm);
    }
    // Subset whose logits are checked against a fresh engine.
    Pcg32 pick(derive_seed(seed, 0xc4ecULL), 2);
    for (int i = 0; i < 12; ++i) {
      kept_.emplace(static_cast<index_t>(pick.bounded(
                        static_cast<std::uint32_t>(trace_.size()))),
                    DenseF());
    }
  }

  /// No room left to record another open-loop pass.
  bool full() const { return open_passes_ >= kMaxPasses; }

  /// One open-loop replay of the trace.
  void open_pass() {
    if (full()) return;
    if (open_passes_ > 0) trace_ = trace_for(open_passes_);
    Coalescer coal(CoalescerConfig{traffic_.window_s, traffic_.cap});
    for (const ServeRequest& r : trace_) coal.push(r);
    seen_.assign(trace_.size(), 0);
    Cluster clock(grid_, cost_);
    const int remote = cost_.link().ranks_per_node;  // first rank of the next node
    double server_free = 0.0, busy = 0.0;
    const std::size_t bytes_before = store_.cache_stats().bytes_moved;
    while (!coal.empty()) {
      const double start = std::max(coal.ready_at(), server_free);
      CoalescedBatch batch = pop(coal, start);
      const std::size_t miss_before = store_.cache_stats().bytes_moved;
      Timer t;
      ServeBatchResult res;
      {
        auto span = tr_.span("ServeEngine::serve");
        res = engine_->serve(batch);
      }
      const double svc = t.seconds();
      const std::size_t miss = store_.cache_stats().bytes_moved - miss_before;
      server_free = start + svc;
      busy += svc;
      clock.add_compute("serve", svc);
      if (miss > 0) {
        // Modeled on the α–β clock as one message from another node.
        clock.record_comm("serve_fetch", cost_.p2p(0, remote, miss), miss, 1);
      }
      ++batches_;
      batch_requests_ += static_cast<double>(res.timing.requests);
      batch_sampling_ += res.timing.sampling;
      batch_fetch_ += res.timing.fetch;
      batch_inference_ += res.timing.inference;
      if (res.logits.size() != batch.requests.size()) ++not_served_once_;
      for (std::size_t i = 0; i < std::min(batch.requests.size(), res.logits.size()); ++i) {
        const ServeRequest& r = batch.requests[i];
        if (res.logits[i].rows() != static_cast<index_t>(r.seeds.size())) ++not_served_once_;
        ++seen_[static_cast<std::size_t>(r.id)];
        latency_.push(server_free - r.arrival);
        queue_wait_.push(start - r.arrival);
        if (auto it = kept_.find(r.id); it != kept_.end()) it->second = std::move(res.logits[i]);
      }
    }
    if (std::any_of(seen_.begin(), seen_.end(), [](int n) { return n != 1; })) {
      ++not_served_once_;
    }
    ++open_passes_;
    pass_busy_.push_back(busy);
    pass_sim_.push_back(clock.total_time());
    const CommTotals comm{clock.comm_stats()};
    pass_miss_mb_.push_back(
        static_cast<double>(store_.cache_stats().bytes_moved - bytes_before) / 1e6);
    pass_messages_.push_back(comm.messages());
    pass_comm_s_.push_back(comm.seconds());
  }

  /// One saturated backlog: every request is queued before the server starts.
  void backlog_pass() {
    if (full()) return;
    Coalescer coal(CoalescerConfig{traffic_.window_s, traffic_.cap});
    for (const ServeRequest& r : backlog_) coal.push(r);
    double server_free = 0.0, busy = 0.0;
    std::size_t done = 0;
    while (!coal.empty()) {
      const double start = std::max(coal.ready_at(), server_free);
      CoalescedBatch batch = pop(coal, start);
      Timer t;
      {
        auto span = tr_.span("ServeEngine::serve");
        done += engine_->serve(batch).logits.size();
      }
      server_free = start + t.seconds();
      busy += t.seconds();
    }
    if (done != backlog_.size()) ++not_served_once_;
    sat_rps_.push_back(static_cast<double>(done) / busy);
    refill_backlog();
  }

  long served() const { return static_cast<long>(open_passes_ * trace_.size()); }

  /// Checks: every request is served exactly once; the subset's coalesced
  /// logits (from the last open pass) equal the same requests served alone
  /// by a fresh engine.
  void check(Failures* failures) const {
    if (not_served_once_ > 0) {
      failures->push_back("serve: " + std::to_string(not_served_once_) +
                          " times a pass did not answer every request exactly once");
    }
    ServeEngine fresh(ds_.graph, store_, model_, ecfg_, &grid_);
    for (const auto& [id, logits] : kept_) {
      if (!logits_identical(logits, fresh.serve_one(trace_[static_cast<std::size_t>(id)]))) {
        failures->push_back("serve: coalesced logits of request " + std::to_string(id) +
                            " differ from the request served alone");
      }
    }
  }

  void end_to_end(RunResult* r) const {
    add(&r->end_to_end, "serve_p50_ms", latency_.percentile(50.0) * 1e3, "ms");
    add(&r->end_to_end, "serve_p99_ms", latency_.percentile(99.0) * 1e3, "ms");
    add(&r->end_to_end, "serve_sat_rps", median(sat_rps_), "1/s");
  }

  void layers(RunResult* r) const {
    const double n = std::max(1.0, batches_);
    add(&r->per_layer, "serve.construct_s",
        median(tr_.durations("ServeEngine::ServeEngine")), "s");
    add(&r->per_layer, "serve.queue_wait_p99_ms", queue_wait_.percentile(99.0) * 1e3, "ms");
    add(&r->per_layer, "serve.batch_sampling_ms", batch_sampling_ / n * 1e3, "ms");
    add(&r->per_layer, "serve.batch_fetch_ms", batch_fetch_ / n * 1e3, "ms");
    add(&r->per_layer, "serve.batch_inference_ms", batch_inference_ / n * 1e3, "ms");
    add(&r->per_layer, "serve.coalescer_pop_us",
        mean(tr_.durations("Coalescer::pop")) * 1e6, "us");
    add(&r->per_layer, "serve.mean_batch_size", batch_requests_ / n, "count");
  }

  /// Adjacency entries the engine sampled for the checked subset of the
  /// first pass's trace, counted on an independent sampler (equal under the
  /// determinism contract).
  double sampled_nnz_of_subset() const {
    const std::vector<ServeRequest> first = trace_for(0);
    SamplerContext ctx;
    ctx.config = SamplerConfig{ecfg_.fanouts, ecfg_.sampler_seed};
    const auto sampler =
        make_sampler(SamplerKind::kGraphSage, DistMode::kReplicated, ds_.graph, ctx);
    std::vector<std::vector<index_t>> seeds;
    std::vector<index_t> ids;
    for (const auto& [id, _] : kept_) {
      seeds.push_back(first[static_cast<std::size_t>(id)].seeds);
      ids.push_back(id);
    }
    return sampled_nnz(sampler->sample_bulk(seeds, ids, ecfg_.serve_seed));
  }

  double pass_busy_s() const { return median(pass_busy_); }
  double pass_sim_s() const { return median(pass_sim_); }
  double pass_miss_mb() const { return median(pass_miss_mb_); }
  double pass_messages() const { return median(pass_messages_); }
  double pass_comm_s() const { return median(pass_comm_s_); }

 private:
  static constexpr std::size_t kMaxPasses = 256;

  std::vector<ServeRequest> trace_for(std::size_t pass) const {
    return poisson_trace(ds_, traffic_.open_requests, traffic_.rate_rps,
                         derive_seed(seed_, 0x9a55ULL, static_cast<std::uint64_t>(pass)));
  }

  /// Fresh backlog requests, with ids after the trace's.
  void refill_backlog() {
    backlog_.resize(traffic_.backlog_requests);
    for (std::size_t i = 0; i < backlog_.size(); ++i) {
      backlog_[i].id = static_cast<index_t>(traffic_.open_requests + i);
      backlog_[i].seeds = request_seeds(ds_, backlog_rng_);
    }
  }

  CoalescedBatch pop(Coalescer& coal, double now) {
    auto span = tr_.span("Coalescer::pop");
    return coal.pop(now);
  }

  const Dataset& ds_;
  const ProcessGrid& grid_;
  const SageModel& model_;
  Traffic traffic_;
  Tracer& tr_;
  FeatureStore& store_;
  CostModel cost_;
  std::uint64_t seed_;
  ServeEngineConfig ecfg_;
  std::vector<ServeRequest> trace_;
  Pcg32 backlog_rng_;
  std::vector<ServeRequest> backlog_;
  SampleBuffer latency_;
  SampleBuffer queue_wait_;
  std::unique_ptr<ServeEngine> engine_;
  std::map<index_t, DenseF> kept_;
  std::vector<int> seen_;
  std::size_t open_passes_ = 0;
  int not_served_once_ = 0;
  std::vector<double> pass_busy_, pass_sim_, sat_rps_;
  std::vector<double> pass_miss_mb_, pass_messages_, pass_comm_s_;
  double batches_ = 0.0, batch_requests_ = 0.0;
  double batch_sampling_ = 0.0, batch_fetch_ = 0.0, batch_inference_ = 0.0;
};

/// Runs the timed phase of the training and sampling workloads: their
/// epochs and the serving probe (open-loop passes alternating with saturated
/// backlogs), interleaved so that the probe takes kProbeShare of the time.
/// The host's speed drifts over seconds, so a metric measured in one stretch
/// of the run carries that stretch's speed; interleaved, the epochs, the
/// probe and the set-up repetitions (`tick`, given the elapsed share of the
/// budget) all sample the whole run. Ends with a probe pass, whose logits
/// the checks compare, once `seconds` have passed and both have run their
/// minimum.
template <typename Epoch, typename Tick>
void run_timed(double seconds, ServeRunner& serve, Epoch&& epoch, Tick&& tick) {
  Timer budget;
  double epoch_s = 0.0, probe_s = 0.0;
  int epochs = 0, passes = 0;
  bool probe_last = false;
  for (;;) {
    const bool over = budget.seconds() >= seconds && epochs >= kMinTimedEpochs &&
                      passes >= kMinProbePasses;
    const bool epochs_capped = epochs >= kMaxTimedEpochs;
    if ((over && probe_last) || (serve.full() && (over || epochs_capped))) break;
    tick(budget.seconds() / seconds);
    const bool probe = !serve.full() && (over || epochs_capped ||
                                         (epochs > 0 && probe_s < kProbeShare * (epoch_s + probe_s)));
    Timer t;
    if (probe) {
      serve.open_pass();
      serve.backlog_pass();
      ++passes;
      probe_s += t.seconds();
    } else {
      epoch();
      ++epochs;
      epoch_s += t.seconds();
    }
    probe_last = probe;
  }
}

/// Per-epoch layer figures, averaged over the timed epochs.
struct LayerSums {
  std::map<std::string, std::vector<double>> v;
  void put(const std::string& k, double x) { v[k].push_back(x); }
  double avg(const std::string& k) const {
    auto it = v.find(k);
    return it == v.end() ? 0.0 : mean(it->second);
  }
};

void sampling_layers(const std::map<std::string, double>& ops, LayerSums* l) {
  l->put("plan.sample_host_s", sum_ops(ops, ""));
  l->put("sparse.spgemm_host_s", sum_ops(ops, "/spgemm"));
  l->put("core.its_host_s", sum_ops(ops, "/its_sample"));
  l->put("plan.extract_host_s", sum_ops(ops, "/extract"));
  l->put("walk.fused_host_s", sum_ops(ops, "/fused_walk"));
  l->put("plan.induced_host_s", sum_ops(ops, "/induced"));
}

/// Emits every per-layer metric in a fixed order (zero where the workload
/// does not exercise the layer).
void emit_layers(const LayerSums& l, double load_s, double train_construct_s,
                 double sampled, RunResult* r) {
  add(&r->per_layer, "graph.load_s", load_s, "s");
  add(&r->per_layer, "train.construct_s", train_construct_s, "s");
  for (const char* k : {"plan.sample_host_s", "sparse.spgemm_host_s", "core.its_host_s",
                        "plan.extract_host_s", "walk.fused_host_s", "plan.induced_host_s"}) {
    add(&r->per_layer, k, l.avg(k), "s");
  }
  add(&r->per_layer, "plan.sampled_nnz", sampled, "count");
  for (const char* k : {"dist.probability_sim_s", "dist.sampling_sim_s",
                        "dist.extraction_sim_s"}) {
    add(&r->per_layer, k, l.avg(k), "s");
  }
  for (const char* k : {"comm.probability_mb", "comm.fetch_mb", "comm.allreduce_mb"}) {
    add(&r->per_layer, k, l.avg(k), "MB");
  }
  add(&r->per_layer, "comm.messages", l.avg("comm.messages"), "count");
  add(&r->per_layer, "comm.sim_s", l.avg("comm.sim_s"), "s");
  for (const char* k : {"train.sampling_sim_s", "train.fetch_sim_s",
                        "train.overlap_saved_sim_s", "train.stall_sim_s"}) {
    add(&r->per_layer, k, l.avg(k), "s");
  }
  add(&r->per_layer, "train.cache_hit_ratio", l.avg("train.cache_hit_ratio"), "ratio");
  add(&r->per_layer, "nn.propagation_sim_s", l.avg("nn.propagation_sim_s"), "s");
}

void comm_layers(const CommTotals& c, LayerSums* l) {
  l->put("comm.probability_mb", c.mb("probability"));
  l->put("comm.fetch_mb", c.mb("fetch"));
  l->put("comm.allreduce_mb", c.mb("propagation"));
  l->put("comm.messages", c.messages());
  l->put("comm.sim_s", c.seconds());
}

// --- train-replicated / train-partitioned ----------------------------------------

/// Per-epoch accounting identities: the fetched payload is exactly the
/// missed rows, and the overlapped executor's credit plus exposed stall
/// covers exactly the prefetchable work.
bool epoch_accounting_holds(const EpochStats& s, const Dataset& data, Failures* failures) {
  const std::size_t row_bytes = static_cast<std::size_t>(data.feature_dim()) * sizeof(float);
  if (s.fetch_bytes != s.cache_misses * row_bytes) {
    failures->push_back("fetch bytes != cache misses x dim x 4");
    return false;
  }
  if (std::abs(s.overlap_saved + s.stall - (s.sampling + s.fetch)) >
      1e-9 * std::max(1.0, s.sampling + s.fetch)) {
    failures->push_back("overlap_saved + stall != sampling + fetch");
    return false;
  }
  return true;
}

RunResult run_train(const Options& opt, Tracer& tr, bool partitioned) {
  RunResult r;
  const int p = partitioned ? 16 : 8;
  const int c = 2;
  const CostModel cost(dms::bench::perlmutter_links());
  PipelineConfig cfg;
  cfg.sampler = SamplerKind::kGraphSage;
  cfg.mode = partitioned ? DistMode::kPartitioned : DistMode::kReplicated;
  cfg.batch_size = kBatch;
  cfg.fanouts = kSageFanout;
  cfg.hidden = kHidden;
  cfg.bulk_k = 0;  // k = all, staged into prefetch rounds
  cfg.overlap = true;
  cfg.seed = derive_seed(opt.seed, 0x7e41ULL);

  struct Trainer {
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<Pipeline> pipe;
  };
  SetupReps<Trainer> setup(opt, tr, [&](const Dataset& d) {
    PipelineConfig pc = cfg;
    if (!partitioned) pc.feature_cache = {CachePolicy::kPreSample, d.num_vertices() / 8};
    Trainer t;
    t.cluster = std::make_unique<Cluster>(ProcessGrid(p, c), cost);
    auto span = tr.span("Pipeline::Pipeline");
    t.pipe = std::make_unique<Pipeline>(*t.cluster, d, pc);
    return t;
  });
  std::unique_ptr<Dataset> ds;
  const Trainer trainer = setup.first(&ds);
  const Dataset& data = *ds;
  Cluster* const cluster = trainer.cluster.get();
  Pipeline* const pipe = trainer.pipe.get();

  // Epoch 0 absorbs lazy set-up (and the presample warm-up bill); untimed.
  double first_loss = 0.0;
  {
    auto span = tr.span("Pipeline::run_epoch");
    first_loss = pipe->run_epoch(0).loss;
  }
  // The serving probe (this graph, the model being trained) runs between epochs.
  FeatureStore serve_store(cluster->grid(), data.features);
  ServeRunner serve(data, cluster->grid(), pipe->model(), cfg.fanouts, kProbeTraffic,
                    opt.seed, tr, serve_store, nullptr);
  std::vector<double> host, sim, comm_mb;
  EpochStats last;
  bool accounting_ok = true;
  LayerSums layers;
  int epoch = 1;
  auto timed_epoch = [&] {
    ++r.attempted;
    try {
      Timer t;
      EpochStats s;
      {
        auto span = tr.span("Pipeline::run_epoch");
        s = pipe->run_epoch(epoch);
      }
      host.push_back(t.seconds());
      const CommTotals comm{cluster->comm_stats()};
      sim.push_back(s.total);
      comm_mb.push_back(comm.bytes() / 1e6);
      if (tr.enabled()) {
        sampling_layers(s.sampler_ops, &layers);
        comm_layers(comm, &layers);
        for (const char* ph : {"probability", "sampling", "extraction"}) {
          layers.put(std::string("dist.") + ph + "_sim_s", phase_seconds(s, ph));
        }
        layers.put("train.sampling_sim_s", s.sampling);
        layers.put("train.fetch_sim_s", s.fetch);
        layers.put("train.overlap_saved_sim_s", s.overlap_saved);
        layers.put("train.stall_sim_s", s.stall);
        const double remote = static_cast<double>(s.cache_hits + s.cache_misses);
        layers.put("train.cache_hit_ratio",
                   remote > 0 ? static_cast<double>(s.cache_hits) / remote : 0.0);
        layers.put("nn.propagation_sim_s", s.propagation);
      }
      accounting_ok = accounting_ok && epoch_accounting_holds(s, data, &r.failures);
      last = std::move(s);
    } catch (const std::exception& e) {
      ++r.failed;
      r.failures.push_back("epoch " + std::to_string(epoch) + " threw: " + e.what());
    }
    ++epoch;
  };
  run_timed(opt.seconds, serve, timed_epoch, [&](double share) { setup.at(share); });
  const int last_epoch = epoch - 1;
  const double setup_s = setup.finish();

  add(&r.end_to_end, "setup_s", setup_s, "s");
  add(&r.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
  add(&r.end_to_end, "epoch_host_s", median(host), "s");
  add(&r.end_to_end, "epoch_sim_s", median(sim), "s");
  add(&r.end_to_end, "epoch_comm_mb", median(comm_mb), "MB");
  serve.end_to_end(&r);

  // --- checks -------------------------------------------------------------
  const std::uint64_t epoch_seed =
      derive_seed(cfg.seed, 0xe90c, static_cast<std::uint64_t>(last_epoch));
  const auto batches = make_epoch_batches(data.train_idx, cfg.batch_size, epoch_seed);
  std::vector<index_t> ids(batches.size());
  std::iota(ids.begin(), ids.end(), index_t{0});
  SamplerContext ctx;
  ctx.config = SamplerConfig{cfg.fanouts, cfg.seed};
  const auto replicated =
      make_sampler(SamplerKind::kGraphSage, DistMode::kReplicated, data.graph, ctx);
  const auto samples = replicated->sample_bulk(batches, ids, epoch_seed);
  check_sage_samples(data.graph, batches, samples, cfg.fanouts, "train sample", &r.failures);
  serve.check(&r.failures);
  if (r.attempted > r.failed) {
    const std::size_t requested = last.cache_hits + last.cache_misses + last.cache_local;
    if (requested != input_rows(samples)) {
      r.failures.push_back("hits + misses + local = " + std::to_string(requested) +
                           " but the epoch's samples request " +
                           std::to_string(input_rows(samples)) + " rows");
    }
    if (!std::isfinite(last.loss) || !(last.loss < first_loss)) {
      r.failures.push_back("last epoch loss " + std::to_string(last.loss) +
                           " is not finite and below the first epoch's " +
                           std::to_string(first_loss));
    }
  }
  if (partitioned) {
    // The partitioned samples of a batch subset equal replicated samples.
    const ProcessGrid grid(p, c);
    SamplerContext pctx = ctx;
    pctx.grid = &grid;
    const auto part =
        make_sampler(SamplerKind::kGraphSage, DistMode::kPartitioned, data.graph, pctx);
    const std::size_t n = std::min<std::size_t>(batches.size(), 6);
    const std::vector<std::vector<index_t>> sub(batches.begin(), batches.begin() + n);
    const std::vector<index_t> sub_ids(ids.begin(), ids.begin() + n);
    if (!samples_identical(part->sample_bulk(sub, sub_ids, epoch_seed),
                           replicated->sample_bulk(sub, sub_ids, epoch_seed))) {
      r.failures.push_back("partitioned samples differ from replicated samples");
    }
  }

  if (tr.enabled()) {
    emit_layers(layers, median(tr.durations("load_dataset")),
                median(tr.durations("Pipeline::Pipeline")), sampled_nnz(samples), &r);
    serve.layers(&r);
  }
  return r;
}

// --- serve-open ---------------------------------------------------------------------

RunResult run_serve_open(const Options& opt, Tracer& tr) {
  RunResult r;
  const ProcessGrid grid(4, 2);
  ServeEngineConfig ecfg;
  ecfg.fanouts = kServeFanout;
  ecfg.sampler_seed = serve_sampler_seed(opt.seed);
  struct Server {
    std::unique_ptr<FeatureStore> store;
    std::unique_ptr<SageModel> model;
    std::unique_ptr<ServeEngine> engine;
  };
  SetupReps<Server> setup(opt, tr, [&](const Dataset& d) {
    Server s;
    s.store = std::make_unique<FeatureStore>(grid, d.features);
    ModelConfig mc;
    mc.in_dim = d.feature_dim();
    mc.hidden = kHidden;
    mc.num_classes = d.num_classes;
    mc.num_layers = static_cast<index_t>(kServeFanout.size());
    mc.seed = derive_seed(opt.seed, 0x0de1ULL);
    s.model = std::make_unique<SageModel>(mc);
    auto span = tr.span("ServeEngine::ServeEngine");
    s.engine = std::make_unique<ServeEngine>(d.graph, *s.store, *s.model, ecfg, &grid);
    return s;
  });
  std::unique_ptr<Dataset> ds;
  Server server = setup.first(&ds);

  ServeRunner serve(*ds, grid, *server.model, kServeFanout, kServeOpenTraffic, opt.seed, tr,
                    *server.store, std::move(server.engine));
  // Open-loop passes alternate with saturated backlogs, so both see the
  // same stretch of host time.
  Timer budget;
  for (int pass = 0; (pass < 2 || budget.seconds() < opt.seconds) && !serve.full(); ++pass) {
    setup.at(budget.seconds() / opt.seconds);
    serve.open_pass();
    serve.backlog_pass();
  }
  r.attempted = serve.served();
  const double setup_s = setup.finish();

  add(&r.end_to_end, "setup_s", setup_s, "s");
  add(&r.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
  add(&r.end_to_end, "epoch_host_s", serve.pass_busy_s(), "s");
  add(&r.end_to_end, "epoch_sim_s", serve.pass_sim_s(), "s");
  add(&r.end_to_end, "epoch_comm_mb", serve.pass_miss_mb(), "MB");
  serve.end_to_end(&r);
  serve.check(&r.failures);

  if (tr.enabled()) {
    LayerSums layers;
    layers.put("comm.fetch_mb", serve.pass_miss_mb());
    layers.put("comm.messages", serve.pass_messages());
    layers.put("comm.sim_s", serve.pass_comm_s());
    emit_layers(layers, median(tr.durations("load_dataset")), 0.0,
                serve.sampled_nnz_of_subset(), &r);
    serve.layers(&r);
  }
  return r;
}

// --- sample-n2v -----------------------------------------------------------------------

RunResult run_sample_n2v(const Options& opt, Tracer& tr) {
  RunResult r;
  const ProcessGrid grid(8, 2);
  const CostModel cost(dms::bench::perlmutter_links());
  SamplerContext ctx;
  ctx.config = SamplerConfig{{1, 1}, derive_seed(opt.seed, 0x2a2aULL)};  // 2 layers
  ctx.walk.walk_length = 8;
  ctx.walk.p = 0.5;
  ctx.walk.q = 2.0;
  struct Walker {
    std::unique_ptr<FeatureStore> store;
    std::unique_ptr<MatrixSampler> sampler;
  };
  SetupReps<Walker> setup(opt, tr, [&](const Dataset& d) {
    Walker w;
    w.store = std::make_unique<FeatureStore>(grid, d.features);
    auto span = tr.span("make_sampler");
    w.sampler = make_sampler(SamplerKind::kNode2Vec, DistMode::kReplicated, d.graph, ctx);
    return w;
  });
  std::unique_ptr<Dataset> ds;
  const Walker walker = setup.first(&ds);
  const Dataset& data = *ds;
  FeatureStore* const store = walker.store.get();
  MatrixSampler* const sampler = walker.sampler.get();
  Cluster cluster(grid, cost);
  const int p = grid.size();

  // One epoch: each rank bulk-samples its share of the batches (round-robin),
  // then every training step's input rows are fetched (no propagation).
  std::vector<std::vector<index_t>> batches;
  std::vector<MinibatchSample> last_samples;
  auto epoch_run = [&](int epoch, double* host_s) {
    const std::uint64_t epoch_seed =
        derive_seed(opt.seed, 0xe90c, static_cast<std::uint64_t>(epoch));
    batches = make_epoch_batches(data.train_idx, kBatch, epoch_seed);
    cluster.reset_clock();
    std::vector<std::vector<MinibatchSample>> per_rank(static_cast<std::size_t>(p));
    Timer t;
    cluster.superstep("sampling", [&](int rank) {
      std::vector<std::vector<index_t>> mine;
      std::vector<index_t> ids;
      for (std::size_t b = static_cast<std::size_t>(rank); b < batches.size();
           b += static_cast<std::size_t>(p)) {
        mine.push_back(batches[b]);
        ids.push_back(static_cast<index_t>(b));
      }
      if (ids.empty()) return;
      auto span = tr.span("sample_bulk");
      per_rank[static_cast<std::size_t>(rank)] = sampler->sample_bulk(mine, ids, epoch_seed);
    });
    *host_s = t.seconds();
    const std::size_t steps = per_rank[0].size();
    for (std::size_t step = 0; step < steps; ++step) {
      std::vector<std::vector<index_t>> wanted(static_cast<std::size_t>(p));
      for (int rank = 0; rank < p; ++rank) {
        const auto& mine = per_rank[static_cast<std::size_t>(rank)];
        if (step < mine.size()) wanted[static_cast<std::size_t>(rank)] = mine[step].input_vertices();
      }
      store->fetch_all(cluster, wanted, "fetch");
    }
    last_samples.assign(batches.size(), MinibatchSample{});
    for (int rank = 0; rank < p; ++rank) {
      auto& mine = per_rank[static_cast<std::size_t>(rank)];
      for (std::size_t i = 0; i < mine.size(); ++i) {
        last_samples[static_cast<std::size_t>(rank) + i * static_cast<std::size_t>(p)] =
            std::move(mine[i]);
      }
    }
  };

  double ignored = 0.0;
  epoch_run(0, &ignored);  // lazy set-up (walk-engine adjacency, arenas)

  // The serving probe (random 2-layer SAGE model, this graph) runs between
  // epochs.
  ModelConfig mc;
  mc.in_dim = data.feature_dim();
  mc.hidden = kHidden;
  mc.num_classes = data.num_classes;
  mc.num_layers = static_cast<index_t>(kServeFanout.size());
  mc.seed = derive_seed(opt.seed, 0x0de1ULL);
  const SageModel model(mc);
  FeatureStore serve_store(grid, data.features);
  ServeRunner serve(data, grid, model, kServeFanout, kProbeTraffic, opt.seed, tr,
                    serve_store, nullptr);

  std::vector<double> host, sim, comm_mb;
  LayerSums layers;
  int epoch = 1;
  auto timed_epoch = [&] {
    ++r.attempted;
    try {
      const auto ops_before = sampler->op_time_breakdown();
      double h = 0.0;
      epoch_run(epoch, &h);
      host.push_back(h);
      sim.push_back(cluster.total_time());
      const CommTotals comm{cluster.comm_stats()};
      comm_mb.push_back(comm.bytes() / 1e6);
      if (tr.enabled()) {
        sampling_layers(diff_ops(sampler->op_time_breakdown(), ops_before), &layers);
        comm_layers(comm, &layers);
        layers.put("dist.sampling_sim_s", cluster.phase_time("sampling"));
        layers.put("train.sampling_sim_s", cluster.phase_time("sampling"));
        layers.put("train.fetch_sim_s", cluster.phase_time("fetch"));
      }
    } catch (const std::exception& e) {
      ++r.failed;
      r.failures.push_back("epoch " + std::to_string(epoch) + " threw: " + e.what());
    }
    ++epoch;
  };
  run_timed(opt.seconds, serve, timed_epoch, [&](double share) { setup.at(share); });
  const double setup_s = setup.finish();

  add(&r.end_to_end, "setup_s", setup_s, "s");
  add(&r.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
  add(&r.end_to_end, "epoch_host_s", median(host), "s");
  add(&r.end_to_end, "epoch_sim_s", median(sim), "s");
  add(&r.end_to_end, "epoch_comm_mb", median(comm_mb), "MB");
  serve.end_to_end(&r);

  // --- checks -------------------------------------------------------------
  serve.check(&r.failures);
  check_walk_samples(data.graph, batches, last_samples, "node2vec sample", &r.failures);
  {
    // Fused walk engine vs the unfused matrix path on a batch subset.
    const auto unfused_base =
        make_sampler(SamplerKind::kNode2Vec, DistMode::kReplicated, data.graph, ctx);
    auto* unfused = dynamic_cast<Node2VecSampler*>(unfused_base.get());
    if (unfused == nullptr) {
      r.failures.push_back("node2vec factory did not return a Node2VecSampler");
    } else {
      WalkEngineOptions wo;
      wo.fused = false;
      unfused->set_walk_options(wo);
      const std::size_t n = std::min<std::size_t>(batches.size(), 4);
      const std::vector<std::vector<index_t>> sub(batches.begin(), batches.begin() + n);
      std::vector<index_t> ids(n);
      std::iota(ids.begin(), ids.end(), index_t{0});
      const std::uint64_t epoch_seed =
          derive_seed(opt.seed, 0xe90c, static_cast<std::uint64_t>(epoch - 1));
      if (!samples_identical(sampler->sample_bulk(sub, ids, epoch_seed),
                             unfused->sample_bulk(sub, ids, epoch_seed))) {
        r.failures.push_back("fused node2vec samples differ from the unfused matrix path");
      }
    }
  }

  if (tr.enabled()) {
    emit_layers(layers, median(tr.durations("load_dataset")), 0.0,
                sampled_nnz(last_samples), &r);
    serve.layers(&r);
  }
  return r;
}

}  // namespace

bool known_workload(const std::string& w) {
  return w == "train-replicated" || w == "train-partitioned" || w == "serve-open" ||
         w == "sample-n2v";
}

void generate_dataset(const std::string& workload, std::uint64_t seed,
                      const std::string& path) {
  const StandInConfig cfg = standin_config(seed);
  save_dataset(uses_papers(workload) ? make_papers_sim(cfg) : make_products_sim(cfg), path);
}

RunResult run_workload(const Options& opt, Tracer& tr) {
  if (opt.workload == "train-replicated") return run_train(opt, tr, false);
  if (opt.workload == "train-partitioned") return run_train(opt, tr, true);
  if (opt.workload == "serve-open") return run_serve_open(opt, tr);
  return run_sample_n2v(opt, tr);
}

}  // namespace perfbench
