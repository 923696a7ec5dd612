// End-to-end benchmark program: one workload per process.
//
//   overlay_bench --workload <name> --seed <N> --seconds <T>
//                 --json <result.json> [--trace <trace.json>] [--smoke]
//
// Workloads (sizes in kWorkloads below; --smoke shrinks every one):
//   construct_8k   ConstructWellFormedTree on gen::Line(8192)
//   construct_4k   ConstructWellFormedTree on gen::Line(4096)
//   service_drip   service epochs on the 65536-node ring + 3 chords
//   engine_hashed  ShardedNetwork rounds of the hashed all-to-all drive
//
// Every workload alternates the same operation at S = 4 shards (this host's
// core count) and at S = 1, switching which goes first each iteration so a
// slow drift hits both equally, until T seconds have passed. Each operation
// is timed from outside, around calls to public library functions, and its
// output is checked after the clock stops. Set-up (input generation, pool
// and allocator warm-up, initial trees, engine construction) runs five
// times and reports its median as setup_s.
//
// Without --trace the run reports the end-to-end metrics and makes no
// recorder calls. With --trace it runs the S = 4 operation under the
// bench-side recorder (trace.hpp), writes the Chrome trace, reports the
// per-layer metrics, and checks the traced layer-by-layer replay against the
// library's own one-call entry point.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/scenario_gen.hpp"
#include "overlay/adversary.hpp"
#include "overlay/benign.hpp"
#include "overlay/bfs_tree.hpp"
#include "overlay/construct.hpp"
#include "overlay/evolution.hpp"
#include "overlay/monitoring.hpp"
#include "overlay/service.hpp"
#include "overlay/well_formed_tree.hpp"
#include "sim/sharded_network.hpp"
#include "sim/token_engine.hpp"
#include "trace.hpp"

using namespace overlay;
using bench::Trace;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kShards = 4;  // the cores of the reference host
constexpr std::size_t kSetupReps = 5;

// ---- results ---------------------------------------------------------------

struct Output {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// name -> (value, unit), in report order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Raw per-operation samples behind the end-to-end percentiles.
  std::vector<std::pair<std::string, std::vector<double>>> samples;

  void Wrong(const std::string& what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
  void Failed(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  void Metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
};

/// End-to-end metrics every untraced run reports (BENCHMARK.json order).
/// `op` is the workload's operation: one construction, one service epoch,
/// or one engine round.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> op_ms_s4;
  std::vector<double> op_ms_s1;
  /// Model cost of every operation, at both shard counts: the protocol's
  /// rounds and messages do not depend on S, and pooling halves the
  /// sampling noise of their medians.
  std::vector<double> rounds;
  std::vector<double> msgs;
  /// ru_maxrss after set-up and the first iteration (one S=4 and one S=1
  /// operation). Taken then, not at exit: later growth is allocator
  /// fragmentation whose amount depends on how many operations the host's
  /// speed lets a run complete.
  double peak_rss_mb = 0.0;
};

/// Per-layer metrics every traced run reports: one fixed list for all
/// workloads, so a layer a workload never enters reads 0 there. Time shares
/// are percentages of the traced operation time.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
    {"graph.metrics.connectivity_pct", "%"},
    {"overlay.benign.busy_pct", "%"},
    {"overlay.evolution.busy_pct", "%"},
    {"overlay.evolution.accept_pad_pct", "%"},
    {"overlay.evolution.discard_frac", "ratio"},
    {"overlay.evolution.edges_created", "count"},
    {"sim.token_engine.busy_pct", "%"},
    {"sim.token_engine.token_steps", "count"},
    {"sim.token_engine.steps_per_s", "1/s"},
    {"sim.token_engine.max_load_over_bound", "ratio"},
    {"graph.multigraph.to_simple_pct", "%"},
    {"overlay.bfs_tree.busy_pct", "%"},
    {"overlay.bfs_tree.rounds", "count"},
    {"overlay.bfs_tree.messages_sent", "count"},
    {"overlay.bfs_tree.arena_bytes", "bytes"},
    {"overlay.well_formed_tree.busy_pct", "%"},
    {"overlay.well_formed_tree.rounds_charged", "count"},
    {"overlay.adversary.begin_setup_pct", "%"},
    {"overlay.adversary.strike_pct", "%"},
    {"overlay.adversary.fallbacks", "count"},
    {"overlay.churn.extract_pct", "%"},
    {"overlay.bfs_tree.repair_pct", "%"},
    {"overlay.bfs_tree.orphans_p50", "count"},
    {"overlay.bfs_tree.repair_messages_p99", "count"},
    {"overlay.bfs_tree.quarantined_per_byz_epoch", "count"},
    {"overlay.bfs_tree.liars_accepted", "count"},
    {"overlay.service.untimed_pct", "%"},
    {"overlay.well_formed_tree.repair_pct", "%"},
    {"overlay.well_formed_tree.changed_frac_p50", "ratio"},
    {"overlay.monitoring.incremental_pct", "%"},
    {"overlay.monitoring.dirty_per_node_p50", "ratio"},
    {"overlay.monitoring.rounds_saved_frac", "ratio"},
    {"overlay.service.verify_pct", "%"},
    {"sim.sharded_network.send_pct", "%"},
    {"sim.sharded_network.end_round_pct", "%"},
    {"sim.sharded_network.flush_pct", "%"},
    {"sim.sharded_network.deliver_pct", "%"},
    {"sim.sharded_network.barrier_pct", "%"},
    {"sim.sharded_network.hidden_flush_pct", "%"},
    {"sim.sharded_network.staged_bytes_per_round", "bytes"},
    {"sim.sharded_network.local_frac", "ratio"},
    {"sim.sharded_network.delivered_frac", "ratio"},
};

using Layers = std::map<std::string, double>;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[rank];
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void ReportEndToEnd(const EndToEnd& e, Output& out) {
  out.Metric("setup_s", Percentile(e.setup_s, 0.5), "s");
  out.Metric("op_ms_p50", Percentile(e.op_ms_s4, 0.5), "ms");
  out.Metric("ops_per_s",
             static_cast<double>(e.op_ms_s4.size()) /
                 (Sum(e.op_ms_s4) / 1000.0),
             "1/s");
  // The serial path's upper half moves with interference on its one core
  // (its run-to-run median spread is 2-3x that of S = 4); the 10th
  // percentile still shifts with any regression of the serial code.
  out.Metric("op_s1_ms_p10", Percentile(e.op_ms_s1, 0.1), "ms");
  // Medians, not means: a rare root re-election costs a service epoch 30x
  // the usual repair messages, and the number of epochs a run completes
  // depends on the host's speed.
  out.Metric("rounds_per_op", Percentile(e.rounds, 0.5), "count");
  out.Metric("msgs_per_op", Percentile(e.msgs, 0.5), "count");
  out.Metric("peak_rss_mb", e.peak_rss_mb, "MB");
  out.samples = {{"setup_s", e.setup_s},
                 {"op_ms_s4", e.op_ms_s4},
                 {"op_ms_s1", e.op_ms_s1},
                 {"rounds", e.rounds},
                 {"msgs", e.msgs}};
}

void ReportLayers(const Layers& layers, Output& out) {
  // The layer spans must account for the operation: at most 5% of it may
  // sit in no child span.
  const auto unattributed = layers.find("trace.unattributed_pct");
  if (unattributed != layers.end() && unattributed->second > 5.0) {
    out.Wrong("child spans cover less than 95% of the operation");
  }
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = layers.find(name);
    out.Metric(name, it == layers.end() ? 0.0 : it->second, unit);
  }
}

/// Share of `part` in `whole`, in percent (0 when nothing was measured).
double Pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

/// Sum of the durations (µs) of every span called `name`.
double SumUs(const Trace& tr, const char* name) {
  double s = 0.0;
  for (const Trace::Span& sp : tr.spans()) {
    if (std::strcmp(sp.name, name) == 0) s += sp.dur_us;
  }
  return s;
}

/// Sum of the self times (µs) of every span called `name`.
double SumSelfUs(const Trace& tr, const char* name) {
  const std::vector<double> self = tr.SelfUs();
  double s = 0.0;
  for (std::size_t i = 0; i < self.size(); ++i) {
    if (std::strcmp(tr.spans()[i].name, name) == 0) s += self[i];
  }
  return s;
}

/// Per-operation seed: decorrelated across --seed values, so runs with
/// neighbouring seeds never share an operation.
std::uint64_t OpSeed(std::uint64_t seed, std::size_t j) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + j;
  return SplitMix64(state);
}

/// Iteration order of the two shard counts: S4 first on even iterations.
std::array<std::size_t, 2> ShardOrder(std::size_t j) {
  return j % 2 == 0 ? std::array<std::size_t, 2>{kShards, 1}
                    : std::array<std::size_t, 2>{1, kShards};
}

// ---- construction ----------------------------------------------------------

ExpanderParams ConstructParams(std::size_t n, std::uint64_t seed,
                               std::size_t shards) {
  // Line inputs have maximum degree 2; this is exactly the parameter set
  // ConstructWellFormedTree(g, seed) derives, plus the shard count.
  ExpanderParams p = ExpanderParams::ForSize(n, 2, seed);
  p.exec.num_shards = shards;
  return p;
}

/// The output check of one construction: a well-formed tree over all n
/// nodes within the ⌈log₂ n⌉ + 1 depth bound.
bool TreeOk(const WellFormedTree& t, std::size_t n) {
  return t.num_nodes() == n &&
         ValidateWellFormedTree(t, LogUpperBound(n) + 1);
}

/// Per-layer sums of the traced constructions (everything a span cannot
/// carry: engine telemetry and the replay's step rate).
struct ConstructLayerAcc {
  std::size_t constructs = 0;
  double replay_us = 0.0;
  double token_steps = 0.0;
  double tokens_launched = 0.0;
  double tokens_discarded = 0.0;
  double edges_created = 0.0;
  double max_load_over_bound = 0.0;
  double bfs_rounds = 0.0;
  double bfs_messages = 0.0;
  double bfs_arena_bytes = 0.0;
  double wft_rounds = 0.0;
};

/// ConstructWellFormedTree, layer by layer, from the same public functions
/// construct.cpp chains, with one span per call. Before each evolution the
/// evolution's token walks are replayed on a copy of the evolution RNG
/// inside an excluded interval: same graph, same options, same stream, so
/// the replay's wall time is the token engine's share of that evolution.
WellFormedTree TracedConstruct(Trace& tr, const Graph& g,
                               const ExpanderParams& params,
                               std::uint64_t request, ConstructLayerAcc& acc) {
  Trace::Scope root(&tr, "overlay.construct", request);
  {
    Trace::Scope s(&tr, "graph.metrics.is_connected", request, root.id());
    OVERLAY_CHECK(IsConnected(g), "Theorem 1.1 requires a connected input");
  }
  Multigraph cur(0);
  {
    Trace::Scope s(&tr, "overlay.benign.make_benign", request, root.id());
    cur = MakeBenign(g, params);
  }
  {
    Trace::Scope ce(&tr, "overlay.create_expander", request, root.id());
    OVERLAY_CHECK(cur.IsRegular(params.delta),
                  "CreateExpander requires a benign (Δ-regular) input");
    Rng rng(params.seed);
    TokenWalkOptions walk_opts;
    walk_opts.tokens_per_node = params.TokensPerNode();
    walk_opts.walk_length = params.walk_length;
    walk_opts.record_paths = params.record_paths;
    walk_opts.exec = params.exec;
    for (std::size_t i = 0; i < params.num_evolutions; ++i) {
      Trace::Scope evo(&tr, "overlay.evolution", request, ce.id());
      const double replay_start = tr.NowUs();
      double replay_us = 0.0;
      {
        Trace::Exclude hidden(tr);
        Rng copy = rng;
        const auto t0 = Clock::now();
        const TokenWalkResult walks = RunTokenWalks(cur, walk_opts, copy);
        replay_us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
      }
      tr.Record("sim.token_engine.walks", request, evo.id(),
                Trace::kSideTrack, replay_start, replay_us);
      EvolutionResult r = RunEvolution(cur, params, rng);
      const EvolutionTelemetry& t = r.telemetry;
      acc.replay_us += replay_us;
      acc.token_steps += static_cast<double>(t.token_steps);
      acc.tokens_launched +=
          static_cast<double>(cur.num_nodes() * params.TokensPerNode());
      acc.tokens_discarded += static_cast<double>(t.tokens_discarded);
      acc.edges_created += static_cast<double>(t.edges_created);
      acc.max_load_over_bound =
          std::max(acc.max_load_over_bound,
                   static_cast<double>(t.max_token_load) /
                       static_cast<double>(params.AcceptBound()));
      cur = std::move(r.next);
    }
  }
  Graph expander;
  {
    Trace::Scope s(&tr, "graph.multigraph.to_simple", request, root.id());
    expander = cur.ToSimpleGraph();
  }
  {
    Trace::Scope s(&tr, "graph.metrics.is_connected", request, root.id());
    OVERLAY_CHECK(IsConnected(expander), "expander disconnected the graph");
  }
  BfsTreeResult bfs;
  {
    Trace::Scope s(&tr, "overlay.bfs_tree.build", request, root.id());
    bfs = params.exec.num_shards > 1
              ? BuildBfsTree(expander, EngineKind::kSharded,
                             EngineConfig{.capacity = 0,
                                          .seed = params.seed ^ 0xb5f5ULL,
                                          .exec = params.exec})
              : BuildBfsTree(expander, /*capacity=*/0,
                             /*seed=*/params.seed ^ 0xb5f5ULL);
  }
  WellFormedTree tree;
  {
    Trace::Scope s(&tr, "overlay.well_formed_tree.contract", request,
                   root.id());
    tree = ContractToWellFormedTree(bfs);
  }
  ++acc.constructs;
  acc.bfs_rounds += static_cast<double>(bfs.stats.rounds);
  acc.bfs_messages += static_cast<double>(bfs.stats.messages_sent);
  acc.bfs_arena_bytes += static_cast<double>(bfs.arena_bytes_moved);
  acc.wft_rounds += static_cast<double>(tree.rounds_charged);
  return tree;
}

struct ConstructSize {
  std::size_t n;
  std::size_t warm_n;  ///< warm-up construction size (pool + allocator)
};

void RunConstruct(const ConstructSize& size, std::uint64_t seed,
                  double seconds, const char* trace_path, Output& out) {
  const std::size_t n = size.n;
  EndToEnd e2e;

  // Set-up: the input graph, then one small construction at each shard
  // count so the pool threads exist and the allocator is warm.
  Graph g;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    g = gen::Line(n);
    const Graph warm = gen::Line(size.warm_n);
    for (const std::size_t shards : {kShards, std::size_t{1}}) {
      const ConstructionResult w = ConstructWellFormedTree(
          warm, ConstructParams(size.warm_n, seed, shards));
      if (!TreeOk(w.tree, size.warm_n)) out.Wrong("warm-up tree invalid");
    }
    e2e.setup_s.push_back(Seconds(t0, Clock::now()));
  }

  const auto start = Clock::now();
  if (trace_path == nullptr) {
    for (std::size_t j = 0; j == 0 || Seconds(start, Clock::now()) < seconds;
         ++j) {
      const std::uint64_t op_seed = OpSeed(seed, j);
      for (const std::size_t shards : ShardOrder(j)) {
        ++out.attempted;
        try {
          const auto t0 = Clock::now();
          const ConstructionResult r =
              ConstructWellFormedTree(g, ConstructParams(n, op_seed, shards));
          const auto t1 = Clock::now();
          if (!TreeOk(r.tree, n)) {
            out.Wrong("construction produced an invalid well-formed tree");
            ++out.failed;
            continue;
          }
          (shards == 1 ? e2e.op_ms_s1 : e2e.op_ms_s4).push_back(Ms(t0, t1));
          e2e.rounds.push_back(static_cast<double>(r.report.TotalRounds()));
          e2e.msgs.push_back(static_cast<double>(r.report.total_messages));
        } catch (const ContractViolation& ex) {
          out.Failed(ex.what());
        }
      }
      if (j == 0) e2e.peak_rss_mb = PeakRssMb();
    }
    ReportEndToEnd(e2e, out);
    return;
  }

  // Traced: each iteration runs the library's one-call construction and the
  // traced layer-by-layer replica on the same parameters; the replica's
  // parent array must be bit-identical.
  Trace tr;
  ConstructLayerAcc acc;
  for (std::size_t j = 0; j == 0 || Seconds(start, Clock::now()) < seconds;
       ++j) {
    const ExpanderParams params = ConstructParams(n, OpSeed(seed, j), kShards);
    out.attempted += 2;
    try {
      const ConstructionResult ref = ConstructWellFormedTree(g, params);
      const WellFormedTree traced = TracedConstruct(tr, g, params, j, acc);
      if (!TreeOk(ref.tree, n) || !TreeOk(traced, n)) {
        out.Wrong("construction produced an invalid well-formed tree");
      }
      if (traced.root != ref.tree.root || traced.parent != ref.tree.parent) {
        out.Wrong("traced replay diverged from ConstructWellFormedTree");
      }
    } catch (const ContractViolation& ex) {
      out.Failed(ex.what());
    }
  }

  const double total = SumUs(tr, "overlay.construct");
  const double evo = SumUs(tr, "overlay.evolution");
  const double c =
      static_cast<double>(std::max<std::size_t>(1, acc.constructs));
  Layers L;
  L["trace.overhead_pct"] = Pct(tr.overhead_seconds() * 1e6, total);
  // The construct's own self time plus create_expander's (its regularity
  // check and loop bookkeeping) is what no layer span covers.
  L["trace.unattributed_pct"] =
      Pct(SumSelfUs(tr, "overlay.construct") +
              SumSelfUs(tr, "overlay.create_expander"),
          total);
  L["graph.metrics.connectivity_pct"] =
      Pct(SumUs(tr, "graph.metrics.is_connected"), total);
  L["overlay.benign.busy_pct"] =
      Pct(SumUs(tr, "overlay.benign.make_benign"), total);
  L["overlay.evolution.busy_pct"] = Pct(evo, total);
  L["overlay.evolution.accept_pad_pct"] = Pct(evo - acc.replay_us, total);
  L["overlay.evolution.discard_frac"] =
      acc.tokens_launched > 0 ? acc.tokens_discarded / acc.tokens_launched
                              : 0.0;
  L["overlay.evolution.edges_created"] = acc.edges_created / c;
  L["sim.token_engine.busy_pct"] = Pct(acc.replay_us, total);
  L["sim.token_engine.token_steps"] = acc.token_steps / c;
  L["sim.token_engine.steps_per_s"] =
      acc.replay_us > 0 ? acc.token_steps / (acc.replay_us * 1e-6) : 0.0;
  L["sim.token_engine.max_load_over_bound"] = acc.max_load_over_bound;
  L["graph.multigraph.to_simple_pct"] =
      Pct(SumUs(tr, "graph.multigraph.to_simple"), total);
  L["overlay.bfs_tree.busy_pct"] =
      Pct(SumUs(tr, "overlay.bfs_tree.build"), total);
  L["overlay.bfs_tree.rounds"] = acc.bfs_rounds / c;
  L["overlay.bfs_tree.messages_sent"] = acc.bfs_messages / c;
  L["overlay.bfs_tree.arena_bytes"] = acc.bfs_arena_bytes / c;
  L["overlay.well_formed_tree.busy_pct"] =
      Pct(SumUs(tr, "overlay.well_formed_tree.contract"), total);
  L["overlay.well_formed_tree.rounds_charged"] = acc.wft_rounds / c;
  ReportLayers(L, out);
  if (!tr.WriteChromeJson(trace_path)) out.Wrong("cannot write trace file");
}

// ---- service epochs --------------------------------------------------------

constexpr std::size_t kByzantineEvery = 10;

ScenarioOptions DripOptions(std::uint64_t seed, std::size_t shards) {
  ScenarioOptions o;
  o.strike = StrikeKind::kDrip;
  o.strike_opts.exec.num_shards = shards;
  o.budget_fraction = 0.001;  // 0.1% of the current overlay per epoch
  o.recovery = RecoveryMode::kRepair;
  o.engine = EngineKind::kSharded;
  o.seed = seed;
  o.validate_trees = false;  // checked from outside, after the clock stops
  return o;
}

/// One long-lived overlay: the state RunServiceScenario keeps on its stack.
struct Service {
  ScenarioOptions opts;
  ScenarioState st;
  WellFormedTree wft;
  MonitorCache nodes_cache, edges_cache, maxdeg_cache;
  std::size_t epoch = 0;

  /// Enters the steady state; returns the seconds spent in BeginScenario.
  double Begin(const Graph& start) {
    const auto t0 = Clock::now();
    st = BeginScenario(start, opts);
    const double begin_s = Seconds(t0, Clock::now());
    const ExecPolicy& exec = opts.strike_opts.exec;
    wft = ContractToWellFormedTree(st.tree);
    nodes_cache = {};
    edges_cache = {};
    maxdeg_cache = {};
    (void)MonitorNodeCountIncremental(wft, nodes_cache, exec);
    (void)MonitorEdgeCountIncremental(wft, st.overlay, edges_cache, exec);
    (void)MonitorMaxDegreeIncremental(wft, st.overlay, maxdeg_cache, exec);
    epoch = 0;
    return begin_s;
  }
};

/// One service epoch: the loop body of RunServiceScenario, call for call.
/// Returns false when the overlay collapsed. With a recorder, the library's
/// own strike/extract/recovery timers become child spans of the
/// RunScenarioEpoch span, laid out back to back from its start.
bool ServiceEpoch(Service& svc, const StrikeStrategy& base,
                  const StrikeStrategy& byz, ServiceEpochStats& s,
                  Trace* tr) {
  const std::size_t epoch = svc.epoch++;
  const ExecPolicy& exec = svc.opts.strike_opts.exec;
  Trace::Scope root(tr, "overlay.service.epoch", epoch);
  s = ServiceEpochStats{};
  s.byzantine = (epoch + 1) % kByzantineEvery == 0;
  {
    Trace::Scope run(tr, "overlay.adversary.run_epoch", epoch, root.id());
    const double t0 = tr != nullptr ? tr->NowUs() : 0.0;
    const bool ok = RunScenarioEpoch(svc.st, s.byzantine ? byz : base,
                                     svc.opts, epoch, s.epoch);
    if (!ok) return false;
    if (tr != nullptr) {
      const EpochStats& e = s.epoch;
      const double strike = e.strike_seconds * 1e6;
      const double extract = e.extract_seconds * 1e6;
      const double recovery = e.recovery_seconds * 1e6;
      tr->Record("overlay.adversary.strike", epoch, run.id(),
                 Trace::kMainTrack, t0, strike);
      tr->Record("overlay.churn.extract", epoch, run.id(), Trace::kMainTrack,
                 t0 + strike, extract);
      tr->Record("overlay.bfs_tree.repair", epoch, run.id(),
                 Trace::kMainTrack, t0 + strike + extract, recovery);
    }
  }
  {
    Trace::Scope span(tr, "overlay.well_formed_tree.repair", epoch, root.id());
    WftRepairResult wr =
        RepairWellFormedTree(svc.st.tree, svc.wft, svc.st.last_epoch_map, exec);
    s.wft_carried = wr.carried;
    s.wft_changed = wr.changed;
    s.wft_rounds = wr.tree.rounds_charged;
    svc.wft = std::move(wr.tree);
    s.wft_valid = ValidateWellFormedTree(svc.wft, 0);
  }
  {
    Trace::Scope span(tr, "overlay.monitoring.incremental", epoch, root.id());
    svc.nodes_cache.Remap(svc.st.last_epoch_map);
    svc.edges_cache.Remap(svc.st.last_epoch_map);
    svc.maxdeg_cache.Remap(svc.st.last_epoch_map);
    const MonitorValue mn =
        MonitorNodeCountIncremental(svc.wft, svc.nodes_cache, exec);
    const MonitorValue me = MonitorEdgeCountIncremental(
        svc.wft, svc.st.overlay, svc.edges_cache, exec);
    const MonitorValue md = MonitorMaxDegreeIncremental(
        svc.wft, svc.st.overlay, svc.maxdeg_cache, exec);
    s.monitor_nodes = mn.value;
    s.monitor_edges = me.value;
    s.monitor_max_degree = md.value;
    s.monitor_rounds = mn.rounds + me.rounds + md.rounds;
    s.monitor_rounds_full = 3ull * 2ull * (svc.wft.Depth() + 1);
    s.monitor_dirty = svc.nodes_cache.last_dirty +
                      svc.edges_cache.last_dirty +
                      svc.maxdeg_cache.last_dirty;
  }
  return true;
}

/// Output checks of one completed epoch, made after its clock stopped.
/// The monitors must equal the overlay's true node count, edge count and
/// maximum degree; the trees must validate; no lie may be accepted.
void CheckEpoch(const Service& svc, const ServiceEpochStats& s, Output& out) {
  const Graph& g = svc.st.overlay;
  if (s.monitor_nodes != g.num_nodes() || s.monitor_edges != g.num_edges() ||
      s.monitor_max_degree != g.MaxDegree()) {
    out.Wrong("monitor value differs from the overlay it monitors");
  }
  if (!s.wft_valid) out.Wrong("invalid well-formed tree");
  if (s.epoch.liars_accepted != 0) out.Wrong("a Byzantine lie was accepted");
  if (!ValidateBfsTree(g, svc.st.tree)) out.Wrong("invalid BFS tree");
}

/// The id-invariant fields of an epoch record: everything the differential
/// harness compares, i.e. all but wall-clock seconds and tree_valid (which
/// the reference computes and the timed loop leaves to CheckEpoch).
bool SameEpoch(const ServiceEpochStats& a, const ServiceEpochStats& b) {
  const EpochStats& x = a.epoch;
  const EpochStats& y = b.epoch;
  return a.byzantine == b.byzantine && x.nodes_before == y.nodes_before &&
         x.edges_before == y.edges_before && x.killed == y.killed &&
         x.survivors == y.survivors && x.num_components == y.num_components &&
         x.repair_used == y.repair_used && x.orphans == y.orphans &&
         x.reattached == y.reattached &&
         x.recovery_rounds == y.recovery_rounds &&
         x.recovery_messages == y.recovery_messages &&
         x.tree_height == y.tree_height && x.liars == y.liars &&
         x.quarantined == y.quarantined &&
         x.liars_accepted == y.liars_accepted &&
         x.root_reelected == y.root_reelected &&
         a.wft_carried == b.wft_carried && a.wft_changed == b.wft_changed &&
         a.wft_rounds == b.wft_rounds &&
         a.monitor_nodes == b.monitor_nodes &&
         a.monitor_edges == b.monitor_edges &&
         a.monitor_max_degree == b.monitor_max_degree &&
         a.monitor_rounds == b.monitor_rounds &&
         a.monitor_rounds_full == b.monitor_rounds_full &&
         a.monitor_dirty == b.monitor_dirty;
}

void RunService(std::size_t n, std::uint64_t seed, double seconds,
                const char* trace_path, Output& out) {
  const bool traced = trace_path != nullptr;
  EndToEnd e2e;
  const auto base = MakeStrikeStrategy(StrikeKind::kDrip);
  const auto byz = MakeStrikeStrategy(StrikeKind::kByzantine);

  // Set-up: the ring + 3 chords overlay, then the steady state each service
  // enters epoch 0 in (BFS tree, well-formed tree, seeded monitor caches).
  gen::ScenarioSpec spec;
  spec.topology = gen::Topology::kRingChords;
  spec.n = n;
  spec.degree = 3;
  spec.seed = seed;
  Graph start;
  Service s4, s1;
  s4.opts = DripOptions(seed, kShards);
  s1.opts = DripOptions(seed, 1);
  double begin_s = 0.0;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    start = gen::BuildScenario(spec, {.num_shards = kShards}).graph;
    begin_s += s4.Begin(start);
    if (!traced) begin_s += s1.Begin(start);
    e2e.setup_s.push_back(Seconds(t0, Clock::now()));
  }

  const auto start_t = Clock::now();
  if (!traced) {
    ServiceEpochStats s;
    for (std::size_t j = 0;
         j == 0 || Seconds(start_t, Clock::now()) < seconds; ++j) {
      for (const std::size_t shards : ShardOrder(j)) {
        Service& svc = shards == 1 ? s1 : s4;
        ++out.attempted;
        const auto t0 = Clock::now();
        const bool ok = ServiceEpoch(svc, *base, *byz, s, nullptr);
        const auto t1 = Clock::now();
        if (!ok) {
          out.Failed("the overlay collapsed");
          out.Wrong("the overlay collapsed");
          ReportEndToEnd(e2e, out);
          return;
        }
        CheckEpoch(svc, s, out);
        (shards == 1 ? e2e.op_ms_s1 : e2e.op_ms_s4).push_back(Ms(t0, t1));
        e2e.rounds.push_back(static_cast<double>(
            s.epoch.recovery_rounds + s.wft_rounds + s.monitor_rounds));
        e2e.msgs.push_back(static_cast<double>(s.epoch.recovery_messages));
      }
      if (j == 0) e2e.peak_rss_mb = PeakRssMb();
    }
    ReportEndToEnd(e2e, out);
    return;
  }

  // Traced: half the run drives the traced S4 epochs with every check made
  // from outside under an overlay.service.verify span; the other half
  // replays the same epochs through RunServiceScenario with its own tree
  // validation and monitor verification on, and every epoch record must
  // match.
  Trace tr;
  std::vector<ServiceEpochStats> epochs;
  std::vector<double> orphans, repair_msgs, changed_frac, dirty_per_node;
  double saved = 0.0, full = 0.0, quarantined = 0.0, fallbacks = 0.0;
  std::size_t byz_epochs = 0;
  for (std::size_t j = 0;
       j == 0 || Seconds(start_t, Clock::now()) < seconds / 2; ++j) {
    ServiceEpochStats s;
    ++out.attempted;
    if (!ServiceEpoch(s4, *base, *byz, s, &tr)) {
      out.Failed("the overlay collapsed");
      out.Wrong("the overlay collapsed");
      break;
    }
    {
      Trace::Scope v(&tr, "overlay.service.verify", j);
      CheckEpoch(s4, s, out);
      const ExecPolicy& exec = s4.opts.strike_opts.exec;
      if (s.monitor_nodes != MonitorNodeCount(s4.wft, exec).value ||
          s.monitor_edges !=
              MonitorEdgeCount(s4.wft, s4.st.overlay, exec).value ||
          s.monitor_max_degree !=
              MonitorMaxDegree(s4.wft, s4.st.overlay, exec).value) {
        out.Wrong("incremental monitor differs from full re-aggregation");
      }
    }
    const double survivors = static_cast<double>(s.epoch.survivors);
    orphans.push_back(static_cast<double>(s.epoch.orphans));
    repair_msgs.push_back(static_cast<double>(s.epoch.recovery_messages));
    changed_frac.push_back(static_cast<double>(s.wft_changed) / survivors);
    dirty_per_node.push_back(static_cast<double>(s.monitor_dirty) /
                             survivors);
    saved += static_cast<double>(s.monitor_rounds_full - s.monitor_rounds);
    full += static_cast<double>(s.monitor_rounds_full);
    if (s.byzantine) {
      ++byz_epochs;
      quarantined += static_cast<double>(s.epoch.quarantined);
    }
    if (!s.epoch.repair_used) fallbacks += 1.0;
    epochs.push_back(s);
  }

  ServiceOptions ref_opts;
  ref_opts.scenario = DripOptions(seed, kShards);
  ref_opts.scenario.validate_trees = true;
  ref_opts.epochs = epochs.size();
  ref_opts.byzantine_every = kByzantineEvery;
  ref_opts.verify_monitors = true;
  out.attempted += epochs.size();
  const ServiceResult ref = RunServiceScenario(start, ref_opts);
  if (ref.collapsed || ref.epochs.size() != epochs.size()) {
    out.Wrong("RunServiceScenario collapsed or stopped early");
  } else {
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      const ServiceEpochStats& r = ref.epochs[i];
      if (!r.epoch.tree_valid || !r.wft_valid || !r.monitor_exact) {
        out.Wrong("RunServiceScenario reported an invalid epoch");
        break;
      }
      if (!SameEpoch(r, epochs[i])) {
        out.Wrong("epoch " + std::to_string(i) +
                  " differs from RunServiceScenario");
        break;
      }
    }
  }
  if (ref.total_liars_accepted != 0) out.Wrong("a Byzantine lie was accepted");

  // Shares are of the epoch span, which times exactly what the untraced run
  // times; the verify spans are separate roots, so verify_pct is the
  // checking cost relative to an epoch. strike + extract + repair + untimed
  // + wft repair + incremental monitoring + unattributed = 100%.
  const double total = SumUs(tr, "overlay.service.epoch");
  const double run_epoch_self = SumSelfUs(tr, "overlay.adversary.run_epoch");
  Layers L;
  L["trace.overhead_pct"] = Pct(tr.overhead_seconds() * 1e6, total);
  L["trace.unattributed_pct"] =
      Pct(SumSelfUs(tr, "overlay.service.epoch"), total);
  L["overlay.adversary.begin_setup_pct"] = Pct(begin_s, Sum(e2e.setup_s));
  L["overlay.adversary.strike_pct"] =
      Pct(SumUs(tr, "overlay.adversary.strike"), total);
  L["overlay.adversary.fallbacks"] = fallbacks;
  L["overlay.churn.extract_pct"] =
      Pct(SumUs(tr, "overlay.churn.extract"), total);
  L["overlay.bfs_tree.repair_pct"] =
      Pct(SumUs(tr, "overlay.bfs_tree.repair"), total);
  L["overlay.bfs_tree.orphans_p50"] = Percentile(orphans, 0.5);
  L["overlay.bfs_tree.repair_messages_p99"] = Percentile(repair_msgs, 0.99);
  L["overlay.bfs_tree.quarantined_per_byz_epoch"] =
      byz_epochs > 0 ? quarantined / static_cast<double>(byz_epochs) : 0.0;
  L["overlay.bfs_tree.liars_accepted"] =
      static_cast<double>(ref.total_liars_accepted);
  L["overlay.service.untimed_pct"] = Pct(run_epoch_self, total);
  L["overlay.well_formed_tree.repair_pct"] =
      Pct(SumUs(tr, "overlay.well_formed_tree.repair"), total);
  L["overlay.well_formed_tree.changed_frac_p50"] =
      Percentile(changed_frac, 0.5);
  L["overlay.monitoring.incremental_pct"] =
      Pct(SumUs(tr, "overlay.monitoring.incremental"), total);
  L["overlay.monitoring.dirty_per_node_p50"] = Percentile(dirty_per_node, 0.5);
  L["overlay.monitoring.rounds_saved_frac"] = full > 0 ? saved / full : 0.0;
  L["overlay.service.verify_pct"] =
      Pct(SumUs(tr, "overlay.service.verify"), total);
  ReportLayers(L, out);
  if (!tr.WriteChromeJson(trace_path)) out.Wrong("cannot write trace file");
}

// ---- engine rounds ---------------------------------------------------------

constexpr std::size_t kEngineCap = 8;

/// Destination hash of the hashed drive: a pure function of (node, round,
/// send index). The same mixing as the repository's exchange benches, kept
/// here so the benchmark does not depend on bench/ sources.
std::uint64_t DestHash(NodeId v, std::size_t round, std::size_t i) {
  return (v * 0x9e3779b97f4a7c15ULL) ^ (round * 0xbf58476d1ce4e5b9ULL) ^
         (i * 0x94d049bb133111ebULL);
}

/// Analytic delivered count of one round: Σ over nodes of
/// min(offered, cap), where offered counts the hashed sends aimed at a node.
std::uint64_t ExpectedDelivered(std::size_t n, std::size_t round,
                                std::vector<std::uint32_t>& offered) {
  offered.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < kEngineCap; ++i) {
      ++offered[DestHash(v, round, i) % n];
    }
  }
  std::uint64_t delivered = 0;
  for (const std::uint32_t o : offered) {
    delivered += std::min<std::uint64_t>(o, kEngineCap);
  }
  return delivered;
}

/// Per-round engine counters, taken between rounds.
struct EngineSnapshot {
  NetworkStats stats;
  double flush = 0, deliver = 0, barrier = 0, exchange = 0, hidden = 0;
  std::uint64_t staged_bytes = 0, staged_rows = 0, local_rows = 0;

  static EngineSnapshot Of(const ShardedNetwork& net) {
    return {net.stats(),
            net.exchange_flush_seconds(),
            net.exchange_deliver_seconds(),
            net.exchange_barrier_seconds(),
            net.exchange_seconds(),
            net.hidden_flush_seconds(),
            net.staged_bytes(),
            net.staged_rows(),
            net.local_rows()};
  }
};

void RunEngine(std::size_t n, std::uint64_t seed, double seconds,
               const char* trace_path, Output& out) {
  const bool traced = trace_path != nullptr;
  EndToEnd e2e;
  std::vector<std::uint32_t> offered;

  const auto drive_round = [n](ShardedNetwork& net, std::size_t round) {
    net.ForEachNode([&net, n, round](NodeId v) {
      for (std::size_t i = 0; i < kEngineCap; ++i) {
        Message m;
        m.kind = 1;
        m.words[0] = DestHash(v, round, i);
        net.Send(v, static_cast<NodeId>(m.words[0] % n), m);
      }
    });
  };
  // Checks one finished round against the analytic oracle.
  const auto check = [&](const NetworkStats& before, const NetworkStats& after,
                         std::uint64_t expected) {
    const std::uint64_t sent = after.messages_sent - before.messages_sent;
    const std::uint64_t got =
        after.messages_delivered - before.messages_delivered;
    const std::uint64_t dropped =
        after.messages_dropped - before.messages_dropped;
    if (sent != n * kEngineCap || got != expected ||
        dropped != sent - expected) {
      out.Wrong("delivered/dropped counts differ from the analytic oracle");
    }
  };

  // Set-up: engine construction plus one warm-up round on each engine, so
  // the first timed round does not pay first-touch arena growth.
  std::unique_ptr<ShardedNetwork> net4, net1;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    net4.reset();
    net1.reset();
    const auto t0 = Clock::now();
    net4 = std::make_unique<ShardedNetwork>(EngineConfig{
        .num_nodes = n, .capacity = kEngineCap, .seed = seed,
        .exec = {.num_shards = kShards}});
    drive_round(*net4, 0);
    net4->EndRound();
    if (!traced) {
      net1 = std::make_unique<ShardedNetwork>(EngineConfig{
          .num_nodes = n, .capacity = kEngineCap, .seed = seed,
          .exec = {.num_shards = 1}});
      drive_round(*net1, 0);
      net1->EndRound();
    }
    e2e.setup_s.push_back(Seconds(t0, Clock::now()));
  }
  {
    const std::uint64_t expected = ExpectedDelivered(n, 0, offered);
    check(NetworkStats{}, net4->stats(), expected);
    if (net1) check(NetworkStats{}, net1->stats(), expected);
  }

  const auto start_t = Clock::now();
  if (!traced) {
    for (std::size_t j = 0; j == 0 || Seconds(start_t, Clock::now()) < seconds;
         ++j) {
      const std::size_t round = j + 1;
      const std::uint64_t expected = ExpectedDelivered(n, round, offered);
      for (const std::size_t shards : ShardOrder(j)) {
        ShardedNetwork& net = shards == 1 ? *net1 : *net4;
        const NetworkStats before = net.stats();
        ++out.attempted;
        const auto t0 = Clock::now();
        drive_round(net, round);
        net.EndRound();
        const auto t1 = Clock::now();
        const NetworkStats after = net.stats();
        check(before, after, expected);
        (shards == 1 ? e2e.op_ms_s1 : e2e.op_ms_s4).push_back(Ms(t0, t1));
        e2e.rounds.push_back(1.0);
        e2e.msgs.push_back(static_cast<double>(after.messages_delivered -
                                               before.messages_delivered));
      }
      if (j == 0) e2e.peak_rss_mb = PeakRssMb();
    }
    ReportEndToEnd(e2e, out);
    return;
  }

  // Traced: send (ForEachNode) and end_round (EndRound) are timed around
  // the calls; EndRound's flush/deliver/barrier split comes from the
  // engine's own cumulative timers, laid out back to back inside it.
  Trace tr;
  double hidden = 0.0, staged_bytes = 0.0, staged_rows = 0.0, local_rows = 0.0;
  double sent = 0.0, delivered = 0.0;
  std::size_t rounds = 0;
  for (std::size_t j = 0; j == 0 || Seconds(start_t, Clock::now()) < seconds;
       ++j) {
    const std::size_t round = j + 1;
    const std::uint64_t expected = ExpectedDelivered(n, round, offered);
    const EngineSnapshot a = EngineSnapshot::Of(*net4);
    ++out.attempted;
    const int root = tr.Begin("sim.sharded_network.round", round);
    {
      Trace::Scope s(&tr, "sim.sharded_network.send", round, root);
      drive_round(*net4, round);
    }
    const int end_round =
        tr.Begin("sim.sharded_network.end_round", round, root);
    const double t0 = tr.NowUs();
    net4->EndRound();
    tr.End(end_round);
    tr.End(root);
    const EngineSnapshot b = EngineSnapshot::Of(*net4);
    const double flush = (b.flush - a.flush) * 1e6;
    const double deliver = (b.deliver - a.deliver) * 1e6;
    const double barrier = (b.barrier - a.barrier) * 1e6;
    tr.Record("sim.sharded_network.flush", round, end_round, Trace::kMainTrack,
              t0, flush);
    tr.Record("sim.sharded_network.deliver", round, end_round,
              Trace::kMainTrack, t0 + flush, deliver);
    tr.Record("sim.sharded_network.barrier", round, end_round,
              Trace::kMainTrack, t0 + flush + deliver, barrier);
    tr.Count("sim.sharded_network.staged_bytes", round,
             static_cast<double>(b.staged_bytes - a.staged_bytes));
    hidden += b.hidden - a.hidden;
    staged_bytes += static_cast<double>(b.staged_bytes - a.staged_bytes);
    staged_rows += static_cast<double>(b.staged_rows - a.staged_rows);
    local_rows += static_cast<double>(b.local_rows - a.local_rows);
    sent += static_cast<double>(b.stats.messages_sent - a.stats.messages_sent);
    delivered += static_cast<double>(b.stats.messages_delivered -
                                     a.stats.messages_delivered);
    check(a.stats, b.stats, expected);
    ++rounds;
  }

  const double total = SumUs(tr, "sim.sharded_network.round");
  const double r = static_cast<double>(std::max<std::size_t>(1, rounds));
  Layers L;
  L["trace.overhead_pct"] = Pct(tr.overhead_seconds() * 1e6, total);
  L["trace.unattributed_pct"] =
      Pct(SumSelfUs(tr, "sim.sharded_network.round"), total);
  L["sim.sharded_network.send_pct"] =
      Pct(SumUs(tr, "sim.sharded_network.send"), total);
  L["sim.sharded_network.end_round_pct"] =
      Pct(SumUs(tr, "sim.sharded_network.end_round"), total);
  L["sim.sharded_network.flush_pct"] =
      Pct(SumUs(tr, "sim.sharded_network.flush"), total);
  L["sim.sharded_network.deliver_pct"] =
      Pct(SumUs(tr, "sim.sharded_network.deliver"), total);
  L["sim.sharded_network.barrier_pct"] =
      Pct(SumUs(tr, "sim.sharded_network.barrier"), total);
  L["sim.sharded_network.hidden_flush_pct"] = Pct(hidden * 1e6, total);
  L["sim.sharded_network.staged_bytes_per_round"] = staged_bytes / r;
  L["sim.sharded_network.local_frac"] =
      staged_rows + local_rows > 0 ? local_rows / (staged_rows + local_rows)
                                   : 0.0;
  L["sim.sharded_network.delivered_frac"] = sent > 0 ? delivered / sent : 0.0;
  ReportLayers(L, out);
  if (!tr.WriteChromeJson(trace_path)) out.Wrong("cannot write trace file");
}

// ---- main ------------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t n;
  std::size_t smoke_n;
};

constexpr Workload kWorkloads[] = {
    {"construct_8k", 8192, 512},
    {"construct_4k", 4096, 256},
    {"service_drip", 65536, 4096},
    {"engine_hashed", 250000, 5000},
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

bool WriteJson(const std::string& path, const char* workload,
               std::uint64_t seed, bool traced, const Output& out) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %s,\n"
               " \"hardware_concurrency\": %u, \"compiler\": \"%s\","
               " \"build_type\": \"%s\",\n"
               " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n"
               " \"metrics\": {",
               workload, static_cast<unsigned long long>(seed),
               traced ? "true" : "false", std::thread::hardware_concurrency(),
               JsonEscape(__VERSION__).c_str(), OVERLAY_BENCH_BUILD_TYPE,
               out.correct ? "true" : "false",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, vu] = out.metrics[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", name.c_str(), v, vu.second.c_str());
  }
  std::fprintf(f, "},\n \"samples\": {");
  for (std::size_t i = 0; i < out.samples.size(); ++i) {
    const auto& [name, values] = out.samples[i];
    std::fprintf(f, "%s\n  \"%s\": [", i == 0 ? "" : ",", name.c_str());
    for (std::size_t k = 0; k < values.size(); ++k) {
      std::fprintf(f, "%s%.17g", k == 0 ? "" : ", ", values[k]);
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "},\n \"errors\": [");
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                 JsonEscape(out.errors[i]).c_str());
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: overlay_bench --workload <name> --seed <N> "
               "--seconds <T> --json <out.json> [--trace <trace.json>] "
               "[--smoke]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = nullptr;
  const char* json_path = nullptr;
  const char* trace_path = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--json" && has_value) {
      json_path = argv[++i];
    } else if (a == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || json_path == nullptr || !(seconds > 0.0)) {
    return Usage();
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (std::strcmp(cand.name, workload) == 0) w = &cand;
  }
  if (w == nullptr) return Usage();
  const std::size_t n = smoke ? w->smoke_n : w->n;

  Output out;
  try {
    const std::string name = w->name;
    if (name.rfind("construct_", 0) == 0) {
      const std::size_t warm_n = smoke ? 64 : 1024;
      RunConstruct({.n = n, .warm_n = warm_n}, seed, seconds, trace_path,
                   out);
    } else if (name == "service_drip") {
      RunService(n, seed, seconds, trace_path, out);
    } else {
      RunEngine(n, seed, seconds, trace_path, out);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "overlay_bench: %s\n", ex.what());
    return 1;
  }
  if (!WriteJson(json_path, w->name, seed, trace_path != nullptr, out)) {
    std::fprintf(stderr, "overlay_bench: cannot write %s\n", json_path);
    return 1;
  }
  return out.correct ? 0 : 3;
}
