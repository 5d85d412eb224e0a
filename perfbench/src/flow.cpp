// flow_datapath and flow_control: one optimize job at a time through the
// library entry points, BLIF text in, mapped BLIF text out:
//
//   parse_blif_string -> PassManager::from_script("bds", {jobs, map=mcnc})
//   -> run -> write_blif
//
// The traced run (--trace 1) runs the same script pass by pass, each pass
// as its own single-pass PassManager over one shared PassContext, times
// every call from outside, and reads the spans the program already
// publishes (stage:*, supernode[*], epoch:*) from an AggregateSink.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <sstream>

#include "bench.hpp"
#include "flow.hpp"
#include "gen/gen.hpp"
#include "map/genlib.hpp"
#include "net/network.hpp"
#include "opt/manager.hpp"
#include "opt/manager_pool.hpp"
#include "opt/map_passes.hpp"
#include "oracle.hpp"
#include "util/telemetry.hpp"

namespace perfbench {

std::string to_blif(const bds::net::Network& net) {
  std::ostringstream os;
  bds::net::write_blif(os, net);
  return os.str();
}

Qor qor_of(const std::vector<bds::opt::PassStats>& passes) {
  Qor q;
  for (const auto& p : passes) {
    if (p.name != "map") continue;
    q.area = p.counter("mapped_area");
    q.delay = p.counter("mapped_delay");
    q.gates = p.counter("mapped_gates");
    q.literals = p.lits_before;
  }
  return q;
}

double histogram_area(bds::opt::PassContext& ctx) {
  const auto* state = ctx.find_state<bds::opt::MapFlowState>();
  if (state == nullptr || !state->mapped || !state->lib) return -1.0;
  double area = 0.0;
  for (const auto& [gate, count] : state->result.gate_histogram) {
    const bds::map::Gate* g = state->lib->find(gate);
    if (g == nullptr) return -1.0;
    area += g->area * static_cast<double>(count);
  }
  return area;
}

Job one_shot(const std::string& text,
             const bds::opt::ScriptParams& params) {
  Job j;
  bds::opt::PassContext ctx;
  const double t0 = now_s();
  bds::net::Network net = bds::net::parse_blif_string(text);
  bds::opt::PassManager pm = bds::opt::PassManager::from_script("bds", params);
  const bds::opt::PipelineStats st = pm.run(net, {}, ctx);
  j.blif = to_blif(net);
  j.seconds = now_s() - t0;
  j.qor = qor_of(st.passes);
  j.hist_area = histogram_area(ctx);
  return j;
}

bds::net::Network make_circuit(Shape shape, std::uint64_t seed) {
  namespace gen = bds::gen;
  switch (shape) {
    case Shape::kControl16: return gen::random_control(16, 8, 12, seed);
    case Shape::kControl20: return gen::random_control(20, 10, 14, seed);
    case Shape::kMultilevel16: return gen::random_multilevel(16, 4, 10, 6, seed);
    case Shape::kMultilevel20: return gen::random_multilevel(20, 4, 14, 8, seed);
  }
  throw std::logic_error("unknown shape");
}

std::string circuit_name(Shape shape, std::uint64_t seed) {
  const char* call = "";
  switch (shape) {
    case Shape::kControl16: call = "random_control(16,8,12,"; break;
    case Shape::kControl20: call = "random_control(20,10,14,"; break;
    case Shape::kMultilevel16: call = "random_multilevel(16,4,10,6,"; break;
    case Shape::kMultilevel20: call = "random_multilevel(20,4,14,8,"; break;
  }
  return call + std::to_string(seed) + ")";
}

std::uint64_t draw_seed(Shape shape, SplitMix& rng, std::set<std::string>& drawn) {
  for (;;) {
    const std::uint64_t seed = 1 + rng.below(kSeedRange);
    if (drawn.insert(circuit_name(shape, seed)).second) return seed;
  }
}

namespace {

using bds::opt::PassManager;
using bds::opt::ScriptParams;

// flow_control's seeded part: this many circuits of each generator shape.
constexpr unsigned kRandomPerShape = 48;

struct Circuit {
  std::string name;
  std::string text;           ///< BLIF input of every job
  std::optional<Spec> spec;   ///< arithmetic reference, when there is one
  std::optional<Blif> input;  ///< otherwise the input, read by the oracle
  bool known_fault = false;   ///< the sweep fault makes its output wrong
};

Circuit with_spec(const bds::net::Network& net, Spec spec) {
  Circuit c;
  c.name = spec.circuit;
  c.text = to_blif(net);
  c.spec = std::move(spec);
  return c;
}

Circuit with_input(const std::string& name, const bds::net::Network& net) {
  Circuit c;
  c.name = name;
  c.text = to_blif(net);
  c.input = parse_blif(c.text);
  return c;
}

std::vector<Circuit> datapath_circuits() {
  namespace gen = bds::gen;
  std::vector<Circuit> cs;
  cs.push_back(with_spec(gen::ripple_adder(256), adder_spec(256)));
  cs.push_back(with_spec(gen::array_multiplier(12), multiplier_spec(12)));
  cs.push_back(with_spec(gen::barrel_shifter(64), barrel_spec(64)));
  cs.push_back(with_spec(gen::rotator(32), rotator_spec(32)));
  cs.push_back(with_spec(gen::alu(32), alu_spec(32)));
  cs.push_back(with_spec(gen::hamming_corrector(5), hamming_spec(5)));
  cs.push_back(with_spec(gen::parity_tree(64), parity_spec(64)));
  return cs;
}

std::vector<Circuit> control_circuits(std::uint64_t seed) {
  SplitMix rng(seed ^ 0xc011c0de5eedULL);
  std::vector<Circuit> cs;
  const std::string fault = circuit_name(kFaultShape, kFaultSeed);
  std::set<std::string> drawn = {fault};
  for (const Shape shape : kShapes) {
    for (unsigned k = 0; k < kRandomPerShape; ++k) {
      const std::uint64_t s = draw_seed(shape, rng, drawn);
      cs.push_back(with_input(circuit_name(shape, s), make_circuit(shape, s)));
    }
  }
  cs.push_back(with_spec(bds::gen::priority_controller(32), priority_spec(32)));
  cs.push_back(with_spec(bds::gen::comparator(32), comparator_spec(32)));
  cs.push_back(with_input(fault, make_circuit(kFaultShape, kFaultSeed)));
  cs.back().known_fault = true;
  return cs;
}

/// Layer key of a pass name.
std::string layer_of(const std::string& pass) {
  if (pass == "map") return "map.map_ms";
  return "opt." + pass + "_ms";
}

struct TracedJob {
  Job job;
  std::map<std::string, double> layer;  ///< per-layer values of this job
};

TracedJob traced(const std::string& text, const ScriptParams& params) {
  // The single-pass managers are the benchmark's instrument, so they are
  // built before the clock starts.
  struct Step {
    std::string pass;
    PassManager pm;
  };
  std::vector<Step> steps;
  {
    const PassManager full = PassManager::from_script("bds", params);
    for (const auto& p : full.passes()) {
      std::string cmd(p->name());
      if (!p->args().empty()) cmd += " " + p->args();
      steps.push_back({std::string(p->name()), PassManager::from_script(cmd)});
    }
  }
  auto telemetry = std::make_shared<bds::util::Telemetry>("perfbench");
  auto sink = std::make_shared<bds::util::AggregateSink>();
  telemetry->add_sink(sink);
  bds::opt::PipelineOptions popts;
  popts.telemetry = telemetry;
  bds::opt::PassContext ctx;
  const std::size_t constructed0 =
      bds::opt::ManagerPool::global().constructed();

  TracedJob out;
  auto& L = out.layer;
  std::vector<bds::opt::PassStats> passes;
  const double t0 = now_s();
  double t = t0;
  const auto lap = [&t](double& into) {
    const double n = now_s();
    into += (n - t) * 1e3;
    t = n;
  };
  bds::net::Network net = bds::net::parse_blif_string(text);
  lap(L["net.parse_ms"]);
  { const PassManager full = PassManager::from_script("bds", params); }
  lap(L["opt.pipeline_build_ms"]);
  double calls_ms = 0.0;  // the pass calls; their spans are read below
  for (Step& s : steps) {
    const bds::opt::PipelineStats st = s.pm.run(net, popts, ctx);
    lap(calls_ms);
    for (const auto& p : st.passes) {
      passes.push_back(p);
      if (p.name == "bds_partition") L["opt.supernodes"] += p.counter("supernodes");
      if (p.name == "map") L["map.gates"] += p.counter("mapped_gates");
    }
  }
  out.job.blif = to_blif(net);
  lap(L["net.write_ms"]);
  out.job.seconds = t - t0;
  telemetry->finish();
  out.job.qor = qor_of(passes);
  out.job.hist_area = histogram_area(ctx);
  L["opt.managers_constructed"] = static_cast<double>(
      bds::opt::ManagerPool::global().constructed() - constructed0);

  // Spans published by the program: one per pass body ("pass[0]:<name>"
  // under each single-pass pipeline), stage and supernode spans under the
  // decompose pass, manager-op epochs with manager counter deltas. The
  // part of a pass call outside its pass span is PassManager bookkeeping
  // and lands in the job's unattributed remainder.
  double decompose_ms = 0.0;
  double children_ms = 0.0;
  double lookups = 0.0;
  double hits = 0.0;
  std::string decompose_path;
  std::uint32_t decompose_depth = 0;
  for (const auto& e : sink->events()) {
    if (e.depth != 1 || e.name.rfind("pass[", 0) != 0) continue;
    const std::string pass = e.name.substr(e.name.find(':') + 1);
    L[layer_of(pass)] += e.seconds * 1e3;
    L["trace.layers_ms"] += e.seconds * 1e3;
    if (pass == "bds_decompose") {
      decompose_ms += e.seconds * 1e3;
      decompose_path = e.path;
      decompose_depth = e.depth;
    }
  }
  for (const auto& e : sink->events()) {
    const auto counter = [&](const char* key) {
      for (const auto& [k, v] : e.counters) {
        if (k == key) return v;
      }
      return 0.0;
    };
    if (e.name == "epoch:reorder" || e.name == "epoch:decompose") {
      L[e.name == "epoch:reorder" ? "bdd.reorder_ms" : "core.decompose_ms"] +=
          e.seconds * 1e3;
      lookups += counter("cache_lookups");
      hits += counter("cache_hits");
      L["bdd.gc_runs"] += counter("gc_runs");
      L["bdd.peak_live_nodes"] =
          std::max(L["bdd.peak_live_nodes"], counter("peak_live_nodes"));
    }
    if (e.name == "stage:merge") L["opt.merge_ms"] += e.seconds * 1e3;
    if (!decompose_path.empty() && e.depth == decompose_depth + 1 &&
        e.path.compare(0, decompose_path.size() + 1, decompose_path + "/") == 0) {
      children_ms += e.seconds * 1e3;
    }
  }
  L["bdd.cache_lookups"] = lookups;
  L["bdd.cache_hits"] = hits;
  L["opt.decompose_unattributed_ms"] = decompose_ms - children_ms;
  L["trace.layers_ms"] +=
      L["net.parse_ms"] + L["opt.pipeline_build_ms"] + L["net.write_ms"];
  L["trace.job_ms"] = out.job.seconds * 1e3;
  return out;
}

/// Oracle check of one circuit's first output; returns the reason it
/// fails, or "" when it passes.
std::string check_output(const Circuit& c, const Job& j, std::uint64_t seed) {
  try {
    const Blif out = parse_blif(j.blif);
    if (c.spec) {
      check_against_spec(out, *c.spec, seed, 256);
    } else {
      check_against_reference(out, *c.input, seed, 1024);
    }
  } catch (const OracleError& e) {
    return e.what();
  }
  if (!(j.qor.area > 0) || !(j.qor.literals > 0)) return "no mapped result";
  if (std::fabs(j.hist_area - j.qor.area) > 1e-6 * std::max(1.0, j.qor.area)) {
    return "mapped_area " + std::to_string(j.qor.area) +
           " differs from the gate histogram's " + std::to_string(j.hist_area);
  }
  return "";
}

}  // namespace

Result run_flow(const Options& o, bool datapath) {
  Result r;
  const ScriptParams params = {{"jobs", datapath ? "4" : "1"},
                               {"map", "mcnc"}};

  // Set-up: generate every input and its reference. One set-up takes
  // milliseconds and this machine's speed drifts over seconds, so it is
  // done five times before the first round and once more after every
  // round, outside the round's timing; setup_s is the median of all.
  std::vector<double> setups;
  const auto set_up = [&] {
    const double t0 = now_s();
    std::vector<Circuit> cs = datapath ? datapath_circuits() : control_circuits(o.seed);
    setups.push_back(now_s() - t0);
    return cs;
  };
  std::vector<Circuit> circuits;
  for (int rep = 0; rep < (o.short_mode ? 1 : 5); ++rep) circuits = set_up();

  const std::size_t n = circuits.size();
  std::vector<std::optional<Job>> first(n);
  std::vector<std::size_t> jobs_of(n, 0);
  std::vector<std::size_t> differing(n, 0);
  std::vector<double> job_seconds;
  Series rounds;
  SplitMix order_rng(o.seed ^ 0x0bde5eedULL);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  // The traced run compares every output with the untraced one, so it
  // first makes one untraced job per circuit (not part of the timing).
  if (o.trace) {
    for (std::size_t i = 0; i < n; ++i) first[i] = one_shot(circuits[i].text, params);
  }

  std::vector<double> rates;        // jobs/s of each round
  std::vector<double> cpu_per_job;  // CPU seconds per job of each round
  bool corrupted = false;
  const double t0 = now_s();
  for (;;) {
    shuffle(order, order_rng);
    const double round_t0 = now_s();
    const double round_cpu0 = process_cpu_s();
    const std::size_t jobs_before = job_seconds.size();
    std::map<std::string, double> round_sum;
    double round_jobs = 0.0;
    for (const std::size_t i : order) {
      ++r.attempted;
      ++jobs_of[i];
      Job j;
      try {
        if (o.trace) {
          TracedJob t = traced(circuits[i].text, params);
          for (const auto& [k, v] : t.layer) round_sum[k] += v;
          round_jobs += 1.0;
          j = std::move(t.job);
        } else {
          j = one_shot(circuits[i].text, params);
        }
      } catch (const std::exception& e) {
        ++differing[i];
        r.fail(circuits[i].name + ": " + e.what());
        continue;
      }
      job_seconds.push_back(j.seconds);
      // --corrupt: the first job of a circuit that would otherwise pass.
      if (o.corrupt && !corrupted && !circuits[i].known_fault) {
        j.blif = complement_first_output(j.blif);
        corrupted = true;
      }
      if (!first[i]) {
        first[i] = std::move(j);
      } else if (j.blif != first[i]->blif || !(j.qor == first[i]->qor)) {
        // Same input, same options: the output must repeat byte for byte.
        ++differing[i];
        r.fail(circuits[i].name + ": output differs from an earlier job" +
               (o.trace ? " (traced vs untraced)" : ""));
      }
    }
    if (const std::size_t done = job_seconds.size() - jobs_before; done > 0) {
      rates.push_back(static_cast<double>(done) / (now_s() - round_t0));
      cpu_per_job.push_back((process_cpu_s() - round_cpu0) /
                            static_cast<double>(done));
    }
    if (o.trace && round_jobs > 0) {
      // Per-job means of the round; the cache hit rate is a ratio of sums.
      for (const auto& [k, v] : round_sum) {
        if (k != "bdd.cache_hits") rounds[k].push_back(v / round_jobs);
      }
      const double lookups = round_sum["bdd.cache_lookups"];
      rounds["bdd.cache_hit_rate"].push_back(
          lookups > 0 ? round_sum["bdd.cache_hits"] / lookups : 0.0);
      const double job = round_sum["trace.job_ms"];
      const double layers = round_sum["trace.layers_ms"];
      rounds["trace.unattributed_ms"].push_back((job - layers) / round_jobs);
      rounds["trace.covered_pct"].push_back(job > 0 ? 100.0 * layers / job : 0.0);
    }
    if (o.short_mode) break;
    set_up();
    if (now_s() - t0 >= o.seconds) break;
  }
  add_setup_metric(r, setups);

  // Oracle checks of each circuit's output, after the timed window. A
  // wrong output fails every job that produced it.
  Qor sum;
  std::string outputs;
  for (std::size_t i = 0; i < n; ++i) {
    if (!first[i]) {
      r.correct = false;
      std::cerr << "perfbench: " << circuits[i].name << " never completed\n";
      continue;
    }
    const std::string why =
        check_output(circuits[i], *first[i], o.seed ^ (0x9e37ULL * (i + 1)));
    if (!why.empty()) {
      const std::string tag = circuits[i].known_fault ? " (known sweep fault)" : "";
      for (std::size_t k = differing[i]; k < jobs_of[i]; ++k) {
        r.fail(circuits[i].name + tag + ": " + why);
      }
    }
    sum.area += first[i]->qor.area;
    sum.delay += first[i]->qor.delay;
    sum.literals += first[i]->qor.literals;
    outputs += first[i]->blif;
  }
  std::cerr << "perfbench: " << o.workload << " rounds=" << r.attempted / n
            << " circuits=" << n << " output digest " << digest(outputs) << "\n";

  r.add("cpu_ms_per_job", median(cpu_per_job) * 1e3);
  add_job_metrics(r, job_seconds, rates);
  if (o.trace) r.add("trace.jobs_per_s", median(rates));
  r.add("peak_rss_mb", peak_rss_mb());
  r.add("mapped_area", sum.area);
  r.add("mapped_delay", sum.delay);
  r.add("factored_literals", sum.literals);
  for (const auto& [k, v] : rounds) r.add(k, median(v));
  return r;
}

}  // namespace perfbench
