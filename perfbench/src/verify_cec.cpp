// verify_cec: each job is one verify::check_equivalence of a circuit
// against its bds-optimized mapped netlist (must prove) or against a
// seeded single-cube mutant of that netlist (must disprove, with a
// counterexample the benchmark's own evaluator confirms). Optimization
// and mutation happen in set-up.
#include <iostream>
#include <optional>

#include "bench.hpp"
#include "flow.hpp"
#include "gen/gen.hpp"
#include "oracle.hpp"
#include "verify/cec.hpp"

namespace perfbench {

namespace {

struct Pair {
  std::string name;
  Blif input_ref;       ///< input, as the oracle reads it
  Blif mutant_ref;      ///< mutant, as the oracle reads it
  bds::net::Network input;
  bds::net::Network optimized;
  bds::net::Network mutant;
  Qor qor;
  bool optimized_ok = false;  ///< the oracle accepts the optimized netlist
};

struct Made {
  bds::net::Network net;
  Spec spec;
};

std::vector<Made> cec_circuits() {
  namespace gen = bds::gen;
  std::vector<Made> out;
  out.push_back({gen::ripple_adder(48), adder_spec(48)});
  out.push_back({gen::array_multiplier(8), multiplier_spec(8)});
  out.push_back({gen::alu(32), alu_spec(32)});
  out.push_back({gen::comparator(32), comparator_spec(32)});
  out.push_back({gen::priority_controller(32), priority_spec(32)});
  out.push_back({gen::hamming_corrector(5), hamming_spec(5)});
  out.push_back({gen::barrel_shifter(64), barrel_spec(64)});
  out.push_back({gen::rotator(32), rotator_spec(32)});
  return out;
}

std::vector<Pair> make_pairs(std::uint64_t seed) {
  const bds::opt::ScriptParams params = {{"jobs", "4"}, {"map", "mcnc"}};
  std::vector<Pair> pairs;
  std::size_t index = 0;
  for (Made& m : cec_circuits()) {
    Pair p;
    p.name = m.spec.circuit;
    const std::string text = to_blif(m.net);
    p.input_ref = parse_blif(text);
    p.input = bds::net::parse_blif_string(text);
    const Job opt = one_shot(text, params);
    p.qor = opt.qor;
    p.optimized = bds::net::parse_blif_string(opt.blif);
    try {
      check_against_spec(parse_blif(opt.blif), m.spec, seed, 256);
      p.optimized_ok = true;
    } catch (const OracleError& e) {
      std::cerr << "perfbench: optimized " << p.name << ": " << e.what() << "\n";
    }

    // A mutant the oracle sees differ on some vector is inequivalent for
    // certain; draw mutations until one is.
    SplitMix rng(seed * 0x100000001b3ULL + ++index);
    const Vectors v = make_vectors(p.input_ref.inputs, seed + index, 256);
    bool found = false;
    for (int attempt = 0; attempt < 256 && !found; ++attempt) {
      const std::string text_m = mutate_one_cube(opt.blif, rng);
      Blif ref = parse_blif(text_m);
      if (first_difference(p.input_ref, ref, v) < 0) continue;
      try {
        p.mutant = bds::net::parse_blif_string(text_m);
      } catch (const std::exception&) {
        continue;  // e.g. a mutation that duplicated a cube
      }
      p.mutant_ref = std::move(ref);
      found = true;
    }
    if (!found) throw OracleError("no observable mutation of " + p.name);
    pairs.push_back(std::move(p));
  }
  return pairs;
}

/// Does `cex` (in the input network's input order) make the input and
/// the mutant differ under the oracle's evaluator?
bool confirms(const Pair& p, const std::vector<bool>& cex) {
  std::vector<std::string> names;
  for (const auto id : p.input.inputs()) names.push_back(p.input.node(id).name);
  if (cex.size() != names.size()) return false;
  return first_difference(p.input_ref, p.mutant_ref, single_vector(names, cex)) >= 0;
}

}  // namespace

Result run_verify_cec(const Options& o) {
  Result r;
  // Set-up: optimize every circuit and make the mutants, three times
  // before the first round and once more after every round, outside the
  // round's timing, so that setup_s, their median, samples the machine's
  // speed over the whole run.
  std::vector<double> setups;
  const auto set_up = [&] {
    const double t0 = now_s();
    std::vector<Pair> made = make_pairs(o.seed);
    setups.push_back(now_s() - t0);
    return made;
  };
  std::vector<Pair> pairs;
  for (int rep = 0; rep < (o.short_mode ? 1 : 3); ++rep) pairs = set_up();

  // A round proves every circuit and disproves every mutant once, in a
  // seeded order.
  std::vector<std::pair<std::size_t, bool>> round;  // (pair, is mutant)
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    round.emplace_back(i, false);
    round.emplace_back(i, true);
  }
  SplitMix order_rng(o.seed ^ 0xcec5eedULL);
  std::vector<double> job_seconds;
  Series rounds;
  std::vector<double> rates;        // jobs/s of each round
  std::vector<double> cpu_per_job;  // CPU seconds per job of each round
  bool corrupted = false;
  const double t0 = now_s();
  for (;;) {
    shuffle(round, order_rng);
    const double round_t0 = now_s();
    const double round_cpu0 = process_cpu_s();
    double cec_ms = 0.0, job_ms = 0.0, prove_ms = 0.0, disprove_ms = 0.0;
    double proved = 0.0, disproved = 0.0, aborted = 0.0;
    for (const auto& [i, mutant] : round) {
      const Pair& p = pairs[i];
      // --corrupt: the first proof job is handed the mutant instead.
      const bool corrupt = o.corrupt && !corrupted && !mutant;
      corrupted = corrupted || corrupt;
      ++r.attempted;
      const double j0 = now_s();
      const bds::verify::CecResult res = bds::verify::check_equivalence(
          p.input, mutant || corrupt ? p.mutant : p.optimized);
      const double j1 = now_s();
      job_seconds.push_back(j1 - j0);
      switch (res.status) {
        case bds::verify::CecStatus::kEquivalent: proved += 1; break;
        case bds::verify::CecStatus::kInequivalent: disproved += 1; break;
        case bds::verify::CecStatus::kAborted: aborted += 1; break;
      }
      if (!mutant) {
        if (res.status != bds::verify::CecStatus::kEquivalent) {
          r.fail(p.name + ": proof did not prove");
        } else if (!p.optimized_ok) {
          r.fail(p.name + ": proved a netlist the oracle rejects");
        }
      } else if (res.status != bds::verify::CecStatus::kInequivalent) {
        r.fail(p.name + " mutant: not disproved");
      } else if (!confirms(p, res.counterexample)) {
        r.fail(p.name + " mutant: counterexample does not separate the two");
      }
      cec_ms += (j1 - j0) * 1e3;
      (mutant ? disprove_ms : prove_ms) += (j1 - j0) * 1e3;
      job_ms += (now_s() - j0) * 1e3;
    }
    const double n = static_cast<double>(round.size());
    rates.push_back(n / (now_s() - round_t0));
    cpu_per_job.push_back((process_cpu_s() - round_cpu0) / n);
    rounds["verify.cec_ms"].push_back(cec_ms / n);
    rounds["verify.prove_ms"].push_back(prove_ms / static_cast<double>(pairs.size()));
    rounds["verify.disprove_ms"].push_back(disprove_ms / static_cast<double>(pairs.size()));
    rounds["verify.proved"].push_back(proved);
    rounds["verify.disproved"].push_back(disproved);
    rounds["verify.aborted"].push_back(aborted);
    rounds["trace.job_ms"].push_back(job_ms / n);
    rounds["trace.layers_ms"].push_back(cec_ms / n);
    rounds["trace.unattributed_ms"].push_back((job_ms - cec_ms) / n);
    rounds["trace.covered_pct"].push_back(job_ms > 0 ? 100.0 * cec_ms / job_ms : 0.0);
    if (o.short_mode) break;
    set_up();
    if (now_s() - t0 >= o.seconds) break;
  }
  add_setup_metric(r, setups);

  Qor sum;
  for (const Pair& p : pairs) {
    sum.area += p.qor.area;
    sum.delay += p.qor.delay;
    sum.literals += p.qor.literals;
  }
  std::cerr << "perfbench: verify_cec rounds=" << r.attempted / round.size()
            << " jobs=" << r.attempted << "\n";
  r.add("cpu_ms_per_job", median(cpu_per_job) * 1e3);
  add_job_metrics(r, job_seconds, rates);
  if (o.trace) r.add("trace.jobs_per_s", median(rates));
  r.add("peak_rss_mb", peak_rss_mb());
  r.add("mapped_area", sum.area);
  r.add("mapped_delay", sum.delay);
  r.add("factored_literals", sum.literals);
  if (o.trace) {
    for (const auto& [k, v] : rounds) r.add(k, median(v));
  }
  return r;
}

}  // namespace perfbench
