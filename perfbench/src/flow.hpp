// One optimize job through the library entry points, shared by the flow
// workloads and by verify_cec's set-up.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "opt/manager.hpp"
#include "oracle.hpp"

namespace perfbench {

/// Mapped quality of one job, read from the `map` pass counters.
struct Qor {
  double area = 0.0;
  double delay = 0.0;
  double literals = 0.0;  ///< factored-form literals entering `map`
  double gates = 0.0;
  bool operator==(const Qor&) const = default;
};

struct Job {
  double seconds = 0.0;  ///< wall time, BLIF text in to BLIF text out
  std::string blif;      ///< the mapped netlist
  Qor qor;
  double hist_area = 0.0;  ///< area recomputed from the gate histogram
};

std::string to_blif(const bds::net::Network& net);

/// parse_blif_string -> PassManager::from_script("bds", params) -> run ->
/// write_blif, timed as a whole.
Job one_shot(const std::string& text, const bds::opt::ScriptParams& params);

Qor qor_of(const std::vector<bds::opt::PassStats>& passes);

/// Area recomputed from the map pass's gate histogram and the library's
/// gate areas; -1 when no map pass left its state.
double histogram_area(bds::opt::PassContext& ctx);

/// Generator shapes of the seeded control circuits (flow_control and
/// daemon_mix).
enum class Shape { kControl16, kControl20, kMultilevel16, kMultilevel20 };
inline constexpr Shape kShapes[] = {Shape::kControl16, Shape::kControl20,
                                    Shape::kMultilevel16, Shape::kMultilevel20};

/// Generator seeds are drawn from [1, kSeedRange]; every seed in it was
/// optimized once and checked (see perfbench/README.md, "Known faults").
inline constexpr std::uint64_t kSeedRange = 60000;

/// The one circuit of these shapes with a seed in [1, kSeedRange] that the
/// optimizer returns wrong (the sweep fault). flow_control and daemon_mix
/// send it in every round, so its failures are the same share of every
/// run, and a fix or a regression of the fault moves `failed`.
inline constexpr Shape kFaultShape = Shape::kMultilevel16;
inline constexpr std::uint64_t kFaultSeed = 55718;

bds::net::Network make_circuit(Shape shape, std::uint64_t seed);
/// The generator call, e.g. "random_control(16,8,12,4711)".
std::string circuit_name(Shape shape, std::uint64_t seed);
/// A seed in [1, kSeedRange] whose circuit is not in `drawn` yet; adds the
/// circuit's name there. A workload puts the fault circuit in `drawn`
/// first, so it is never drawn a second time.
std::uint64_t draw_seed(Shape shape, SplitMix& rng, std::set<std::string>& drawn);

}  // namespace perfbench
