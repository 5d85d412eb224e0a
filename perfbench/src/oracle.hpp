// Correctness oracles of the benchmark, independent of the system under
// test: a BLIF reader and bit-parallel evaluator of its own (it shares no
// code with bds::net), integer references for the arithmetic and datapath
// generators, and the text edits that make corrupted and mutated
// netlists. Every output the benchmark times is checked here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// Raised for any BLIF the oracle cannot read or any check that fails.
class OracleError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// SplitMix64: the benchmark's own seeded generator (the program's
/// util::Rng is not used, so the inputs do not depend on program code).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Seeded Fisher-Yates shuffle.
template <class T>
void shuffle(std::vector<T>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// A combinational BLIF network (.model/.inputs/.outputs/.names/.end).
struct Blif {
  struct Gate {
    int out = -1;                     ///< signal this gate drives
    std::vector<int> fanins;          ///< signals, in cube column order
    std::vector<std::string> cubes;   ///< input parts of the cube lines
    bool offset = false;              ///< cubes list the OFF-set ("... 0")
  };
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<Gate> gates;  ///< topological order
  std::unordered_map<std::string, int> signal;  ///< name -> signal id
  std::vector<std::string> names;               ///< signal id -> name
};

/// Parses BLIF text; throws OracleError on anything malformed, undriven,
/// doubly driven or cyclic.
Blif parse_blif(const std::string& text);

/// Input vectors, 64 per word: bits[i][w] holds vectors 64w..64w+63 of
/// input names[i].
struct Vectors {
  std::vector<std::string> names;
  std::vector<std::vector<std::uint64_t>> bits;
  std::size_t count = 0;

  [[nodiscard]] std::size_t words() const { return (count + 63) / 64; }
  [[nodiscard]] bool get(std::size_t input, std::size_t v) const {
    return ((bits[input][v / 64] >> (v % 64)) & 1u) != 0;
  }
};

/// One named corner vector: the value of every input, by name.
using Corner = std::function<bool(const std::string& input)>;

/// Corner vectors (all-0, all-1, both alternations, every walking one and
/// walking zero, plus `extra`) followed by `random_count` seeded random
/// vectors. Inputs up to `exhaustive_limit` wide get every vector instead.
Vectors make_vectors(const std::vector<std::string>& inputs,
                     std::uint64_t seed, std::size_t random_count,
                     const std::vector<Corner>& extra = {},
                     std::size_t exhaustive_limit = 14);

/// A single vector (one bit per input, in `inputs` order).
Vectors single_vector(const std::vector<std::string>& inputs,
                      const std::vector<bool>& values);

/// Output words of `net` on `vectors`, indexed like net.outputs. Every
/// input of `net` must be named in `vectors`.
std::vector<std::vector<std::uint64_t>> evaluate(const Blif& net,
                                                 const Vectors& vectors);

/// Reference behaviour of a generated circuit: its interface and an
/// integer-arithmetic model evaluated one vector at a time
/// (`in` follows `inputs`, `out` follows `outputs`).
struct Spec {
  std::string circuit;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::function<void(const std::vector<bool>& in, std::vector<bool>& out)>
      eval;
  std::vector<Corner> corners;
};

Spec adder_spec(unsigned bits);
Spec multiplier_spec(unsigned n);
Spec alu_spec(unsigned bits);
Spec comparator_spec(unsigned bits);
Spec parity_spec(unsigned width);
Spec hamming_spec(unsigned parity_bits);
Spec priority_spec(unsigned channels);
Spec barrel_spec(unsigned width);
Spec rotator_spec(unsigned width);

/// Checks `net` against `spec` on corner and `random_count` seeded
/// vectors; throws OracleError naming the first mismatch.
void check_against_spec(const Blif& net, const Spec& spec, std::uint64_t seed,
                        std::size_t random_count);

/// Checks that `net` computes the same function as `reference` (same
/// input and output names) on corner and seeded random vectors, or on
/// every vector when the inputs are few; throws OracleError otherwise.
void check_against_reference(const Blif& net, const Blif& reference,
                             std::uint64_t seed, std::size_t random_count);

/// Index of the first output on which `a` and `b` differ for `vectors`,
/// or -1 when they agree on all of them. Outputs are matched by name.
int first_difference(const Blif& a, const Blif& b, const Vectors& vectors);

/// `text` with the function of its first primary output complemented:
/// a corruption every vector exposes.
std::string complement_first_output(const std::string& text);

/// `text` with one cube of one seeded .names block changed: the cube is
/// dropped, or one of its literals flipped or fixed.
std::string mutate_one_cube(const std::string& text, SplitMix& rng);

}  // namespace perfbench
