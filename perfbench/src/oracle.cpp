#include "oracle.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// Logical lines of a BLIF text: comments stripped, '\' continuations
/// joined, blank lines dropped.
std::vector<std::vector<std::string>> logical_lines(const std::string& text) {
  std::vector<std::vector<std::string>> out;
  std::istringstream is(text);
  std::string raw;
  std::string pending;
  while (std::getline(is, raw)) {
    if (const auto hash = raw.find('#'); hash != std::string::npos) {
      raw.erase(hash);
    }
    while (!raw.empty() && (raw.back() == '\r' || raw.back() == ' ')) {
      raw.pop_back();
    }
    if (!raw.empty() && raw.back() == '\\') {
      raw.pop_back();
      pending += raw + ' ';
      continue;
    }
    pending += raw;
    auto toks = split_ws(pending);
    pending.clear();
    if (!toks.empty()) out.push_back(std::move(toks));
  }
  if (!pending.empty()) {
    auto toks = split_ws(pending);
    if (!toks.empty()) out.push_back(std::move(toks));
  }
  return out;
}

std::uint64_t last_word_mask(std::size_t count) {
  const std::size_t rem = count % 64;
  return rem == 0 ? ~0ULL : ((1ULL << rem) - 1);
}

/// Unsigned integer of `n` bits taken from in[offset..offset+n), as
/// little-endian 64-bit limbs, with `extra` zero limbs on top.
std::vector<std::uint64_t> limbs(const std::vector<bool>& in,
                                 std::size_t offset, std::size_t n,
                                 std::size_t extra = 0) {
  std::vector<std::uint64_t> out((n + 63) / 64 + extra, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (in[offset + i]) out[i / 64] |= 1ULL << (i % 64);
  }
  return out;
}

bool bit(const std::vector<std::uint64_t>& x, std::size_t i) {
  return i / 64 < x.size() && ((x[i / 64] >> (i % 64)) & 1u) != 0;
}

std::vector<std::uint64_t> add_limbs(const std::vector<std::uint64_t>& a,
                                     const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> s(a.size(), 0);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const unsigned __int128 t =
        static_cast<unsigned __int128>(a[i]) + b[i] + carry;
    s[i] = static_cast<std::uint64_t>(t);
    carry = t >> 64;
  }
  return s;
}

/// -1, 0, 1 as a <, ==, > b (same limb count).
int compare_limbs(const std::vector<std::uint64_t>& a,
                  const std::vector<std::uint64_t>& b) {
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<std::string> numbered(const std::string& prefix, unsigned n) {
  std::vector<std::string> out;
  for (unsigned i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

std::vector<std::string> concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

unsigned log2_of(unsigned width) {
  unsigned k = 0;
  while ((1u << k) < width) ++k;
  return k;
}

/// Name of the input that fixes a sign-less value `x` of a named word:
/// true when `name` is prefix<i> with bit i of x set.
bool word_bit(const std::string& name, const std::string& prefix,
              std::uint64_t x) {
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix))
    return false;
  const std::string digits = name.substr(prefix.size());
  if (!std::all_of(digits.begin(), digits.end(),
                   [](char c) { return c >= '0' && c <= '9'; }))
    return false;
  const unsigned long i = std::stoul(digits);
  return i < 64 && ((x >> i) & 1u) != 0;
}

void check_interface(const Blif& net, const std::vector<std::string>& inputs,
                     const std::vector<std::string>& outputs,
                     const std::string& what) {
  const std::set<std::string> ni(net.inputs.begin(), net.inputs.end());
  const std::set<std::string> no(net.outputs.begin(), net.outputs.end());
  if (ni != std::set<std::string>(inputs.begin(), inputs.end()) ||
      no != std::set<std::string>(outputs.begin(), outputs.end()) ||
      ni.size() != net.inputs.size() || no.size() != net.outputs.size()) {
    throw OracleError(what + ": input/output names differ from the reference");
  }
}

}  // namespace

Blif parse_blif(const std::string& text) {
  Blif b;
  const auto sig = [&b](const std::string& name) {
    const auto [it, inserted] =
        b.signal.emplace(name, static_cast<int>(b.names.size()));
    if (inserted) b.names.push_back(name);
    return it->second;
  };
  std::vector<Blif::Gate> gates;
  int current = -1;  // gate receiving cube lines
  bool model = false;
  bool ended = false;
  for (const auto& toks : logical_lines(text)) {
    if (ended) throw OracleError("blif: text after .end");
    const std::string& head = toks[0];
    if (head[0] == '.') {
      current = -1;
      if (head == ".model") {
        model = true;
      } else if (head == ".inputs") {
        for (std::size_t i = 1; i < toks.size(); ++i) {
          b.inputs.push_back(toks[i]);
          sig(toks[i]);
        }
      } else if (head == ".outputs") {
        for (std::size_t i = 1; i < toks.size(); ++i) {
          b.outputs.push_back(toks[i]);
          sig(toks[i]);
        }
      } else if (head == ".names") {
        if (toks.size() < 2) throw OracleError("blif: .names without output");
        Blif::Gate g;
        for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
          g.fanins.push_back(sig(toks[i]));
        }
        g.out = sig(toks.back());
        gates.push_back(std::move(g));
        current = static_cast<int>(gates.size()) - 1;
      } else if (head == ".end") {
        ended = true;
      } else {
        throw OracleError("blif: unsupported directive " + head);
      }
      continue;
    }
    if (current < 0) throw OracleError("blif: cube line outside .names");
    Blif::Gate& g = gates[static_cast<std::size_t>(current)];
    std::string cube;
    std::string value;
    if (g.fanins.empty()) {
      if (toks.size() != 1) throw OracleError("blif: bad constant line");
      value = toks[0];
    } else {
      if (toks.size() != 2 || toks[0].size() != g.fanins.size()) {
        throw OracleError("blif: cube width differs from fanin count at " +
                          b.names[static_cast<std::size_t>(g.out)]);
      }
      cube = toks[0];
      value = toks[1];
      if (cube.find_first_not_of("01-") != std::string::npos) {
        throw OracleError("blif: bad cube character");
      }
    }
    if (value != "0" && value != "1") throw OracleError("blif: bad cube value");
    const bool offset = value == "0";
    if (!g.cubes.empty() && offset != g.offset) {
      throw OracleError("blif: mixed ON/OFF cubes");
    }
    g.offset = offset;
    g.cubes.push_back(std::move(cube));
  }
  if (!model || !ended) throw OracleError("blif: missing .model or .end");

  // Every signal driven exactly once (inputs count as drivers).
  std::vector<int> driver(b.names.size(), -2);  // -2 undriven, -1 input
  for (const auto& in : b.inputs) {
    int& d = driver[static_cast<std::size_t>(b.signal.at(in))];
    if (d != -2) throw OracleError("blif: input declared twice: " + in);
    d = -1;
  }
  for (std::size_t g = 0; g < gates.size(); ++g) {
    int& d = driver[static_cast<std::size_t>(gates[g].out)];
    if (d != -2) {
      throw OracleError("blif: signal driven twice: " +
                        b.names[static_cast<std::size_t>(gates[g].out)]);
    }
    d = static_cast<int>(g);
  }
  for (std::size_t s = 0; s < driver.size(); ++s) {
    if (driver[s] == -2) throw OracleError("blif: undriven signal " + b.names[s]);
  }

  // Topological order by iterative DFS from every gate (cycles rejected).
  std::vector<char> state(gates.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  for (std::size_t root = 0; root < gates.size(); ++root) {
    if (state[root] != 0) continue;
    stack.emplace_back(root, 0);
    state[root] = 1;
    while (!stack.empty()) {
      auto& [g, next] = stack.back();
      if (next < gates[g].fanins.size()) {
        const int d = driver[static_cast<std::size_t>(gates[g].fanins[next++])];
        if (d < 0) continue;
        const auto dg = static_cast<std::size_t>(d);
        if (state[dg] == 1) throw OracleError("blif: combinational cycle");
        if (state[dg] == 0) {
          state[dg] = 1;
          stack.emplace_back(dg, 0);
        }
        continue;
      }
      state[g] = 2;
      b.gates.push_back(std::move(gates[g]));
      stack.pop_back();
    }
  }
  return b;
}

Vectors make_vectors(const std::vector<std::string>& inputs,
                     std::uint64_t seed, std::size_t random_count,
                     const std::vector<Corner>& extra,
                     std::size_t exhaustive_limit) {
  Vectors v;
  v.names = inputs;
  const std::size_t n = inputs.size();
  if (n <= exhaustive_limit) {
    v.count = std::size_t{1} << n;
    v.bits.assign(n, std::vector<std::uint64_t>(v.words(), 0));
    for (std::size_t x = 0; x < v.count; ++x) {
      for (std::size_t i = 0; i < n; ++i) {
        if ((x >> i) & 1u) v.bits[i][x / 64] |= 1ULL << (x % 64);
      }
    }
    return v;
  }
  std::vector<std::vector<bool>> rows;
  rows.emplace_back(n, false);
  rows.emplace_back(n, true);
  std::vector<bool> alt(n);
  for (std::size_t i = 0; i < n; ++i) alt[i] = (i % 2) == 0;
  rows.push_back(alt);
  alt.flip();
  rows.push_back(alt);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bool> one(n, false);
    one[i] = true;
    rows.push_back(one);
    one.flip();
    rows.push_back(std::move(one));
  }
  for (const Corner& c : extra) {
    std::vector<bool> row(n);
    for (std::size_t i = 0; i < n; ++i) row[i] = c(inputs[i]);
    rows.push_back(std::move(row));
  }
  SplitMix rng(seed);
  for (std::size_t r = 0; r < random_count; ++r) {
    std::vector<bool> row(n);
    for (std::size_t i = 0; i < n; ++i) row[i] = (rng.next() >> 33) & 1u;
    rows.push_back(std::move(row));
  }
  v.count = rows.size();
  v.bits.assign(n, std::vector<std::uint64_t>(v.words(), 0));
  for (std::size_t x = 0; x < rows.size(); ++x) {
    for (std::size_t i = 0; i < n; ++i) {
      if (rows[x][i]) v.bits[i][x / 64] |= 1ULL << (x % 64);
    }
  }
  return v;
}

Vectors single_vector(const std::vector<std::string>& inputs,
                      const std::vector<bool>& values) {
  Vectors v;
  v.names = inputs;
  v.count = 1;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    v.bits.push_back({values.at(i) ? 1ULL : 0ULL});
  }
  return v;
}

std::vector<std::vector<std::uint64_t>> evaluate(const Blif& net,
                                                 const Vectors& vectors) {
  const std::size_t words = vectors.words();
  std::vector<std::vector<std::uint64_t>> value(net.names.size());
  std::unordered_map<std::string, std::size_t> row;
  for (std::size_t i = 0; i < vectors.names.size(); ++i) {
    row.emplace(vectors.names[i], i);
  }
  for (const auto& in : net.inputs) {
    const auto it = row.find(in);
    if (it == row.end()) throw OracleError("no vector values for input " + in);
    value[static_cast<std::size_t>(net.signal.at(in))] =
        vectors.bits[it->second];
  }
  std::vector<std::uint64_t> term(words);
  for (const Blif::Gate& g : net.gates) {
    std::vector<std::uint64_t> acc(words, 0);
    for (const std::string& cube : g.cubes) {
      std::fill(term.begin(), term.end(), ~0ULL);
      for (std::size_t j = 0; j < cube.size(); ++j) {
        if (cube[j] == '-') continue;
        const auto& x = value[static_cast<std::size_t>(g.fanins[j])];
        if (cube[j] == '1') {
          for (std::size_t w = 0; w < words; ++w) term[w] &= x[w];
        } else {
          for (std::size_t w = 0; w < words; ++w) term[w] &= ~x[w];
        }
      }
      for (std::size_t w = 0; w < words; ++w) acc[w] |= term[w];
    }
    if (g.offset) {
      for (auto& w : acc) w = ~w;
    }
    value[static_cast<std::size_t>(g.out)] = std::move(acc);
  }
  std::vector<std::vector<std::uint64_t>> out;
  out.reserve(net.outputs.size());
  for (const auto& o : net.outputs) {
    out.push_back(value[static_cast<std::size_t>(net.signal.at(o))]);
  }
  return out;
}

// ---- arithmetic references ------------------------------------------------

Spec adder_spec(unsigned bits) {
  Spec s;
  s.circuit = "ripple_adder(" + std::to_string(bits) + ")";
  s.inputs = concat(numbered("a", bits), numbered("b", bits));
  s.outputs = numbered("s", bits);
  s.outputs.push_back("cout");
  s.eval = [bits](const std::vector<bool>& in, std::vector<bool>& out) {
    const auto sum = add_limbs(limbs(in, 0, bits, 1), limbs(in, bits, bits, 1));
    for (unsigned i = 0; i <= bits; ++i) out[i] = bit(sum, i);
  };
  // Longest carry chains: all-ones plus one, in both operand orders.
  s.corners = {
      [](const std::string& n) { return n[0] == 'a' || n == "b0"; },
      [](const std::string& n) { return n[0] == 'b' || n == "a0"; }};
  return s;
}

Spec multiplier_spec(unsigned n) {
  if (n > 32) throw OracleError("multiplier_spec: n > 32");
  Spec s;
  s.circuit = "array_multiplier(" + std::to_string(n) + ")";
  s.inputs = concat(numbered("a", n), numbered("b", n));
  s.outputs = numbered("p", 2 * n);
  s.eval = [n](const std::vector<bool>& in, std::vector<bool>& out) {
    const std::uint64_t a = limbs(in, 0, n)[0];
    const std::uint64_t b = limbs(in, n, n)[0];
    const std::uint64_t p = a * b;
    for (unsigned i = 0; i < 2 * n; ++i) out[i] = ((p >> i) & 1u) != 0;
  };
  const std::uint64_t max = (n == 32) ? 0xffffffffULL : ((1ULL << n) - 1);
  s.corners = {[max](const std::string& x) {
                 return word_bit(x, "a", max) || word_bit(x, "b", 1);
               },
               [max](const std::string& x) {
                 return word_bit(x, "a", max) || word_bit(x, "b", max - 1);
               }};
  return s;
}

Spec alu_spec(unsigned bits) {
  Spec s;
  s.circuit = "alu(" + std::to_string(bits) + ")";
  s.inputs = concat(numbered("a", bits), numbered("b", bits));
  s.inputs.push_back("op0");
  s.inputs.push_back("op1");
  s.outputs = numbered("r", bits);
  s.outputs.push_back("cout");
  s.eval = [bits](const std::vector<bool>& in, std::vector<bool>& out) {
    const auto a = limbs(in, 0, bits, 1);
    const auto b = limbs(in, bits, bits, 1);
    const unsigned op = (in[2 * bits + 1] ? 2u : 0u) | (in[2 * bits] ? 1u : 0u);
    const auto sum = add_limbs(a, b);
    for (unsigned i = 0; i < bits; ++i) {
      switch (op) {
        case 0: out[i] = bit(sum, i); break;
        case 1: out[i] = bit(a, i) && bit(b, i); break;
        case 2: out[i] = bit(a, i) || bit(b, i); break;
        default: out[i] = bit(a, i) != bit(b, i); break;
      }
    }
    out[bits] = op == 0 && bit(sum, bits);
  };
  s.corners = {[](const std::string& n) { return n[0] == 'a' || n == "b0"; }};
  return s;
}

Spec comparator_spec(unsigned bits) {
  Spec s;
  s.circuit = "comparator(" + std::to_string(bits) + ")";
  s.inputs = concat(numbered("a", bits), numbered("b", bits));
  s.outputs = {"eq", "lt", "gt"};
  s.eval = [bits](const std::vector<bool>& in, std::vector<bool>& out) {
    const int c = compare_limbs(limbs(in, 0, bits), limbs(in, bits, bits));
    out[0] = c == 0;
    out[1] = c < 0;
    out[2] = c > 0;
  };
  // Operands equal except in the lowest bit: the whole chain decides.
  s.corners = {[](const std::string& n) { return n != "b0"; },
               [](const std::string& n) { return n != "a0"; }};
  return s;
}

Spec parity_spec(unsigned width) {
  Spec s;
  s.circuit = "parity_tree(" + std::to_string(width) + ")";
  s.inputs = numbered("x", width);
  s.outputs = {"parity"};
  s.eval = [](const std::vector<bool>& in, std::vector<bool>& out) {
    out[0] = std::count(in.begin(), in.end(), true) % 2 == 1;
  };
  return s;
}

Spec hamming_spec(unsigned parity_bits) {
  const unsigned total = (1u << parity_bits) - 1;
  Spec s;
  s.circuit = "hamming_corrector(" + std::to_string(parity_bits) + ")";
  std::vector<unsigned> data;
  for (unsigned p = 1; p <= total; ++p) {
    const bool check = (p & (p - 1)) == 0;
    s.inputs.push_back((check ? "c" : "d") + std::to_string(p));
    if (!check) {
      data.push_back(p);
      s.outputs.push_back("q" + std::to_string(p));
    }
  }
  // Syndrome = XOR of the positions whose bit is set; the data bit at the
  // syndrome's position is the one corrected.
  s.eval = [data](const std::vector<bool>& in, std::vector<bool>& out) {
    unsigned syndrome = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (in[i]) syndrome ^= static_cast<unsigned>(i + 1);
    }
    for (std::size_t k = 0; k < data.size(); ++k) {
      out[k] = in[data[k] - 1] != (syndrome == data[k]);
    }
  };
  return s;
}

Spec priority_spec(unsigned channels) {
  Spec s;
  s.circuit = "priority_controller(" + std::to_string(channels) + ")";
  s.inputs = concat(numbered("req", channels), numbered("en", channels));
  s.outputs = numbered("grant", channels);
  s.outputs.push_back("busy");
  s.eval = [channels](const std::vector<bool>& in, std::vector<bool>& out) {
    bool any = false;
    for (unsigned i = 0; i < channels; ++i) {
      const bool active = in[i] && in[channels + i];
      out[i] = active && !any;
      any = any || active;
    }
    out[channels] = any;
  };
  // Only the lowest-priority channel requests and is enabled.
  s.corners = {[channels](const std::string& n) {
    const std::string last = std::to_string(channels - 1);
    return n == "req" + last || n == "en" + last;
  }};
  return s;
}

Spec barrel_spec(unsigned width) {
  const unsigned k = log2_of(width);
  Spec s;
  s.circuit = "barrel_shifter(" + std::to_string(width) + ")";
  s.inputs = concat(numbered("d", width), numbered("s", k));
  s.outputs = numbered("o", width);
  s.eval = [width, k](const std::vector<bool>& in, std::vector<bool>& out) {
    unsigned amount = 0;
    for (unsigned j = 0; j < k; ++j) amount |= (in[width + j] ? 1u : 0u) << j;
    for (unsigned i = 0; i < width; ++i) {
      out[i] = in[(i + width - amount) % width];
    }
  };
  return s;
}

Spec rotator_spec(unsigned width) {
  const unsigned k = log2_of(width);
  Spec s;
  s.circuit = "rotator(" + std::to_string(width) + ")";
  s.inputs = concat(numbered("d", width), numbered("s", k));
  s.inputs.push_back("dir");
  s.outputs = numbered("o", width);
  s.eval = [width, k](const std::vector<bool>& in, std::vector<bool>& out) {
    unsigned amount = 0;
    for (unsigned j = 0; j < k; ++j) amount |= (in[width + j] ? 1u : 0u) << j;
    const bool right = in[width + k];
    for (unsigned i = 0; i < width; ++i) {
      out[i] = right ? in[(i + amount) % width]
                     : in[(i + width - amount) % width];
    }
  };
  return s;
}

// ---- checks ---------------------------------------------------------------

void check_against_spec(const Blif& net, const Spec& spec, std::uint64_t seed,
                        std::size_t random_count) {
  check_interface(net, spec.inputs, spec.outputs, spec.circuit);
  const Vectors v = make_vectors(spec.inputs, seed, random_count, spec.corners);
  const auto got = evaluate(net, v);
  std::vector<std::size_t> col(spec.outputs.size());
  for (std::size_t j = 0; j < spec.outputs.size(); ++j) {
    col[j] = static_cast<std::size_t>(
        std::find(net.outputs.begin(), net.outputs.end(), spec.outputs[j]) -
        net.outputs.begin());
  }
  std::vector<bool> in(spec.inputs.size());
  std::vector<bool> out(spec.outputs.size());
  for (std::size_t x = 0; x < v.count; ++x) {
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = v.get(i, x);
    spec.eval(in, out);
    for (std::size_t j = 0; j < out.size(); ++j) {
      const bool g = ((got[col[j]][x / 64] >> (x % 64)) & 1u) != 0;
      if (g != out[j]) {
        throw OracleError(spec.circuit + ": output " + spec.outputs[j] +
                          " wrong on vector " + std::to_string(x));
      }
    }
  }
}

int first_difference(const Blif& a, const Blif& b, const Vectors& vectors) {
  const auto ea = evaluate(a, vectors);
  const auto eb = evaluate(b, vectors);
  const std::size_t words = vectors.words();
  const std::uint64_t mask = last_word_mask(vectors.count);
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    const auto it = std::find(b.outputs.begin(), b.outputs.end(), a.outputs[i]);
    if (it == b.outputs.end()) return static_cast<int>(i);
    const auto& y = eb[static_cast<std::size_t>(it - b.outputs.begin())];
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t m = w + 1 == words ? mask : ~0ULL;
      if (((ea[i][w] ^ y[w]) & m) != 0) return static_cast<int>(i);
    }
  }
  return -1;
}

void check_against_reference(const Blif& net, const Blif& reference,
                             std::uint64_t seed, std::size_t random_count) {
  check_interface(net, reference.inputs, reference.outputs, "netlist");
  const Vectors v = make_vectors(reference.inputs, seed, random_count);
  const int d = first_difference(reference, net, v);
  if (d >= 0) {
    throw OracleError("output " +
                      reference.outputs[static_cast<std::size_t>(d)] +
                      " differs from the input circuit");
  }
}

// ---- text edits -----------------------------------------------------------

namespace {

std::vector<std::string> text_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + '\n';
  return out;
}

/// [begin, end) line ranges of the cube lines of every .names block, with
/// the index of the .names line itself.
struct Block {
  std::size_t header = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<Block> names_blocks(const std::vector<std::string>& lines) {
  std::vector<Block> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind(".names", 0) != 0) continue;
    Block b{i, i + 1, i + 1};
    while (b.end < lines.size() && !lines[b.end].empty() &&
           lines[b.end][0] != '.') {
      ++b.end;
    }
    out.push_back(b);
  }
  return out;
}

}  // namespace

std::string complement_first_output(const std::string& text) {
  const Blif net = parse_blif(text);
  if (net.outputs.empty()) throw OracleError("corrupt: no outputs");
  auto lines = text_lines(text);
  for (const Block& b : names_blocks(lines)) {
    if (split_ws(lines[b.header]).back() != net.outputs[0]) continue;
    if (b.begin == b.end) {  // constant 0 -> constant 1
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(b.begin), "1");
      return join_lines(lines);
    }
    for (std::size_t i = b.begin; i < b.end; ++i) {
      char& v = lines[i].back();
      v = v == '1' ? '0' : '1';
    }
    return join_lines(lines);
  }
  throw OracleError("corrupt: first output is not driven by a .names block");
}

std::string mutate_one_cube(const std::string& text, SplitMix& rng) {
  auto lines = text_lines(text);
  std::vector<Block> blocks;
  for (const Block& b : names_blocks(lines)) {
    if (b.end > b.begin && split_ws(lines[b.header]).size() > 2) {
      blocks.push_back(b);
    }
  }
  if (blocks.empty()) throw OracleError("mutate: no .names block with inputs");
  const Block& b = blocks[rng.below(blocks.size())];
  const std::size_t cubes = b.end - b.begin;
  const std::size_t c = b.begin + rng.below(cubes);
  if (cubes > 1 && rng.below(2) == 0) {
    lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(c));
    return join_lines(lines);
  }
  std::string& cube = lines[c];
  const std::size_t width = cube.find(' ');
  char& lit = cube[rng.below(width)];
  lit = lit == '-' ? (rng.below(2) ? '1' : '0') : (lit == '1' ? '0' : '1');
  return join_lines(lines);
}

}  // namespace perfbench
