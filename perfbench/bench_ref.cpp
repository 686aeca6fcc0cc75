// Input generator and answer references for the end-to-end benchmark.
//
//   bench_ref er --n=N --m=M --wmax=W --seed=S --out=FILE
//       Erdos-Renyi multigraph: m edges with endpoints drawn uniformly
//       (self-loops redrawn), weights uniform in [1, W]. Written in the
//       "n m" + "u v w" edge-list format the server's `load` op reads.
//
//   bench_ref stream --graph=FILE --ops=N --seed=S --out=FILE
//       Seeded mutation stream over a staged graph, one op per line:
//         a u v w u v w ...   add_edges batch of 8
//         r u v w ...         remove_edges batch of 8 (edges the stream added)
//         q                   cc query
//       ~70% adds, ~15% removes, ~15% queries; op 0 is always an add.
//
//   bench_ref ref --graph=FILE [--bcc] [--min-cut]
//       One JSON line of reference answers: components and largest
//       component (union-find), minimum weighted degree, and optionally the
//       Hopcroft-Tarjan block counts and the Stoer-Wagner minimum cut.
//
//   bench_ref replay --graph=FILE --log=FILE
//       Replays the executed prefix of a stream (same line format) over the
//       graph and prints one JSON line: the component count after every op
//       and the graph_fingerprint of the final edge multiset.
//
// Everything here is sequential and independent of the server's code
// paths except the library references named above.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bcc/reference.hpp"
#include "graph/edge.hpp"
#include "graph/fingerprint.hpp"
#include "graph/io.hpp"
#include "seq/stoer_wagner.hpp"

namespace {

using camc::graph::Vertex;
using camc::graph::WeightedEdge;

struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

struct Dsu {
  std::vector<Vertex> parent, size;
  std::uint64_t components;
  explicit Dsu(Vertex n) : parent(n), size(n, 1), components(n) {
    for (Vertex v = 0; v < n; ++v) parent[v] = v;
  }
  Vertex find(Vertex v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  }
  void unite(Vertex a, Vertex b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size[a] < size[b]) std::swap(a, b);
    parent[b] = a;
    size[a] += size[b];
    --components;
  }
  Vertex largest() {
    Vertex best = 0;
    for (Vertex v = 0; v < parent.size(); ++v)
      if (parent[v] == v) best = std::max(best, size[v]);
    return best;
  }
};

Dsu components_of(Vertex n, const std::vector<WeightedEdge>& edges) {
  Dsu dsu(n);
  for (const WeightedEdge& e : edges) dsu.unite(e.u, e.v);
  return dsu;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw std::runtime_error("bad argument " + arg);
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos)
      flags[arg.substr(2)] = "1";
    else
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

std::uint64_t u64_flag(const std::map<std::string, std::string>& flags,
                       const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) throw std::runtime_error("missing --" + name);
  return std::stoull(it->second);
}

const std::string& str_flag(const std::map<std::string, std::string>& flags,
                            const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) throw std::runtime_error("missing --" + name);
  return it->second;
}

int cmd_er(const std::map<std::string, std::string>& flags) {
  const auto n = static_cast<Vertex>(u64_flag(flags, "n"));
  const std::uint64_t m = u64_flag(flags, "m");
  const std::uint64_t wmax = u64_flag(flags, "wmax");
  SplitMix rng{u64_flag(flags, "seed")};
  std::vector<WeightedEdge> edges;
  edges.reserve(m);
  while (edges.size() < m) {
    const auto u = static_cast<Vertex>(rng.below(n));
    const auto v = static_cast<Vertex>(rng.below(n));
    if (u == v) continue;
    edges.push_back({u, v, 1 + rng.below(wmax)});
  }
  camc::graph::write_edge_list_file(str_flag(flags, "out"), n, edges);
  return 0;
}

void write_batch(std::ostream& out, char op,
                 const std::vector<WeightedEdge>& batch) {
  out << op;
  for (const WeightedEdge& e : batch)
    out << ' ' << e.u << ' ' << e.v << ' ' << e.weight;
  out << '\n';
}

int cmd_stream(const std::map<std::string, std::string>& flags) {
  const camc::graph::EdgeListFile graph =
      camc::graph::read_edge_list_file(str_flag(flags, "graph"));
  const std::uint64_t ops = u64_flag(flags, "ops");
  SplitMix rng{u64_flag(flags, "seed")};
  constexpr std::size_t kBatch = 8;
  std::vector<WeightedEdge> added;  // stream-added edges still present
  std::ofstream out(str_flag(flags, "out"));
  std::vector<WeightedEdge> batch;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const double roll = i == 0 ? 0.0 : rng.unit();
    batch.clear();
    if (roll >= 0.85) {
      out << "q\n";
    } else if (roll >= 0.70 && added.size() >= kBatch) {
      for (std::size_t k = 0; k < kBatch; ++k) {
        const std::size_t pick = rng.below(added.size());
        batch.push_back(added[pick]);
        added[pick] = added.back();
        added.pop_back();
      }
      write_batch(out, 'r', batch);
    } else {
      for (std::size_t k = 0; k < kBatch; ++k) {
        WeightedEdge e;
        if (rng.below(2) == 0 && !graph.edges.empty()) {
          e = graph.edges[rng.below(graph.edges.size())];  // parallel copy
        } else {
          do {
            e.u = static_cast<Vertex>(rng.below(graph.n));
            e.v = static_cast<Vertex>(rng.below(graph.n));
          } while (e.u == e.v);
          e.weight = 1;
        }
        batch.push_back(e);
        added.push_back(e);
      }
      write_batch(out, 'a', batch);
    }
  }
  return out ? 0 : 1;
}

int cmd_ref(const std::map<std::string, std::string>& flags) {
  const camc::graph::EdgeListFile graph =
      camc::graph::read_edge_list_file(str_flag(flags, "graph"));
  Dsu dsu = components_of(graph.n, graph.edges);
  std::vector<camc::graph::Weight> degree(graph.n, 0);
  for (const WeightedEdge& e : graph.edges) {
    if (e.u == e.v) continue;
    degree[e.u] += e.weight;
    degree[e.v] += e.weight;
  }
  const camc::graph::Weight min_degree =
      degree.empty() ? 0 : *std::min_element(degree.begin(), degree.end());
  std::ostringstream out;
  out << "{\"n\":" << graph.n << ",\"m\":" << graph.edges.size()
      << ",\"components\":" << dsu.components
      << ",\"largest_component\":" << dsu.largest()
      << ",\"min_weighted_degree\":" << min_degree;
  if (flags.count("bcc") != 0) {
    const camc::bcc::BccResult bcc =
        camc::bcc::biconnected_components_seq(graph.n, graph.edges);
    out << ",\"bccs\":" << bcc.bcc_count << ",\"largest_bcc\":"
        << bcc.largest_bcc << ",\"bridges\":" << bcc.bridges.size()
        << ",\"articulation_points\":" << bcc.articulation.size();
  }
  if (flags.count("min-cut") != 0) {
    out << ",\"stoer_wagner\":"
        << camc::seq::stoer_wagner_min_cut(graph.n, graph.edges).value;
  }
  out << "}";
  std::cout << out.str() << std::endl;
  return 0;
}

std::vector<WeightedEdge> parse_batch(std::istringstream& in) {
  std::vector<WeightedEdge> batch;
  WeightedEdge e;
  while (in >> e.u >> e.v >> e.weight) batch.push_back(e);
  return batch;
}

int cmd_replay(const std::map<std::string, std::string>& flags) {
  camc::graph::EdgeListFile graph =
      camc::graph::read_edge_list_file(str_flag(flags, "graph"));
  std::vector<WeightedEdge>& edges = graph.edges;
  Dsu dsu = components_of(graph.n, edges);
  std::ifstream log(str_flag(flags, "log"));
  std::string line;
  std::ostringstream out;
  out << "{\"components\":[";
  bool first = true;
  while (std::getline(log, line)) {
    std::istringstream in(line);
    char op = 0;
    in >> op;
    if (op == 'a') {
      for (const WeightedEdge& e : parse_batch(in)) {
        edges.push_back(e);
        dsu.unite(e.u, e.v);
      }
    } else if (op == 'r') {
      // Remove one instance of each exact (u, v, w) record; the canonical
      // orientation matches the server's multiset semantics.
      for (const WeightedEdge& gone : parse_batch(in)) {
        const WeightedEdge key = gone.canonical();
        const auto it = std::find_if(
            edges.rbegin(), edges.rend(),
            [&](const WeightedEdge& e) { return e.canonical() == key; });
        if (it == edges.rend())
          throw std::runtime_error("replay: removed edge not present");
        *it = edges.back();
        edges.pop_back();
      }
      dsu = components_of(graph.n, edges);
    } else if (op != 'q') {
      throw std::runtime_error("replay: bad op line '" + line + "'");
    }
    out << (first ? "" : ",") << dsu.components;
    first = false;
  }
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016" PRIx64,
                camc::graph::graph_fingerprint(graph.n, edges));
  out << "],\"fingerprint\":\"" << fingerprint << "\",\"m\":" << edges.size()
      << "}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: bench_ref er|stream|ref|replay --flag=value ...\n";
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const auto flags = parse_flags(argc, argv);
    if (cmd == "er") return cmd_er(flags);
    if (cmd == "stream") return cmd_stream(flags);
    if (cmd == "ref") return cmd_ref(flags);
    if (cmd == "replay") return cmd_replay(flags);
    std::cerr << "bench_ref: unknown command " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "bench_ref: " << e.what() << "\n";
    return 1;
  }
}
