// In-process timings of single layers, on one workload's own inputs.
//
//   bench_layers --graph=FILE --requests=FILE --responses=FILE --keys=K
//
// Prints one JSON line with the median over repetitions of:
//   graph.io.parse_ms      graph::read_edge_list_file(FILE)
//   graph.fingerprint_ms   graph::graph_fingerprint over its edges
//   graph.scatter_ms       DistributedEdgeArray::scatter at 2 ranks, timed
//                          inside Machine::run around the collective
//   bsp.run_overhead_us    Machine::run with an empty body at 2 ranks
//   dyn.state_build_ms     the dyn::DynCc constructor over the edges
//   svc.json.parse_us      svc::Json::parse per request line
//   svc.json.dump_us       svc::Json::dump per response object
//   svc.cache.get_us       svc::ResultCache::get on a hit, the cache holding
//                          K entries (the workload's distinct queries)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsp/machine.hpp"
#include "dyn/dyn_cc.hpp"
#include "graph/dist_edge_array.hpp"
#include "graph/fingerprint.hpp"
#include "graph/io.hpp"
#include "svc/json.hpp"
#include "svc/result_cache.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Median over `reps` runs of `fn`, each timed whole, in seconds.
double timed_median(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  if (lines.empty()) throw std::runtime_error("no lines in " + path);
  return lines;
}

std::string flag(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  throw std::runtime_error("missing " + prefix);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace camc;
  try {
    const std::string graph_path = flag(argc, argv, "graph");
    const std::vector<std::string> requests =
        read_lines(flag(argc, argv, "requests"));
    const std::vector<std::string> responses =
        read_lines(flag(argc, argv, "responses"));
    const std::uint64_t keys = std::stoull(flag(argc, argv, "keys"));
    std::map<std::string, double> out;

    graph::EdgeListFile graph;
    out["graph.io.parse_ms"] = 1e3 * timed_median(3, [&] {
      graph = graph::read_edge_list_file(graph_path);
    });

    volatile std::uint64_t sink = 0;
    out["graph.fingerprint_ms"] = 1e3 * timed_median(5, [&] {
      sink = sink + graph::graph_fingerprint(graph.n, graph.edges);
    });

    bsp::Machine machine(2);
    std::vector<double> scatter;
    for (int i = 0; i < 5; ++i) {
      double rank0 = 0.0;
      machine.run([&](bsp::Comm& world) {
        const Clock::time_point start = Clock::now();
        const graph::DistributedEdgeArray dist =
            graph::DistributedEdgeArray::scatter(world, graph.n, graph.edges);
        world.barrier();
        if (world.rank() == 0) {
          rank0 = seconds_since(start);
          sink = sink + dist.local().size();
        }
      });
      scatter.push_back(rank0);
    }
    out["graph.scatter_ms"] = 1e3 * median(scatter);

    const std::function<void(bsp::Comm&)> empty = [](bsp::Comm&) {};
    std::vector<double> overhead;
    for (int batch = 0; batch < 9; ++batch) {
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < 50; ++i) machine.run(empty);
      overhead.push_back(seconds_since(start) / 50);
    }
    out["bsp.run_overhead_us"] = 1e6 * median(overhead);

    out["dyn.state_build_ms"] = 1e3 * timed_median(3, [&] {
      const dyn::DynCc state(graph.n, graph.edges);
      sink = sink + state.components();
    });

    std::vector<svc::Json> parsed;
    for (const std::string& line : responses)
      parsed.push_back(svc::Json::parse(line));
    out["svc.json.parse_us"] =
        1e6 / static_cast<double>(requests.size()) * timed_median(9, [&] {
          for (const std::string& line : requests)
            sink = sink + svc::Json::parse(line).size();
        });
    out["svc.json.dump_us"] =
        1e6 / static_cast<double>(parsed.size()) * timed_median(9, [&] {
          for (const svc::Json& value : parsed) sink = sink + value.dump().size();
        });

    svc::ResultCache cache(std::max<std::uint64_t>(keys, 1));
    std::vector<svc::CacheKey> cache_keys;
    for (std::uint64_t k = 0; k < std::max<std::uint64_t>(keys, 1); ++k) {
      svc::CacheKey key;
      key.graph_fingerprint = 0x9E3779B97F4A7C15ull * (k / 12 + 1);
      key.kind = static_cast<svc::QueryKind>(k % 3);
      key.params_hash = k % 12;
      key.seed = k;
      cache.put(key, svc::QueryResult{});
      cache_keys.push_back(key);
    }
    constexpr int kRounds = 200;
    out["svc.cache.get_us"] =
        1e6 / static_cast<double>(kRounds * cache_keys.size()) *
        timed_median(9, [&] {
          for (int round = 0; round < kRounds; ++round)
            for (const svc::CacheKey& key : cache_keys)
              sink = sink + cache.get(key)->value;
        });

    std::ostringstream json;
    json.precision(9);
    json << "{";
    bool first = true;
    for (const auto& [name, value] : out) {
      json << (first ? "" : ",") << "\"" << name << "\":" << value;
      first = false;
    }
    json << "}";
    std::cout << json.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_layers: " << e.what() << "\n";
    return 1;
  }
}
