// dsnd_serve — the DecompositionService as a line-oriented daemon.
//
// Reads one command per line from stdin, answers one JSON object per
// line on stdout, and keeps graphs registered and carve contexts warm
// between requests — the process-boundary face of the service layer
// (src/service/). A malformed or failing command answers {"ok":0,...}
// and the daemon keeps serving; it never exits on bad input. Numbers
// are parsed strictly: a non-numeric value, trailing characters, or a
// value outside the field's type is an error naming the key, never a
// silent truncation.
//
//   graph <id> family <name> n <N> [seed <S>]
//       generate a standard-family instance and register it
//   graph <id> file <path>
//       load an edgelist/metis/dimacs file and register it
//   carve <id> theorem <1|2|3> [k <K>] [lambda <L>] [c <C>] [seed <S>]
//         [deliverable decomposition|mis|coloring|spanner|cover]
//         [radius <W>]
//       submit one request; repeated identical requests hit the cache
//   stats
//       the service's cache/context-pool/validation accounting
//   quit
//       exit 0 (EOF does the same)
//
// Flags: --threads N (engine workers, default 1), --cache N (result
// cache capacity, default 64), --help.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "service/decomposition_service.hpp"

namespace {

using namespace dsnd;

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        // Every remaining control character must be \u-escaped too, or
        // an exception message / file path echoed into an error
        // response breaks the one-JSON-object-per-line protocol.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string hex16(std::uint64_t value) {
  std::ostringstream hex;
  hex << std::hex << value;
  std::string digits = hex.str();
  digits.insert(0, 16 - digits.size(), '0');
  return digits;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

/// Parses the value of `key` as a T. Unlike std::stoll / std::stod it
/// rejects non-numeric text, trailing characters ("12abc") and values T
/// cannot hold (a 64-bit parse narrowed into a 32-bit field).
template <typename T>
T parse_number(const std::string& key, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if constexpr (std::is_integral_v<T>) {
    if (ec != std::errc{} || ptr != end) {
      throw std::invalid_argument(
          key + ": expected an integer in [" +
          std::to_string(std::numeric_limits<T>::min()) + ", " +
          std::to_string(std::numeric_limits<T>::max()) + "], got '" +
          text + "'");
    }
  } else {
    if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
      throw std::invalid_argument(key + ": expected a finite number, got '" +
                                  text + "'");
    }
  }
  return value;
}

/// The optional `key value` pairs after a command's fixed prefix.
class KeyValues {
 public:
  KeyValues(const std::vector<std::string>& tokens, std::size_t begin) {
    if ((tokens.size() - begin) % 2 != 0) {
      throw std::invalid_argument("expected key/value pairs after command");
    }
    for (std::size_t i = begin; i < tokens.size(); i += 2) {
      pairs_[tokens[i]] = tokens[i + 1];
    }
  }

  std::string get(const std::string& key, const std::string& fallback) {
    auto it = pairs_.find(key);
    if (it == pairs_.end()) return fallback;
    consumed_.push_back(key);
    return it->second;
  }

  template <typename T>
  T get_number(const std::string& key, T fallback) {
    auto it = pairs_.find(key);
    if (it == pairs_.end()) return fallback;
    consumed_.push_back(key);
    return parse_number<T>(key, it->second);
  }

  /// Unknown keys are command errors, not silently ignored knobs.
  void require_all_consumed() const {
    for (const auto& [key, value] : pairs_) {
      bool used = false;
      for (const std::string& c : consumed_) used |= c == key;
      if (!used) throw std::invalid_argument("unknown option: " + key);
    }
  }

 private:
  std::unordered_map<std::string, std::string> pairs_;
  std::vector<std::string> consumed_;
};

class Server {
 public:
  Server(unsigned threads, std::size_t cache_capacity) {
    ServiceOptions options;
    options.engine.threads = threads;
    options.cache_capacity = cache_capacity;
    service_.emplace(options);
  }

  /// Handles one command line; returns the one-line JSON response.
  std::string handle(const std::string& line) {
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) return "";
    try {
      if (tokens[0] == "graph") return handle_graph(tokens);
      if (tokens[0] == "carve") return handle_carve(tokens);
      if (tokens[0] == "stats") return handle_stats();
      throw std::invalid_argument("unknown command: " + tokens[0] +
                                  " (expected graph/carve/stats/quit)");
    } catch (const std::exception& e) {
      return std::string("{\"ok\":0,\"error\":\"") + json_escape(e.what()) +
             "\"}";
    }
  }

 private:
  std::string handle_graph(const std::vector<std::string>& tokens) {
    if (tokens.size() < 4) {
      throw std::invalid_argument(
          "usage: graph <id> family <name> n <N> [seed <S>] | "
          "graph <id> file <path>");
    }
    const std::string& id = tokens[1];
    Graph graph;
    if (tokens[2] == "file") {
      graph = load_graph(tokens[3]);
    } else if (tokens[2] == "family") {
      const std::string family = tokens[3];
      KeyValues kv(tokens, 4);
      const auto n = kv.get_number<VertexId>("n", 1000);
      const auto seed = kv.get_number<std::uint64_t>("seed", 1);
      kv.require_all_consumed();
      graph = family_by_name(family).make(n, seed);
    } else {
      throw std::invalid_argument("expected 'family' or 'file', got " +
                                  tokens[2]);
    }
    const auto n = graph.num_vertices();
    const auto m = graph.num_edges();
    // The service owns the storage: on re-registration of an id it
    // retires the old graph only once no in-flight request or warm
    // context references it, so `graph <id> ...` is always safe to
    // re-issue. The daemon only remembers the size (schedules are
    // derived from n).
    const std::uint64_t fingerprint =
        service_->register_graph(id, std::move(graph));
    graph_sizes_[id] = n;
    std::ostringstream out;
    out << "{\"ok\":1,\"graph\":\"" << json_escape(id) << "\",\"n\":" << n
        << ",\"m\":" << m << ",\"fingerprint\":\"" << hex16(fingerprint)
        << "\"}";
    return out.str();
  }

  std::string handle_carve(const std::vector<std::string>& tokens) {
    if (tokens.size() < 4 || tokens[2] != "theorem") {
      throw std::invalid_argument(
          "usage: carve <id> theorem <1|2|3> [k K] [lambda L] [c C] "
          "[seed S] [deliverable D] [radius W]");
    }
    const std::string& id = tokens[1];
    const auto it = graph_sizes_.find(id);
    if (it == graph_sizes_.end()) {
      throw std::invalid_argument("unknown graph: " + id);
    }
    const VertexId n = it->second;
    const int theorem = parse_number<int>("theorem", tokens[3]);
    KeyValues kv(tokens, 4);

    ServiceRequest request;
    request.graph_id = id;
    if (theorem == 1) {
      request.schedule =
          theorem1_schedule(n, kv.get_number<std::int32_t>("k", 0),
                            kv.get_number<double>("c", 4.0));
    } else if (theorem == 2) {
      request.schedule =
          theorem2_schedule(n, kv.get_number<std::int32_t>("k", 0),
                            kv.get_number<double>("c", 6.0));
    } else if (theorem == 3) {
      request.schedule =
          theorem3_schedule(n, kv.get_number<std::int32_t>("lambda", 3),
                            kv.get_number<double>("c", 4.0));
    } else {
      throw std::invalid_argument("theorem must be 1, 2, or 3");
    }
    request.seed = kv.get_number<std::uint64_t>("seed", 1);
    request.deliverable =
        deliverable_by_name(kv.get("deliverable", "decomposition"));
    request.cover_radius = kv.get_number<std::int32_t>("radius", 2);
    kv.require_all_consumed();

    const ServiceResponse response = service_->submit(request);
    const ServiceResult& result = *response.result;
    const Clustering& clustering = result.run.run.clustering();
    std::ostringstream out;
    out << "{\"ok\":" << (response.valid ? 1 : 0) << ",\"graph\":\""
        << json_escape(id) << "\",\"schedule\":\""
        << json_escape(request.schedule.name)
        << "\",\"seed\":" << request.seed << ",\"deliverable\":\""
        << deliverable_name(request.deliverable) << "\",\"status\":\""
        << json_escape(response.status)
        << "\",\"cache_hit\":" << (response.cache_hit ? 1 : 0)
        << ",\"wall_ms\":" << response.wall_ms
        << ",\"clusters\":" << clustering.num_clusters()
        << ",\"colors\":" << clustering.num_colors()
        << ",\"rounds\":" << result.run.sim.rounds
        << ",\"messages\":" << result.run.sim.messages;
    if (result.mis) {
      std::int64_t size = 0;
      for (const char bit : result.mis->in_mis) size += bit != 0;
      out << ",\"mis_size\":" << size;
    }
    if (result.coloring) {
      out << ",\"colors_used\":" << result.coloring->colors_used;
    }
    if (result.spanner) {
      out << ",\"spanner_edges\":" << result.spanner->edges
          << ",\"stretch\":" << result.spanner->stretch;
    }
    if (result.cover) {
      out << ",\"cover_clusters\":" << result.cover->clusters.size()
          << ",\"cover_colors\":" << result.cover->num_colors
          << ",\"cover_radius\":" << result.cover->radius;
    }
    out << "}";
    return out.str();
  }

  std::string handle_stats() const {
    const ServiceStats stats = service_->stats();
    std::ostringstream out;
    out << "{\"ok\":1,\"requests\":" << stats.requests
        << ",\"cache_hits\":" << stats.cache_hits
        << ",\"cache_misses\":" << stats.cache_misses
        << ",\"cache_evictions\":" << stats.cache_evictions
        << ",\"cache_entries\":" << stats.cache_entries
        << ",\"contexts_created\":" << stats.contexts_created
        << ",\"warm_acquires\":" << stats.warm_acquires
        << ",\"invalid_responses\":" << stats.invalid_responses
        << ",\"graphs\":" << graph_sizes_.size() << "}";
    return out.str();
  }

  std::unordered_map<std::string, VertexId> graph_sizes_;
  std::optional<DecompositionService> service_;
};

void print_usage(std::ostream& out) {
  out << "usage: dsnd_serve [--threads N] [--cache N]\n"
         "line-oriented decomposition service on stdin/stdout; "
         "commands:\n"
         "  graph <id> family <name> n <N> [seed <S>]\n"
         "  graph <id> file <path>\n"
         "  carve <id> theorem <1|2|3> [k K] [lambda L] [c C] [seed S]\n"
         "        [deliverable decomposition|mis|coloring|spanner|cover]\n"
         "        [radius W]\n"
         "  stats\n"
         "  quit\n";
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 1;
  std::size_t cache = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    }
    try {
      if (arg == "--threads" && i + 1 < argc) {
        threads = parse_number<unsigned>(arg, argv[++i]);
      } else if (arg == "--cache" && i + 1 < argc) {
        cache = parse_number<std::size_t>(arg, argv[++i]);
      } else {
        throw std::invalid_argument("unknown argument '" + arg + "'");
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << "dsnd_serve: " << e.what() << "\n";
      print_usage(std::cerr);
      return 2;
    }
  }

  Server server(threads, cache);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (tokenize(line) == std::vector<std::string>{"quit"}) break;
    const std::string response = server.handle(line);
    if (!response.empty()) std::cout << response << std::endl;
  }
  return 0;
}
