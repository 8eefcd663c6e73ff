// A scripted dsnd_serve session, driven through the real binary over
// stdin/stdout: register a graph, carve, hit the cache with the identical
// request, and check that retired or malformed input answers {"ok":0}
// with an error naming the offending key — the `backend` option is
// gone, and integers are never silently narrowed or truncated — while
// the daemon keeps serving until `quit` or EOF. Hostile input (bare or
// truncated commands, unknown names, a schedule no runner accepts) and
// re-registering a live graph id get the same treatment.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

/// Runs dsnd_serve with `flags` on `script` and returns its stdout lines.
std::vector<std::string> run_session(const std::string& script,
                                     const std::string& flags = "") {
  const std::string path = ::testing::TempDir() + "dsnd_serve_session_" +
                           std::to_string(getpid()) + ".txt";
  std::ofstream(path) << script;
  const std::string command = std::string("'") + DSND_SERVE_PATH + "' " +
                              flags + " < '" + path + "'";
  FILE* pipe = popen(command.c_str(), "r");
  std::vector<std::string> lines;
  if (pipe == nullptr) {
    ADD_FAILURE() << "cannot start " << command;
    return lines;
  }
  std::string line;
  for (int c = std::fgetc(pipe); c != EOF; c = std::fgetc(pipe)) {
    if (c == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  EXPECT_EQ(pclose(pipe), 0) << "dsnd_serve must exit 0 on quit or EOF";
  std::remove(path.c_str());
  return lines;
}

bool has(const std::string& line, const std::string& part) {
  return line.find(part) != std::string::npos;
}

TEST(DsndServe, ScriptedSession) {
  const std::vector<std::string> out = run_session(
      "graph g family gnp-sparse n 300 seed 1\n"
      "carve g theorem 1 seed 7\n"
      "carve g theorem 1 seed 7\n"
      "carve g theorem 1 seed 7 backend centralized\n"
      "graph big family gnp-sparse n 4294967306\n"
      "carve g theorem 1 k 4294967300\n"
      "graph h family gnp-sparse n 12abc\n"
      "carve g theorem 1 seed -1\n"
      "carve g theorem 1x\n"
      "carve g theorem 1 c 4abc\n"
      "carve g theorem 1 deliverable cover radius 2147483647\n"
      "stats\n"
      "quit\n"
      "carve g theorem 1 seed 8\n");
  ASSERT_EQ(out.size(), 12u) << "one answer per command, none after quit";

  EXPECT_TRUE(has(out[0], "\"ok\":1")) << out[0];
  EXPECT_TRUE(has(out[0], "\"n\":300")) << out[0];

  EXPECT_TRUE(has(out[1], "\"ok\":1")) << out[1];
  EXPECT_TRUE(has(out[1], "\"status\":\"ok\"")) << out[1];
  EXPECT_TRUE(has(out[1], "\"cache_hit\":0")) << out[1];
  EXPECT_TRUE(has(out[2], "\"ok\":1")) << out[2];
  EXPECT_TRUE(has(out[2], "\"cache_hit\":1")) << out[2];

  EXPECT_TRUE(has(out[3], "\"ok\":0")) << out[3];
  EXPECT_TRUE(has(out[3], "unknown option: backend")) << out[3];

  // Each bad number is rejected by name instead of being narrowed (a
  // 10-vertex graph, k = 4) or truncated (n = 12).
  const struct {
    std::size_t line;
    const char* key;
  } rejected[] = {{4, "n: "}, {5, "k: "}, {6, "n: "},
                  {7, "seed: "}, {8, "theorem: "}, {9, "c: "}};
  for (const auto& r : rejected) {
    const std::string& line = out[r.line];
    EXPECT_TRUE(has(line, "\"ok\":0")) << line;
    EXPECT_TRUE(has(line, std::string("\"error\":\"") + r.key)) << line;
  }
  EXPECT_TRUE(has(out[4], "got '4294967306'")) << out[4];
  EXPECT_TRUE(has(out[6], "got '12abc'")) << out[6];

  // A cover radius whose power exponent 2W + 1 overflows 32 bits is
  // rejected by name, and the daemon keeps serving.
  EXPECT_TRUE(has(out[10], "\"ok\":0")) << out[10];
  EXPECT_TRUE(has(out[10], "cover radius")) << out[10];

  // Only the two valid carves reached the service; neither rejected
  // graph was registered.
  EXPECT_TRUE(has(out[11], "\"ok\":1")) << out[11];
  EXPECT_TRUE(has(out[11], "\"requests\":2")) << out[11];
  EXPECT_TRUE(has(out[11], "\"cache_hits\":1")) << out[11];
  EXPECT_TRUE(has(out[11], "\"invalid_responses\":0")) << out[11];
  EXPECT_TRUE(has(out[11], "\"graphs\":1")) << out[11];
}

TEST(DsndServe, RejectsNonPositiveBetaAtTwoThreads) {
  // c * n < 1 makes every Theorem 1 beta = ln(cn)/k negative. The runner
  // rejects the schedule on the caller's thread before any round, so the
  // rejection is an answer, not an exception on an engine worker.
  const std::vector<std::string> out = run_session(
      "graph g family rgg n 5000 seed 1\n"
      "carve g theorem 1 c 0.0001\n"
      "stats\n"
      "quit\n",
      "--threads 2");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(has(out[0], "\"ok\":1")) << out[0];
  EXPECT_TRUE(has(out[1], "\"ok\":0")) << out[1];
  EXPECT_TRUE(has(out[1], "beta")) << out[1];
  EXPECT_TRUE(has(out[2], "\"ok\":1")) << out[2];
  EXPECT_TRUE(has(out[2], "\"requests\":1")) << out[2];
  EXPECT_TRUE(has(out[2], "\"invalid_responses\":0")) << out[2];
}

TEST(DsndServe, HostileInputAndReRegistrationUntilEof) {
  // No `quit`, and no newline after the last command: EOF ends the
  // session, and every line before it is answered.
  const std::vector<std::string> out = run_session(
      "graph\n"
      "graph g family gnp-sparse n 300 seed 1\n"
      "carve g theorem 1 seed\n"
      "frobnicate now\n"
      "graph x family nosuch n 10\n"
      "carve g theorem 1 deliverable nosuch\n"
      "carve g theorem 1 seed 7\n"
      "graph g family gnp-sparse n 5000 seed 2\n"
      "carve g theorem 1 seed 7\n"
      "stats\n"
      "carve g theorem 1 seed 7");
  ASSERT_EQ(out.size(), 11u) << "one answer per command";

  EXPECT_TRUE(has(out[0], "\"ok\":0")) << out[0];
  EXPECT_TRUE(has(out[0], "usage: graph")) << out[0];
  EXPECT_TRUE(has(out[1], "\"n\":300")) << out[1];
  EXPECT_TRUE(has(out[2], "\"ok\":0")) << out[2];
  EXPECT_TRUE(has(out[2], "key/value pairs")) << out[2];
  EXPECT_TRUE(has(out[3], "\"ok\":0")) << out[3];
  EXPECT_TRUE(has(out[3], "unknown command: frobnicate")) << out[3];
  EXPECT_TRUE(has(out[4], "\"ok\":0")) << out[4];
  EXPECT_TRUE(has(out[4], "unknown graph family: nosuch")) << out[4];
  EXPECT_TRUE(has(out[5], "\"ok\":0")) << out[5];
  EXPECT_TRUE(has(out[5], "unknown deliverable: nosuch")) << out[5];

  // ceil(ln 300) = 6 before the re-registration, ceil(ln 5000) = 9 after.
  EXPECT_TRUE(has(out[6], "\"cache_hit\":0")) << out[6];
  EXPECT_TRUE(has(out[6], "\"schedule\":\"theorem1(k=6)\"")) << out[6];
  EXPECT_TRUE(has(out[7], "\"ok\":1")) << out[7];
  EXPECT_TRUE(has(out[7], "\"n\":5000")) << out[7];
  const auto fingerprint = [](const std::string& line) {
    const std::size_t at = line.find("\"fingerprint\":");
    return at == std::string::npos ? std::string() : line.substr(at);
  };
  EXPECT_NE(fingerprint(out[7]), "") << out[7];
  EXPECT_NE(fingerprint(out[7]), fingerprint(out[1]));
  // The same request on the re-registered id is a miss on the new graph.
  EXPECT_TRUE(has(out[8], "\"ok\":1")) << out[8];
  EXPECT_TRUE(has(out[8], "\"cache_hit\":0")) << out[8];
  EXPECT_TRUE(has(out[8], "\"schedule\":\"theorem1(k=9)\"")) << out[8];

  EXPECT_TRUE(has(out[9], "\"requests\":2")) << out[9];
  EXPECT_TRUE(has(out[9], "\"cache_misses\":2")) << out[9];
  EXPECT_TRUE(has(out[9], "\"graphs\":1")) << out[9];
  EXPECT_TRUE(has(out[10], "\"cache_hit\":1")) << out[10];
}

}  // namespace
