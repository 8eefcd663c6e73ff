// A scripted dsnd_serve session, driven through the real binary over
// stdin/stdout: register a graph, carve, hit the cache with the identical
// request, and check that retired or malformed input answers {"ok":0}
// with an error naming the offending key — the `backend` option is
// gone, and integers are never silently narrowed or truncated — while
// the daemon keeps serving until `quit`.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

/// Runs dsnd_serve on `script` and returns its stdout lines.
std::vector<std::string> run_session(const std::string& script) {
  const std::string path = ::testing::TempDir() + "dsnd_serve_session_" +
                           std::to_string(getpid()) + ".txt";
  std::ofstream(path) << script;
  const std::string command =
      std::string("'") + DSND_SERVE_PATH + "' < '" + path + "'";
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
  EXPECT_EQ(pclose(pipe), 0) << "dsnd_serve must exit 0 on quit";
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
      "stats\n"
      "quit\n"
      "carve g theorem 1 seed 8\n");
  ASSERT_EQ(out.size(), 11u) << "one answer per command, none after quit";

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

  // Only the two valid carves reached the service; neither rejected
  // graph was registered.
  EXPECT_TRUE(has(out[10], "\"ok\":1")) << out[10];
  EXPECT_TRUE(has(out[10], "\"requests\":2")) << out[10];
  EXPECT_TRUE(has(out[10], "\"cache_hits\":1")) << out[10];
  EXPECT_TRUE(has(out[10], "\"invalid_responses\":0")) << out[10];
  EXPECT_TRUE(has(out[10], "\"graphs\":1")) << out[10];
}

}  // namespace
