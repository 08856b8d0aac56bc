// Figure-harness contract: every cell runs on its own fresh testbed, so the
// simulated numbers of a (node count, series) cell do not depend on the
// order the series run in. A tiny fig1/fig2 sweep runs in legend order and
// in reversed order and must agree field for field.
#include <gtest/gtest.h>

#include <algorithm>

#include "figure_common.hpp"

namespace daosim::bench {
namespace {

void expect_same_cell(const Cell& a, const Cell& b, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.read_gibs, b.read_gibs);
  EXPECT_EQ(a.write_gibs, b.write_gibs);
  EXPECT_EQ(a.read_p50_us, b.read_p50_us);
  EXPECT_EQ(a.read_p99_us, b.read_p99_us);
  EXPECT_EQ(a.write_p50_us, b.write_p50_us);
  EXPECT_EQ(a.write_p99_us, b.write_p99_us);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.write_path.count, b.write_path.count);
  EXPECT_EQ(a.write_path.stages.ns, b.write_path.stages.ns);
  EXPECT_EQ(a.read_path.count, b.read_path.count);
  EXPECT_EQ(a.read_path.stages.ns, b.read_path.stages.ns);
}

class FigureCells : public ::testing::TestWithParam<bool> {};

TEST_P(FigureCells, SweepIsOrderIndependent) {
  const bool file_per_process = GetParam();
  SweepOptions opt;
  opt.node_counts = {1, 2};
  opt.ppn = 4;
  opt.trace_sample = 4;
  const std::vector<Series> legend = paper_series(file_per_process, 1 * kMiB, 4 * kMiB);
  std::vector<Series> reversed = legend;
  std::reverse(reversed.begin(), reversed.end());

  const auto fwd = run_sweep(legend, opt);
  const auto rev = run_sweep(reversed, opt);
  ASSERT_EQ(fwd.size(), opt.node_counts.size());
  ASSERT_EQ(rev.size(), opt.node_counts.size());
  const std::size_t n = legend.size();
  for (std::size_t i = 0; i < opt.node_counts.size(); ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GT(fwd[i][j].write_gibs, 0.0);
      EXPECT_GT(fwd[i][j].read_gibs, 0.0);
      expect_same_cell(fwd[i][j], rev[i][n - 1 - j],
                       strfmt("%u nodes, %s", opt.node_counts[i], legend[j].name.c_str()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, FigureCells, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return std::string(p.param ? "FilePerProcess" : "SharedFile");
                         });

}  // namespace
}  // namespace daosim::bench
