#include "decomposition/partition.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dsnd {
namespace {

TEST(Clustering, StartsUnassigned) {
  Clustering c(5);
  EXPECT_EQ(c.num_vertices(), 5);
  EXPECT_EQ(c.num_clusters(), 0);
  EXPECT_EQ(c.num_colors(), 0);
  EXPECT_FALSE(c.is_complete());
  EXPECT_EQ(c.num_unassigned(), 5);
  EXPECT_EQ(c.cluster_of(3), kNoCluster);
}

TEST(Clustering, AssignAndQuery) {
  Clustering c(4);
  const ClusterId a = c.add_cluster(0, 0);
  const ClusterId b = c.add_cluster(2, 1);
  c.assign(0, a);
  c.assign(1, a);
  c.assign(2, b);
  c.assign(3, b);
  EXPECT_TRUE(c.is_complete());
  EXPECT_EQ(c.num_clusters(), 2);
  EXPECT_EQ(c.num_colors(), 2);
  EXPECT_EQ(c.cluster_of(1), a);
  EXPECT_EQ(c.center_of(b), 2);
  EXPECT_EQ(c.color_of(a), 0);
}

TEST(Clustering, MembersGrouping) {
  Clustering c(5);
  const ClusterId a = c.add_cluster(0, 0);
  const ClusterId b = c.add_cluster(4, 0);
  c.assign(0, a);
  c.assign(2, a);
  c.assign(4, b);
  const ClusterMembers members = c.members_csr();
  ASSERT_EQ(members.num_clusters(), 2);
  const auto span_a = members.of(a);
  EXPECT_EQ(std::vector<VertexId>(span_a.begin(), span_a.end()),
            (std::vector<VertexId>{0, 2}));
  const auto span_b = members.of(b);
  EXPECT_EQ(std::vector<VertexId>(span_b.begin(), span_b.end()),
            (std::vector<VertexId>{4}));
  EXPECT_EQ(members.size_of(a), 2);
  EXPECT_EQ(members.size_of(b), 1);
}

TEST(Clustering, MembersCsrMatchesMembers) {
  Clustering c(7);
  const ClusterId a = c.add_cluster(5, 0);
  const ClusterId b = c.add_cluster(1, 1);
  c.assign(5, a);
  c.assign(0, a);
  c.assign(3, a);
  c.assign(1, b);
  c.assign(6, b);
  // vertices 2 and 4 stay unassigned
  const ClusterMembers csr = c.members_csr();
  ASSERT_EQ(csr.num_clusters(), 2);
  EXPECT_EQ(csr.total_members(), 5);
  // Members come out in increasing vertex order.
  const auto span_a = csr.of(a);
  EXPECT_EQ(std::vector<VertexId>(span_a.begin(), span_a.end()),
            (std::vector<VertexId>{0, 3, 5}));
  const auto span_b = csr.of(b);
  EXPECT_EQ(std::vector<VertexId>(span_b.begin(), span_b.end()),
            (std::vector<VertexId>{1, 6}));
  EXPECT_EQ(csr.size_of(a), 3);
  EXPECT_EQ(csr.size_of(b), 2);
  EXPECT_THROW(csr.of(2), std::invalid_argument);
}

TEST(Clustering, MembersCsrEmptyClustering) {
  const Clustering c(3);  // no clusters yet
  const ClusterMembers csr = c.members_csr();
  EXPECT_EQ(csr.num_clusters(), 0);
  EXPECT_EQ(csr.total_members(), 0);
}

TEST(Clustering, DoubleAssignRejected) {
  Clustering c(2);
  const ClusterId a = c.add_cluster(0, 0);
  c.assign(0, a);
  EXPECT_THROW(c.assign(0, a), std::invalid_argument);
}

TEST(Clustering, RangeChecks) {
  Clustering c(2);
  EXPECT_THROW(c.add_cluster(5, 0), std::invalid_argument);
  EXPECT_THROW(c.add_cluster(0, -1), std::invalid_argument);
  const ClusterId a = c.add_cluster(0, 0);
  EXPECT_THROW(c.assign(7, a), std::invalid_argument);
  EXPECT_THROW(c.assign(1, 9), std::invalid_argument);
  EXPECT_THROW(c.center_of(3), std::invalid_argument);
  EXPECT_THROW(c.color_of(-1), std::invalid_argument);
}

TEST(Clustering, ColorsNeedNotBeContiguousPerCluster) {
  Clustering c(3);
  c.add_cluster(0, 5);
  EXPECT_EQ(c.num_colors(), 6);  // colors 0..5 potentially in play
}

}  // namespace
}  // namespace dsnd
