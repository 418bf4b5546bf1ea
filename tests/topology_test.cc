#include "src/topo/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace clof::topo {
namespace {

TEST(TopologyTest, PaperX86Shape) {
  Topology t = Topology::PaperX86();
  EXPECT_EQ(t.num_cpus(), 96);
  ASSERT_EQ(t.num_levels(), 5);
  EXPECT_EQ(t.level(0).name, "core");
  EXPECT_EQ(t.level(0).num_cohorts, 48);
  EXPECT_EQ(t.level(1).name, "cache");
  EXPECT_EQ(t.level(1).num_cohorts, 16);
  EXPECT_EQ(t.level(2).name, "numa");
  EXPECT_EQ(t.level(2).num_cohorts, 2);
  EXPECT_EQ(t.level(3).name, "package");
  EXPECT_EQ(t.level(3).num_cohorts, 2);
  EXPECT_EQ(t.level(4).name, "system");
  EXPECT_EQ(t.level(4).num_cohorts, 1);
}

TEST(TopologyTest, PaperX86HyperthreadNumbering) {
  // The paper's heatmap numbering: CPU c and c+48 are SMT siblings of the same core.
  Topology t = Topology::PaperX86();
  int core_level = t.LevelIndexByName("core");
  for (int c = 0; c < 48; ++c) {
    EXPECT_EQ(t.CohortOf(c, core_level), t.CohortOf(c + 48, core_level));
  }
  // Cache groups are 3 consecutive cores: CPUs {0,1,2,48,49,50} share L3.
  int cache_level = t.LevelIndexByName("cache");
  EXPECT_EQ(t.CohortOf(0, cache_level), t.CohortOf(2, cache_level));
  EXPECT_EQ(t.CohortOf(0, cache_level), t.CohortOf(50, cache_level));
  EXPECT_NE(t.CohortOf(0, cache_level), t.CohortOf(3, cache_level));
  // Package boundary between core 23 and 24.
  int numa_level = t.LevelIndexByName("numa");
  EXPECT_NE(t.CohortOf(23, numa_level), t.CohortOf(24, numa_level));
  EXPECT_EQ(t.CohortOf(23, numa_level), t.CohortOf(71, numa_level));
}

TEST(TopologyTest, PaperArmShape) {
  Topology t = Topology::PaperArm();
  EXPECT_EQ(t.num_cpus(), 128);
  ASSERT_EQ(t.num_levels(), 4);
  EXPECT_EQ(t.level(0).name, "cache");
  EXPECT_EQ(t.level(0).num_cohorts, 32);
  EXPECT_EQ(t.level(1).name, "numa");
  EXPECT_EQ(t.level(1).num_cohorts, 4);
  EXPECT_EQ(t.level(2).name, "package");
  EXPECT_EQ(t.level(2).num_cohorts, 2);
  EXPECT_EQ(t.level(3).num_cohorts, 1);
}

TEST(TopologyTest, SharingLevel) {
  Topology t = Topology::PaperArm();
  EXPECT_EQ(t.SharingLevel(5, 5), Topology::kSameCpu);
  EXPECT_EQ(t.SharingLevel(0, 1), 0);    // same cache group
  EXPECT_EQ(t.SharingLevel(0, 4), 1);    // same NUMA node
  EXPECT_EQ(t.SharingLevel(0, 33), 2);   // same package
  EXPECT_EQ(t.SharingLevel(0, 64), 3);   // system only
  EXPECT_EQ(t.SharingLevel(64, 0), 3);   // symmetric
}

TEST(TopologyTest, CohortCpus) {
  Topology t = Topology::PaperArm();
  auto cpus = t.CohortCpus(0, 1);  // second cache group
  EXPECT_EQ(cpus, (std::vector<int>{4, 5, 6, 7}));
}

TEST(TopologyTest, FlatTopology) {
  Topology t = Topology::Flat(8);
  EXPECT_EQ(t.num_levels(), 1);
  EXPECT_EQ(t.SharingLevel(0, 7), 0);
}

TEST(TopologyTest, FromSpecRoundTrip) {
  Topology t = Topology::FromSpec("arm128:128;cache=4;numa=32;package=64");
  EXPECT_EQ(t.num_cpus(), 128);
  ASSERT_EQ(t.num_levels(), 4);  // system added automatically
  EXPECT_EQ(t.level(3).name, "system");
  EXPECT_EQ(t.ToSpec(), "arm128:128;cache=4;numa=32;package=64;system=128");
  // The divisor-based spec reproduces PaperArm's structure exactly.
  Topology arm = Topology::PaperArm();
  for (int cpu = 0; cpu < 128; ++cpu) {
    for (int level = 0; level < 4; ++level) {
      EXPECT_EQ(t.CohortOf(cpu, level), arm.CohortOf(cpu, level));
    }
  }
}

TEST(TopologyTest, FromSpecErrors) {
  EXPECT_THROW(Topology::FromSpec("no-colon"), std::invalid_argument);
  EXPECT_THROW(Topology::FromSpec("x:16;a=8;b=4"), std::invalid_argument);  // not increasing
  EXPECT_THROW(Topology::FromSpec("x:16;a"), std::invalid_argument);
}

TEST(TopologyTest, RejectsNonNestingLevels) {
  // Level A groups {0,1}{2,3}; level B groups {1,2}{3,0}: not nested.
  Level a{.name = "a", .cpu_to_cohort = {0, 0, 1, 1}, .num_cohorts = 2};
  Level b{.name = "b", .cpu_to_cohort = {1, 0, 0, 1}, .num_cohorts = 2};
  Level sys{.name = "system", .cpu_to_cohort = {0, 0, 0, 0}, .num_cohorts = 1};
  EXPECT_THROW(Topology("bad", 4, {a, b, sys}), std::invalid_argument);
  // 1024 CPUs: 24-wide NUMA groups straddle the 128-wide packages (CPUs 120..143 share
  // NUMA cohort 5 but split across packages 0 and 1), deep inside the cohort range.
  try {
    Topology::FromSpec("skew1024:1024;cache=4;numa=24;package=128");
    FAIL() << "non-nesting 1024-CPU spec was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "levels 'numa' and 'package' do not nest");
  }
}

TEST(TopologyTest, RejectsMultiCohortTop) {
  Level a{.name = "a", .cpu_to_cohort = {0, 0, 1, 1}, .num_cohorts = 2};
  EXPECT_THROW(Topology("bad", 4, {a}), std::invalid_argument);
}

TEST(TopologyTest, CxlPod1024Shape) {
  Topology t = Topology::CxlPod1024();
  EXPECT_EQ(t.name(), "cxl-pod-1024");
  EXPECT_EQ(t.num_cpus(), 1024);
  ASSERT_EQ(t.num_levels(), 5);
  EXPECT_EQ(t.level(0).name, "cache");
  EXPECT_EQ(t.level(0).num_cohorts, 256);
  EXPECT_EQ(t.level(1).name, "numa");
  EXPECT_EQ(t.level(1).num_cohorts, 32);
  EXPECT_EQ(t.level(2).name, "package");
  EXPECT_EQ(t.level(2).num_cohorts, 8);
  EXPECT_EQ(t.level(3).name, "pod");
  EXPECT_EQ(t.level(3).num_cohorts, 2);
  EXPECT_EQ(t.level(4).name, "system");
  EXPECT_EQ(t.level(4).num_cohorts, 1);
}

TEST(TopologyTest, Dc4LevelShape) {
  Topology t = Topology::Dc4Level();
  EXPECT_EQ(t.name(), "dc-4level");
  EXPECT_EQ(t.num_cpus(), 1024);
  ASSERT_EQ(t.num_levels(), 4);
  EXPECT_EQ(t.level(0).name, "cache");
  EXPECT_EQ(t.level(0).num_cohorts, 128);
  EXPECT_EQ(t.level(1).name, "numa");
  EXPECT_EQ(t.level(1).num_cohorts, 16);
  EXPECT_EQ(t.level(2).name, "pod");
  EXPECT_EQ(t.level(2).num_cohorts, 4);
  EXPECT_EQ(t.level(3).name, "system");
  EXPECT_EQ(t.level(3).num_cohorts, 1);
}

// Every level's cohorts partition the CPU set, and successive levels nest: two CPUs
// sharing a cohort at level i must also share one at every level above i. These are
// the laws the engine's per-level cohort views and the CLoF tree construction rely on.
void ExpectPartitionLaws(const Topology& t) {
  for (int level = 0; level < t.num_levels(); ++level) {
    std::vector<int> seen(static_cast<size_t>(t.num_cpus()), 0);
    for (int cohort = 0; cohort < t.level(level).num_cohorts; ++cohort) {
      std::vector<int> members = t.CohortCpus(level, cohort);
      EXPECT_FALSE(members.empty()) << t.name() << " level " << level << " cohort "
                                    << cohort << " is empty";
      for (int cpu : members) {
        ASSERT_GE(cpu, 0);
        ASSERT_LT(cpu, t.num_cpus());
        ++seen[static_cast<size_t>(cpu)];
        EXPECT_EQ(t.CohortOf(cpu, level), cohort);
      }
    }
    for (int cpu = 0; cpu < t.num_cpus(); ++cpu) {
      EXPECT_EQ(seen[static_cast<size_t>(cpu)], 1)
          << t.name() << " cpu " << cpu << " appears in " << seen[static_cast<size_t>(cpu)]
          << " cohorts of level " << level;
    }
  }
  for (int level = 0; level + 1 < t.num_levels(); ++level) {
    for (int cohort = 0; cohort < t.level(level).num_cohorts; ++cohort) {
      std::vector<int> members = t.CohortCpus(level, cohort);
      int parent = t.CohortOf(members.front(), level + 1);
      for (int cpu : members) {
        EXPECT_EQ(t.CohortOf(cpu, level + 1), parent)
            << t.name() << " level-" << level << " cohort " << cohort
            << " straddles level-" << (level + 1) << " cohorts";
      }
    }
  }
}

TEST(TopologyTest, DataCenterPresetsSatisfyPartitionLaws) {
  ExpectPartitionLaws(Topology::CxlPod1024());
  ExpectPartitionLaws(Topology::Dc4Level());
}

// SharingLevel is an ultrametric over the hierarchy: symmetric, kSameCpu exactly on
// the diagonal, equal to the first level whose cohorts agree, and satisfying the
// strong triangle inequality d(a,c) <= max(d(a,b), d(b,c)). The full 1024^2 pair scan
// also pins the packed-signature fast path to the bottom-up level scan.
void ExpectSharingLevelLaws(const Topology& t) {
  for (int a = 0; a < t.num_cpus(); ++a) {
    for (int b = 0; b < t.num_cpus(); ++b) {
      const int level = t.SharingLevel(a, b);
      ASSERT_EQ(level, t.SharingLevelByScan(a, b))
          << t.name() << ": signature path diverges from the level scan at (" << a << ","
          << b << ")";
      ASSERT_EQ(level, t.SharingLevel(b, a)) << t.name() << " (" << a << "," << b << ")";
      if (a == b) {
        ASSERT_EQ(level, Topology::kSameCpu);
        continue;
      }
      ASSERT_GE(level, 0);
      ASSERT_LT(level, t.num_levels());
      // Lowest shared level: cohorts agree at `level` and disagree everywhere below.
      ASSERT_EQ(t.CohortOf(a, level), t.CohortOf(b, level));
      if (level > 0) {
        ASSERT_NE(t.CohortOf(a, level - 1), t.CohortOf(b, level - 1));
      }
    }
  }
  // Triangle over a strided sample (the full cube is 2^30 triples). The stride is
  // coprime to every cohort size so samples cross cohort boundaries at all levels.
  constexpr int kStride = 37;
  auto dist = [&t](int a, int b) { return t.SharingLevel(a, b); };
  for (int a = 0; a < t.num_cpus(); a += kStride) {
    for (int b = 0; b < t.num_cpus(); b += kStride) {
      for (int c = 0; c < t.num_cpus(); c += kStride) {
        ASSERT_LE(dist(a, c), std::max(dist(a, b), dist(b, c)))
            << t.name() << " triangle (" << a << "," << b << "," << c << ")";
      }
    }
  }
}

TEST(TopologyTest, CxlPod1024SharingLevelLaws) {
  ExpectSharingLevelLaws(Topology::CxlPod1024());
}

TEST(TopologyTest, Dc4LevelSharingLevelLaws) { ExpectSharingLevelLaws(Topology::Dc4Level()); }

TEST(TopologyTest, SignaturePathHandlesNonPowerOfTwoFields) {
  // 96 CPUs with 3/12/48-wide groups: cohort counts 32/8/2 make every packed field a
  // non-power-of-two range, so the signature's bit_width(n-1) packing is exercised off
  // the easy power-of-two diagonal the 1024-CPU presets sit on.
  Topology t = Topology::FromSpec("odd96:96;cache=3;numa=12;package=48");
  ASSERT_EQ(t.num_levels(), 4);  // FromSpec appends the implicit system level
  EXPECT_EQ(t.level(0).num_cohorts, 32);
  EXPECT_EQ(t.level(1).num_cohorts, 8);
  EXPECT_EQ(t.level(2).num_cohorts, 2);
  ExpectPartitionLaws(t);
  ExpectSharingLevelLaws(t);
}

TEST(TopologyTest, SignatureOverflowFallsBackToLevelScan) {
  // 2048 CPUs and ten levels need 11 + (10 + 9 + ... + 1) = 66 signature bits — past
  // the 64-bit budget, so this topology must serve SharingLevel from the level scan.
  // The laws have to hold identically; only the lookup path differs.
  Topology t = Topology::FromSpec(
      "deep2048:2048;l1=2;l2=4;l3=8;l4=16;l5=32;l6=64;l7=128;l8=256;l9=512;l10=1024");
  ASSERT_EQ(t.num_cpus(), 2048);
  ASSERT_EQ(t.num_levels(), 11);
  ExpectPartitionLaws(t);
  for (int a = 0; a < t.num_cpus(); a += 13) {
    for (int b = 0; b < t.num_cpus(); b += 13) {
      const int level = t.SharingLevel(a, b);
      ASSERT_EQ(level, t.SharingLevel(b, a));
      if (a == b) {
        ASSERT_EQ(level, Topology::kSameCpu);
      } else {
        ASSERT_EQ(t.CohortOf(a, level), t.CohortOf(b, level));
        if (level > 0) {
          ASSERT_NE(t.CohortOf(a, level - 1), t.CohortOf(b, level - 1));
        }
      }
    }
  }
}

TEST(HierarchyTest, SelectByName) {
  Topology t = Topology::PaperX86();
  Hierarchy h = Hierarchy::Select(t, {"core", "cache", "numa", "system"});
  EXPECT_EQ(h.depth(), 4);
  EXPECT_EQ(h.NumCohorts(0), 48);
  EXPECT_EQ(h.NumCohorts(3), 1);
  EXPECT_EQ(h.Describe(), "core-cache-numa-system");
  EXPECT_EQ(h.CohortOf(50, 1), t.CohortOf(50, 1));
}

TEST(HierarchyTest, SkippingLevelsIsAllowed) {
  Topology t = Topology::PaperArm();
  Hierarchy h = Hierarchy::Select(t, {"cache", "numa", "system"});  // package skipped
  EXPECT_EQ(h.depth(), 3);
  EXPECT_EQ(h.Describe(), "cache-numa-system");
}

TEST(HierarchyTest, Validation) {
  Topology t = Topology::PaperArm();
  EXPECT_THROW(Hierarchy::Select(t, {"numa", "cache", "system"}), std::invalid_argument);
  EXPECT_THROW(Hierarchy::Select(t, {"cache", "numa"}), std::invalid_argument);  // no root
  EXPECT_THROW(Hierarchy::Select(t, {"l3", "system"}), std::invalid_argument);   // unknown
}

}  // namespace
}  // namespace clof::topo
