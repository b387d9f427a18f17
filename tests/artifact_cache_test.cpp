// Tests for the content-keyed artifact cache and the serialized
// artifact formats it stores: memory/disk tiers, corruption tolerance,
// key invalidation, exact round trips, and cache reuse through the
// Pipeline.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "cobayn/cobayn.hpp"
#include "dse/dse.hpp"
#include "kernels/registry.hpp"
#include "kernels/sources.hpp"
#include "socrates/pipeline.hpp"
#include "support/artifact_cache.hpp"
#include "support/error.hpp"

namespace socrates {
namespace {

namespace fs = std::filesystem;

const platform::PerformanceModel& model() {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  return kModel;
}

/// A per-test on-disk cache directory, removed on teardown.
class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("socrates_cache_test." + std::to_string(::getpid()) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST(ArtifactCacheMemory, StoreThenLoadHits) {
  ArtifactCache cache;  // memory-only
  EXPECT_FALSE(cache.load(42, "thing").has_value());
  cache.store(42, "thing", "payload");
  const auto hit = cache.load(42, "thing");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload");
  EXPECT_FALSE(cache.load(43, "thing").has_value());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.memory_hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST_F(DiskCacheTest, SurvivesMemoryDropViaDiskTier) {
  ArtifactCache cache(dir_.string());
  cache.store(7, "dse-profile", "the artifact body");
  cache.clear_memory();
  const auto hit = cache.load(7, "dse-profile");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "the artifact body");
  EXPECT_EQ(cache.stats().disk_hits, 1u);

  // A second cache instance on the same directory (a later process)
  // sees the artifact too.
  ArtifactCache other(dir_.string());
  const auto cross = other.load(7, "dse-profile");
  ASSERT_TRUE(cross.has_value());
  EXPECT_EQ(*cross, "the artifact body");
}

TEST_F(DiskCacheTest, CorruptedDiskFileIsAMissNotAnError) {
  ArtifactCache cache(dir_.string());
  cache.store(9, "cobayn-model", "good payload");
  cache.clear_memory();

  // Scribble over every stored file: checksum validation must turn the
  // damage into a plain miss.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "vandalized";
  }
  EXPECT_FALSE(cache.load(9, "cobayn-model").has_value());

  // Truncated-to-empty files as well.
  cache.store(9, "cobayn-model", "good payload");
  cache.clear_memory();
  for (const auto& entry : fs::directory_iterator(dir_))
    std::ofstream(entry.path(), std::ios::trunc);
  EXPECT_FALSE(cache.load(9, "cobayn-model").has_value());
}

TEST_F(DiskCacheTest, TruncatedPayloadIsAMissAndAStoreRepairsIt) {
  // Simulate a writer that died mid-payload *after* the header went out
  // (the failure mode the tmp+rename publish protects against): the
  // header promises more bytes than the file holds.
  ArtifactCache cache(dir_.string());
  cache.store(11, "dse-profile", "twelve bytes!");
  cache.clear_memory();

  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string header;
    std::getline(in, header);
    in.close();
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << header << "\ntwelve";  // half the promised payload
  }
  EXPECT_FALSE(cache.load(11, "dse-profile").has_value());

  // Re-storing replaces the damaged file and the next load hits disk.
  cache.store(11, "dse-profile", "twelve bytes!");
  cache.clear_memory();
  const auto hit = cache.load(11, "dse-profile");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "twelve bytes!");
}

TEST_F(DiskCacheTest, LeftoverTempFilesAreHarmless) {
  // A crashed writer leaves its per-pid temp file behind; loads must
  // ignore it and later stores must still publish the real name.
  ArtifactCache cache(dir_.string());
  cache.store(13, "cobayn-model", "real");
  std::ofstream(dir_ / "cobayn-model-d.artifact.tmp.99999") << "garbage";

  cache.clear_memory();
  const auto hit = cache.load(13, "cobayn-model");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "real");
}

TEST(ArtifactCacheDegraded, UnwritableDiskDirFallsBackToMemory) {
  // Point the disk tier at a path whose parent is a regular file:
  // create_directories must fail (even for root, unlike a chmod), and
  // the cache must degrade to the memory tier with a warning, not crash.
  const fs::path blocker = fs::temp_directory_path() /
                           ("socrates_cache_blocker." + std::to_string(::getpid()));
  std::ofstream(blocker) << "not a directory";
  ArtifactCache cache((blocker / "sub").string());
  cache.store(17, "dse-profile", "memory only");
  const auto hit = cache.load(17, "dse-profile");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "memory only");

  cache.clear_memory();
  EXPECT_FALSE(cache.load(17, "dse-profile").has_value());  // disk never happened
  fs::remove(blocker);
}

// ---- Artifact keys --------------------------------------------------------------

TEST(ArtifactKeys, CobaynKeyTracksEveryInput) {
  const cobayn::TrainOptions train;
  const auto base = cobayn_artifact_key(model(), 48, 2018, train);
  EXPECT_EQ(cobayn_artifact_key(model(), 48, 2018, train), base);

  EXPECT_NE(cobayn_artifact_key(model(), 32, 2018, train), base);
  EXPECT_NE(cobayn_artifact_key(model(), 48, 2019, train), base);

  cobayn::TrainOptions other = train;
  other.feature_bins = train.feature_bins + 1;
  EXPECT_NE(cobayn_artifact_key(model(), 48, 2018, other), base);

  // Bumping the stage version invalidates previously stored artifacts.
  EXPECT_NE(cobayn_artifact_key(model(), 48, 2018, train, kCobaynStageVersion + 1),
            base);
}

TEST(ArtifactKeys, DseKeyTracksEveryInput) {
  const auto space = dse::DesignSpace::paper_space(model().topology());
  const auto& bench = kernels::find_benchmark("2mm");
  const std::string source = kernels::benchmark_source("2mm");
  const dse::FullFactorialExplorer full;

  const auto base =
      dse_artifact_key(model(), source, bench.model, space, 5, 2018, 1.0, full);
  EXPECT_EQ(dse_artifact_key(model(), source, bench.model, space, 5, 2018, 1.0, full),
            base);

  EXPECT_NE(
      dse_artifact_key(model(), source + "\n", bench.model, space, 5, 2018, 1.0, full),
      base);
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, space, 4, 2018, 1.0, full),
            base);
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, space, 5, 2019, 1.0, full),
            base);
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, space, 5, 2018, 1.5, full),
            base);
  EXPECT_NE(dse_artifact_key(model(), source, bench.model, space, 5, 2018, 1.0, full,
                             kDseStageVersion + 1),
            base);

  auto narrower = space;
  narrower.thread_counts.pop_back();
  EXPECT_NE(
      dse_artifact_key(model(), source, bench.model, narrower, 5, 2018, 1.0, full),
      base);
}

// ---- Serialized artifact formats ------------------------------------------------

TEST(ArtifactFormats, ProfileRoundTripsExactly) {
  const auto space = dse::DesignSpace::paper_space(model().topology());
  const auto points = dse::full_factorial_dse(
      model(), kernels::find_benchmark("mvt").model, space, 2, 11);

  const std::string first = dse::save_profile(points);
  const auto reloaded = dse::load_profile(first);
  ASSERT_EQ(reloaded.size(), points.size());
  EXPECT_EQ(dse::save_profile(reloaded), first);  // hexfloat: exact round trip

  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(reloaded[i].config_index, points[i].config_index);
    EXPECT_EQ(reloaded[i].config_name, points[i].config_name);
    EXPECT_EQ(reloaded[i].configuration.threads, points[i].configuration.threads);
    EXPECT_EQ(reloaded[i].exec_time_mean_s, points[i].exec_time_mean_s);
    EXPECT_EQ(reloaded[i].power_mean_w, points[i].power_mean_w);
  }
}

TEST(ArtifactFormats, MalformedProfileThrows) {
  for (const char* bad :
       {"", "profile v2 1", "profile v1 notanumber", "profile v1 1\n0 cfg 9 0 1 0",
        // Counts the payload cannot hold (once length_error / bad_alloc).
        "profile v1 18446744073709551615", "profile v1 4000000000",
        "profile v1 18446744073709551616", "profile v1 2\n0 O3 3 0 1 0 0x1p+0 0 0x1p+0 0",
        // Signed or out-of-range integer fields.
        "profile v1 -1", "profile v1 +1\n0 O3 3 0 1 0 0x1p+0 0 0x1p+0 0",
        "profile v1 1\n-1 O3 3 0 1 0 0x1p+0 0 0x1p+0 0",
        "profile v1 1\n0 O3 -3 0 1 0 0x1p+0 0 0x1p+0 0",
        "profile v1 1\n0 O3 3 64 1 0 0x1p+0 0 0x1p+0 0",
        "profile v1 1\n0 O3 3 0 -1 0 0x1p+0 0 0x1p+0 0",
        "profile v1 1\n0 O3 3 0 1 2 0x1p+0 0 0x1p+0 0",
        "profile v1 1\n0 O3 3 0 1 -0 0x1p+0 0 0x1p+0 0",
        "profile v1 1\n0 O3 3 0 18446744073709551616 0 0x1p+0 0 0x1p+0 0",
        "profile v1 1\n0 O3 3 0 1 0 0x1p+0 0 0x1p+0",
        "profile v1 1\n0 O3 3 0 1 0 0x1p+0 0 zz 0"}) {
    EXPECT_THROW(dse::load_profile(bad), ContractViolation) << bad;
  }
}

TEST(ArtifactFormats, ProfileSpecialDoublesRoundTrip) {
  // Writer and reader share one grammar: negative zero, a denormal and
  // an infinity survive save -> load -> save bit for bit.
  dse::ProfiledPoint p;
  p.config_index = 3;
  p.config_name = "O3";
  p.configuration.flags = platform::FlagConfig(platform::OptLevel::kO3, 5);
  p.configuration.threads = 7;
  p.configuration.binding = platform::BindingPolicy::kSpread;
  p.exec_time_mean_s = 1.5;
  p.exec_time_stddev_s = -0.0;
  p.power_mean_w = 80.0;
  p.power_stddev_w = std::numeric_limits<double>::denorm_min() * 3;
  dse::ProfiledPoint q = p;
  q.exec_time_stddev_s = std::numeric_limits<double>::infinity();
  q.power_stddev_w = -std::numeric_limits<double>::infinity();

  const std::string text = dse::save_profile({p, q});
  const auto back = dse::load_profile(text);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(dse::save_profile(back), text);
  EXPECT_TRUE(std::signbit(back[0].exec_time_stddev_s));
  EXPECT_EQ(back[0].exec_time_stddev_s, 0.0);
  EXPECT_EQ(back[0].power_stddev_w, p.power_stddev_w);
  EXPECT_EQ(back[1].exec_time_stddev_s, q.exec_time_stddev_s);
  EXPECT_EQ(back[1].power_stddev_w, q.power_stddev_w);
  EXPECT_EQ(back[1].configuration.flags.flag_bits(), 5u);
  EXPECT_EQ(back[1].configuration.threads, 7u);
  EXPECT_EQ(back[1].configuration.binding, platform::BindingPolicy::kSpread);
}

TEST(ArtifactFormats, CobaynModelRoundTripsExactly) {
  const auto corpus = cobayn::make_corpus(20, 3);
  const auto trained = cobayn::CobaynModel::train(corpus, model());

  std::ostringstream first;
  trained.save(first);
  std::istringstream in(first.str());
  const auto reloaded = cobayn::CobaynModel::load(in);
  EXPECT_EQ(reloaded.training_rows(), trained.training_rows());
  std::ostringstream second;
  reloaded.save(second);
  EXPECT_EQ(second.str(), first.str());

  // The reloaded model predicts exactly what the trained one does.
  const auto fv =
      cobayn::kernel_features_of_source(kernels::benchmark_source("atax"));
  const auto a = trained.predict(fv, 4);
  const auto b = reloaded.predict(fv, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].config.flag_bits(), b[i].config.flag_bits());
    EXPECT_EQ(a[i].probability, b[i].probability);
  }
}

TEST(ArtifactFormats, MalformedCobaynModelThrows) {
  for (const char* bad : {"", "not a model", "cobayn v2 0 0", "cobayn v1 10 5"}) {
    std::istringstream in(bad);
    EXPECT_THROW(cobayn::CobaynModel::load(in), ContractViolation) << bad;
  }
}

// ---- Cache reuse through the Pipeline -------------------------------------------

ToolchainOptions small_options() {
  ToolchainOptions opts;
  opts.corpus_size = 16;
  opts.dse_repetitions = 2;
  opts.jobs = 2;
  return opts;
}

TEST(PipelineCache, SecondBuildHitsBothExpensiveStages) {
  ArtifactCache cache;
  Pipeline pipeline(model(), small_options(), &cache);

  const auto cold = pipeline.build("gemm");
  const auto* cold_dse = pipeline.last_report().stage("Dse");
  ASSERT_NE(cold_dse, nullptr);
  EXPECT_FALSE(cold_dse->cache_hit);

  const auto warm = pipeline.build("gemm");
  const auto* warm_dse = pipeline.last_report().stage("Dse");
  const auto* warm_cobayn = pipeline.last_report().stage("CobaynPredict");
  ASSERT_NE(warm_dse, nullptr);
  ASSERT_NE(warm_cobayn, nullptr);
  EXPECT_TRUE(warm_dse->cache_hit);
  EXPECT_TRUE(warm_cobayn->cache_hit);

  // The cached profile is the recomputed profile, byte for byte.
  EXPECT_EQ(dse::save_profile(warm.profile), dse::save_profile(cold.profile));
}

TEST(PipelineCache, FreshPipelineReusesASharedCache) {
  ArtifactCache cache;
  Pipeline first(model(), small_options(), &cache);
  const auto cold = first.build("bicg");

  // A second pipeline (another driver in the same process) on the same
  // cache: both the model and the profile come from artifacts.
  Pipeline second(model(), small_options(), &cache);
  const auto warm = second.build("bicg");
  EXPECT_TRUE(second.last_report().stage("Dse")->cache_hit);
  EXPECT_TRUE(second.last_report().stage("CobaynPredict")->cache_hit);

  EXPECT_EQ(dse::save_profile(warm.profile), dse::save_profile(cold.profile));
}

TEST(PipelineCache, DifferentWorkScaleOrSeedMissesTheCache) {
  ArtifactCache cache;
  Pipeline pipeline(model(), small_options(), &cache);
  pipeline.build("syrk");

  // Same benchmark at another dataset scale: the DSE key changes.
  pipeline.build("syrk", 1.5);
  EXPECT_FALSE(pipeline.last_report().stage("Dse")->cache_hit);

  // Another pipeline with a different master seed: both keys change.
  auto opts = small_options();
  opts.seed = 4242;
  Pipeline reseeded(model(), opts, &cache);
  reseeded.build("syrk");
  EXPECT_FALSE(reseeded.last_report().stage("Dse")->cache_hit);
  EXPECT_FALSE(reseeded.last_report().stage("CobaynPredict")->cache_hit);
}

TEST(PipelineCache, ProfileSpaceWarmCallReplaysTheColdSweep) {
  ArtifactCache cache;
  Pipeline pipeline(model(), small_options(), &cache);
  const auto space = dse::DesignSpace::paper_space(model().topology());

  const auto cold = pipeline.profile_space("atax", space, 2, 31);
  ASSERT_NE(pipeline.last_report().stage("Dse"), nullptr);
  EXPECT_FALSE(pipeline.last_report().stage("Dse")->cache_hit);

  const auto warm = pipeline.profile_space("atax", space, 2, 31);
  const auto* warm_dse = pipeline.last_report().stage("Dse");
  ASSERT_NE(warm_dse, nullptr);
  EXPECT_TRUE(warm_dse->cache_hit);

  EXPECT_EQ(dse::save_profile(warm), dse::save_profile(cold));

  // The points are the full sweep's, not a pipeline-specific variant.
  EXPECT_EQ(dse::save_profile(cold),
            dse::save_profile(dse::full_factorial_dse(
                model(), kernels::find_benchmark("atax").model, space, 2, 31)));
}

TEST(PipelineCache, UnusableStoredArtifactTriggersRecomputeNotCrash) {
  ArtifactCache cache;
  const auto opts = small_options();

  // Plant garbage under the exact keys the pipeline will compute.  The
  // payloads parse as neither a model nor a profile; the stages must
  // fall back to recomputation.
  cobayn::TrainOptions train;
  cache.store(cobayn_artifact_key(model(), opts.corpus_size, opts.seed, train),
              "cobayn-model", "cobayn v1 oops");

  Pipeline pipeline(model(), opts, &cache);
  const auto binary = pipeline.build("3mm");
  EXPECT_FALSE(pipeline.last_report().stage("CobaynPredict")->cache_hit);
  EXPECT_EQ(binary.profile.size(), binary.space.size());
  EXPECT_TRUE(pipeline.cobayn_ready());
}

}  // namespace
}  // namespace socrates
