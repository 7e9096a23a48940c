// Tests for the prediction store (the generation-keyed frame/plane store).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "kvstore/prediction_store.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::MaterializedFrameAt;
using testing::Snapped;

// Same shape and the same cell values.
bool SameCells(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::equal(a.data(), a.data() + a.numel(), b.data());
}

// Random floats come back snapped to the 2^-20 grid, bit for bit.
TEST(PredictionStoreTest, FrameRoundTrip) {
  PredictionStore store;
  Rng rng(1);
  Tensor frame = Tensor::RandomUniform({4, 6}, &rng, 0.0f, 50.0f);
  store.SyncFrame(2, 100, frame);
  EXPECT_TRUE(store.HasFrame(2, 100));
  auto restored = MaterializedFrameAt(store, 0, 2, 100);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(SameCells(*restored, Snapped(frame)));
  EXPECT_EQ(store.GetValue(2, 100, 3, 5), Snap(frame.at(3, 5)));
}

TEST(PredictionStoreTest, MissingFrameIsNotFound) {
  PredictionStore store;
  EXPECT_FALSE(store.HasFrame(1, 42));
  EXPECT_EQ(MaterializedFrameAt(store, 0, 1, 42).status().code(),
            StatusCode::kNotFound);
}

TEST(PredictionStoreTest, SyncOverwritesInPlace) {
  PredictionStore store;
  store.SyncFrame(1, 7, Tensor::Full({2, 2}, 1.0f));
  store.SyncFrame(1, 7, Tensor::Full({2, 2}, 9.0f));
  EXPECT_FLOAT_EQ(store.GetValue(1, 7, 0, 0), 9.0f);
  EXPECT_EQ(store.NumFramesAt(0), 1);
}

TEST(PredictionStoreTest, ConcurrentReadersSeeConsistentFrames) {
  // The batch query engine reads GetValue and whole frames from many worker
  // threads at once; every reader must observe exactly the synced
  // (snapped) bytes.
  PredictionStore store;
  Rng rng(3);
  std::vector<Tensor> frames;
  for (int64_t t = 0; t < 6; ++t) {
    const Tensor frame = Tensor::RandomUniform({4, 4}, &rng, 0.0f, 10.0f);
    store.SyncFrame(1, t, frame);
    frames.push_back(Snapped(frame));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&store, &frames, &mismatches, w] {
      for (int i = 0; i < 200; ++i) {
        const int64_t t = (i + w) % 6;
        const int64_t r = i % 4, c = (i / 4) % 4;
        if (store.GetValue(1, t, r, c) !=
            frames[static_cast<size_t>(t)].at(r, c)) {
          mismatches.fetch_add(1);
        }
        auto frame = MaterializedFrameAt(store, 0, 1, t);
        if (!frame.ok() ||
            !SameCells(*frame, frames[static_cast<size_t>(t)])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(PredictionStoreTest, ConcurrentReadersAndHasFrameGuard) {
  // HasFrame is the guard the serving pipeline checks before routing a
  // time slot to the query server; it must stay exact while another
  // thread keeps syncing new frames.
  PredictionStore store;
  for (int64_t t = 0; t < 8; t += 2) {
    store.SyncFrame(2, t, Tensor::Full({2, 2}, static_cast<float>(t)));
  }
  std::atomic<bool> failed{false};
  std::thread writer([&store] {
    for (int64_t t = 100; t < 160; ++t) {
      store.SyncFrame(3, t, Tensor::Full({1, 1}, 1.0f));
    }
  });
  std::vector<std::thread> readers;
  for (int w = 0; w < 3; ++w) {
    readers.emplace_back([&store, &failed] {
      for (int i = 0; i < 300; ++i) {
        const int64_t t = i % 8;
        const bool synced = (t % 2 == 0);
        if (store.HasFrame(2, t) != synced) failed.store(true);
        if (!synced && MaterializedFrameAt(store, 0, 2, t).status().code() !=
                           StatusCode::kNotFound) {
          failed.store(true);
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_FALSE(failed.load());
  for (int64_t t = 100; t < 160; ++t) EXPECT_TRUE(store.HasFrame(3, t));
}

TEST(PredictionStoreTest, FramesAccountedPerGeneration) {
  PredictionStore store;
  for (int64_t t = 0; t < 5; ++t) {
    store.SyncFrame(1, t, Tensor({2, 2}));
    store.SyncFrame(2, t, Tensor({1, 1}));
  }
  EXPECT_EQ(store.NumFramesAt(0), 10);
  for (int64_t t = 0; t < 5; ++t) {
    EXPECT_TRUE(store.HasFrame(1, t));
    EXPECT_TRUE(store.HasFrame(2, t));
  }
}

TEST(PredictionStoreTest, TryGetValueDegradesToStatus) {
  PredictionStore store;
  EXPECT_EQ(store.TryGetValue(1, 9, 0, 0).status().code(),
            StatusCode::kNotFound);
  store.SyncFrame(1, 9, Tensor::Full({2, 3}, 4.0f));
  auto value = store.TryGetValue(1, 9, 1, 2);
  ASSERT_TRUE(value.ok());
  EXPECT_FLOAT_EQ(*value, 4.0f);
  EXPECT_EQ(store.TryGetValue(1, 9, 2, 0).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(store.TryGetValue(1, 9, 0, -1).status().code(),
            StatusCode::kOutOfRange);
}

TEST(PredictionStoreTest, GenerationsAreIsolated) {
  // A frame staged under a shadow generation must be invisible to readers
  // of the published generation, and vice versa — the invariant the epoch
  // manager's atomic publication is built on.
  PredictionStore store;
  store.SyncFrameAt(1, 1, 0, Tensor::Full({2, 2}, 1.0f));
  store.SyncFrameAt(2, 1, 0, Tensor::Full({2, 2}, 2.0f));
  EXPECT_FALSE(store.HasFrame(1, 0));
  EXPECT_TRUE(store.HasFrameAt(1, 1, 0));
  EXPECT_TRUE(store.HasFrameAt(2, 1, 0));
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(1, 1, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(2, 1, 0, 0, 0), 2.0f);
}

TEST(PredictionStoreTest, CopyAndDropGeneration) {
  PredictionStore store;
  for (int64_t t = 0; t < 3; ++t) {
    store.SyncFrameAt(5, 1, t, Tensor::Full({2, 2}, static_cast<float>(t)));
    store.SyncFrameAt(5, 2, t, Tensor::Full({1, 1}, static_cast<float>(t)));
  }
  EXPECT_EQ(store.CopyGeneration(5, 6), 6);
  EXPECT_EQ(store.NumFramesAt(6), 6);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(6, 1, 2, 0, 1), 2.0f);
  // Overwriting the copy must not leak back into the source generation.
  store.SyncFrameAt(6, 1, 2, Tensor::Full({2, 2}, 99.0f));
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(5, 1, 2, 0, 1), 2.0f);
  EXPECT_EQ(store.DropGeneration(5), 6);
  EXPECT_EQ(store.NumFramesAt(5), 0);
  EXPECT_EQ(store.NumFramesAt(6), 6);
  EXPECT_EQ(store.TryGetValueAt(5, 1, 0, 0, 0).status().code(),
            StatusCode::kNotFound);
}

TEST(PredictionStoreTest, DeltaStagingAliasesCleanTiles) {
  PredictionStore store;
  Rng rng(11);
  Tensor base = Tensor::RandomUniform({64, 64}, &rng, 0.0f, 5.0f);
  ASSERT_TRUE(store.TrySyncFrameAt(1, 1, 0, base).ok());

  Tensor next = base;  // one cell changes, in tile (0, 0)
  next.data()[3 * 64 + 7] += 1.0f;
  TileDirtySet dirty(64, 64);
  dirty.MarkCell(3, 7);
  PredictionStore::StageStats stats;
  ASSERT_TRUE(
      store.TrySyncFrameDeltaAt(1, 1, 1, next, 0, dirty, &stats).ok());
  EXPECT_EQ(stats.frame_tiles_total, 4);
  EXPECT_EQ(stats.frame_tiles_shared, 3);

  // Values are exactly the staged frame's, snapped; clean tiles alias
  // the base's blocks, the dirty one does not.
  auto restored = MaterializedFrameAt(store, 1, 1, 1);
  ASSERT_TRUE(restored.ok());
  const Tensor snapped = Snapped(next);
  for (int64_t r = 0; r < 64; ++r) {
    for (int64_t c = 0; c < 64; ++c) {
      ASSERT_EQ(restored->at(r, c), snapped.at(r, c)) << r << "," << c;
    }
  }
  auto t0 = store.GetTiledFrameAt(1, 1, 0);
  auto t1 = store.GetTiledFrameAt(1, 1, 1);
  ASSERT_TRUE(t0.ok() && t1.ok());
  EXPECT_FALSE((*t1)->SharesBlockWith(**t0, 0, 0));
  EXPECT_TRUE((*t1)->SharesBlockWith(**t0, 0, 1));
  EXPECT_TRUE((*t1)->SharesBlockWith(**t0, 1, 0));
  EXPECT_TRUE((*t1)->SharesBlockWith(**t0, 1, 1));

  auto recorded = store.GetDirtyAt(1, 1, 1);
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->CountDirty(), 1);
  EXPECT_TRUE(recorded->dirty(0, 0));
}

TEST(PredictionStoreTest, DeltaStagingFallsBackWithoutBase) {
  // A delta stage whose base timestep is absent must degrade to a full
  // fresh write — identical values, no aliasing, never an error.
  PredictionStore store;
  Tensor frame = Tensor::Full({40, 40}, 2.0f);
  TileDirtySet dirty(40, 40);
  dirty.MarkCell(0, 0);
  PredictionStore::StageStats stats;
  ASSERT_TRUE(
      store.TrySyncFrameDeltaAt(3, 1, 5, frame, 4, dirty, &stats).ok());
  EXPECT_EQ(stats.frame_tiles_shared, 0);
  auto restored = MaterializedFrameAt(store, 3, 1, 5);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->AllClose(frame));
}

TEST(PredictionStoreTest, DeltaPlaneBuildBitIdenticalToFull) {
  // The incremental plane (clean locals aliased, dirty rebuilt, carries
  // fixed up) must be bit-identical to a from-scratch build of the same
  // frame — the parity CopyGeneration/publish bit-exactness rests on.
  PredictionStore incremental;
  PredictionStore fresh;
  Rng rng(17);
  Tensor base = Tensor::RandomUniform({70, 90}, &rng, 0.0f, 9.0f);
  Tensor next = base;
  for (int64_t r = 33; r < 37; ++r) {
    for (int64_t c = 60; c < 70; ++c) next.data()[r * 90 + c] += 0.5f;
  }
  TileDirtySet dirty(70, 90);
  dirty.MarkRect(33, 60, 37, 70);

  ASSERT_TRUE(incremental.TrySyncFrameAt(1, 1, 0, base).ok());
  PredictionStore::StageStats stats;
  ASSERT_TRUE(
      incremental.TrySyncFrameDeltaAt(1, 1, 1, next, 0, dirty, &stats).ok());
  EXPECT_GT(stats.plane_tiles_reused, 0);

  ASSERT_TRUE(fresh.TrySyncFrameAt(1, 1, 1, next).ok());

  auto a = incremental.GetTiledSatPlaneAt(1, 1, 1);
  auto b = fresh.GetTiledSatPlaneAt(1, 1, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int64_t r = 0; r <= 70; ++r) {
    for (int64_t c = 0; c <= 90; ++c) {
      ASSERT_EQ((*a)->PrefixAt(r, c), (*b)->PrefixAt(r, c))
          << "prefix mismatch at " << r << "," << c;
    }
  }
}

TEST(PredictionStoreTest, CopyGenerationSharesTileBlocks) {
  // Carry-forward is pointer aliasing: the copied generation's frames
  // share every tile block with the source until something overwrites.
  PredictionStore store;
  Rng rng(23);
  Tensor frame = Tensor::RandomUniform({64, 64}, &rng, 0.0f, 3.0f);
  ASSERT_TRUE(store.TrySyncFrameAt(1, 1, 0, frame).ok());
  EXPECT_EQ(store.CopyGeneration(1, 2), 1);
  auto src = store.GetTiledFrameAt(1, 1, 0);
  auto dst = store.GetTiledFrameAt(2, 1, 0);
  ASSERT_TRUE(src.ok() && dst.ok());
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      EXPECT_TRUE((*dst)->SharesBlockWith(**src, i, j));
    }
  }
  // Dropping the source must leave the copy fully readable (refcounts,
  // not ownership, keep blocks alive).
  EXPECT_EQ(store.DropGeneration(1), 1);
  auto restored = MaterializedFrameAt(store, 2, 1, 0);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(SameCells(*restored, Snapped(frame)));
}

// Both write paths refuse a frame whose sums could round — a NaN or
// infinite cell, an absolute sum past the ceiling, or a cell too large
// to snap — with a Status, and store nothing: the entry a refused write
// targets keeps its previous frame and plane.
TEST(PredictionStoreTest, TrySyncRefusesNonFiniteAndOverCeilingFrames) {
  const Tensor good = Tensor::Full({40, 40}, 3.0f);
  Tensor over_ceiling = good;  // 1600 cells of 2^18: ~1.56x the ceiling
  over_ceiling.Fill(0x1p18f);
  Tensor huge_cell = good;
  huge_cell.at(5, 5) = 0x1p31f;
  std::vector<Tensor> bad = {over_ceiling, huge_cell};
  for (float cell : {std::numeric_limits<float>::quiet_NaN(),
                     std::numeric_limits<float>::infinity(),
                     -std::numeric_limits<float>::infinity()}) {
    Tensor frame = good;
    frame.at(39, 39) = cell;  // the last cell of the last tile
    bad.push_back(frame);
  }
  // Just under the ceiling is accepted.
  Tensor at_ceiling = good;
  at_ceiling.Fill(static_cast<float>(kMaxFrameAbsSum / 1600));
  PredictionStore store;
  ASSERT_TRUE(store.TrySyncFrameAt(1, 1, 9, at_ceiling).ok());

  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("frame " + std::to_string(i));
    ASSERT_TRUE(store.TrySyncFrameAt(1, 1, 0, good).ok());
    auto kept = store.GetStoredFrameAt(1, 1, 0);
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(store.TrySyncFrameAt(1, 1, 0, bad[i]).code(),
              StatusCode::kInvalidArgument);
    TileDirtySet dirty = DiffFrames(bad[i], good);
    EXPECT_EQ(store.TrySyncFrameDeltaAt(1, 1, 1, bad[i], 0, dirty).code(),
              StatusCode::kInvalidArgument);
    // Nothing stored: t=0 still holds `good` and its plane, t=1 nothing.
    EXPECT_FALSE(store.HasFrameAt(1, 1, 1));
    auto stored = store.GetStoredFrameAt(1, 1, 0);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(stored->frame, kept->frame);
    EXPECT_EQ(stored->plane, kept->plane);
    auto restored = MaterializedFrameAt(store, 1, 1, 0);
    ASSERT_TRUE(restored.ok());
    EXPECT_TRUE(SameCells(*restored, good));
  }
  EXPECT_EQ(store.NumFramesAt(1), 2);  // t=0 and the at-ceiling t=9
}

}  // namespace
}  // namespace one4all
