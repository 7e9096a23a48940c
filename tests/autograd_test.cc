// Gradient checks: every differentiable op is verified against central
// finite differences through the shared CheckGradients helper.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "tensor/autograd.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::CheckGradients;

Variable Param(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  return Variable(Tensor::RandomNormal(std::move(shape), &rng),
                  /*requires_grad=*/true);
}

TEST(AutogradTest, BackwardRequiresScalar) {
  Variable v(Tensor({2, 2}), true);
  EXPECT_DEATH(v.Backward(), "numel");
}

TEST(AutogradTest, AddGradientIsOne) {
  Variable a = Param({3}, 1);
  Variable b = Param({3}, 2);
  Variable loss = SumAll(Add(a, b));
  loss.Backward();
  EXPECT_TRUE(a.grad().AllClose(Tensor::Ones({3})));
  EXPECT_TRUE(b.grad().AllClose(Tensor::Ones({3})));
}

TEST(AutogradTest, SubGradientSigns) {
  Variable a = Param({3}, 1);
  Variable b = Param({3}, 2);
  SumAll(Sub(a, b)).Backward();
  EXPECT_TRUE(a.grad().AllClose(Tensor::Ones({3})));
  EXPECT_TRUE(b.grad().AllClose(Tensor::Full({3}, -1.0f)));
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  Variable a = Param({2}, 3);
  // loss = sum(a) + sum(a) -> grad = 2.
  SumAll(Add(a, a)).Backward();
  EXPECT_TRUE(a.grad().AllClose(Tensor::Full({2}, 2.0f)));
}

TEST(AutogradTest, ZeroGradClears) {
  Variable a = Param({2}, 4);
  SumAll(a).Backward();
  EXPECT_TRUE(a.grad().AllClose(Tensor::Ones({2})));
  a.ZeroGrad();
  EXPECT_TRUE(a.grad().AllClose(Tensor({2})));
}

TEST(AutogradTest, MulFiniteDifference) {
  Variable a = Param({4}, 5);
  Variable b = Param({4}, 6);
  CheckGradients([&] { return SumAll(Mul(a, b)); }, {a, b});
}

TEST(AutogradTest, ScaleFiniteDifference) {
  Variable a = Param({5}, 7);
  CheckGradients([&] { return SumAll(Scale(a, -2.5f)); }, {a});
}

TEST(AutogradTest, ReluFiniteDifference) {
  Variable a = Param({8}, 8);
  CheckGradients([&] { return SumAll(Relu(a)); }, {a});
}

TEST(AutogradTest, SigmoidFiniteDifference) {
  Variable a = Param({6}, 9);
  CheckGradients([&] { return SumAll(Sigmoid(a)); }, {a});
}

TEST(AutogradTest, TanhFiniteDifference) {
  Variable a = Param({6}, 10);
  CheckGradients([&] { return SumAll(Tanh(a)); }, {a});
}

TEST(AutogradTest, MatMulFiniteDifference) {
  Variable a = Param({3, 4}, 11);
  Variable b = Param({4, 2}, 12);
  CheckGradients([&] { return SumAll(MatMulVar(a, b)); }, {a, b});
}

TEST(AutogradTest, MatMulTransBFiniteDifference) {
  Variable a = Param({3, 4}, 13);
  Variable b = Param({5, 4}, 14);
  CheckGradients([&] { return SumAll(MatMulTransBVar(a, b)); }, {a, b});
}

TEST(AutogradTest, LinearFiniteDifference) {
  Variable x = Param({2, 3}, 15);
  Variable w = Param({3, 4}, 16);
  Variable b = Param({4}, 17);
  CheckGradients([&] { return SumAll(LinearVar(x, w, b)); }, {x, w, b});
}

// Builds an MSE-like scalar from a conv output (keeps gradients bounded).
Variable ConvSquareLoss(const Variable& x, const Variable& w,
                        const Variable& b, const Conv2dSpec& spec) {
  Variable y = Conv2dVar(x, w, b, spec);
  return MeanAll(Mul(y, y));
}

TEST(AutogradTest, Conv2dFiniteDifference) {
  Variable x = Param({2, 2, 5, 5}, 18);
  Variable w = Param({3, 2, 3, 3}, 19);
  Variable b = Param({3}, 20);
  Conv2dSpec spec{1, 1};
  CheckGradients([&] { return ConvSquareLoss(x, w, b, spec); }, {x, w, b});
}

TEST(AutogradTest, StridedConvFiniteDifference) {
  Variable x = Param({1, 2, 6, 6}, 21);
  Variable w = Param({2, 2, 2, 2}, 22);
  Conv2dSpec spec{2, 0};
  CheckGradients(
      [&] { return MeanAll(Mul(Conv2dVar(x, w, Variable(), spec),
                               Conv2dVar(x, w, Variable(), spec))); },
      {x, w});
}

TEST(AutogradTest, GlobalAvgPoolFiniteDifference) {
  Variable x = Param({2, 3, 4, 4}, 23);
  CheckGradients([&] { return SumAll(GlobalAvgPoolVar(x)); }, {x});
}

TEST(AutogradTest, UpsampleFiniteDifference) {
  Variable x = Param({1, 2, 3, 3}, 24);
  CheckGradients(
      [&] {
        Variable up = UpsampleNearestVar(x, 2);
        return MeanAll(Mul(up, up));
      },
      {x});
}

TEST(AutogradTest, ConcatChannelsFiniteDifference) {
  Variable a = Param({1, 2, 3, 3}, 25);
  Variable b = Param({1, 3, 3, 3}, 26);
  CheckGradients(
      [&] {
        Variable cat = ConcatChannelsVar({a, b});
        return MeanAll(Mul(cat, cat));
      },
      {a, b});
}

TEST(AutogradTest, MulChannelGateFiniteDifference) {
  Variable x = Param({2, 3, 4, 4}, 27);
  Variable gate = Param({2, 3, 1, 1}, 28);
  CheckGradients([&] { return SumAll(MulChannelGate(x, gate)); }, {x, gate});
}

TEST(AutogradTest, SoftmaxRowsFiniteDifference) {
  Variable x = Param({3, 5}, 29);
  Variable weights = Param({3, 5}, 30);
  CheckGradients([&] { return SumAll(Mul(SoftmaxRowsVar(x), weights)); },
                 {x, weights});
}

TEST(AutogradTest, MseLossFiniteDifference) {
  Variable pred = Param({2, 6}, 31);
  Rng rng(32);
  Tensor target = Tensor::RandomNormal({2, 6}, &rng);
  CheckGradients([&] { return MseLoss(pred, target); }, {pred});
}

TEST(AutogradTest, ReshapeFiniteDifference) {
  Variable x = Param({2, 6}, 33);
  CheckGradients(
      [&] {
        Variable r = ReshapeVar(x, {3, 4});
        return MeanAll(Mul(r, r));
      },
      {x});
}

TEST(AutogradTest, CropPadFiniteDifference) {
  Variable x = Param({1, 2, 4, 4}, 34);
  CheckGradients(
      [&] {
        Variable cropped = Crop2dVar(x, 3, 3);
        Variable padded = Pad2dVar(cropped, 5, 5);
        return MeanAll(Mul(padded, padded));
      },
      {x});
}

TEST(AutogradTest, SliceConcatRowsFiniteDifference) {
  Variable x = Param({6, 3}, 35);
  CheckGradients(
      [&] {
        Variable top = SliceRowsVar(x, 0, 2);
        Variable bottom = SliceRowsVar(x, 2, 6);
        Variable cat = ConcatRowsVar({bottom, top});
        return MeanAll(Mul(cat, cat));
      },
      {x});
}

TEST(AutogradTest, NodePermutationRoundTripFiniteDifference) {
  Variable x = Param({2, 3, 2, 2}, 36);
  CheckGradients(
      [&] {
        Variable rows = NchwToNodeRowsVar(x);
        Variable back = NodeRowsToNchwVar(rows, 2, 3, 2, 2);
        return MeanAll(Mul(back, back));
      },
      {x});
}

TEST(AutogradTest, NodePermutationIsExactInverse) {
  Rng rng(37);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 5}, &rng);
  Variable v(x);
  Variable round_trip =
      NodeRowsToNchwVar(NchwToNodeRowsVar(v), 2, 3, 4, 5);
  EXPECT_TRUE(round_trip.value().AllClose(x));
}

TEST(AutogradTest, DeepChainGradient) {
  // A 6-op chain exercising the topological sort.
  Variable x = Param({4, 4}, 38);
  CheckGradients(
      [&] {
        Variable h = Relu(x);
        h = Sigmoid(h);
        h = Scale(h, 3.0f);
        h = Mul(h, h);
        return MeanAll(h);
      },
      {x});
}

TEST(AutogradTest, DiamondGraphGradient) {
  // x feeds two branches that re-merge: the tape must accumulate both.
  Variable x = Param({4}, 39);
  CheckGradients(
      [&] {
        Variable a = Relu(x);
        Variable b = Sigmoid(x);
        return SumAll(Mul(a, b));
      },
      {x});
}

TEST(AutogradTest, ConstantsReceiveNoGradient) {
  Variable x = Param({3}, 40);
  Variable constant(Tensor::Ones({3}), /*requires_grad=*/false);
  Variable loss = SumAll(Mul(x, constant));
  loss.Backward();
  EXPECT_TRUE(x.grad().AllClose(Tensor::Ones({3})));
  // The constant's grad buffer stays zero.
  EXPECT_TRUE(constant.grad().AllClose(Tensor({3})));
}

// ---------------------------------------------------------------------------
// NoTapeScope: forward-only passes build no graph.

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

// Runs every differentiable op once on trainable inputs and returns the
// outputs, so a caller can compare the taped and the untaped values.
std::vector<Variable> EveryOp() {
  Variable v = Param({2, 3}, 50);
  Variable u = Param({2, 3}, 51);
  Variable w = Param({3, 4}, 52);
  Variable bias = Param({4}, 53);
  Variable x = Param({1, 2, 5, 5}, 54);
  Variable k = Param({3, 2, 3, 3}, 55);
  Variable kb = Param({3}, 56);
  Variable gate = Param({1, 2, 1, 1}, 57);
  std::vector<Variable> out = {
      Add(v, u), Sub(v, u), Mul(v, u), Scale(v, 0.5f), Relu(v), Sigmoid(v),
      Tanh(v), MatMulVar(v, w), LinearVar(v, w, bias),
      Conv2dVar(x, k, kb, Conv2dSpec{1, 1}), GlobalAvgPoolVar(x),
      UpsampleNearestVar(x, 2), ConcatChannelsVar({x, x}),
      MulChannelGate(x, gate), SoftmaxRowsVar(v), SumAll(v), MeanAll(v),
      MseLoss(v, Tensor::Ones({2, 3})), ReshapeVar(v, {3, 2}),
      Crop2dVar(x, 4, 3), Pad2dVar(x, 6, 7), SliceRowsVar(v, 1, 2),
      ConcatRowsVar({v, u}), MatMulTransBVar(v, u), NchwToNodeRowsVar(x),
      NodeRowsToNchwVar(NchwToNodeRowsVar(x), 1, 2, 5, 5),
      Relu(Add(v, u)), Add(v, Mul(v, u))};
  return out;
}

TEST(NoTapeScopeTest, ValuesKeepNoParentsAndNoClosure) {
  const int64_t taped_before = TapedNodeCount();
  std::vector<Variable> values;
  {
    const NoTapeScope no_tape;
    EXPECT_TRUE(NoTapeScope::Active());
    values = EveryOp();
  }
  EXPECT_FALSE(NoTapeScope::Active());
  EXPECT_EQ(TapedNodeCount(), taped_before);
  for (const Variable& v : values) {
    EXPECT_TRUE(v.node()->parents.empty());
    EXPECT_FALSE(v.node()->backward_fn);
    EXPECT_FALSE(v.requires_grad());
  }
  // The same ops with the tape recording build the graph.
  const std::vector<Variable> taped = EveryOp();
  EXPECT_GT(TapedNodeCount(), taped_before);
  ASSERT_EQ(taped.size(), values.size());
  for (size_t i = 0; i < taped.size(); ++i) {
    EXPECT_FALSE(taped[i].node()->parents.empty()) << "op " << i;
    EXPECT_TRUE(SameBits(taped[i].value(), values[i].value())) << "op " << i;
  }
}

TEST(NoTapeScopeTest, BackwardOnAnUntapedValueDies) {
  Variable x = Param({3}, 60);
  Variable loss;
  {
    const NoTapeScope no_tape;
    loss = SumAll(Mul(x, x));
  }
  EXPECT_DEATH(loss.Backward(), "NoTapeScope");
}

TEST(NoTapeScopeTest, NestedScopesRestoreTheOuterState) {
  EXPECT_FALSE(NoTapeScope::Active());
  EXPECT_EQ(internal::ThreadBufferPool(), nullptr);
  auto outer_pool = std::make_shared<BufferPool>();
  auto own_pool = std::make_shared<BufferPool>();
  {
    const NoTapeScope outer(outer_pool);
    EXPECT_EQ(internal::ThreadBufferPool(), outer_pool.get());
    {
      const NoTapeScope inner;  // shares the enclosing pool
      EXPECT_TRUE(NoTapeScope::Active());
      EXPECT_EQ(internal::ThreadBufferPool(), outer_pool.get());
      {
        const NoTapeScope innermost(own_pool);
        EXPECT_EQ(internal::ThreadBufferPool(), own_pool.get());
      }
      EXPECT_EQ(internal::ThreadBufferPool(), outer_pool.get());
    }
    EXPECT_TRUE(NoTapeScope::Active());
    EXPECT_EQ(internal::ThreadBufferPool(), outer_pool.get());
  }
  EXPECT_FALSE(NoTapeScope::Active());
  EXPECT_EQ(internal::ThreadBufferPool(), nullptr);
  // Back outside, ops record again.
  Variable x = Param({2}, 61);
  SumAll(Mul(x, x)).Backward();
  EXPECT_TRUE(x.grad().AllClose(x.value().MulScalar(2.0f)));
}

TEST(NoTapeScopeTest, DroppedValuesReturnTheirBuffersToThePool) {
  auto pool = std::make_shared<BufferPool>();
  const Variable x = Param({1, 2, 8, 8}, 62);
  const float* first = nullptr;
  {
    const NoTapeScope no_tape(pool);
    first = UpsampleNearestVar(x, 2).value().data();
  }
  EXPECT_EQ(pool->free_floats(), 2u * 16 * 16);
  {
    const NoTapeScope no_tape(pool);
    const Variable again = UpsampleNearestVar(x, 2);
    EXPECT_EQ(again.value().data(), first);  // the recycled buffer
    EXPECT_EQ(pool->free_floats(), 0u);
  }
  // A value that outlives its scope still hands its buffer back.
  Variable kept;
  {
    const NoTapeScope no_tape(pool);
    kept = UpsampleNearestVar(x, 2);
  }
  EXPECT_EQ(pool->free_floats(), 0u);
  kept = Variable();
  EXPECT_EQ(pool->free_floats(), 2u * 16 * 16);
}

TEST(NoTapeScopeTest, RvalueOpsOverwriteOnlyUnsharedTemporaries) {
  const Variable a = Param({6}, 63);
  const Variable b = Param({6}, 64);
  const Tensor a_before = a.value();
  const Tensor b_before = b.value();
  const Tensor want_relu = Relu(a).value();
  const Tensor want_add = Add(a, b).value();
  const NoTapeScope no_tape;
  // Shared handles are never written through.
  Variable shared = a;
  EXPECT_TRUE(SameBits(Relu(std::move(shared)).value(), want_relu));
  Variable shared_b = b;
  EXPECT_TRUE(SameBits(Add(a, std::move(shared_b)).value(), want_add));
  EXPECT_TRUE(SameBits(a.value(), a_before));
  EXPECT_TRUE(SameBits(b.value(), b_before));
  // An unshared temporary is reused in place, with the same bits.
  Variable sum = Add(a, b);
  const float* storage = sum.value().data();
  const Variable relu = Relu(std::move(sum));
  EXPECT_EQ(relu.value().data(), storage);
  EXPECT_TRUE(SameBits(relu.value(), Relu(Add(a, b)).value()));
  Variable sum2 = Add(a, b);
  const float* storage2 = sum2.value().data();
  const Variable twice = Add(a, std::move(sum2));
  EXPECT_EQ(twice.value().data(), storage2);
  EXPECT_TRUE(SameBits(twice.value(), Add(a, Add(a, b)).value()));
}

}  // namespace
}  // namespace one4all
