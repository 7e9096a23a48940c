#include "tensor/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace one4all {

namespace {
// The innermost open NoTapeScope on this thread, or null.
thread_local NoTapeScope* g_scope = nullptr;
thread_local int64_t g_taped_nodes = 0;
}  // namespace

int64_t TapedNodeCount() { return g_taped_nodes; }

NoTapeScope::NoTapeScope()
    : NoTapeScope(g_scope != nullptr ? g_scope->pool_
                                     : std::make_shared<BufferPool>()) {}

NoTapeScope::NoTapeScope(std::shared_ptr<BufferPool> pool)
    : pool_(std::move(pool)), outer_(g_scope) {
  O4A_CHECK(pool_ != nullptr);
  outer_pool_ = internal::SetThreadBufferPool(pool_.get());
  g_scope = this;
}

NoTapeScope::~NoTapeScope() {
  g_scope = outer_;
  internal::SetThreadBufferPool(outer_pool_);
}

bool NoTapeScope::Active() { return g_scope != nullptr; }

Variable::Variable(Tensor value, bool requires_grad) {
  node_ = std::make_shared<internal::VarNode>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const Tensor& Variable::grad() const {
  O4A_CHECK(node_ != nullptr);
  const_cast<internal::VarNode*>(node_.get())->EnsureGrad();
  return node_->grad;
}

void Variable::ZeroGrad() {
  O4A_CHECK(node_ != nullptr);
  if (node_->grad_ready) node_->grad.Fill(0.0f);
}

bool Variable::OverwritableInPlace() const {
  // A value made inside a scope (it carries the pool) that no one else
  // holds: never a leaf, never a node a tape or another handle still reads.
  return NoTapeScope::Active() && node_ != nullptr && node_->pool != nullptr &&
         node_.use_count() == 1;
}

Variable Variable::MakeUntaped(Tensor value) {
  Variable out;
  out.node_ = std::make_shared<internal::VarNode>();
  out.node_->value = std::move(value);
  out.node_->pool = g_scope->pool_;
  return out;
}

Variable Variable::MakeTaped(
    Tensor value, std::vector<Variable> parents,
    std::function<void(internal::VarNode*)> backward) {
  ++g_taped_nodes;
  Variable out;
  out.node_ = std::make_shared<internal::VarNode>();
  out.node_->value = std::move(value);
  bool any_grad = false;
  for (const Variable& p : parents) {
    O4A_CHECK(p.defined());
    out.node_->parents.push_back(p.node());
    any_grad = any_grad || p.node()->requires_grad ||
               !p.node()->parents.empty();
  }
  out.node_->requires_grad = any_grad;
  if (any_grad) out.node_->backward_fn = std::move(backward);
  return out;
}

void Variable::Backward() {
  O4A_CHECK(node_ != nullptr);
  O4A_CHECK(node_->pool == nullptr)
      << "Backward() on a value computed inside a NoTapeScope, which "
         "records no tape";
  O4A_CHECK_EQ(node_->value.numel(), 1);
  // Iterative topological sort (post-order DFS).
  std::vector<internal::VarNode*> order;
  std::unordered_set<internal::VarNode*> visited;
  std::vector<std::pair<internal::VarNode*, size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->parents.size()) {
      internal::VarNode* parent = node->parents[idx++].get();
      if (visited.insert(parent).second) stack.emplace_back(parent, 0);
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  node_->EnsureGrad();
  node_->grad.Fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::VarNode* node = *it;
    if (node->backward_fn && node->grad_ready) node->backward_fn(node);
  }
}

namespace {

// Adds `delta` into the gradient of `parent` if it participates in autodiff.
void Accumulate(const std::shared_ptr<internal::VarNode>& parent,
                const Tensor& delta) {
  if (!parent->requires_grad && parent->parents.empty()) return;
  parent->EnsureGrad();
  parent->grad.AddInPlace(delta);
}

bool NeedsGrad(const std::shared_ptr<internal::VarNode>& node) {
  return node->requires_grad || !node->parents.empty();
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  CheckSameShape(a.value(), b.value(), "Add");
  const float* x = a.value().data();
  const float* y = b.value().data();
  Tensor out = Tensor::Uninitialized(a.value().shape());
  float* dst = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) dst[i] = x[i] + y[i];
  return Variable::MakeNode(
      std::move(out), {a, b}, [](internal::VarNode* n) {
        Accumulate(n->parents[0], n->grad);
        Accumulate(n->parents[1], n->grad);
      });
}

Variable Add(const Variable& a, Variable&& b) {
  if (!b.OverwritableInPlace()) return Add(a, static_cast<const Variable&>(b));
  CheckSameShape(a.value(), b.value(), "Add");
  const float* x = a.value().data();
  Tensor& y = b.mutable_value();
  float* dst = y.data();
  for (int64_t i = 0; i < y.numel(); ++i) dst[i] = x[i] + dst[i];
  return std::move(b);
}

Variable Sub(const Variable& a, const Variable& b) {
  CheckSameShape(a.value(), b.value(), "Sub");
  return Variable::MakeNode(
      a.value().Sub(b.value()), {a, b}, [](internal::VarNode* n) {
        Accumulate(n->parents[0], n->grad);
        Tensor neg = n->grad;
        neg.ScaleInPlace(-1.0f);
        Accumulate(n->parents[1], neg);
      });
}

Variable Mul(const Variable& a, const Variable& b) {
  CheckSameShape(a.value(), b.value(), "Mul");
  return Variable::MakeNode(
      a.value().Mul(b.value()), {a, b}, [](internal::VarNode* n) {
        Accumulate(n->parents[0], n->grad.Mul(n->parents[1]->value));
        Accumulate(n->parents[1], n->grad.Mul(n->parents[0]->value));
      });
}

Variable Scale(const Variable& a, float factor) {
  return Variable::MakeNode(
      a.value().MulScalar(factor), {a}, [factor](internal::VarNode* n) {
        Accumulate(n->parents[0], n->grad.MulScalar(factor));
      });
}

Variable Relu(const Variable& a) {
  Tensor out = Tensor::Uninitialized(a.value().shape());
  const float* x = a.value().data();
  float* dst = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) {
    dst[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  return Variable::MakeNode(
      std::move(out), {a}, [](internal::VarNode* n) {
        const Tensor& x = n->parents[0]->value;
        Tensor gi(x.shape());
        for (int64_t i = 0; i < x.numel(); ++i) {
          gi[i] = x[i] > 0.0f ? n->grad[i] : 0.0f;
        }
        Accumulate(n->parents[0], gi);
      });
}

Variable Relu(Variable&& a) {
  if (!a.OverwritableInPlace()) return Relu(static_cast<const Variable&>(a));
  Tensor& x = a.mutable_value();
  float* dst = x.data();
  for (int64_t i = 0; i < x.numel(); ++i) {
    dst[i] = dst[i] > 0.0f ? dst[i] : 0.0f;
  }
  return std::move(a);
}

Variable Sigmoid(const Variable& a) {
  Tensor out(a.value().shape());
  const float* x = a.value().data();
  for (int64_t i = 0; i < out.numel(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-x[i]));
  }
  return Variable::MakeNode(
      std::move(out), {a}, [](internal::VarNode* n) {
        const Tensor& saved = n->value;  // the forward output
        Tensor gi(saved.shape());
        for (int64_t i = 0; i < saved.numel(); ++i) {
          gi[i] = n->grad[i] * saved[i] * (1.0f - saved[i]);
        }
        Accumulate(n->parents[0], gi);
      });
}

Variable Tanh(const Variable& a) {
  Tensor out(a.value().shape());
  const float* x = a.value().data();
  for (int64_t i = 0; i < out.numel(); ++i) out[i] = std::tanh(x[i]);
  return Variable::MakeNode(
      std::move(out), {a}, [](internal::VarNode* n) {
        const Tensor& saved = n->value;  // the forward output
        Tensor gi(saved.shape());
        for (int64_t i = 0; i < saved.numel(); ++i) {
          gi[i] = n->grad[i] * (1.0f - saved[i] * saved[i]);
        }
        Accumulate(n->parents[0], gi);
      });
}

Variable MatMulVar(const Variable& a, const Variable& b) {
  return Variable::MakeNode(
      MatMul(a.value(), b.value()), {a, b}, [](internal::VarNode* n) {
        const Tensor& av = n->parents[0]->value;
        const Tensor& bv = n->parents[1]->value;
        if (NeedsGrad(n->parents[0])) {
          Accumulate(n->parents[0], MatMulTransB(n->grad, bv));
        }
        if (NeedsGrad(n->parents[1])) {
          Accumulate(n->parents[1], MatMulTransA(av, n->grad));
        }
      });
}

Variable LinearVar(const Variable& x, const Variable& w, const Variable& b) {
  Variable prod = MatMulVar(x, w);
  if (!b.defined()) return prod;
  const int64_t m = prod.value().dim(0), n = prod.value().dim(1);
  O4A_CHECK_EQ(b.value().numel(), n);
  Tensor out = prod.value();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out.at(i, j) += b.value()[j];
  }
  return Variable::MakeNode(
      std::move(out), {prod, b}, [m, n](internal::VarNode* node) {
        Accumulate(node->parents[0], node->grad);
        if (NeedsGrad(node->parents[1])) {
          Tensor db({n});
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) db[j] += node->grad.at(i, j);
          }
          Accumulate(node->parents[1], db);
        }
      });
}

Variable Conv2dVar(const Variable& input, const Variable& weight,
                   const Variable& bias, const Conv2dSpec& spec) {
  const bool has_bias = bias.defined();
  Tensor out = Conv2dForward(input.value(), weight.value(),
                             has_bias ? bias.value() : Tensor(), spec);
  auto backward = [spec, has_bias](internal::VarNode* n) {
    const Tensor& x = n->parents[0]->value;
    const Tensor& w = n->parents[1]->value;
    Tensor gi, gw, gb;
    const bool need_gi = NeedsGrad(n->parents[0]);
    const bool need_gw = NeedsGrad(n->parents[1]);
    const bool need_gb = has_bias && NeedsGrad(n->parents[2]);
    Conv2dBackward(x, w, n->grad, spec, need_gi ? &gi : nullptr,
                   need_gw ? &gw : nullptr, need_gb ? &gb : nullptr);
    if (need_gi) Accumulate(n->parents[0], gi);
    if (need_gw) Accumulate(n->parents[1], gw);
    if (need_gb) Accumulate(n->parents[2], gb);
  };
  if (has_bias) {
    return Variable::MakeNode(std::move(out), {input, weight, bias},
                              backward);
  }
  return Variable::MakeNode(std::move(out), {input, weight}, backward);
}

Variable GlobalAvgPoolVar(const Variable& input) {
  return Variable::MakeNode(
      GlobalAvgPoolForward(input.value()), {input},
      [](internal::VarNode* n) {
        Accumulate(n->parents[0],
                   GlobalAvgPoolBackward(n->parents[0]->value, n->grad));
      });
}

Variable UpsampleNearestVar(const Variable& input, int64_t factor) {
  return Variable::MakeNode(
      UpsampleNearestForward(input.value(), factor), {input},
      [factor](internal::VarNode* n) {
        Accumulate(n->parents[0], UpsampleNearestBackward(n->grad, factor));
      });
}

Variable ConcatChannelsVar(const std::vector<Variable>& inputs) {
  std::vector<const Tensor*> vals;
  vals.reserve(inputs.size());
  for (const Variable& v : inputs) vals.push_back(&v.value());
  return Variable::MakeNode(
      ConcatChannels(vals), inputs, [](internal::VarNode* n) {
        std::vector<int64_t> channels;
        for (const auto& p : n->parents) channels.push_back(p->value.dim(1));
        std::vector<Tensor> grads = SplitChannels(n->grad, channels);
        for (size_t i = 0; i < grads.size(); ++i) {
          Accumulate(n->parents[i], grads[i]);
        }
      });
}

Variable MulChannelGate(const Variable& x, const Variable& gate) {
  const Tensor& xv = x.value();
  const Tensor& gv = gate.value();
  O4A_CHECK_EQ(xv.ndim(), 4u);
  O4A_CHECK_EQ(gv.ndim(), 4u);
  O4A_CHECK_EQ(gv.dim(0), xv.dim(0));
  O4A_CHECK_EQ(gv.dim(1), xv.dim(1));
  O4A_CHECK_EQ(gv.dim(2), 1);
  O4A_CHECK_EQ(gv.dim(3), 1);
  const int64_t n = xv.dim(0), c = xv.dim(1), plane = xv.dim(2) * xv.dim(3);
  Tensor out = Tensor::Uninitialized(xv.shape());
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float g = gv[s * c + ci];
      const float* src = xv.data() + (s * c + ci) * plane;
      float* dst = out.data() + (s * c + ci) * plane;
      for (int64_t i = 0; i < plane; ++i) dst[i] = src[i] * g;
    }
  }
  return Variable::MakeNode(
      std::move(out), {x, gate}, [n, c, plane](internal::VarNode* node) {
        const Tensor& xv = node->parents[0]->value;
        const Tensor& gv = node->parents[1]->value;
        if (NeedsGrad(node->parents[0])) {
          Tensor gx(xv.shape());
          for (int64_t s = 0; s < n; ++s) {
            for (int64_t ci = 0; ci < c; ++ci) {
              const float g = gv[s * c + ci];
              const float* go = node->grad.data() + (s * c + ci) * plane;
              float* dst = gx.data() + (s * c + ci) * plane;
              for (int64_t i = 0; i < plane; ++i) dst[i] = go[i] * g;
            }
          }
          Accumulate(node->parents[0], gx);
        }
        if (NeedsGrad(node->parents[1])) {
          Tensor gg(gv.shape());
          for (int64_t s = 0; s < n; ++s) {
            for (int64_t ci = 0; ci < c; ++ci) {
              const float* go = node->grad.data() + (s * c + ci) * plane;
              const float* src = xv.data() + (s * c + ci) * plane;
              double acc = 0.0;
              for (int64_t i = 0; i < plane; ++i) acc += go[i] * src[i];
              gg[s * c + ci] = static_cast<float>(acc);
            }
          }
          Accumulate(node->parents[1], gg);
        }
      });
}

Variable SoftmaxRowsVar(const Variable& logits) {
  return Variable::MakeNode(
      SoftmaxRows(logits.value()), {logits}, [](internal::VarNode* n) {
        Accumulate(n->parents[0], SoftmaxRowsBackward(n->value, n->grad));
      });
}

Variable SumAll(const Variable& a) {
  Tensor out({1});
  out[0] = a.value().Sum();
  return Variable::MakeNode(
      std::move(out), {a}, [](internal::VarNode* n) {
        Tensor gi(n->parents[0]->value.shape());
        gi.Fill(n->grad[0]);
        Accumulate(n->parents[0], gi);
      });
}

Variable MeanAll(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.value().numel());
  return Scale(SumAll(a), inv);
}

Variable MseLoss(const Variable& pred, const Tensor& target) {
  CheckSameShape(pred.value(), target, "MseLoss");
  const int64_t n = pred.value().numel();
  Tensor out({1});
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = pred.value()[i] - target[i];
    acc += d * d;
  }
  out[0] = static_cast<float>(acc / static_cast<double>(n));
  // The closure below keeps a copy of the target; no tape, no copy.
  if (NoTapeScope::Active()) {
    return Variable::MakeNode(std::move(out), {pred}, nullptr);
  }
  Tensor saved_target = target;
  return Variable::MakeNode(
      std::move(out), {pred}, [saved_target, n](internal::VarNode* node) {
        const float scale = 2.0f / static_cast<float>(n) * node->grad[0];
        const Tensor& p = node->parents[0]->value;
        Tensor gi(p.shape());
        for (int64_t i = 0; i < n; ++i) {
          gi[i] = scale * (p[i] - saved_target[i]);
        }
        Accumulate(node->parents[0], gi);
      });
}

Variable Crop2dVar(const Variable& a, int64_t out_h, int64_t out_w) {
  const Tensor& x = a.value();
  O4A_CHECK_EQ(x.ndim(), 4u);
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  O4A_CHECK(out_h >= 1 && out_h <= h && out_w >= 1 && out_w <= w);
  if (out_h == h && out_w == w) return a;
  Tensor out = Tensor::Uninitialized({n, c, out_h, out_w});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t i = 0; i < out_h; ++i) {
        for (int64_t j = 0; j < out_w; ++j) {
          out.at(s, ci, i, j) = x.at(s, ci, i, j);
        }
      }
    }
  }
  return Variable::MakeNode(
      std::move(out), {a}, [n, c, h, w, out_h, out_w](internal::VarNode* node) {
        Tensor gi({n, c, h, w});
        for (int64_t s = 0; s < n; ++s) {
          for (int64_t ci = 0; ci < c; ++ci) {
            for (int64_t i = 0; i < out_h; ++i) {
              for (int64_t j = 0; j < out_w; ++j) {
                gi.at(s, ci, i, j) = node->grad.at(s, ci, i, j);
              }
            }
          }
        }
        Accumulate(node->parents[0], gi);
      });
}

Variable Pad2dVar(const Variable& a, int64_t out_h, int64_t out_w) {
  const Tensor& x = a.value();
  O4A_CHECK_EQ(x.ndim(), 4u);
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  O4A_CHECK(out_h >= h && out_w >= w);
  if (out_h == h && out_w == w) return a;
  Tensor out = Tensor::Uninitialized({n, c, out_h, out_w});
  out.Fill(0.0f);
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t i = 0; i < h; ++i) {
        for (int64_t j = 0; j < w; ++j) {
          out.at(s, ci, i, j) = x.at(s, ci, i, j);
        }
      }
    }
  }
  return Variable::MakeNode(
      std::move(out), {a}, [n, c, h, w](internal::VarNode* node) {
        Tensor gi({n, c, h, w});
        for (int64_t s = 0; s < n; ++s) {
          for (int64_t ci = 0; ci < c; ++ci) {
            for (int64_t i = 0; i < h; ++i) {
              for (int64_t j = 0; j < w; ++j) {
                gi.at(s, ci, i, j) = node->grad.at(s, ci, i, j);
              }
            }
          }
        }
        Accumulate(node->parents[0], gi);
      });
}

Variable ReshapeVar(const Variable& a, std::vector<int64_t> shape) {
  return Variable::MakeNode(
      a.value().Reshape(std::move(shape)), {a}, [](internal::VarNode* n) {
        Accumulate(n->parents[0],
                   n->grad.Reshape(n->parents[0]->value.shape()));
      });
}

Variable SliceRowsVar(const Variable& a, int64_t r0, int64_t r1) {
  const Tensor& x = a.value();
  O4A_CHECK_EQ(x.ndim(), 2u);
  const int64_t rows = x.dim(0), cols = x.dim(1);
  O4A_CHECK(r0 >= 0 && r0 < r1 && r1 <= rows);
  Tensor out({r1 - r0, cols});
  std::copy(x.data() + r0 * cols, x.data() + r1 * cols, out.data());
  return Variable::MakeNode(
      std::move(out), {a}, [r0, r1, rows, cols](internal::VarNode* n) {
        Tensor gi({rows, cols});
        std::copy(n->grad.data(), n->grad.data() + (r1 - r0) * cols,
                  gi.data() + r0 * cols);
        Accumulate(n->parents[0], gi);
      });
}

Variable ConcatRowsVar(const std::vector<Variable>& inputs) {
  O4A_CHECK(!inputs.empty());
  const int64_t cols = inputs[0].value().dim(1);
  int64_t rows = 0;
  for (const Variable& v : inputs) {
    O4A_CHECK_EQ(v.value().ndim(), 2u);
    O4A_CHECK_EQ(v.value().dim(1), cols);
    rows += v.value().dim(0);
  }
  Tensor out({rows, cols});
  int64_t off = 0;
  for (const Variable& v : inputs) {
    std::copy(v.value().data(), v.value().data() + v.value().numel(),
              out.data() + off * cols);
    off += v.value().dim(0);
  }
  return Variable::MakeNode(
      std::move(out), inputs, [cols](internal::VarNode* n) {
        int64_t off = 0;
        for (const auto& parent : n->parents) {
          const int64_t rows_i = parent->value.dim(0);
          Tensor gi({rows_i, cols});
          std::copy(n->grad.data() + off * cols,
                    n->grad.data() + (off + rows_i) * cols, gi.data());
          Accumulate(parent, gi);
          off += rows_i;
        }
      });
}

Variable MatMulTransBVar(const Variable& a, const Variable& b) {
  return Variable::MakeNode(
      MatMulTransB(a.value(), b.value()), {a, b},
      [](internal::VarNode* n) {
        const Tensor& av = n->parents[0]->value;
        const Tensor& bv = n->parents[1]->value;
        // y = a b^T: da = g b ; db = g^T a.
        if (NeedsGrad(n->parents[0])) {
          Accumulate(n->parents[0], MatMul(n->grad, bv));
        }
        if (NeedsGrad(n->parents[1])) {
          Accumulate(n->parents[1], MatMulTransA(n->grad, av));
        }
      });
}

namespace {
// Permutes [N,C,H,W] -> [N*HW, C]; `inverse` scatters back.
Tensor PermuteNchwToRows(const Tensor& x) {
  const int64_t n = x.dim(0), c = x.dim(1), plane = x.dim(2) * x.dim(3);
  Tensor out({n * plane, c});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* src = x.data() + (s * c + ci) * plane;
      for (int64_t p = 0; p < plane; ++p) {
        out.data()[(s * plane + p) * c + ci] = src[p];
      }
    }
  }
  return out;
}

Tensor PermuteRowsToNchw(const Tensor& rows, int64_t n, int64_t c, int64_t h,
                         int64_t w) {
  const int64_t plane = h * w;
  Tensor out({n, c, h, w});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t ci = 0; ci < c; ++ci) {
      float* dst = out.data() + (s * c + ci) * plane;
      for (int64_t p = 0; p < plane; ++p) {
        dst[p] = rows.data()[(s * plane + p) * c + ci];
      }
    }
  }
  return out;
}
}  // namespace

Variable NchwToNodeRowsVar(const Variable& a) {
  const Tensor& x = a.value();
  O4A_CHECK_EQ(x.ndim(), 4u);
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  return Variable::MakeNode(
      PermuteNchwToRows(x), {a}, [n, c, h, w](internal::VarNode* node) {
        Accumulate(node->parents[0],
                   PermuteRowsToNchw(node->grad, n, c, h, w));
      });
}

Variable NodeRowsToNchwVar(const Variable& a, int64_t n, int64_t c,
                           int64_t h, int64_t w) {
  const Tensor& x = a.value();
  O4A_CHECK_EQ(x.ndim(), 2u);
  O4A_CHECK_EQ(x.dim(0), n * h * w);
  O4A_CHECK_EQ(x.dim(1), c);
  return Variable::MakeNode(
      PermuteRowsToNchw(x, n, c, h, w), {a},
      [](internal::VarNode* node) {
        Accumulate(node->parents[0], PermuteNchwToRows(node->grad));
      });
}

}  // namespace one4all
