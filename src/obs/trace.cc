#include "obs/trace.h"

namespace one4all {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kQuery: return "query";
    case SpanName::kAdmission: return "admission";
    case SpanName::kPlan: return "plan";
    case SpanName::kResolve: return "resolve";
    case SpanName::kEpochPin: return "epoch_pin";
    case SpanName::kGather: return "gather";
    case SpanName::kRank: return "rank";
    case SpanName::kPublishEpoch: return "publish_epoch";
    case SpanName::kInfer: return "infer";
    case SpanName::kStageFrames: return "stage_frames";
    case SpanName::kBuildSatPlane: return "build_sat_plane";
    case SpanName::kPublish: return "publish";
    case SpanName::kReclaim: return "reclaim";
    case SpanName::kTileSatFixup: return "tile_sat_fixup";
  }
  return "unknown";
}

const char* SpanCategoryString(SpanCategory category) {
  switch (category) {
    case SpanCategory::kQuery: return "query";
    case SpanCategory::kEpoch: return "epoch";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(TraceRecorderOptions options)
    : ring_(options.ring_capacity),
      enabled_(options.enabled),
      sample_every_n_(options.sample_every_n),
      birth_(std::chrono::steady_clock::now()) {}

TraceContext TraceRecorder::StartTrace(SpanCategory category) {
  TraceContext ctx;
  if (!enabled()) return ctx;
  ctx.recorder = this;
  ctx.category = category;
  ctx.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  const int n = sample_every_n();
  ctx.sampled =
      n <= 1 ||
      head_counter_.fetch_add(1, std::memory_order_relaxed) %
              static_cast<uint64_t>(n) ==
          0;
  return ctx;
}

TraceRecorder& TraceRecorder::Global() {
  // Leaked on purpose: outlives every static destructor that might still
  // be closing spans during shutdown.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

uint32_t TraceRecorder::CurrentThreadId() {
  static std::atomic<uint32_t> next_id{1};
  thread_local uint32_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

ScopedSpan::ScopedSpan(TraceContext* ctx, SpanName name, int64_t arg)
    : arg_(arg), name_(name) {
  if (ctx == nullptr || !ctx->active()) return;
  // Interior spans exist only in head-sampled traces; the root span
  // (parent_span == 0) is always-on so rates and totals stay exact.
  if (ctx->parent_span != 0 && !ctx->sampled) return;
  ctx_ = ctx;
  span_id_ = ctx->recorder->NewSpanId();
  saved_parent_ = ctx->parent_span;
  ctx->parent_span = span_id_;
  start_nanos_ = ctx->recorder->NowNanos();
}

void ScopedSpan::Close() {
  if (ctx_ == nullptr) return;
  const uint64_t end_nanos = ctx_->recorder->NowNanos();
  ctx_->parent_span = saved_parent_;
  TraceEvent event;
  event.trace_id = ctx_->trace_id;
  event.span_id = span_id_;
  event.parent_id = saved_parent_;
  event.start_nanos = start_nanos_;
  event.duration_nanos =
      end_nanos > start_nanos_ ? end_nanos - start_nanos_ : 0;
  event.arg = arg_;
  event.thread_id = TraceRecorder::CurrentThreadId();
  event.name = static_cast<uint8_t>(name_);
  event.category = static_cast<uint8_t>(ctx_->category);
  ctx_->recorder->Record(event);
  ctx_ = nullptr;
}

}  // namespace one4all
