#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

constexpr std::size_t kRawSpanCap = 1 << 16;  // per thread

thread_local ThreadTrace* tl_trace = nullptr;

bool is_backend(SpanKind kind) noexcept {
  return kind >= SpanKind::kBackendRead;
}

bool keeps_self_samples(SpanKind kind) noexcept {
  return kind == SpanKind::kStoreRead || kind == SpanKind::kStoreWrite ||
         kind == SpanKind::kFleetRead || kind == SpanKind::kFleetWrite;
}

IoUse use_of(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kStoreRead:
    case SpanKind::kFleetRead:
      return IoUse::kFgRead;
    case SpanKind::kStoreWrite:
    case SpanKind::kFleetWrite:
      return IoUse::kFgWrite;
    case SpanKind::kStoreRebuild:
    case SpanKind::kFleetRebuild:
      return IoUse::kRebuild;
    default:
      return IoUse::kOther;
  }
}

/// Traffic class of the innermost open data-path span below `depth`.
IoUse use_below(const ThreadTrace& t, std::uint32_t depth) noexcept {
  for (std::uint32_t i = depth; i-- > 0;)
    if (!is_backend(t.stack[i].kind)) return use_of(t.stack[i].kind);
  return IoUse::kOther;
}

}  // namespace

const char* span_name(SpanKind kind) noexcept {
  static constexpr const char* kNames[kNumKinds] = {
      "store.read",        "store.write",          "store.rebuild_some",
      "fleet.read",        "fleet.write",          "fleet.rebuild_some",
      "backend.read",      "backend.write",        "backend.execute_batch",
      "backend.journal_begin", "backend.journal_commit", "backend.other"};
  return kNames[static_cast<std::size_t>(kind)];
}

const char* span_layer(SpanKind kind) noexcept {
  if (kind <= SpanKind::kStoreRebuild) return "io.store";
  if (kind <= SpanKind::kFleetRebuild) return "fleet";
  return "io.backend";
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::attach(bool client) {
  auto trace = std::make_unique<ThreadTrace>();
  trace->client = client;
  trace->spans.reserve(kRawSpanCap);
  std::lock_guard lock(mutex_);
  trace->thread_index = static_cast<std::uint32_t>(traces_.size());
  tl_trace = trace.get();
  traces_.push_back(std::move(trace));
}

void Tracer::detach() noexcept { tl_trace = nullptr; }

void Tracer::reset() {
  std::lock_guard lock(mutex_);
  traces_.clear();
}

ThreadTrace* Tracer::current() noexcept {
  return tl_trace != nullptr && instance().enabled() ? tl_trace : nullptr;
}

std::uint64_t TraceTotals::layer_self_ns(const std::string& layer) const {
  std::uint64_t ns = 0;
  for (std::size_t k = 0; k < kNumKinds; ++k)
    if (layer == span_layer(static_cast<SpanKind>(k))) ns += self_ns[k];
  return ns;
}

TraceTotals Tracer::totals() const {
  TraceTotals sum;
  auto append = [](std::vector<std::uint64_t>& to,
                   const std::vector<std::uint64_t>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  auto samples = [](const ThreadTrace& t, SpanKind kind) -> const auto& {
    return t.self_samples[static_cast<std::size_t>(kind)];
  };
  for (const auto& t : traces_) {
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      sum.spans += t->count[k];
      if (t->client) sum.self_ns[k] += t->self_ns[k];
    }
    if (t->client) sum.covered_ns += t->top_level_ns;
    for (std::size_t u = 0; u < kNumUses; ++u) {
      sum.io_ops[u] += t->io_ops[u];
      sum.io_busy_ns[u] += t->io_busy_ns[u];
    }
    sum.io_bytes_written += t->io_bytes_written;
    sum.journal_begins += t->journal_begins;
    sum.journal_bytes += t->journal_bytes;
    sum.journal_ns += t->journal_ns;
    sum.batches += t->batches;
    sum.batch_requests += t->batch_requests;
    append(sum.read_self_ns, samples(*t, SpanKind::kStoreRead));
    append(sum.read_self_ns, samples(*t, SpanKind::kFleetRead));
    append(sum.write_self_ns, samples(*t, SpanKind::kStoreWrite));
    append(sum.write_self_ns, samples(*t, SpanKind::kFleetWrite));
    append(sum.rebuild_call_ns, t->rebuild_call_ns);
  }
  for (auto* v : {&sum.read_self_ns, &sum.write_self_ns, &sum.rebuild_call_ns})
    std::sort(v->begin(), v->end());
  return sum;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,id,parent,span,start_ns,end_ns\n");
  for (const auto& t : traces_)
    for (const Span& s : t->spans)
      std::fprintf(f, "%u,%u,%u,%s,%llu,%llu\n", t->thread_index, s.id,
                   s.parent, span_name(s.kind),
                   static_cast<unsigned long long>(s.start_ns - epoch_ns_),
                   static_cast<unsigned long long>(s.end_ns - epoch_ns_));
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanKind kind) noexcept : trace_(Tracer::current()) {
  if (trace_ == nullptr) return;
  if (trace_->depth == std::size(trace_->stack)) {
    trace_ = nullptr;  // nesting deeper than any library call produces
    return;
  }
  trace_->stack[trace_->depth++] =
      ThreadTrace::Frame{kind, now_ns(), 0, trace_->next_id++};
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  ThreadTrace& t = *trace_;
  const std::uint64_t end = now_ns();
  const ThreadTrace::Frame frame = t.stack[--t.depth];
  const std::uint64_t duration = end - frame.start;
  const std::uint64_t self =
      duration > frame.child_ns ? duration - frame.child_ns : 0;
  const auto k = static_cast<std::size_t>(frame.kind);
  t.count[k] += 1;
  t.self_ns[k] += self;
  if (keeps_self_samples(frame.kind)) t.self_samples[k].push_back(self);
  if (frame.kind == SpanKind::kStoreRebuild ||
      frame.kind == SpanKind::kFleetRebuild)
    t.rebuild_call_ns.push_back(duration);
  if (frame.kind == SpanKind::kJournalBegin ||
      frame.kind == SpanKind::kJournalCommit)
    t.journal_ns += duration;
  else if (is_backend(frame.kind))
    t.io_busy_ns[static_cast<std::size_t>(use_below(t, t.depth))] += duration;
  std::uint32_t parent = 0;
  if (t.depth > 0) {
    t.stack[t.depth - 1].child_ns += duration;
    parent = t.stack[t.depth - 1].id;
  } else {
    t.top_level_ns += duration;
  }
  if (t.spans.size() < kRawSpanCap)
    t.spans.push_back(Span{frame.start, end, frame.id, parent, frame.kind});
}

// ------------------------------------------------------------ TimingBackend

namespace {

/// Counts one backend call's requests and written bytes against the
/// traffic class of the span that issued it.
void count_io(std::uint64_t requests, std::uint64_t written) noexcept {
  ThreadTrace* t = Tracer::current();
  if (t == nullptr) return;
  t->io_ops[static_cast<std::size_t>(use_below(*t, t->depth))] += requests;
  t->io_bytes_written += written;
}

}  // namespace

pdl::Status TimingBackend::open(const pdl::io::BackendGeometry& geometry) {
  return inner_->open(geometry);
}

pdl::Status TimingBackend::read(pdl::io::DiskId disk, std::uint64_t offset,
                                std::span<std::uint8_t> out) {
  count_io(1, 0);
  ScopedSpan span(SpanKind::kBackendRead);
  return inner_->read(disk, offset, out);
}

pdl::Status TimingBackend::write(pdl::io::DiskId disk, std::uint64_t offset,
                                 std::span<const std::uint8_t> data) {
  count_io(1, data.size());
  ScopedSpan span(SpanKind::kBackendWrite);
  return inner_->write(disk, offset, data);
}

pdl::Status TimingBackend::sync(pdl::io::DiskId disk) {
  ScopedSpan span(SpanKind::kBackendOther);
  return inner_->sync(disk);
}

pdl::Status TimingBackend::discard(pdl::io::DiskId disk, std::uint8_t fill) {
  ScopedSpan span(SpanKind::kBackendOther);
  return inner_->discard(disk, fill);
}

pdl::Status TimingBackend::execute_batch(std::span<pdl::io::IoRequest> batch) {
  if (ThreadTrace* t = Tracer::current()) {
    std::uint64_t written = 0;
    for (const auto& r : batch)
      if (r.op == pdl::io::IoRequest::Op::kWrite) written += r.size();
    count_io(batch.size(), written);
    t->batches += 1;
    t->batch_requests += batch.size();
  }
  ScopedSpan span(SpanKind::kBackendBatch);
  return inner_->execute_batch(batch);
}

pdl::Result<std::uint64_t> TimingBackend::journal_begin(
    std::span<const pdl::io::IoRequest> batch) {
  if (ThreadTrace* t = Tracer::current()) {
    t->journal_begins += 1;
    for (const auto& r : batch)
      if (r.op == pdl::io::IoRequest::Op::kWrite) t->journal_bytes += r.size();
  }
  ScopedSpan span(SpanKind::kJournalBegin);
  return inner_->journal_begin(batch);
}

pdl::Status TimingBackend::journal_commit(std::uint64_t token) {
  ScopedSpan span(SpanKind::kJournalCommit);
  return inner_->journal_commit(token);
}

}  // namespace perfbench
