#include "io/stripe_store.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "core/codec.hpp"
#include "core/crc32c.hpp"
#include "core/xor_codec.hpp"

namespace pdl::io {

namespace {

/// Poison byte for failed platters: any read that erroneously touches a
/// failed disk shows up as garbage, not as stale-but-plausible data.
constexpr std::uint8_t kPoison = 0xDD;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

[[nodiscard]] std::uint64_t fnv1a(std::uint64_t hash,
                                  std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Per-thread staging buffers (a delta, a re-encoded parity, one copied
/// pre-image), so the serving hot loop stays allocation-free after
/// warm-up.  Index selects one of two independent buffers (some paths
/// need a pair).
[[nodiscard]] std::span<std::uint8_t> scratch(std::size_t which,
                                              std::size_t size) {
  thread_local std::vector<std::uint8_t> buffers[2];
  auto& buffer = buffers[which];
  if (buffer.size() < size) buffer.resize(size);
  return {buffer.data(), size};
}

/// Per-thread arena for gather() slabs: one contiguous block the caller
/// carves into unit-sized slices (survivor sets, pre-images, rebuild
/// fan-ins).  Grow-only, independent of scratch(), so a path may use
/// both.
[[nodiscard]] std::span<std::uint8_t> arena(std::size_t size) {
  thread_local std::vector<std::uint8_t> buffer;
  if (buffer.size() < size) buffer.resize(size);
  return {buffer.data(), size};
}

/// Prefixes a gather()'s checksum-mismatch message with the caller's
/// context ("degraded read of logical 7: unit (disk 3, unit 12) failed
/// CRC32C verification"); any other status passes through untouched.
[[nodiscard]] Status in_context(Status status, const std::string& what) {
  if (status.code() != StatusCode::kChecksumMismatch) return status;
  return Status::checksum_mismatch(what + ": " + status.message());
}

/// Decodes erased_index[0]'s bytes into `out` from gathered survivor
/// bytes through the codec; other erased units are decoded internally
/// but not materialized.  For XOR parity this is exactly
/// core::xor_reconstruct_into.
void decode_unit(const core::Codec& codec, std::uint32_t num_data,
                 std::span<const std::span<const std::uint8_t>> srcs,
                 std::span<const std::uint32_t> src_index,
                 std::span<const std::uint32_t> erased_index,
                 std::span<std::uint8_t> out) {
  std::array<std::span<std::uint8_t>, api::kMaxParityUnits> outs{};
  outs[0] = out;
  codec.reconstruct(num_data, srcs, src_index, erased_index,
                    {outs.data(), erased_index.size()});
}

/// How many requests of a batch completed.
[[nodiscard]] std::size_t num_landed(std::span<const IoRequest> writes) {
  return static_cast<std::size_t>(
      std::count_if(writes.begin(), writes.end(),
                    [](const IoRequest& w) { return w.status.ok(); }));
}

/// Whether a rebuild step must TRUST parity bytes (it decodes at least
/// one data unit) as opposed to merely re-encoding parity from data.
[[nodiscard]] bool step_decodes_data(const api::RebuildStep& step) {
  for (std::uint32_t e = 0; e < step.num_erased; ++e)
    if (step.erased_index[e] < step.num_data) return true;
  return false;
}

}  // namespace

StripeStore::StripeStore(api::Array array, const StripeStoreOptions& options,
                         std::unique_ptr<DiskBackend> backend)
    : array_(std::move(array)),
      unit_bytes_(options.unit_bytes),
      iterations_(options.iterations),
      backend_(std::move(backend)),
      sync_(std::make_unique<Sync>(std::max(1u, options.lock_shards))) {}

Result<StripeStore> StripeStore::create(api::Array array,
                                        const StripeStoreOptions& options,
                                        std::unique_ptr<DiskBackend> backend) {
  if (options.unit_bytes == 0)
    return Status::invalid_argument("unit_bytes must be positive");
  if (options.iterations == 0)
    return Status::invalid_argument("iterations must be positive");
  if (!array.healthy())
    return Status::failed_precondition(
        "StripeStore::create needs a healthy array: the backend's disks "
        "start zero-filled (or carry a prior store's parity-consistent "
        "image), which is only consistent with no pre-existing failure "
        "state");
  if (!backend) backend = make_memory_backend();

  StripeStore store(std::move(array), options, std::move(backend));
  store.integrity_ = store.array_.integrity();
  store.crc_base_ = store.disk_bytes();
  if (options.cache.enabled)
    store.cache_ = std::make_unique<StripeCache>(options.cache,
                                                 options.unit_bytes);
  // Under integrity each disk's media grows by a checksum region: one
  // CRC32C word per physical unit, appended after the data region.  A
  // persistent backend's manifest pins the extended size, so reopening
  // an image with the wrong integrity setting fails the geometry check
  // instead of silently mixing formats.
  const std::uint64_t units_per_disk = store.disk_bytes() / options.unit_bytes;
  const std::uint64_t media_bytes =
      store.disk_bytes() + (store.integrity_ ? units_per_disk * 4 : 0);
  const BackendGeometry geometry{store.array_.num_disks(), media_bytes};
  if (Status opened = store.backend_->open(geometry); !opened.ok())
    return opened;

  // Cache the backend's memory views when it offers them (all disks or
  // none, per the DiskBackend contract): gather() then aliases reads
  // straight out of the disk images.
  std::vector<std::span<std::uint8_t>> views;
  views.reserve(geometry.num_disks);
  for (DiskId disk = 0; disk < geometry.num_disks; ++disk) {
    const auto view = store.backend_->memory_view(disk);
    if (view.size() != geometry.disk_bytes) break;
    views.push_back(view);
  }
  if (views.size() == geometry.num_disks) store.views_ = std::move(views);

  // Load the checksum cache from media: fresh disks are all-zero
  // ("unverified" -- scrub adopts them), a reopened image supplies the
  // previous process's checksums.
  if (store.integrity_) {
    const std::size_t units = static_cast<std::size_t>(units_per_disk);
    store.crc_.resize(geometry.num_disks);
    std::vector<std::uint8_t> raw(units * 4);
    for (DiskId disk = 0; disk < geometry.num_disks; ++disk) {
      if (Status read = store.backend_->read(disk, store.crc_base_, raw);
          !read.ok())
        return read;
      store.crc_[disk].resize(units);
      std::memcpy(store.crc_[disk].data(), raw.data(), units * 4);
    }
  }
  return store;
}

std::uint64_t StripeStore::instance_of(std::uint64_t logical) const noexcept {
  const api::Array::LogicalRef ref = array_.logical_ref(logical);
  return ref.stripe + ref.iteration * array_.num_stripes();
}

std::shared_mutex& StripeStore::shard_for(std::uint64_t logical) noexcept {
  return sync_->shards[instance_of(logical) % sync_->shards.size()];
}

// ---------------------------------------------------------- torn parity

bool StripeStore::is_torn(std::uint64_t instance) const {
  // Relaxed fast path: the happy path (no torn stripe anywhere, ever)
  // never takes torn_mutex.  A racing mark_torn publishes its set insert
  // before the count bump, so a non-zero count always finds a coherent
  // set under the mutex.
  if (sync_->torn_count.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lock(sync_->torn_mutex);
  return sync_->torn.count(instance) != 0;
}

void StripeStore::mark_torn(std::uint64_t instance) {
  std::lock_guard<std::mutex> lock(sync_->torn_mutex);
  if (sync_->torn.insert(instance).second)
    sync_->torn_count.fetch_add(1, std::memory_order_release);
}

void StripeStore::clear_torn(std::uint64_t instance) {
  std::lock_guard<std::mutex> lock(sync_->torn_mutex);
  if (sync_->torn.erase(instance) != 0)
    sync_->torn_count.fetch_sub(1, std::memory_order_release);
}

bool StripeStore::parity_torn(std::uint32_t stripe,
                              std::uint64_t iteration) const {
  return is_torn(stripe + iteration * array_.num_stripes());
}

// ------------------------------------------------------- unit primitives

Status StripeStore::gather(IoClass io_class, std::span<const Physical> units,
                           std::size_t num_alias, std::span<std::uint8_t> slab,
                           std::span<std::span<const std::uint8_t>> bytes,
                           bool verify, std::span<Status> statuses) const {
  const auto slice = [&](std::size_t i) {
    return slab.subspan(i * unit_bytes_, unit_bytes_);
  };
  Status io;
  if (!views_.empty()) {
    for (std::size_t i = 0; i < units.size(); ++i) {
      const auto image = views_[units[i].disk].subspan(
          static_cast<std::size_t>(byte_offset(units[i].offset)), unit_bytes_);
      if (i < num_alias) {
        bytes[i] = image;
      } else {
        std::memcpy(slice(i).data(), image.data(), unit_bytes_);
        bytes[i] = slice(i);
      }
    }
    std::fill(statuses.begin(), statuses.end(), OkStatus());
  } else if (units.size() == 1 && io_class == IoClass::kForegroundRead) {
    // A lone foreground read (every direct read): read() is exactly a
    // one-request batch of this class on every backend, without the
    // batch bookkeeping.
    bytes[0] = slice(0);
    io = backend_->read(units[0].disk, byte_offset(units[0].offset), slice(0));
    if (!statuses.empty()) statuses[0] = io;
    if (!io.ok() && statuses.empty()) return io;
  } else {
    thread_local std::vector<IoRequest> reads;
    reads.clear();
    for (std::size_t i = 0; i < units.size(); ++i) {
      reads.push_back(IoRequest::read_of(io_class, units[i].disk,
                                         byte_offset(units[i].offset),
                                         slice(i)));
      bytes[i] = slice(i);
    }
    io = backend_->execute_batch(reads);
    for (std::size_t i = 0; i < statuses.size(); ++i)
      statuses[i] = reads[i].status;
    if (!io.ok() && statuses.empty()) return io;
  }
  if (!verify || !integrity_) return io;
  Status rot;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!statuses.empty() && !statuses[i].ok()) continue;
    if (verify_unit_crc(units[i], bytes[i])) continue;
    Status bad = Status::checksum_mismatch(
        "unit (disk " + std::to_string(units[i].disk) + ", unit " +
        std::to_string(units[i].offset) + ") failed CRC32C verification");
    if (statuses.empty()) return bad;
    if (rot.ok()) rot = bad;
    statuses[i] = std::move(bad);
  }
  return io.ok() ? rot : io;
}

Status StripeStore::scatter(std::span<IoRequest> writes, bool journal,
                            bool* in_step) {
  const auto execute = [&](std::span<IoRequest> batch) {
    return journal ? execute_batch_journaled(batch)
                   : backend_->execute_batch(batch);
  };
  if (!integrity_) return execute(writes);
  // The checksum words ride in the SAME batch -- and the same journal
  // record -- as the unit writes, so replay restores units and
  // checksums together.  The cache adopts the word of every unit write
  // that landed, whatever became of the rest of the batch: it always
  // describes the bytes on media.
  thread_local std::vector<IoRequest> batch;
  thread_local std::vector<std::array<std::uint8_t, 4>> words;
  thread_local std::vector<IoRequest> resync;
  words.resize(writes.size());
  batch.assign(writes.begin(), writes.end());
  for (std::size_t i = 0; i < writes.size(); ++i) {
    const IoRequest& w = writes[i];
    const std::uint32_t crc = core::crc32c_nonzero(w.write_buf);
    std::memcpy(words[i].data(), &crc, 4);
    batch.push_back(IoRequest::write_of(
        w.io_class, w.disk, crc_media_offset(w.offset / unit_bytes_),
        words[i]));
  }
  const Status done = execute(batch);
  // A unit whose write and checksum word did not share one outcome
  // leaves a word on media that disagrees with the unit's bytes -- a
  // restart would read the unit as rot.  Write the cached word back
  // (no journal record: each word stands alone).
  resync.clear();
  for (std::size_t i = 0; i < writes.size(); ++i) {
    std::uint32_t& cached =
        crc_[writes[i].disk][writes[i].offset / unit_bytes_];
    writes[i].status = batch[i].status;
    if (writes[i].status.ok()) std::memcpy(&cached, words[i].data(), 4);
    const IoRequest& word = batch[writes.size() + i];
    if (writes[i].status.ok() == word.status.ok()) continue;
    std::memcpy(words[i].data(), &cached, 4);
    resync.push_back(IoRequest::write_of(word.io_class, word.disk,
                                         word.offset, words[i]));
  }
  if (!resync.empty() && !backend_->execute_batch(resync).ok() && in_step)
    *in_step = false;
  return done;
}

template <class PreImage>
StripeStore::Committed StripeStore::commit(std::uint64_t instance,
                                           std::span<IoRequest> writes,
                                           const PreImage& pre_image,
                                           const char* what) {
  bool in_step = true;
  const Status stored = scatter(writes, true, &in_step);
  if (stored.ok()) return {stored, true};
  // Nothing landed: the pre-image stands.  Every unit landed (only
  // checksum words failed): the post-image stands.  Otherwise put every
  // landed unit back, through scatter, so each one's checksum word and
  // cache entry return to the pre-image with it.  A caller retry is
  // then safe.
  const std::size_t landed = num_landed(writes);
  if (landed != 0 && landed != writes.size()) {
    std::vector<IoRequest> restore;
    for (std::size_t i = 0; i < writes.size(); ++i)
      if (writes[i].status.ok())
        restore.push_back(IoRequest::write_of(writes[i].io_class,
                                              writes[i].disk,
                                              writes[i].offset, pre_image(i)));
    (void)scatter(restore, true, &in_step);
    if (num_landed(restore) != landed) in_step = false;
  }
  if (in_step) return {stored, landed == writes.size()};
  // The restore ALSO failed (or a checksum word could not be put back):
  // media no longer says what the stripe holds, and nothing in the
  // stripe records it.  Record the tear so parity-trusting paths
  // (degraded reads, rebuild decodes) refuse the instance until a heal
  // re-encodes it.
  mark_torn(instance);
  return {Status::parity_inconsistent(
              std::string(what) + " rollback failed after a failed stripe "
              "write (" + stored.message() +
              "); stripe instance marked parity-torn"),
          false};
}

// ---------------------------------------------------- integrity internals

bool StripeStore::verify_unit_crc(Physical p,
                                  std::span<const std::uint8_t> bytes) const {
  if (!integrity_) return true;
  const std::uint32_t stored = crc_[p.disk][p.offset];
  if (stored == 0) return true;  // unverified: no claim to check against
  if (core::crc32c_nonzero(bytes) == stored) {
    sync_->crc_verified.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  sync_->crc_mismatches.fetch_add(1, std::memory_order_relaxed);
  return false;
}

Status StripeStore::set_fresh_crc(Physical p,
                                  std::span<const std::uint8_t> bytes) {
  if (!integrity_) return OkStatus();
  crc_[p.disk][p.offset] = core::crc32c_nonzero(bytes);
  std::array<std::uint8_t, 4> word;
  std::memcpy(word.data(), &crc_[p.disk][p.offset], 4);
  return backend_->write(p.disk, crc_media_offset(p.offset), word);
}

Status StripeStore::execute_batch_journaled(std::span<IoRequest> batch) {
  if (!backend_->journaled()) return backend_->execute_batch(batch);
  auto token = backend_->journal_begin(batch);
  if (!token.ok()) {
    // kUnsupported (no writes, record too big) degrades to the plain
    // unjournaled batch; a real journal failure aborts before any
    // in-place write starts.
    if (token.status().code() == StatusCode::kUnsupported)
      return backend_->execute_batch(batch);
    for (IoRequest& request : batch) request.status = token.status();
    return token.status();
  }
  const Status executed = backend_->execute_batch(batch);
  // Retire the record on EVERY exit: on success the writes are all
  // in place; on partial failure commit() rolls back to the pre-write
  // image -- either way the record must not replay over the
  // state this call reports.  A crash BETWEEN the in-place writes and
  // this retire replays the full record, which is exactly the
  // consistent post-image.
  (void)backend_->journal_commit(*token);
  return executed;
}

// -------------------------------------------------------------- data path

Status StripeStore::read(std::uint64_t logical, std::span<std::uint8_t> out,
                         ReadReceipt* receipt) {
  if (logical >= num_logical_units())
    return Status::out_of_range("logical " + std::to_string(logical) +
                                " past the address space (" +
                                std::to_string(num_logical_units()) +
                                " units)");
  if (out.size() != unit_bytes_)
    return Status::invalid_argument(
        "read buffer is " + std::to_string(out.size()) + " bytes; units are " +
        std::to_string(unit_bytes_));

  std::shared_lock state(sync_->state);
  for (int attempt = 0;; ++attempt) {
    Status served;
    {
      std::shared_lock stripe(shard_for(logical));
      served = read_locked(logical, out, receipt);
    }
    if (served.code() != StatusCode::kChecksumMismatch || attempt > 0)
      return served;
    // Detected rot: upgrade to the writer lock, heal the instance
    // through the codec, and retry the read once.  An unhealable
    // instance (rot past the codec's tolerance) surfaces the mismatch.
    const api::Array::LogicalRef ref = array_.logical_ref(logical);
    std::unique_lock stripe(shard_for(logical));
    (void)heal_instance_locked(ref.stripe,
                               static_cast<std::uint32_t>(ref.iteration),
                               nullptr);
  }
}

Status StripeStore::read_locked(std::uint64_t logical,
                                std::span<std::uint8_t> out,
                                ReadReceipt* receipt) {
  std::array<Physical, 64> survivors;
  std::array<std::uint32_t, 64> survivor_idx;
  const auto plan = array_.locate(
      logical, survivors, {survivor_idx.data(), survivor_idx.size()});
  if (!plan.ok()) return plan.status();
  const auto served_from_cache = [&] {
    if (receipt) {
      receipt->kind = plan->kind;
      receipt->num_touched = 0;
    }
    return OkStatus();
  };

  switch (plan->kind) {
    case api::ReadPlan::Kind::kDirect: {
      std::uint32_t heat = 0;
      if (cache_) {
        const std::uint64_t instance = instance_of(logical);
        heat = cache_->note(instance);
        // Read-your-writes: an absorbed (not yet folded) write's pinned
        // bytes are the unit's current value; media is one fold behind.
        if (StripeCache::DirtyEntry* entry = cache_->dirty_find(instance))
          if (const StripeCache::DirtyUnit* unit = entry->find(logical)) {
            std::memcpy(out.data(), unit->bytes.data(), unit_bytes_);
            cache_->count_hit();
            return served_from_cache();
          }
        // Cached payloads were CRC-verified at fill and invalidated on
        // every write -- serving them touches no disk.
        if (cache_->lookup(logical, out)) return served_from_cache();
      }
      std::span<const std::uint8_t> loaded;
      if (Status got = gather(IoClass::kForegroundRead, {&plan->target, 1}, 0,
                              out, {&loaded, 1}, true);
          !got.ok())
        return in_context(std::move(got), "logical " + std::to_string(logical));
      if (cache_ && heat >= cache_->options().hot_threshold)
        cache_->fill(logical, out);
      if (receipt) {
        receipt->kind = plan->kind;
        receipt->num_touched = 1;
        receipt->touched[0] = plan->target;
      }
      return OkStatus();
    }
    case api::ReadPlan::Kind::kDegraded: {
      if (is_torn(instance_of(logical)))
        return Status::parity_inconsistent(
            "logical " + std::to_string(logical) +
            " needs degraded reconstruction, but its stripe instance is "
            "parity-torn (a prior write's rollback failed)");
      std::uint32_t heat = 0;
      if (cache_) {
        // The cache is keyed by LOGICAL address and holds logical
        // content, so a hit legitimately short-circuits the whole
        // survivor fan-in + decode (dirty instances are never degraded
        // -- fail_disk flushes the table first -- so no pin check).
        heat = cache_->note(instance_of(logical));
        if (cache_->lookup(logical, out)) return served_from_cache();
      }
      // ONE gather fans every survivor out (aliased in place when the
      // backend allows), then a single decode pass folds them into
      // `out`.  A degraded decode trusts every survivor byte, so each is
      // verified: rot in ANY of them would silently materialize as the
      // "reconstructed" unit.
      const std::uint32_t n = plan->num_survivors;
      std::array<std::span<const std::uint8_t>, 64> srcs;
      if (Status got = gather(IoClass::kForegroundRead, {survivors.data(), n},
                              n, arena(static_cast<std::size_t>(n) *
                                       unit_bytes_),
                              {srcs.data(), n}, true);
          !got.ok())
        return in_context(std::move(got),
                          "degraded read of logical " + std::to_string(logical));
      decode_unit(array_.codec(), plan->num_data, {srcs.data(), n},
                  {survivor_idx.data(), n},
                  {plan->erased_index.data(), plan->num_erased}, out);
      // Caching the decoded content lets the NEXT read of this hot unit
      // skip the whole fan-in; invalidate-on-write keeps it coherent.
      if (cache_ && heat >= cache_->options().hot_threshold)
        cache_->fill(logical, out);
      if (receipt) {
        receipt->kind = plan->kind;
        receipt->num_touched = n;
        std::copy_n(survivors.begin(), n, receipt->touched.begin());
      }
      return OkStatus();
    }
    case api::ReadPlan::Kind::kUnrecoverable:
      break;
  }
  if (receipt) {
    receipt->kind = api::ReadPlan::Kind::kUnrecoverable;
    receipt->num_touched = 0;
  }
  return Status::data_loss("logical " + std::to_string(logical) +
                           " is on a stripe that lost more units than its "
                           "codec tolerates");
}

Status StripeStore::read_batch(std::span<const std::uint64_t> logicals,
                               std::span<std::uint8_t> out,
                               std::span<Status> statuses,
                               std::span<ReadReceipt> receipts) {
  Status first = read_batch_once(logicals, out, statuses, receipts);
  if (!integrity_ || statuses.size() != logicals.size()) return first;
  bool any_mismatch = false;
  for (const Status& s : statuses)
    if (s.code() == StatusCode::kChecksumMismatch) any_mismatch = true;
  if (!any_mismatch) return first;
  // Heal-and-retry pass: the batch's locks are released, so each
  // mismatched unit goes back through read(), whose writer-locked heal
  // reconstructs the rotten bytes before re-serving.
  first = OkStatus();
  for (std::size_t i = 0; i < logicals.size(); ++i) {
    if (statuses[i].code() == StatusCode::kChecksumMismatch)
      statuses[i] = read(logicals[i],
                         out.subspan(i * unit_bytes_, unit_bytes_),
                         receipts.empty() ? nullptr : &receipts[i]);
    if (!statuses[i].ok() && first.ok()) first = statuses[i];
  }
  return first;
}

Status StripeStore::read_batch_once(std::span<const std::uint64_t> logicals,
                                    std::span<std::uint8_t> out,
                                    std::span<Status> statuses,
                                    std::span<ReadReceipt> receipts) {
  if (out.size() != logicals.size() * unit_bytes_)
    return Status::invalid_argument(
        "read_batch buffer is " + std::to_string(out.size()) + " bytes; " +
        std::to_string(logicals.size()) + " units need " +
        std::to_string(logicals.size() * static_cast<std::uint64_t>(
                                             unit_bytes_)));
  if (statuses.size() != logicals.size())
    return Status::invalid_argument(
        "read_batch statuses span is " + std::to_string(statuses.size()) +
        " wide; need one per unit (" + std::to_string(logicals.size()) + ")");
  if (!receipts.empty() && receipts.size() != logicals.size())
    return Status::invalid_argument(
        "read_batch receipts span is " + std::to_string(receipts.size()) +
        " wide; need none or one per unit (" +
        std::to_string(logicals.size()) + ")");
  if (logicals.empty()) return OkStatus();

  // Lock every involved stripe shard in a deadlock-free global order
  // (sorted by address, deduplicated) -- the batch-wide analogue of
  // read()'s single shard lock.  Shared: reads exclude only writers.
  // A batch that sweeps more than kMaxHeldShards distinct shards takes
  // the state lock exclusively instead -- writers hold state shared,
  // so an exclusive hold excludes them wholesale -- which bounds how
  // many locks one thread holds (ThreadSanitizer's deadlock detector
  // aborts past 64).
  std::vector<std::shared_mutex*> shards;
  shards.reserve(logicals.size());
  for (const std::uint64_t logical : logicals)
    if (logical < num_logical_units()) shards.push_back(&shard_for(logical));
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  constexpr std::size_t kMaxHeldShards = 16;
  std::shared_lock<std::shared_mutex> state(sync_->state, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive(sync_->state,
                                                std::defer_lock);
  std::vector<std::shared_lock<std::shared_mutex>> held;
  if (shards.size() > kMaxHeldShards) {
    exclusive.lock();
  } else {
    state.lock();
    held.reserve(shards.size());
    for (std::shared_mutex* shard : shards) held.emplace_back(*shard);
  }

  const auto out_slice = [&](std::size_t i) {
    return out.subspan(i * unit_bytes_, unit_bytes_);
  };

  // Plan phase: resolve every unit, serve cache hits, and list every
  // physical unit the rest touch -- direct targets and degraded
  // survivor sets alike -- for ONE gather below.
  struct Planned {
    api::ReadPlan plan;
    std::size_t first = 0;   ///< index into `touched`
    std::uint32_t count = 0;
    bool served = false;     ///< resolved from the cache in the plan phase
    std::uint32_t heat = 0;  ///< hotness estimate, for fill-on-miss
  };
  std::vector<Planned> planned(logicals.size());
  std::vector<std::array<Physical, 64>> survivor_sets(logicals.size());
  std::vector<std::array<std::uint32_t, 64>> survivor_indices(logicals.size());
  std::vector<Physical> touched;
  touched.reserve(logicals.size());
  Status first;
  const auto fail = [&](std::size_t i, Status status) {
    statuses[i] = std::move(status);
    if (!statuses[i].ok() && first.ok()) first = statuses[i];
  };

  for (std::size_t i = 0; i < logicals.size(); ++i) {
    statuses[i] = OkStatus();
    if (!receipts.empty()) {
      receipts[i].kind = api::ReadPlan::Kind::kUnrecoverable;
      receipts[i].num_touched = 0;
    }
    if (logicals[i] >= num_logical_units()) {
      fail(i, Status::out_of_range(
                  "logical " + std::to_string(logicals[i]) +
                  " past the address space (" +
                  std::to_string(num_logical_units()) + " units)"));
      continue;
    }
    const auto located = array_.locate(
        logicals[i], survivor_sets[i],
        {survivor_indices[i].data(), survivor_indices[i].size()});
    if (!located.ok()) {
      fail(i, located.status());
      continue;
    }
    const api::ReadPlan& plan = *located;
    planned[i].plan = plan;
    planned[i].first = touched.size();
    // Cache probe: pinned dirty bytes, then the read cache -- a hit
    // drops the unit from the fan-out entirely.  Torn degraded units
    // must still fail below, exactly as an uncached batch would.
    if (cache_ && (plan.kind == api::ReadPlan::Kind::kDirect ||
                   plan.kind == api::ReadPlan::Kind::kDegraded)) {
      const std::uint64_t instance = instance_of(logicals[i]);
      planned[i].heat = cache_->note(instance);
      if (plan.kind == api::ReadPlan::Kind::kDirect)
        if (StripeCache::DirtyEntry* entry = cache_->dirty_find(instance))
          if (const StripeCache::DirtyUnit* unit = entry->find(logicals[i])) {
            std::memcpy(out_slice(i).data(), unit->bytes.data(), unit_bytes_);
            cache_->count_hit();
            planned[i].served = true;
          }
      if (!planned[i].served &&
          !(plan.kind == api::ReadPlan::Kind::kDegraded &&
            is_torn(instance)) &&
          cache_->lookup(logicals[i], out_slice(i)))
        planned[i].served = true;
      if (planned[i].served) {
        if (!receipts.empty()) {
          receipts[i].kind = plan.kind;
          receipts[i].num_touched = 0;
        }
        continue;
      }
    }
    switch (plan.kind) {
      case api::ReadPlan::Kind::kDirect:
        touched.push_back(plan.target);
        planned[i].count = 1;
        break;
      case api::ReadPlan::Kind::kDegraded:
        if (is_torn(instance_of(logicals[i]))) {
          fail(i, Status::parity_inconsistent(
                      "logical " + std::to_string(logicals[i]) +
                      " needs degraded reconstruction, but its stripe "
                      "instance is parity-torn (a prior write's rollback "
                      "failed)"));
          break;
        }
        touched.insert(touched.end(), survivor_sets[i].begin(),
                       survivor_sets[i].begin() + plan.num_survivors);
        planned[i].count = plan.num_survivors;
        break;
      case api::ReadPlan::Kind::kUnrecoverable:
        fail(i, Status::data_loss("logical " + std::to_string(logicals[i]) +
                                  " is on a stripe that lost more units than "
                                  "its codec tolerates"));
        break;
    }
  }

  // Fan-out phase: the whole batch crosses the backend seam ONCE (or
  // aliases the images), every touched unit verified on the way.
  std::vector<std::span<const std::uint8_t>> bytes(touched.size());
  std::vector<Status> outcomes(touched.size());
  if (!touched.empty())
    (void)gather(IoClass::kForegroundRead, touched, touched.size(),
                 arena(touched.size() * unit_bytes_), bytes, true, outcomes);

  // Resolve phase: per-unit statuses, decodes, receipts.
  for (std::size_t i = 0; i < logicals.size(); ++i) {
    const Planned& p = planned[i];
    if (!statuses[i].ok() || p.served) continue;
    Status unit;
    for (std::uint32_t r = 0; r < p.count && unit.ok(); ++r)
      unit = outcomes[p.first + r];
    if (!unit.ok()) {
      fail(i, in_context(std::move(unit), "batched read of logical " +
                                              std::to_string(logicals[i])));
      continue;
    }
    if (p.plan.kind == api::ReadPlan::Kind::kDirect)
      std::memcpy(out_slice(i).data(), bytes[p.first].data(), unit_bytes_);
    else
      decode_unit(array_.codec(), p.plan.num_data, {&bytes[p.first], p.count},
                  {survivor_indices[i].data(), p.count},
                  {p.plan.erased_index.data(), p.plan.num_erased},
                  out_slice(i));
    if (cache_ && p.heat >= cache_->options().hot_threshold)
      cache_->fill(logicals[i], out_slice(i));
    if (!receipts.empty()) {
      receipts[i].kind = p.plan.kind;
      receipts[i].num_touched = p.count;
      std::copy_n(touched.begin() + static_cast<std::ptrdiff_t>(p.first),
                  p.count, receipts[i].touched.begin());
    }
  }
  return first;
}

Status StripeStore::write(std::uint64_t logical,
                          std::span<const std::uint8_t> data,
                          WriteReceipt* receipt) {
  if (logical >= num_logical_units())
    return Status::out_of_range("logical " + std::to_string(logical) +
                                " past the address space (" +
                                std::to_string(num_logical_units()) +
                                " units)");
  if (data.size() != unit_bytes_)
    return Status::invalid_argument(
        "write buffer is " + std::to_string(data.size()) +
        " bytes; units are " + std::to_string(unit_bytes_));

  std::shared_lock state(sync_->state);
  // Time-triggered flush sweep, BEFORE taking this write's own shard
  // lock (the sweep takes each dirty instance's shard lock in turn --
  // including, possibly, this write's).  One writer wins the interval
  // CAS and pays the sweep; errors are not this write's to report (the
  // entries stay dirty and the next trigger retries).
  if (cache_ && cache_->any_dirty() && cache_->flush_due())
    (void)flush_dirty_shared();
  std::unique_lock stripe(shard_for(logical));

  for (int attempt = 0;; ++attempt) {
    Status wrote = write_locked(logical, data, receipt);
    if (wrote.code() != StatusCode::kChecksumMismatch || attempt > 0)
      return wrote;
    // A unit loaded for parity maintenance (old data, old parity, or a
    // reconstruct peer) failed verification: heal the instance under
    // the already-held writer lock and retry the plan once.
    const api::Array::LogicalRef ref = array_.logical_ref(logical);
    (void)heal_instance_locked(ref.stripe,
                               static_cast<std::uint32_t>(ref.iteration),
                               nullptr);
  }
}

Status StripeStore::write_locked(std::uint64_t logical,
                                 std::span<const std::uint8_t> data,
                                 WriteReceipt* receipt) {
  std::array<Physical, 64> peers;
  std::array<std::uint32_t, 64> peer_idx;
  const auto plan = array_.plan_write(logical, peers,
                                      {peer_idx.data(), peer_idx.size()});
  if (!plan.ok()) return plan.status();
  if (receipt) {
    receipt->kind = plan->kind;
    receipt->num_reads = 0;
    receipt->num_writes = 0;
  }
  const std::uint64_t instance = instance_of(logical);
  if (cache_) {
    cache_->note(instance);
    // The ONE coherence rule: every write drops the unit's cached
    // payload (the absorb path re-pins the new bytes itself).
    cache_->invalidate(logical);
  }

  switch (plan->kind) {
    case api::WritePlan::Kind::kReadModifyWrite: {
      // A torn instance's parity cannot absorb a delta -- but all data
      // units are intact here, so the write doubles as the heal: the
      // whole stripe is re-encoded with the new bytes laid over it.
      if (is_torn(instance)) {
        if (cache_)
          if (StripeCache::DirtyEntry* entry = cache_->dirty_find(instance)) {
            // Torn WITH absorbed writes pending: a re-encode of this
            // write alone would read stale media peers.  Pin it into
            // the entry and fold the whole instance as one re-encode,
            // which heals the parity AND lands every absorbed write.
            entry->pin(logical, plan->data, plan->data_index, data);
            return fold_instance_locked(instance);
          }
        const StripeCache::DirtyUnit incoming{
            logical, plan->data, plan->data_index,
            std::vector<std::uint8_t>(data.begin(), data.end())};
        return fold_reencode_locked(instance, {&incoming, 1}, receipt);
      }
      if (cache_ && array_.healthy()) {
        bool handled = false;
        Status absorbed = absorb_rmw(*plan, logical, data, instance,
                                     receipt, &handled);
        if (handled) return absorbed;
      }
      return write_rmw(*plan, data, instance, receipt);
    }
    case api::WritePlan::Kind::kReconstructWrite: {
      // The addressed data unit is lost, so the stripe's OTHER lost data
      // (if any) can only be recovered through parity -- which a torn
      // instance forbids trusting.  Healing is impossible too (a data
      // unit is gone), so the write must fail until a rebuild re-creates
      // the lost unit.
      if (is_torn(instance))
        return Status::parity_inconsistent(
            "logical " + std::to_string(logical) +
            " needs a reconstruct-write, but its stripe instance is "
            "parity-torn and degraded (unhealable until rebuilt)");
      return write_reconstruct(
          *plan, {peers.data(), plan->num_peer_reads},
          {peer_idx.data(), plan->num_peer_reads}, data, instance, receipt);
    }
    case api::WritePlan::Kind::kUnprotectedWrite: {
      // No parity to keep in step, so nothing to journal.
      IoRequest store = IoRequest::write_of(IoClass::kForegroundWrite,
                                            plan->data.disk,
                                            byte_offset(plan->data.offset),
                                            data);
      if (Status stored = scatter({&store, 1}, false); !stored.ok())
        return stored;
      if (receipt) {
        receipt->num_writes = 1;
        receipt->writes[0] = plan->data;
      }
      return OkStatus();
    }
    case api::WritePlan::Kind::kUnrecoverable:
      break;
  }
  return Status::data_loss("logical " + std::to_string(logical) +
                           " is on a stripe that lost more units than its "
                           "codec tolerates");
}

Status StripeStore::write_rmw(const api::WritePlan& plan,
                              std::span<const std::uint8_t> data,
                              std::uint64_t instance, WriteReceipt* receipt) {
  const core::Codec& codec = array_.codec();
  const std::uint32_t np = plan.num_parities;

  // ONE gather loads the old data plus every surviving parity (distinct
  // disks by construction; copied, since this write overwrites them and
  // they are the pre-image a failed commit restores), the coefficient
  // folds happen in memory, then ONE commit stores the new data plus
  // every new parity.  Every pre-image is verified before the first
  // fold: rot would otherwise be laundered into the new parity.
  std::array<Physical, 1 + api::kMaxParityUnits> pre;
  pre[0] = plan.data;
  for (std::uint32_t j = 0; j < np; ++j) pre[1 + j] = plan.parity_targets[j];
  const auto slab = arena((1 + static_cast<std::size_t>(np)) * unit_bytes_);
  std::array<std::span<const std::uint8_t>, 1 + api::kMaxParityUnits> loaded;
  if (Status got = gather(IoClass::kForegroundWrite, {pre.data(), 1u + np}, 0,
                          slab, {loaded.data(), 1u + np}, true);
      !got.ok())
    return in_context(std::move(got), "RMW");
  const auto old_data = slab.first(unit_bytes_);
  const auto parity_buf = [&](std::uint32_t j) {
    return slab.subspan((1 + static_cast<std::size_t>(j)) * unit_bytes_,
                        unit_bytes_);
  };
  // Each parity folds c_j * (old ^ new): the delta is computed once and
  // each parity folds it through the codec.
  const auto delta = scratch(0, unit_bytes_);
  const std::span<const std::uint8_t> change[] = {old_data, data};
  core::xor_parity_into(delta, change);
  const auto fold = [&](std::uint32_t j) {
    codec.update(parity_buf(j), plan.parity_index[j], plan.data_index, delta);
  };
  for (std::uint32_t j = 0; j < np; ++j) fold(j);

  std::array<IoRequest, 1 + api::kMaxParityUnits> stores;
  stores[0] = IoRequest::write_of(IoClass::kForegroundWrite, plan.data.disk,
                                  byte_offset(plan.data.offset), data);
  for (std::uint32_t j = 0; j < np; ++j)
    stores[1 + j] = IoRequest::write_of(
        IoClass::kForegroundWrite, plan.parity_targets[j].disk,
        byte_offset(plan.parity_targets[j].offset), parity_buf(j));
  // A landed parity's pre-image is the same fold again (each fold is an
  // involution), so the happy path copies nothing.
  const auto pre_image = [&](std::size_t i) -> std::span<const std::uint8_t> {
    if (i == 0) return old_data;
    fold(static_cast<std::uint32_t>(i - 1));
    return parity_buf(static_cast<std::uint32_t>(i - 1));
  };
  if (Status committed =
          commit(instance, {stores.data(), 1u + np}, pre_image, "RMW").status;
      !committed.ok())
    return committed;
  if (receipt) {
    receipt->num_reads = 1 + np;
    receipt->reads[0] = plan.data;
    receipt->num_writes = 1 + np;
    receipt->writes[0] = plan.data;
    for (std::uint32_t j = 0; j < np; ++j) {
      receipt->reads[1 + j] = plan.parity_targets[j];
      receipt->writes[1 + j] = plan.parity_targets[j];
    }
  }
  return OkStatus();
}

Status StripeStore::write_reconstruct(const api::WritePlan& plan,
                                      std::span<const Physical> peers,
                                      std::span<const std::uint32_t> peer_index,
                                      std::span<const std::uint8_t> data,
                                      std::uint64_t instance,
                                      WriteReceipt* receipt) {
  const core::Codec& codec = array_.codec();
  const std::uint32_t n = static_cast<std::uint32_t>(peers.size());
  const std::uint32_t np = plan.num_parities;
  const std::uint32_t m = array_.num_parity_units();
  const std::uint32_t kd = plan.num_data;
  // The surviving OLD parities are loaded only when the codec keeps more
  // than one: they feed the decode of a second erased unit and are the
  // pre-image of a partial multi-parity commit.  A single parity write
  // lands or does not, so there is nothing to roll back.
  const std::uint32_t no = m > 1 ? np : 0;

  // Slab layout: n peer slices | no old-parity slices | m decode
  // buffers | m re-encoded parity buffers.
  const auto slab = arena(
      (static_cast<std::size_t>(n) + no + 2 * static_cast<std::size_t>(m)) *
      unit_bytes_);
  const auto slice = [&](std::size_t i) {
    return slab.subspan(i * unit_bytes_, unit_bytes_);
  };

  // Survivor set for the decode AND the rollback: peers first, then the
  // old parities, in ONE gather.  Peers may alias; the old parities are
  // copied -- this write overwrites them.  The decode AND the re-encode
  // below trust every survivor byte, so all are verified.
  std::array<Physical, 64> loads;
  std::array<std::span<const std::uint8_t>, 64> survivors;
  std::array<std::uint32_t, 64> survivor_idx;
  for (std::uint32_t i = 0; i < n; ++i) {
    loads[i] = peers[i];
    survivor_idx[i] = peer_index[i];
  }
  for (std::uint32_t j = 0; j < no; ++j) {
    loads[n + j] = plan.parity_targets[j];
    survivor_idx[n + j] = kd + plan.parity_index[j];
  }
  if (Status got = gather(
          IoClass::kForegroundWrite, {loads.data(), n + no}, n,
          slab.first((static_cast<std::size_t>(n) + no) * unit_bytes_),
          {survivors.data(), n + no}, true);
      !got.ok())
    return in_context(std::move(got), "reconstruct-write");

  // Assemble the full data set: the new bytes stand in for the lost
  // addressed unit, and any OTHER erased data unit is decoded from the
  // old stripe state first (the survivor set excludes every erased
  // unit, so the decode sees a consistent code word).
  std::array<std::span<const std::uint8_t>, 64> data_spans;
  for (std::uint32_t i = 0; i < n; ++i) data_spans[peer_index[i]] = survivors[i];
  data_spans[plan.data_index] = data;
  bool any_decode = false;
  std::array<std::span<std::uint8_t>, api::kMaxParityUnits> outs{};
  for (std::uint32_t e = 1; e < plan.num_erased; ++e) {
    if (plan.erased_index[e] >= kd) continue;  // erased parity: re-encoded below
    outs[e] = slice(static_cast<std::size_t>(n) + no + e);
    any_decode = true;
  }
  if (any_decode) {
    codec.reconstruct(kd, {survivors.data(), n + no},
                      {survivor_idx.data(), n + no},
                      {plan.erased_index.data(), plan.num_erased},
                      {outs.data(), plan.num_erased});
    for (std::uint32_t e = 1; e < plan.num_erased; ++e)
      if (plan.erased_index[e] < kd) data_spans[plan.erased_index[e]] = outs[e];
  }

  // Re-encode EVERY parity from the assembled data, then store the
  // surviving ones (the erased parities have nowhere to go -- rebuild
  // re-creates them).
  std::array<std::span<std::uint8_t>, api::kMaxParityUnits> parity_out;
  for (std::uint32_t j = 0; j < m; ++j)
    parity_out[j] = slice(static_cast<std::size_t>(n) + no + m + j);
  codec.encode({data_spans.data(), kd}, {parity_out.data(), m});

  std::array<IoRequest, api::kMaxParityUnits> stores;
  for (std::uint32_t j = 0; j < np; ++j)
    stores[j] = IoRequest::write_of(
        IoClass::kForegroundWrite, plan.parity_targets[j].disk,
        byte_offset(plan.parity_targets[j].offset),
        parity_out[plan.parity_index[j]]);
  // Rolling a landed parity back to its old bytes keeps the stripe
  // encoding the OLD value of the lost unit, so a degraded read stays
  // consistent.  (Reached only with more than one parity write.)
  const auto pre_image = [&](std::size_t j) { return survivors[n + j]; };
  if (Status committed = commit(instance, {stores.data(), np}, pre_image,
                                "reconstruct-write")
                             .status;
      !committed.ok())
    return committed;
  if (receipt) {
    receipt->num_reads = n + no;
    for (std::uint32_t i = 0; i < n; ++i) receipt->reads[i] = peers[i];
    for (std::uint32_t j = 0; j < no; ++j)
      receipt->reads[n + j] = plan.parity_targets[j];
    receipt->num_writes = np;
    for (std::uint32_t j = 0; j < np; ++j)
      receipt->writes[j] = plan.parity_targets[j];
  }
  return OkStatus();
}

// ------------------------------------------------------ cache internals

Status StripeStore::absorb_rmw(const api::WritePlan& plan,
                               std::uint64_t logical,
                               std::span<const std::uint8_t> data,
                               std::uint64_t instance, WriteReceipt* receipt,
                               bool* handled) {
  *handled = false;
  StripeCache::DirtyEntry* entry = cache_->dirty_find(instance);
  if (!entry) {
    // Only HOT instances are worth pinning memory for; everything else
    // falls through to the immediate RMW paths.  So does a hot
    // instance when the table is full.
    if (!cache_->hot(instance)) return OkStatus();
    bool created = false;
    entry = cache_->dirty_ensure(instance, plan.num_parities, &created);
    if (!entry) return OkStatus();
    if (created)
      for (std::uint32_t j = 0; j < plan.num_parities; ++j) {
        entry->parity_home[j] = plan.parity_targets[j];
        entry->parity_index[j] = plan.parity_index[j];
      }
  }
  *handled = true;

  // Old bytes: the previously PINNED value when re-writing an
  // already-dirty unit (zero media traffic -- this is where the hot
  // set's RMW tax disappears), otherwise the unit's media pre-image
  // (aliased when the backend allows: absorbing writes no media).
  const core::Codec& codec = array_.codec();
  StripeCache::DirtyUnit* unit = entry->find(logical);
  std::span<const std::uint8_t> old;
  if (unit) {
    old = unit->bytes;
  } else if (Status got = gather(IoClass::kForegroundWrite, {&plan.data, 1}, 1,
                                 scratch(1, unit_bytes_), {&old, 1}, true);
             !got.ok()) {
    if (entry->units.empty()) cache_->dirty_erase(instance);
    return in_context(std::move(got), "absorbed RMW");
  }

  // Accumulate c_j * (old ^ new) into each parity's delta, then pin
  // the new bytes as the unit's current value.  Re-absorbing the same
  // unit is exact: its pinned bytes are the "old" the delta folds
  // against, so the accumulated sum telescopes.
  const auto delta = scratch(0, unit_bytes_);
  const std::span<const std::uint8_t> change[] = {old, data};
  core::xor_parity_into(delta, change);
  for (std::uint32_t j = 0; j < entry->num_parity; ++j)
    codec.update(entry->delta[j], entry->parity_index[j], plan.data_index,
                 delta);
  entry->pin(logical, plan.data, plan.data_index, data);
  cache_->count_absorb();
  if (receipt) {
    // Same shape an immediate RMW would report: the units the write
    // LOGICALLY involves (the fold does the physical I/O later).
    receipt->num_reads = 1 + entry->num_parity;
    receipt->reads[0] = plan.data;
    receipt->num_writes = 1 + entry->num_parity;
    receipt->writes[0] = plan.data;
    for (std::uint32_t j = 0; j < entry->num_parity; ++j) {
      receipt->reads[1 + j] = entry->parity_home[j];
      receipt->writes[1 + j] = entry->parity_home[j];
    }
  }

  // Size trigger: a full entry folds inline under the already-held
  // locks (this bounds the fold's journal record too).  Capped at the
  // stripe's data width -- a narrow stripe (RS P+Q keeps few data
  // units) fills completely before a large max_dirty_units would ever
  // fire.  A kChecksumMismatch propagates to write()'s heal-and-retry
  // loop; the retried write re-absorbs idempotently and re-triggers.
  const std::size_t fold_at = std::min<std::size_t>(
      cache_->options().max_dirty_units, plan.num_data);
  if (entry->units.size() >= std::max<std::size_t>(fold_at, 1))
    return fold_instance_locked(instance);
  return OkStatus();
}

Status StripeStore::fold_instance_locked(std::uint64_t instance) {
  StripeCache::DirtyEntry* entry = cache_->dirty_find(instance);
  if (!entry) return OkStatus();
  const auto nd = static_cast<std::uint32_t>(entry->units.size());
  if (nd == 0) {
    cache_->dirty_erase(instance);
    return OkStatus();
  }
  // Once the fold's post-image has landed the deltas are spent.
  const auto retire = [&](Status folded) {
    cache_->count_fold(nd);
    cache_->dirty_erase(instance);
    return folded;
  };
  if (is_torn(instance)) {
    Status healed = fold_reencode_locked(instance, entry->units, nullptr);
    return is_torn(instance) ? healed : retire(std::move(healed));
  }

  const std::uint32_t np = entry->num_parity;
  // ONE gather of every pre-image the fold overwrites -- np parities,
  // then nd dirty units -- all copied (a failed commit restores them),
  // into a local slab, NOT the thread_local scratch/arena (the inline-
  // fold caller is mid-absorb).  Verified BEFORE folding -- rot would
  // otherwise be laundered into the new parity.  The entry survives a
  // mismatch: the caller heals (which restores the original code word,
  // keeping the accumulated deltas applicable) and retries.
  std::vector<Physical> homes(static_cast<std::size_t>(np) + nd);
  for (std::uint32_t j = 0; j < np; ++j) homes[j] = entry->parity_home[j];
  for (std::uint32_t i = 0; i < nd; ++i) homes[np + i] = entry->units[i].home;
  std::vector<std::uint8_t> slab(homes.size() * unit_bytes_);
  std::vector<std::span<const std::uint8_t>> loaded(homes.size());
  if (Status got =
          gather(IoClass::kForegroundWrite, homes, 0, slab, loaded, true);
      !got.ok())
    return in_context(std::move(got), "parity-delta fold");
  const auto slice = [&](std::size_t i) {
    return std::span<std::uint8_t>(slab).subspan(i * unit_bytes_,
                                                 unit_bytes_);
  };

  // parity_new = parity_old ^ accumulated delta.  Linearity over the
  // codec's field makes this byte-identical to folding every absorbed
  // write through per-op RMW, in any order.
  for (std::uint32_t j = 0; j < np; ++j)
    core::xor_into(slice(j), entry->delta[j]);

  // ONE commit: every dirty data unit, every folded parity, and their
  // checksums.  A crash mid-fold replays the whole record -- the
  // consistent post-image -- on reopen.  A rolled-back fold KEEPS the
  // entry: its deltas are still valid against the restored image, and a
  // later flush retries.
  std::vector<IoRequest> stores(static_cast<std::size_t>(nd) + np);
  for (std::uint32_t i = 0; i < nd; ++i)
    stores[i] = IoRequest::write_of(
        IoClass::kForegroundWrite, entry->units[i].home.disk,
        byte_offset(entry->units[i].home.offset), entry->units[i].bytes);
  for (std::uint32_t j = 0; j < np; ++j)
    stores[nd + j] = IoRequest::write_of(
        IoClass::kForegroundWrite, entry->parity_home[j].disk,
        byte_offset(entry->parity_home[j].offset), slice(j));
  const auto pre_image = [&](std::size_t i) -> std::span<const std::uint8_t> {
    if (i < nd) return slice(np + i);
    core::xor_into(slice(i - nd), entry->delta[i - nd]);  // involution
    return slice(i - nd);
  };
  Committed folded = commit(instance, stores, pre_image, "parity-delta fold");
  return folded.landed ? retire(std::move(folded.status)) : folded.status;
}

Status StripeStore::fold_reencode_locked(
    std::uint64_t instance, std::span<const StripeCache::DirtyUnit> overlay,
    WriteReceipt* receipt) {
  // Torn: the instance's parity no longer matches its data, so no delta
  // can be folded into it.  Re-encode every surviving parity from the
  // complete data set instead -- media data units with the overlay laid
  // over -- which is consistent BY CONSTRUCTION, whatever the torn
  // parity units hold.  Pre-images are NOT checksum-verified: a torn
  // instance's parity is untrustworthy by definition, so rot in a data
  // unit would be unhealable anyway -- the re-encode takes the data
  // bytes as ground truth.
  const core::Codec& codec = array_.codec();
  const std::uint32_t m = array_.num_parity_units();
  const auto stripe = static_cast<std::uint32_t>(instance %
                                                 array_.num_stripes());
  const std::uint64_t lift =
      instance / array_.num_stripes() * array_.units_per_disk();
  std::array<api::Array::StripeUnitStatus, 64> units;
  const auto width_r = array_.stripe_units(stripe, units);
  if (!width_r.ok()) return width_r.status();
  const std::uint32_t kd = *width_r - m;
  for (std::uint32_t u = 0; u < kd; ++u)
    if (units[u].lost)
      return Status::parity_inconsistent(
          "stripe instance is parity-torn AND degraded: a data unit is "
          "lost, so its parity cannot be re-encoded from data (unhealable "
          "until the lost unit is rebuilt from a replacement image)");

  // Present units: every data unit, then the surviving parities (a lost
  // parity is skipped -- rebuild re-creates it).  All copied: they are
  // the pre-image a failed commit restores.  The slab holds them, then
  // m new parities.
  std::array<Physical, 64> homes;
  std::array<std::uint32_t, api::kMaxParityUnits> parity_of;
  std::uint32_t present = 0;
  std::uint32_t np = 0;
  for (std::uint32_t u = 0; u < *width_r; ++u) {
    if (units[u].lost) continue;
    if (u >= kd) parity_of[np++] = u - kd;
    homes[present++] =
        Physical{units[u].unit.disk, units[u].unit.offset + lift};
  }
  std::vector<std::uint8_t> slab(
      (static_cast<std::size_t>(present) + m) * unit_bytes_);
  const auto slice = [&](std::size_t i) {
    return std::span<std::uint8_t>(slab).subspan(i * unit_bytes_,
                                                 unit_bytes_);
  };
  std::array<std::span<const std::uint8_t>, 64> loaded;
  if (Status got = gather(
          IoClass::kForegroundWrite, {homes.data(), present}, 0,
          std::span<std::uint8_t>(slab).first(present * unit_bytes_),
          {loaded.data(), present}, false);
      !got.ok())
    return got;

  std::array<std::span<const std::uint8_t>, 64> data_spans;
  for (std::uint32_t u = 0; u < kd; ++u) data_spans[u] = loaded[u];
  for (const StripeCache::DirtyUnit& u : overlay)
    data_spans[u.data_index] = u.bytes;
  std::array<std::span<std::uint8_t>, api::kMaxParityUnits> parity_out;
  for (std::uint32_t j = 0; j < m; ++j) parity_out[j] = slice(present + j);
  codec.encode({data_spans.data(), kd}, {parity_out.data(), m});

  const std::size_t nd = overlay.size();
  std::vector<IoRequest> stores(nd + np);
  for (std::size_t i = 0; i < nd; ++i)
    stores[i] = IoRequest::write_of(
        IoClass::kForegroundWrite, overlay[i].home.disk,
        byte_offset(overlay[i].home.offset), overlay[i].bytes);
  for (std::uint32_t j = 0; j < np; ++j)
    stores[nd + j] = IoRequest::write_of(
        IoClass::kForegroundWrite, homes[kd + j].disk,
        byte_offset(homes[kd + j].offset), parity_out[parity_of[j]]);
  const auto pre_image = [&](std::size_t i) {
    return i < nd ? loaded[overlay[i].data_index] : loaded[kd + i - nd];
  };
  // A rolled-back heal leaves the instance torn as it came in; the tear
  // clears only once the re-encoded parities have landed.
  Committed healed = commit(instance, stores, pre_image, "torn-parity heal");
  if (!healed.landed) return healed.status;
  clear_torn(instance);
  if (receipt) {
    receipt->num_reads = present;
    std::copy_n(homes.begin(), present, receipt->reads.begin());
    receipt->num_writes = 1 + np;
    receipt->writes[0] = overlay[0].home;
    for (std::uint32_t j = 0; j < np; ++j)
      receipt->writes[1 + j] = homes[kd + j];
  }
  return healed.status;
}

Status StripeStore::fold_healing_locked(std::uint64_t instance) {
  Status folded = fold_instance_locked(instance);
  if (folded.code() != StatusCode::kChecksumMismatch) return folded;
  // A rotten pre-image: heal it in place (the caller holds the instance
  // exclusively) and retry the fold once.
  (void)heal_instance_locked(
      static_cast<std::uint32_t>(instance % array_.num_stripes()),
      static_cast<std::uint32_t>(instance / array_.num_stripes()), nullptr);
  return fold_instance_locked(instance);
}

Status StripeStore::flush_dirty_shared() {
  Status first;
  for (const std::uint64_t instance : cache_->dirty_instances()) {
    std::unique_lock shard(sync_->shards[instance % sync_->shards.size()]);
    if (Status folded = fold_healing_locked(instance);
        !folded.ok() && first.ok())
      first = folded;
  }
  return first;
}

Status StripeStore::flush_dirty_exclusive() {
  if (!cache_ || !cache_->any_dirty()) return OkStatus();
  Status first;
  for (const std::uint64_t instance : cache_->dirty_instances())
    if (Status folded = fold_healing_locked(instance);
        !folded.ok() && first.ok())
      first = folded;
  return first;
}

Status StripeStore::flush_cache() {
  if (!cache_) return OkStatus();
  std::shared_lock state(sync_->state);
  return flush_dirty_shared();
}

Status StripeStore::sync() {
  std::unique_lock lock(sync_->state);  // exclude in-flight writers
  // Absorbed writes are not durable until folded: flush first, so the
  // backend sync below covers them.
  if (Status flushed = flush_dirty_exclusive(); !flushed.ok())
    return flushed;
  for (DiskId disk = 0; disk < array_.num_disks(); ++disk)
    if (Status synced = backend_->sync(disk); !synced.ok()) return synced;
  return OkStatus();
}

// ------------------------------------------------- failure & rebuild

Status StripeStore::fail_disk(DiskId disk) {
  std::unique_lock lock(sync_->state);
  // Fold every absorbed write FIRST: the dirty-table invariant (dirty
  // implies a fully healthy stripe) must hold before the failure lands,
  // and folding against the still-complete array is the only fold that
  // is consistent.  On a fold error the failure is refused -- the
  // caller retries after the underlying fault clears.
  if (Status flushed = flush_dirty_exclusive(); !flushed.ok())
    return flushed;
  if (Status failed = array_.fail_disk(disk); !failed.ok()) return failed;
  if (Status discarded = backend_->discard(disk, kPoison); !discarded.ok())
    return discarded;
  return reset_disk_crcs(disk);
}

Status StripeStore::replace_disk(DiskId disk) {
  std::unique_lock lock(sync_->state);
  if (Status replaced = array_.replace_disk(disk); !replaced.ok())
    return replaced;
  if (Status discarded = backend_->discard(disk, 0); !discarded.ok())
    return discarded;
  return reset_disk_crcs(disk);
}

Status StripeStore::reset_disk_crcs(DiskId disk) {
  // A discarded disk's units carry no valid checksums: zero the cache
  // and the media region ("unverified") so rebuilt units start clean --
  // discard() itself filled the region with the fill byte, which for
  // the poison fill would read as garbage claims.
  if (!integrity_) return OkStatus();
  std::fill(crc_[disk].begin(), crc_[disk].end(), 0u);
  const std::vector<std::uint8_t> zeros(crc_[disk].size() * 4, 0);
  return backend_->write(disk, crc_base_, zeros);
}

Status StripeStore::apply_step(const api::RebuildStep& step) {
  // A step that decodes DATA through parity must refuse torn instances:
  // their parity no longer encodes the on-disk data, so the decode would
  // materialize garbage as if it were the lost unit.  (A step that only
  // re-encodes parity FROM data is safe -- it overwrites, not trusts,
  // the parity bytes.)
  if (step_decodes_data(step))
    for (std::uint32_t it = 0; it < iterations_; ++it)
      if (is_torn(step.stripe +
                  static_cast<std::uint64_t>(it) * array_.num_stripes()))
        return Status::parity_inconsistent(
            "rebuild step for stripe " + std::to_string(step.stripe) +
            " would decode data through a parity-torn instance");

  // The step's ENTIRE survivor fan-in -- every survivor of every
  // iteration (the step reports iteration-0 offsets) -- is ONE
  // kRebuild-tagged gather (aliased when the backend allows), then one
  // decode pass per iteration into per-thread buffers reused across the
  // steps of a rebuild.
  const std::uint32_t n = static_cast<std::uint32_t>(step.reads.size());
  const std::size_t total = static_cast<std::size_t>(n) * iterations_;
  std::vector<Physical> sources(total);
  for (std::uint32_t it = 0; it < iterations_; ++it) {
    const std::uint64_t lift =
        static_cast<std::uint64_t>(it) * array_.units_per_disk();
    for (std::uint32_t i = 0; i < n; ++i)
      sources[static_cast<std::size_t>(it) * n + i] =
          Physical{step.reads[i].disk, step.reads[i].offset + lift};
  }
  std::vector<std::span<const std::uint8_t>> srcs(total);
  if (Status got = gather(IoClass::kRebuild, sources, total,
                          arena(total * unit_bytes_), srcs, true);
      !got.ok())
    return in_context(std::move(got),
                      "rebuild of stripe " + std::to_string(step.stripe));

  const auto rebuilt =
      scratch(0, static_cast<std::size_t>(iterations_) * unit_bytes_);
  thread_local std::vector<IoRequest> writes;
  writes.clear();
  const std::span<const std::uint32_t> erased{step.erased_index.data(),
                                              step.num_erased};
  for (std::uint32_t it = 0; it < iterations_; ++it) {
    const std::uint64_t lift =
        static_cast<std::uint64_t>(it) * array_.units_per_disk();
    const auto target = rebuilt.subspan(
        static_cast<std::size_t>(it) * unit_bytes_, unit_bytes_);
    decode_unit(array_.codec(), step.num_data,
                {srcs.data() + static_cast<std::size_t>(it) * n, n},
                step.read_indices, erased, target);
    writes.push_back(IoRequest::write_of(IoClass::kRebuild, step.target.disk,
                                         byte_offset(step.target.offset + lift),
                                         target));
  }

  // Rebuilt targets land with fresh checksums.  (Not journaled: a crash
  // here leaves at most the target units checksum-stale, which the
  // reopen-time heal reconstructs -- rebuild is re-runnable anyway.)
  if (Status stored = scatter(writes, false); !stored.ok()) return stored;
  return array_.apply_rebuild_step(step);
}

Result<std::uint64_t> StripeStore::rebuild_some(std::uint64_t max_steps,
                                                std::uint64_t* blocked) {
  std::uint64_t applied = 0;
  if (blocked) *blocked = 0;
  for (;;) {
    // Plan one batch and apply it inside ONE exclusive hold, so no
    // write, fail or replace can land between the plan and its steps.
    // The whole batch is applied before re-planning -- the same
    // plan-once-apply-all discipline as api::Array::rebuild, so the
    // store's target choices (spare vs replacement slot) match a bare
    // array's step for step.  The lock is released between batches.
    std::unique_lock lock(sync_->state);
    auto plan = array_.plan_rebuild();
    if (!plan.ok()) return plan.status();
    if (blocked) *blocked = plan->blocked;
    if (plan->steps.empty() || applied >= max_steps) return applied;
    for (const api::RebuildStep& step : plan->steps) {
      if (applied >= max_steps) break;
      Status done = apply_step(step);
      if (done.code() == StatusCode::kChecksumMismatch) {
        // A survivor failed verification: heal every iteration instance
        // of the stripe (the exclusive lock excludes all other traffic),
        // then retry the step once.  Unhealable rot surfaces the
        // mismatch.
        for (std::uint32_t it = 0; it < iterations_; ++it)
          (void)heal_instance_locked(step.stripe, it, nullptr);
        done = apply_step(step);
      }
      if (!done.ok()) return done;
      ++applied;
    }
  }
}

Result<api::RebuildOutcome> StripeStore::rebuild() {
  api::RebuildOutcome outcome;
  for (;;) {
    // The pass that finds nothing left to apply has already planned the
    // final state, so its blocked count is the outcome's.
    std::uint64_t blocked = 0;
    auto applied = rebuild_some(~0ull, &blocked);
    if (!applied.ok()) return applied.status();
    if (*applied == 0) {
      outcome.blocked = blocked;
      return outcome;
    }
    outcome.applied += *applied;
  }
}

// ------------------------------------------------------------ verification

Result<std::uint64_t> StripeStore::checksum_disk_locked(DiskId disk) const {
  // Data region only: the checksum region (under integrity) is derived
  // state, and two stores with identical content must checksum equal
  // regardless of which units have been verified/adopted so far.  The
  // image is hashed in runs of whole units, each one gather: aliased in
  // place when the backend allows, one batch through a bounded slab
  // otherwise.
  constexpr std::uint64_t kRun = 64;
  const std::uint64_t units = disk_bytes() / unit_bytes_;
  std::vector<std::uint8_t> slab(
      static_cast<std::size_t>(std::min(kRun, units)) * unit_bytes_);
  std::array<Physical, kRun> run;
  std::array<std::span<const std::uint8_t>, kRun> bytes;
  std::uint64_t hash = kFnvOffset;
  for (std::uint64_t first = 0; first < units; first += kRun) {
    const auto n = static_cast<std::size_t>(std::min(kRun, units - first));
    for (std::size_t i = 0; i < n; ++i) run[i] = Physical{disk, first + i};
    if (Status got = gather(IoClass::kForegroundRead, {run.data(), n}, n, slab,
                            {bytes.data(), n}, false);
        !got.ok())
      return got;
    for (std::size_t i = 0; i < n; ++i) hash = fnv1a(hash, bytes[i]);
  }
  return hash;
}

Result<std::uint64_t> StripeStore::checksum_disk(DiskId disk) const {
  std::unique_lock lock(sync_->state);  // exclude in-flight writers
  return checksum_disk_locked(disk);
}

Result<std::vector<std::uint64_t>> StripeStore::checksum_disks() const {
  // One exclusive lock across ALL disks: the vector is a cross-disk-
  // consistent snapshot (no write can land between two entries).
  std::unique_lock lock(sync_->state);
  std::vector<std::uint64_t> sums;
  sums.reserve(array_.num_disks());
  for (DiskId disk = 0; disk < array_.num_disks(); ++disk) {
    auto sum = checksum_disk_locked(disk);
    if (!sum.ok()) return sum.status();
    sums.push_back(*sum);
  }
  return sums;
}

// --------------------------------------------------------------- integrity

IntegrityStats StripeStore::integrity_stats() const noexcept {
  IntegrityStats s;
  s.verified = sync_->crc_verified.load(std::memory_order_relaxed);
  s.mismatches = sync_->crc_mismatches.load(std::memory_order_relaxed);
  s.healed = sync_->crc_healed.load(std::memory_order_relaxed);
  s.unhealable = sync_->crc_unhealable.load(std::memory_order_relaxed);
  s.adopted = sync_->crc_adopted.load(std::memory_order_relaxed);
  s.scrubbed = sync_->scrubbed.load(std::memory_order_relaxed);
  return s;
}

Status StripeStore::heal_instance_locked(std::uint32_t stripe,
                                         std::uint32_t iteration,
                                         ScrubReport* report) {
  if (!integrity_) return OkStatus();
  if (stripe >= array_.num_stripes() || iteration >= iterations_)
    return Status::invalid_argument("heal: stripe/iteration out of range");
  const std::uint64_t instance =
      stripe + static_cast<std::uint64_t>(iteration) * array_.num_stripes();
  if (is_torn(instance)) {
    // A torn instance's parity is untrustworthy independent of
    // checksums; the write-path heal (full re-encode) owns it.
    if (report) ++report->skipped;
    return Status::parity_inconsistent(
        "stripe instance is parity-torn; a successful write heals it");
  }
  const core::Codec& codec = array_.codec();
  const std::uint32_t m = array_.num_parity_units();
  std::array<api::Array::StripeUnitStatus, 64> units;
  const auto width_r = array_.stripe_units(stripe, units);
  if (!width_r.ok()) return width_r.status();
  const std::uint32_t width = *width_r;
  const std::uint32_t kd = width - m;
  const std::uint64_t lift =
      static_cast<std::uint64_t>(iteration) * array_.units_per_disk();

  // Load every present unit in ONE kScrub gather, each checked against
  // its checksum.  Aliasing is safe: the heal rewrites only bad units,
  // from decoded bytes, and never reads a bad unit's bytes back.
  std::array<Physical, 64> homes;       // present units, in stripe order
  std::array<std::uint32_t, 64> slot;  // stripe position -> index in homes
  std::uint32_t num_present = 0;
  for (std::uint32_t u = 0; u < width; ++u) {
    if (units[u].lost) continue;
    slot[u] = num_present;
    homes[num_present++] =
        Physical{units[u].unit.disk, units[u].unit.offset + lift};
  }
  std::array<std::span<const std::uint8_t>, 64> bytes;
  std::array<Status, 64> checks;
  if (Status got = gather(
          IoClass::kScrub, {homes.data(), num_present}, num_present,
          arena(static_cast<std::size_t>(num_present) * unit_bytes_),
          {bytes.data(), num_present}, true, {checks.data(), num_present});
      !got.ok() && got.code() != StatusCode::kChecksumMismatch)
    return got;

  // Classify: lost units are erased; present units whose stored
  // checksum disagrees with their bytes are erased too (detected rot).
  // Unverified units (checksum 0) pass and are adopted below.
  std::array<std::uint32_t, 64> erased_idx;
  std::uint32_t num_erased = 0;
  std::array<bool, 64> bad{};  // by present index
  std::uint32_t num_bad = 0;
  std::array<std::span<const std::uint8_t>, 64> survivors;
  std::array<std::uint32_t, 64> survivor_idx;
  std::uint32_t ns = 0;
  for (std::uint32_t u = 0; u < width; ++u) {
    if (units[u].lost) {
      erased_idx[num_erased++] = u;
    } else if (checks[slot[u]].ok()) {
      survivors[ns] = bytes[slot[u]];
      survivor_idx[ns++] = u;
    } else {
      if (report) ++report->mismatches;
      bad[slot[u]] = true;
      erased_idx[num_erased++] = u;
      ++num_bad;
    }
  }

  if (num_erased > m) {
    sync_->crc_unhealable.fetch_add(1, std::memory_order_relaxed);
    if (report) ++report->unhealable;
    return Status::checksum_mismatch(
        "stripe " + std::to_string(stripe) + " iteration " +
        std::to_string(iteration) + ": " + std::to_string(num_bad) +
        " checksum-bad unit(s) plus " + std::to_string(num_erased - num_bad) +
        " lost unit(s) exceed the codec's tolerance of " + std::to_string(m));
  }

  if (num_bad > 0) {
    // Mismatch == erasure: reconstruct each bad unit from the good
    // survivors (lost units stay erased but unmaterialized) and
    // rewrite it with a fresh checksum -- one journaled scatter, so a
    // crash mid-heal replays whole.
    const auto heal_slab =
        scratch(0, static_cast<std::size_t>(num_bad) * unit_bytes_);
    std::array<std::span<std::uint8_t>, api::kMaxParityUnits> outs{};
    std::array<IoRequest, api::kMaxParityUnits> stores;
    std::uint32_t num_stores = 0;
    for (std::uint32_t e = 0; e < num_erased; ++e) {
      const std::uint32_t u = erased_idx[e];
      if (units[u].lost) continue;
      const std::uint32_t i = slot[u];
      outs[e] = heal_slab.subspan(
          static_cast<std::size_t>(num_stores) * unit_bytes_, unit_bytes_);
      stores[num_stores++] = IoRequest::write_of(
          IoClass::kScrub, homes[i].disk, byte_offset(homes[i].offset),
          outs[e]);
    }
    codec.reconstruct(kd, {survivors.data(), ns}, {survivor_idx.data(), ns},
                      {erased_idx.data(), num_erased},
                      {outs.data(), num_erased});
    if (Status stored = scatter({stores.data(), num_stores}, true);
        !stored.ok())
      return stored;
    sync_->crc_healed.fetch_add(num_bad, std::memory_order_relaxed);
    if (report) report->healed += num_bad;
  }

  // Adopt unverified good units: their current bytes become the claim,
  // so future reads of them are actually verified.
  for (std::uint32_t i = 0; i < num_present; ++i) {
    if (bad[i] || crc_[homes[i].disk][homes[i].offset] != 0) continue;
    if (Status crc = set_fresh_crc(homes[i], bytes[i]); !crc.ok()) return crc;
    sync_->crc_adopted.fetch_add(1, std::memory_order_relaxed);
  }
  return OkStatus();
}

Result<ScrubReport> StripeStore::scrub_some(std::uint64_t max_instances) {
  ScrubReport report;
  if (!integrity_) return report;
  const std::uint64_t total =
      static_cast<std::uint64_t>(array_.num_stripes()) * iterations_;
  for (std::uint64_t i = 0; i < max_instances; ++i) {
    const std::uint64_t instance =
        sync_->scrub_cursor.fetch_add(1, std::memory_order_relaxed) % total;
    const std::uint32_t stripe =
        static_cast<std::uint32_t>(instance % array_.num_stripes());
    const std::uint32_t iteration =
        static_cast<std::uint32_t>(instance / array_.num_stripes());
    std::shared_lock state(sync_->state);
    std::unique_lock shard(sync_->shards[instance % sync_->shards.size()]);
    const Status healed = heal_instance_locked(stripe, iteration, &report);
    ++report.instances;
    sync_->scrubbed.fetch_add(1, std::memory_order_relaxed);
    // Rot past tolerance and torn instances are counted, not fatal (the
    // sweep continues); only substrate errors abort the slice.
    if (!healed.ok() && healed.code() != StatusCode::kChecksumMismatch &&
        healed.code() != StatusCode::kParityInconsistent)
      return healed;
  }
  return report;
}

Result<ScrubReport> StripeStore::scrub() {
  return scrub_some(static_cast<std::uint64_t>(array_.num_stripes()) *
                    iterations_);
}

Result<std::uint64_t> StripeStore::verify_stripes() {
  std::unique_lock lock(sync_->state);
  // Media is only a consistent code word modulo the dirty table: fold
  // everything first so the sweep verifies the real current state.
  if (Status flushed = flush_dirty_exclusive(); !flushed.ok())
    return flushed;
  const core::Codec& codec = array_.codec();
  const std::uint32_t m = array_.num_parity_units();
  std::uint64_t inconsistent = 0;
  std::array<api::Array::StripeUnitStatus, 64> units;
  for (std::uint32_t stripe = 0; stripe < array_.num_stripes(); ++stripe) {
    const auto width_r = array_.stripe_units(stripe, units);
    if (!width_r.ok()) return width_r.status();
    const std::uint32_t width = *width_r;
    const std::uint32_t kd = width - m;
    bool complete = true;
    for (std::uint32_t u = 0; u < width; ++u)
      if (units[u].lost) complete = false;
    if (!complete) continue;  // degraded stripes cannot be byte-verified
    for (std::uint32_t it = 0; it < iterations_; ++it) {
      const std::uint64_t lift =
          static_cast<std::uint64_t>(it) * array_.units_per_disk();
      // Slab: width stored units (aliased when the backend allows),
      // then m re-encoded parities.
      const auto slab =
          arena(static_cast<std::size_t>(width + m) * unit_bytes_);
      std::array<Physical, 64> homes;
      for (std::uint32_t u = 0; u < width; ++u)
        homes[u] = Physical{units[u].unit.disk, units[u].unit.offset + lift};
      std::array<std::span<const std::uint8_t>, 64> stored;
      if (Status got = gather(IoClass::kForegroundRead, {homes.data(), width},
                              width, slab.first(width * unit_bytes_),
                              {stored.data(), width}, false);
          !got.ok())
        return got;
      bool bad = is_torn(stripe +
                         static_cast<std::uint64_t>(it) * array_.num_stripes());
      for (std::uint32_t u = 0; u < width && integrity_; ++u) {
        const std::uint32_t claim = crc_[homes[u].disk][homes[u].offset];
        if (claim != 0 && core::crc32c_nonzero(stored[u]) != claim) bad = true;
      }
      // Parity must re-encode byte-identically from the stored data.
      std::array<std::span<std::uint8_t>, api::kMaxParityUnits> expect{};
      for (std::uint32_t j = 0; j < m; ++j)
        expect[j] = slab.subspan(
            static_cast<std::size_t>(width + j) * unit_bytes_, unit_bytes_);
      codec.encode({stored.data(), kd}, {expect.data(), m});
      for (std::uint32_t j = 0; j < m; ++j)
        if (std::memcmp(expect[j].data(), stored[kd + j].data(),
                        unit_bytes_) != 0)
          bad = true;
      if (bad) ++inconsistent;
    }
  }
  return inconsistent;
}

}  // namespace pdl::io
