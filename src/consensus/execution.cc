#include "consensus/execution.h"

#include <algorithm>

#include "util/logging.h"

namespace seemore {

ExecutionEngine::ExecutionEngine(std::unique_ptr<StateMachine> state_machine)
    : state_machine_(std::move(state_machine)) {}

std::vector<ExecutedRequest> ExecutionEngine::Commit(uint64_t seq,
                                                     const Batch& batch,
                                                     const Digest& digest) {
  std::vector<ExecutedRequest> out;
  if (HasCommitted(seq)) return out;
  if (seq == last_executed_ + 1) {
    out.reserve(batch.size());
    ExecuteBatch(seq, batch, digest, out);
  } else {
    pending_.emplace(seq, PendingBatch{batch, digest});
  }
  // Drain every buffered batch that is now in order. pending_ holds only
  // seqs above last_executed_, so the next one, if any, is first; after a
  // Restore it may already be runnable before any new commit arrives.
  for (auto it = pending_.begin();
       it != pending_.end() && it->first == last_executed_ + 1;
       it = pending_.erase(it)) {
    ExecuteBatch(it->first, it->second.batch, it->second.digest, out);
  }
  if (!out.empty()) EvictStaleReplies();
  return out;
}

void ExecutionEngine::ExecuteBatch(uint64_t seq, const Batch& batch,
                                   const Digest& digest,
                                   std::vector<ExecutedRequest>& out) {
  for (const Request& request : batch.requests) {
    ExecutedRequest& result = out.emplace_back();
    result.seq = seq;
    result.client = request.client;
    result.timestamp = request.timestamp;
    auto cache_it = reply_cache_.find(request.client);
    if (cache_it != reply_cache_.end() &&
        request.timestamp <= cache_it->second.timestamp) {
      // Duplicate of an already-executed request: never re-execute
      // (exactly-once semantics). Reply only reproducible for the latest
      // timestamp.
      result.duplicate = true;
      if (request.timestamp == cache_it->second.timestamp) {
        result.result = cache_it->second.reply;
      }
    } else {
      result.result = state_machine_->Execute(request.op);
      reply_cache_[request.client] =
          CacheEntry{request.timestamp, result.result, seq};
    }
  }
  executed_digests_.Append(seq, digest);
  last_executed_ = seq;
  ++batches_executed_;
}

void ExecutionEngine::EvictStaleReplies() {
  if (reply_retention_ == 0 || last_executed_ <= reply_retention_) return;
  const uint64_t evict_below = last_executed_ - reply_retention_;
  for (auto it = reply_cache_.begin(); it != reply_cache_.end();) {
    if (it->second.last_seq < evict_below) {
      it = reply_cache_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<Bytes> ExecutionEngine::CachedReply(PrincipalId client,
                                                  uint64_t timestamp) const {
  auto it = reply_cache_.find(client);
  if (it == reply_cache_.end() || it->second.timestamp != timestamp) {
    return std::nullopt;
  }
  return it->second.reply;
}

bool ExecutionEngine::SeenTimestamp(PrincipalId client,
                                    uint64_t timestamp) const {
  auto it = reply_cache_.find(client);
  return it != reply_cache_.end() && timestamp <= it->second.timestamp;
}

Bytes ExecutionEngine::Snapshot() const {
  Encoder enc;
  enc.PutU64(last_executed_);
  enc.PutBytes(state_machine_->Snapshot());
  enc.PutVarint(reply_cache_.size());
  // Sort-at-read: snapshot bytes feed checkpoint digests that must match
  // across replicas, so the cache is serialized in client-id order rather
  // than hash-table order.
  std::vector<const std::pair<PrincipalId, CacheEntry>*> entries;
  entries.reserve(reply_cache_.size());
  for (const auto& kv : reply_cache_) entries.push_back(&kv);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* kv : entries) {
    enc.PutU32(static_cast<uint32_t>(kv->first));
    enc.PutU64(kv->second.timestamp);
    enc.PutBytes(kv->second.reply);
    // With retention on, eviction keys off last_seq, so last_seq must travel
    // with the snapshot: a restored replica that guessed it (e.g. re-stamped
    // to the snapshot seq) would evict on a different schedule than replicas
    // that executed the prefix, and the caches — hence every later
    // checkpoint digest — would diverge. With retention off the field is
    // omitted and the byte layout is exactly the historical one.
    if (reply_retention_ > 0) enc.PutU64(kv->second.last_seq);
  }
  return enc.Take();
}

Status ExecutionEngine::Restore(const Bytes& snapshot, uint64_t seq) {
  Decoder dec(snapshot);
  const uint64_t snapshot_seq = dec.GetU64();
  Bytes sm_snapshot = dec.GetBytes();
  const uint64_t cache_size = dec.GetVarint();
  FlatHashMap<PrincipalId, CacheEntry> cache;
  cache.reserve(cache_size);
  for (uint64_t i = 0; i < cache_size && dec.ok(); ++i) {
    PrincipalId client = static_cast<PrincipalId>(dec.GetU32());
    CacheEntry entry;
    entry.timestamp = dec.GetU64();
    entry.reply = dec.GetBytes();
    // Symmetric with Snapshot(): retention is a cluster-wide config, so the
    // sender serialized last_seq iff this replica expects it.
    if (reply_retention_ > 0) entry.last_seq = dec.GetU64();
    cache.insert({client, std::move(entry)});
  }
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  if (snapshot_seq != seq) {
    return Status::Corruption("snapshot sequence number mismatch");
  }
  SEEMORE_RETURN_IF_ERROR(state_machine_->Restore(sm_snapshot));
  last_executed_ = snapshot_seq;
  reply_cache_ = std::move(cache);
  executed_digests_.ResetAbove(snapshot_seq);
  // Drop buffered batches at or below the restored point.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->first <= last_executed_) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::Ok();
}

Digest ExecutionEngine::StateDigest() const { return Digest::Of(Snapshot()); }

}  // namespace seemore
