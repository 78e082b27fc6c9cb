#include "consensus/batch.h"

namespace seemore {

Bytes Batch::Encode() const {
  Encoder enc;
  enc.Reserve(EncodedSize());
  EncodeTo(enc);
  return enc.Take();
}

void Batch::EncodeTo(Encoder& enc) const {
  enc.PutVarint(requests.size());
  for (const Request& request : requests) request.EncodeTo(enc);
}

size_t Batch::EncodedSize() const {
  size_t total = VarintSize(requests.size());
  for (const Request& request : requests) total += request.EncodedSize();
  return total;
}

Result<Batch> Batch::Decode(const Bytes& bytes) {
  Decoder dec(bytes);
  SEEMORE_ASSIGN_OR_RETURN(Batch batch, DecodeFrom(dec));
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  return batch;
}

Result<Batch> Batch::DecodeFrom(Decoder& dec) {
  Batch batch;
  const uint64_t count = dec.GetVarint();
  if (!dec.ok()) return dec.status();
  // A count limit keeps a Byzantine primary from forcing huge allocations.
  constexpr uint64_t kMaxBatch = 1 << 16;
  if (count > kMaxBatch) return Status::Corruption("batch too large");
  batch.requests.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SEEMORE_ASSIGN_OR_RETURN(Request req, Request::DecodeFrom(dec));
    batch.requests.push_back(std::move(req));
  }
  return batch;
}

Digest Batch::ComputeDigest() const { return Digest::Of(Encode()); }

Batch Batch::Noop() { return Batch{}; }

const Digest& Batch::NoopDigest() {
  static const Digest digest = Noop().ComputeDigest();
  return digest;
}

}  // namespace seemore
