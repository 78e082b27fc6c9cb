#include "smr/kv_store.h"

#include <cstring>
#include <memory>

namespace seemore {

namespace {

// Every encoder below returns one allocation of exactly the encoded size
// (EncodeExact): results and ops are built once per request.

Bytes MakeResult(KvResult status, const std::string& value = "") {
  return EncodeExact([&](Encoder& enc) {
    enc.PutU8(static_cast<uint8_t>(status));
    enc.PutString(value);
  });
}

/// `header` followed by `zeros` zero bytes, in one allocation: the echo
/// payloads are zero-filled, so no temporary string is built to copy them.
template <size_t N>
Bytes WithZeroPadding(const StackEncoder<N>& header, uint32_t zeros) {
  Bytes out(header.size() + zeros, 0);
  std::memcpy(out.data(), header.data(), header.size());
  return out;
}

Bytes MakeEchoResult(uint32_t reply_size) {
  StackEncoder<1 + kMaxVarintSize> header;
  header.PutU8(static_cast<uint8_t>(KvResult::kOk));
  header.PutVarint(reply_size);
  return WithZeroPadding(header, reply_size);
}

}  // namespace

Bytes MakeNoop() {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(KvOp::kNoop));
  return enc.Take();
}

Bytes MakePut(const std::string& key, const std::string& value) {
  return EncodeExact([&](Encoder& enc) {
    enc.PutU8(static_cast<uint8_t>(KvOp::kPut));
    enc.PutString(key);
    enc.PutString(value);
  });
}

Bytes MakeGet(const std::string& key) {
  return EncodeExact([&](Encoder& enc) {
    enc.PutU8(static_cast<uint8_t>(KvOp::kGet));
    enc.PutString(key);
  });
}

Bytes MakeDelete(const std::string& key) {
  return EncodeExact([&](Encoder& enc) {
    enc.PutU8(static_cast<uint8_t>(KvOp::kDelete));
    enc.PutString(key);
  });
}

Bytes MakeCas(const std::string& key, const std::string& expected,
              const std::string& desired) {
  return EncodeExact([&](Encoder& enc) {
    enc.PutU8(static_cast<uint8_t>(KvOp::kCas));
    enc.PutString(key);
    enc.PutString(expected);
    enc.PutString(desired);
  });
}

Bytes MakeEcho(uint32_t reply_size, uint32_t request_padding) {
  StackEncoder<1 + 4 + kMaxVarintSize> header;
  header.PutU8(static_cast<uint8_t>(KvOp::kEcho));
  header.PutU32(reply_size);
  header.PutVarint(request_padding);
  return WithZeroPadding(header, request_padding);
}

KvReply ParseKvReply(const Bytes& result) {
  Decoder dec(result);
  KvReply out;
  out.status = static_cast<KvResult>(dec.GetU8());
  out.value = dec.GetString();
  if (!dec.ok()) {
    out.status = KvResult::kBadRequest;
    out.value.clear();
  }
  return out;
}

Bytes KvStateMachine::Execute(const Bytes& op) {
  ++ops_applied_;
  Decoder dec(op);
  const KvOp code = static_cast<KvOp>(dec.GetU8());
  if (!dec.ok()) return MakeResult(KvResult::kBadRequest);
  switch (code) {
    case KvOp::kNoop:
      return MakeResult(KvResult::kOk);
    case KvOp::kPut: {
      std::string key = dec.GetString();
      std::string value = dec.GetString();
      if (!dec.ok()) break;
      data_[key] = std::move(value);
      return MakeResult(KvResult::kOk);
    }
    case KvOp::kGet: {
      std::string key = dec.GetString();
      if (!dec.ok()) break;
      auto it = data_.find(key);
      if (it == data_.end()) return MakeResult(KvResult::kNotFound);
      return MakeResult(KvResult::kOk, it->second);
    }
    case KvOp::kDelete: {
      std::string key = dec.GetString();
      if (!dec.ok()) break;
      auto it = data_.find(key);
      if (it == data_.end()) return MakeResult(KvResult::kNotFound);
      data_.erase(it);
      return MakeResult(KvResult::kOk);
    }
    case KvOp::kCas: {
      std::string key = dec.GetString();
      std::string expected = dec.GetString();
      std::string desired = dec.GetString();
      if (!dec.ok()) break;
      auto it = data_.find(key);
      if (it == data_.end()) return MakeResult(KvResult::kNotFound);
      if (it->second != expected) {
        return MakeResult(KvResult::kMismatch, it->second);
      }
      it->second = std::move(desired);
      return MakeResult(KvResult::kOk);
    }
    case KvOp::kEcho: {
      uint32_t reply_size = dec.GetU32();
      dec.Skip(dec.GetVarint());  // discard the padding in place
      if (!dec.ok()) break;
      // Cap the reply so a Byzantine client cannot make replicas allocate
      // unbounded memory.
      constexpr uint32_t kMaxEchoReply = 16 * 1024 * 1024;
      if (reply_size > kMaxEchoReply) break;
      return MakeEchoResult(reply_size);
    }
  }
  return MakeResult(KvResult::kBadRequest);
}

Bytes KvStateMachine::Snapshot() const {
  Encoder enc;
  enc.PutU64(ops_applied_);
  enc.PutVarint(data_.size());
  for (const auto& [key, value] : data_) {
    enc.PutString(key);
    enc.PutString(value);
  }
  return enc.Take();
}

Status KvStateMachine::Restore(const Bytes& snapshot) {
  Decoder dec(snapshot);
  uint64_t ops = dec.GetU64();
  uint64_t entries = dec.GetVarint();
  std::map<std::string, std::string> data;
  for (uint64_t i = 0; i < entries && dec.ok(); ++i) {
    std::string key = dec.GetString();
    std::string value = dec.GetString();
    data.emplace(std::move(key), std::move(value));
  }
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  ops_applied_ = ops;
  data_ = std::move(data);
  return Status::Ok();
}

Digest KvStateMachine::StateDigest() const { return Digest::Of(Snapshot()); }

std::unique_ptr<StateMachine> KvStateMachine::CloneEmpty() const {
  return std::make_unique<KvStateMachine>();
}

}  // namespace seemore
