#include "crypto/keystore.h"

namespace seemore {

KeyStore::KeyStore(uint64_t master_seed) {
  master_.resize(8);
  for (int i = 0; i < 8; ++i) {
    master_[i] = static_cast<uint8_t>(master_seed >> (8 * i));
  }
}

std::vector<uint8_t> KeyStore::DeriveKey(PrincipalId id) const {
  uint8_t id_bytes[4];
  for (int i = 0; i < 4; ++i) {
    id_bytes[i] = static_cast<uint8_t>(static_cast<uint32_t>(id) >> (8 * i));
  }
  auto tag = HmacSha256::Mac(master_.data(), master_.size(), id_bytes,
                             sizeof(id_bytes));
  return std::vector<uint8_t>(tag.begin(), tag.end());
}

const HmacKeySchedule& KeyStore::ScheduleFor(PrincipalId id) const {
  auto it = schedules_.find(id);
  if (it == schedules_.end()) {
    it = schedules_.emplace(id, HmacKeySchedule(DeriveKey(id))).first;
  }
  return it->second;
}

bool KeyStore::Verify(PrincipalId signer, const uint8_t* head,
                      size_t head_len, const uint8_t* tail, size_t tail_len,
                      const Signature& sig) const {
  auto expected =
      HmacSha256::Mac(ScheduleFor(signer), head, head_len, tail, tail_len);
  return HmacSha256::Equal(expected.data(), sig.data(), Signature::kSize);
}

}  // namespace seemore
