#include "crypto/hmac_sha256.h"

#include <cstring>

namespace seemore {

HmacKeySchedule::HmacKeySchedule(const uint8_t* key, size_t key_len) {
  uint8_t k0[Sha256::kBlockSize];
  std::memset(k0, 0, sizeof(k0));
  if (key_len > Sha256::kBlockSize) {
    auto hashed = Sha256::Hash(key, key_len);
    std::memcpy(k0, hashed.data(), hashed.size());
  } else {
    std::memcpy(k0, key, key_len);
  }

  uint8_t pad[Sha256::kBlockSize];
  Sha256 h;
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) pad[i] = k0[i] ^ 0x36;
  h.Update(pad, sizeof(pad));
  inner_ = h.Save();
  h.Reset();
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) pad[i] = k0[i] ^ 0x5c;
  h.Update(pad, sizeof(pad));
  outer_ = h.Save();
}

HmacSha256::HmacSha256(const HmacKeySchedule& schedule)
    : outer_(schedule.outer_) {
  inner_.Restore(schedule.inner_);
}

void HmacSha256::Final(uint8_t out[kTagSize]) {
  uint8_t inner_digest[Sha256::kDigestSize];
  inner_.Final(inner_digest);
  Sha256 outer;
  outer.Restore(outer_);
  outer.Update(inner_digest, sizeof(inner_digest));
  outer.Final(out);
}

std::array<uint8_t, HmacSha256::kTagSize> HmacSha256::Mac(const uint8_t* key,
                                                          size_t key_len,
                                                          const uint8_t* data,
                                                          size_t len) {
  HmacSha256 mac(key, key_len);
  mac.Update(data, len);
  std::array<uint8_t, kTagSize> out;
  mac.Final(out.data());
  return out;
}

std::array<uint8_t, HmacSha256::kTagSize> HmacSha256::Mac(
    const HmacKeySchedule& schedule, const uint8_t* head, size_t head_len,
    const uint8_t* tail, size_t tail_len) {
  HmacSha256 mac(schedule);
  mac.Update(head, head_len);
  if (tail_len > 0) mac.Update(tail, tail_len);
  std::array<uint8_t, kTagSize> out;
  mac.Final(out.data());
  return out;
}

bool HmacSha256::Equal(const uint8_t* a, const uint8_t* b, size_t len) {
  uint8_t diff = 0;
  for (size_t i = 0; i < len; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace seemore
