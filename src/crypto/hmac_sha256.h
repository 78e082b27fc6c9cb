// HMAC-SHA256 (RFC 2104), built on the local SHA-256. Used both for
// pairwise channel MACs and as the primitive behind the simulated signature
// scheme (see keystore.h). Verified against RFC 4231 vectors in tests.
//
// Re-keying is the hot cost in the replica receive path (every signature
// verify is an HMAC), so the key expansion is exposed as a reusable
// HmacKeySchedule: the SHA-256 chaining states after the ipad and opad
// blocks. One schedule costs two block compressions to build; every MAC
// computed from it skips both, which for the short headers the protocols
// sign roughly halves the compression count per signature.

#ifndef SEEMORE_CRYPTO_HMAC_SHA256_H_
#define SEEMORE_CRYPTO_HMAC_SHA256_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.h"

namespace seemore {

class HmacSha256;

/// Precomputed HMAC key expansion (mid-states after the ipad/opad blocks).
/// Immutable once built; cheap to copy (96 bytes).
class HmacKeySchedule {
 public:
  HmacKeySchedule() = default;

  /// Expand `key` (any length; keys longer than the block size are hashed
  /// first, per RFC 2104).
  HmacKeySchedule(const uint8_t* key, size_t key_len);
  explicit HmacKeySchedule(const std::vector<uint8_t>& key)
      : HmacKeySchedule(key.data(), key.size()) {}

 private:
  friend class HmacSha256;
  Sha256::MidState inner_{};
  Sha256::MidState outer_{};
};

class HmacSha256 {
 public:
  static constexpr size_t kTagSize = Sha256::kDigestSize;

  /// Begin a MAC computation keyed with `key` (expands the key on the spot;
  /// use an HmacKeySchedule when the key is reused).
  HmacSha256(const uint8_t* key, size_t key_len)
      : HmacSha256(HmacKeySchedule(key, key_len)) {}
  explicit HmacSha256(const std::vector<uint8_t>& key)
      : HmacSha256(key.data(), key.size()) {}

  /// Begin a MAC computation from a precomputed key schedule.
  explicit HmacSha256(const HmacKeySchedule& schedule);

  void Update(const uint8_t* data, size_t len) { inner_.Update(data, len); }
  void Update(const std::vector<uint8_t>& data) {
    inner_.Update(data.data(), data.size());
  }

  void Final(uint8_t out[kTagSize]);

  /// One-shot convenience.
  static std::array<uint8_t, kTagSize> Mac(const uint8_t* key, size_t key_len,
                                           const uint8_t* data, size_t len);
  static std::array<uint8_t, kTagSize> Mac(const std::vector<uint8_t>& key,
                                           const std::vector<uint8_t>& data) {
    return Mac(key.data(), key.size(), data.data(), data.size());
  }
  static std::array<uint8_t, kTagSize> Mac(const HmacKeySchedule& schedule,
                                           const uint8_t* data, size_t len) {
    return Mac(schedule, data, len, nullptr, 0);
  }
  /// Two-span MAC: the tag over `head` followed by `tail`, streamed through
  /// one computation so the caller never joins the spans into a copy.
  static std::array<uint8_t, kTagSize> Mac(const HmacKeySchedule& schedule,
                                           const uint8_t* head,
                                           size_t head_len,
                                           const uint8_t* tail,
                                           size_t tail_len);

  /// Constant-time tag comparison.
  static bool Equal(const uint8_t* a, const uint8_t* b, size_t len);

 private:
  Sha256 inner_;
  Sha256::MidState outer_;
};

}  // namespace seemore

#endif  // SEEMORE_CRYPTO_HMAC_SHA256_H_
